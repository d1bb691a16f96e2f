//! OFMF-B4: agent fan-out — discovery and zone-apply cost as the number of
//! managed fabrics grows (the OFMF "is capable of interfacing with multiple
//! fabric managers by means of a set of agents"), plus concurrent telemetry
//! ingest throughput of the lock-striped series store (`sharded`) at
//! 1/4/16 ingesting threads.
//!
//! `OFMF_BENCH_QUICK=1` shrinks sample counts so CI can smoke-run the full
//! harness in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ofmf_agents::flavors::{cxl_agent, RackShape};
use ofmf_core::agent::{AgentMetric, AgentOp};
use ofmf_core::clock::Clock;
use ofmf_core::events::EventService;
use ofmf_core::telemetry::{TelemetryService, Threshold};
use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;

fn quick() -> bool {
    std::env::var("OFMF_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn rig_with_fabrics(n: usize) -> Arc<Ofmf> {
    let ofmf = Ofmf::new("agent-bench", HashMap::new(), 1);
    let shape = RackShape::default();
    for i in 0..n {
        ofmf.register_agent(Arc::new(cxl_agent(&format!("CXL{i}"), &shape, 1 << 20, i as u64)))
            .expect("unique ids");
    }
    ofmf
}

fn bench_registration(c: &mut Criterion) {
    let mut group = c.benchmark_group("agent_registration");
    group.sample_size(10);
    for &fabrics in &[1usize, 8, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(fabrics), &fabrics, |b, &fabrics| {
            b.iter(|| std::hint::black_box(rig_with_fabrics(fabrics)));
        });
    }
    group.finish();
}

fn bench_zone_apply_across_fabrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("zone_apply");
    group.sample_size(20);
    for &fabrics in &[1usize, 8, 32] {
        let ofmf = rig_with_fabrics(fabrics);
        group.bench_with_input(BenchmarkId::from_parameter(fabrics), &fabrics, |b, &fabrics| {
            let mut i = 0usize;
            b.iter(|| {
                let f = format!("CXL{}", i % fabrics);
                i += 1;
                let zones = ODataId::new(format!("/redfish/v1/Fabrics/{f}/Zones"));
                let zone = ofmf
                    .post(
                        &zones,
                        &json!({"Links": {"Endpoints": [
                            {"@odata.id": format!("/redfish/v1/Fabrics/{f}/Endpoints/cn00-ep")},
                            {"@odata.id": format!("/redfish/v1/Fabrics/{f}/Endpoints/mem00-ep")},
                        ]}}),
                    )
                    .unwrap();
                ofmf.delete(&zone).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_poll_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("poll_cycle");
    group.sample_size(20);
    for &fabrics in &[1usize, 8, 32] {
        let ofmf = rig_with_fabrics(fabrics);
        group.bench_with_input(BenchmarkId::from_parameter(fabrics), &fabrics, |b, _| {
            b.iter(|| std::hint::black_box(ofmf.poll()));
        });
    }
    group.finish();
}

fn bench_probe_route(c: &mut Criterion) {
    let ofmf = rig_with_fabrics(1);
    c.bench_function("probe_route", |b| {
        let op = AgentOp::ProbeRoute {
            initiator: ODataId::new("/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"),
            target: ODataId::new("/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"),
        };
        b.iter(|| std::hint::black_box(ofmf.apply("CXL0", &op).unwrap()));
    });
}

fn bench_telemetry_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_ingest");
    group.sample_size(if quick() { 10 } else { 20 });
    // Each thread plays one fabric poller: its own metric names (different
    // technologies expose different counters), a few origins per metric.
    const BATCH: usize = 64;
    const ROUNDS: usize = 50;
    let batches_for = |threads: usize| -> Vec<Vec<AgentMetric>> {
        (0..threads)
            .map(|t| {
                let names: Vec<Arc<str>> = (0..4)
                    .map(|m| Arc::from(format!("Fabric{t}Metric{m}").as_str()))
                    .collect();
                (0..BATCH)
                    .map(|i| AgentMetric {
                        metric_id: Arc::clone(&names[i % names.len()]),
                        origin: ODataId::new(format!("/redfish/v1/Fabrics/F{t}/Switches/sw{}", i % 8)),
                        value: i as f64,
                    })
                    .collect()
            })
            .collect()
    };
    for &threads in &[1usize, 4, 16] {
        group.throughput(Throughput::Elements((threads * ROUNDS * BATCH) as u64));
        group.bench_with_input(BenchmarkId::new("sharded", threads), &threads, |b, &threads| {
            let clock = Arc::new(Clock::manual());
            let tel = Arc::new(TelemetryService::new(Arc::clone(&clock)));
            // A realistic alerting config: one threshold rule per metric
            // the fleet exposes (64 rules at 16 fabrics). Limits sit above
            // every sample so the bench measures the check, not fan-out.
            for t in 0..16 {
                for m in 0..4 {
                    tel.add_threshold(Threshold {
                        metric_id: format!("Fabric{t}Metric{m}"),
                        upper: 1e12,
                        severity: "Warning".to_string(),
                    });
                }
            }
            let ev = Arc::new(EventService::new(clock));
            let batches = batches_for(threads);
            b.iter(|| {
                let handles: Vec<_> = batches
                    .iter()
                    .map(|batch| {
                        let tel = Arc::clone(&tel);
                        let ev = Arc::clone(&ev);
                        let batch = batch.clone();
                        std::thread::spawn(move || {
                            for _ in 0..ROUNDS {
                                std::hint::black_box(tel.ingest(&batch, &ev));
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_registration,
    bench_zone_apply_across_fabrics,
    bench_poll_cycle,
    bench_probe_route,
    bench_telemetry_ingest
);
criterion_main!(benches);
