//! OFMF-B2: event fan-out cost versus subscriber count — the
//! subscription-based central repository at scale.
//!
//! `indexed` is the realistic shape at 16/64/256 *filtered* subscribers,
//! where the routing index skips almost everyone; `broadcast` is the
//! all-wildcard shape, where the index cannot skip anyone and the cost is
//! the shared zero-copy batch per delivery.
//!
//! `OFMF_BENCH_QUICK=1` shrinks sample counts so CI can smoke-run the full
//! harness in seconds (catching panics/deadlocks, not regressions).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ofmf_core::clock::Clock;
use ofmf_core::events::EventService;
use ofmf_core::tree::bootstrap;
use redfish_model::odata::ODataId;
use redfish_model::resources::events::{EventEnvelope, EventType};
use redfish_model::Registry;
use std::sync::Arc;

fn quick() -> bool {
    std::env::var("OFMF_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A routing population shaped like a real deployment: most subscribers are
/// composed-system clients watching the handful of resources that make up
/// their own system (a System, its Chassis, its storage service, its
/// manager, its resource blocks, its tasks — six origin filters across six
/// collections); a fixed pair of fabric operators (the composer and an ops
/// dashboard) watch the fabric the bench publishes into — operator
/// subscriptions are O(1) per deployment, client subscriptions are the
/// scaling axis. Returns the service plus the watcher receivers
/// (the only queues a filtered publish can land in). `filtered=false`
/// makes everyone a wildcard (broadcast shape) and returns every receiver.
#[allow(clippy::type_complexity)]
fn service_with_subs(
    n: usize,
    filtered: bool,
) -> (
    EventService,
    Vec<crossbeam::channel::Receiver<EventEnvelope>>,
    Vec<crossbeam::channel::Receiver<EventEnvelope>>,
) {
    let reg = Registry::new();
    bootstrap(&reg, "bench").unwrap();
    let svc = EventService::new(Arc::new(Clock::manual())).with_queue_depth(1024);
    let mut watchers = Vec::new();
    let mut others = Vec::new();
    for i in 0..n {
        let (types, origins, watches) = if filtered {
            if i < 2 {
                (
                    vec![EventType::Alert],
                    vec![ODataId::new("/redfish/v1/Fabrics/CXL0")],
                    true,
                )
            } else {
                (
                    vec![EventType::Alert],
                    vec![
                        ODataId::new(format!("/redfish/v1/Systems/job{i}")),
                        ODataId::new(format!("/redfish/v1/Chassis/encl{i}")),
                        ODataId::new(format!("/redfish/v1/StorageServices/ss{i}")),
                        ODataId::new(format!("/redfish/v1/Managers/bmc{i}")),
                        ODataId::new(format!("/redfish/v1/CompositionService/ResourceBlocks/rb{i}")),
                        ODataId::new(format!("/redfish/v1/TaskService/Tasks/t{i}")),
                    ],
                    false,
                )
            }
        } else {
            (vec![], vec![], true)
        };
        let (_, rx) = svc.subscribe(&reg, &format!("channel://s{i}"), types, origins).unwrap();
        if watches {
            watchers.push(rx);
        } else {
            others.push(rx);
        }
    }
    (svc, watchers, others)
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_fanout");
    if quick() {
        group.sample_size(10);
    }
    let origin = ODataId::new("/redfish/v1/Fabrics/CXL0/Switches/sw0");
    for &subs in &[16usize, 64, 256] {
        group.throughput(Throughput::Elements(subs as u64));
        for (label, filtered) in [("indexed", true), ("broadcast", false)] {
            group.bench_with_input(BenchmarkId::new(label, subs), &subs, |b, &subs| {
                let (svc, watchers, _others) = service_with_subs(subs, filtered);
                b.iter(|| {
                    svc.publish(EventType::Alert, &origin, "bench", "Warning");
                    // Drain the only queues a delivery can land in, so they
                    // never fill.
                    for rx in &watchers {
                        while rx.try_recv().is_ok() {}
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
