//! OFMF-B3: composition latency versus pool size and allocation strategy —
//! the ablation DESIGN.md calls out (first-fit vs best-fit vs
//! topology-aware), plus the stranded-resource accounting of Fig. 1.

use composer::accounting::{composable_outcome, heterogeneous_mix, static_outcome, PowerModel, StaticNodeShape};
use composer::{Composer, CompositionRequest, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofmf_bench::bench_rig;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use serde_json::json;
use std::sync::Arc;

fn bench_compose_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("composition");
    group.sample_size(20);
    for &targets in &[2usize, 8, 32] {
        for strategy in Strategy::ALL {
            let ofmf = bench_rig(8, targets, 7);
            let composer = Composer::new(Arc::clone(&ofmf), strategy);
            let req = CompositionRequest::compute_only("bench", 8, 8)
                .with_fabric_memory_mib(1024)
                .with_storage_bytes(1 << 30);
            group.bench_with_input(BenchmarkId::new(format!("{strategy:?}"), targets), &targets, |b, _| {
                b.iter(|| {
                    let s = composer.compose(&req).expect("fits");
                    composer.decompose(&s.system).expect("tracked");
                });
            });
        }
    }
    group.finish();
}

fn bench_inventory_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("inventory_scan");
    let chassis = ODataId::new(top::CHASSIS);
    for &targets in &[2usize, 16, 64] {
        // The second arm adds client chassis no endpoint links to: the
        // scan's cost must follow the pools, not the size of the tree.
        for (arm, unrelated) in [("rack", 0usize), ("rack+2000chassis", 2000)] {
            let ofmf = bench_rig(16, targets, 3);
            for i in 0..unrelated {
                let body = json!({"@odata.type": "#Chassis.v1_25_0.Chassis", "Name": "client"});
                ofmf.registry
                    .create(&chassis.child(&format!("client{i:04}")), body)
                    .expect("fresh id");
            }
            let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
            group.bench_with_input(BenchmarkId::new(arm, targets), &targets, |b, _| {
                b.iter(|| std::hint::black_box(composer.inventory()));
            });
        }
    }
    group.finish();
}

fn bench_accounting(c: &mut Criterion) {
    // The Fig. 1 analytic comparison as a bench: static vs composable over
    // a 1k-job mix.
    let jobs = heterogeneous_mix(1024, 5);
    let power = PowerModel::default();
    let shape = StaticNodeShape {
        cores: 32,
        memory_gib: 384,
        gpus: 2,
    };
    let total_mem: u64 = jobs.iter().map(|j| j.memory_gib).sum();
    let total_gpus: u32 = jobs.iter().map(|j| j.gpus).sum();
    let mut group = c.benchmark_group("fig1_accounting");
    group.bench_function("static", |b| {
        b.iter(|| std::hint::black_box(static_outcome(&jobs, shape, jobs.len(), &power)))
    });
    group.bench_function("composable", |b| {
        b.iter(|| {
            std::hint::black_box(composable_outcome(
                &jobs,
                jobs.len(),
                32,
                total_mem + total_mem / 10,
                total_gpus + 2,
                &power,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compose_decompose, bench_inventory_scan, bench_accounting);
criterion_main!(benches);
