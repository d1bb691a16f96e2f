//! OFMF-B1: resource-tree operation throughput (GET / PATCH / POST) as the
//! unified tree grows — the scalability requirement §III-A states ("the
//! management layer must be scalable to handle … management information
//! from large numbers of resources").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use redfish_model::odata::ODataId;
use redfish_model::Registry;
use serde_json::json;

fn tree_with(n: usize) -> (Registry, Vec<ODataId>) {
    let reg = Registry::new();
    let root = ODataId::new("/redfish/v1");
    reg.create(&root, json!({"Name": "root"})).unwrap();
    let col = root.child("Systems");
    reg.create_collection(&col, "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
        .unwrap();
    let ids: Vec<ODataId> = (0..n)
        .map(|i| {
            let id = col.child(&format!("sys{i:06}"));
            reg.create(
                &id,
                json!({
                    "@odata.type": "#ComputerSystem.v1_20_0.ComputerSystem",
                    "Id": format!("sys{i:06}"),
                    "Name": format!("node {i}"),
                    "Status": {"State": "Enabled", "Health": "OK"},
                    "ProcessorSummary": {"Count": 2, "CoreCount": 56},
                }),
            )
            .unwrap();
            id
        })
        .collect();
    (reg, ids)
}

fn bench_tree_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_ops");
    for &size in &[100usize, 1_000, 10_000] {
        let (reg, ids) = tree_with(size);
        group.throughput(Throughput::Elements(1));

        group.bench_with_input(BenchmarkId::new("get", size), &size, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let id = &ids[i % ids.len()];
                i += 1;
                std::hint::black_box(reg.get(id).unwrap());
            });
        });

        group.bench_with_input(BenchmarkId::new("patch", size), &size, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let id = &ids[i % ids.len()];
                i += 1;
                reg.patch(id, &json!({"Oem": {"Bench": i}}), None).unwrap();
            });
        });

        group.bench_with_input(BenchmarkId::new("create_delete", size), &size, |b, _| {
            let col = ODataId::new("/redfish/v1/Systems");
            b.iter(|| {
                let id = col.child("ephemeral");
                reg.create(&id, json!({"Name": "e"})).unwrap();
                reg.delete(&id).unwrap();
            });
        });
    }
    group.finish();
}

/// A tree with `n` systems spread across several top-level collections —
/// the shape where lock striping pays — journaled to `journal` from the
/// first create when one is given.
fn striped_tree(n: usize, journal: Option<std::sync::Arc<ofmf_wal::Wal>>) -> (Registry, Vec<ODataId>) {
    const TOPS: &[&str] = &["Systems", "Chassis", "Fabrics", "StorageServices"];
    let reg = Registry::new().with_journal(journal);
    let root = ODataId::new("/redfish/v1");
    reg.create(&root, json!({"Name": "root"})).unwrap();
    for t in TOPS {
        reg.create_collection(&root.child(t), "#Collection.Collection", t)
            .unwrap();
    }
    let ids: Vec<ODataId> = (0..n)
        .map(|i| {
            let id = root.child(TOPS[i % TOPS.len()]).child(&format!("r{i:06}"));
            reg.create(
                &id,
                json!({
                    "@odata.type": "#Resource.v1_0_0.Resource",
                    "Id": format!("r{i:06}"),
                    "Name": format!("resource {i}"),
                    "Status": {"State": "Enabled", "Health": "OK"},
                }),
            )
            .unwrap();
            id
        })
        .collect();
    (reg, ids)
}

/// The GET wire path under concurrent mixed read/write load:
/// `sharded_cached` is the in-memory registry, `sharded_cached_wal` the
/// same with a write-ahead journal attached (group-commit `batch:5` fsync)
/// so every writer mutation also pays the durability path. Two background
/// writer threads continuously mount/tear down 32-resource subtrees under
/// `Systems` while the measured thread serves hot GETs of other
/// collections — agents churning inventory while managers browse. The
/// durable-vs-in-memory gap (`sharded_cached_wal` vs `sharded_cached`) is
/// the EXPERIMENTS.md "WAL overhead" row.
fn bench_mixed_rw(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    const BATCH: usize = 1_000;
    let mut group = c.benchmark_group("tree_ops_mixed_rw");
    group.throughput(Throughput::Elements(BATCH as u64));
    for &(wal, name) in &[(false, "sharded_cached"), (true, "sharded_cached_wal")] {
        let wal_dir = std::env::temp_dir().join(format!("ofmf-bench-treeops-wal-{}", std::process::id()));
        let journal = wal.then(|| {
            let _ = std::fs::remove_dir_all(&wal_dir);
            let journal = ofmf_wal::Wal::open(&wal_dir, ofmf_wal::FsyncPolicy::Batch(5)).expect("temp WAL dir");
            std::sync::Arc::new(journal)
        });
        let (reg, ids) = striped_tree(10_000, journal);
        let reg = std::sync::Arc::new(reg);
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2usize)
            .map(|t| {
                let reg = std::sync::Arc::clone(&reg);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let col = ODataId::new("/redfish/v1/Systems");
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let base = col.child(&format!("eph{t}-{i}"));
                        reg.create(&base, json!({"Name": "ephemeral"})).unwrap();
                        for k in 0..32 {
                            reg.create(&base.child(&format!("sub{k}")), json!({"Name": "sub"}))
                                .unwrap();
                        }
                        reg.delete_subtree(&base);
                        i += 1;
                    }
                })
            })
            .collect();
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                for _ in 0..BATCH {
                    // A 64-resource hot set off the churned Systems
                    // collection (index ≡ 0 mod 4 stripes into Systems).
                    let mut k = (i * 13) % 64;
                    if k.is_multiple_of(4) {
                        k += 1;
                    }
                    i += 1;
                    std::hint::black_box(reg.wire_bytes(&ids[k]).unwrap());
                }
            });
        });
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        if wal {
            let _ = std::fs::remove_dir_all(&wal_dir);
        }
    }
    group.finish();
}

fn bench_concurrent_readers(c: &mut Criterion) {
    let (reg, ids) = tree_with(10_000);
    let reg = std::sync::Arc::new(reg);
    let mut group = c.benchmark_group("tree_ops_concurrent");
    for &threads in &[1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("readers", threads), &threads, |b, &threads| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let reg = std::sync::Arc::clone(&reg);
                        let ids = &ids;
                        s.spawn(move || {
                            for i in 0..100 {
                                let id = &ids[(t * 131 + i) % ids.len()];
                                std::hint::black_box(reg.get(id).unwrap());
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tree_ops, bench_concurrent_readers, bench_mixed_rw);
criterion_main!(benches);
