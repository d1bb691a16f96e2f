//! OFMF-B8: write-ahead-log cost model — append throughput per fsync
//! policy, and cold-boot replay time as the journal grows. The recovery
//! requirement bounds the second: a journal of 100k mutations must replay
//! into a full resource tree in under two seconds, or restart-based
//! fail-over stops being cheaper than re-discovery.
//!
//! `OFMF_BENCH_QUICK=1` shrinks sample counts so CI can smoke-run the full
//! harness in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ofmf_wal::{FsyncPolicy, Wal, WalRecord};
use redfish_model::odata::ODataId;
use redfish_model::{replay, Registry};
use serde_json::json;
use std::path::PathBuf;

fn quick() -> bool {
    std::env::var("OFMF_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A fresh per-run scratch directory (criterion forks nothing, so the pid
/// plus a tag is collision-free).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ofmf-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Journal `n` registry mutations the way the live tree does: a root, a
/// collection, then member creates with occasional patches — the shape a
/// real control plane leaves behind.
fn journal_with(dir: &PathBuf, n: usize, policy: FsyncPolicy) -> std::sync::Arc<Wal> {
    let wal = std::sync::Arc::new(Wal::open(dir, policy).expect("temp WAL dir"));
    let reg = Registry::new().with_journal(Some(std::sync::Arc::clone(&wal)));
    let root = ODataId::new("/redfish/v1");
    reg.create(&root, json!({"Name": "root"})).expect("fresh tree");
    let col = root.child("Systems");
    reg.create_collection(&col, "#ComputerSystemCollection.ComputerSystemCollection", "Systems")
        .expect("fresh tree");
    for i in 0..n {
        let id = col.child(&format!("sys{i:06}"));
        reg.create(
            &id,
            json!({
                "@odata.type": "#ComputerSystem.v1_20_0.ComputerSystem",
                "Id": format!("sys{i:06}"),
                "Name": format!("node {i}"),
                "Status": {"State": "Enabled", "Health": "OK"},
            }),
        )
        .expect("unique member ids");
        if i % 8 == 0 {
            reg.patch(&id, &json!({"Oem": {"Boot": i}}), None)
                .expect("member exists");
        }
    }
    wal.flush().expect("drain batch before measuring");
    wal
}

/// Append throughput per fsync policy: `off` is the in-memory write path
/// plus framing, `batch:5` amortizes one fsync over the commit group,
/// `always` pays the device round-trip per record.
fn bench_append_policies(c: &mut Criterion) {
    const BATCH: usize = 256;
    let mut group = c.benchmark_group("wal_append");
    group.throughput(Throughput::Elements(BATCH as u64));
    if quick() {
        group.sample_size(10);
    }
    for &(policy, name) in &[
        (FsyncPolicy::Off, "off"),
        (FsyncPolicy::Batch(5), "batch_5ms"),
        (FsyncPolicy::Always, "always"),
    ] {
        if quick() && matches!(policy, FsyncPolicy::Always) {
            continue; // device-bound; dominates CI smoke time for no signal
        }
        let dir = scratch(&format!("append-{name}"));
        let wal = Wal::open(&dir, policy).expect("temp WAL dir");
        let mut i = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    wal.append(&WalRecord::Patch {
                        id: format!("/redfish/v1/Systems/sys{:06}", i % 4096),
                        delta: json!({"Oem": {"Bench": i}}),
                        etag: i as u64,
                    })
                    .expect("journal healthy");
                    i += 1;
                }
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Cold-boot replay: decode the full journal and fold it into a fresh
/// registry, exactly what `Ofmf::with_wal` does at process start. The
/// 100k point is the acceptance bound (< 2 s wall).
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_replay");
    group.sample_size(10);
    let sizes: &[usize] = if quick() { &[10_000] } else { &[10_000, 100_000] };
    for &n in sizes {
        let dir = scratch(&format!("replay-{n}"));
        let wal = journal_with(&dir, n, FsyncPolicy::Off);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("boot", n), &n, |b, _| {
            b.iter(|| {
                let records = wal.replay().expect("journal intact").records;
                let reg = Registry::new();
                let applied = replay::apply_all(&reg, &records);
                std::hint::black_box((applied, reg.len()));
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Snapshot compaction cost: fold the live log into `snapshot.bin` while
/// the tree keeps its full size — the background-checkpoint price.
fn bench_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_snapshot");
    group.sample_size(10);
    let n = if quick() { 2_000 } else { 10_000 };
    let dir = scratch("snapshot");
    let wal = journal_with(&dir, n, FsyncPolicy::Off);
    let reg = Registry::new();
    replay::apply_all(&reg, &wal.replay().expect("journal intact").records);
    group.bench_function(&format!("compact_{n}"), |b| {
        b.iter(|| {
            let written = wal
                .snapshot_with(|out| reg.stream_snapshot(out))
                .expect("snapshot dir writable");
            std::hint::black_box(written);
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(benches, bench_append_policies, bench_replay, bench_snapshot);
criterion_main!(benches);
