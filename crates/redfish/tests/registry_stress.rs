//! Multi-threaded stress test for the sharded registry.
//!
//! Concurrent writers hammer different top-level subtrees (and each other's)
//! with create/patch/delete/delete-subtree while readers sweep the whole
//! tree; afterwards the registry's core invariants must hold:
//!
//! * **link closure** — no `{"@odata.id": …}` reference dangles;
//! * **membership consistency** — every collection's `Members` list matches
//!   the resources that actually exist under it, and
//!   `Members@odata.count` matches its length;
//! * **ETag monotonicity** — the version observed for any one resource id
//!   never goes backwards, and every mutation bumps it;
//! * **wire-cache coherence** — cached GET bytes always carry the ETag of
//!   the body they serialize.

use redfish_model::odata::ODataId;
use redfish_model::registry::Registry;
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const TOPS: &[&str] = &["Systems", "Chassis", "Fabrics", "StorageServices", "TaskService"];
const WRITERS: usize = 8;
const READERS: usize = 4;
const OPS_PER_WRITER: usize = 400;

fn bootstrap(reg: &Registry) -> ODataId {
    let root = ODataId::new("/redfish/v1");
    reg.create(
        &root,
        json!({"@odata.type": "#ServiceRoot.v1_15_0.ServiceRoot", "Name": "OFMF"}),
    )
    .unwrap();
    for t in TOPS {
        reg.create_collection(&root.child(t), "#Collection.Collection", t)
            .unwrap();
    }
    root
}

/// Deterministic per-thread PRNG (xorshift) — no `rand` dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() as usize) % xs.len()]
    }
}

#[test]
fn concurrent_mixed_load_preserves_invariants() {
    let reg = Arc::new(Registry::new());
    let root = bootstrap(&reg);
    let barrier = Arc::new(Barrier::new(WRITERS + READERS));
    let etag_regressions = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let reg = Arc::clone(&reg);
        let root = root.clone();
        let barrier = Arc::clone(&barrier);
        let regressions = Arc::clone(&etag_regressions);
        handles.push(thread::spawn(move || {
            let mut rng = Rng(0x9E37_79B9u64.wrapping_mul(w as u64 + 1) | 1);
            let mut last_etag: std::collections::HashMap<ODataId, u64> = Default::default();
            barrier.wait();
            for op in 0..OPS_PER_WRITER {
                let top = root.child(rng.pick(TOPS));
                // Each writer owns ids prefixed with its index, so two
                // writers never create/delete the same path — but they do
                // share parents, collections, and shards constantly.
                let id = top.child(&format!("w{w}-{}", rng.next() % 8));
                match op % 5 {
                    0 | 1 => {
                        if let Ok(e) = reg.create(&id, json!({"Name": id.leaf(), "Writer": w})) {
                            let prev = last_etag.insert(id.clone(), e.0);
                            if prev.is_some_and(|p| e.0 <= p) {
                                regressions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    2 => {
                        if let Ok(e) = reg.patch(&id, &json!({"Op": op}), None) {
                            let prev = last_etag.insert(id.clone(), e.0);
                            if prev.is_some_and(|p| e.0 <= p) {
                                regressions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    3 => {
                        // Grow a sub-resource then tear the subtree down.
                        let child = id.child("Ports").child("p0");
                        if reg.exists(&id) {
                            let _ = reg.create(&child, json!({"Name": "p0"}));
                            reg.delete_subtree(&id);
                            last_etag.remove(&id);
                        }
                    }
                    _ => {
                        let _ = reg.delete(&id);
                        last_etag.remove(&id);
                    }
                }
                // Read-your-writes through the cache path.
                if reg.exists(&id) {
                    if let Ok((bytes, etag)) = reg.wire_bytes(&id) {
                        let v: Value = serde_json::from_slice(&bytes).expect("cached bytes are valid JSON");
                        assert_eq!(
                            v["@odata.etag"].as_str().unwrap(),
                            etag.to_header(),
                            "cached bytes must carry the etag they were serialized under"
                        );
                    }
                }
            }
        }));
    }

    for r in 0..READERS {
        let reg = Arc::clone(&reg);
        let root = root.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let mut rng = Rng(0xDEAD_BEEFu64.wrapping_mul(r as u64 + 1) | 1);
            barrier.wait();
            for _ in 0..OPS_PER_WRITER {
                let top = root.child(rng.pick(TOPS));
                // Collection snapshot must be self-consistent even mid-churn.
                if let Ok(col) = reg.get(&top) {
                    let members = col.body["Members"].as_array().unwrap().len();
                    let count = col.body["Members@odata.count"].as_u64().unwrap() as usize;
                    assert_eq!(members, count, "Members vs count diverged on {top}");
                }
                let _ = reg.wire_bytes(&top);
                let _ = reg.ids_under(&top);
            }
        }));
    }

    for h in handles {
        h.join().expect("stress thread panicked");
    }

    assert_eq!(
        etag_regressions.load(Ordering::Relaxed),
        0,
        "per-resource etags must be strictly monotonic"
    );

    // Quiescent invariants.
    assert!(reg.dangling_links().is_empty(), "link closure violated");
    for t in TOPS {
        let col = root.child(t);
        let body = reg.get(&col).unwrap().body;
        let members: Vec<ODataId> = body["Members"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| ODataId::new(m["@odata.id"].as_str().unwrap()))
            .collect();
        assert_eq!(
            members.len(),
            body["Members@odata.count"].as_u64().unwrap() as usize,
            "{t}: count mismatch"
        );
        for m in &members {
            assert!(reg.exists(m), "{t}: member {m} listed but missing");
        }
        // Every direct child that exists is listed exactly once.
        for id in reg.ids_under(&col) {
            if id.parent().as_ref() == Some(&col) {
                assert_eq!(
                    members.iter().filter(|m| *m == &id).count(),
                    1,
                    "{t}: {id} not listed exactly once"
                );
            }
        }
    }

    // Cache stats sanity: the mixed load produced traffic on both sides.
    let (hits, misses) = reg.wire_cache_stats();
    assert!(misses > 0, "stress must exercise cache fills");
    assert!(hits + misses > 0);
}

/// With `--features lockcheck`, assert the stress suite leaves the
/// process-global lock-acquisition graph acyclic. The graph only ever
/// accumulates edges, so re-driving the mixed workload here and then
/// checking covers this binary's full locking surface regardless of the
/// order the harness ran the other tests in.
#[cfg(feature = "lockcheck")]
#[test]
fn lock_order_graph_is_cycle_free_after_stress() {
    concurrent_mixed_load_preserves_invariants();
    let report = parking_lot::lock_order_report();
    assert!(
        report.cycles.is_empty(),
        "potential deadlock witnessed by registry stress:\n{}",
        report.render()
    );
}
