//! Property test for WAL durability: for ANY sequence of registry
//! mutations — with snapshot compactions interleaved at arbitrary points —
//! replay(snapshot + WAL suffix) reconstructs a tree identical to the live
//! one: same resources, same bodies, same ETags, same `Members` lists and
//! counts, same link closure, and an ETag allocator that resumes above
//! every allocated value. A second test streams the snapshots while two
//! threads keep writing, which is how the daemon's poll thread takes them.

use proptest::prelude::*;
use redfish_model::odata::ODataId;
use redfish_model::replay::apply_all;
use redfish_model::Registry;
use serde_json::json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Small alphabets so operations collide often.
fn member_id() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "d"]).prop_map(str::to_string)
}

/// A member id, or "" for the collection document itself.
fn member_or_collection() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "d", ""]).prop_map(str::to_string)
}

fn collection() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["Systems", "Chassis", "Fabrics"]).prop_map(str::to_string)
}

#[derive(Debug, Clone)]
enum Op {
    Create(String, String),
    CreateChild(String, String),
    Patch(String, String, i64),
    Replace(String, String, i64),
    Delete(String, String),
    DeleteSubtree(String, String),
    /// A collection nested under a member, then a member inside it.
    CreateNested(String, String),
    Snapshot,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (collection(), member_id()).prop_map(|(c, m)| Op::Create(c, m)),
        (collection(), member_id()).prop_map(|(c, m)| Op::CreateChild(c, m)),
        (collection(), member_or_collection(), any::<i64>()).prop_map(|(c, m, v)| Op::Patch(c, m, v)),
        (collection(), member_or_collection(), any::<i64>()).prop_map(|(c, m, v)| Op::Replace(c, m, v)),
        (collection(), member_id()).prop_map(|(c, m)| Op::Delete(c, m)),
        (collection(), member_id()).prop_map(|(c, m)| Op::DeleteSubtree(c, m)),
        (collection(), member_id()).prop_map(|(c, m)| Op::CreateNested(c, m)),
        Just(Op::Snapshot),
    ]
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn wal_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "ofmf-prop-wal-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn seeded_with_journal(wal: &Arc<ofmf_wal::Wal>) -> Registry {
    // Journal from the very first create, as `Ofmf::with_wal` does on a
    // fresh boot: the bootstrap itself must be replayable.
    let reg = Registry::new().with_journal(Some(Arc::clone(wal)));
    let root = ODataId::new("/redfish/v1");
    reg.create(&root, json!({"Name": "root"})).unwrap();
    for c in ["Systems", "Chassis", "Fabrics"] {
        reg.create_collection(&root.child(c), "#C.C", c).unwrap();
    }
    reg
}

fn assert_trees_identical(live: &Registry, replayed: &Registry) -> Result<(), TestCaseError> {
    let mut l = Vec::new();
    live.for_each(|id, node| l.push((id.clone(), node.clone())));
    let mut r = Vec::new();
    replayed.for_each(|id, node| r.push((id.clone(), node.clone())));
    prop_assert_eq!(l.len(), r.len(), "resource counts differ");
    for ((lid, lnode), (rid, rnode)) in l.iter().zip(r.iter()) {
        prop_assert_eq!(lid, rid);
        prop_assert_eq!(&lnode.etag, &rnode.etag, "etag mismatch at {}", lid);
        prop_assert_eq!(&lnode.body, &rnode.body, "body mismatch at {}", lid);
        prop_assert_eq!(lnode.is_collection, rnode.is_collection);
    }
    // Link closure carries over (both should be empty of dangling links).
    prop_assert_eq!(live.dangling_links(), replayed.dangling_links());
    prop_assert_eq!(
        live.etag_seq(),
        replayed.etag_seq(),
        "allocator must resume identically"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_of_snapshot_plus_wal_suffix_equals_live_tree(ops in prop::collection::vec(op(), 1..70)) {
        let dir = wal_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(ofmf_wal::Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
        let live = seeded_with_journal(&wal);
        let root = ODataId::new("/redfish/v1");

        for o in &ops {
            match o {
                Op::Create(c, m) => {
                    let _ = live.create(&root.child(c).child(m), json!({"Name": m.as_str()}));
                }
                Op::CreateChild(c, m) => {
                    let _ = live.create(&root.child(c).child(m).child("Sub"), json!({"Name": "sub"}));
                }
                Op::Patch(c, m, v) => {
                    let _ = live.patch(&root.child(c).child(m), &json!({"Value": v}), None);
                }
                Op::Replace(c, m, v) => {
                    let _ = live.replace(&root.child(c).child(m), json!({"Name": m.as_str(), "Value": v}));
                }
                Op::Delete(c, m) => {
                    let _ = live.delete(&root.child(c).child(m));
                }
                Op::DeleteSubtree(c, m) => {
                    let _ = live.delete_subtree(&root.child(c).child(m));
                }
                Op::CreateNested(c, m) => {
                    let nested = root.child(c).child(m).child("Parts");
                    let _ = live.create_collection(&nested, "#C.C", "Parts");
                    let _ = live.create(&nested.child("p"), json!({"Name": "p"}));
                }
                Op::Snapshot => {
                    wal.snapshot_with(|out| live.stream_snapshot(out)).unwrap();
                }
            }
        }

        // Boot: replay everything the journal holds into a fresh registry.
        let replayed = Registry::new();
        let replay = wal.replay().unwrap();
        prop_assert_eq!(replay.torn_tails, 0);
        apply_all(&replayed, &replay.records);
        assert_trees_identical(&live, &replayed)?;

        // And replaying the same journal AGAIN over the result is a no-op
        // (record idempotency, the property the rotate-then-collect
        // snapshot scheme relies on).
        apply_all(&replayed, &replay.records);
        assert_trees_identical(&live, &replayed)?;

        // A snapshot overlaps the live segment it is replayed with (mutations
        // racing its collection land in both): whatever suffix of the journal
        // runs over a tree that already reflects it changes nothing.
        apply_all(&replayed, &replay.records[replay.records.len() / 2..]);
        assert_trees_identical(&live, &replayed)?;

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One writer's round of churn: every mutation kind, over ids both writers
/// use (`Systems`, `Fabrics`: one stripe), the big `Chassis` collection
/// (another), and a top-level collection of its own (a third and fourth)
/// that it links from the root document (a fifth) while it exists.
fn churn(live: &Registry, writer: usize, round: usize) {
    let root = ODataId::new("/redfish/v1");
    for step in 0..40 {
        let k = round * 40 + step;
        let shared = root
            .child(["Systems", "Fabrics"][k % 2])
            .child(["a", "b", "c", "d"][(k / 2 + writer) % 4]);
        let _ = live.create(&shared, json!({"Name": "shared", "Writer": writer}));
        let _ = live.patch(&shared, &json!({"Value": k}), None);
        let _ = live.create(&shared.child("Sub"), json!({"Name": "sub"}));
        let chassis = root
            .child("Chassis")
            .child(&format!("c{:03}", (k * 37 + writer * 300) % 600));
        let _ = live.patch(&chassis, &json!({"Value": k}), None);
        let _ = live.replace(&chassis, json!({"Name": "replaced", "Round": round}));
        if k.is_multiple_of(3) {
            let _ = live.delete(&chassis);
        } else {
            let _ = live.create(&chassis, json!({"Name": "back"}));
        }
        if k.is_multiple_of(5) {
            let _ = live.delete_subtree(&shared);
        }
    }
    let racks = root.child(&format!("Racks{writer}"));
    live.create_collection(&racks, "#C.C", "Racks").unwrap();
    let link = |target: serde_json::Value| json!({"Links": {format!("Racks{writer}"): target}});
    live.patch(&root, &link(json!({"@odata.id": racks.as_str()})), None)
        .unwrap();
    live.create(&racks.child("r1"), json!({"Name": "r1"})).unwrap();
    if round.is_multiple_of(2) {
        live.patch(&root, &link(serde_json::Value::Null), None).unwrap();
        assert_eq!(live.delete_subtree(&racks), 2);
    } else {
        live.delete(&racks.child("r1")).unwrap();
        live.patch(&root, &link(serde_json::Value::Null), None).unwrap();
        live.delete(&racks).unwrap();
    }
}

#[test]
fn snapshot_under_concurrent_writers_replays_to_the_live_tree() {
    const ROUNDS: usize = 24;
    let dir = wal_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Arc::new(ofmf_wal::Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
    let live = seeded_with_journal(&wal);
    // More than two snapshot batches in one stripe: the walk lets go of the
    // Chassis stripe, and writers in, part-way through the collection.
    let chassis = ODataId::new("/redfish/v1/Chassis");
    for i in 0..600 {
        live.create(&chassis.child(&format!("c{i:03}")), json!({"Name": i}))
            .unwrap();
    }
    // Each round: both writers churn while this thread streams snapshots,
    // the last of them the one the writers finish under; then they hold
    // still while it replays the journal against the tree.
    let phase = std::sync::Barrier::new(3);
    let rounds_churned = AtomicU64::new(0);
    std::thread::scope(|s| {
        for writer in 0..2 {
            let (live, phase, rounds_churned) = (&live, &phase, &rounds_churned);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    phase.wait();
                    churn(live, writer, round);
                    rounds_churned.fetch_add(1, Ordering::SeqCst);
                    phase.wait();
                }
            });
        }
        for round in 0..ROUNDS {
            phase.wait();
            loop {
                wal.snapshot_with(|out| live.stream_snapshot(out)).unwrap();
                if rounds_churned.load(Ordering::SeqCst) == 2 * (round as u64 + 1) {
                    break;
                }
            }
            phase.wait();
            let replayed = Registry::new();
            let replay = wal.replay().unwrap();
            assert_eq!(replay.torn_tails, 0);
            apply_all(&replayed, &replay.records);
            assert_trees_identical(&live, &replayed).unwrap_or_else(|e| panic!("round {round}: {e:?}"));
            assert!(live.dangling_links().is_empty(), "round {round}");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
