//! Property test for WAL durability: for ANY sequence of registry
//! mutations — with snapshot compactions interleaved at arbitrary points —
//! replay(snapshot + WAL suffix) reconstructs a tree identical to the live
//! one: same resources, same bodies, same ETags, same `Members` lists and
//! counts, same link closure, and an ETag allocator that resumes above
//! every allocated value.

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
                    wal.snapshot_with(|| live.snapshot_records()).unwrap();
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
