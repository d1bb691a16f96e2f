//! Replay of write-ahead-log records into a [`Registry`].
//!
//! Replay is **ETag-exact**: every journaled mutation carries the ETag(s)
//! the live operation allocated (the target's, and the parent
//! collection's when linking/unlinking bumped one), and replay pins those
//! values instead of re-allocating. That makes the replayed tree
//! byte-identical to the live one — including `@odata.etag` headers —
//! regardless of how concurrent writers interleaved across stripes, and
//! it makes every record idempotent (replaying a record twice, e.g. once
//! from a snapshot and once from the live segment it overlaps, converges
//! to the same state).
//!
//! The one replay entry is [`Registry::apply_record`], by value: boot
//! routes each record it decoded either there or to the service that owns
//! it, and the body moves from the parsed frame into the tree. What lives
//! here is [`apply_all`], a helper for tests and benches, which hold on to
//! the records they replay (to replay them twice, or a suffix of them) and
//! so pay a clone per record that boot does not.

use crate::registry::Registry;
use ofmf_wal::WalRecord;

/// Test/bench helper, not the boot path: replay every registry-kind record
/// of `records` in order, cloning each into [`Registry::apply_record`]; the
/// ETag allocator resumes past the highest recorded value. Non-registry
/// records are skipped. Returns how many records applied.
pub fn apply_all(reg: &Registry, records: &[WalRecord]) -> usize {
    records.iter().filter(|&rec| reg.apply_record(rec.clone())).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::odata::ODataId;
    use serde_json::json;

    /// Compare two registries resource-by-resource, ETags included.
    fn assert_trees_identical(a: &Registry, b: &Registry) {
        let mut left = Vec::new();
        a.for_each(|id, node| left.push((id.clone(), node.clone())));
        let mut right = Vec::new();
        b.for_each(|id, node| right.push((id.clone(), node.clone())));
        assert_eq!(left, right);
        assert_eq!(a.etag_seq(), b.etag_seq());
    }

    #[test]
    fn journaled_mutations_replay_to_identical_tree() {
        let dir = std::env::temp_dir().join(format!("ofmf-replay-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = std::sync::Arc::new(ofmf_wal::Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
        let live = Registry::new().with_journal(Some(wal.clone()));

        let root = ODataId::new("/redfish/v1");
        live.create(&root, json!({"Name": "root"})).unwrap();
        let col = root.child("Systems");
        live.create_collection(&col, "#C.C", "Systems").unwrap();
        live.create(&col.child("a"), json!({"Name": "a"})).unwrap();
        live.create(&col.child("b"), json!({"Name": "b", "Status": {"Health": "OK"}}))
            .unwrap();
        live.patch(&col.child("b"), &json!({"Status": {"Health": "Warning"}}), None)
            .unwrap();
        live.replace(&col.child("a"), json!({"Name": "a2"})).unwrap();
        live.delete(&col.child("a")).unwrap();
        live.create(&col.child("c"), json!({"Name": "c"})).unwrap();
        live.create(&col.child("c").child("Sub"), json!({"Name": "sub"}))
            .unwrap();
        live.delete_subtree(&col.child("c"));

        // One frame per mutation, in the on-disk format every journal
        // written so far is in: the bytes are pinned, not just their decode.
        assert_eq!(wal.log_bytes(), 1262);

        let replayed = Registry::new();
        let records = wal.replay().unwrap().records;
        assert!(apply_all(&replayed, &records) > 0);
        assert_trees_identical(&live, &replayed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn etag_floor_prevents_reuse() {
        let r = Registry::new();
        apply_all(
            &r,
            &[WalRecord::Patch {
                id: "/redfish/v1".to_string(),
                delta: json!({"Name": "root2"}),
                etag: 99,
            }],
        );
        let e = r
            .create(&ODataId::new("/redfish/v1/Systems/x"), json!({"Name": "x"}))
            .unwrap();
        assert!(e.0 >= 100, "allocator must resume above replayed etags, got {e:?}");
    }
}
