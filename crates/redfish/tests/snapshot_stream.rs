//! The streamed snapshot of a quiescent tree: `snapshot.bin` holds exactly
//! the frames a whole-tree collect in path order writes — one owned
//! `InstallResource` per resource, serialised through `to_value` — in
//! stripe-major order instead, which install records do not depend on. A
//! collection's record holds no `Members`: its members are its children,
//! which the snapshot installs as resources of their own. Under
//! `--features lockcheck` the same walk is checked to hold one stripe lock at
//! a time and none across file I/O. Alone in its file, so alone in its
//! process: the lock graph it reads is its own.

use ofmf_wal::{encode_frame, scan_frames, FsyncPolicy, Wal, WalRecord};
use redfish_model::odata::ODataId;
use redfish_model::Registry;
use serde_json::json;
use std::sync::Arc;

#[test]
fn streamed_snapshot_writes_the_collected_frames_one_stripe_at_a_time() {
    let dir = std::env::temp_dir().join(format!("ofmf-snapshot-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).unwrap());
    let reg = Registry::new().with_journal(Some(Arc::clone(&wal)));
    let root = ODataId::new("/redfish/v1");
    reg.create(&root, json!({"Name": "root \"quoted\" \u{e9}"})).unwrap();
    for c in ["Systems", "Chassis", "Fabrics"] {
        reg.create_collection(&root.child(c), "#C.C", c).unwrap();
    }
    // One stripe, many batches: a stripe is not the walk's unit of work.
    for i in 0..2000 {
        let body = json!({"Name": format!("chassis {i}"), "Load": i as f64 / 8.0, "Tags": [i, null, true]});
        reg.create(&root.child("Chassis").child(&format!("c{i:04}")), body)
            .unwrap();
    }
    reg.create(&root.child("Systems").child("s1"), json!({"Name": "s1"}))
        .unwrap();

    let frame_of = |rec: &WalRecord| {
        let mut frame = Vec::new();
        encode_frame(&serde_json::to_vec(&rec.to_value()).unwrap(), &mut frame);
        frame
    };
    let mut expected = Vec::new();
    reg.for_each(|id, node| {
        let mut body = node.body.clone();
        if node.is_collection {
            let obj = body.as_object_mut().unwrap();
            assert!(obj.remove("Members").is_some() && obj.remove("Members@odata.count").is_some());
        }
        expected.push(frame_of(&WalRecord::InstallResource {
            id: id.as_str().to_string(),
            body,
            etag: node.etag.0,
            is_collection: node.is_collection,
        }));
    });
    expected.push(frame_of(&WalRecord::EtagFloor { seq: reg.etag_seq() }));

    #[cfg(feature = "lockcheck")]
    {
        parking_lot::lock_order_reset();
        parking_lot::blocking_reset();
    }
    let written = wal.snapshot_with(|out| reg.stream_snapshot(out)).unwrap();
    assert_eq!(written, reg.len() + 1);
    #[cfg(feature = "lockcheck")]
    {
        // Every nested acquisition was snap mutex → one stripe: had the walk
        // held a stripe while taking the next, that stripe would be an
        // edge's holder.
        let report = parking_lot::lock_order_report();
        assert!(!report.edges.is_empty(), "the walk ran under the snap mutex");
        for e in &report.edges {
            assert!(!e.held_at.contains("registry.rs"), "stripe held across {e:?}");
        }
        let writes = parking_lot::blocking_report();
        assert!(writes.iter().any(|w| w.kind == "wal.file.snapshot"));
        for w in &writes {
            assert!(
                w.held.iter().all(|h| !h.contains("registry.rs")),
                "I/O under a stripe: {w:?}"
            );
        }
    }

    let bytes = std::fs::read(wal.snapshot_path()).unwrap();
    let (frames, valid) = scan_frames(&bytes);
    assert_eq!(valid, bytes.len());
    let mut streamed: Vec<Vec<u8>> = frames.iter().map(|f| bytes[f.offset..f.end()].to_vec()).collect();
    assert_eq!(
        streamed.last(),
        expected.last(),
        "the allocator floor closes the snapshot"
    );
    streamed.sort();
    expected.sort();
    assert!(streamed == expected, "same frames, byte for byte, as a multiset");
    let _ = std::fs::remove_dir_all(&dir);
}
