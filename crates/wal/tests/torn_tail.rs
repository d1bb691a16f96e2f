//! Torn-write corpus: for EVERY byte offset inside the last record,
//! truncating the log there — and separately, bit-flipping any single byte
//! of the last record — must still boot, recover the longest valid prefix,
//! and bump `ofmf.wal.torn_tail.total`. A write-ahead log that refuses to
//! start after a torn tail converts a crash into an outage.

use ofmf_wal::{FsyncPolicy, Wal, WalRecord};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// Every test here replays torn logs, which bumps the process-wide
/// `ofmf.wal.torn_tail.total` that the truncation test reads around its own
/// replays; cargo runs tests on parallel threads, so they take turns.
static TORN_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ofmf-torn-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(i: u64) -> WalRecord {
    WalRecord::SessionTouch {
        token: format!("ofmf-token-{i:08}"),
        last_used_ms: i * 1000,
    }
}

/// Build a log of `n` records and return (dir, file bytes, frame end offsets).
fn build_log(tag: &str, n: u64) -> (PathBuf, Vec<u8>, Vec<usize>) {
    let dir = fresh_dir(tag);
    let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
    for i in 0..n {
        wal.append(&record(i)).expect("append");
    }
    drop(wal);
    let bytes = std::fs::read(dir.join("wal.log")).expect("read log");
    let (frames, valid) = ofmf_wal::scan_frames(&bytes);
    assert_eq!(valid, bytes.len(), "freshly written log must be fully valid");
    assert_eq!(frames.len(), n as usize);
    let ends = frames.iter().map(|f| f.end()).collect();
    (dir, bytes, ends)
}

#[test]
fn truncation_at_every_offset_of_the_last_record_recovers_prefix() {
    let _turn = TORN_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, bytes, ends) = build_log("trunc", 5);
    let log = dir.join("wal.log");
    let last_start = ends[ends.len() - 2]; // end of record 3 = start of record 4
    let torn_counter = ofmf_obs::counter("ofmf.wal.torn_tail.total");

    for cut in last_start..bytes.len() {
        std::fs::write(&log, &bytes[..cut]).expect("truncate");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("boot must succeed");
        let before = torn_counter.get();
        let replay = wal.replay().expect("replay must succeed");
        if cut == last_start {
            // A clean cut at a frame boundary is not a torn tail.
            assert_eq!(replay.torn_tails, 0, "cut at {cut}");
            assert_eq!(torn_counter.get(), before);
        } else {
            assert_eq!(replay.torn_tails, 1, "cut at {cut}");
            assert_eq!(torn_counter.get(), before + 1, "counter must bump at cut {cut}");
        }
        // Longest valid prefix: exactly the four complete records.
        assert_eq!(replay.records.len(), 4, "cut at {cut}");
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r, &record(i as u64), "cut at {cut}");
        }
        // The file was truncated in place: a second boot is clean.
        let replay2 = Wal::open(&dir, FsyncPolicy::Always)
            .expect("reopen")
            .replay()
            .expect("second replay");
        assert_eq!(replay2.torn_tails, 0, "cut at {cut}: truncation must persist");
        assert_eq!(replay2.records.len(), 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_at_every_byte_of_the_last_record_recovers_prefix() {
    let _turn = TORN_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, bytes, ends) = build_log("flip", 4);
    let log = dir.join("wal.log");
    let last_start = ends[ends.len() - 2];

    for pos in last_start..bytes.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= bit;
            std::fs::write(&log, &corrupted).expect("write corrupted");
            let wal = Wal::open(&dir, FsyncPolicy::Always).expect("boot must succeed");
            let replay = wal.replay().expect("replay must succeed");
            // A flipped bit in the last record must never produce a bogus
            // record: either the frame fails CRC/decode (3 records), or —
            // never — more.
            assert_eq!(replay.torn_tails, 1, "flip at {pos}:{bit:#x}");
            assert_eq!(replay.records.len(), 3, "flip at {pos}:{bit:#x}");
            for (i, r) in replay.records.iter().enumerate() {
                assert_eq!(r, &record(i as u64), "flip at {pos}:{bit:#x}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_appended_after_valid_log_is_dropped() {
    let _turn = TORN_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, bytes, _) = build_log("garbage", 3);
    let log = dir.join("wal.log");
    for garbage in [&b"\x00\x00"[..], &b"totally not a frame"[..], &[0xffu8; 64][..]] {
        let mut b = bytes.clone();
        b.extend_from_slice(garbage);
        std::fs::write(&log, &b).expect("write");
        let replay = Wal::open(&dir, FsyncPolicy::Always)
            .expect("boot")
            .replay()
            .expect("replay");
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.torn_tails, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn appends_after_torn_boot_extend_the_recovered_prefix() {
    let _turn = TORN_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, bytes, _) = build_log("extend", 3);
    let log = dir.join("wal.log");
    std::fs::write(&log, &bytes[..bytes.len() - 1]).expect("tear one byte");
    let wal = Wal::open(&dir, FsyncPolicy::Always).expect("boot");
    assert_eq!(wal.replay().expect("replay").records.len(), 2);
    wal.append(&record(77)).expect("append");
    drop(wal);
    let replay = Wal::open(&dir, FsyncPolicy::Always)
        .expect("reopen")
        .replay()
        .expect("replay");
    assert_eq!(replay.torn_tails, 0);
    assert_eq!(replay.records.len(), 3);
    assert_eq!(replay.records[2], record(77));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_inside_a_carried_over_segment_recovers_the_prefix() {
    let _turn = TORN_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (dir, _, _) = build_log("carried", 3);
    // A snapshot that fails after its rotation leaves the sealed segment
    // in wal.old; the next rotation carries the live segment over into it.
    let fail_snapshot = |wal: &Wal| {
        let failed = wal.snapshot_with(|_| Err(std::io::Error::other("no space left")));
        assert!(failed.is_err());
    };
    let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
    fail_snapshot(&wal); // wal.old = records 0..3
    wal.append(&record(3)).expect("append");
    wal.append(&record(4)).expect("append");
    fail_snapshot(&wal); // wal.old = records 0..5, two of them carried over
    wal.append(&record(5)).expect("append");
    drop(wal);

    let old = dir.join("wal.old");
    let bytes = std::fs::read(&old).expect("read old");
    let (frames, valid) = ofmf_wal::scan_frames(&bytes);
    assert_eq!((frames.len(), valid), (5, bytes.len()));
    let last_start = frames[4].offset;
    let survivors: Vec<WalRecord> = [0, 1, 2, 3, 5].into_iter().map(record).collect();
    for cut in last_start + 1..bytes.len() {
        std::fs::write(&old, &bytes[..cut]).expect("tear");
        let replay = Wal::open(&dir, FsyncPolicy::Always)
            .expect("boot must succeed")
            .replay()
            .expect("replay must succeed");
        assert_eq!(replay.torn_tails, 1, "cut at {cut}");
        assert_eq!(
            replay.records, survivors,
            "cut at {cut}: old prefix, then the live segment"
        );
    }
    // Replay cut the tear off on disk, so the next rotation extends a clean
    // wal.old: what it carries over stays reachable.
    let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
    fail_snapshot(&wal);
    wal.append(&record(6)).expect("append");
    drop(wal);
    let replay = Wal::open(&dir, FsyncPolicy::Always)
        .expect("reopen")
        .replay()
        .expect("replay");
    assert_eq!(replay.torn_tails, 0);
    let expected: Vec<WalRecord> = [0, 1, 2, 3, 5, 6].into_iter().map(record).collect();
    assert_eq!(replay.records, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
