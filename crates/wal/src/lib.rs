//! # ofmf-wal
//!
//! Dependency-free durability for the OFMF control plane: an append-only,
//! length-prefixed + CRC-checksummed write-ahead log of logical mutations,
//! periodic compacted snapshots with atomic rename-into-place, and a
//! replay path that truncates torn tails instead of refusing to boot.
//!
//! ## Layout
//!
//! A journal directory holds up to three files:
//!
//! * `wal.log` — the live append segment.
//! * `snapshot.bin` — the last compacted snapshot (same frame format).
//! * `wal.old` — the sealed previous segment(s), present only between a
//!   snapshot's log rotation and its rename-into-place (i.e. after a
//!   crash mid-snapshot or a snapshot that failed). A later rotation
//!   appends to it; only a published snapshot removes it.
//!
//! Replay order is `snapshot.bin`, then `wal.old` (if any), then
//! `wal.log` — always a consistent prefix of history. Records are
//! *idempotent* (they carry absolute ETags and full bodies), so a record
//! that lands both in a snapshot and in the live segment replays to the
//! same state; that is what makes the rotate-then-collect snapshot safe
//! against concurrent writers, and what lets a snapshot be streamed a
//! batch at a time ([`SnapshotWriter`]) instead of cut at one instant.
//!
//! ## Group commit
//!
//! All appends funnel through one mutex-guarded file handle; a batch of
//! records is framed into a single `write(2)`. The [`FsyncPolicy`]
//! decides when the file is additionally fsynced: `Always` (every
//! append), `Batch(ms)` (at most one fsync per window — bounded loss on
//! power failure, none on process crash), or `Off` (no explicit fsync).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod record;

pub use frame::{crc32, encode_frame, scan_frames, FrameInfo, FRAME_HEADER, MAX_FRAME_PAYLOAD};
pub use record::WalRecord;

use ofmf_obs::Counter;
use parking_lot::Mutex;
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// When the journal file is additionally `fsync`ed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: no loss even on power failure.
    Always,
    /// At most one fsync per window of this many milliseconds: every
    /// append still reaches the kernel (survives a process crash), and a
    /// power failure loses at most one window of mutations.
    Batch(u64),
    /// Never fsync explicitly: appends reach the kernel per write, but
    /// nothing forces them to stable storage.
    Off,
}

impl FsyncPolicy {
    /// The daemon's default: one fsync per 5 ms window.
    pub const DEFAULT: FsyncPolicy = FsyncPolicy::Batch(5);

    /// Parse a CLI spelling: `always`, `off`, `batch:<ms>`, or a bare
    /// `batch` for [`FsyncPolicy::DEFAULT`]'s window.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Off),
            "batch" => Some(FsyncPolicy::DEFAULT),
            other => {
                let ms = other.strip_prefix("batch:")?;
                ms.parse::<u64>().ok().map(FsyncPolicy::Batch)
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(ms) => write!(f, "batch:{ms}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// The result of [`Wal::replay`].
#[derive(Debug)]
pub struct Replay {
    /// Every decoded record, in snapshot → old-segment → live-segment order.
    pub records: Vec<WalRecord>,
    /// How many files had a torn tail truncated away (0–3).
    pub torn_tails: u64,
}

struct Inner {
    log: File,
    log_bytes: u64,
    last_sync_ms: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// The write-ahead journal: one per OFMF instance, shared by every
/// subsystem through `Arc<Wal>`.
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    opened: Instant,
    /// Append path: a leaf lock — nothing is acquired while holding it.
    inner: Mutex<Inner>,
    /// Serializes snapshot/replay against each other; ordered before
    /// `inner` and before any registry lock taken by a collect closure.
    snap: Mutex<()>,
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    replayed: Arc<Counter>,
    torn_tail: Arc<Counter>,
    snapshots: Arc<Counter>,
    errors: Arc<Counter>,
}

const LOG_FILE: &str = "wal.log";
const OLD_FILE: &str = "wal.old";
const SNAP_FILE: &str = "snapshot.bin";
const SNAP_TMP: &str = "snapshot.tmp";

/// The sink [`Wal::snapshot_with`] hands its closure. Records are framed
/// into a pending batch in memory as they are pushed, and the batch
/// reaches `snapshot.tmp` on [`SnapshotWriter::flush`] — so a producer
/// walking a locked structure pushes under its lock and flushes after
/// releasing it, and never holds more than one batch.
pub struct SnapshotWriter {
    file: File,
    payload: String,
    batch: Vec<u8>,
    records: usize,
    bytes: u64,
}

impl SnapshotWriter {
    /// Frame one record into the pending batch (memory only).
    pub fn push(&mut self, rec: &WalRecord) {
        self.payload.clear();
        rec.encode(&mut self.payload);
        self.frame();
    }

    /// Frame one [`WalRecord::InstallResource`] from borrowed parts
    /// (memory only): the same bytes [`SnapshotWriter::push`] writes for
    /// the owned record, without cloning the body into one.
    pub fn push_install(&mut self, id: &str, body: &Value, etag: u64, is_collection: bool) {
        self.payload.clear();
        record::encode_install(id, body, etag, is_collection, &mut self.payload);
        self.frame();
    }

    fn frame(&mut self) {
        frame::encode_frame(self.payload.as_bytes(), &mut self.batch);
        self.records += 1;
    }

    /// Write the pending batch to `snapshot.tmp`. Call with no lock held.
    pub fn flush(&mut self) -> io::Result<()> {
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.snapshot");
        self.file.write_all(&self.batch)?; // ofmf-lint: allow(no-blocking-while-locked, "a snapshot's writes hold only the snap mutex, taken by no hot path")
        self.bytes += self.batch.len() as u64;
        self.batch.clear();
        Ok(())
    }
}

impl Wal {
    /// Open (creating if needed) the journal directory and its live
    /// segment. Call [`Wal::replay`] before serving writes.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy) -> io::Result<Wal> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log_path = dir.join(LOG_FILE);
        let log = OpenOptions::new().create(true).append(true).open(&log_path)?;
        let log_bytes = log.metadata()?.len();
        Ok(Wal {
            dir,
            policy,
            opened: Instant::now(),
            inner: Mutex::new(Inner {
                log,
                log_bytes,
                last_sync_ms: 0,
            }),
            snap: Mutex::new(()),
            appends: ofmf_obs::counter("ofmf.wal.appends.total"),
            bytes: ofmf_obs::counter("ofmf.wal.bytes.total"),
            fsyncs: ofmf_obs::counter("ofmf.wal.fsyncs.total"),
            replayed: ofmf_obs::counter("ofmf.wal.replayed.total"),
            torn_tail: ofmf_obs::counter("ofmf.wal.torn_tail.total"),
            snapshots: ofmf_obs::counter("ofmf.wal.snapshot.total"),
            errors: ofmf_obs::counter("ofmf.wal.errors.total"),
        })
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Path of the live append segment (exposed for crash-injection tests).
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }

    /// Path of the current snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAP_FILE)
    }

    fn old_path(&self) -> PathBuf {
        self.dir.join(OLD_FILE)
    }

    /// Bytes currently in the live segment (frames + headers).
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    fn now_ms(&self) -> u64 {
        self.opened.elapsed().as_millis() as u64
    }

    /// Append one record (group-committed per the fsync policy).
    pub fn append(&self, rec: &WalRecord) -> io::Result<()> {
        self.append_many(std::slice::from_ref(rec))
    }

    /// Append a batch of records in one write.
    pub fn append_many(&self, recs: &[WalRecord]) -> io::Result<()> {
        if recs.is_empty() {
            return Ok(());
        }
        let mut payload = String::new();
        let mut buf = Vec::new();
        for r in recs {
            payload.clear();
            r.encode(&mut payload);
            frame::encode_frame(payload.as_bytes(), &mut buf);
        }
        let mut inner = self.inner.lock();
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.write");
        inner.log.write_all(&buf)?; // ofmf-lint: allow(no-blocking-while-locked, "group commit: the inner mutex is the append serialization point; the buffer is bounded")
        inner.log_bytes += buf.len() as u64;
        self.appends.add(recs.len() as u64);
        self.bytes.add(buf.len() as u64);
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(ms) => self.now_ms().saturating_sub(inner.last_sync_ms) >= ms,
            FsyncPolicy::Off => false,
        };
        if due {
            self.sync(&mut inner)?;
        }
        Ok(())
    }

    fn sync(&self, inner: &mut Inner) -> io::Result<()> {
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.fsync");
        // ofmf-wal: policy — the one durability point of the append path
        inner.log.sync_data()?; // ofmf-lint: allow(no-blocking-while-locked, "the WAL's single durability point: every journaling caller fsyncs inside its own lock scope by design")
        self.fsyncs.inc();
        inner.last_sync_ms = self.now_ms();
        Ok(())
    }

    /// Append one record, absorbing I/O errors into the
    /// `ofmf.wal.errors.total` counter. Mutation paths use this: by the
    /// time a record is journaled the in-memory mutation has already
    /// happened, so a journaling failure degrades durability, never
    /// availability.
    pub fn record(&self, rec: &WalRecord) {
        if self.append(rec).is_err() {
            self.errors.inc();
        }
    }

    /// Batch form of [`Wal::record`].
    pub fn record_many(&self, recs: &[WalRecord]) {
        if self.append_many(recs).is_err() {
            self.errors.inc();
        }
    }

    /// Force an fsync of the live segment regardless of policy.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        self.sync(&mut inner)
    }

    /// Write a compacted snapshot. The live segment is rotated out
    /// *before* `produce` runs, so the state it streams is guaranteed to
    /// cover everything in the sealed segment; mutations racing with the
    /// production land in the fresh segment and replay idempotently on
    /// top of the snapshot. Returns the number of records written. On an
    /// error the sealed segment stays (replay reads it, and the next
    /// rotation extends it) and the previous snapshot stays published.
    pub fn snapshot_with<F>(&self, produce: F) -> io::Result<usize>
    where
        F: FnOnce(&mut SnapshotWriter) -> io::Result<()>,
    {
        let mut span = ofmf_obs::enter_span("ofmf.wal.snapshot");
        let _guard = self.snap.lock();
        self.rotate_log()?;
        let tmp = self.dir.join(SNAP_TMP);
        let mut out = SnapshotWriter {
            file: File::create(&tmp)?, // ofmf-lint: allow(no-blocking-while-locked, "snapshot production holds only the snap mutex, taken by no hot path")
            payload: String::new(),
            batch: Vec::new(),
            records: 0,
            bytes: 0,
        };
        produce(&mut out)?;
        out.flush()?;
        // ofmf-wal: policy — the rename below must publish a fully durable snapshot
        out.file.sync_all()?; // ofmf-lint: allow(no-blocking-while-locked, "durability point, then the atomic publish it guards: under the snap mutex only")
        std::fs::rename(&tmp, self.snapshot_path())?;
        // ofmf-wal: policy — make the rename itself durable before dropping the old segment
        let _ = File::open(&self.dir).and_then(|d| d.sync_all()); // ofmf-lint: allow(no-blocking-while-locked, "make the rename durable, then drop the segment the snapshot superseded: under the snap mutex only")
        let _ = std::fs::remove_file(self.old_path());
        self.snapshots.inc();
        span.annotate("records", out.records.to_string());
        span.annotate("bytes", out.bytes.to_string());
        Ok(out.records)
    }

    /// Seal the live segment into `wal.old` and start a fresh one. A
    /// `wal.old` that is already there — a crash or an error between an
    /// earlier rotation and its snapshot's publish — holds records no
    /// snapshot covers yet, so it is extended, never replaced: the live
    /// segment is appended to it and made durable before the live log is
    /// emptied. (A crash in between leaves the segment in both files;
    /// replaying it twice converges, records being idempotent.)
    fn rotate_log(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        #[cfg(feature = "lockcheck")]
        parking_lot::blocking_op("wal.file.rotate");
        // Seal the segment before the snapshot supersedes it.
        self.sync(&mut inner)?;
        if self.old_path().exists() {
            let mut old = OpenOptions::new().append(true).open(self.old_path())?; // ofmf-lint: allow(no-blocking-while-locked, "carry-over copy: rotation must not interleave with appends")
            io::copy(&mut File::open(self.log_path())?, &mut old)?;
            // ofmf-wal: policy — the carried-over segment must be durable in wal.old before it leaves wal.log
            old.sync_all()?; // ofmf-lint: allow(no-blocking-while-locked, "carry-over durability point, then the live log it empties: under the append mutex by design")
            inner.log.set_len(0)?;
        } else {
            std::fs::rename(self.log_path(), self.old_path())?; // ofmf-lint: allow(no-blocking-while-locked, "segment rotation under the append mutex by design")
            inner.log = OpenOptions::new().create(true).append(true).open(self.log_path())?;
        }
        inner.log_bytes = 0;
        Ok(())
    }

    /// Read back every durable record: snapshot first, then the sealed
    /// segment a crashed snapshot may have left behind, then the live
    /// segment. A torn tail anywhere yields the longest valid prefix; the
    /// two log segments are additionally truncated in place, so whatever
    /// is appended next — a record to the live log, the live log to
    /// `wal.old` by a rotation — extends a clean file.
    pub fn replay(&self) -> io::Result<Replay> {
        let mut span = ofmf_obs::enter_span("ofmf.wal.replay");
        span.force_sample();
        let _guard = self.snap.lock();
        let mut records = Vec::new();
        let torn_snapshot = self.read_segment(&self.snapshot_path(), false, &mut records)?;
        let torn_old = self.read_segment(&self.old_path(), true, &mut records)?;
        let torn_live = self.read_segment(&self.log_path(), true, &mut records)?;
        if let Some(valid_len) = torn_live {
            self.inner.lock().log_bytes = valid_len;
        }
        let torn = [torn_snapshot, torn_old, torn_live].iter().flatten().count() as u64;
        self.replayed.add(records.len() as u64);
        span.annotate("records", records.len().to_string());
        if torn > 0 {
            span.annotate("torn_tails", torn.to_string());
        }
        Ok(Replay {
            records,
            torn_tails: torn,
        })
    }

    /// Decode one segment file into `out`. When a torn tail was dropped,
    /// returns the length of the valid prefix before it (a log segment is
    /// also cut to that length on disk).
    fn read_segment(&self, path: &Path, is_log: bool, out: &mut Vec<WalRecord>) -> io::Result<Option<u64>> {
        // ofmf-lint: allow(no-blocking-while-locked, "replay reads segments under the snap mutex to exclude a concurrent snapshot; runs before appenders exist")
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let (decoded, valid_len) = decode_records(&bytes);
        let torn = valid_len < bytes.len();
        if torn {
            self.torn_tail.inc();
            if is_log {
                #[cfg(feature = "lockcheck")]
                parking_lot::blocking_op("wal.file.truncate");
                let f = OpenOptions::new().write(true).open(path)?; // ofmf-lint: allow(no-blocking-while-locked, "torn-tail truncation during replay, before any concurrent appender exists")
                f.set_len(valid_len as u64)?;
                // ofmf-wal: policy — persist the tail truncation before serving new appends
                f.sync_all()?; // ofmf-lint: allow(no-blocking-while-locked, "persist the tail truncation before serving new appends")
            }
        }
        out.extend(decoded);
        Ok(torn.then_some(valid_len as u64))
    }
}

/// Decode framed records from a byte buffer. Returns the records of the
/// longest valid prefix and that prefix's length: a frame whose payload
/// fails CRC *or* fails to decode as a known record ends the prefix.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let (frames, mut valid_len) = scan_frames(bytes);
    let mut out = Vec::with_capacity(frames.len());
    for f in &frames {
        let payload = match bytes.get(f.payload_start..f.end()) {
            Some(p) => p,
            None => {
                valid_len = f.offset;
                break;
            }
        };
        let parsed: Result<Value, _> = serde_json::from_slice(payload);
        match parsed.ok().and_then(WalRecord::from_value) {
            Some(rec) => out.push(rec),
            None => {
                valid_len = f.offset;
                break;
            }
        }
    }
    (out, valid_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ofmf-wal-{tag}-{}-{}",
            std::process::id(),
            ofmf_obs::next_request_id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mark(ms: u64) -> WalRecord {
        WalRecord::ClockMark { now_ms: ms }
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let dir = tmpdir("roundtrip");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        for i in 0..10 {
            wal.append(&mark(i)).expect("append");
        }
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 0);
        assert_eq!(replay.records, (0..10).map(mark).collect::<Vec<_>>());
        // A second handle sees the same history.
        let wal2 = Wal::open(&dir, FsyncPolicy::Off).expect("reopen");
        assert_eq!(wal2.replay().expect("replay2").records.len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_survives() {
        let dir = tmpdir("torn");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        for i in 0..5 {
            wal.append(&mark(i)).expect("append");
        }
        drop(wal);
        // Tear the last record mid-payload.
        let path = dir.join("wal.log");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 1);
        assert_eq!(replay.records.len(), 4);
        // The file was physically truncated: appends extend a clean log.
        wal.append(&mark(99)).expect("append after truncate");
        let replay = wal.replay().expect("replay after append");
        assert_eq!(replay.torn_tails, 0);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records.last(), Some(&mark(99)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_replays_in_order() {
        let dir = tmpdir("snap");
        let wal = Wal::open(&dir, FsyncPolicy::Batch(5)).expect("open");
        for i in 0..20 {
            wal.append(&mark(i)).expect("append");
        }
        let n = wal
            .snapshot_with(|out| {
                out.push(&WalRecord::EtagFloor { seq: 77 });
                Ok(())
            })
            .expect("snapshot");
        assert_eq!(n, 1);
        wal.append(&mark(100)).expect("append post-snapshot");
        let replay = wal.replay().expect("replay");
        assert_eq!(
            replay.records,
            vec![WalRecord::EtagFloor { seq: 77 }, mark(100)],
            "snapshot first, then the live segment"
        );
        assert!(!dir.join("wal.old").exists(), "sealed segment removed after snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_rotate_and_snapshot_keeps_old_segment() {
        let dir = tmpdir("crash-mid-snap");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        wal.append(&mark(1)).expect("append");
        // Simulate the crash window: rotation happened, snapshot did not.
        wal.rotate_log().expect("rotate");
        wal.append(&mark(2)).expect("append to fresh segment");
        drop(wal);
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.records, vec![mark(1), mark(2)], "old then live segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_rotation_extends_the_sealed_segment() {
        let dir = tmpdir("double-rotate");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        wal.append(&mark(1)).expect("append");
        wal.rotate_log().expect("rotate; the snapshot never publishes");
        wal.append(&mark(2)).expect("append");
        drop(wal);
        // The next snapshot's rotation finds wal.old still there, while
        // `snapshot.bin` still predates mark(1): it must keep it.
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        wal.rotate_log().expect("second rotate");
        assert_eq!(wal.log_bytes(), 0, "the live segment moved into wal.old");
        wal.append(&mark(3)).expect("append");
        drop(wal);
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.records, vec![mark(1), mark(2), mark(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_payload_counts_as_torn() {
        let dir = tmpdir("badjson");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("open");
        wal.append(&mark(1)).expect("append");
        drop(wal);
        let path = dir.join("wal.log");
        // A structurally valid frame whose payload is not a record.
        let mut bytes = std::fs::read(&path).expect("read");
        let mut extra = Vec::new();
        encode_frame(b"{\"k\": \"no_such_kind\"}", &mut extra);
        bytes.extend_from_slice(&extra);
        std::fs::write(&path, &bytes).expect("write");
        let wal = Wal::open(&dir, FsyncPolicy::Always).expect("reopen");
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 1);
        assert_eq!(replay.records, vec![mark(1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame is one level around the body it carries and is read by the
    /// parser that follows 128: a body 127 deep comes back, one level more
    /// would end the valid prefix — which is why the REST path, the one
    /// source of untrusted bodies, stops far short of it.
    #[test]
    fn a_frame_puts_one_level_around_its_body() {
        let create = |arrays: usize| WalRecord::Create {
            id: "/redfish/v1/Chassis/deep".into(),
            body: serde_json::from_str(&format!("{}1{}", "[".repeat(arrays), "]".repeat(arrays))).expect("body"),
            etag: 7,
            is_collection: false,
            parent_etag: None,
        };
        let dir = tmpdir("depth");
        let wal = Wal::open(&dir, FsyncPolicy::Off).expect("open");
        for rec in [create(127), mark(1), create(128), mark(2)] {
            wal.append(&rec).expect("append");
        }
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.records, vec![create(127), mark(1)]);
        assert_eq!(replay.torn_tails, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(
            FsyncPolicy::parse("batch"),
            Some(FsyncPolicy::Batch(5)),
            "the daemon default"
        );
        assert_eq!(FsyncPolicy::parse("batch:10"), Some(FsyncPolicy::Batch(10)));
        assert_eq!(FsyncPolicy::parse("batch:x"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Batch(10).to_string(), "batch:10");
    }
}
