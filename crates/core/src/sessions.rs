//! The OFMF session service: token-authenticated client sessions.
//!
//! `POST /redfish/v1/SessionService/Sessions` with credentials yields an
//! `X-Auth-Token`; subsequent requests present the token. Tokens are opaque
//! strings derived from a seeded counter (no time-based entropy, so tests
//! are deterministic); sessions idle past the timeout are reaped lazily.

use crate::clock::Clock;
use ofmf_wal::{Wal, WalRecord};
use parking_lot::RwLock;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::session::Session;
use redfish_model::resources::Resource;
use redfish_model::{RedfishError, RedfishResult, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default idle timeout (ms of service clock).
pub const DEFAULT_TIMEOUT_MS: u64 = 30 * 60 * 1000;

/// How many times per idle timeout a busy session's timer is journaled: a
/// `SessionTouch` is written once the in-memory timer has run one granule
/// (`timeout_ms / TOUCH_GRANULES`) ahead of the journaled one.
const TOUCH_GRANULES: u64 = 16;

#[derive(Debug)]
struct Live {
    session_id: String,
    user: String,
    /// Clock reading at the last authenticate, refreshed under the table's
    /// *read* lock.
    last_used_ms: AtomicU64,
    /// The `last_used_ms` the journal holds for this session: its login's,
    /// or its last journaled touch's.
    journaled_ms: AtomicU64,
}

impl Live {
    fn new(session_id: &str, user: &str, last_used_ms: u64) -> Live {
        Live {
            session_id: session_id.to_string(),
            user: user.to_string(),
            last_used_ms: AtomicU64::new(last_used_ms),
            journaled_ms: AtomicU64::new(last_used_ms),
        }
    }

    fn last_used_ms(&self) -> u64 {
        self.last_used_ms.load(Ordering::Acquire)
    }
}

/// The session service.
///
/// Durability: logins and ends are journaled as they happen; a session's
/// idle timer is not — an authenticated request writes nothing unless the
/// timer is a whole granule ahead of what the journal holds. After a crash
/// a restored session therefore never outlives its pre-crash deadline, and
/// falls short of it by less than one granule (plus the `ClockMark` lag of
/// the resumed clock).
pub struct SessionService {
    clock: Arc<Clock>,
    /// username → password. A production OFMF would back this with the
    /// site's identity provider; the emulator takes a static table.
    credentials: RwLock<HashMap<String, String>>,
    tokens: RwLock<HashMap<String, Live>>,
    next: AtomicU64,
    seed: u64,
    timeout_ms: u64,
    /// Durability journal, fixed at construction. A session's login and end
    /// are appended under the token table's write lock and its touches under
    /// the read lock, so no touch can follow its session's end; two touches
    /// may land out of order, which [`SessionService::replay`] folds with
    /// `max`. Lock order: tokens → WAL file mutex (leaf).
    journal: Option<Arc<Wal>>,
}

impl SessionService {
    /// New service with the given credential table.
    pub fn new(clock: Arc<Clock>, credentials: HashMap<String, String>, seed: u64) -> Self {
        SessionService {
            clock,
            credentials: RwLock::new(credentials),
            tokens: RwLock::new(HashMap::new()),
            next: AtomicU64::new(1),
            seed,
            timeout_ms: DEFAULT_TIMEOUT_MS,
            journal: None,
        }
    }

    /// Override the idle timeout.
    pub fn with_timeout_ms(mut self, t: u64) -> Self {
        self.timeout_ms = t;
        self
    }

    /// The idle window after which unused sessions are evicted.
    pub fn timeout_ms(&self) -> u64 {
        self.timeout_ms
    }

    /// Journal every session lifecycle change to `wal`
    /// ([`SessionService::replay`] never journals).
    pub fn with_journal(mut self, wal: Option<Arc<Wal>>) -> Self {
        self.journal = wal;
        self
    }

    fn journal_record(&self, rec: WalRecord) {
        if let Some(w) = &self.journal {
            w.record(&rec);
        }
    }

    fn mint_token(&self, n: u64) -> String {
        // splitmix-style mixing; the token is opaque, not a secret-grade MAC
        // (the emulator has no TLS either).
        let mut x = self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        format!("ofmf-{:016x}{:08x}", x ^ (x >> 31), n)
    }

    /// Authenticate and create a session. Returns `(token, session resource id)`.
    pub fn login(&self, reg: &Registry, user: &str, password: &str) -> RedfishResult<(String, ODataId)> {
        let ok = self.credentials.read().get(user).is_some_and(|p| p == password);
        if !ok {
            return Err(RedfishError::Unauthorized);
        }
        // Login is the natural churn point: reap anything already expired so
        // the Sessions collection cannot grow without bound under clients
        // that log in and vanish.
        self.sweep_expired(reg);
        let n = self.next.fetch_add(1, Ordering::AcqRel);
        let token = self.mint_token(n);
        let sid = n.to_string();
        let col = ODataId::new(top::SESSIONS);
        let now = self.clock.now_ms();
        reg.create(&col.child(&sid), Session::new(&col, &sid, user, now).to_value())?;
        let mut tokens = self.tokens.write();
        tokens.insert(token.clone(), Live::new(&sid, user, now));
        self.journal_record(WalRecord::SessionLogin {
            token: token.clone(),
            session_id: sid.clone(),
            user: user.to_string(),
            last_used_ms: now,
        });
        drop(tokens);
        Ok((token, col.child(&sid)))
    }

    fn expired(&self, live: &Live, now: u64) -> bool {
        now.saturating_sub(live.last_used_ms()) > self.timeout_ms
    }

    /// Validate a token, refreshing its idle timer. Returns the username.
    /// Takes the token table's read lock only, and journals nothing unless
    /// the timer has run a granule ahead of the journal; an expired token
    /// alone upgrades to the write lock, to be reaped.
    pub fn authenticate(&self, reg: &Registry, token: &str) -> RedfishResult<String> {
        let now = self.clock.now_ms();
        {
            let tokens = self.tokens.read();
            let Some(live) = tokens.get(token) else {
                return Err(RedfishError::Unauthorized);
            };
            if !self.expired(live, now) {
                live.last_used_ms.fetch_max(now, Ordering::AcqRel);
                self.journal_touch(token, live, now);
                return Ok(live.user.clone());
            }
        }
        let mut tokens = self.tokens.write();
        // Reap it unless a request with an earlier clock reading refreshed
        // it while the lock was released.
        let sid = match tokens.get(token) {
            Some(live) if self.expired(live, now) => self.end(&mut tokens, token),
            _ => None,
        };
        drop(tokens);
        let _ = sid.map(|sid| reg.delete(&sid));
        Err(RedfishError::Unauthorized)
    }

    /// Journal a `SessionTouch` at `now` if the journaled timer is a granule
    /// or more behind it. The compare-exchange elects one journaling thread
    /// per granule; a loser re-checks against the winner's value.
    fn journal_touch(&self, token: &str, live: &Live, now: u64) {
        let granule = self.timeout_ms / TOUCH_GRANULES;
        let mut journaled = live.journaled_ms.load(Ordering::Acquire);
        while now >= journaled.saturating_add(granule) {
            match live
                .journaled_ms
                .compare_exchange(journaled, now, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.journal_record(WalRecord::SessionTouch {
                        token: token.to_string(),
                        last_used_ms: now,
                    });
                    return;
                }
                Err(current) => journaled = current,
            }
        }
    }

    /// Drop `token` from the table and journal its end (logout or expiry).
    /// Returns the session's resource, for the caller to delete once the
    /// table lock is released.
    fn end(&self, tokens: &mut HashMap<String, Live>, token: &str) -> Option<ODataId> {
        let live = tokens.remove(token)?;
        self.journal_record(WalRecord::SessionEnd {
            token: token.to_string(),
        });
        Some(ODataId::new(top::SESSIONS).child(&live.session_id))
    }

    /// Log out (DELETE on the session resource).
    pub fn logout(&self, reg: &Registry, token: &str) -> RedfishResult<()> {
        let sid = self.end(&mut self.tokens.write(), token);
        reg.delete(&sid.ok_or(RedfishError::Unauthorized)?)
    }

    /// Reap every session idle past the timeout, deleting its resource from
    /// the tree. Called on each login and from the daemon's poll loop, so
    /// abandoned sessions disappear without their token ever being
    /// re-presented. Scans under the read lock; the write lock is taken only
    /// when something expired. Returns the number of sessions reaped.
    pub fn sweep_expired(&self, reg: &Registry) -> usize {
        let now = self.clock.now_ms();
        let expired: Vec<String> = {
            let tokens = self.tokens.read();
            let idle = tokens.iter().filter(|(_, live)| self.expired(live, now));
            idle.map(|(t, _)| t.clone()).collect()
        };
        if expired.is_empty() {
            return 0;
        }
        let mut tokens = self.tokens.write();
        let mut doomed = Vec::new();
        for token in &expired {
            // Still expired: not refreshed or ended since the scan.
            if tokens.get(token).is_some_and(|live| self.expired(live, now)) {
                doomed.extend(self.end(&mut tokens, token));
            }
        }
        drop(tokens);
        for sid in &doomed {
            let _ = reg.delete(sid);
        }
        doomed.len()
    }

    /// Fold the session records of a replayed journal (login → insert,
    /// touch → idle timer raised, never lowered: touches may be journaled
    /// out of order; end → remove) into the token table. A restored session
    /// keeps its identity and its last journaled `last_used_ms`, so it
    /// expires exactly `timeout_ms` after that — neither immortal nor
    /// instantly reaped. Touches no registry resource (those come back
    /// through registry-record replay) and journals nothing.
    pub fn replay(&self, records: &[WalRecord]) {
        let mut tokens = self.tokens.write();
        for rec in records {
            match rec {
                WalRecord::SessionLogin {
                    token,
                    session_id,
                    user,
                    last_used_ms,
                } => {
                    tokens.insert(token.clone(), Live::new(session_id, user, *last_used_ms));
                }
                WalRecord::SessionTouch { token, last_used_ms } => {
                    if let Some(live) = tokens.get(token) {
                        live.last_used_ms.fetch_max(*last_used_ms, Ordering::AcqRel);
                        live.journaled_ms.fetch_max(*last_used_ms, Ordering::AcqRel);
                    }
                }
                WalRecord::SessionEnd { token } => {
                    tokens.remove(token);
                }
                _ => {}
            }
        }
        // Keep the id/token allocator above every restored session so new
        // logins never collide with replayed ones.
        for n in tokens.values().filter_map(|live| live.session_id.parse::<u64>().ok()) {
            self.next.fetch_max(n.saturating_add(1), Ordering::AcqRel);
        }
    }

    /// One `SessionLogin` record per live session, carrying its exact
    /// in-memory idle timer — the compact form a snapshot stores instead of
    /// the login/touch/end history.
    pub fn snapshot_records(&self) -> Vec<WalRecord> {
        let tokens = self.tokens.read();
        let mut live: Vec<(&String, &Live)> = tokens.iter().collect();
        live.sort_by(|a, b| a.1.session_id.cmp(&b.1.session_id));
        let login = |(token, live): (&String, &Live)| WalRecord::SessionLogin {
            token: token.clone(),
            session_id: live.session_id.clone(),
            user: live.user.clone(),
            last_used_ms: live.last_used_ms(),
        };
        live.into_iter().map(login).collect()
    }

    /// Live session count (expired-but-unreaped sessions included).
    pub fn session_count(&self) -> usize {
        self.tokens.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::bootstrap;

    fn setup(timeout_ms: u64) -> (Registry, SessionService, Arc<Clock>) {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let clock = Arc::new(Clock::manual());
        let mut creds = HashMap::new();
        creds.insert("admin".to_string(), "hunter2".to_string());
        let svc = SessionService::new(Arc::clone(&clock), creds, 42).with_timeout_ms(timeout_ms);
        (reg, svc, clock)
    }

    #[test]
    fn login_creates_session_resource() {
        let (reg, svc, _clock) = setup(DEFAULT_TIMEOUT_MS);
        let (token, sid) = svc.login(&reg, "admin", "hunter2").unwrap();
        assert!(token.starts_with("ofmf-"));
        assert!(reg.exists(&sid));
        assert_eq!(svc.authenticate(&reg, &token).unwrap(), "admin");
    }

    #[test]
    fn wrong_password_rejected() {
        let (reg, svc, _clock) = setup(DEFAULT_TIMEOUT_MS);
        assert!(matches!(
            svc.login(&reg, "admin", "wrong"),
            Err(RedfishError::Unauthorized)
        ));
        assert!(matches!(svc.login(&reg, "eve", "x"), Err(RedfishError::Unauthorized)));
    }

    #[test]
    fn tokens_expire_after_idle_timeout() {
        let (reg, svc, clock) = setup(1000);
        let (token, sid) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(999);
        assert!(svc.authenticate(&reg, &token).is_ok(), "refreshes timer");
        clock.advance_ms(1001);
        assert!(matches!(
            svc.authenticate(&reg, &token),
            Err(RedfishError::Unauthorized)
        ));
        assert!(!reg.exists(&sid), "expired session resource reaped");
    }

    #[test]
    fn logout_invalidates_token() {
        let (reg, svc, _clock) = setup(DEFAULT_TIMEOUT_MS);
        let (token, sid) = svc.login(&reg, "admin", "hunter2").unwrap();
        svc.logout(&reg, &token).unwrap();
        assert!(!reg.exists(&sid));
        assert!(matches!(
            svc.authenticate(&reg, &token),
            Err(RedfishError::Unauthorized)
        ));
        assert!(matches!(svc.logout(&reg, &token), Err(RedfishError::Unauthorized)));
    }

    #[test]
    fn sweep_reaps_all_expired_sessions() {
        let (reg, svc, clock) = setup(1000);
        let (_t1, s1) = svc.login(&reg, "admin", "hunter2").unwrap();
        let (_t2, s2) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(500);
        let (t3, s3) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(700); // s1/s2 idle 1200ms (expired), s3 idle 700ms
        assert_eq!(svc.sweep_expired(&reg), 2);
        assert!(!reg.exists(&s1) && !reg.exists(&s2), "expired resources reaped");
        assert!(reg.exists(&s3));
        assert!(svc.authenticate(&reg, &t3).is_ok());
        assert_eq!(svc.session_count(), 1);
    }

    #[test]
    fn login_sweeps_abandoned_sessions() {
        let (reg, svc, clock) = setup(1000);
        let (_t1, s1) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(2000);
        // The abandoned session's token is never re-presented; a fresh
        // login alone reclaims it.
        let (_t2, s2) = svc.login(&reg, "admin", "hunter2").unwrap();
        assert!(!reg.exists(&s1));
        assert!(reg.exists(&s2));
        assert_eq!(svc.session_count(), 1);
    }

    fn login_record(token: &str, session_id: &str, last_used_ms: u64) -> WalRecord {
        WalRecord::SessionLogin {
            token: token.to_string(),
            session_id: session_id.to_string(),
            user: "admin".to_string(),
            last_used_ms,
        }
    }

    #[test]
    fn restored_sessions_expire_at_their_original_deadline() {
        // A session restored from the WAL must re-enter the expiry sweep with
        // its ORIGINAL deadline — not be immortal (timer reset) and not be
        // instantly reaped (timer zeroed).
        let (reg2, svc2, clock2) = setup(1000);
        clock2.resume_from(400);
        svc2.replay(&[login_record("ofmf-restored", "1", 400)]);
        let sid = ODataId::new(top::SESSIONS).child("1");
        reg2.create(
            &sid,
            Session::new(&ODataId::new(top::SESSIONS), "1", "admin", 400).to_value(),
        )
        .unwrap();

        clock2.advance_ms(900); // idle 900ms < 1000ms: still valid
        assert_eq!(
            svc2.authenticate(&reg2, "ofmf-restored").unwrap(),
            "admin",
            "not instantly reaped"
        );
        clock2.advance_ms(1001); // idle past the (refreshed) deadline
        assert!(
            matches!(
                svc2.authenticate(&reg2, "ofmf-restored"),
                Err(RedfishError::Unauthorized)
            ),
            "not immortal"
        );
        assert!(!reg2.exists(&sid));
    }

    #[test]
    fn replayed_touches_never_move_the_idle_timer_backwards() {
        // Touches are journaled under the table's read lock, so two of them
        // may land in the journal out of order.
        let (_reg, svc, _clock) = setup(1000);
        let touch = |last_used_ms| WalRecord::SessionTouch {
            token: "ofmf-t".to_string(),
            last_used_ms,
        };
        svc.replay(&[login_record("ofmf-t", "1", 400), touch(900), touch(500)]);
        assert_eq!(svc.snapshot_records(), vec![login_record("ofmf-t", "1", 900)]);
    }

    #[test]
    fn journaled_lifecycle_replays_to_the_live_sessions() {
        let dir = std::env::temp_dir().join(format!("ofmf-sess-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
        let (reg, svc, clock) = setup(1000);
        let svc = svc.with_journal(Some(Arc::clone(&wal)));

        let (t1, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        let (t2, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(500);
        svc.authenticate(&reg, &t1).unwrap();
        svc.logout(&reg, &t2).unwrap();

        // "Restart": a fresh service folds the journal.
        let (reg2, svc2, clock2) = setup(1000);
        svc2.replay(&wal.replay().unwrap().records);
        assert_eq!(svc2.snapshot_records(), svc.snapshot_records());
        assert_eq!(svc2.snapshot_records(), vec![login_record(&t1, "1", 500)]);
        // The ended session stays ended; the touch refreshed the live one.
        clock2.resume_from(1400);
        assert!(svc2.authenticate(&reg2, &t2).is_err());
        assert_eq!(svc2.authenticate(&reg2, &t1).unwrap(), "admin");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_records_list_live_sessions_and_round_trip_through_replay() {
        let (reg, svc, clock) = setup(1000);
        let (t1, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(100);
        let (t2, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        let recs = svc.snapshot_records();
        assert_eq!(recs, vec![login_record(&t1, "1", 0), login_record(&t2, "2", 100)]);
        let (reg2, svc2, _clock2) = setup(1000);
        svc2.replay(&recs);
        assert_eq!(svc2.snapshot_records(), recs);
        // New logins are numbered above the restored sessions.
        let (_token, sid) = svc2.login(&reg2, "admin", "hunter2").unwrap();
        assert_eq!(sid.as_str(), "/redfish/v1/SessionService/Sessions/3");
    }

    #[test]
    fn a_busy_session_journals_one_touch_per_granule() {
        let dir = std::env::temp_dir().join(format!("ofmf-sess-granule-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
        let (reg, svc, clock) = setup(1600); // granule: 100 ms
        let svc = svc.with_journal(Some(Arc::clone(&wal)));
        let (token, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        for _ in 0..25 {
            clock.advance_ms(10);
            svc.authenticate(&reg, &token).unwrap();
        }
        // In memory every request refreshed the timer; the journal holds the
        // two granule crossings, and a replay lands less than a granule back.
        assert_eq!(svc.snapshot_records(), vec![login_record(&token, "1", 250)]);
        let journal = wal.replay().unwrap().records;
        let touches: Vec<&WalRecord> = journal
            .iter()
            .filter(|r| matches!(r, WalRecord::SessionTouch { .. }))
            .collect();
        assert_eq!(touches.len(), 2, "{touches:?}");
        let (_reg2, svc2, _clock2) = setup(1600);
        svc2.replay(&journal);
        assert_eq!(svc2.snapshot_records(), vec![login_record(&token, "1", 200)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Four threads on one table: two authenticate a shared session, one
    /// logs sessions in and out, one moves the clock and sweeps. The clock
    /// moves less than one timeout in all, so only the session that was idle
    /// before the race may expire. Under `--features lockcheck` this also
    /// feeds the lock-order graph the read-side `tokens → WAL` edge.
    #[test]
    fn authenticate_logout_and_sweep_race_without_losing_a_live_session() {
        const TIMEOUT_MS: u64 = 400;
        const ROUNDS: u64 = 300;
        let dir = std::env::temp_dir().join(format!("ofmf-sess-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
        let (reg, svc, clock) = setup(TIMEOUT_MS);
        let svc = svc.with_journal(Some(Arc::clone(&wal)));
        let (idle, idle_sid) = svc.login(&reg, "admin", "hunter2").unwrap();
        clock.advance_ms(TIMEOUT_MS - 50);
        let (shared, shared_sid) = svc.login(&reg, "admin", "hunter2").unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS * 4 {
                        assert_eq!(svc.authenticate(&reg, &shared).unwrap(), "admin");
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    let (t, sid) = svc.login(&reg, "admin", "hunter2").unwrap();
                    assert!(svc.authenticate(&reg, &t).is_ok());
                    svc.logout(&reg, &t).unwrap();
                    assert!(svc.authenticate(&reg, &t).is_err());
                    assert!(!reg.exists(&sid));
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    clock.advance_ms(1);
                    svc.sweep_expired(&reg);
                }
            });
        });
        // The idle session was reaped (by a sweep or a login) and nothing
        // else was: the shared one is what is left.
        assert!(svc.authenticate(&reg, &idle).is_err());
        assert!(!reg.exists(&idle_sid) && reg.exists(&shared_sid));
        assert_eq!(svc.authenticate(&reg, &shared).unwrap(), "admin");
        assert_eq!(svc.session_count(), 1);
        // The journal folds to the same table, the timer within one granule.
        let (_reg2, svc2, _clock2) = setup(TIMEOUT_MS);
        svc2.replay(&wal.replay().unwrap().records);
        let used = |recs: Vec<WalRecord>| match recs.as_slice() {
            [WalRecord::SessionLogin {
                token, last_used_ms, ..
            }] if *token == shared => *last_used_ms,
            other => panic!("exactly the shared session: {other:?}"),
        };
        let (live, restored) = (used(svc.snapshot_records()), used(svc2.snapshot_records()));
        assert!(restored <= live && live - restored < TIMEOUT_MS / TOUCH_GRANULES);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tokens_are_unique() {
        let (reg, svc, _clock) = setup(DEFAULT_TIMEOUT_MS);
        let (t1, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        let (t2, _) = svc.login(&reg, "admin", "hunter2").unwrap();
        assert_ne!(t1, t2);
        assert_eq!(svc.session_count(), 2);
    }
}
