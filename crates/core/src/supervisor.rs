//! Per-agent supervision: the resilience layer between [`crate::Ofmf`] and
//! flaky south-bound Agents.
//!
//! Every [`AgentOp`] dispatched through the OFMF passes through an
//! [`AgentSupervisor`] that provides:
//!
//! * **deadline + bounded retry** — transient failures (panics, dropped
//!   ops) are retried with exponential backoff and seeded jitter against a
//!   per-dispatch deadline measured on the service [`Clock`], so simulated
//!   runs are instantaneous and reproducible;
//! * **a circuit breaker** — a per-agent Closed → Open → HalfOpen state
//!   machine fed by op failures and the missed-heartbeat path. While Open,
//!   ops are rejected immediately with [`RedfishError::CircuitOpen`]
//!   (surfaced north as `503` + `Retry-After`) instead of hammering a dead
//!   agent;
//! * **a replay journal** — teardown ops (`DeleteZone` / `Disconnect`) that
//!   could not reach the agent are journaled and replayed when the agent
//!   heartbeats back, so compensation work is never silently lost;
//! * **degraded-state bookkeeping** — the prior `Status` of every resource
//!   the OFMF marks `Critical` while the agent is down, so recovery restores
//!   exactly the pre-outage state.
//!
//! The breaker ([`CircuitBreaker`]) is a pure state machine with no clock or
//! I/O of its own, so it can be property-tested exhaustively.

use crate::agent::{Agent, AgentOp, AgentResponse};
use crate::clock::Clock;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redfish_model::odata::ODataId;
use redfish_model::{RedfishError, RedfishResult};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// ------------------------------------------------------------------ breaker

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Ops flow through; consecutive failures are counted.
    Closed,
    /// Ops are rejected until the cooldown elapses.
    Open,
    /// Probing: ops are admitted; one success re-closes, one failure
    /// re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding: 0 = Closed, 1 = HalfOpen, 2 = Open.
    pub fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "Closed"),
            BreakerState::Open => write!(f, "Open"),
            BreakerState::HalfOpen => write!(f, "HalfOpen"),
        }
    }
}

/// Signals fed into the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerInput {
    /// An op reached the agent and the agent answered (any business result).
    OpSuccess,
    /// An op failed in a retryable way (panic, drop, transport loss).
    OpFailure,
    /// The agent answered a heartbeat.
    HeartbeatOk,
    /// The agent missed a heartbeat.
    HeartbeatMissed,
    /// The liveness machinery declared the agent dead (missed-heartbeat
    /// threshold crossed): open unconditionally.
    ForceOpen,
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive retryable failures (ops or heartbeats) that open the
    /// breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays Open before admitting a probe.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 500,
        }
    }
}

/// One recorded state change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Service-clock time of the transition.
    pub at_ms: u64,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
    /// Why (`"op-failures"`, `"probe-success"`, …).
    pub cause: &'static str,
}

impl std::fmt::Display for BreakerTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={} {}->{} ({})", self.at_ms, self.from, self.to, self.cause)
    }
}

/// Admission decision for one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allowed,
    /// Breaker half-open: proceed, the result decides the next state.
    Probe,
    /// Breaker open: reject without touching the agent.
    Rejected {
        /// Milliseconds until a probe will be admitted.
        retry_after_ms: u64,
    },
}

/// The per-agent circuit breaker. Pure: all time is passed in, no I/O.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
    log: Vec<BreakerTransition>,
    pending: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_ms: 0,
            log: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Full transition history (never drained; deterministic runs produce
    /// identical logs).
    pub fn log(&self) -> &[BreakerTransition] {
        &self.log
    }

    /// Drain transitions not yet published as events.
    pub fn take_pending(&mut self) -> Vec<BreakerTransition> {
        std::mem::take(&mut self.pending)
    }

    fn transition(&mut self, to: BreakerState, now_ms: u64, cause: &'static str) -> BreakerTransition {
        let rec = BreakerTransition {
            at_ms: now_ms,
            from: self.state,
            to,
            cause,
        };
        self.state = to;
        if to == BreakerState::Open {
            self.opened_at_ms = now_ms;
        }
        if to == BreakerState::Closed {
            self.consecutive_failures = 0;
        }
        self.log.push(rec.clone());
        self.pending.push(rec.clone());
        rec
    }

    /// Milliseconds until the breaker would admit a probe (0 when not Open).
    pub fn retry_after_ms(&self, now_ms: u64) -> u64 {
        match self.state {
            BreakerState::Open => self
                .cfg
                .cooldown_ms
                .saturating_sub(now_ms.saturating_sub(self.opened_at_ms))
                .max(1),
            _ => 0,
        }
    }

    /// Decide whether a dispatch may proceed. Open breakers transition to
    /// HalfOpen once the cooldown has elapsed.
    pub fn admit(&mut self, now_ms: u64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                if now_ms.saturating_sub(self.opened_at_ms) >= self.cfg.cooldown_ms {
                    let _ = self.transition(BreakerState::HalfOpen, now_ms, "cooldown-elapsed");
                    Admission::Probe
                } else {
                    Admission::Rejected {
                        retry_after_ms: self.retry_after_ms(now_ms),
                    }
                }
            }
        }
    }

    /// Feed one signal into the state machine. Returns the transition it
    /// caused, if any, so callers can annotate the active dispatch span.
    pub fn record(&mut self, input: BreakerInput, now_ms: u64) -> Option<BreakerTransition> {
        match (self.state, input) {
            (BreakerState::Closed, BreakerInput::OpSuccess | BreakerInput::HeartbeatOk) => {
                self.consecutive_failures = 0;
                None
            }
            (BreakerState::Closed, BreakerInput::OpFailure | BreakerInput::HeartbeatMissed) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    Some(self.transition(BreakerState::Open, now_ms, "failure-threshold"))
                } else {
                    None
                }
            }
            (_, BreakerInput::ForceOpen) => {
                if self.state != BreakerState::Open {
                    Some(self.transition(BreakerState::Open, now_ms, "heartbeats-lost"))
                } else {
                    None
                }
            }
            (BreakerState::HalfOpen, BreakerInput::OpSuccess) => {
                Some(self.transition(BreakerState::Closed, now_ms, "probe-success"))
            }
            (BreakerState::HalfOpen, BreakerInput::OpFailure) => {
                Some(self.transition(BreakerState::Open, now_ms, "probe-failure"))
            }
            (BreakerState::HalfOpen, BreakerInput::HeartbeatMissed) => {
                Some(self.transition(BreakerState::Open, now_ms, "heartbeat-missed"))
            }
            (BreakerState::HalfOpen, BreakerInput::HeartbeatOk) => None,
            (BreakerState::Open, BreakerInput::HeartbeatOk) => {
                Some(self.transition(BreakerState::HalfOpen, now_ms, "heartbeat-recovered"))
            }
            // Results of ops already in flight when the breaker opened; the
            // heartbeat/probe paths own recovery, so these are inert.
            (BreakerState::Open, BreakerInput::OpSuccess | BreakerInput::OpFailure | BreakerInput::HeartbeatMissed) => {
                None
            }
        }
    }
}

// -------------------------------------------------------------- retry policy

/// Retry/deadline tuning for one dispatch.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total service-clock budget for one dispatch (all attempts +
    /// backoffs).
    pub deadline_ms: u64,
    /// Maximum attempts (1 = no retry).
    pub max_attempts: u32,
    /// First backoff; doubles each retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_max_ms: u64,
    /// Uniform jitter added to each backoff, drawn from the seeded rng.
    pub jitter_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline_ms: 1_000,
            max_attempts: 4,
            backoff_base_ms: 10,
            backoff_max_ms: 250,
            jitter_ms: 10,
        }
    }
}

/// Full supervisor tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupervisorConfig {
    /// Retry/deadline policy.
    pub retry: RetryPolicy,
    /// Breaker policy.
    pub breaker: BreakerConfig,
}

// ------------------------------------------------------------------ metrics

struct SupervisorMetrics {
    /// `ofmf.supervisor.retries.total`
    retries: Arc<ofmf_obs::Counter>,
    /// `ofmf.supervisor.exhausted.total` — dispatches that gave up.
    exhausted: Arc<ofmf_obs::Counter>,
    /// `ofmf.supervisor.deadline_exceeded.total`
    deadline_exceeded: Arc<ofmf_obs::Counter>,
    /// `ofmf.supervisor.breaker.rejected.total` — ops refused while Open.
    rejected: Arc<ofmf_obs::Counter>,
    /// `ofmf.supervisor.journal.replayed.total`
    replayed: Arc<ofmf_obs::Counter>,
    /// `ofmf.supervisor.journal.depth` — teardown ops awaiting replay.
    journal_depth: Arc<ofmf_obs::Gauge>,
}

fn metrics() -> &'static SupervisorMetrics {
    static METRICS: std::sync::OnceLock<SupervisorMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SupervisorMetrics {
        retries: ofmf_obs::counter("ofmf.supervisor.retries.total"),
        exhausted: ofmf_obs::counter("ofmf.supervisor.exhausted.total"),
        deadline_exceeded: ofmf_obs::counter("ofmf.supervisor.deadline_exceeded.total"),
        rejected: ofmf_obs::counter("ofmf.supervisor.breaker.rejected.total"),
        replayed: ofmf_obs::counter("ofmf.supervisor.journal.replayed.total"),
        journal_depth: ofmf_obs::gauge("ofmf.supervisor.journal.depth"),
    })
}

// --------------------------------------------------------------- supervisor

/// Derive a per-agent rng seed from the service seed and the fabric id
/// (FNV-1a over the id), so jitter streams differ per agent but stay
/// reproducible.
pub fn derive_seed(seed: u64, fabric_id: &str) -> u64 {
    seed ^ redfish_model::path::fnv1a(fabric_id.as_bytes())
}

/// Whether an agent error is worth retrying (transport/availability, not a
/// deterministic business rejection).
pub fn retryable(e: &RedfishError) -> bool {
    matches!(e, RedfishError::AgentUnavailable(_) | RedfishError::Internal(_))
}

/// Whether an op is teardown work that must eventually reach the agent and
/// is therefore journaled when the agent is unreachable.
pub fn is_teardown(op: &AgentOp) -> bool {
    matches!(op, AgentOp::DeleteZone { .. } | AgentOp::Disconnect { .. })
}

/// The per-agent supervisor: breaker + retry dispatch + replay journal +
/// degraded-state bookkeeping.
pub struct AgentSupervisor {
    fabric_id: String,
    clock: Arc<Clock>,
    cfg: SupervisorConfig,
    breaker: Mutex<CircuitBreaker>,
    rng: Mutex<StdRng>,
    journal: Mutex<Vec<AgentOp>>,
    /// `(id, prior Status value)` of every resource degraded while the
    /// agent is down, restored verbatim on recovery.
    degraded: Mutex<Vec<(ODataId, Value)>>,
    /// `ofmf.supervisor.breaker.state.<fabric>` — 0 Closed / 1 HalfOpen / 2 Open.
    state_gauge: Arc<ofmf_obs::Gauge>,
}

impl AgentSupervisor {
    /// New supervisor for `fabric_id`, with jitter seeded from `seed`.
    pub fn new(fabric_id: &str, clock: Arc<Clock>, cfg: SupervisorConfig, seed: u64) -> Self {
        AgentSupervisor {
            fabric_id: fabric_id.to_string(),
            clock,
            cfg,
            breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            journal: Mutex::new(Vec::new()),
            degraded: Mutex::new(Vec::new()),
            state_gauge: ofmf_obs::gauge(&format!("ofmf.supervisor.breaker.state.{fabric_id}")),
        }
    }

    /// The fabric this supervisor guards.
    pub fn fabric_id(&self) -> &str {
        &self.fabric_id
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().state()
    }

    /// The full breaker transition history, one formatted line per
    /// transition (stable across runs with the same seed and schedule).
    pub fn transition_log(&self) -> Vec<String> {
        self.breaker.lock().log().iter().map(|t| t.to_string()).collect()
    }

    /// Drain transitions not yet announced as events.
    pub fn take_pending_transitions(&self) -> Vec<BreakerTransition> {
        self.breaker.lock().take_pending()
    }

    fn record(&self, input: BreakerInput, now_ms: u64) -> Option<BreakerTransition> {
        let mut b = self.breaker.lock();
        let transition = b.record(input, now_ms);
        self.state_gauge.set(b.state().gauge_value());
        transition
    }

    /// Feed a successful heartbeat (Open breakers go HalfOpen).
    pub fn on_heartbeat_ok(&self) {
        let _ = self.record(BreakerInput::HeartbeatOk, self.clock.now_ms());
    }

    /// Feed a missed heartbeat.
    pub fn on_heartbeat_missed(&self) {
        let _ = self.record(BreakerInput::HeartbeatMissed, self.clock.now_ms());
    }

    /// The liveness machinery declared the agent dead: open immediately.
    pub fn force_open(&self) {
        let _ = self.record(BreakerInput::ForceOpen, self.clock.now_ms());
    }

    /// A `CircuitOpen` error for the current breaker state.
    pub fn circuit_open_error(&self) -> RedfishError {
        let now = self.clock.now_ms();
        let retry_after_ms = {
            let b = self.breaker.lock();
            match b.state() {
                BreakerState::Open => b.retry_after_ms(now),
                _ => 1,
            }
        };
        RedfishError::CircuitOpen {
            fabric: self.fabric_id.clone(),
            retry_after_ms,
        }
    }

    /// Dispatch one op: breaker admission, then bounded retries with
    /// exponential backoff + seeded jitter against the clock deadline.
    /// Panicking agents are caught and treated as retryable failures.
    ///
    /// Under an active trace the dispatch is a span; every retry attempt is
    /// an annotated child span, and breaker transitions caused by this
    /// dispatch are annotated where they happen.
    pub fn dispatch(&self, agent: &Arc<dyn Agent>, op: &AgentOp) -> RedfishResult<AgentResponse> {
        let m = metrics();
        let mut dspan = ofmf_obs::child_span("ofmf.supervisor.dispatch");
        dspan.annotate("fabric", self.fabric_id.as_str());
        dspan.annotate("op", op.kind());
        let start = self.clock.now_ms();
        match self.breaker.lock().admit(start) {
            Admission::Rejected { retry_after_ms } => {
                m.rejected.inc();
                dspan.annotate("breaker", "rejected: open");
                dspan.set_error();
                return Err(RedfishError::CircuitOpen {
                    fabric: self.fabric_id.clone(),
                    retry_after_ms,
                });
            }
            Admission::Allowed | Admission::Probe => {}
        }
        let mut attempt: u32 = 0;
        loop {
            let mut aspan = ofmf_obs::child_span("ofmf.supervisor.attempt");
            aspan.annotate("attempt", (attempt + 1).to_string());
            let outcome = catch_unwind(AssertUnwindSafe(|| agent.apply(op)));
            let now = self.clock.now_ms();
            let err = match outcome {
                Ok(Ok(resp)) => {
                    if let Some(t) = self.record(BreakerInput::OpSuccess, now) {
                        dspan.annotate("breaker", t.to_string());
                    }
                    return Ok(resp);
                }
                // A deterministic business rejection is proof the agent is
                // responsive — it feeds the breaker as a success.
                Ok(Err(e)) if !retryable(&e) => {
                    if let Some(t) = self.record(BreakerInput::OpSuccess, now) {
                        dspan.annotate("breaker", t.to_string());
                    }
                    return Err(e);
                }
                Ok(Err(e)) => e,
                Err(_) => {
                    RedfishError::AgentUnavailable(format!("agent for fabric {} panicked mid-op", self.fabric_id))
                }
            };
            aspan.set_error();
            aspan.annotate("error", err.to_string());
            if let Some(t) = self.record(BreakerInput::OpFailure, now) {
                dspan.annotate("breaker", t.to_string());
            }
            drop(aspan);
            attempt += 1;
            if self.breaker_state() == BreakerState::Open {
                m.exhausted.inc();
                dspan.set_error();
                return Err(self.circuit_open_error());
            }
            if attempt >= self.cfg.retry.max_attempts {
                m.exhausted.inc();
                dspan.set_error();
                return Err(RedfishError::AgentUnavailable(format!(
                    "fabric {}: gave up after {attempt} attempts: {err}",
                    self.fabric_id
                )));
            }
            let backoff = self.backoff_ms(attempt);
            if now.saturating_sub(start) + backoff > self.cfg.retry.deadline_ms {
                m.deadline_exceeded.inc();
                dspan.set_error();
                return Err(RedfishError::AgentUnavailable(format!(
                    "fabric {}: deadline of {} ms exceeded after {attempt} attempts: {err}",
                    self.fabric_id, self.cfg.retry.deadline_ms
                )));
            }
            m.retries.inc();
            self.clock.wait_ms(backoff);
        }
    }

    fn backoff_ms(&self, attempt: u32) -> u64 {
        let base = self
            .cfg
            .retry
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(self.cfg.retry.backoff_max_ms);
        let jitter = if self.cfg.retry.jitter_ms > 0 {
            self.rng.lock().gen_range(0..self.cfg.retry.jitter_ms + 1)
        } else {
            0
        };
        base + jitter
    }

    // ------------------------------------------------------------- journal

    /// Journal a teardown op for replay once the agent heartbeats back.
    /// Identical pending ops are deduplicated.
    pub fn journal_teardown(&self, op: &AgentOp) {
        let mut j = self.journal.lock();
        if !j.iter().any(|o| o == op) {
            j.push(op.clone());
            metrics().journal_depth.add(1);
        }
    }

    /// Take every journaled op (replay path).
    pub fn take_journal(&self) -> Vec<AgentOp> {
        let ops = std::mem::take(&mut *self.journal.lock());
        metrics().journal_depth.sub(ops.len() as i64);
        ops
    }

    /// Pending journal depth.
    pub fn journal_len(&self) -> usize {
        self.journal.lock().len()
    }

    /// Copy of the pending journal without draining it (snapshot path: the
    /// WAL snapshot persists undrained teardowns, so a crash between
    /// snapshot and replay loses nothing).
    pub fn peek_journal(&self) -> Vec<AgentOp> {
        self.journal.lock().clone()
    }

    /// Count a successful journal replay.
    pub fn count_replayed(&self) {
        metrics().replayed.inc();
    }

    // ------------------------------------------------------- degraded state

    /// Remember the prior `Status` of resources being degraded.
    pub fn set_degraded(&self, prior: Vec<(ODataId, Value)>) {
        *self.degraded.lock() = prior;
    }

    /// Take the saved pre-outage `Status` values (recovery path).
    pub fn take_degraded(&self) -> Vec<(ODataId, Value)> {
        std::mem::take(&mut *self.degraded.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NullAgent;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn breaker(threshold: u32, cooldown: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_ms: cooldown,
        })
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_via_probe() {
        let mut b = breaker(3, 100);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(BreakerInput::OpFailure, 1);
        b.record(BreakerInput::OpFailure, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record(BreakerInput::OpFailure, 3);
        assert_eq!(b.state(), BreakerState::Open);
        // Rejected during cooldown, with a live countdown.
        assert_eq!(b.admit(3), Admission::Rejected { retry_after_ms: 100 });
        assert_eq!(b.admit(53), Admission::Rejected { retry_after_ms: 50 });
        // Cooldown elapsed: probe admitted, success closes.
        assert_eq!(b.admit(103), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(BreakerInput::OpSuccess, 104);
        assert_eq!(b.state(), BreakerState::Closed);
        let causes: Vec<&str> = b.log().iter().map(|t| t.cause).collect();
        assert_eq!(causes, vec!["failure-threshold", "cooldown-elapsed", "probe-success"]);
    }

    #[test]
    fn probe_failure_reopens() {
        let mut b = breaker(1, 10);
        b.record(BreakerInput::OpFailure, 0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(10), Admission::Probe);
        b.record(BreakerInput::OpFailure, 11);
        assert_eq!(b.state(), BreakerState::Open);
        // The cooldown restarts from the re-open.
        assert_eq!(b.admit(12), Admission::Rejected { retry_after_ms: 9 });
    }

    #[test]
    fn heartbeat_recovery_half_opens_without_waiting_cooldown() {
        let mut b = breaker(1, 1_000_000);
        b.record(BreakerInput::ForceOpen, 5);
        assert_eq!(b.state(), BreakerState::Open);
        b.record(BreakerInput::HeartbeatOk, 6);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(BreakerInput::OpSuccess, 7);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = breaker(3, 10);
        b.record(BreakerInput::OpFailure, 0);
        b.record(BreakerInput::OpFailure, 1);
        b.record(BreakerInput::OpSuccess, 2);
        b.record(BreakerInput::OpFailure, 3);
        b.record(BreakerInput::OpFailure, 4);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    struct FailingAgent {
        fail_first: AtomicU32,
    }

    impl Agent for FailingAgent {
        fn info(&self) -> crate::agent::AgentInfo {
            crate::agent::AgentInfo {
                fabric_id: "FLAKY".into(),
                technology: "CXL".into(),
                version: "t".into(),
            }
        }
        fn discover(&self) -> Vec<(ODataId, Value)> {
            Vec::new()
        }
        fn apply(&self, _op: &AgentOp) -> RedfishResult<AgentResponse> {
            if self.fail_first.load(Ordering::Acquire) > 0 {
                self.fail_first.fetch_sub(1, Ordering::AcqRel);
                return Err(RedfishError::AgentUnavailable("injected".into()));
            }
            Ok(AgentResponse::default())
        }
        fn drain_events(&self) -> Vec<crate::agent::AgentEvent> {
            Vec::new()
        }
        fn sample_telemetry(&self) -> Vec<crate::agent::AgentMetric> {
            Vec::new()
        }
    }

    fn sup(cfg: SupervisorConfig) -> (AgentSupervisor, Arc<Clock>) {
        let clock = Arc::new(Clock::manual());
        (AgentSupervisor::new("FLAKY", Arc::clone(&clock), cfg, 42), clock)
    }

    #[test]
    fn dispatch_retries_transient_failures() {
        let (s, clock) = sup(SupervisorConfig::default());
        let agent: Arc<dyn Agent> = Arc::new(FailingAgent {
            fail_first: AtomicU32::new(2),
        });
        let op = AgentOp::DeleteZone {
            zone: ODataId::new("/z"),
        };
        assert!(s.dispatch(&agent, &op).is_ok());
        // Backoffs advanced the manual clock deterministically.
        assert!(clock.now_ms() > 0);
        assert_eq!(s.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn dispatch_gives_up_and_breaker_opens() {
        let mut cfg = SupervisorConfig::default();
        cfg.breaker.failure_threshold = 3;
        cfg.retry.max_attempts = 4;
        let (s, _clock) = sup(cfg);
        let agent: Arc<dyn Agent> = Arc::new(FailingAgent {
            fail_first: AtomicU32::new(u32::MAX),
        });
        let op = AgentOp::DeleteZone {
            zone: ODataId::new("/z"),
        };
        let err = s.dispatch(&agent, &op).unwrap_err();
        assert!(matches!(err, RedfishError::CircuitOpen { .. }), "{err}");
        assert_eq!(s.breaker_state(), BreakerState::Open);
        // Further dispatches are rejected without touching the agent.
        let err = s.dispatch(&agent, &op).unwrap_err();
        assert!(matches!(err, RedfishError::CircuitOpen { .. }));
    }

    #[test]
    fn panicking_agent_is_contained() {
        struct PanicAgent;
        impl Agent for PanicAgent {
            fn info(&self) -> crate::agent::AgentInfo {
                crate::agent::AgentInfo {
                    fabric_id: "BOOM".into(),
                    technology: "CXL".into(),
                    version: "t".into(),
                }
            }
            fn discover(&self) -> Vec<(ODataId, Value)> {
                Vec::new()
            }
            fn apply(&self, _op: &AgentOp) -> RedfishResult<AgentResponse> {
                panic!("agent bug");
            }
            fn drain_events(&self) -> Vec<crate::agent::AgentEvent> {
                Vec::new()
            }
            fn sample_telemetry(&self) -> Vec<crate::agent::AgentMetric> {
                Vec::new()
            }
        }
        let (s, _clock) = sup(SupervisorConfig::default());
        let agent: Arc<dyn Agent> = Arc::new(PanicAgent);
        let err = s
            .dispatch(
                &agent,
                &AgentOp::DeleteZone {
                    zone: ODataId::new("/z"),
                },
            )
            .unwrap_err();
        assert_eq!(err.http_status(), 503);
    }

    #[test]
    fn business_errors_pass_through_without_retries() {
        let (s, clock) = sup(SupervisorConfig::default());
        let agent: Arc<dyn Agent> = Arc::new(NullAgent::new("N", vec![]));
        let err = s
            .dispatch(
                &agent,
                &AgentOp::InjectFault {
                    description: "x".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, RedfishError::BadRequest(_)));
        assert_eq!(clock.now_ms(), 0, "no backoff for deterministic rejections");
        assert_eq!(s.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn journal_dedups_and_drains() {
        let (s, _clock) = sup(SupervisorConfig::default());
        let op = AgentOp::Disconnect {
            connection: ODataId::new("/c1"),
        };
        s.journal_teardown(&op);
        s.journal_teardown(&op);
        assert_eq!(s.journal_len(), 1);
        assert_eq!(s.take_journal().len(), 1);
        assert_eq!(s.journal_len(), 0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let clock = Arc::new(Clock::manual());
        let a = AgentSupervisor::new("F", Arc::clone(&clock), SupervisorConfig::default(), 7);
        let b = AgentSupervisor::new("F", Arc::clone(&clock), SupervisorConfig::default(), 7);
        let seq_a: Vec<u64> = (1..6).map(|i| a.backoff_ms(i)).collect();
        let seq_b: Vec<u64> = (1..6).map(|i| b.backoff_ms(i)).collect();
        assert_eq!(seq_a, seq_b);
    }
}
