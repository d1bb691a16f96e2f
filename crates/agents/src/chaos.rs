//! [`ChaosAgent`]: a fault-injecting decorator over any [`Agent`].
//!
//! Wraps a real agent and perturbs the OFMF↔Agent boundary with seeded,
//! reproducible misbehavior — dropped ops, added latency, duplicated
//! (at-least-once) delivery, a scheduled crash mid-op, and heartbeat
//! flapping. The chaos integration suite and the `failover` bench use it to
//! exercise the supervisor layer (breakers, retries, degraded mode, journal
//! replay) without any real flaky hardware.
//!
//! All randomness comes from one `StdRng` seeded by [`ChaosConfig::seed`]:
//! two runs with the same seed and the same call sequence misbehave
//! identically.

use ofmf_core::agent::{Agent, AgentEvent, AgentInfo, AgentMetric, AgentOp, AgentResponse};
use ofmf_core::clock::Clock;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redfish_model::odata::ODataId;
use redfish_model::{RedfishError, RedfishResult};
use serde_json::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Fault schedule for a [`ChaosAgent`]. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the fault rng (reproducible runs).
    pub seed: u64,
    /// Probability an op is dropped (fails with `AgentUnavailable` without
    /// reaching the inner agent).
    pub drop_rate: f64,
    /// Probability a heartbeat is missed while the agent is otherwise up.
    pub flap_rate: f64,
    /// Probability an op is delivered twice (at-least-once duplication; the
    /// second response wins).
    pub duplicate_rate: f64,
    /// Service-clock latency added to every delivered op.
    pub delay_ms: u64,
    /// Crash (panic mid-op, then stay down until [`ChaosAgent::revive`])
    /// after this many delivered ops.
    pub crash_after_ops: Option<u64>,
}

impl ChaosConfig {
    /// A quiet schedule: no faults, only the seed set.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_rate: 0.0,
            flap_rate: 0.0,
            duplicate_rate: 0.0,
            delay_ms: 0,
            crash_after_ops: None,
        }
    }

    /// Set the op drop probability.
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Set the heartbeat flap probability.
    pub fn with_flap_rate(mut self, p: f64) -> Self {
        self.flap_rate = p;
        self
    }

    /// Set the op duplication probability.
    pub fn with_duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = p;
        self
    }

    /// Add fixed service-clock latency to every delivered op.
    pub fn with_delay_ms(mut self, ms: u64) -> Self {
        self.delay_ms = ms;
        self
    }

    /// Schedule a crash after `n` delivered ops.
    pub fn with_crash_after_ops(mut self, n: u64) -> Self {
        self.crash_after_ops = Some(n);
        self
    }
}

/// A fault-injecting wrapper around any [`Agent`].
pub struct ChaosAgent {
    inner: Arc<dyn Agent>,
    cfg: ChaosConfig,
    rng: Mutex<StdRng>,
    /// Ops delivered to the inner agent so far (drives the crash schedule).
    delivered: AtomicU64,
    /// Crashed or manually taken down: heartbeats fail and ops are refused
    /// until revived.
    down: AtomicBool,
    /// Set by [`ChaosAgent::revive`]: the crash schedule fires at most once
    /// per arming, so a revived agent does not immediately re-crash.
    crash_disarmed: AtomicBool,
    /// Optional service clock; when set, `delay_ms` advances it so manual
    /// clocks observe the injected latency.
    clock: Option<Arc<Clock>>,
    /// Counters (test observation).
    dropped: AtomicU64,
    duplicated: AtomicU64,
}

impl ChaosAgent {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: Arc<dyn Agent>, cfg: ChaosConfig) -> Self {
        ChaosAgent {
            inner,
            cfg,
            rng: Mutex::new(StdRng::seed_from_u64(cfg.seed)),
            delivered: AtomicU64::new(0),
            down: AtomicBool::new(false),
            crash_disarmed: AtomicBool::new(false),
            clock: None,
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        }
    }

    /// Attach a service clock so injected delays advance it (keeps manual
    /// clocks honest about the latency).
    pub fn with_clock(mut self, clock: Arc<Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Take the agent down (heartbeats fail, ops refused) without a panic.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Release);
    }

    /// Whether the agent is currently down (crashed or forced).
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Acquire)
    }

    /// Bring a crashed/downed agent back and permanently disarm the crash
    /// schedule, so the revived agent serves cleanly.
    pub fn revive(&self) {
        self.crash_disarmed.store(true, Ordering::Release);
        self.down.store(false, Ordering::Release);
    }

    /// Ops dropped so far.
    pub fn dropped_ops(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Ops delivered twice so far.
    pub fn duplicated_ops(&self) -> u64 {
        self.duplicated.load(Ordering::Acquire)
    }

    fn draw(&self, p: f64) -> bool {
        p > 0.0 && self.rng.lock().gen::<f64>() < p
    }
}

impl Agent for ChaosAgent {
    fn info(&self) -> AgentInfo {
        self.inner.info()
    }

    fn discover(&self) -> Vec<(ODataId, Value)> {
        self.inner.discover()
    }

    fn apply(&self, op: &AgentOp) -> RedfishResult<AgentResponse> {
        if self.is_down() {
            return Err(RedfishError::AgentUnavailable("chaos: agent is down".into()));
        }
        if self.draw(self.cfg.drop_rate) {
            self.dropped.fetch_add(1, Ordering::AcqRel);
            return Err(RedfishError::AgentUnavailable("chaos: op dropped".into()));
        }
        // Crash BEFORE forwarding: the op never reaches the fabric
        // (at-most-once), which is the nastier case for the control plane.
        let n = self.delivered.fetch_add(1, Ordering::AcqRel) + 1;
        if !self.crash_disarmed.load(Ordering::Acquire) && self.cfg.crash_after_ops.is_some_and(|limit| n > limit) {
            self.down.store(true, Ordering::Release);
            // ofmf-lint: allow(no-panic-path, "deliberate fault injection: the chaos agent crashes on purpose")
            panic!("chaos: scheduled crash mid-op after {} delivered ops", n - 1);
        }
        if self.cfg.delay_ms > 0 {
            if let Some(clock) = &self.clock {
                clock.wait_ms(self.cfg.delay_ms);
            }
        }
        let resp = self.inner.apply(op)?;
        if self.draw(self.cfg.duplicate_rate) {
            self.duplicated.fetch_add(1, Ordering::AcqRel);
            // At-least-once delivery: the duplicate's outcome wins, matching
            // a retransmit racing the original on a real wire.
            return self.inner.apply(op);
        }
        Ok(resp)
    }

    fn drain_events(&self) -> Vec<AgentEvent> {
        if self.is_down() {
            return Vec::new();
        }
        self.inner.drain_events()
    }

    fn sample_telemetry(&self) -> Vec<AgentMetric> {
        if self.is_down() {
            return Vec::new();
        }
        self.inner.sample_telemetry()
    }

    fn heartbeat(&self) -> bool {
        // A down agent draws nothing, so a flap schedule resumes where it was.
        !self.is_down() && !self.draw(self.cfg.flap_rate) && self.inner.heartbeat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofmf_core::agent::NullAgent;

    fn null() -> Arc<dyn Agent> {
        Arc::new(NullAgent::new("C0", vec![]))
    }

    fn del_op() -> AgentOp {
        AgentOp::DeleteZone {
            zone: ODataId::new("/z"),
        }
    }

    #[test]
    fn quiet_config_is_transparent() {
        let a = ChaosAgent::new(null(), ChaosConfig::quiet(1));
        assert!(a.apply(&del_op()).is_ok());
        assert!(a.heartbeat());
        assert_eq!(a.dropped_ops(), 0);
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let a = ChaosAgent::new(null(), ChaosConfig::quiet(1).with_drop_rate(1.0));
        assert!(matches!(a.apply(&del_op()), Err(RedfishError::AgentUnavailable(_))));
        assert_eq!(a.dropped_ops(), 1);
    }

    #[test]
    fn crash_schedule_panics_then_stays_down_until_revived() {
        let a = Arc::new(ChaosAgent::new(null(), ChaosConfig::quiet(1).with_crash_after_ops(2)));
        assert!(a.apply(&del_op()).is_ok());
        assert!(a.apply(&del_op()).is_ok());
        let a2 = Arc::clone(&a);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _ = a2.apply(&del_op());
        }))
        .is_err();
        assert!(panicked);
        assert!(a.is_down());
        assert!(!a.heartbeat());
        assert!(matches!(a.apply(&del_op()), Err(RedfishError::AgentUnavailable(_))));
        a.revive();
        assert!(a.heartbeat());
        assert!(a.apply(&del_op()).is_ok());
    }

    #[test]
    fn duplicate_rate_one_applies_twice() {
        let inner = Arc::new(NullAgent::new("C0", vec![]));
        let a = ChaosAgent::new(
            Arc::clone(&inner) as Arc<dyn Agent>,
            ChaosConfig::quiet(1).with_duplicate_rate(1.0),
        );
        a.apply(&del_op()).unwrap();
        assert_eq!(inner.applied_ops().len(), 2);
        assert_eq!(a.duplicated_ops(), 1);
    }

    #[test]
    fn delay_advances_manual_clock() {
        let clock = Arc::new(Clock::manual());
        let a = ChaosAgent::new(null(), ChaosConfig::quiet(1).with_delay_ms(25)).with_clock(Arc::clone(&clock));
        a.apply(&del_op()).unwrap();
        assert_eq!(clock.now_ms(), 25);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed: u64| {
            let a = ChaosAgent::new(null(), ChaosConfig::quiet(seed).with_drop_rate(0.3).with_flap_rate(0.2));
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(a.apply(&del_op()).is_ok());
                outcomes.push(a.heartbeat());
            }
            outcomes
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should (almost surely) differ");
    }
}
