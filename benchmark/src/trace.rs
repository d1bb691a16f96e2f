//! Harness-side tracing for the traced run: spans recorded around calls
//! into each layer's public functions, kept in memory, written at exit.
//!
//! Spans inside the program are a later change; everything here wraps the
//! program from outside — [`TimingAgent`] over the public `Agent` trait
//! (like `ChaosAgent`), [`TimingBridge`] over `ComposeService`, and
//! [`Tracer::enter`] around direct calls.

use ofmf_core::agent::{Agent, AgentEvent, AgentInfo, AgentMetric, AgentOp, AgentResponse};
use redfish_model::odata::ODataId;
use redfish_model::RedfishResult;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// Id of the span that caused this one.
    pub parent: u32,
    /// Identifier shared by every span of one operation.
    pub trace: u64,
    /// `layer.function` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Per-name call count and total time, kept even while span recording is
/// off, so the wire phase of a traced run still yields layer totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    /// Calls.
    pub count: u64,
    /// Summed duration.
    pub ns: u64,
}

/// The span store. One generator thread drives the traced replay, so the
/// "current span" is a pair of process-wide atomics rather than a
/// thread-local: agent calls fanned out to scoped worker threads by
/// `Ofmf::apply_parallel` still find their parent.
pub struct Tracer {
    epoch: Instant,
    active: AtomicBool,
    recording: AtomicBool,
    next_id: AtomicU32,
    current: AtomicU32,
    trace: AtomicU64,
    spans: Mutex<Vec<Span>>,
    totals: Mutex<BTreeMap<&'static str, Total>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            active: AtomicBool::new(true),
            recording: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            trace: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            totals: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Tracer {
    /// Deactivate (or reactivate) the tracer: while inactive `enter` and
    /// `leaf` call straight through, so the same process can time its
    /// traffic with and without the decorators' bookkeeping.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::SeqCst);
    }

    /// Turn span recording on or off (totals are kept while active).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Start a new trace: spans recorded from now on carry `trace`.
    pub fn begin_trace(&self, trace: u64) {
        self.trace.store(trace, Ordering::SeqCst);
        self.current.store(0, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn finish(&self, name: &'static str, id: u32, parent: u32, start_ns: u64) -> u64 {
        let end_ns = self.now_ns();
        let dur = end_ns - start_ns;
        {
            let mut totals = self.totals.lock().expect("tracer totals lock");
            let t = totals.entry(name).or_default();
            t.count += 1;
            t.ns += dur;
        }
        if id != 0 {
            self.spans.lock().expect("tracer span lock").push(Span {
                id,
                parent,
                trace: self.trace.load(Ordering::SeqCst),
                name,
                start_ns,
                end_ns,
            });
        }
        dur
    }

    fn open(&self) -> (u32, u32, u64) {
        let id = if self.recording.load(Ordering::SeqCst) {
            self.next_id.fetch_add(1, Ordering::SeqCst)
        } else {
            0
        };
        (id, self.current.load(Ordering::SeqCst), self.now_ns())
    }

    /// Run `f` inside a span that becomes the parent of every span opened
    /// while it runs. Harness thread only. Returns `f`'s result and the
    /// span's duration in nanoseconds.
    pub fn enter<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        if !self.active.load(Ordering::SeqCst) {
            return (f(), 0);
        }
        let (id, parent, start) = self.open();
        if id != 0 {
            self.current.store(id, Ordering::SeqCst);
        }
        let out = f();
        if id != 0 {
            self.current.store(parent, Ordering::SeqCst);
        }
        (out, self.finish(name, id, parent, start))
    }

    /// Run `f` inside a childless span; callable from any thread.
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.active.load(Ordering::SeqCst) {
            return f();
        }
        let (id, parent, start) = self.open();
        let out = f();
        self.finish(name, id, parent, start);
        out
    }

    /// Totals by span name since the last [`Tracer::reset_totals`].
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        self.totals.lock().expect("tracer totals lock").clone()
    }

    /// Forget the totals (between phases).
    pub fn reset_totals(&self) {
        self.totals.lock().expect("tracer totals lock").clear();
    }

    /// Mean duration of the spans called `name`, 0 when none ran.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.totals().get(name) {
            Some(t) if t.count > 0 => t.ns as f64 / t.count as f64,
            _ => 0.0,
        }
    }

    /// Self time per span name over the recorded spans: a span's duration
    /// minus the part of it its child spans cover. Children that ran in
    /// parallel (agent calls fanned out by `Ofmf::apply_parallel`) overlap;
    /// their subtree is scaled by covered ÷ summed duration, so the self
    /// times under a root always add up to the root's wall time.
    pub fn self_times(&self) -> BTreeMap<&'static str, Total> {
        let spans = self.spans.lock().expect("tracer span lock");
        let by_id: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut stack: Vec<(usize, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if by_id.contains_key(&s.parent) {
                children.entry(s.parent).or_default().push(i);
            } else {
                stack.push((i, 1.0));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        while let Some((i, weight)) = stack.pop() {
            let s = &spans[i];
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut intervals: Vec<(u64, u64)> = kids.iter().map(|k| (spans[*k].start_ns, spans[*k].end_ns)).collect();
            intervals.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in intervals.iter().map(|&(a, b)| (a, b.min(s.end_ns))) {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let summed: u64 = kids.iter().map(|k| spans[*k].end_ns - spans[*k].start_ns).sum();
            let scale = if summed > 0 {
                covered as f64 / summed as f64
            } else {
                1.0
            };
            for k in kids {
                stack.push((*k, weight * scale));
            }
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += weight * (s.end_ns - s.start_ns).saturating_sub(covered) as f64;
        }
        out.into_iter()
            .map(|(name, (count, ns))| (name, Total { count, ns: ns as u64 }))
            .collect()
    }

    /// The recorded spans as a JSON array for the trace file.
    pub fn spans_json(&self) -> Value {
        let spans = self.spans.lock().expect("tracer span lock");
        Value::Array(
            spans
                .iter()
                .map(|s| {
                    json!({
                        "id": s.id,
                        "parent": s.parent,
                        "trace": s.trace,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                    })
                })
                .collect(),
        )
    }
}

/// Span name of an agent operation kind.
pub fn agent_span_name(op: &AgentOp) -> &'static str {
    match op {
        AgentOp::CreateZone { .. } => "agents.apply.create_zone",
        AgentOp::DeleteZone { .. } => "agents.apply.delete_zone",
        AgentOp::Connect { .. } => "agents.apply.connect",
        AgentOp::Disconnect { .. } => "agents.apply.disconnect",
        AgentOp::InjectFault { .. } => "agents.apply.inject_fault",
        AgentOp::ProbeRoute { .. } | AgentOp::ProbeRoutes { .. } => "agents.apply.probe_routes",
    }
}

/// Decorator timing every call the OFMF makes into an agent.
pub struct TimingAgent {
    inner: Arc<dyn Agent>,
    tracer: Arc<Tracer>,
}

impl TimingAgent {
    /// Wrap `inner`; every trait call is recorded on `tracer`.
    pub fn new(inner: Arc<dyn Agent>, tracer: Arc<Tracer>) -> Self {
        TimingAgent { inner, tracer }
    }
}

impl Agent for TimingAgent {
    fn info(&self) -> AgentInfo {
        self.inner.info()
    }

    fn discover(&self) -> Vec<(ODataId, Value)> {
        self.tracer.leaf("agents.discover", || self.inner.discover())
    }

    fn apply(&self, op: &AgentOp) -> RedfishResult<AgentResponse> {
        self.tracer.leaf(agent_span_name(op), || self.inner.apply(op))
    }

    fn drain_events(&self) -> Vec<AgentEvent> {
        self.tracer.leaf("agents.drain_events", || self.inner.drain_events())
    }

    fn sample_telemetry(&self) -> Vec<AgentMetric> {
        self.tracer
            .leaf("agents.sample_telemetry", || self.inner.sample_telemetry())
    }

    fn heartbeat(&self) -> bool {
        self.tracer.leaf("agents.heartbeat", || self.inner.heartbeat())
    }
}

/// Decorator timing `CompositionService.Compose` where the router hands it
/// to the composer, so the compose span nests inside the REST handle span
/// and around the agent spans.
pub struct TimingBridge {
    inner: Arc<dyn ofmf_rest::ComposeService>,
    tracer: Arc<Tracer>,
}

impl TimingBridge {
    /// Wrap a compose service.
    pub fn new(inner: Arc<dyn ofmf_rest::ComposeService>, tracer: Arc<Tracer>) -> Self {
        TimingBridge { inner, tracer }
    }
}

impl ofmf_rest::ComposeService for TimingBridge {
    fn compose(&self, body: &Value) -> RedfishResult<ODataId> {
        // Runs on the REST worker during the wire phase (recording off, so
        // `enter` touches no shared "current span") and on the harness
        // thread during the in-process replay.
        self.tracer.enter("composer.compose", || self.inner.compose(body)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let t = Tracer::default();
        t.set_recording(true);
        t.begin_trace(7);
        t.enter("outer", || {
            t.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            t.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let selfs = t.self_times();
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(selfs["outer"].count, 1);
        // outer's self time excludes the 10 ms spent in its children, and
        // the self times add up to the root's wall time.
        assert!(selfs["outer"].ns < totals["outer"].ns / 2);
        assert!((selfs["outer"].ns + selfs["inner"].ns).abs_diff(totals["outer"].ns) <= 2);
        let spans = t.spans_json();
        let arr = spans.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        let outer_id = arr.iter().find(|s| s["name"] == "outer").unwrap()["id"].as_u64();
        for s in arr.iter().filter(|s| s["name"] == "inner") {
            assert_eq!(s["parent"].as_u64(), outer_id);
            assert_eq!(s["trace"].as_u64(), Some(7));
        }
    }

    #[test]
    fn parallel_children_are_scaled_to_the_wall_time_they_cover() {
        let t = Tracer::default();
        t.set_recording(true);
        t.begin_trace(1);
        t.enter("outer", || {
            std::thread::scope(|sc| {
                for _ in 0..2 {
                    sc.spawn(|| t.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(10))));
                }
            });
        });
        let selfs = t.self_times();
        let totals = t.totals();
        // Two overlapping 10 ms children count for the ≈ 10 ms they cover.
        assert!(totals["inner"].ns >= 20_000_000);
        assert!(selfs["inner"].ns < 15_000_000, "{}", selfs["inner"].ns);
        assert!((selfs["outer"].ns + selfs["inner"].ns).abs_diff(totals["outer"].ns) <= 2);
    }

    #[test]
    fn totals_are_kept_while_recording_is_off() {
        let t = Tracer::default();
        t.leaf("quiet", || ());
        assert_eq!(t.totals()["quiet"].count, 1);
        assert_eq!(t.spans_json().as_array().unwrap().len(), 0);
    }
}
