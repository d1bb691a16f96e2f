//! The four workloads and the pieces of a run they share: the session with
//! its two connections, the loads (one per workload), the fault-tick
//! machinery, and calibration.
//!
//! All load comes from the calling thread over at most two loopback
//! connections; every load is a closed loop (the callers modelled here wait
//! for their reply).

use crate::check::{run_pipelined, verify, ChassisView, Tally};
use crate::gen::{Batch, ChurnGen, FaultGen, JobGen, Kind, QueryGen, SweepGen, Tree, CHURN_LIVE_PER_CONN};
use crate::layers::{replay_request, serve};
use crate::rig::Rig;
use crate::stats::Segment;
use crate::trace::Tracer;
use crate::wire::{encode_request, Conn};
use crossbeam::channel::Receiver;
use fabric_sim::failure::Fault;
use fabric_sim::ids::LinkId;
use fabric_sim::topology::Attach;
use ofmf_core::telemetry::Threshold;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::{EventEnvelope, EventType};
use serde_json::Value;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Requests in flight per connection in the pipelined workloads.
pub const DEPTH: usize = 64;
/// Systems `job_churn` keeps composed.
pub const JOBS_LIVE: usize = 64;
/// Systems `fault_storm` composes before its first tick.
pub const STORM_SYSTEMS: usize = 32;
/// In-process subscriptions of `fault_storm`.
pub const STORM_LOCAL_SUBS: usize = 64;

/// The workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["monitor_sweep", "tree_churn", "job_churn", "fault_storm"];

/// Latency samples a run collects, whichever phase produced them.
#[derive(Debug, Default)]
pub struct Latencies {
    /// `POST …Compose` → 201, milliseconds.
    pub compose_ms: Vec<f64>,
    /// `Composer::decompose`, milliseconds.
    pub decompose_ms: Vec<f64>,
    /// `GET Systems?$expand=.`, microseconds.
    pub expand_us: Vec<f64>,
    /// Fault injected → event parsed by the wildcard REST subscriber, ms.
    pub delivery_ms: Vec<f64>,
}

/// A logged-in client of a booted rig.
pub struct Session {
    /// The stack under test.
    pub rig: Rig,
    /// What the generators know about its tree.
    pub tree: Arc<Tree>,
    /// The one session token every request carries.
    pub token: String,
    /// The generator's connections (never more than two).
    pub conns: Vec<Conn>,
    /// Checked operations so far.
    pub tally: Tally,
    /// Latency samples so far.
    pub lat: Latencies,
    /// Chassis the agents mounted.
    pub chassis_base: u32,
    /// Current size of the `Systems` collection.
    pub systems: u32,
    /// Set in the traced run.
    pub tracer: Option<Arc<Tracer>>,
}

impl Session {
    /// Run `f` inside a harness span when tracing, bare otherwise.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) => t.enter(name, f).0,
            None => f(),
        }
    }

    /// Send one request alone on connection 0 and check its response.
    /// Returns the round-trip time in seconds.
    pub fn lone(&mut self, batch: &Batch) -> io::Result<f64> {
        let op = &batch.ops[0];
        let tree = Arc::clone(&self.tree);
        let view = ChassisView {
            base: self.chassis_base,
            ..ChassisView::default()
        };
        let t0 = Instant::now();
        let outcome = self.conns[0].round_trip(batch.request(0), |s, f| verify(&tree, s, f, op, view))?;
        let dt = t0.elapsed().as_secs_f64();
        self.tally.record(outcome);
        Ok(dt)
    }

    /// One compose over REST, then the decompose that keeps the live set
    /// bounded — in-process, because REST has no decompose route.
    pub fn cycle(&mut self, jobs: &mut JobGen) -> io::Result<()> {
        let c = jobs.cycle();
        let dt = self.lone(&c.compose)?;
        self.lat.compose_ms.push(dt * 1e3);
        self.systems += 1;
        if let Some(old) = c.decompose {
            let id = ODataId::new(old);
            let t0 = Instant::now();
            let r = self.span("composer.decompose", || self.rig.composer.decompose(&id));
            self.lat.decompose_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.tally.record(r.map_err(|e| format!("decompose {id}: {e}")));
            self.systems -= 1;
        }
        Ok(())
    }

    /// One `GET Systems?$expand=.` sent alone.
    pub fn expand(&mut self, queries: &QueryGen) -> io::Result<()> {
        let dt = self.lone(&queries.expand(self.systems))?;
        self.lat.expand_us.push(dt * 1e6);
        Ok(())
    }
}

/// What must still be there after a crash: the acknowledged mutations.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Client-owned chassis that were created and not deleted.
    pub chassis: Vec<String>,
    /// `(path, AssetTag)` of the latest acknowledged PATCH per resource.
    pub written: Vec<(String, String)>,
    /// Composed systems that were never decomposed.
    pub systems: Vec<String>,
}

/// What an in-process replay did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replayed {
    /// Operations replayed.
    pub ops: u64,
    /// Response bytes they would have put on the wire.
    pub bytes_out: u64,
}

/// A workload's traffic.
pub trait Load {
    /// Run about `ops` operations and report what was done and how long
    /// the wire part took (generation is not timed).
    fn run(&mut self, s: &mut Session, ops: usize) -> io::Result<Segment>;
    /// Smallest sensible `ops` (the calibration unit).
    fn unit(&self) -> usize;
    /// Operations run between the snapshot and the journal copy of each
    /// recovery sample: a fixed tail, so every sample replays the same
    /// amount of journal.
    fn tail(&self) -> usize;
    /// Called after probe traffic the load did not generate itself (the
    /// storm drains the events those operations published).
    fn after_probe(&mut self, _s: &mut Session) -> io::Result<()> {
        Ok(())
    }
    /// The acknowledged mutations so far.
    fn ledger(&self) -> Ledger;
    /// Run the next `ops` operations of the same stream in-process, each
    /// under a root span of its own trace (the traced run's sample).
    fn replay(&mut self, s: &mut Session, t: &Tracer, ops: usize) -> io::Result<Replayed>;
    /// `(faults injected, connections re-routed)` so far, for a load that
    /// injects faults itself.
    fn fault_counts(&self) -> Option<(u64, u64)> {
        None
    }
}

fn replay_batch(s: &mut Session, t: &Tracer, batch: &Batch, first_trace: u64) -> io::Result<Replayed> {
    let mut out = Replayed::default();
    for (i, op) in batch.ops.iter().enumerate() {
        out.bytes_out += replay_request(s, t, first_trace + i as u64, op.kind, batch.request(i))? as u64;
        out.ops += 1;
    }
    Ok(out)
}

/// `monitor_sweep`.
pub struct SweepLoad {
    gens: Vec<SweepGen>,
}

impl SweepLoad {
    /// Two connections' generators.
    pub fn new(seed: u64, s: &Session) -> Self {
        SweepLoad {
            gens: (0..2)
                .map(|c| SweepGen::new(seed, c, Arc::clone(&s.tree), &s.token))
                .collect(),
        }
    }
}

/// Requests generated (and held in memory) at a time per connection, so a
/// run's peak memory does not depend on how large calibration made its
/// segments.
const CHUNK: usize = 8192;

/// `total` cut into pieces of at most [`CHUNK`].
fn chunks(total: usize) -> impl Iterator<Item = usize> {
    (0..total.div_ceil(CHUNK)).map(move |i| CHUNK.min(total - i * CHUNK))
}

fn checked_pipeline(s: &mut Session, batches: &[Batch], views: &[ChassisView]) -> io::Result<f64> {
    let tree = Arc::clone(&s.tree);
    let tally = &mut s.tally;
    let t0 = Instant::now();
    run_pipelined(&mut s.conns, batches, DEPTH, |c, op, sp, f| {
        tally.record(verify(&tree, sp, f, op, views[c]));
    })?;
    Ok(t0.elapsed().as_secs_f64())
}

impl Load for SweepLoad {
    fn run(&mut self, s: &mut Session, ops: usize) -> io::Result<Segment> {
        let mut seg = Segment { ops: 0, seconds: 0.0 };
        for n in chunks(ops / 2) {
            let batches: Vec<Batch> = self.gens.iter_mut().map(|g| g.batch(n)).collect();
            seg.seconds += checked_pipeline(s, &batches, &[ChassisView::default(); 2])?;
            seg.ops += 2 * n as u64;
        }
        Ok(seg)
    }

    fn unit(&self) -> usize {
        4 * DEPTH * 2
    }

    fn tail(&self) -> usize {
        2048
    }

    fn ledger(&self) -> Ledger {
        Ledger::default()
    }

    fn replay(&mut self, s: &mut Session, t: &Tracer, ops: usize) -> io::Result<Replayed> {
        let batch = self.gens[0].batch(ops);
        // GETs are idempotent: one unrecorded pass first, so the recorded
        // one finds the documents as warm as the worker's steady state does.
        t.set_active(false);
        replay_batch(s, t, &batch, 0)?;
        t.set_active(true);
        replay_batch(s, t, &batch, 0)
    }
}

/// `tree_churn`.
pub struct ChurnLoad {
    gens: Vec<ChurnGen>,
    queries: QueryGen,
}

impl ChurnLoad {
    /// Generators for both connections; fills the chassis collection to
    /// its 2 000 client-owned members (untimed).
    pub fn new(seed: u64, s: &mut Session) -> io::Result<Self> {
        let mut gens: Vec<ChurnGen> = (0..2)
            .map(|c| ChurnGen::new(seed, c, 2, Arc::clone(&s.tree), &s.token))
            .collect();
        let fills: Vec<Batch> = gens.iter_mut().map(|g| g.fill(CHURN_LIVE_PER_CONN as usize)).collect();
        let base = ChassisView {
            base: s.chassis_base,
            ..ChassisView::default()
        };
        checked_pipeline(s, &fills, &[base; 2])?;
        Ok(ChurnLoad {
            gens,
            queries: QueryGen::new(seed, Arc::clone(&s.tree), &s.token),
        })
    }

    /// Range of chassis a connection holds while `batch` is in flight.
    fn live_range(start: u32, batch: &Batch) -> (u32, u32) {
        let (mut live, mut lo, mut hi) = (start, start, start);
        for op in &batch.ops {
            match op.kind {
                Kind::Post => live += 1,
                Kind::Delete => live -= 1,
                _ => {}
            }
            lo = lo.min(live);
            hi = hi.max(live);
        }
        (lo, hi)
    }
}

impl Load for ChurnLoad {
    fn run(&mut self, s: &mut Session, ops: usize) -> io::Result<Segment> {
        // 95 % pipelined on both connections, then the 5 % query GETs alone
        // on the drained pipeline, so `expand_p50_us` is a clean sample.
        let per_conn = ops * 95 / 200;
        let mut seconds = 0.0;
        for n in chunks(per_conn) {
            let starts: Vec<u32> = self.gens.iter().map(ChurnGen::live).collect();
            let batches: Vec<Batch> = self.gens.iter_mut().map(|g| g.batch(n)).collect();
            let views: Vec<ChassisView> = (0..2)
                .map(|c| {
                    let (other_min, other_max) = Self::live_range(starts[1 - c], &batches[1 - c]);
                    ChassisView {
                        base: s.chassis_base,
                        other_min,
                        other_max,
                    }
                })
                .collect();
            seconds += checked_pipeline(s, &batches, &views)?;
        }
        let held: u32 = self.gens.iter().map(ChurnGen::live).sum();
        let n_queries = ops - 2 * per_conn;
        for _ in 0..n_queries {
            let q = self.queries.next(s.systems, s.chassis_base + held);
            let dt = s.lone(&q)?;
            if q.ops[0].kind == Kind::QueryExpand {
                s.lat.expand_us.push(dt * 1e6);
            }
            seconds += dt;
        }
        Ok(Segment {
            ops: (2 * per_conn + n_queries) as u64,
            seconds,
        })
    }

    fn unit(&self) -> usize {
        2000
    }

    fn tail(&self) -> usize {
        500
    }

    fn ledger(&self) -> Ledger {
        Ledger {
            chassis: self.gens.iter().flat_map(ChurnGen::live_paths).collect(),
            written: self.gens.iter().flat_map(ChurnGen::written).collect(),
            systems: Vec::new(),
        }
    }

    fn replay(&mut self, s: &mut Session, t: &Tracer, ops: usize) -> io::Result<Replayed> {
        let pipelined = self.gens[0].batch(ops * 95 / 100);
        let mut out = replay_batch(s, t, &pipelined, 0)?;
        let held: u32 = self.gens.iter().map(ChurnGen::live).sum();
        for i in out.ops..ops as u64 {
            let q = self.queries.next(s.systems, s.chassis_base + held);
            out.bytes_out += replay_request(s, t, i, q.ops[0].kind, q.request(0))? as u64;
            out.ops += 1;
        }
        Ok(out)
    }
}

/// `job_churn`: one connection, depth 1.
pub struct JobLoad {
    jobs: JobGen,
}

impl JobLoad {
    /// Composes the first [`JOBS_LIVE`] systems (untimed), so the timed
    /// segments run at the steady live set and every cycle decomposes one.
    pub fn new(seed: u64, s: &mut Session) -> io::Result<Self> {
        let mut jobs = JobGen::new(seed, "job", JOBS_LIVE, &s.token);
        for _ in 0..JOBS_LIVE {
            s.cycle(&mut jobs)?;
        }
        // The ramp composed against a smaller live set: not steady state.
        s.lat.compose_ms.clear();
        Ok(JobLoad { jobs })
    }
}

impl Load for JobLoad {
    fn run(&mut self, s: &mut Session, ops: usize) -> io::Result<Segment> {
        let t0 = Instant::now();
        for _ in 0..ops {
            s.cycle(&mut self.jobs)?;
        }
        Ok(Segment {
            ops: ops as u64,
            seconds: t0.elapsed().as_secs_f64(),
        })
    }

    fn unit(&self) -> usize {
        8
    }

    fn tail(&self) -> usize {
        8
    }

    fn ledger(&self) -> Ledger {
        Ledger {
            systems: self.jobs.live_systems(),
            ..Ledger::default()
        }
    }

    fn replay(&mut self, s: &mut Session, t: &Tracer, ops: usize) -> io::Result<Replayed> {
        let mut out = Replayed::default();
        for i in 0..ops {
            let c = self.jobs.cycle();
            t.begin_trace(i as u64);
            let served = t
                .enter("op.compose_cycle", || -> io::Result<(u16, usize)> {
                    let (resp, bytes) = serve(&s.rig, t, c.compose.request(0))?;
                    if let Some(old) = &c.decompose {
                        let id = ODataId::new(old.as_str());
                        let torn = t.enter("composer.decompose", || s.rig.composer.decompose(&id)).0;
                        if torn.is_err() {
                            return Ok((500, bytes));
                        }
                    }
                    Ok((resp.status, bytes))
                })
                .0?;
            s.tally.record(if served.0 == 201 {
                Ok(())
            } else {
                Err(format!("replayed compose cycle answered {}", served.0))
            });
            out.ops += 1;
            out.bytes_out += served.1 as u64;
        }
        Ok(out)
    }
}

/// The fault-tick machinery: subscriptions, trunk links, and one tick.
pub struct Storm {
    faults: FaultGen,
    /// Trunk links (switch ↔ switch) per fabric, the only links flapped.
    trunks: Vec<Vec<LinkId>>,
    /// In-process subscriptions; `[0]` is a wildcard and `[1]` takes only
    /// alerts, mirroring the two REST subscribers.
    local: Vec<(String, Receiver<EventEnvelope>)>,
    /// Ids of the REST subscriptions: wildcard, alerts only.
    rest: [String; 2],
    drain: [Vec<u8>; 2],
    injected: u64,
    rerouted: u64,
}

fn envelopes(rx: &Receiver<EventEnvelope>) -> usize {
    let mut n = 0;
    while rx.try_recv().is_ok() {
        n += 1;
    }
    n
}

impl Storm {
    /// Subscribe ([`STORM_LOCAL_SUBS`] in-process with mixed filters, two
    /// over REST) and locate every fabric's trunk links. `thresholds`
    /// installs the four telemetry rules that trip ≈ 1 % of samples; they
    /// cannot be removed again, so only `fault_storm` itself asks for them.
    pub fn setup(s: &mut Session, seed: u64, thresholds: bool) -> io::Result<Storm> {
        let ofmf = Arc::clone(&s.rig.ofmf);
        let fabrics = ["CXL0", "NVME0", "IB0"].map(|f| ODataId::new(top::FABRICS).child(f));
        let mut local = Vec::with_capacity(STORM_LOCAL_SUBS);
        for i in 0..STORM_LOCAL_SUBS {
            let types = match i {
                0 => vec![],
                1 => vec![EventType::Alert],
                _ => match i % 4 {
                    0 => vec![],
                    1 => vec![EventType::Alert],
                    2 => vec![EventType::StatusChange],
                    _ => vec![EventType::Alert, EventType::StatusChange, EventType::ResourceUpdated],
                },
            };
            let origins = match i {
                0 | 1 => vec![],
                _ => match (i / 4) % 4 {
                    0 => vec![],
                    f => vec![fabrics[f - 1].clone()],
                },
            };
            let sub = ofmf
                .events
                .subscribe(&ofmf.registry, &format!("bench://local/{i}"), types, origins)
                .map_err(|e| io::Error::other(format!("subscribe: {e}")))?;
            local.push(sub);
        }
        let mut rest = [String::new(), String::new()];
        for (i, body) in [
            "{\"Destination\":\"rest-poll://wildcard\"}",
            "{\"Destination\":\"rest-poll://alerts\",\"EventTypes\":[\"Alert\"]}",
        ]
        .iter()
        .enumerate()
        {
            let mut req = Vec::new();
            encode_request(&mut req, "POST", top::SUBSCRIPTIONS, &s.token, body.as_bytes());
            let location = s.conns[0].round_trip(&req, |sp, f| {
                (f.status == 201)
                    .then(|| crate::wire::header(sp.bytes(f.head), "location").map(|l| l.to_vec()))
                    .flatten()
            })?;
            let location = location.ok_or_else(|| io::Error::other("REST subscribe refused"))?;
            rest[i] = String::from_utf8_lossy(&location).into_owned();
        }
        let drain = [0, 1].map(|i| {
            let mut req = Vec::new();
            encode_request(&mut req, "GET", &format!("{}/Events", rest[i]), &s.token, b"");
            req
        });
        if thresholds {
            // Healthy switches read 52–58 °C, CXL trunks 0–512 Gbit/s, GPUs
            // 165–300 W. The first rule trips about a fifth of the 54 switch
            // samples of a tick, the others the top 1 % of their population:
            // ≈ 12 alerts per tick, ≈ 1 % of its ≈ 1 100 samples.
            for (metric, upper, severity) in [
                ("TemperatureCelsius", 56.7, "Warning"),
                ("TemperatureCelsius", 57.94, "Critical"),
                ("RxBandwidthGbps", 506.88, "Warning"),
                ("PowerConsumedWatts", 298.65, "Warning"),
            ] {
                ofmf.telemetry.add_threshold(Threshold {
                    metric_id: metric.to_string(),
                    upper,
                    severity: severity.to_string(),
                });
            }
        }
        let trunks: Vec<Vec<LinkId>> = s
            .rig
            .agents
            .iter()
            .map(|a| {
                a.with_sim(|sim| {
                    sim.topology()
                        .links
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| matches!((l.a, l.b), (Attach::Switch(_), Attach::Switch(_))))
                        .map(|(i, _)| LinkId(i as u32))
                        .collect()
                })
            })
            .collect();
        let faults = FaultGen::new(seed, trunks.iter().map(Vec::len).collect());
        // Whatever was published before this point is not a tick's event.
        let mut storm = Storm {
            faults,
            trunks,
            local,
            rest,
            drain,
            injected: 0,
            rerouted: 0,
        };
        storm.drain_all(s)?;
        Ok(storm)
    }

    /// Drain both REST subscribers and every in-process one; returns the
    /// envelope counts `(rest wildcard, rest alerts, local wildcard, local
    /// alerts)`.
    fn drain_all(&mut self, s: &mut Session) -> io::Result<(usize, usize, usize, usize)> {
        let mut rest = [0usize; 2];
        for (i, n) in rest.iter_mut().enumerate() {
            *n = s.conns[0].round_trip(&self.drain[i], |sp, f| count_events(sp.bytes(f.body), f.status))?;
        }
        let local: Vec<usize> = self.local.iter().map(|(_, rx)| envelopes(rx)).collect();
        Ok((rest[0], rest[1], local[0], local[1]))
    }

    /// One tick: flap one trunk per fabric, poll, read the events.
    pub fn tick(&mut self, s: &mut Session) -> io::Result<()> {
        let flaps = self.faults.tick();
        let t0 = Instant::now();
        let mut expected = 0usize;
        let mut lost = 0usize;
        let (mut injected, mut rerouted) = (0u64, 0u64);
        for (f, flap) in flaps.iter().enumerate() {
            let agent = &s.rig.agents[f];
            let mut inject = |fault: Fault| {
                let (failed_over, gone) = s.span("fabric.inject", || agent.inject_fault(fault));
                expected += 1 + failed_over + gone;
                lost += gone;
                injected += 1;
                rerouted += failed_over as u64;
            };
            if let Some(up) = flap.up {
                inject(Fault::LinkUp(self.trunks[f][up]));
            }
            inject(Fault::LinkDown(self.trunks[f][flap.down]));
        }
        self.injected += injected;
        self.rerouted += rerouted;
        let processed = s.span("core.ofmf.poll", || s.rig.ofmf.poll());
        let wild = s.conns[0].round_trip(&self.drain[0], |sp, f| count_events(sp.bytes(f.body), f.status))?;
        s.lat.delivery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let alerts = s.conns[0].round_trip(&self.drain[1], |sp, f| count_events(sp.bytes(f.body), f.status))?;
        let local: Vec<usize> = self.local.iter().map(|(_, rx)| envelopes(rx)).collect();
        let outcome = if lost > 0 {
            Err(format!("{lost} connection(s) lost to a single trunk flap"))
        } else if processed != expected {
            Err(format!("poll processed {processed} agent events, injected {expected}"))
        } else if wild != local[0] || alerts != local[1] || wild < expected {
            Err(format!(
                "REST subscribers saw {wild}/{alerts} batches, in-process mirrors {}/{}, injected {expected}",
                local[0], local[1]
            ))
        } else {
            Ok(())
        };
        s.tally.record(outcome);
        Ok(())
    }

    /// `(faults injected, connections re-routed)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.injected, self.rerouted)
    }

    /// Bring every downed trunk back and forward the repair events.
    pub fn heal(&mut self, s: &mut Session) -> io::Result<()> {
        for (f, down) in self.faults.down().to_vec().into_iter().enumerate() {
            if let Some(d) = down {
                s.rig.agents[f].inject_fault(Fault::LinkUp(self.trunks[f][d]));
            }
        }
        s.rig.ofmf.poll();
        self.drain_all(s).map(|_| ())
    }

    /// Heal, then remove every subscription this storm created.
    pub fn teardown(mut self, s: &mut Session) -> io::Result<()> {
        self.heal(s)?;
        for id in &self.rest {
            let mut req = Vec::new();
            encode_request(&mut req, "DELETE", id, &s.token, b"");
            let status = s.conns[0].round_trip(&req, |_, f| f.status)?;
            if status != 204 {
                return Err(io::Error::other(format!("unsubscribe {id}: {status}")));
            }
        }
        for (id, _) in &self.local {
            s.rig
                .ofmf
                .events
                .unsubscribe(&s.rig.ofmf.registry, id)
                .map_err(|e| io::Error::other(format!("unsubscribe {id}: {e}")))?;
        }
        Ok(())
    }
}

/// Parse a subscription drain; the number of event batches it carried, or
/// `usize::MAX` for anything that is not a well-formed 200.
fn count_events(body: &[u8], status: u16) -> usize {
    if status != 200 {
        return usize::MAX;
    }
    let Ok(doc) = serde_json::from_slice::<Value>(body) else {
        return usize::MAX;
    };
    let listed = doc.get("Events").and_then(Value::as_array).map_or(0, Vec::len);
    match doc.get("Count").and_then(Value::as_u64) {
        Some(n) if n as usize == listed => listed,
        _ => usize::MAX,
    }
}

/// `fault_storm`: harness-driven polls, no poll thread.
pub struct StormLoad {
    storm: Storm,
    systems: Vec<String>,
}

impl StormLoad {
    /// Pre-compose [`STORM_SYSTEMS`] systems, subscribe, install thresholds.
    pub fn new(seed: u64, s: &mut Session) -> io::Result<Self> {
        let mut jobs = JobGen::new(seed, "storm", STORM_SYSTEMS, &s.token);
        let before = s.lat.compose_ms.len();
        for _ in 0..STORM_SYSTEMS {
            s.cycle(&mut jobs)?;
        }
        s.lat.compose_ms.truncate(before);
        let storm = Storm::setup(s, seed, true)?;
        Ok(StormLoad {
            storm,
            systems: jobs.live_systems(),
        })
    }
}

impl Load for StormLoad {
    fn run(&mut self, s: &mut Session, ops: usize) -> io::Result<Segment> {
        let t0 = Instant::now();
        for _ in 0..ops {
            self.storm.tick(s)?;
        }
        Ok(Segment {
            ops: ops as u64,
            seconds: t0.elapsed().as_secs_f64(),
        })
    }

    fn unit(&self) -> usize {
        16
    }

    fn tail(&self) -> usize {
        16
    }

    fn after_probe(&mut self, s: &mut Session) -> io::Result<()> {
        self.storm.drain_all(s).map(|_| ())
    }

    fn ledger(&self) -> Ledger {
        Ledger {
            systems: self.systems.clone(),
            ..Ledger::default()
        }
    }

    fn replay(&mut self, s: &mut Session, t: &Tracer, ops: usize) -> io::Result<Replayed> {
        // A tick has no request to serve in-process: it is replayed as it
        // runs, with the injections and the poll under its root span and
        // the two REST drains left in the root's self time.
        for i in 0..ops {
            t.begin_trace(i as u64);
            t.enter("op.fault_tick", || self.storm.tick(s)).0?;
        }
        Ok(Replayed {
            ops: ops as u64,
            bytes_out: 0,
        })
    }

    fn fault_counts(&self) -> Option<(u64, u64)> {
        Some(self.storm.counts())
    }
}

/// Warm up for `warm_s` and return the rate seen (operations per second
/// of wire time), from which the caller sizes its equal-work segments.
pub fn calibrate(s: &mut Session, load: &mut dyn Load, warm_s: f64) -> io::Result<f64> {
    let unit = load.unit();
    let started = Instant::now();
    let (mut ops, mut busy) = (0u64, 0f64);
    let mut chunk = unit;
    while started.elapsed().as_secs_f64() < warm_s {
        let seg = load.run(s, chunk)?;
        // The first chunk pays for cold caches and connection ramp-up.
        if chunk > unit {
            ops += seg.ops;
            busy += seg.seconds;
        }
        chunk = (chunk * 2).min(unit * 64);
    }
    Ok(if busy > 0.0 {
        ops as f64 / busy
    } else {
        unit as f64 / warm_s.max(1e-3)
    })
}
