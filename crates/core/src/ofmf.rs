//! The [`Ofmf`] facade: the central manager clients and the Composability
//! Layer program against.
//!
//! Owns the unified Redfish tree and all services; routes north-bound
//! requests (GET/POST/PATCH/DELETE on tree paths) and forwards fabric
//! mutations to the responsible Agent. Implements the agent lifecycle:
//! registration (discover + mount), heartbeat-based liveness, event and
//! telemetry forwarding, and unregistration (unmount).

use crate::agent::{op_from_value, op_to_value, Agent, AgentInfo, AgentOp, AgentResponse};
use crate::clock::Clock;
use crate::events::EventService;
use crate::sessions::SessionService;
use crate::supervisor::{self, AgentSupervisor, BreakerState, SupervisorConfig};
use crate::telemetry::TelemetryService;
use crate::tree;
use ofmf_wal::{Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use redfish_model::odata::{ETag, ODataId};
use redfish_model::path::{fabric_id_of, top};
use redfish_model::resources::events::EventType;
use redfish_model::{RedfishError, RedfishResult, Registry, StoredResource};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Heartbeats an agent may miss before being declared down.
pub const MAX_MISSED_HEARTBEATS: u32 = 3;

struct TreeOpMetrics {
    /// `ofmf.tree.<op>.latency_ns`
    get: Arc<ofmf_obs::Histogram>,
    patch: Arc<ofmf_obs::Histogram>,
    post: Arc<ofmf_obs::Histogram>,
    delete: Arc<ofmf_obs::Histogram>,
}

fn tree_metrics() -> &'static TreeOpMetrics {
    static METRICS: std::sync::OnceLock<TreeOpMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| TreeOpMetrics {
        get: ofmf_obs::histogram("ofmf.tree.get.latency_ns"),
        patch: ofmf_obs::histogram("ofmf.tree.patch.latency_ns"),
        post: ofmf_obs::histogram("ofmf.tree.post.latency_ns"),
        delete: ofmf_obs::histogram("ofmf.tree.delete.latency_ns"),
    })
}

struct AgentEntry {
    agent: Arc<dyn Agent>,
    info: AgentInfo,
    alive: bool,
    missed: u32,
    /// The resilience layer every op to this agent goes through.
    supervisor: Arc<AgentSupervisor>,
    /// Every id the agent mounted at registration — the subtree degraded to
    /// `Health=Critical` while the agent is down (including devices mounted
    /// outside `/Fabrics/{id}`, e.g. under `/Systems` or `/Chassis`).
    mounted: Vec<ODataId>,
}

/// The OpenFabrics Management Framework.
pub struct Ofmf {
    /// The unified Redfish tree.
    pub registry: Arc<Registry>,
    /// The service clock.
    pub clock: Arc<Clock>,
    /// Event service.
    pub events: Arc<EventService>,
    /// Telemetry service.
    pub telemetry: Arc<TelemetryService>,
    /// Session service.
    pub sessions: Arc<SessionService>,
    agents: RwLock<HashMap<String, AgentEntry>>,
    member_seq: AtomicU64,
    seed: u64,
    sup_cfg: SupervisorConfig,
    /// The durability write-ahead log, when this OFMF was booted with one.
    wal: Option<Arc<Wal>>,
    /// Whether this boot replayed state from a WAL (vs a fresh bootstrap).
    recovered: bool,
    /// Composition records replayed from the WAL, awaiting the Composability
    /// Layer's [`reconciliation`](Ofmf::take_recovered_compose).
    recovered_compose: Mutex<Vec<WalRecord>>,
    /// Teardown ops replayed from the WAL for fabrics whose agents have not
    /// re-registered yet; handed to each agent's supervisor on registration.
    recovered_teardowns: Mutex<HashMap<String, Vec<AgentOp>>>,
    /// The layer that owns compositions, once attached.
    compositions: RwLock<Option<Weak<dyn Compositions>>>,
    /// Clock reading at the last journaled `ClockMark` (rate limit).
    last_clock_mark: AtomicU64,
}

/// The layer above that owns compositions (the composer), as the OFMF sees
/// it; see [`Ofmf::attach_compositions`].
pub trait Compositions: Send + Sync {
    /// One record per live composition, for a WAL snapshot.
    fn snapshot_records(&self) -> Vec<WalRecord>;
    /// The repair pass; returns `(repaired, still_lost)` binding counts.
    fn reconcile(&self) -> (usize, usize);
    /// Tear down the composition whose system document is `system`;
    /// `NotFound` when `system` is not a live composition. Deletes the
    /// document itself, through the registry rather than [`Ofmf::delete`].
    fn decompose(&self, system: &ODataId) -> RedfishResult<()>;
}

/// Live-log size past which [`Ofmf::poll`] writes a compacting snapshot.
pub const WAL_SNAPSHOT_THRESHOLD_BYTES: u64 = 4 * 1024 * 1024;

impl Ofmf {
    /// Boot an OFMF: bootstrap the tree and wire the services together.
    ///
    /// `credentials` is the username→password table for the session service.
    pub fn new(uuid: &str, credentials: HashMap<String, String>, seed: u64) -> Arc<Self> {
        let clock = Arc::new(Clock::manual());
        Self::with_clock(uuid, credentials, seed, clock)
    }

    /// Boot with a wall-driven clock (servers).
    pub fn new_wall(uuid: &str, credentials: HashMap<String, String>, seed: u64) -> Arc<Self> {
        Self::with_clock(uuid, credentials, seed, Arc::new(Clock::wall()))
    }

    /// Boot with an explicit supervisor policy (chaos suites shrink the
    /// cooldown/retry budget to keep scenarios short).
    pub fn new_with_supervisor(
        uuid: &str,
        credentials: HashMap<String, String>,
        seed: u64,
        sup_cfg: SupervisorConfig,
    ) -> Arc<Self> {
        let mut o = Self::with_clock(uuid, credentials, seed, Arc::new(Clock::manual()));
        // Fresh Arc, no other handles yet: safe to adjust the policy.
        if let Some(inner) = Arc::get_mut(&mut o) {
            inner.sup_cfg = sup_cfg;
        }
        o
    }

    /// Boot against a durability journal (manual clock). An empty journal
    /// behaves exactly like [`Ofmf::new`] except every control-plane
    /// mutation is journaled; a non-empty one is replayed: the tree,
    /// sessions, subscriptions, clock baseline, and pending teardowns all
    /// resume where the previous process stopped. Call
    /// [`Ofmf::finish_recovery`] after re-registering agents.
    pub fn with_wal(
        uuid: &str,
        credentials: HashMap<String, String>,
        seed: u64,
        wal: Arc<Wal>,
    ) -> std::io::Result<Arc<Self>> {
        Self::boot(uuid, credentials, seed, Arc::new(Clock::manual()), Some(wal))
    }

    /// [`Ofmf::with_wal`] with an explicit clock (wall-driven for daemons).
    pub fn with_wal_clock(
        uuid: &str,
        credentials: HashMap<String, String>,
        seed: u64,
        wal: Arc<Wal>,
        clock: Arc<Clock>,
    ) -> std::io::Result<Arc<Self>> {
        Self::boot(uuid, credentials, seed, clock, Some(wal))
    }

    fn with_clock(uuid: &str, credentials: HashMap<String, String>, seed: u64, clock: Arc<Clock>) -> Arc<Self> {
        // ofmf-lint: allow(no-panic-path, "without a WAL there is no I/O in the boot path; it cannot fail")
        Self::boot(uuid, credentials, seed, clock, None).expect("boot without a WAL cannot fail")
    }

    fn boot(
        uuid: &str,
        credentials: HashMap<String, String>,
        seed: u64,
        clock: Arc<Clock>,
        wal: Option<Arc<Wal>>,
    ) -> std::io::Result<Arc<Self>> {
        // Every journaling service gets the handle as it is built: replay
        // applies records without journaling them.
        let registry = Arc::new(Registry::new().with_journal(wal.clone()));
        let events = Arc::new(EventService::new(Arc::clone(&clock)).with_journal(wal.clone()));
        let telemetry = Arc::new(TelemetryService::new(Arc::clone(&clock)));
        let sessions = Arc::new(SessionService::new(Arc::clone(&clock), credentials, seed).with_journal(wal.clone()));

        // Replay whatever the journal holds. An empty journal (or no journal
        // at all) falls through to the fresh-bootstrap path.
        let replayed: Option<Vec<WalRecord>> = match &wal {
            Some(w) => {
                let r = w.replay()?;
                (!r.records.is_empty()).then_some(r.records)
            }
            None => None,
        };

        let mut recovered_compose: Vec<WalRecord> = Vec::new();
        let mut recovered_teardowns: HashMap<String, Vec<AgentOp>> = HashMap::new();

        let recovered = replayed.is_some();
        if let Some(records) = replayed {
            // ---- restored boot: each service folds its own records; the
            // clock, the teardown journal and the composer's are folded here
            let mut max_ms = 0u64;
            for rec in &records {
                match rec {
                    WalRecord::ClockMark { now_ms: ms }
                    | WalRecord::SessionLogin { last_used_ms: ms, .. }
                    | WalRecord::SessionTouch { last_used_ms: ms, .. } => max_ms = max_ms.max(*ms),
                    WalRecord::Teardown { fabric, op } => {
                        if let Some(op) = op_from_value(op) {
                            recovered_teardowns.entry(fabric.clone()).or_default().push(op);
                        }
                    }
                    WalRecord::TeardownDrained { fabric } => {
                        recovered_teardowns.remove(fabric);
                    }
                    _ => {}
                }
            }
            // Resume the pre-crash timeline before any service reads the
            // clock, so restored session deadlines stay meaningful.
            clock.resume_from(max_ms);
            sessions.replay(&records);
            events.replay(&records);
            // Last, by value: a registry record's body moves from the parsed
            // frame into the tree, the composer's records to its recovery.
            for rec in records {
                match rec {
                    WalRecord::ComposeIntent { .. }
                    | WalRecord::BindDone { .. }
                    | WalRecord::ComposeCommit { .. }
                    | WalRecord::ComposeAbort { .. }
                    | WalRecord::Decompose { .. }
                    | WalRecord::BindAdded { .. }
                    | WalRecord::ComposeLive { .. } => recovered_compose.push(rec),
                    rec => {
                        registry.apply_record(rec);
                    }
                }
            }
        } else {
            // ---- fresh boot: journaled from the very first create, so the
            // bootstrap itself is replayable ----
            // ofmf-lint: allow(no-panic-path, "bootstrap of an empty registry only inserts fresh ids; Conflict is impossible")
            tree::bootstrap(&registry, uuid).expect("bootstrap on fresh registry cannot fail");
        }

        let member_floor = if recovered { member_seq_floor(&registry) } else { 1 };

        Ok(Arc::new(Ofmf {
            registry,
            clock,
            events,
            telemetry,
            sessions,
            agents: RwLock::new(HashMap::new()),
            member_seq: AtomicU64::new(member_floor),
            seed,
            sup_cfg: SupervisorConfig::default(),
            wal,
            recovered,
            recovered_compose: Mutex::new(recovered_compose),
            recovered_teardowns: Mutex::new(recovered_teardowns),
            compositions: RwLock::new(None),
            last_clock_mark: AtomicU64::new(0),
        }))
    }

    /// Whether this boot replayed state from a WAL.
    pub fn was_recovered(&self) -> bool {
        self.recovered
    }

    /// The attached durability journal, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Append a record to the durability journal, if one is attached.
    /// Infallible: I/O errors are absorbed into `ofmf.wal.errors.total`
    /// (the in-memory mutation the record describes has already happened).
    pub fn wal_record(&self, rec: WalRecord) {
        if let Some(w) = &self.wal {
            w.record(&rec);
        }
    }

    /// Hold a teardown op for replay once its agent is back: in the agent's
    /// supervisor for this process, in the WAL for the next one.
    fn hold_teardown(&self, fabric_id: &str, sup: &AgentSupervisor, op: &AgentOp) {
        sup.journal_teardown(op);
        self.wal_record(teardown_record(fabric_id, op));
    }

    /// Composition records replayed from the WAL, in journal order. The
    /// Composability Layer drains these once on boot to rebuild its state
    /// and compensate half-bound compositions.
    pub fn take_recovered_compose(&self) -> Vec<WalRecord> {
        std::mem::take(&mut *self.recovered_compose.lock())
    }

    /// Attach the layer that owns compositions: its records join every
    /// snapshot, every [`Ofmf::poll`] runs its repair pass, and
    /// [`Ofmf::delete`] of a composed system decomposes it. Held through
    /// a `Weak`, so the OFMF — which that layer owns — never keeps it alive.
    pub fn attach_compositions(&self, layer: Weak<dyn Compositions>) {
        *self.compositions.write() = Some(layer);
    }

    /// The attached composition layer, if it is still alive. The lock guard
    /// is gone when this returns: no OFMF lock is held while the layer runs.
    fn composition_layer(&self) -> Option<Arc<dyn Compositions>> {
        self.compositions.read().as_ref().and_then(Weak::upgrade)
    }

    /// Write a compacted snapshot of the full control-plane state and
    /// truncate the live log. The tree is streamed a batch at a time (see
    /// [`Registry::stream_snapshot`]); the other services' records are few
    /// and follow it. Returns the number of records written (0 without a
    /// WAL).
    pub fn write_snapshot(&self) -> std::io::Result<usize> {
        let Some(w) = &self.wal else { return Ok(0) };
        w.snapshot_with(|out| {
            out.push(&WalRecord::ClockMark {
                now_ms: self.clock.now_ms(),
            });
            self.registry.stream_snapshot(out)?;
            for rec in self.service_snapshot_records() {
                out.push(&rec);
            }
            Ok(())
        })
    }

    /// The snapshot records of everything but the tree.
    fn service_snapshot_records(&self) -> Vec<WalRecord> {
        let mut recs = self.sessions.snapshot_records();
        recs.extend(self.events.snapshot_records());
        // Undrained teardown compensation survives compaction: ops held by
        // live supervisors, plus ops recovered for still-absent agents.
        for (fid, entry) in self.agents.read().iter() {
            let held = entry.supervisor.peek_journal();
            recs.extend(held.iter().map(|op| teardown_record(fid, op)));
        }
        for (fid, ops) in self.recovered_teardowns.lock().iter() {
            recs.extend(ops.iter().map(|op| teardown_record(fid, op)));
        }
        if let Some(layer) = self.composition_layer() {
            recs.extend(layer.snapshot_records());
        }
        // Compose records nobody reconciled yet pass through verbatim.
        recs.extend(self.recovered_compose.lock().iter().cloned());
        recs
    }

    /// Post-replay reconciliation, called after agents have re-registered:
    /// every fabric in the replayed tree whose agent did NOT come back is
    /// degraded (`UnavailableOffline`/`Critical`, the same posture a
    /// heartbeat loss produces) and announced with a Critical alert.
    pub fn finish_recovery(&self) {
        let fabrics_col = ODataId::new(top::FABRICS);
        let Ok(members) = self.registry.members(&fabrics_col) else {
            return;
        };
        let dead: Vec<ODataId> = {
            let agents = self.agents.read();
            members
                .into_iter()
                .filter(|m| {
                    let fid = m.as_str().rsplit('/').next().unwrap_or("");
                    !agents.contains_key(fid)
                })
                .collect()
        };
        for fabric in dead {
            for id in self.registry.ids_under(&fabric) {
                let _ = self.registry.patch(
                    &id,
                    &json!({"Status": {"State": "UnavailableOffline", "Health": "Critical"}}),
                    None,
                );
            }
            self.events.publish(
                EventType::Alert,
                &fabric,
                format!("fabric {} has no agent after recovery; marked unavailable", fabric),
                "Critical",
            );
        }
    }

    /// Does nothing: the event log is written on publish
    /// ([`EventService::log`]). Kept callable only because the frozen
    /// harness in `benchmark/src/layers.rs` still calls it.
    pub fn flush_event_log(&self) {}

    /// Allocate a collection-unique member id (used when clients POST
    /// without an `Id`).
    pub fn next_member_id(&self, prefix: &str) -> String {
        format!("{prefix}{}", self.member_seq.fetch_add(1, Ordering::AcqRel))
    }

    // ---------------------------------------------------------------- agents

    /// Register an agent: discover its inventory, mount it into the tree,
    /// and announce the new fabric. Fails if the fabric id is taken.
    pub fn register_agent(&self, agent: Arc<dyn Agent>) -> RedfishResult<AgentInfo> {
        let info = agent.info();
        {
            let agents = self.agents.read();
            if agents.contains_key(&info.fabric_id) {
                return Err(RedfishError::AlreadyExists(
                    ODataId::new(top::FABRICS).child(&info.fabric_id),
                ));
            }
        }
        let inventory = catch_unwind(AssertUnwindSafe(|| agent.discover())).map_err(|_| {
            RedfishError::AgentUnavailable(format!("agent for fabric {} panicked during discovery", info.fabric_id))
        })?;
        tree::mount_subtree(&self.registry, &inventory)?;
        let mounted: Vec<ODataId> = inventory.iter().map(|(id, _)| id.clone()).collect();
        let sup = Arc::new(AgentSupervisor::new(
            &info.fabric_id,
            Arc::clone(&self.clock),
            self.sup_cfg,
            supervisor::derive_seed(self.seed, &info.fabric_id),
        ));
        self.agents.write().insert(
            info.fabric_id.clone(),
            AgentEntry {
                agent,
                info: info.clone(),
                alive: true,
                missed: 0,
                supervisor: sup,
                mounted,
            },
        );
        self.events.publish(
            EventType::ResourceAdded,
            &ODataId::new(top::FABRICS).child(&info.fabric_id),
            format!("fabric {} registered ({})", info.fabric_id, info.technology),
            "OK",
        );
        // Teardown compensation recovered from the WAL for this fabric:
        // hand it to the fresh supervisor and replay it against the
        // newly-registered (live) agent right away.
        let pending = self.recovered_teardowns.lock().remove(&info.fabric_id);
        if let Some(ops) = pending {
            let handles = {
                let agents = self.agents.read();
                agents
                    .get(&info.fabric_id)
                    .map(|e| (Arc::clone(&e.agent), Arc::clone(&e.supervisor)))
            };
            if let Some((agent, sup)) = handles {
                for op in &ops {
                    sup.journal_teardown(op);
                }
                self.replay_journal(&info.fabric_id, &agent, &sup);
            }
        }
        Ok(info)
    }

    /// Unregister an agent and unmount its subtree.
    pub fn unregister_agent(&self, fabric_id: &str) -> RedfishResult<usize> {
        let removed = self.agents.write().remove(fabric_id);
        if removed.is_none() {
            return Err(RedfishError::NotFound(ODataId::new(top::FABRICS).child(fabric_id)));
        }
        let n = tree::unmount_fabric(&self.registry, fabric_id);
        self.events.publish(
            EventType::ResourceRemoved,
            &ODataId::new(top::FABRICS).child(fabric_id),
            format!("fabric {fabric_id} unregistered"),
            "OK",
        );
        Ok(n)
    }

    /// Registered fabric ids.
    pub fn fabric_ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.agents.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Identity of every registered agent, sorted by fabric id.
    pub fn agent_infos(&self) -> Vec<AgentInfo> {
        let mut v: Vec<AgentInfo> = self.agents.read().values().map(|e| e.info.clone()).collect();
        v.sort_by(|a, b| a.fabric_id.cmp(&b.fabric_id));
        v
    }

    /// Whether an agent is currently considered alive.
    pub fn agent_alive(&self, fabric_id: &str) -> bool {
        self.agents.read().get(fabric_id).is_some_and(|e| e.alive)
    }

    /// Forward an operation to the agent owning `fabric_id` through its
    /// supervisor (breaker admission, bounded retry, panic containment),
    /// then commit the response (upserts/removals) to the tree and announce
    /// changes.
    ///
    /// While the agent is down, teardown ops (`DeleteZone`/`Disconnect`)
    /// are journaled for replay on recovery before the error is returned,
    /// so compensation work is never lost.
    pub fn apply(&self, fabric_id: &str, op: &AgentOp) -> RedfishResult<AgentResponse> {
        let (agent, sup, alive) = {
            let agents = self.agents.read();
            let entry = agents
                .get(fabric_id)
                .ok_or_else(|| RedfishError::NotFound(ODataId::new(top::FABRICS).child(fabric_id)))?;
            (Arc::clone(&entry.agent), Arc::clone(&entry.supervisor), entry.alive)
        };
        if !alive {
            if supervisor::is_teardown(op) {
                self.hold_teardown(fabric_id, &sup, op);
            }
            return Err(sup.circuit_open_error());
        }
        // Never hold the agents lock across the agent call.
        let result = sup.dispatch(&agent, op);
        self.publish_breaker_transitions(fabric_id, &sup);
        match result {
            Ok(resp) => {
                self.commit_response(&resp)?;
                Ok(resp)
            }
            Err(e) => {
                if supervisor::is_teardown(op)
                    && matches!(e, RedfishError::AgentUnavailable(_) | RedfishError::CircuitOpen { .. })
                {
                    self.hold_teardown(fabric_id, &sup, op);
                }
                Err(e)
            }
        }
    }

    /// Forward many operations concurrently, one result per input op in
    /// input order. Each op still goes through [`Ofmf::apply`] — per-agent
    /// supervisor admission, retries, breakers and deadlines all apply
    /// unchanged — but ops to *different* agents overlap in time, which is
    /// what makes batched route probing across 1k fabrics tractable.
    ///
    /// Work is distributed over scoped threads (capped at the host's
    /// parallelism, max 16) via an atomic work-stealing index, so results
    /// are deterministic in content and order regardless of interleaving.
    pub fn apply_parallel(&self, ops: &[(String, AgentOp)]) -> Vec<RedfishResult<AgentResponse>> {
        if ops.len() <= 1 {
            return ops.iter().map(|(f, op)| self.apply(f, op)).collect();
        }
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(ops.len())
            .min(16);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut collected: Vec<Vec<(usize, RedfishResult<AgentResponse>)>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= ops.len() {
                                break;
                            }
                            // ofmf-lint: allow(no-panic-path, "the break above guarantees i < ops.len()")
                            let (fabric, op) = &ops[i];
                            out.push((i, self.apply(fabric, op)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                if let Ok(part) = h.join() {
                    collected.push(part);
                }
            }
        });
        let mut results: Vec<Option<RedfishResult<AgentResponse>>> = (0..ops.len()).map(|_| None).collect();
        for (i, r) in collected.into_iter().flatten() {
            // ofmf-lint: allow(no-panic-path, "workers only emit i < ops.len(), and results was sized to ops.len()")
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(RedfishError::Internal("parallel dispatch worker died".to_string()))))
            .collect()
    }

    /// Breaker state for a fabric's agent, if registered.
    pub fn breaker_state(&self, fabric_id: &str) -> Option<BreakerState> {
        self.agents.read().get(fabric_id).map(|e| e.supervisor.breaker_state())
    }

    /// Full breaker transition log for a fabric's agent (one formatted line
    /// per transition). Two runs with the same seed and schedule produce
    /// identical logs.
    pub fn breaker_log(&self, fabric_id: &str) -> Vec<String> {
        self.agents
            .read()
            .get(fabric_id)
            .map(|e| e.supervisor.transition_log())
            .unwrap_or_default()
    }

    /// Teardown ops journaled for a fabric, awaiting replay on recovery.
    pub fn journal_len(&self, fabric_id: &str) -> usize {
        self.agents
            .read()
            .get(fabric_id)
            .map(|e| e.supervisor.journal_len())
            .unwrap_or(0)
    }

    fn publish_breaker_transitions(&self, fabric_id: &str, sup: &AgentSupervisor) {
        let fabric = ODataId::new(top::FABRICS).child(fabric_id);
        for t in sup.take_pending_transitions() {
            let severity = if t.to == BreakerState::Open { "Critical" } else { "OK" };
            self.events.publish(
                EventType::StatusChange,
                &fabric,
                format!("fabric {fabric_id} circuit breaker: {t}"),
                severity,
            );
        }
    }

    fn commit_response(&self, resp: &AgentResponse) -> RedfishResult<()> {
        if !resp.upserts.is_empty() {
            tree::mount_subtree(&self.registry, &resp.upserts)?;
            for (id, _) in &resp.upserts {
                self.events
                    .publish(EventType::ResourceUpdated, id, "resource updated by agent", "OK");
            }
        }
        for id in &resp.removals {
            self.registry.delete_subtree(id);
            self.events
                .publish(EventType::ResourceRemoved, id, "resource removed by agent", "OK");
        }
        Ok(())
    }

    /// One poll cycle: heartbeat every agent, drain agent events into the
    /// tree + event service, ingest telemetry, and run the attached
    /// composition layer's repair pass. Returns the number of agent events
    /// processed.
    pub fn poll(&self) -> usize {
        let snapshot: Vec<(String, Arc<dyn Agent>)> = self
            .agents
            .read()
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(&e.agent)))
            .collect();

        let mut processed = 0;
        for (fabric_id, agent) in snapshot {
            let beat = catch_unwind(AssertUnwindSafe(|| agent.heartbeat())).unwrap_or(false);
            if !beat {
                self.record_missed_heartbeat(&fabric_id);
                continue;
            }
            self.record_heartbeat_ok(&fabric_id);

            let events = catch_unwind(AssertUnwindSafe(|| agent.drain_events())).unwrap_or_default();
            // Coalesce adjacent events sharing (type, origin) into one
            // fan-out: chatty agents (N link flaps on one port) cost one
            // publish instead of N.
            let mut pending: Option<(EventType, ODataId, Vec<_>)> = None;
            for ev in events {
                processed += 1;
                for (id, patch) in &ev.patches {
                    let _ = self.registry.patch(id, patch, None);
                }
                for id in &ev.removals {
                    self.registry.delete_subtree(id);
                }
                let rec = self
                    .events
                    .record(ev.event_type, &ev.origin, ev.message.clone(), &ev.severity);
                match &mut pending {
                    Some((t, o, recs)) if *t == ev.event_type && *o == ev.origin => recs.push(rec),
                    _ => {
                        if let Some((t, o, recs)) = pending.take() {
                            self.events.publish_batch(t, &o, recs);
                        }
                        pending = Some((ev.event_type, ev.origin.clone(), vec![rec]));
                    }
                }
            }
            if let Some((t, o, recs)) = pending.take() {
                self.events.publish_batch(t, &o, recs);
            }

            let metrics = catch_unwind(AssertUnwindSafe(|| agent.sample_telemetry())).unwrap_or_default();
            if !metrics.is_empty() {
                self.telemetry.ingest(&metrics, &self.events);
            }
        }
        if let Some(layer) = self.composition_layer() {
            layer.reconcile();
        }
        self.sessions.sweep_expired(&self.registry);
        if let Some(w) = &self.wal {
            // Stamp the clock about once a second of service time, so a
            // crash replays to within a second of the pre-crash timeline.
            let now = self.clock.now_ms();
            let last = self.last_clock_mark.load(Ordering::Acquire);
            if now.saturating_sub(last) >= 1000
                && self
                    .last_clock_mark
                    .compare_exchange(last, now, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                w.record(&WalRecord::ClockMark { now_ms: now });
            }
            if w.log_bytes() > WAL_SNAPSHOT_THRESHOLD_BYTES {
                let _ = self.write_snapshot();
            }
        }
        processed
    }

    fn record_missed_heartbeat(&self, fabric_id: &str) {
        let (sup, mounted, shared, died) = {
            let mut agents = self.agents.write();
            let Some(entry) = agents.get_mut(fabric_id) else { return };
            entry.missed += 1;
            let died = entry.alive && entry.missed >= MAX_MISSED_HEARTBEATS;
            if died {
                entry.alive = false;
            }
            let sup = Arc::clone(&entry.supervisor);
            let mounted = entry.mounted.clone();
            // Resources other agents also mounted (e.g. shared compute
            // nodes) are not ours alone to degrade.
            let shared: std::collections::HashSet<ODataId> = if died {
                agents
                    .iter()
                    .filter(|(fid, _)| fid.as_str() != fabric_id)
                    .flat_map(|(_, e)| e.mounted.iter().cloned())
                    .collect()
            } else {
                Default::default()
            };
            (sup, mounted, shared, died)
        };
        if died {
            sup.force_open();
        } else {
            sup.on_heartbeat_missed();
        }
        self.publish_breaker_transitions(fabric_id, &sup);
        if died {
            self.degrade_subtree(fabric_id, &sup, &mounted, &shared);
            self.events.publish(
                EventType::Alert,
                &ODataId::new(top::FABRICS).child(fabric_id),
                format!(
                    "agent for fabric {fabric_id} missed {MAX_MISSED_HEARTBEATS} heartbeats; fabric marked unavailable"
                ),
                "Critical",
            );
        }
    }

    fn record_heartbeat_ok(&self, fabric_id: &str) {
        let (agent, sup, recovered) = {
            let mut agents = self.agents.write();
            let Some(entry) = agents.get_mut(fabric_id) else { return };
            entry.missed = 0;
            let recovered = !entry.alive;
            if recovered {
                entry.alive = true;
            }
            (Arc::clone(&entry.agent), Arc::clone(&entry.supervisor), recovered)
        };
        sup.on_heartbeat_ok();
        self.publish_breaker_transitions(fabric_id, &sup);
        if recovered {
            self.restore_subtree(fabric_id, &sup);
            self.replay_journal(fabric_id, &agent, &sup);
            self.events.publish(
                EventType::StatusChange,
                &ODataId::new(top::FABRICS).child(fabric_id),
                format!("agent for fabric {fabric_id} recovered"),
                "OK",
            );
        }
    }

    /// Degraded mode: mark everything the dead agent mounted
    /// `Health=Critical`/`State=UnavailableOffline`, remembering each
    /// resource's prior `Status` so recovery restores it verbatim. Documents
    /// are never deleted — reads keep serving last-known-good state.
    fn degrade_subtree(
        &self,
        fabric_id: &str,
        sup: &AgentSupervisor,
        mounted: &[ODataId],
        shared: &std::collections::HashSet<ODataId>,
    ) {
        let fabric = ODataId::new(top::FABRICS).child(fabric_id);
        let mut ids = self.registry.ids_under(&fabric);
        for id in mounted {
            if !id.as_str().starts_with(fabric.as_str()) && !shared.contains(id) && self.registry.exists(id) {
                ids.push(id.clone());
            }
        }
        let mut prior = Vec::with_capacity(ids.len());
        for id in ids {
            let status = |s: &StoredResource| s.body.get("Status").cloned().unwrap_or(Value::Null);
            let Ok(status) = self.registry.read(&id, status) else {
                continue;
            };
            prior.push((id.clone(), status));
            let _ = self.registry.patch(
                &id,
                &json!({"Status": {"State": "UnavailableOffline", "Health": "Critical"}}),
                None,
            );
        }
        sup.set_degraded(prior);
    }

    /// Undo [`Ofmf::degrade_subtree`]: put back the exact pre-outage
    /// `Status` of every surviving resource (a `null` prior removes the key
    /// per RFC 7386 merge semantics).
    fn restore_subtree(&self, fabric_id: &str, sup: &AgentSupervisor) {
        for (id, prior_status) in sup.take_degraded() {
            if !self.registry.exists(&id) {
                continue;
            }
            let _ = self.registry.patch(&id, &json!({ "Status": prior_status }), None);
        }
        // The fabric root always comes back healthy — the agent just
        // heartbeated.
        let fabric = ODataId::new(top::FABRICS).child(fabric_id);
        let _ = self
            .registry
            .patch(&fabric, &json!({"Status": {"State": "Enabled", "Health": "OK"}}), None);
    }

    /// Replay teardown ops that failed while the agent was down. Ops that
    /// still fail are re-journaled for the next recovery.
    fn replay_journal(&self, fabric_id: &str, agent: &Arc<dyn Agent>, sup: &AgentSupervisor) {
        let ops = sup.take_journal();
        if !ops.is_empty() {
            // Drained-then-re-journaled ordering: the WAL fold (Teardown
            // appends, Drained clears) reproduces exactly the set that is
            // still pending after this replay.
            self.wal_record(WalRecord::TeardownDrained {
                fabric: fabric_id.to_string(),
            });
        }
        for op in ops {
            match sup.dispatch(agent, &op) {
                Ok(resp) => {
                    sup.count_replayed();
                    let _ = self.commit_response(&resp);
                }
                // The agent already forgot this resource (e.g. it rebooted):
                // drop the op and let the tree-side doc go via removal.
                Err(RedfishError::NotFound(id)) => {
                    self.registry.delete_subtree(&id);
                }
                Err(_) => {
                    self.hold_teardown(fabric_id, sup, &op);
                }
            }
        }
        self.publish_breaker_transitions(fabric_id, sup);
    }

    // ------------------------------------------------------------ north-bound

    /// `GET` a resource: [`Registry::get`]'s document, a collection's
    /// `Members` included, as its wire body with the current ETag.
    pub fn get(&self, path: &ODataId) -> RedfishResult<(Value, ETag)> {
        let _span = ofmf_obs::Trace::begin(&tree_metrics().get);
        let mut tspan = ofmf_obs::child_span("ofmf.tree.get");
        tspan.annotate("path", path.as_str());
        self.registry.get(path).map(|stored| (stored.wire_body(), stored.etag))
    }

    /// `GET` a resource as pre-serialized wire bytes, served from the
    /// registry's ETag-keyed cache when hot. The REST layer sends these
    /// straight to the socket without touching `serde_json`.
    pub fn get_raw(&self, path: &ODataId) -> RedfishResult<(std::sync::Arc<[u8]>, ETag)> {
        let _span = ofmf_obs::Trace::begin(&tree_metrics().get);
        let mut tspan = ofmf_obs::child_span("ofmf.tree.get_raw");
        tspan.annotate("path", path.as_str());
        self.registry.wire_bytes(path)
    }

    /// `PATCH` a resource. Publishes a `ResourceUpdated` event on success.
    pub fn patch(&self, path: &ODataId, body: &Value, if_match: Option<ETag>) -> RedfishResult<ETag> {
        let _span = ofmf_obs::Trace::begin(&tree_metrics().patch);
        let mut tspan = ofmf_obs::child_span("ofmf.tree.patch");
        tspan.annotate("path", path.as_str());
        let etag = self.registry.patch(path, body, if_match)?;
        self.events
            .publish(EventType::ResourceUpdated, path, "resource patched", "OK");
        Ok(etag)
    }

    /// `POST` to a collection. Routes by path:
    ///
    /// * `…/Fabrics/{f}/Zones` → [`AgentOp::CreateZone`]
    /// * `…/Fabrics/{f}/Connections` → [`AgentOp::Connect`]
    /// * anything else → create the document directly (client-owned
    ///   resources, e.g. annotations under Oem).
    ///
    /// Returns the id of the created resource.
    pub fn post(&self, collection: &ODataId, body: &Value) -> RedfishResult<ODataId> {
        let _span = ofmf_obs::Trace::begin(&tree_metrics().post);
        let mut tspan = ofmf_obs::child_span("ofmf.tree.post");
        tspan.annotate("path", collection.as_str());
        let path = collection.as_str();
        if let Some(fid) = fabric_id_of(path) {
            let fid = fid.to_string();
            if path.ends_with("/Zones") {
                return self.post_zone(&fid, collection, body);
            }
            if path.ends_with("/Connections") {
                return self.post_connection(&fid, collection, body);
            }
        }
        let id = body
            .get("Id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| self.next_member_id("res"));
        let rid = collection.child(&id);
        self.registry.create(&rid, body.clone())?;
        self.events
            .publish(EventType::ResourceAdded, &rid, "resource created", "OK");
        Ok(rid)
    }

    fn post_zone(&self, fabric_id: &str, collection: &ODataId, body: &Value) -> RedfishResult<ODataId> {
        let endpoints = links_of(body, "Endpoints")?;
        if endpoints.is_empty() {
            return Err(RedfishError::BadRequest("zone requires Links.Endpoints".into()));
        }
        let zone_id = body
            .get("Id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| self.next_member_id("zone"));
        let op = AgentOp::CreateZone {
            zone_id: zone_id.clone(),
            endpoints,
        };
        let resp = self.apply(fabric_id, &op)?;
        let rid = resp.primary.clone().unwrap_or_else(|| collection.child(&zone_id));
        self.events
            .publish(EventType::ResourceAdded, &rid, "zone created", "OK");
        Ok(rid)
    }

    fn post_connection(&self, fabric_id: &str, collection: &ODataId, body: &Value) -> RedfishResult<ODataId> {
        let initiators = links_of(body, "InitiatorEndpoints")?;
        let targets = links_of(body, "TargetEndpoints")?;
        let (Some(initiator), Some(target)) = (initiators.first(), targets.first()) else {
            return Err(RedfishError::BadRequest(
                "connection requires Links.InitiatorEndpoints and Links.TargetEndpoints".into(),
            ));
        };
        let zone = body
            .get("Zone")
            .and_then(|z| z.get("@odata.id"))
            .and_then(Value::as_str)
            .map(ODataId::new)
            .ok_or_else(|| RedfishError::BadRequest("connection requires a Zone link".into()))?;
        let size = body.get("Size").and_then(Value::as_u64).unwrap_or(1);
        let qos_gbps = body.get("BandwidthGbps").and_then(Value::as_f64).unwrap_or(0.0);
        if qos_gbps < 0.0 {
            return Err(RedfishError::BadRequest("BandwidthGbps must be non-negative".into()));
        }
        let connection_id = body
            .get("Id")
            .and_then(Value::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| self.next_member_id("conn"));
        let op = AgentOp::Connect {
            connection_id: connection_id.clone(),
            zone,
            initiator: initiator.clone(),
            target: target.clone(),
            size,
            qos_gbps,
        };
        let resp = self.apply(fabric_id, &op)?;
        let rid = resp.primary.clone().unwrap_or_else(|| collection.child(&connection_id));
        self.events
            .publish(EventType::ResourceAdded, &rid, "connection established", "OK");
        Ok(rid)
    }

    /// Invoke the `ComputerSystem.Reset` action on a system: maps the
    /// requested `ResetType` onto a `PowerState` transition and announces
    /// the change. (On real hardware the responsible agent would drive the
    /// BMC; the emulator transitions the resource directly.)
    pub fn reset_system(&self, system: &ODataId, reset_type: &str) -> RedfishResult<()> {
        let is_system = |s: &StoredResource| s.odata_type().is_some_and(|t| t.starts_with("#ComputerSystem."));
        if !self.registry.read(system, is_system)? {
            return Err(RedfishError::MethodNotAllowed(format!(
                "{system} is not a ComputerSystem"
            )));
        }
        let new_state = match reset_type {
            "On" => "On",
            "GracefulShutdown" | "ForceOff" => "Off",
            "GracefulRestart" | "ForceRestart" | "PowerCycle" => "On",
            "Nmi" => {
                // Diagnostic interrupt: state unchanged, event only.
                self.events
                    .publish(EventType::Alert, system, "NMI delivered".to_string(), "Warning");
                return Ok(());
            }
            other => return Err(RedfishError::BadRequest(format!("unsupported ResetType '{other}'"))),
        };
        self.registry.patch(system, &json!({"PowerState": new_state}), None)?;
        self.events.publish(
            EventType::StatusChange,
            system,
            format!("system reset ({reset_type}); power state now {new_state}"),
            "OK",
        );
        Ok(())
    }

    /// `DELETE` a resource. Fabric zones/connections route to the agent, a
    /// composed system is decomposed by the attached [`Compositions`] layer,
    /// and anything else deletes from the tree directly.
    pub fn delete(&self, path: &ODataId) -> RedfishResult<()> {
        let _span = ofmf_obs::Trace::begin(&tree_metrics().delete);
        let mut tspan = ofmf_obs::child_span("ofmf.tree.delete");
        tspan.annotate("path", path.as_str());
        if let Some(fid) = fabric_id_of(path.as_str()) {
            let fid = fid.to_string();
            let parent = path.parent();
            let parent_str = parent.as_ref().map(|p| p.as_str()).unwrap_or("");
            if parent_str.ends_with("/Zones") {
                self.apply(&fid, &AgentOp::DeleteZone { zone: path.clone() })?;
                self.events
                    .publish(EventType::ResourceRemoved, path, "zone deleted", "OK");
                return Ok(());
            }
            if parent_str.ends_with("/Connections") {
                self.apply(
                    &fid,
                    &AgentOp::Disconnect {
                        connection: path.clone(),
                    },
                )?;
                self.events
                    .publish(EventType::ResourceRemoved, path, "connection removed", "OK");
                return Ok(());
            }
        }
        // A composed system is torn down by the layer that owns it; any
        // other system falls through to a plain delete.
        if path.as_str().rsplit_once('/').map(|(parent, _)| parent) == Some(top::SYSTEMS) {
            if let Some(layer) = self.composition_layer() {
                match layer.decompose(path) {
                    Err(RedfishError::NotFound(_)) => {}
                    done => return done,
                }
            }
        }
        self.registry.delete(path)?;
        self.events
            .publish(EventType::ResourceRemoved, path, "resource deleted", "OK");
        Ok(())
    }
}

fn teardown_record(fabric_id: &str, op: &AgentOp) -> WalRecord {
    WalRecord::Teardown {
        fabric: fabric_id.to_string(),
        op: op_to_value(op),
    }
}

/// Resume floor for the member-id allocator after replay: one above the
/// highest numeric suffix of any `zone*`/`conn*`/`res*`/`z*`/`c*` member id
/// in the tree, so fresh allocations never collide with replayed resources.
fn member_seq_floor(registry: &Registry) -> u64 {
    let mut max = 0u64;
    registry.for_each(|id, _| {
        let leaf = id.as_str().rsplit('/').next().unwrap_or("");
        // Longest prefixes first: "zone5" must parse as zone+5, not z+"one5".
        for prefix in ["zone", "conn", "res", "z", "c"] {
            if let Some(suffix) = leaf.strip_prefix(prefix) {
                if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                    if let Ok(n) = suffix.parse::<u64>() {
                        max = max.max(n);
                    }
                    break;
                }
            }
        }
    });
    max.saturating_add(1)
}

/// Extract `Links.{key}` (or top-level `{key}`) as a list of ids.
fn links_of(body: &Value, key: &str) -> RedfishResult<Vec<ODataId>> {
    let section = body.get("Links").and_then(|l| l.get(key)).or_else(|| body.get(key));
    let Some(arr) = section else { return Ok(Vec::new()) };
    let arr = arr
        .as_array()
        .ok_or_else(|| RedfishError::BadRequest(format!("{key} must be an array of links")))?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        let id = v
            .get("@odata.id")
            .and_then(Value::as_str)
            .ok_or_else(|| RedfishError::BadRequest(format!("{key} entries must be @odata.id links")))?;
        out.push(ODataId::new(id));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::NullAgent;

    fn ofmf() -> Arc<Ofmf> {
        Ofmf::new("uuid-test", HashMap::new(), 7)
    }

    fn fabric_inventory(fid: &str) -> Vec<(ODataId, Value)> {
        let fabric = ODataId::new(top::FABRICS).child(fid);
        vec![
            (
                fabric.clone(),
                json!({"@odata.type": "#Fabric.v1_3_0.Fabric", "Id": fid, "Name": fid, "Status": {"State": "Enabled", "Health": "OK"}}),
            ),
            (
                fabric.child("Endpoints"),
                json!({"@odata.type": "#EndpointCollection.EndpointCollection", "Name": "Endpoints", "Members": [], "Members@odata.count": 0}),
            ),
            (fabric.child("Endpoints").child("ep0"), json!({"Name": "ep0"})),
            (
                fabric.child("Zones"),
                json!({"@odata.type": "#ZoneCollection.ZoneCollection", "Name": "Zones", "Members": [], "Members@odata.count": 0}),
            ),
        ]
    }

    #[test]
    fn register_mounts_and_announces() {
        let o = ofmf();
        let (_, rx) = o.events.subscribe(&o.registry, "channel://c", vec![], vec![]).unwrap();
        let a = Arc::new(NullAgent::new("NULL0", fabric_inventory("NULL0")));
        o.register_agent(a).unwrap();
        assert!(o
            .registry
            .exists(&ODataId::new("/redfish/v1/Fabrics/NULL0/Endpoints/ep0")));
        assert_eq!(o.fabric_ids(), vec!["NULL0".to_string()]);
        let batch = rx.try_recv().unwrap();
        assert!(batch.events[0].message.contains("registered"));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let o = ofmf();
        o.register_agent(Arc::new(NullAgent::new("F0", vec![]))).unwrap();
        assert!(matches!(
            o.register_agent(Arc::new(NullAgent::new("F0", vec![]))),
            Err(RedfishError::AlreadyExists(_))
        ));
    }

    #[test]
    fn unregister_unmounts() {
        let o = ofmf();
        o.register_agent(Arc::new(NullAgent::new("F0", fabric_inventory("F0"))))
            .unwrap();
        let n = o.unregister_agent("F0").unwrap();
        assert_eq!(n, 4);
        assert!(o.fabric_ids().is_empty());
        assert!(matches!(o.unregister_agent("F0"), Err(RedfishError::NotFound(_))));
    }

    #[test]
    fn post_zone_routes_to_agent() {
        let o = ofmf();
        let agent = Arc::new(NullAgent::new("F0", fabric_inventory("F0")));
        o.register_agent(Arc::clone(&agent) as Arc<dyn Agent>).unwrap();
        let zones = ODataId::new("/redfish/v1/Fabrics/F0/Zones");
        let rid = o
            .post(
                &zones,
                &json!({"Id": "z1", "Links": {"Endpoints": [{"@odata.id": "/redfish/v1/Fabrics/F0/Endpoints/ep0"}]}}),
            )
            .unwrap();
        assert_eq!(rid, zones.child("z1"));
        let ops = agent.applied_ops();
        assert!(
            matches!(&ops[0], AgentOp::CreateZone { zone_id, endpoints } if zone_id == "z1" && endpoints.len() == 1)
        );
    }

    #[test]
    fn post_zone_without_endpoints_is_bad_request() {
        let o = ofmf();
        o.register_agent(Arc::new(NullAgent::new("F0", fabric_inventory("F0"))))
            .unwrap();
        let zones = ODataId::new("/redfish/v1/Fabrics/F0/Zones");
        assert!(matches!(o.post(&zones, &json!({})), Err(RedfishError::BadRequest(_))));
    }

    #[test]
    fn post_connection_routes_to_agent_with_size() {
        let o = ofmf();
        let agent = Arc::new(NullAgent::new("F0", fabric_inventory("F0")));
        o.register_agent(Arc::clone(&agent) as Arc<dyn Agent>).unwrap();
        let cons = ODataId::new("/redfish/v1/Fabrics/F0/Connections");
        let body = json!({
            "Zone": {"@odata.id": "/redfish/v1/Fabrics/F0/Zones/z1"},
            "Size": 4096,
            "Links": {
                "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/F0/Endpoints/ep0"}],
                "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/F0/Endpoints/ep1"}],
            }
        });
        let rid = o.post(&cons, &body).unwrap();
        assert!(rid.as_str().starts_with("/redfish/v1/Fabrics/F0/Connections/"));
        assert!(matches!(&agent.applied_ops()[0], AgentOp::Connect { size: 4096, .. }));
    }

    #[test]
    fn apply_to_unknown_fabric_is_not_found() {
        let o = ofmf();
        assert!(matches!(
            o.apply(
                "NOPE",
                &AgentOp::DeleteZone {
                    zone: ODataId::new("/x")
                }
            ),
            Err(RedfishError::NotFound(_))
        ));
    }

    #[test]
    fn heartbeat_failures_mark_fabric_unavailable_then_recover() {
        struct FlakyAgent {
            ok: std::sync::atomic::AtomicBool,
        }
        impl Agent for FlakyAgent {
            fn info(&self) -> AgentInfo {
                AgentInfo {
                    fabric_id: "FLK0".into(),
                    technology: "CXL".into(),
                    version: "t".into(),
                }
            }
            fn discover(&self) -> Vec<(ODataId, Value)> {
                vec![(
                    ODataId::new("/redfish/v1/Fabrics/FLK0"),
                    json!({"Id": "FLK0", "Name": "FLK0", "Status": {"State": "Enabled", "Health": "OK"}}),
                )]
            }
            fn apply(&self, _op: &AgentOp) -> RedfishResult<AgentResponse> {
                Ok(AgentResponse::default())
            }
            fn drain_events(&self) -> Vec<crate::agent::AgentEvent> {
                Vec::new()
            }
            fn sample_telemetry(&self) -> Vec<crate::agent::AgentMetric> {
                Vec::new()
            }
            fn heartbeat(&self) -> bool {
                self.ok.load(Ordering::Acquire)
            }
        }

        let o = ofmf();
        let flaky = Arc::new(FlakyAgent {
            ok: std::sync::atomic::AtomicBool::new(true),
        });
        o.register_agent(Arc::clone(&flaky) as Arc<dyn Agent>).unwrap();
        assert!(o.agent_alive("FLK0"));

        flaky.ok.store(false, Ordering::Release);
        for _ in 0..MAX_MISSED_HEARTBEATS {
            o.poll();
        }
        assert!(!o.agent_alive("FLK0"));
        let fabric = ODataId::new("/redfish/v1/Fabrics/FLK0");
        assert_eq!(
            o.registry.get(&fabric).unwrap().body["Status"]["State"],
            "UnavailableOffline"
        );
        assert_eq!(o.breaker_state("FLK0"), Some(crate::supervisor::BreakerState::Open));
        // Mutations are refused while down (breaker open, 503 + Retry-After)…
        let err = o
            .apply(
                "FLK0",
                &AgentOp::CreateZone {
                    zone_id: "z9".into(),
                    endpoints: vec![],
                },
            )
            .unwrap_err();
        assert!(matches!(err, RedfishError::CircuitOpen { .. }), "{err}");
        assert_eq!(err.http_status(), 503);
        // …but teardown ops are journaled for replay on recovery.
        let err = o
            .apply(
                "FLK0",
                &AgentOp::DeleteZone {
                    zone: ODataId::new("/x"),
                },
            )
            .unwrap_err();
        assert!(matches!(err, RedfishError::CircuitOpen { .. }));
        assert_eq!(o.journal_len("FLK0"), 1);

        flaky.ok.store(true, Ordering::Release);
        o.poll();
        assert!(o.agent_alive("FLK0"));
        assert_eq!(o.registry.get(&fabric).unwrap().body["Status"]["State"], "Enabled");
        // The journaled teardown was replayed and the breaker re-closed.
        assert_eq!(o.journal_len("FLK0"), 0);
        assert_eq!(o.breaker_state("FLK0"), Some(crate::supervisor::BreakerState::Closed));
        let log = o.breaker_log("FLK0");
        assert!(!log.is_empty() && log.last().unwrap().contains("->Closed"), "{log:?}");
    }

    #[test]
    fn generic_post_and_delete() {
        let o = ofmf();
        let sys = ODataId::new(top::SYSTEMS);
        let rid = o.post(&sys, &json!({"Id": "cn01", "Name": "cn01"})).unwrap();
        assert!(o.registry.exists(&rid));
        o.delete(&rid).unwrap();
        assert!(!o.registry.exists(&rid));
    }

    #[test]
    fn event_log_materializes_and_wraps() {
        use crate::events::EVENT_LOG_CAP;
        let o = ofmf();
        let origin = ODataId::new("/redfish/v1/Fabrics/X");
        // Recorded on publish: no poll, nothing stored in the tree.
        for i in 0..5 {
            o.events
                .publish(EventType::Alert, &origin, format!("alert {i}"), "Warning");
        }
        let log = o.events.log();
        assert_eq!(log.len(), 5);
        assert_eq!(
            (log[0].message.as_str(), log[0].severity.as_str()),
            ("alert 0", "Warning")
        );
        assert!(o
            .registry
            .members(&ODataId::new(top::EVENT_LOG_ENTRIES))
            .unwrap()
            .is_empty());

        // Overflow the cap, starting with one batch of 20: the oldest are
        // evicted (half of the batch with them) and the rest stay in
        // publish order.
        let batch = (0..20)
            .map(|i| {
                o.events
                    .record(EventType::StatusChange, &origin, format!("tick {i}"), "OK")
            })
            .collect();
        o.events.publish_batch(EventType::StatusChange, &origin, batch);
        for i in 20..EVENT_LOG_CAP + 10 {
            o.events
                .publish(EventType::StatusChange, &origin, format!("tick {i}"), "OK");
        }
        let messages: Vec<String> = o.events.log().into_iter().map(|r| r.message).collect();
        let expected: Vec<String> = (10..EVENT_LOG_CAP + 10).map(|i| format!("tick {i}")).collect();
        assert_eq!(messages, expected, "wraps when full");
    }

    #[test]
    fn patch_publishes_event() {
        let o = ofmf();
        let (_, rx) = o
            .events
            .subscribe(&o.registry, "channel://c", vec![EventType::ResourceUpdated], vec![])
            .unwrap();
        let sys = ODataId::new(top::SYSTEMS);
        let rid = o.post(&sys, &json!({"Id": "cn01", "Name": "cn01"})).unwrap();
        o.patch(&rid, &json!({"Name": "renamed"}), None).unwrap();
        assert!(!rx.is_empty());
        let (body, _) = o.get(&rid).unwrap();
        assert_eq!(body["Name"], "renamed");
    }
}
