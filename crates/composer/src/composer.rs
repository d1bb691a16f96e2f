//! The Composability Manager itself: compose / decompose, dynamic
//! reprovisioning and the repair pass that keeps compositions whole.
//!
//! Every binding is materialized as its own zone + connection pair on the
//! owning fabric: the zone scopes visibility to exactly {initiator, target}
//! and the connection carries the capacity carve. One-zone-per-binding keeps
//! grow/shrink/fail-over local — rebinding memory never touches the zones of
//! other bindings.
//!
//! Repair is one loop over one comparison. *Desired* is each live
//! composition's committed bindings (its commit, grow and attach records);
//! *actual* is the tree, which agent responses and events keep current, and
//! a binding whose connection document is gone is lost. Agents are not
//! re-queried: they may restart empty, and would then call every binding
//! lost. [`Composer::reconcile`] moves actual to desired; `Ofmf::poll` runs
//! it once the composer is attached, and [`Composer::recover`] at boot. A
//! failed compose and a half-bound intent found at boot take one abort, and
//! every teardown goes through one unbind.

use crate::inventory::{endpoints_of, Inventory, MemoryPool};
use crate::policy::PolicySet;
use crate::probe::Prober;
use crate::request::{Binding, BindingKind, ComposedSystem, CompositionRequest, Planned};
use crate::strategy::{choose_gpu, choose_memory, choose_storage, Strategy};
use ofmf_core::ofmf::Compositions;
use ofmf_core::Ofmf;
use ofmf_wal::WalRecord;
use parking_lot::Mutex;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::EventType;
use redfish_model::{RedfishError, RedfishResult};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

struct ComposerMetrics {
    /// `ofmf.composer.compose.<strategy>.latency_ns`, indexed by
    /// [`Strategy::index`].
    compose_latency: [Arc<ofmf_obs::Histogram>; 3],
    /// `ofmf.composer.decompose.latency_ns`
    decompose_latency: Arc<ofmf_obs::Histogram>,
    /// `ofmf.composer.composed.total`
    composed: Arc<ofmf_obs::Counter>,
    /// `ofmf.composer.reject.<reason>` — why requests were refused.
    reject_no_node: Arc<ofmf_obs::Counter>,
    reject_memory: Arc<ofmf_obs::Counter>,
    reject_gpu: Arc<ofmf_obs::Counter>,
    reject_storage: Arc<ofmf_obs::Counter>,
    reject_other: Arc<ofmf_obs::Counter>,
}

impl ComposerMetrics {
    fn count_rejection(&self, e: &RedfishError) {
        let c = match e {
            RedfishError::InsufficientResources(msg) => {
                if msg.contains("node") {
                    &self.reject_no_node
                } else if msg.contains("memory") || msg.contains("spread") {
                    &self.reject_memory
                } else if msg.contains("GPU") {
                    &self.reject_gpu
                } else if msg.contains("storage") {
                    &self.reject_storage
                } else {
                    &self.reject_other
                }
            }
            _ => &self.reject_other,
        };
        c.inc();
    }
}

fn composer_metrics() -> &'static ComposerMetrics {
    static METRICS: std::sync::OnceLock<ComposerMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ComposerMetrics {
        compose_latency: std::array::from_fn(|i| {
            ofmf_obs::histogram(&format!(
                "ofmf.composer.compose.{}.latency_ns",
                // ofmf-lint: allow(no-panic-path, "from_fn passes i < N and Strategy::ALL has N entries")
                Strategy::ALL[i].label()
            ))
        }),
        decompose_latency: ofmf_obs::histogram("ofmf.composer.decompose.latency_ns"),
        composed: ofmf_obs::counter("ofmf.composer.composed.total"),
        reject_no_node: ofmf_obs::counter("ofmf.composer.reject.no_node"),
        reject_memory: ofmf_obs::counter("ofmf.composer.reject.memory"),
        reject_gpu: ofmf_obs::counter("ofmf.composer.reject.gpu"),
        reject_storage: ofmf_obs::counter("ofmf.composer.reject.storage"),
        reject_other: ofmf_obs::counter("ofmf.composer.reject.other"),
    })
}

/// What is spoken for.
#[derive(Default)]
struct State {
    /// Live compositions, keyed by composed-system id.
    live: BTreeMap<ODataId, ComposedSystem>,
    /// Held by work in flight: the node and the system name of each compose
    /// whose commit is not journaled yet, and the connection id of each lost
    /// binding a repair pass is re-binding.
    reserved: BTreeSet<ODataId>,
    /// Lost bindings (by connection id) whose remnants are released and
    /// whose loss is announced: later passes only retry the re-bind.
    lost: BTreeSet<ODataId>,
}

impl State {
    /// Whether `id` — a node or a composed-system name — is held by a live
    /// composition or by work in flight.
    fn taken(&self, id: &ODataId) -> bool {
        self.reserved.contains(id) || self.live.contains_key(id) || self.live.values().any(|c| &c.node == id)
    }

    /// A live composition whose commit is journaled: a compose holds the
    /// name reserved until then, and no other record may precede its commit.
    fn committed(&mut self, system: &ODataId) -> Option<&mut ComposedSystem> {
        let State { live, reserved, .. } = self;
        live.get_mut(system).filter(|_| !reserved.contains(system))
    }
}

/// Ids held in [`State::reserved`] for one compose or one repair pass;
/// dropping it (commit, refusal, abort and compensation alike) releases
/// them.
struct Reservation<'a> {
    state: &'a Mutex<State>,
    ids: Vec<ODataId>,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut state = self.state.lock();
        for id in &self.ids {
            state.reserved.remove(id);
        }
    }
}

/// The Composability Manager.
pub struct Composer {
    ofmf: Arc<Ofmf>,
    strategy: Strategy,
    policy: PolicySet,
    state: Mutex<State>,
    prober: Prober,
}

impl Composer {
    /// New composer over an OFMF with the given strategy and default
    /// policies.
    pub fn new(ofmf: Arc<Ofmf>, strategy: Strategy) -> Self {
        Composer {
            ofmf,
            strategy,
            policy: PolicySet::default(),
            state: Mutex::new(State::default()),
            prober: Prober::new(),
        }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The OFMF this composer manages.
    pub fn ofmf(&self) -> &Arc<Ofmf> {
        &self.ofmf
    }

    /// Live compositions, keyed by composed-system id.
    pub fn compositions(&self) -> Vec<ComposedSystem> {
        self.state.lock().live.values().cloned().collect()
    }

    /// Look up one composition.
    pub fn find(&self, system: &ODataId) -> Option<ComposedSystem> {
        self.state.lock().live.get(system).cloned()
    }

    /// Current inventory as the composer sees it (bound nodes excluded).
    pub fn inventory(&self) -> Inventory {
        let bound: BTreeSet<ODataId> = {
            let state = self.state.lock();
            let live = state.live.values().map(|c| &c.node);
            live.chain(&state.reserved).cloned().collect()
        };
        Inventory::scan(&self.ofmf, &bound)
    }

    // ------------------------------------------------------------- compose

    /// Satisfy a composition request, or fail with 507 when the pools
    /// cannot cover it. All-or-nothing: partial bindings are rolled back.
    pub fn compose(&self, request: &CompositionRequest) -> RedfishResult<ComposedSystem> {
        let metrics = composer_metrics();
        // ofmf-lint: allow(no-panic-path, "strategy.index() enumerates Strategy::ALL, the array's length")
        let _span = ofmf_obs::Trace::begin(&metrics.compose_latency[self.strategy.index()]);
        // Composes are rare control-plane transactions: always retain their
        // trace tree in the flight recorder, regardless of latency.
        let mut tspan = ofmf_obs::enter_span("ofmf.composer.compose");
        tspan.force_sample();
        tspan.annotate("request", request.name.as_str());
        tspan.annotate("strategy", self.strategy.label());
        let result = self.compose_inner(request);
        match &result {
            Ok(_) => metrics.composed.inc(),
            Err(e) => {
                metrics.count_rejection(e);
                tspan.set_error();
                tspan.annotate("error", e.to_string());
            }
        }
        result
    }

    fn compose_inner(&self, request: &CompositionRequest) -> RedfishResult<ComposedSystem> {
        // A taken name (a client retrying its Compose POST) is refused
        // before anything is planned, journaled or bound.
        let sys_id = ODataId::new(top::SYSTEMS).child(&request.name);
        if self.ofmf.registry.exists(&sys_id) {
            return Err(RedfishError::AlreadyExists(sys_id));
        }
        let mut inv = self.inventory();

        // 1. Pick the compute node and hold it and the name in one critical
        //    section: the inventory was read unlocked, so a concurrent
        //    compose may have picked from the same free list, or taken the
        //    same name, since.
        let node = {
            let mut state = self.state.lock();
            if state.taken(&sys_id) {
                return Err(RedfishError::AlreadyExists(sys_id));
            }
            let fits = |c: &&crate::inventory::ComputePool| {
                c.cores >= request.cores && c.memory_gib >= request.local_memory_gib && !state.taken(&c.system)
            };
            let node = inv.compute.iter().find(fits).cloned().ok_or_else(|| {
                RedfishError::InsufficientResources(format!(
                    "no free node with ≥{} cores and ≥{} GiB",
                    request.cores, request.local_memory_gib
                ))
            })?;
            state.reserved.extend([node.system.clone(), sys_id.clone()]);
            node
        };
        let reservation = Reservation {
            state: &self.state,
            ids: vec![node.system.clone(), sys_id.clone()],
        };

        // 2. Plan the fabric bindings (sizes + targets) up front so failures
        //    happen before any mutation. Member ids are allocated in step 3.
        use BindingKind::{Gpu, Memory, Storage};
        let (endpoints, mut planned) = (&node.endpoints, Vec::new());
        if request.fabric_memory_mib > 0 {
            let mib = request.fabric_memory_mib;
            planned.extend(self.plan(&mut inv, endpoints, Memory, mib, request.spread_memory)?);
        }
        for _ in 0..request.gpus {
            planned.extend(self.plan(&mut inv, endpoints, Gpu, 1, false)?);
        }
        if request.storage_bytes > 0 {
            planned.extend(self.plan(&mut inv, endpoints, Storage, request.storage_bytes, false)?);
        }

        // 3. Journal the intent — with zone/connection member ids allocated
        //    up front — BEFORE any agent mutation, so a crash mid-bind leaves
        //    a WAL record naming every path recovery must inspect.
        for p in &mut planned {
            p.zone_id = self.ofmf.next_member_id("z");
            p.conn_id = self.ofmf.next_member_id("c");
        }
        self.ofmf.wal_record(WalRecord::ComposeIntent {
            system: sys_id.as_str().to_string(),
            node: node.system.as_str().to_string(),
            request: request.to_value(),
            planned: Value::Array(planned.iter().map(Planned::to_value).collect()),
        });

        // 4. Execute: bind each planned resource; abort on the first failure.
        let mut bindings: Vec<Binding> = Vec::with_capacity(planned.len());
        for p in &planned {
            match self.bind(p, endpoints, request.bandwidth_gbps(p.kind)) {
                Ok(b) => {
                    self.ofmf.wal_record(WalRecord::BindDone {
                        system: sys_id.as_str().to_string(),
                        binding: b.to_value(),
                    });
                    bindings.push(b);
                }
                Err(e) => {
                    // Unwind the bindings made so far and whatever this bind
                    // left, then name the fabric that failed so the 503 is
                    // actionable.
                    self.abort(&sys_id, std::slice::from_ref(p), &bindings);
                    return Err(name_failed_fabric(e, &p.fabric));
                }
            }
        }

        // 5. Materialize the composed system resource.
        let composed = ComposedSystem {
            system: sys_id.clone(),
            node: node.system.clone(),
            bindings,
            request: request.clone(),
        };
        let doc = json!({
            "@odata.type": "#ComputerSystem.v1_20_0.ComputerSystem",
            "Id": request.name,
            "Name": request.name,
            "SystemType": "Composed",
            "PowerState": "On",
            "Status": {"State": "Enabled", "Health": "OK"},
            "ProcessorSummary": {"Count": 2, "CoreCount": node.cores},
            "MemorySummary": {"TotalSystemMemoryGiB": node.memory_gib + composed.bound_memory_mib() / 1024},
            "Links": {"ResourceBlocks": composed.resource_block_links()},
        });
        if let Err(e) = self.ofmf.registry.create(&sys_id, doc) {
            self.abort(&sys_id, &[], &composed.bindings);
            return Err(e);
        }
        for b in &composed.bindings {
            self.assign_gpu(b, json!(sys_id.as_str()));
        }
        self.ofmf.events.publish(
            EventType::ResourceAdded,
            &sys_id,
            format!("system {} composed on {}", request.name, node.system),
            "OK",
        );
        // Commit marks the transaction complete: replay treats anything
        // journaled after the intent but before this record as half-bound.
        // Live first, so a snapshot taken before the commit holds the
        // composition; the name stays reserved until the commit is
        // journaled, so no repair or grow journals a record for it ahead of
        // the commit, and the disk write holds no lock.
        self.state.lock().live.insert(sys_id.clone(), composed.clone());
        self.ofmf.wal_record(WalRecord::ComposeCommit {
            system: sys_id.as_str().to_string(),
        });
        drop(reservation);
        Ok(composed)
    }

    /// Create the zone + connection for one planned binding, from the node's
    /// endpoint on the planned fabric. Its member ids were allocated by the
    /// caller so they could be journaled before any mutation; when this
    /// fails, the caller's unbind of the plan removes a zone it made.
    fn bind(&self, plan: &Planned, endpoints: &BTreeMap<String, ODataId>, qos_gbps: f64) -> RedfishResult<Binding> {
        let (fabric, target_ep, size, kind) = (plan.fabric.as_str(), &plan.target, plan.size, plan.kind);
        let mut bspan = ofmf_obs::child_span("ofmf.composer.bind");
        bspan.annotate("fabric", fabric);
        bspan.annotate("kind", kind.label());
        // The planner picked a fabric the node reaches; it may have dropped since.
        let initiator = endpoints
            .get(fabric)
            .ok_or_else(|| RedfishError::Internal(format!("node lost its endpoint on fabric {fabric}")))?;
        let fabric_root = ODataId::new(top::FABRICS).child(fabric);
        let zone = self.ofmf.post(
            &fabric_root.child("Zones"),
            &json!({
                "Id": plan.zone_id.as_str(),
                "Links": {"Endpoints": [
                    {"@odata.id": initiator.as_str()},
                    {"@odata.id": target_ep.as_str()},
                ]}
            }),
        )?;
        let connection = self.ofmf.post(
            &fabric_root.child("Connections"),
            &json!({
                "Id": plan.conn_id.as_str(),
                "Zone": {"@odata.id": zone.as_str()},
                "Size": size,
                "BandwidthGbps": qos_gbps,
                "Links": {
                    "InitiatorEndpoints": [{"@odata.id": initiator.as_str()}],
                    "TargetEndpoints": [{"@odata.id": target_ep.as_str()}],
                }
            }),
        )?;
        // The materialized resource is what the connection references.
        let resource = self.ofmf.registry.read(&connection, |stored| {
            let conn_body = &stored.body;
            // ofmf-lint: allow(no-panic-path, "Value usize indexing is total; out-of-range yields Null")
            conn_body["MemoryChunkInfo"][0]["Resource"]["@odata.id"]
                .as_str()
                // ofmf-lint: allow(no-panic-path, "Value usize indexing is total; out-of-range yields Null")
                .or_else(|| conn_body["VolumeInfo"][0]["Resource"]["@odata.id"].as_str())
                .or_else(|| conn_body["Oem"]["OFMF"]["Resource"]["@odata.id"].as_str())
                .map(ODataId::new)
                .unwrap_or_else(|| target_ep.clone())
        })?;
        // The new reservation moved this fabric's residuals: cached probe
        // scores for it are stale.
        self.prober.invalidate_fabric(fabric);
        Ok(Binding {
            fabric: fabric.to_string(),
            zone,
            connection,
            resource,
            size,
            kind,
        })
    }

    /// The one unbind: delete each binding's — and each unconfirmed plan's —
    /// connection, then its zone, through the owning agent. The tree
    /// documents, and a binding's memory or storage carve, are pruned here
    /// only when the agent disowns them: `NotFound`, because it forgot them
    /// (a fresh agent after a restart, a connection it reported lost) or
    /// because no agent is registered for the fabric. An unavailable agent
    /// needs nothing here: [`Ofmf::apply`] holds the teardown for it. A
    /// GPU's grant is cleared.
    fn unbind(&self, bindings: &[Binding], planned: &[Planned]) {
        let mut uspan = ofmf_obs::child_span("ofmf.composer.unbind_all");
        uspan.annotate("bindings", (bindings.len() + planned.len()).to_string());
        // Prune what the agent disowns; true when there was a document.
        let disowned = |id: &ODataId| {
            matches!(self.ofmf.delete(id), Err(RedfishError::NotFound(_))) && self.ofmf.registry.delete_subtree(id) > 0
        };
        // Never an endpoint: the fallback resource of a connection that
        // carried no carve.
        let carve = |s: &redfish_model::StoredResource| s.odata_type().is_none_or(|t| !t.starts_with("#Endpoint."));
        for b in bindings {
            // The carve goes only with a connection document the agent
            // disowned: a lost connection's carve left with the agent's report.
            if disowned(&b.connection)
                && b.kind != BindingKind::Gpu
                && self.ofmf.registry.read(&b.resource, carve).unwrap_or(false)
            {
                self.ofmf.registry.delete_subtree(&b.resource);
            }
            disowned(&b.zone);
            self.assign_gpu(b, Value::Null);
            // Capacity and bandwidth came back: drop stale probe scores.
            self.prober.invalidate_fabric(&b.fabric);
        }
        for p in planned {
            let fabric = ODataId::new(top::FABRICS).child(&p.fabric);
            disowned(&fabric.child("Connections").child(&p.conn_id));
            disowned(&fabric.child("Zones").child(&p.zone_id));
        }
    }

    /// The one abort, for a compose that failed and for a half-bound intent
    /// found at boot: unbind the confirmed `bindings`, delete every planned
    /// zone and connection id no binding confirmed, delete the system
    /// document unless a live composition (or a compose in flight) holds the
    /// name, and journal `ComposeAbort` so a restart does not abort again.
    fn abort(&self, system: &ODataId, planned: &[Planned], bindings: &[Binding]) {
        let unconfirmed: Vec<Planned> = planned
            .iter()
            .filter(|p| {
                !bindings
                    .iter()
                    .any(|b| b.zone.leaf() == p.zone_id || b.connection.leaf() == p.conn_id)
            })
            .cloned()
            .collect();
        self.unbind(bindings, &unconfirmed);
        // Only a crash between create and commit leaves the document.
        if !self.state.lock().taken(system) {
            self.ofmf.registry.delete_subtree(system);
        }
        self.ofmf.wal_record(WalRecord::ComposeAbort {
            system: system.as_str().to_string(),
        });
    }

    /// Name `owner` (or, with `Null`, nobody) as the holder of a GPU
    /// binding's processor; other bindings are left alone.
    fn assign_gpu(&self, b: &Binding, owner: Value) {
        if b.kind == BindingKind::Gpu {
            let grant = json!({"Oem": {"OFMF": {"AssignedTo": owner}}});
            let _ = self.ofmf.registry.patch(&b.resource, &grant, None);
        }
    }

    // ----------------------------------------------------------- decompose

    /// Tear a composition down, returning every resource to its pool.
    pub fn decompose(&self, system: &ODataId) -> RedfishResult<()> {
        let _span = ofmf_obs::Trace::begin(&composer_metrics().decompose_latency);
        let mut tspan = ofmf_obs::enter_span("ofmf.composer.decompose");
        tspan.force_sample();
        tspan.annotate("system", system.as_str());
        let composed = {
            let mut state = self.state.lock();
            let composed = state
                .live
                .remove(system)
                .ok_or_else(|| RedfishError::NotFound(system.clone()))?;
            for b in &composed.bindings {
                state.lost.remove(&b.connection);
            }
            composed
        };
        self.unbind(&composed.bindings, &[]);
        self.ofmf.registry.delete(system)?;
        self.ofmf.wal_record(WalRecord::Decompose {
            system: system.as_str().to_string(),
        });
        self.ofmf.events.publish(
            EventType::ResourceRemoved,
            system,
            format!("system {} decomposed; resources returned to pools", system.leaf()),
            "OK",
        );
        Ok(())
    }

    // -------------------------------------------------- dynamic reprovision

    /// Grow a running composition's fabric memory by `extra_mib` (the OOM
    /// mitigation path). Creates an additional binding; existing ones are
    /// untouched, so the running job never loses memory.
    pub fn grow_memory(&self, system: &ODataId, extra_mib: u64) -> RedfishResult<Binding> {
        let binding = self.add_binding(system, BindingKind::Memory, extra_mib, None)?;
        self.ofmf.events.publish(
            EventType::ResourceUpdated,
            system,
            format!("grew fabric memory by {extra_mib} MiB (OOM mitigation)"),
            "OK",
        );
        Ok(binding)
    }

    /// Attach additional fabric storage to a running composition (the I/O
    /// thrash mitigation path).
    pub fn attach_storage(&self, system: &ODataId, bytes: u64) -> RedfishResult<Binding> {
        let binding = self.add_binding(system, BindingKind::Storage, bytes, None)?;
        self.ofmf.events.publish(
            EventType::ResourceUpdated,
            system,
            format!("attached {bytes} bytes of fabric storage"),
            "OK",
        );
        Ok(binding)
    }

    /// Bind one more resource of `kind` and `size` to a live composition at
    /// its QoS — in place of `lost` when the repair pass replaces that
    /// binding, appended otherwise — journal the result and re-sync the
    /// system document. A composition decomposed while the bind ran (or not
    /// committed yet) gets nothing: the new binding is unbound again and
    /// never journaled.
    fn add_binding(
        &self,
        system: &ODataId,
        kind: BindingKind,
        size: u64,
        lost: Option<&Binding>,
    ) -> RedfishResult<Binding> {
        let (node, qos) = {
            let mut state = self.state.lock();
            let c = state
                .committed(system)
                .ok_or_else(|| RedfishError::NotFound(system.clone()))?;
            (c.node.clone(), c.request.bandwidth_gbps(kind))
        };
        let endpoints = endpoints_of(&self.ofmf, &node);
        let Some(mut plan) = self.plan(&mut self.inventory(), &endpoints, kind, size, false)?.pop() else {
            return Err(RedfishError::Internal("empty plan".into()));
        };
        plan.zone_id = self.ofmf.next_member_id("z");
        plan.conn_id = self.ofmf.next_member_id("c");
        let binding = self
            .bind(&plan, &endpoints, qos)
            .inspect_err(|_| self.unbind(&[], std::slice::from_ref(&plan)))?;

        let recorded = {
            let mut state = self.state.lock();
            let record = match (state.committed(system), lost) {
                (Some(c), None) => {
                    c.bindings.push(binding.clone());
                    Some(WalRecord::BindAdded {
                        system: system.as_str().to_string(),
                        binding: binding.to_value(),
                    })
                }
                (Some(c), Some(lost)) => {
                    let slot = c.bindings.iter_mut().find(|b| b.connection == lost.connection);
                    let replaced = slot.map(|s| *s = binding.clone()).is_some();
                    replaced.then(|| live_record(c))
                }
                (None, _) => None,
            };
            // Under the state lock: one composition's records reach the
            // journal in the order its binding list changed, and a decompose
            // can clear a grant only after it is made.
            let recorded = record.is_some();
            if let Some(record) = record {
                self.ofmf.wal_record(record);
                self.assign_gpu(&binding, json!(system.as_str()));
            }
            recorded
        };
        if !recorded {
            // The composition was decomposed while the bind ran, or is
            // not committed yet.
            self.unbind(std::slice::from_ref(&binding), &[]);
            return Err(RedfishError::NotFound(system.clone()));
        }
        self.refresh_system(system);
        Ok(binding)
    }

    /// Pick the pool for `size` units of `kind` on a node with `endpoints`
    /// — or, for memory with `spread`, the pools the policy splits it
    /// across: the plan step compose, grow, attach and the repair pass
    /// share. A GPU it picks is marked assigned in `inv`, so the next pick
    /// passes it over.
    fn plan(
        &self,
        inv: &mut Inventory,
        endpoints: &BTreeMap<String, ODataId>,
        kind: BindingKind,
        size: u64,
        spread: bool,
    ) -> RedfishResult<Vec<Planned>> {
        let (s, ofmf) = (self.strategy, &self.ofmf);
        let (chosen, skipped): (Vec<Planned>, _) = match kind {
            BindingKind::Memory if spread => {
                let reach = |p: &&MemoryPool| endpoints.contains_key(&p.fabric);
                let eligible: Vec<&MemoryPool> = inv.memory.iter().filter(reach).collect();
                let chunks = self.policy.spread_plan(&eligible, size).unwrap_or_default();
                let pools = chunks.into_iter().filter_map(|(i, mib)| Some((*eligible.get(i)?, mib)));
                let planned = pools.map(|(p, mib)| Planned::new(&p.fabric, &p.endpoint, &p.domain, mib, kind));
                (planned.collect(), Vec::new())
            }
            BindingKind::Memory => {
                let fits = |p: &&MemoryPool| self.policy.allows_carve(p, size);
                let eligible: Vec<MemoryPool> = inv.memory.iter().filter(fits).cloned().collect();
                let (p, skipped) = choose_memory(&self.prober, s, &eligible, size, ofmf, endpoints);
                let planned = p.map(|p| Planned::new(&p.fabric, &p.endpoint, &p.domain, size, kind));
                (planned.into_iter().collect(), skipped)
            }
            BindingKind::Gpu => {
                let (g, skipped) = choose_gpu(&self.prober, s, &inv.gpus, ofmf, endpoints);
                let planned = g.map(|g| Planned::new(&g.fabric, &g.endpoint, &g.processor, 1, kind));
                (planned.into_iter().collect(), skipped)
            }
            BindingKind::Storage => {
                let (p, skipped) = choose_storage(&self.prober, s, &inv.storage, size, ofmf, endpoints);
                let planned = p.map(|p| Planned::new(&p.fabric, &p.endpoint, &p.pool, size, kind));
                (planned.into_iter().collect(), skipped)
            }
        };
        note_skipped_fabrics(&skipped);
        if chosen.is_empty() {
            let max = self.policy.max_memory_spread;
            return Err(RedfishError::InsufficientResources(match kind {
                BindingKind::Memory if spread => format!("cannot spread {size} MiB across ≤{max} pools"),
                BindingKind::Memory => format!("no memory pool with {size} MiB free under policy"),
                BindingKind::Gpu => "no free GPU".to_string(),
                BindingKind::Storage => format!("no storage pool with {size} bytes free"),
            }));
        }
        for g in inv
            .gpus
            .iter_mut()
            .filter(|g| chosen.iter().any(|p| p.resource == g.processor))
        {
            g.assigned = true;
        }
        Ok(chosen)
    }

    /// Re-sync the composed system document with its binding set (grow,
    /// attach and repair change it). While a loss lasts, `MemorySummary`
    /// and `Links.ResourceBlocks` count only the resources that exist.
    fn refresh_system(&self, system: &ODataId) {
        let Some(mut c) = self.find(system) else { return };
        let reg = &self.ofmf.registry;
        let node_gib = reg
            .read(&c.node, |s| s.body["MemorySummary"]["TotalSystemMemoryGiB"].as_u64())
            .ok()
            .flatten()
            .unwrap_or(c.request.local_memory_gib);
        c.bindings.retain(|b| reg.exists(&b.resource));
        let summary = json!({
            "MemorySummary": {"TotalSystemMemoryGiB": node_gib + c.bound_memory_mib() / 1024},
            "Links": {"ResourceBlocks": c.resource_block_links()},
        });
        let _ = reg.patch(system, &summary, None);
    }

    // --------------------------------------------------------- repair pass

    /// The repair pass: move actual state (the tree) to desired (each live
    /// composition's committed bindings). A binding whose connection
    /// document is gone is lost. Its remnants — the zone, a GPU grant — are
    /// released once, and the same kind and size is re-bound through the
    /// plan step compose uses, the replacement taking its place (journaled
    /// as the composition's whole binding list, one `ComposeLive`). One that
    /// cannot be re-bound yet stays desired: its loss is announced once as
    /// an Alert, and every later pass retries it. Each lost binding is
    /// claimed under the state lock, so two concurrent passes never re-bind
    /// one twice. Returns `(repaired, still_lost)` binding counts.
    pub fn reconcile(&self) -> (usize, usize) {
        let (claimed, _claims) = {
            let mut state = self.state.lock();
            let State { live, reserved, lost } = &mut *state;
            let mut claimed = Vec::new();
            for c in live.values() {
                if reserved.contains(&c.system) {
                    continue; // its commit is not journaled yet: a later pass
                }
                for b in c.bindings.iter().filter(|b| !self.ofmf.registry.exists(&b.connection)) {
                    if reserved.insert(b.connection.clone()) {
                        claimed.push((c.system.clone(), b.clone(), lost.insert(b.connection.clone())));
                    }
                }
            }
            let ids = claimed.iter().map(|(_, b, _)| b.connection.clone()).collect();
            let state = &self.state;
            (claimed, Reservation { state, ids })
        };
        let (mut repaired, mut still_lost) = (0, 0);
        for (system, b, first) in claimed {
            if first {
                self.unbind(std::slice::from_ref(&b), &[]);
            }
            let what = format!("{} binding of {} units", b.kind.label(), b.size);
            if self.add_binding(&system, b.kind, b.size, Some(&b)).is_ok() {
                repaired += 1;
                self.state.lock().lost.remove(&b.connection);
                let message = format!("rebound lost {what}");
                self.ofmf
                    .events
                    .publish(EventType::StatusChange, &system, message, "Warning");
            } else {
                still_lost += 1;
                if first {
                    // While the loss lasts, the system links only to what exists.
                    self.refresh_system(&system);
                    let message = format!("could not rebind lost {what}; retrying on every poll");
                    self.ofmf.events.publish(EventType::Alert, &system, message, "Critical");
                }
            }
        }
        (repaired, still_lost)
    }

    /// Rebuild composer state after a crash-restart: fold the composition
    /// records the OFMF boot replay set aside, abort every intent that has
    /// no commit (a half-bound transaction) through the abort a failed
    /// compose takes, then run the repair pass. Every committed composition
    /// is restored with every journaled binding, lost ones included: the
    /// pass re-binds those. Returns `(restored, compensated)` counts.
    pub fn recover(&self) -> (usize, usize) {
        // Per uncommitted intent: its node, request and plan, then each bind
        // it confirmed.
        let mut pending: BTreeMap<String, (String, Value, Vec<Planned>, Vec<Binding>)> = BTreeMap::new();
        let mut live: BTreeMap<String, (String, Value, Vec<Binding>)> = BTreeMap::new();
        for rec in self.ofmf.take_recovered_compose() {
            match rec {
                WalRecord::ComposeIntent {
                    system,
                    node,
                    request,
                    planned,
                } => {
                    // Only a commit replaces a live composition: an intent
                    // naming a live system's path aborts.
                    let planned = decode_all(&planned, Planned::from_value);
                    pending.insert(system, (node, request, planned, Vec::new()));
                }
                WalRecord::BindDone { system, binding } => {
                    if let (Some((.., bound)), Some(b)) = (pending.get_mut(&system), Binding::from_value(&binding)) {
                        bound.push(b);
                    }
                }
                WalRecord::ComposeCommit { system } => {
                    if let Some((node, request, _, bindings)) = pending.remove(&system) {
                        live.insert(system, (node, request, bindings));
                    }
                }
                WalRecord::ComposeAbort { system } => {
                    pending.remove(&system);
                }
                WalRecord::Decompose { system } => {
                    live.remove(&system);
                }
                WalRecord::BindAdded { system, binding } => {
                    if let (Some(l), Some(b)) = (live.get_mut(&system), Binding::from_value(&binding)) {
                        l.2.push(b);
                    }
                }
                WalRecord::ComposeLive {
                    system,
                    node,
                    request,
                    bindings,
                } => {
                    live.insert(system, (node, request, decode_all(&bindings, Binding::from_value)));
                }
                _ => {}
            }
        }

        let mut restored = 0;
        for (system, (node, request, bindings)) in live {
            let sys_id = ODataId::new(&system);
            // Decomposed (or never materialized) before the crash.
            let request = CompositionRequest::from_value(&request).filter(|_| self.ofmf.registry.exists(&sys_id));
            let Some(request) = request else { continue };
            let composed = ComposedSystem {
                system: sys_id.clone(),
                node: ODataId::new(&node),
                bindings,
                request,
            };
            self.state.lock().live.insert(sys_id, composed);
            restored += 1;
        }
        let compensated = pending.len();
        for (system, (_, _, planned, bindings)) in pending {
            let sys_id = ODataId::new(&system);
            self.abort(&sys_id, &planned, &bindings);
            self.ofmf.events.publish(
                EventType::Alert,
                &sys_id,
                format!(
                    "composition {} found half-bound after restart; compensated",
                    sys_id.leaf()
                ),
                "Warning",
            );
        }
        self.reconcile();
        (restored, compensated)
    }

    /// Attach this composer to its OFMF: its live compositions join every
    /// WAL snapshot, every [`Ofmf::poll`] runs the repair pass
    /// ([`Composer::reconcile`]) after draining agent events, and
    /// [`Ofmf::delete`] of a composed system runs [`Composer::decompose`].
    /// Held through a `Weak`, so the OFMF (owned by the composer) never
    /// keeps the composer alive in a reference cycle.
    pub fn attach_snapshot_provider(self: &Arc<Self>) {
        let this: Arc<dyn Compositions> = Arc::clone(self) as Arc<dyn Compositions>;
        self.ofmf.attach_compositions(Arc::downgrade(&this));
    }
}

impl Compositions for Composer {
    fn snapshot_records(&self) -> Vec<WalRecord> {
        self.state.lock().live.values().map(live_record).collect()
    }

    fn reconcile(&self) -> (usize, usize) {
        Composer::reconcile(self)
    }

    fn decompose(&self, system: &ODataId) -> RedfishResult<()> {
        Composer::decompose(self, system)
    }
}

/// A composition as one `ComposeLive` record: its entry in a WAL snapshot,
/// and how a repaired binding list is journaled.
fn live_record(c: &ComposedSystem) -> WalRecord {
    WalRecord::ComposeLive {
        system: c.system.as_str().to_string(),
        node: c.node.as_str().to_string(),
        request: c.request.to_value(),
        bindings: Value::Array(c.bindings.iter().map(Binding::to_value).collect()),
    }
}

/// Decode a journaled array, dropping malformed entries.
fn decode_all<T>(array: &Value, one: fn(&Value) -> Option<T>) -> Vec<T> {
    let entries = array.as_array().into_iter().flatten();
    entries.filter_map(one).collect()
}

/// Record fabrics whose probe batches failed during placement on the live
/// trace: the candidates degraded to unprobed scoring instead of being
/// silently dropped, and the span names exactly which fabrics went dark.
fn note_skipped_fabrics(skipped: &[String]) {
    if skipped.is_empty() {
        return;
    }
    let mut span = ofmf_obs::child_span("ofmf.composer.probe");
    span.annotate("skipped_fabrics", skipped.join(","));
    span.set_error();
}

/// Attribute an availability error to the fabric whose bind failed, so a
/// mid-compose agent loss surfaces as an actionable 503.
/// `CircuitOpen` already names its fabric; bare `AgentUnavailable` messages
/// get the fabric prefixed.
fn name_failed_fabric(e: RedfishError, fabric: &str) -> RedfishError {
    match e {
        RedfishError::AgentUnavailable(m) if !m.contains(fabric) => {
            RedfishError::AgentUnavailable(format!("fabric {fabric}: {m}"))
        }
        other => other,
    }
}
