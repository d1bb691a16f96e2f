//! The Composability Manager itself: compose / decompose, dynamic
//! reprovisioning and event-driven fail-over recovery.
//!
//! Every binding is materialized as its own zone + connection pair on the
//! owning fabric: the zone scopes visibility to exactly {initiator, target}
//! and the connection carries the capacity carve. One-zone-per-binding keeps
//! grow/shrink/fail-over local — rebinding memory never touches the zones of
//! other bindings.

use crate::inventory::{endpoints_of, Inventory, MemoryPool};
use crate::policy::PolicySet;
use crate::probe::Prober;
use crate::request::{Binding, BindingKind, ComposedSystem, CompositionRequest, Planned};
use crate::strategy::{choose_gpu, choose_memory, choose_storage, Strategy};
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

/// Which compute nodes are spoken for.
#[derive(Default)]
struct State {
    /// Live compositions, keyed by composed-system id.
    live: BTreeMap<ODataId, ComposedSystem>,
    /// Nodes picked by composes still in flight — taken, not yet in `live`.
    reserved: BTreeSet<ODataId>,
}

impl State {
    fn taken(&self, node: &ODataId) -> bool {
        self.reserved.contains(node) || self.live.values().any(|c| &c.node == node)
    }
}

/// A node held in [`State::reserved`] for one in-flight compose; dropping
/// it (commit, refusal, abort and compensation alike) releases the hold.
struct Reservation<'a> {
    state: &'a Mutex<State>,
    node: &'a ODataId,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.state.lock().reserved.remove(self.node);
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

    /// Override the policy set.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySet) -> Self {
        self.policy = policy;
        self
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
        let inv = self.inventory();

        // 1. Pick the compute node and mark it taken in one critical
        //    section: the inventory was read unlocked, so a concurrent
        //    compose may have picked from the same free list since.
        let node = {
            let mut state = self.state.lock();
            let fits = |c: &&crate::inventory::ComputePool| {
                c.cores >= request.cores && c.memory_gib >= request.local_memory_gib && !state.taken(&c.system)
            };
            let node = inv.compute.iter().find(fits).cloned().ok_or_else(|| {
                RedfishError::InsufficientResources(format!(
                    "no free node with ≥{} cores and ≥{} GiB",
                    request.cores, request.local_memory_gib
                ))
            })?;
            state.reserved.insert(node.system.clone());
            node
        };
        let _reservation = Reservation {
            state: &self.state,
            node: &node.system,
        };

        // 2. Plan the fabric bindings (sizes + targets) up front so failures
        //    happen before any mutation. Member ids are allocated in step 3.
        use BindingKind::{Gpu, Memory, Storage};
        let memory = |p: &MemoryPool, size| Planned::new(&p.fabric, &p.endpoint, &p.domain, size, Memory);
        let mut planned: Vec<Planned> = Vec::new();

        if request.fabric_memory_mib > 0 {
            if request.spread_memory {
                let eligible: Vec<&MemoryPool> = inv
                    .memory
                    .iter()
                    .filter(|p| node.endpoints.contains_key(&p.fabric))
                    .collect();
                let chunks = self
                    .policy
                    .spread_plan(&eligible, request.fabric_memory_mib)
                    .ok_or_else(|| {
                        RedfishError::InsufficientResources(format!(
                            "cannot spread {} MiB across ≤{} pools",
                            request.fabric_memory_mib, self.policy.max_memory_spread
                        ))
                    })?;
                for (idx, size) in chunks {
                    // ofmf-lint: allow(no-panic-path, "spread_plan yields indices into the eligible slice it was given")
                    let p = eligible[idx];
                    planned.push(memory(p, size));
                }
            } else {
                let eligible: Vec<MemoryPool> = inv
                    .memory
                    .iter()
                    .filter(|p| self.policy.allows_carve(p, request.fabric_memory_mib))
                    .cloned()
                    .collect();
                let (chosen, skipped) = choose_memory(
                    &self.prober,
                    self.strategy,
                    &eligible,
                    request.fabric_memory_mib,
                    &self.ofmf,
                    &node.endpoints,
                );
                note_skipped_fabrics(&skipped);
                let p = chosen.ok_or_else(|| {
                    RedfishError::InsufficientResources(format!(
                        "no memory pool with {} MiB free under policy",
                        request.fabric_memory_mib
                    ))
                })?;
                planned.push(memory(p, request.fabric_memory_mib));
            }
        }

        let mut gpus = inv.gpus.clone();
        for _ in 0..request.gpus {
            let (picked, skipped) = choose_gpu(&self.prober, self.strategy, &gpus, &self.ofmf, &node.endpoints);
            note_skipped_fabrics(&skipped);
            let chosen = picked
                .ok_or_else(|| RedfishError::InsufficientResources("no free GPU".into()))?
                .clone();
            gpus.iter_mut()
                .find(|g| g.processor == chosen.processor)
                .ok_or_else(|| RedfishError::Internal("chosen GPU vanished from inventory".into()))?
                .assigned = true;
            planned.push(Planned::new(
                &chosen.fabric,
                &chosen.endpoint,
                &chosen.processor,
                1,
                Gpu,
            ));
        }

        if request.storage_bytes > 0 {
            let (chosen, skipped) = choose_storage(
                &self.prober,
                self.strategy,
                &inv.storage,
                request.storage_bytes,
                &self.ofmf,
                &node.endpoints,
            );
            note_skipped_fabrics(&skipped);
            let p = chosen.ok_or_else(|| {
                RedfishError::InsufficientResources(format!(
                    "no storage pool with {} bytes free",
                    request.storage_bytes
                ))
            })?;
            planned.push(Planned::new(
                &p.fabric,
                &p.endpoint,
                &p.pool,
                request.storage_bytes,
                Storage,
            ));
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
        let abort = |bindings: &[Binding]| {
            self.unbind_all(bindings);
            self.ofmf.wal_record(WalRecord::ComposeAbort {
                system: sys_id.as_str().to_string(),
            });
        };

        // 4. Execute: bind each planned resource; roll everything back on
        //    the first failure.
        let mut bindings: Vec<Binding> = Vec::with_capacity(planned.len());
        for p in &planned {
            let fabric = &p.fabric;
            let Some(initiator) = node.endpoints.get(fabric) else {
                // Planner invariant broken (fabric dropped mid-compose):
                // compensate before surfacing.
                abort(&bindings);
                return Err(RedfishError::Internal(format!(
                    "node {} lost its endpoint on fabric {fabric} mid-compose",
                    node.system
                )));
            };
            match self.bind(p, initiator, request.bandwidth_gbps(p.kind)) {
                Ok(b) => {
                    self.ofmf.wal_record(WalRecord::BindDone {
                        system: sys_id.as_str().to_string(),
                        binding: b.to_value(),
                    });
                    bindings.push(b);
                }
                Err(e) => {
                    // Compensation: unwind every binding already made on the
                    // surviving fabrics, then name the fabric that failed so
                    // the 503 is actionable.
                    abort(&bindings);
                    return Err(name_failed_fabric(e, fabric));
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
            abort(&composed.bindings);
            return Err(e);
        }
        // Mark granted GPUs.
        for b in composed.bindings.iter().filter(|b| b.kind == BindingKind::Gpu) {
            let _ = self.ofmf.registry.patch(
                &b.resource,
                &json!({"Oem": {"OFMF": {"AssignedTo": sys_id.as_str()}}}),
                None,
            );
        }
        self.ofmf.events.publish(
            EventType::ResourceAdded,
            &sys_id,
            format!("system {} composed on {}", request.name, node.system),
            "OK",
        );
        // Commit marks the transaction complete: replay treats anything
        // journaled after the intent but before this record as half-bound.
        self.state.lock().live.insert(sys_id.clone(), composed.clone());
        self.ofmf.wal_record(WalRecord::ComposeCommit {
            system: sys_id.as_str().to_string(),
        });
        Ok(composed)
    }

    /// Create the zone + connection for one planned binding. Its member ids
    /// were allocated by the caller so they could be journaled before any
    /// mutation.
    fn bind(&self, plan: &Planned, initiator: &ODataId, qos_gbps: f64) -> RedfishResult<Binding> {
        let (fabric, target_ep, size, kind) = (plan.fabric.as_str(), &plan.target, plan.size, plan.kind);
        let mut bspan = ofmf_obs::child_span("ofmf.composer.bind");
        bspan.annotate("fabric", fabric);
        bspan.annotate("kind", kind.label());
        // Power-gated pool devices are woken on demand before binding.
        crate::energy::wake_backing(self, target_ep);
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
        let connection = match self.ofmf.post(
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
        ) {
            Ok(c) => c,
            Err(e) => {
                let _ = self.ofmf.delete(&zone);
                return Err(e);
            }
        };
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

    fn unbind_all(&self, bindings: &[Binding]) {
        let mut uspan = ofmf_obs::child_span("ofmf.composer.unbind_all");
        uspan.annotate("bindings", bindings.len().to_string());
        for b in bindings {
            let _ = self.ofmf.delete(&b.connection);
            let _ = self.ofmf.delete(&b.zone);
            // Decomposition credits bandwidth back: drop stale probe scores.
            self.prober.invalidate_fabric(&b.fabric);
            if b.kind == BindingKind::Gpu {
                let _ = self
                    .ofmf
                    .registry
                    .patch(&b.resource, &json!({"Oem": {"OFMF": {"AssignedTo": null}}}), None);
            }
        }
    }

    // ----------------------------------------------------------- decompose

    /// Tear a composition down, returning every resource to its pool.
    pub fn decompose(&self, system: &ODataId) -> RedfishResult<()> {
        let _span = ofmf_obs::Trace::begin(&composer_metrics().decompose_latency);
        let mut tspan = ofmf_obs::enter_span("ofmf.composer.decompose");
        tspan.force_sample();
        tspan.annotate("system", system.as_str());
        let composed = self
            .state
            .lock()
            .live
            .remove(system)
            .ok_or_else(|| RedfishError::NotFound(system.clone()))?;
        self.unbind_all(&composed.bindings);
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
        let node_endpoints = endpoints_of(&self.ofmf, &self.node_of(system)?);
        let inv = self.inventory();
        let eligible: Vec<MemoryPool> = inv
            .memory
            .iter()
            .filter(|p| self.policy.allows_carve(p, extra_mib))
            .cloned()
            .collect();
        let (chosen, skipped) = choose_memory(
            &self.prober,
            self.strategy,
            &eligible,
            extra_mib,
            &self.ofmf,
            &node_endpoints,
        );
        note_skipped_fabrics(&skipped);
        let pool = chosen
            .ok_or_else(|| RedfishError::InsufficientResources(format!("no pool can grow by {extra_mib} MiB")))?
            .clone();
        let plan = Planned::new(
            &pool.fabric,
            &pool.endpoint,
            &pool.domain,
            extra_mib,
            BindingKind::Memory,
        );
        let binding = self.add_binding(system, &node_endpoints, plan)?;
        let state = self.state.lock();
        let c = state
            .live
            .get(system)
            .ok_or_else(|| RedfishError::NotFound(system.clone()))?;
        let node_gib = self
            .ofmf
            .registry
            .read(&c.node, |s| s.body["MemorySummary"]["TotalSystemMemoryGiB"].as_u64())
            .ok()
            .flatten()
            .unwrap_or(c.request.local_memory_gib);
        let new_total = node_gib + c.bound_memory_mib() / 1024;
        drop(state);
        let _ = self.ofmf.registry.patch(
            system,
            &json!({"MemorySummary": {"TotalSystemMemoryGiB": new_total}}),
            None,
        );
        self.refresh_resource_blocks(system);
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
        let node_endpoints = endpoints_of(&self.ofmf, &self.node_of(system)?);
        let inv = self.inventory();
        let (chosen, skipped) = choose_storage(
            &self.prober,
            self.strategy,
            &inv.storage,
            bytes,
            &self.ofmf,
            &node_endpoints,
        );
        note_skipped_fabrics(&skipped);
        let pool = chosen
            .ok_or_else(|| RedfishError::InsufficientResources(format!("no storage pool with {bytes} bytes")))?
            .clone();
        let plan = Planned::new(&pool.fabric, &pool.endpoint, &pool.pool, bytes, BindingKind::Storage);
        let binding = self.add_binding(system, &node_endpoints, plan)?;
        self.refresh_resource_blocks(system);
        self.ofmf.events.publish(
            EventType::ResourceUpdated,
            system,
            format!("attached {bytes} bytes of fabric storage"),
            "OK",
        );
        Ok(binding)
    }

    /// Bind one more resource to a live composition at the composition's
    /// QoS, journal the binding and record it.
    fn add_binding(
        &self,
        system: &ODataId,
        node_endpoints: &BTreeMap<String, ODataId>,
        mut plan: Planned,
    ) -> RedfishResult<Binding> {
        let initiator = node_endpoints
            .get(&plan.fabric)
            .ok_or_else(|| RedfishError::Internal("node lost its fabric endpoint".into()))?;
        let live_qos = |c: &ComposedSystem| c.request.bandwidth_gbps(plan.kind);
        let qos = self.state.lock().live.get(system).map_or(0.0, live_qos);
        plan.zone_id = self.ofmf.next_member_id("z");
        plan.conn_id = self.ofmf.next_member_id("c");
        let binding = self.bind(&plan, initiator, qos)?;
        self.ofmf.wal_record(WalRecord::BindAdded {
            system: system.as_str().to_string(),
            binding: binding.to_value(),
        });
        let mut state = self.state.lock();
        let c = state
            .live
            .get_mut(system)
            .ok_or_else(|| RedfishError::NotFound(system.clone()))?;
        c.bindings.push(binding.clone());
        Ok(binding)
    }

    /// Re-sync the composed system document's `Links.ResourceBlocks` with
    /// the current binding set (bindings change under grow/attach/
    /// reconcile, and lost bindings would otherwise leave dangling links).
    fn refresh_resource_blocks(&self, system: &ODataId) {
        let links = {
            let state = self.state.lock();
            let Some(c) = state.live.get(system) else { return };
            c.resource_block_links()
        };
        let _ = self
            .ofmf
            .registry
            .patch(system, &json!({"Links": {"ResourceBlocks": links}}), None);
    }

    /// The compute node a live composition runs on.
    fn node_of(&self, system: &ODataId) -> RedfishResult<ODataId> {
        let state = self.state.lock();
        let live = state
            .live
            .get(system)
            .ok_or_else(|| RedfishError::NotFound(system.clone()))?;
        Ok(live.node.clone())
    }

    // ------------------------------------------------------------ reconcile

    /// Repair compositions whose connections disappeared (fabric fail-over
    /// exhausted all paths and the agent tore the connection down). For each
    /// missing memory/storage binding, re-bind the same capacity from the
    /// remaining pools. Returns `(repaired, lost)` binding counts.
    pub fn reconcile(&self) -> (usize, usize) {
        let systems: Vec<ODataId> = self.state.lock().live.keys().cloned().collect();
        let mut repaired = 0;
        let mut lost = 0;
        for sys in systems {
            let missing: Vec<Binding> = {
                let state = self.state.lock();
                let Some(c) = state.live.get(&sys) else { continue };
                c.bindings
                    .iter()
                    .filter(|b| !self.ofmf.registry.exists(&b.connection))
                    .cloned()
                    .collect()
            };
            for b in missing {
                // Drop the dead binding (and its now-empty zone).
                {
                    let mut state = self.state.lock();
                    if let Some(c) = state.live.get_mut(&sys) {
                        c.bindings.retain(|x| x.connection != b.connection);
                    }
                }
                self.refresh_resource_blocks(&sys);
                let _ = self.ofmf.delete(&b.zone);
                let outcome = match b.kind {
                    BindingKind::Memory => self.grow_memory(&sys, b.size).map(|_| ()),
                    BindingKind::Storage => self.attach_storage(&sys, b.size).map(|_| ()),
                    BindingKind::Gpu => Err(RedfishError::InsufficientResources(
                        "GPU grants are not auto-rebound".into(),
                    )),
                };
                match outcome {
                    Ok(()) => {
                        repaired += 1;
                        self.ofmf.events.publish(
                            EventType::StatusChange,
                            &sys,
                            format!("rebound lost {:?} binding of {} units", b.kind, b.size),
                            "Warning",
                        );
                    }
                    Err(_) => {
                        lost += 1;
                        self.ofmf.events.publish(
                            EventType::Alert,
                            &sys,
                            format!("could not rebind lost {:?} binding of {} units", b.kind, b.size),
                            "Critical",
                        );
                    }
                }
            }
        }
        (repaired, lost)
    }

    // ------------------------------------------------------------- recovery

    /// Rebuild composer state after a crash-restart from the WAL records the
    /// OFMF boot replay set aside. Committed compositions are restored
    /// (bindings validated against the replayed tree); intents with no
    /// matching commit are half-bound transactions — their confirmed
    /// bindings are force-unwound, planned-but-unconfirmed zone/connection
    /// documents deleted, and a `ComposeAbort` journaled so a second restart
    /// does not re-compensate. Returns `(restored, compensated)` counts.
    pub fn recover(&self) -> (usize, usize) {
        let records = self.ofmf.take_recovered_compose();
        if records.is_empty() {
            return (0, 0);
        }
        struct Pending {
            node: String,
            request: Value,
            planned: Vec<Planned>,
            bindings: Vec<Binding>,
        }
        let mut pending: BTreeMap<String, Pending> = BTreeMap::new();
        let mut live: BTreeMap<String, (String, Value, Vec<Binding>)> = BTreeMap::new();
        for rec in records {
            match rec {
                WalRecord::ComposeIntent {
                    system,
                    node,
                    request,
                    planned,
                } => {
                    // Only a commit replaces a live composition: an intent
                    // naming a live system's path (two racing composes of one
                    // name) fails at the document create and aborts.
                    let planned = decode_all(&planned, Planned::from_value);
                    pending.insert(
                        system,
                        Pending {
                            node,
                            request,
                            planned,
                            bindings: Vec::new(),
                        },
                    );
                }
                WalRecord::BindDone { system, binding } => {
                    if let (Some(p), Some(b)) = (pending.get_mut(&system), Binding::from_value(&binding)) {
                        p.bindings.push(b);
                    }
                }
                WalRecord::ComposeCommit { system } => {
                    if let Some(p) = pending.remove(&system) {
                        live.insert(system, (p.node, p.request, p.bindings));
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
            if !self.ofmf.registry.exists(&sys_id) {
                continue; // decomposed (or never materialized) before the crash
            }
            let Some(request) = CompositionRequest::from_value(&request) else {
                continue;
            };
            let bindings: Vec<Binding> = bindings
                .into_iter()
                .filter(|b| self.ofmf.registry.exists(&b.connection))
                .collect();
            self.state.lock().live.insert(
                sys_id.clone(),
                ComposedSystem {
                    system: sys_id,
                    node: ODataId::new(&node),
                    bindings,
                    request,
                },
            );
            restored += 1;
        }

        let mut compensated = 0;
        for (system, p) in pending {
            let sys_id = ODataId::new(&system);
            for b in &p.bindings {
                self.force_unbind(b);
            }
            for plan in &p.planned {
                let confirmed = p
                    .bindings
                    .iter()
                    .any(|b| b.zone.leaf() == plan.zone_id || b.connection.leaf() == plan.conn_id);
                if confirmed {
                    continue; // force_unbind already handled it
                }
                // A half-applied bind may have created the zone (or even
                // the connection) without a BindDone reaching the log.
                let froot = ODataId::new(top::FABRICS).child(&plan.fabric);
                self.force_delete(&froot.child("Connections").child(&plan.conn_id));
                self.force_delete(&froot.child("Zones").child(&plan.zone_id));
            }
            // The system document only exists if the crash hit between
            // create and commit; remove it with everything hanging off it —
            // unless it is a restored composition's, whose name this
            // transaction took and so never got to create it.
            if !self.state.lock().live.contains_key(&sys_id) && self.ofmf.registry.exists(&sys_id) {
                self.ofmf.registry.delete_subtree(&sys_id);
            }
            self.ofmf.wal_record(WalRecord::ComposeAbort { system: system.clone() });
            self.ofmf.events.publish(
                EventType::Alert,
                &sys_id,
                format!(
                    "composition {} found half-bound after restart; compensated",
                    sys_id.leaf()
                ),
                "Warning",
            );
            compensated += 1;
        }
        (restored, compensated)
    }

    /// Unwind one binding during crash recovery. Freshly re-registered
    /// agents answer NotFound for pre-crash zones and connections, so when
    /// the agent path fails the replayed tree documents are dropped directly
    /// — stale links are worse than a lost disconnect RPC.
    fn force_unbind(&self, b: &Binding) {
        self.force_delete(&b.connection);
        self.force_delete(&b.zone);
        match b.kind {
            BindingKind::Gpu => {
                let _ = self
                    .ofmf
                    .registry
                    .patch(&b.resource, &json!({"Oem": {"OFMF": {"AssignedTo": null}}}), None);
            }
            BindingKind::Memory | BindingKind::Storage => {
                // The carve the dead connection backed: normally the agent's
                // disconnect response removes it, but a fresh agent never
                // knew it. Never an endpoint (the fallback resource when the
                // connection carried no carve info).
                let is_carve =
                    |s: &redfish_model::StoredResource| s.odata_type().is_none_or(|t| !t.starts_with("#Endpoint."));
                if self.ofmf.registry.read(&b.resource, is_carve).unwrap_or(false) {
                    self.ofmf.registry.delete_subtree(&b.resource);
                }
            }
        }
    }

    /// Delete through the agent when possible, falling back to a direct
    /// tree prune when the agent disowns the resource.
    fn force_delete(&self, id: &ODataId) {
        if self.ofmf.delete(id).is_err() && self.ofmf.registry.exists(id) {
            self.ofmf.registry.delete_subtree(id);
        }
    }

    /// One `ComposeLive` record per live composition — the composer's
    /// contribution to a WAL snapshot.
    pub fn snapshot_records(&self) -> Vec<WalRecord> {
        self.state
            .lock()
            .live
            .values()
            .map(|c| WalRecord::ComposeLive {
                system: c.system.as_str().to_string(),
                node: c.node.as_str().to_string(),
                request: c.request.to_value(),
                bindings: Value::Array(c.bindings.iter().map(Binding::to_value).collect()),
            })
            .collect()
    }

    /// Register this composer as the OFMF's snapshot provider. Held through
    /// a `Weak` so the OFMF (owned by the composer) never keeps the composer
    /// alive in a reference cycle.
    pub fn attach_snapshot_provider(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        self.ofmf.set_snapshot_provider(Some(Box::new(move || {
            weak.upgrade().map(|c| c.snapshot_records()).unwrap_or_default()
        })));
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
