//! The generic fabric-sim-backed Agent: translation between the unified
//! Redfish tree and the simulated fabric manager.

use fabric_sim::device::DeviceKind;
use fabric_sim::failure::Fault;
use fabric_sim::ids::{ConnectionId, DeviceId, EndpointId, LinkId, SwitchId, ZoneId};
use fabric_sim::telemetry::Source;
use fabric_sim::{FabricEvent, FabricSim};
use ofmf_core::agent::{Agent, AgentEvent, AgentInfo, AgentMetric, AgentOp, AgentResponse};
use parking_lot::Mutex;
use redfish_model::enums::{EntityType, Protocol};
use redfish_model::odata::{Link, ODataId};
use redfish_model::path::top;
use redfish_model::resources::events::EventType;
use redfish_model::resources::fabric as rf;
use redfish_model::resources::memory::{MemoryChunk, MemoryDomain};
use redfish_model::resources::processor::Processor;
use redfish_model::resources::storage::{StoragePool, StorageService, Volume};
use redfish_model::resources::system::ComputerSystem;
use redfish_model::resources::{Chassis, Resource};
use redfish_model::{RedfishError, RedfishResult};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};

/// Tracks what tree resources a live connection materialized, so teardown
/// removes exactly what setup created.
#[derive(Debug, Clone)]
struct ConnectionArtifacts {
    sim_id: ConnectionId,
    /// Extra resources created alongside the `Connection` doc (the chunk or
    /// volume), removed together with it.
    aux: Vec<ODataId>,
}

/// State shared behind the agent's lock.
struct Inner {
    sim: FabricSim,
    /// Tree endpoint id → sim endpoint id.
    endpoints: BTreeMap<ODataId, EndpointId>,
    /// Tree zone id → sim zone id.
    zones: BTreeMap<ODataId, ZoneId>,
    /// Tree connection id → artifacts.
    connections: BTreeMap<ODataId, ConnectionArtifacts>,
    /// Interned metric names: each distinct name is allocated once and every
    /// sample of it shares the `Arc<str>`.
    metric_names: BTreeMap<&'static str, std::sync::Arc<str>>,
}

/// A technology-specific agent backed by one [`FabricSim`].
///
/// Constructed via the [`crate::flavors`] helpers; generic over protocol and
/// over how target devices/connections materialize as Redfish resources.
pub struct SimAgent {
    info: AgentInfo,
    protocol: Protocol,
    inner: Mutex<Inner>,
    healthy: AtomicBool,
}

impl SimAgent {
    /// Wrap a simulator as an agent speaking `protocol`.
    pub fn new(sim: FabricSim, protocol: Protocol) -> Self {
        let info = AgentInfo {
            fabric_id: sim.config.name.clone(),
            technology: sim.config.technology.clone(),
            version: format!("sim-agent/{}", env!("CARGO_PKG_VERSION")),
        };
        SimAgent {
            info,
            protocol,
            inner: Mutex::new(Inner {
                sim,
                endpoints: BTreeMap::new(),
                zones: BTreeMap::new(),
                connections: BTreeMap::new(),
                metric_names: BTreeMap::new(),
            }),
            healthy: AtomicBool::new(true),
        }
    }

    /// Flip the simulated agent-process health (tests the OFMF liveness
    /// machinery; this is the agent process dying, not the fabric).
    pub fn set_process_health(&self, healthy: bool) {
        self.healthy.store(healthy, Ordering::Release);
    }

    /// The unified-tree id of this agent's fabric.
    pub fn fabric_root(&self) -> ODataId {
        ODataId::new(top::FABRICS).child(&self.info.fabric_id)
    }

    /// The tree endpoint id for a device name (agents name endpoints
    /// `{device}-ep`).
    pub fn endpoint_id(&self, device_name: &str) -> ODataId {
        self.fabric_root()
            .child("Endpoints")
            .child(&format!("{device_name}-ep"))
    }

    /// Inject a fault directly (test/ops path mirroring
    /// [`AgentOp::InjectFault`] but typed).
    pub fn inject_fault(&self, fault: Fault) -> (usize, usize) {
        self.inner.lock().sim.inject(fault)
    }

    /// Run a read against the underlying simulator (benches/tests inspect
    /// fabric-side state — e.g. aggregate effective bandwidth — that the
    /// Redfish tree does not surface).
    pub fn with_sim<R>(&self, f: impl FnOnce(&FabricSim) -> R) -> R {
        f(&self.inner.lock().sim)
    }

    /// Remaining capacity behind a device's endpoint.
    pub fn free_capacity_of(&self, device_name: &str) -> Option<u64> {
        let inner = self.inner.lock();
        let ep = inner.sim.endpoint_by_device_name(device_name)?;
        Some(inner.sim.free_capacity(ep))
    }

    // ------------------------------------------------------- doc generation

    fn device_docs(&self, fabric: &ODataId, ep: EndpointId, inner: &Inner) -> Vec<(ODataId, Value)> {
        let dev = inner.sim.device(ep);
        let name = dev.name.clone();
        let mut docs = Vec::new();
        let eps_col = fabric.child("Endpoints");
        match &dev.kind {
            DeviceKind::ComputeNode { cores, memory_gib } => {
                let systems = ODataId::new(top::SYSTEMS);
                let sys = ComputerSystem::physical(&systems, &name, *cores, *memory_gib);
                let sys_id = systems.child(&name);
                docs.push((sys_id.clone(), sys.to_value()));
                let ep_doc = rf::Endpoint::initiator(&eps_col, &format!("{name}-ep"), self.protocol, &sys_id);
                docs.push((ep_doc.odata_id().clone(), ep_doc.to_value()));
            }
            DeviceKind::Gpu { model, .. } => {
                let chassis_col = ODataId::new(top::CHASSIS);
                let ch = Chassis::new(
                    &chassis_col,
                    &name,
                    redfish_model::resources::chassis::ChassisType::Enclosure,
                    model,
                );
                let ch_id = chassis_col.child(&name);
                docs.push((ch_id.clone(), ch.to_value()));
                let procs = ch_id.child("Processors");
                docs.push((
                    procs.clone(),
                    json!({"@odata.type": "#ProcessorCollection.ProcessorCollection", "Name": "Processors", "Members": [], "Members@odata.count": 0}),
                ));
                let gpu = Processor::gpu(&procs, &name, model);
                docs.push((gpu.odata_id().clone(), gpu.to_value()));
                let ep_doc = rf::Endpoint::target(
                    &eps_col,
                    &format!("{name}-ep"),
                    self.protocol,
                    EntityType::Accelerator,
                    &procs.child(&name),
                );
                docs.push((ep_doc.odata_id().clone(), ep_doc.to_value()));
            }
            DeviceKind::MemoryAppliance { capacity_mib } => {
                let chassis_col = ODataId::new(top::CHASSIS);
                let ch = Chassis::new(
                    &chassis_col,
                    &name,
                    redfish_model::resources::chassis::ChassisType::Enclosure,
                    "CXL-MemoryPool",
                );
                let ch_id = chassis_col.child(&name);
                docs.push((ch_id.clone(), ch.to_value()));
                let domains = ch_id.child("MemoryDomains");
                docs.push((
                    domains.clone(),
                    json!({"@odata.type": "#MemoryDomainCollection.MemoryDomainCollection", "Name": "Memory Domains", "Members": [], "Members@odata.count": 0}),
                ));
                let dom = MemoryDomain::new(&domains, "dom0", *capacity_mib);
                docs.push((dom.odata_id().clone(), dom.to_value()));
                let chunks = domains.child("dom0").child("MemoryChunks");
                docs.push((
                    chunks,
                    json!({"@odata.type": "#MemoryChunksCollection.MemoryChunksCollection", "Name": "Memory Chunks", "Members": [], "Members@odata.count": 0}),
                ));
                let ep_doc = rf::Endpoint::target(
                    &eps_col,
                    &format!("{name}-ep"),
                    self.protocol,
                    EntityType::MemoryChunk,
                    &domains.child("dom0"),
                );
                docs.push((ep_doc.odata_id().clone(), ep_doc.to_value()));
            }
            DeviceKind::NvmeSubsystem { capacity_bytes } => {
                let services = ODataId::new(top::STORAGE_SERVICES);
                let svc = StorageService::new(&services, &name);
                let svc_id = services.child(&name);
                docs.push((svc_id.clone(), svc.to_value()));
                let pools = svc_id.child("StoragePools");
                docs.push((
                    pools.clone(),
                    json!({"@odata.type": "#StoragePoolCollection.StoragePoolCollection", "Name": "Storage Pools", "Members": [], "Members@odata.count": 0}),
                ));
                let pool = StoragePool::new(&pools, "pool0", *capacity_bytes);
                docs.push((pool.odata_id().clone(), pool.to_value()));
                let vols = svc_id.child("Volumes");
                docs.push((
                    vols,
                    json!({"@odata.type": "#VolumeCollection.VolumeCollection", "Name": "Volumes", "Members": [], "Members@odata.count": 0}),
                ));
                let drives = svc_id.child("Drives");
                docs.push((
                    drives.clone(),
                    json!({"@odata.type": "#DriveCollection.DriveCollection", "Name": "Drives", "Members": [], "Members@odata.count": 0}),
                ));
                let drive =
                    redfish_model::resources::storage::Drive::ssd(&drives, &format!("{name}-d0"), *capacity_bytes);
                docs.push((drive.odata_id().clone(), drive.to_value()));
                let ep_doc = rf::Endpoint::target(
                    &eps_col,
                    &format!("{name}-ep"),
                    self.protocol,
                    EntityType::StorageSubsystem,
                    &pools.child("pool0"),
                );
                docs.push((ep_doc.odata_id().clone(), ep_doc.to_value()));
            }
        }
        docs
    }

    /// Tree ids of switch / link / device resources (used in events and
    /// telemetry translation).
    fn switch_doc_id(&self, s: SwitchId, inner: &Inner) -> ODataId {
        // ofmf-lint: allow(no-panic-path, "SwitchId was minted by this topology; ids are dense indices")
        let name = &inner.sim.topology().switches[s.index()].name;
        self.fabric_root().child("Switches").child(name)
    }

    fn port_doc_id(&self, l: LinkId, inner: &Inner) -> ODataId {
        // A link's port doc lives under the first switch it touches.
        let topo = inner.sim.topology();
        // ofmf-lint: allow(no-panic-path, "LinkId was minted by this topology; ids are dense indices")
        let edge = &topo.links[l.index()];
        let sw = match (edge.a, edge.b) {
            (fabric_sim::topology::Attach::Switch(s), _) => s,
            (_, fabric_sim::topology::Attach::Switch(s)) => s,
            _ => SwitchId(0),
        };
        self.switch_doc_id(sw, inner).child("Ports").child(&format!("p{}", l.0))
    }

    fn device_doc_id(&self, d: DeviceId, inner: &Inner) -> ODataId {
        // ofmf-lint: allow(no-panic-path, "DeviceId was minted by this topology; ids are dense indices")
        let dev = &inner.sim.topology().devices[d.index()];
        match dev.kind {
            DeviceKind::ComputeNode { .. } => ODataId::new(top::SYSTEMS).child(&dev.name),
            DeviceKind::Gpu { .. } | DeviceKind::MemoryAppliance { .. } => ODataId::new(top::CHASSIS).child(&dev.name),
            DeviceKind::NvmeSubsystem { .. } => ODataId::new(top::STORAGE_SERVICES).child(&dev.name),
        }
    }

    /// Build the connection-specific payload resource (chunk / volume) and
    /// return `(aux docs, resource link for the Connection doc)`.
    fn materialize_payload(
        &self,
        inner: &Inner,
        target: EndpointId,
        handle: u64,
        size: u64,
    ) -> (Vec<(ODataId, Value)>, Option<ODataId>) {
        let dev = inner.sim.device(target);
        match &dev.kind {
            DeviceKind::MemoryAppliance { .. } => {
                let chunks = ODataId::new(top::CHASSIS)
                    .child(&dev.name)
                    .child("MemoryDomains")
                    .child("dom0")
                    .child("MemoryChunks");
                let chunk = MemoryChunk::volatile(&chunks, &format!("chunk{handle}"), size);
                let id = chunk.odata_id().clone();
                (vec![(id.clone(), chunk.to_value())], Some(id))
            }
            DeviceKind::NvmeSubsystem { .. } => {
                let svc = ODataId::new(top::STORAGE_SERVICES).child(&dev.name);
                let vols = svc.child("Volumes");
                let pool = svc.child("StoragePools").child("pool0");
                let vol = Volume::new(&vols, &format!("vol{handle}"), size, &pool);
                let id = vol.odata_id().clone();
                (vec![(id.clone(), vol.to_value())], Some(id))
            }
            DeviceKind::Gpu { .. } => {
                let gpu = ODataId::new(top::CHASSIS)
                    .child(&dev.name)
                    .child("Processors")
                    .child(&dev.name);
                (Vec::new(), Some(gpu))
            }
            DeviceKind::ComputeNode { .. } => (Vec::new(), None),
        }
    }

    fn lookup_endpoint(inner: &Inner, id: &ODataId) -> RedfishResult<EndpointId> {
        inner
            .endpoints
            .get(id)
            .copied()
            .ok_or_else(|| RedfishError::NotFound(id.clone()))
    }

    /// One pair's probe payload — the single source for `ProbeRoute` and
    /// every `ProbeRoutes` entry, so the two can never disagree. `Conflict`
    /// when no healthy route exists.
    fn probe_payload(inner: &Inner, initiator: &ODataId, target: &ODataId) -> RedfishResult<Value> {
        let iep = Self::lookup_endpoint(inner, initiator)?;
        let tep = Self::lookup_endpoint(inner, target)?;
        let probe = inner
            .sim
            .probe_route_detailed(iep, tep)
            .ok_or_else(|| RedfishError::Conflict(format!("no healthy route {initiator} → {target}")))?;
        Ok(json!({
            "Hops": probe.path.hops(),
            "LatencyNs": probe.path.latency_ns,
            "BandwidthGbps": probe.path.bandwidth_gbps,
            "ResidualGbps": finite_or_max(probe.min_residual_gbps),
            "BlastRadius": probe.blast_radius,
        }))
    }
}

impl Agent for SimAgent {
    fn info(&self) -> AgentInfo {
        self.info.clone()
    }

    fn discover(&self) -> Vec<(ODataId, Value)> {
        let _span = ofmf_obs::Trace::begin(&agent_metrics().discover_latency);
        let mut inner = self.inner.lock();
        let fabric_root = self.fabric_root();
        let mut docs: Vec<(ODataId, Value)> = Vec::new();

        // Fabric shell + sub-collections.
        let fabric = rf::Fabric::new(&ODataId::new(top::FABRICS), &self.info.fabric_id, self.protocol);
        docs.push((fabric_root.clone(), fabric.to_value()));
        for (sub, ty) in [
            ("Switches", "#SwitchCollection.SwitchCollection"),
            ("Endpoints", "#EndpointCollection.EndpointCollection"),
            ("Zones", "#ZoneCollection.ZoneCollection"),
            ("Connections", "#ConnectionCollection.ConnectionCollection"),
            ("AddressPools", "#AddressPoolCollection.AddressPoolCollection"),
        ] {
            docs.push((
                fabric_root.child(sub),
                json!({"@odata.type": ty, "Name": sub, "Members": [], "Members@odata.count": 0}),
            ));
        }
        let pools = fabric_root.child("AddressPools");
        let pool = rf::AddressPool::new(&pools, "pool0", 0x1000, 65536);
        docs.push((pool.odata_id().clone(), pool.to_value()));

        // Switches and their ports.
        let topo = inner.sim.topology();
        let switches_col = fabric_root.child("Switches");
        for (i, sw) in topo.switches.iter().enumerate() {
            let doc = rf::Switch::new(&switches_col, &sw.name, self.protocol, sw.radix);
            let sw_id = switches_col.child(&sw.name);
            docs.push((sw_id.clone(), doc.to_value()));
            docs.push((
                sw_id.child("Ports"),
                json!({"@odata.type": "#PortCollection.PortCollection", "Name": "Ports", "Members": [], "Members@odata.count": 0}),
            ));
            for (lid, edge) in topo.links.iter().enumerate().filter(|(_, e)| {
                e.a == fabric_sim::topology::Attach::Switch(SwitchId(i as u32))
                    || e.b == fabric_sim::topology::Attach::Switch(SwitchId(i as u32))
            }) {
                // Only the canonical owner (see `port_doc_id`) publishes the
                // port so each link has exactly one port doc.
                let canonical = match (edge.a, edge.b) {
                    (fabric_sim::topology::Attach::Switch(s), _) => s,
                    (_, fabric_sim::topology::Attach::Switch(s)) => s,
                    _ => continue,
                };
                if canonical != SwitchId(i as u32) {
                    continue;
                }
                let port = rf::Port::new(
                    &sw_id.child("Ports"),
                    &format!("p{lid}"),
                    self.protocol,
                    edge.bandwidth_gbps,
                );
                docs.push((port.odata_id().clone(), port.to_value()));
            }
        }

        // Endpoints and device resources; build the translation map.
        let ep_count = topo.endpoints.len() as u32;
        let mut endpoint_map = BTreeMap::new();
        for raw in 0..ep_count {
            let ep = EndpointId(raw);
            let dev_name = inner.sim.device(ep).name.clone();
            let tree_id = self.endpoint_id(&dev_name);
            endpoint_map.insert(tree_id, ep);
        }
        for (_tree_id, ep) in endpoint_map.iter() {
            docs.extend(self.device_docs(&fabric_root, *ep, &inner));
        }
        inner.endpoints = endpoint_map;
        docs
    }

    fn apply(&self, op: &AgentOp) -> RedfishResult<AgentResponse> {
        let mut ospan = ofmf_obs::child_span("ofmf.agents.op");
        ospan.annotate("fabric", self.info.fabric_id.as_str());
        ospan.annotate("op", op.kind());
        let mut inner = self.inner.lock();
        let fabric_root = self.fabric_root();
        match op {
            AgentOp::CreateZone { zone_id, endpoints } => {
                let mut members = BTreeSet::new();
                for e in endpoints {
                    members.insert(Self::lookup_endpoint(&inner, e)?);
                }
                let zid = inner
                    .sim
                    .create_zone(zone_id, members)
                    .map_err(|e| RedfishError::BadRequest(e.to_string()))?;
                let zones_col = fabric_root.child("Zones");
                let tree_id = zones_col.child(zone_id);
                inner.zones.insert(tree_id.clone(), zid);
                let doc = rf::Zone::of_endpoints(&zones_col, zone_id, endpoints.iter().map(Link::from).collect());
                Ok(AgentResponse {
                    upserts: vec![(tree_id.clone(), doc.to_value())],
                    removals: vec![],
                    primary: Some(tree_id),
                    payload: None,
                })
            }
            AgentOp::DeleteZone { zone } => {
                let zid = *inner
                    .zones
                    .get(zone)
                    .ok_or_else(|| RedfishError::NotFound(zone.clone()))?;
                inner
                    .sim
                    .delete_zone(zid)
                    .map_err(|e| RedfishError::Conflict(e.to_string()))?;
                inner.zones.remove(zone);
                Ok(AgentResponse {
                    upserts: vec![],
                    removals: vec![zone.clone()],
                    primary: None,
                    payload: None,
                })
            }
            AgentOp::Connect {
                connection_id,
                zone,
                initiator,
                target,
                size,
                qos_gbps,
            } => {
                let zid = *inner
                    .zones
                    .get(zone)
                    .ok_or_else(|| RedfishError::NotFound(zone.clone()))?;
                let iep = Self::lookup_endpoint(&inner, initiator)?;
                let tep = Self::lookup_endpoint(&inner, target)?;
                let cid = inner
                    .sim
                    .connect_qos(connection_id, zid, iep, tep, *size, *qos_gbps)
                    .map_err(|e| match e {
                        fabric_sim::fabric::FabricError::Device(fabric_sim::device::DeviceError::Insufficient {
                            requested,
                            available,
                        }) => {
                            RedfishError::InsufficientResources(format!("requested {requested}, available {available}"))
                        }
                        other => RedfishError::Conflict(other.to_string()),
                    })?;
                let handle = inner
                    .sim
                    .connection(cid)
                    .map_err(|e| RedfishError::Conflict(format!("connection {cid:?} vanished after create: {e}")))?
                    .allocation;
                let (mut aux_docs, payload) = self.materialize_payload(&inner, tep, handle, *size);
                let cons_col = fabric_root.child("Connections");
                let tree_id = cons_col.child(connection_id);
                let conn_value = match payload.as_ref() {
                    Some(p) if aux_docs.iter().any(|(id, _)| id == p) && p.as_str().contains("MemoryChunks") => {
                        rf::Connection::memory(&cons_col, connection_id, initiator, target, p).to_value()
                    }
                    Some(p) if p.as_str().contains("/Volumes/") => {
                        rf::Connection::storage(&cons_col, connection_id, initiator, target, p).to_value()
                    }
                    Some(p) => {
                        // Accelerator / generic grant: the granted resource
                        // is referenced via Oem so clients (the composer)
                        // can still resolve it.
                        let mut c = rf::Connection::memory(&cons_col, connection_id, initiator, target, p);
                        c.connection_type = "Accelerator".to_string();
                        c.memory_chunk_info.clear();
                        let mut v = c.to_value();
                        v["Oem"] = json!({"OFMF": {"Resource": {"@odata.id": p.as_str()}}});
                        v
                    }
                    None => rf::Connection::memory(&cons_col, connection_id, initiator, target, target).to_value(),
                };
                let mut upserts = Vec::with_capacity(aux_docs.len() + 1);
                upserts.append(&mut aux_docs);
                upserts.push((tree_id.clone(), conn_value));
                inner.connections.insert(
                    tree_id.clone(),
                    ConnectionArtifacts {
                        sim_id: cid,
                        aux: upserts
                            .iter()
                            .map(|(id, _)| id.clone())
                            .filter(|id| id != &tree_id)
                            .collect(),
                    },
                );
                Ok(AgentResponse {
                    upserts,
                    removals: vec![],
                    primary: Some(tree_id),
                    payload: None,
                })
            }
            AgentOp::Disconnect { connection } => {
                let artifacts = inner
                    .connections
                    .remove(connection)
                    .ok_or_else(|| RedfishError::NotFound(connection.clone()))?;
                inner
                    .sim
                    .disconnect(artifacts.sim_id)
                    .map_err(|e| RedfishError::Conflict(e.to_string()))?;
                let mut removals = artifacts.aux;
                removals.push(connection.clone());
                Ok(AgentResponse {
                    upserts: vec![],
                    removals,
                    primary: None,
                    payload: None,
                })
            }
            AgentOp::InjectFault { description } => {
                let fault = parse_fault(description)
                    .ok_or_else(|| RedfishError::BadRequest(format!("unparseable fault '{description}'")))?;
                inner.sim.inject(fault);
                Ok(AgentResponse::default())
            }
            AgentOp::ProbeRoute { initiator, target } => {
                let mut payload = Self::probe_payload(&inner, initiator, target)?;
                payload["TopologyGeneration"] = json!(inner.sim.generation());
                Ok(AgentResponse {
                    upserts: vec![],
                    removals: vec![],
                    primary: None,
                    payload: Some(payload),
                })
            }
            AgentOp::ProbeRoutes { pairs } => {
                ospan.annotate("pairs", pairs.len().to_string());
                let generation = inner.sim.generation();
                let results: Vec<Value> = pairs
                    .iter()
                    .map(|(initiator, target)| {
                        Self::probe_payload(&inner, initiator, target)
                            .unwrap_or_else(|e| json!({"Error": e.to_string()}))
                    })
                    .collect();
                Ok(AgentResponse {
                    upserts: vec![],
                    removals: vec![],
                    primary: None,
                    payload: Some(json!({
                        "TopologyGeneration": generation,
                        "Results": results,
                    })),
                })
            }
        }
    }

    fn drain_events(&self) -> Vec<AgentEvent> {
        let mut inner = self.inner.lock();
        let raw = inner.sim.drain_events();
        let mut out = Vec::with_capacity(raw.len());
        for ev in raw {
            let translated = match ev {
                FabricEvent::LinkHealth { link, healthy } => {
                    let origin = self.port_doc_id(link, &inner);
                    let status = if healthy {
                        json!({"Status": {"State": "Enabled", "Health": "OK"}, "LinkState": "Enabled"})
                    } else {
                        json!({"Status": {"State": "Enabled", "Health": "Critical"}, "LinkState": "Disabled"})
                    };
                    AgentEvent {
                        event_type: if healthy {
                            EventType::StatusChange
                        } else {
                            EventType::Alert
                        },
                        origin: origin.clone(),
                        message: format!("link {} {}", link, if healthy { "up" } else { "down" }),
                        severity: if healthy { "OK" } else { "Critical" }.to_string(),
                        patches: vec![(origin, status)],
                        removals: vec![],
                    }
                }
                FabricEvent::SwitchHealth { switch, healthy } => {
                    let origin = self.switch_doc_id(switch, &inner);
                    let status = if healthy {
                        json!({"Status": {"State": "Enabled", "Health": "OK"}})
                    } else {
                        json!({"Status": {"State": "UnavailableOffline", "Health": "Critical"}})
                    };
                    AgentEvent {
                        event_type: if healthy {
                            EventType::StatusChange
                        } else {
                            EventType::Alert
                        },
                        origin: origin.clone(),
                        message: format!("switch {} {}", switch, if healthy { "recovered" } else { "failed" }),
                        severity: if healthy { "OK" } else { "Critical" }.to_string(),
                        patches: vec![(origin, status)],
                        removals: vec![],
                    }
                }
                FabricEvent::DeviceHealth { device, healthy } => {
                    let origin = self.device_doc_id(device, &inner);
                    let status = if healthy {
                        json!({"Status": {"State": "Enabled", "Health": "OK"}})
                    } else {
                        json!({"Status": {"State": "UnavailableOffline", "Health": "Critical"}})
                    };
                    AgentEvent {
                        event_type: if healthy {
                            EventType::StatusChange
                        } else {
                            EventType::Alert
                        },
                        origin: origin.clone(),
                        message: format!("device {} {}", device, if healthy { "recovered" } else { "failed" }),
                        severity: if healthy { "OK" } else { "Critical" }.to_string(),
                        patches: vec![(origin, status)],
                        removals: vec![],
                    }
                }
                FabricEvent::ConnectionFailedOver { connection, new_hops } => {
                    let tree_id = inner
                        .connections
                        .iter()
                        .find(|(_, a)| a.sim_id == connection)
                        .map(|(k, _)| k.clone())
                        .unwrap_or_else(|| self.fabric_root().child("Connections"));
                    AgentEvent {
                        event_type: EventType::StatusChange,
                        origin: tree_id.clone(),
                        message: format!("connection re-routed after fault; new path has {new_hops} hops"),
                        severity: "Warning".to_string(),
                        patches: vec![(tree_id, json!({"Oem": {"OFMF": {"FailoverHops": new_hops}}}))],
                        removals: vec![],
                    }
                }
                FabricEvent::ConnectionLost { connection } => {
                    let found = inner
                        .connections
                        .iter()
                        .find(|(_, a)| a.sim_id == connection)
                        .map(|(k, a)| (k.clone(), a.clone()));
                    match found {
                        Some((tree_id, artifacts)) => {
                            inner.connections.remove(&tree_id);
                            let mut removals = artifacts.aux;
                            removals.push(tree_id.clone());
                            AgentEvent {
                                event_type: EventType::Alert,
                                origin: tree_id,
                                message: "connection lost: no healthy path remains".to_string(),
                                severity: "Critical".to_string(),
                                patches: vec![],
                                removals,
                            }
                        }
                        None => AgentEvent {
                            event_type: EventType::Alert,
                            origin: self.fabric_root(),
                            message: format!("untracked connection {connection} lost"),
                            severity: "Warning".to_string(),
                            patches: vec![],
                            removals: vec![],
                        },
                    }
                }
                FabricEvent::ZoneCreated { .. } | FabricEvent::Connected { .. } | FabricEvent::Disconnected { .. } => {
                    continue
                } // already announced via apply()
            };
            out.push(translated);
        }
        out
    }

    fn sample_telemetry(&self) -> Vec<AgentMetric> {
        let mut inner = self.inner.lock();
        let samples = inner.sim.sample_telemetry();
        samples
            .into_iter()
            .map(|s| {
                let origin = match s.source {
                    Source::Switch(sw) => self.switch_doc_id(sw, &inner),
                    Source::Link(l) => self.port_doc_id(l, &inner),
                    Source::Device(d) => self.device_doc_id(d, &inner),
                };
                let metric_id = std::sync::Arc::clone(
                    inner
                        .metric_names
                        .entry(s.metric)
                        .or_insert_with(|| std::sync::Arc::from(s.metric)),
                );
                AgentMetric {
                    metric_id,
                    origin,
                    value: s.value,
                }
            })
            .collect()
    }

    fn heartbeat(&self) -> bool {
        let m = agent_metrics();
        let _span = ofmf_obs::Trace::begin(&m.heartbeat_rtt);
        let alive = self.healthy.load(Ordering::Acquire);
        if !alive {
            m.heartbeat_missed.inc();
        }
        alive
    }
}

struct AgentMetrics {
    /// `ofmf.agents.heartbeat.rtt_ns` — round-trip time of a heartbeat.
    heartbeat_rtt: std::sync::Arc<ofmf_obs::Histogram>,
    /// `ofmf.agents.heartbeat.missed` — heartbeats answered "down".
    heartbeat_missed: std::sync::Arc<ofmf_obs::Counter>,
    /// `ofmf.agents.discover.latency_ns` — full inventory walk duration.
    discover_latency: std::sync::Arc<ofmf_obs::Histogram>,
}

fn agent_metrics() -> &'static AgentMetrics {
    static METRICS: std::sync::OnceLock<AgentMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| AgentMetrics {
        heartbeat_rtt: ofmf_obs::histogram("ofmf.agents.heartbeat.rtt_ns"),
        heartbeat_missed: ofmf_obs::counter("ofmf.agents.heartbeat.missed"),
        discover_latency: ofmf_obs::histogram("ofmf.agents.discover.latency_ns"),
    })
}

/// Clamp a residual-bandwidth value to something JSON can carry: zero-hop
/// (same-endpoint) routes report `f64::INFINITY`, which serde_json would
/// encode as `null` and clients would misread as "no data".
fn finite_or_max(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// Parse `"link:3 down"`, `"switch:0 up"`, `"device:2 down"`.
fn parse_fault(s: &str) -> Option<Fault> {
    let mut parts = s.split_whitespace();
    let target = parts.next()?;
    let action = parts.next()?;
    let up = match action {
        "up" => true,
        "down" => false,
        _ => return None,
    };
    let (kind, idx) = target.split_once(':')?;
    let n: u32 = idx.parse().ok()?;
    Some(match (kind, up) {
        ("link", false) => Fault::LinkDown(LinkId(n)),
        ("link", true) => Fault::LinkUp(LinkId(n)),
        ("switch", false) => Fault::SwitchDown(SwitchId(n)),
        ("switch", true) => Fault::SwitchUp(SwitchId(n)),
        ("device", false) => Fault::DeviceDown(DeviceId(n)),
        ("device", true) => Fault::DeviceUp(DeviceId(n)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fault_grammar() {
        assert_eq!(parse_fault("link:3 down"), Some(Fault::LinkDown(LinkId(3))));
        assert_eq!(parse_fault("switch:0 up"), Some(Fault::SwitchUp(SwitchId(0))));
        assert_eq!(parse_fault("device:2 down"), Some(Fault::DeviceDown(DeviceId(2))));
        assert_eq!(parse_fault("gremlin:1 down"), None);
        assert_eq!(parse_fault("link:x down"), None);
        assert_eq!(parse_fault("link:1 sideways"), None);
        assert_eq!(parse_fault(""), None);
    }
}
