//! A live inventory of composable pools, read from the unified tree.
//!
//! The tree is the single source of truth (what an agent published is what
//! exists), so the inventory is recomputed on every call — by following the
//! links a Redfish client would: `Fabrics` members → each fabric's
//! `Endpoints` members → each `ConnectedEntities[].EntityLink`. An
//! initiator's link names its compute node; a target's is classified by the
//! linked resource's own `@odata.type` (`#MemoryDomain.`, GPU `#Processor.`,
//! `#StoragePool.`). Compute nodes are the `Systems` members. Reads borrow
//! the stored document ([`Registry::read`]); only result ids are cloned.
//!
//! The work is O(endpoints + systems + pools): a resource that is none of
//! those (a client's 2 000 chassis, sessions, log entries) is never visited,
//! and one no link reaches (a `#ComputerSystem.` outside `Systems`) is not
//! composable. No type index and no cached inventory, on purpose: an index
//! taxes every create, delete, boot and WAL replay for a rare control-plane
//! call, and a cache needs invalidating from every publish, PATCH and unmount.

use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::registry::StoredResource;
use redfish_model::Registry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A compute node available for composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePool {
    /// The `ComputerSystem` resource id.
    pub system: ODataId,
    /// Physical cores.
    pub cores: u32,
    /// Local memory (GiB).
    pub memory_gib: u64,
    /// Fabric endpoints of this node: fabric id → endpoint resource id.
    pub endpoints: BTreeMap<String, ODataId>,
}

/// A fabric-memory target with free capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPool {
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// The `MemoryDomain` resource id.
    pub domain: ODataId,
    /// Total capacity (MiB).
    pub total_mib: u64,
    /// Free capacity (MiB) = total − chunks already carved.
    pub free_mib: u64,
}

/// A pooled GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPool {
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// The `Processor` resource id.
    pub processor: ODataId,
    /// Whether a grant already exists (tracked via `Oem.OFMF.AssignedTo`).
    pub assigned: bool,
}

/// An NVMe-oF storage pool with free bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePoolView {
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// The Swordfish `StoragePool` resource id.
    pub pool: ODataId,
    /// Total bytes.
    pub total_bytes: u64,
    /// Free bytes = total − volumes already provisioned.
    pub free_bytes: u64,
}

/// Snapshot of every composable pool.
#[derive(Debug, Clone, Default)]
pub struct Inventory {
    /// Free compute nodes (systems not yet bound to a composition).
    pub compute: Vec<ComputePool>,
    /// Fabric memory targets.
    pub memory: Vec<MemoryPool>,
    /// Pooled GPUs.
    pub gpus: Vec<GpuPool>,
    /// Storage pools.
    pub storage: Vec<StoragePoolView>,
}

/// Whether `id` or any of its ancestors reports `UnavailableOffline`
/// (agents mark the failed *device* resource — e.g. the chassis of a dead
/// memory appliance — so pool resources underneath inherit the state).
fn offline(reg: &Registry, id: &ODataId) -> bool {
    let down = |s: &StoredResource| s.body["Status"]["State"] == "UnavailableOffline";
    std::iter::successors(Some(id.clone()), ODataId::parent).any(|c| reg.read(&c, down).unwrap_or(false))
}

/// Σ of the `size_member` of every member of `collection` (the chunks
/// carved from a domain, the volumes provisioned in a storage service).
fn used(reg: &Registry, collection: &ODataId, size_member: &str) -> u64 {
    let size = |m: &ODataId| reg.read(m, |s| s.body.get(size_member)?.as_u64()).ok().flatten();
    let members = reg.members(collection).unwrap_or_default();
    members.iter().filter_map(size).sum()
}

/// What the endpoints of every fabric front, keyed by entity link. Where
/// several endpoints front one entity the lowest endpoint id wins, whatever
/// order the collections list their members in.
#[derive(Default)]
pub(crate) struct EndpointLinks {
    /// Compute node → fabric id → its initiator endpoint on that fabric.
    pub(crate) initiators: HashMap<ODataId, BTreeMap<String, ODataId>>,
    /// Pool resource → (fabric id, target endpoint), in path order.
    targets: BTreeMap<ODataId, (String, ODataId)>,
}

impl EndpointLinks {
    /// Follow `Fabrics` → `Endpoints` → `ConnectedEntities` once.
    pub(crate) fn walk(reg: &Registry) -> EndpointLinks {
        let mut links = EndpointLinks::default();
        for fabric in reg.members(&ODataId::new(top::FABRICS)).unwrap_or_default() {
            for ep in reg.members(&fabric.child("Endpoints")).unwrap_or_default() {
                let _ = reg.read(&ep, |stored| links.note(fabric.leaf(), &ep, stored));
            }
        }
        links
    }

    fn note(&mut self, fabric: &str, ep: &ODataId, stored: &StoredResource) {
        for entity in stored.body["ConnectedEntities"].as_array().into_iter().flatten() {
            let Some(link) = entity["EntityLink"]["@odata.id"].as_str().map(ODataId::new) else {
                continue;
            };
            if entity["EntityRole"] == "Initiator" {
                let on_fabric = self.initiators.entry(link).or_default();
                let known = on_fabric.entry(fabric.to_string()).or_insert_with(|| ep.clone());
                if ep < known {
                    *known = ep.clone();
                }
            } else {
                let fronting = || (fabric.to_string(), ep.clone());
                let known = self.targets.entry(link).or_insert_with(fronting);
                if *ep < known.1 {
                    *known = fronting();
                }
            }
        }
    }
}

/// The fabric endpoints of one compute node: fabric id → endpoint id.
pub(crate) fn endpoints_of(ofmf: &Ofmf, node: &ODataId) -> BTreeMap<String, ODataId> {
    let mut links = EndpointLinks::walk(&ofmf.registry);
    links.initiators.remove(node).unwrap_or_default()
}

/// What a target's entity link turned out to be: a domain's `MemorySizeMiB`,
/// whether a GPU is granted (`Oem.OFMF.AssignedTo`), or a storage pool's
/// `Capacity.GuaranteedBytes`.
enum Pool {
    Memory(u64),
    Gpu(bool),
    Storage(u64),
}

fn classify(stored: &StoredResource) -> Option<Pool> {
    let (ty, body) = (stored.odata_type()?, &stored.body);
    if ty.starts_with("#MemoryDomain.") {
        Some(Pool::Memory(body["MemorySizeMiB"].as_u64().unwrap_or(0)))
    } else if ty.starts_with("#Processor.") && body["ProcessorType"] == "GPU" {
        Some(Pool::Gpu(body["Oem"]["OFMF"]["AssignedTo"].is_string()))
    } else if ty.starts_with("#StoragePool.") {
        Some(Pool::Storage(body["Capacity"]["GuaranteedBytes"].as_u64().unwrap_or(0)))
    } else {
        None
    }
}

/// `(cores, memory GiB)` of a system that can host a composition: a
/// physical `ComputerSystem`, powered or in standby.
fn free_node(stored: &StoredResource) -> Option<(u32, u64)> {
    let body = &stored.body;
    let state = body["Status"]["State"].as_str().unwrap_or("Enabled");
    let usable = stored.odata_type()?.starts_with("#ComputerSystem.")
        && body["SystemType"] == "Physical"
        && (state == "Enabled" || state == "StandbyOffline");
    let cores = body["ProcessorSummary"]["CoreCount"].as_u64().unwrap_or(0) as u32;
    let memory_gib = body["MemorySummary"]["TotalSystemMemoryGiB"].as_u64().unwrap_or(0);
    usable.then_some((cores, memory_gib))
}

impl Inventory {
    /// Read the tree by following links (see the module doc). `bound` are
    /// the systems the composer already assigned (excluded from the free
    /// compute list). Every list is in path order.
    pub fn scan(ofmf: &Ofmf, bound: &BTreeSet<ODataId>) -> Inventory {
        let reg = &ofmf.registry;
        let mut inv = Inventory::default();
        let mut links = EndpointLinks::walk(reg);

        for system in reg.members(&ODataId::new(top::SYSTEMS)).unwrap_or_default() {
            if bound.contains(&system) {
                continue;
            }
            if let Ok(Some((cores, memory_gib))) = reg.read(&system, free_node) {
                let endpoints = links.initiators.remove(&system).unwrap_or_default();
                inv.compute.push(ComputePool {
                    system,
                    cores,
                    memory_gib,
                    endpoints,
                });
            }
        }
        inv.compute.sort_by(|a, b| a.system.cmp(&b.system));

        for (resource, (fabric, endpoint)) in links.targets {
            match reg.read(&resource, classify) {
                // Free = size − Σ chunk sizes.
                Ok(Some(Pool::Memory(total_mib))) if !offline(reg, &resource) => {
                    let carved = used(reg, &resource.child("MemoryChunks"), "MemoryChunkSizeMiB");
                    inv.memory.push(MemoryPool {
                        fabric,
                        endpoint,
                        domain: resource,
                        total_mib,
                        free_mib: total_mib.saturating_sub(carved),
                    });
                }
                Ok(Some(Pool::Gpu(granted))) => inv.gpus.push(GpuPool {
                    fabric,
                    endpoint,
                    assigned: granted || offline(reg, &resource),
                    processor: resource,
                }),
                // Free = guaranteed − Σ volume capacities in the owning
                // service: /redfish/v1/StorageServices/{svc}/StoragePools/{pool}
                Ok(Some(Pool::Storage(total_bytes))) if !offline(reg, &resource) => {
                    let Some(service) = resource.parent().and_then(|pools| pools.parent()) else {
                        continue;
                    };
                    let provisioned = used(reg, &service.child("Volumes"), "CapacityBytes");
                    inv.storage.push(StoragePoolView {
                        fabric,
                        endpoint,
                        pool: resource,
                        total_bytes,
                        free_bytes: total_bytes.saturating_sub(provisioned),
                    });
                }
                _ => {}
            }
        }
        inv
    }

    /// Total free fabric memory across pools (MiB).
    pub fn free_memory_mib(&self) -> u64 {
        self.memory.iter().map(|m| m.free_mib).sum()
    }

    /// Number of unassigned GPUs.
    pub fn free_gpus(&self) -> usize {
        self.gpus.iter().filter(|g| !g.assigned).count()
    }

    /// Total free storage bytes across pools.
    pub fn free_storage_bytes(&self) -> u64 {
        self.storage.iter().map(|s| s.free_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn rig() -> Arc<Ofmf> {
        let o = Ofmf::new("inv-uuid", HashMap::new(), 5);
        let shape = RackShape::default();
        o.register_agent(Arc::new(cxl_agent("CXL0", &shape, 1 << 20, 1)))
            .unwrap();
        o.register_agent(Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, 2)))
            .unwrap();
        o.register_agent(Arc::new(infiniband_agent("IB0", &shape, "A100", 3)))
            .unwrap();
        o
    }

    #[test]
    fn scan_finds_all_pool_classes() {
        let o = rig();
        let inv = Inventory::scan(&o, &BTreeSet::new());
        assert_eq!(inv.compute.len(), 4, "4 shared compute nodes");
        assert_eq!(inv.memory.len(), 2, "2 CXL appliances");
        assert_eq!(inv.gpus.len(), 2, "2 pooled GPUs");
        assert_eq!(inv.storage.len(), 2, "2 NVMe pools");
        assert_eq!(inv.free_memory_mib(), 2 << 20);
        assert_eq!(inv.free_gpus(), 2);
        assert_eq!(inv.free_storage_bytes(), 2 << 40);
        // Compute nodes carry endpoints on all three fabrics.
        assert_eq!(inv.compute[0].endpoints.len(), 3);
    }

    #[test]
    fn bound_systems_are_excluded() {
        let o = rig();
        let all = Inventory::scan(&o, &BTreeSet::new());
        let bound = BTreeSet::from([all.compute[0].system.clone()]);
        let inv = Inventory::scan(&o, &bound);
        assert_eq!(inv.compute.len(), 3);
        assert!(!inv.compute.iter().any(|c| bound.contains(&c.system)));
    }

    #[test]
    fn chunk_consumption_reduces_free_memory() {
        let o = rig();
        // Carve a 1024 MiB chunk through the real path.
        let zones = ODataId::new("/redfish/v1/Fabrics/CXL0/Zones");
        let zone = o
            .post(
                &zones,
                &serde_json::json!({"Links": {"Endpoints": [
                    {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"},
                    {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
                ]}}),
            )
            .unwrap();
        o.post(
            &ODataId::new("/redfish/v1/Fabrics/CXL0/Connections"),
            &serde_json::json!({
                "Id": "c1",
                "Zone": {"@odata.id": zone.as_str()},
                "Size": 1024,
                "Links": {
                    "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"}],
                    "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
                }
            }),
        )
        .unwrap();
        let inv = Inventory::scan(&o, &BTreeSet::new());
        assert_eq!(inv.free_memory_mib(), (2 << 20) - 1024);
        let mem00 = inv.memory.iter().find(|m| m.domain.as_str().contains("mem00")).unwrap();
        assert_eq!(mem00.free_mib, (1 << 20) - 1024);
    }

    #[test]
    fn offline_domains_are_skipped() {
        let o = rig();
        o.registry
            .patch(
                &ODataId::new("/redfish/v1/Chassis/mem00/MemoryDomains/dom0"),
                &serde_json::json!({"Status": {"State": "UnavailableOffline"}}),
                None,
            )
            .unwrap();
        let inv = Inventory::scan(&o, &BTreeSet::new());
        assert_eq!(inv.memory.len(), 1);
    }

    /// One endpoint fronting two entities keeps both: the maps are keyed by
    /// entity link, not by endpoint id (where the second entity used to
    /// overwrite the first).
    #[test]
    fn endpoint_with_two_connected_entities_fronts_both() {
        let o = rig();
        let ep = ODataId::new("/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep");
        let entity = |link: &str| serde_json::json!({"EntityRole": "Target", "EntityLink": {"@odata.id": link}});
        o.registry
            .patch(
                &ep,
                &serde_json::json!({"ConnectedEntities": [
                    entity("/redfish/v1/Chassis/mem00/MemoryDomains/dom0"),
                    entity("/redfish/v1/Chassis/mem01/MemoryDomains/dom0"),
                ]}),
                None,
            )
            .unwrap();
        let inv = Inventory::scan(&o, &BTreeSet::new());
        assert_eq!(inv.memory.len(), 2);
        // mem01's own endpoint sorts after mem00-ep, so the shared one wins.
        assert!(inv.memory.iter().all(|m| m.endpoint == ep), "{:?}", inv.memory);
    }
}
