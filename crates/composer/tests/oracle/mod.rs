//! The test-side reference for `Inventory::scan`: what the scan was before
//! it followed links — one pass over every resource in the tree
//! (`Registry::for_each`), classifying each by `@odata.type`. The link
//! walk must agree with it field for field and in order.
//!
//! Where the two are *meant* to differ: this scan finds a resource by its
//! type wherever it lives, the link walk only where a Redfish client would
//! reach it. So a client-POSTed `#ComputerSystem.` outside the `Systems`
//! collection is a compute node here and is not one to the composer, and
//! likewise an `#Endpoint.` outside a fabric's `Endpoints` collection. The
//! tests that use this oracle say so where they create such a resource.
//!
//! Shared by `prop_composer.rs` and the root `tests/full_stack.rs` (which
//! includes it by path), so the tier-1 command runs it too.

use composer::inventory::{ComputePool, GpuPool, Inventory, MemoryPool, StoragePoolView};
use composer::Composer;
use redfish_model::odata::ODataId;
use redfish_model::Registry;
use std::collections::{BTreeMap, BTreeSet};

/// A full type scan of the composer's tree, its live compositions' nodes
/// excluded — what `composer.inventory()` must equal.
pub fn full_scan(composer: &Composer) -> Inventory {
    let reg = &composer.ofmf().registry;
    let bound: BTreeSet<ODataId> = composer.compositions().into_iter().map(|c| c.node).collect();
    // entity link → fabric → initiator endpoint / (fabric, target endpoint).
    // `for_each` visits in path order and the first endpoint seen is kept,
    // which is the scan's rule: the lowest endpoint id fronting an entity.
    let mut initiators: BTreeMap<ODataId, BTreeMap<String, ODataId>> = BTreeMap::new();
    let mut targets: BTreeMap<ODataId, (String, ODataId)> = BTreeMap::new();
    let mut offline: BTreeSet<ODataId> = BTreeSet::new();
    // collection → Σ MemoryChunkSizeMiB / CapacityBytes of its members.
    let mut used: BTreeMap<ODataId, u64> = BTreeMap::new();
    let mut inv = Inventory::default();

    reg.for_each(|id, node| {
        let body = &node.body;
        if body["Status"]["State"] == "UnavailableOffline" {
            offline.insert(id.clone());
        }
        let size = body["MemoryChunkSizeMiB"].as_u64().or(body["CapacityBytes"].as_u64());
        if let (Some(size), Some(collection)) = (size, id.parent()) {
            *used.entry(collection).or_default() += size;
        }
        let Some(ty) = node.odata_type() else { return };
        if ty.starts_with("#Endpoint.") {
            let fabric = redfish_model::path::fabric_id_of(id.as_str()).unwrap_or_default();
            for entity in body["ConnectedEntities"].as_array().into_iter().flatten() {
                let Some(link) = entity["EntityLink"]["@odata.id"].as_str().map(ODataId::new) else {
                    continue;
                };
                if entity["EntityRole"] == "Initiator" {
                    let on_fabric = initiators.entry(link).or_default();
                    on_fabric.entry(fabric.to_string()).or_insert_with(|| id.clone());
                } else {
                    targets.entry(link).or_insert_with(|| (fabric.to_string(), id.clone()));
                }
            }
        } else if ty.starts_with("#ComputerSystem.") {
            let state = body["Status"]["State"].as_str().unwrap_or("Enabled");
            if body["SystemType"] == "Physical" && !bound.contains(id) && ["Enabled", "StandbyOffline"].contains(&state)
            {
                inv.compute.push(ComputePool {
                    system: id.clone(),
                    cores: body["ProcessorSummary"]["CoreCount"].as_u64().unwrap_or(0) as u32,
                    memory_gib: body["MemorySummary"]["TotalSystemMemoryGiB"].as_u64().unwrap_or(0),
                    endpoints: BTreeMap::new(),
                });
            }
        } else if ty.starts_with("#MemoryDomain.") {
            inv.memory.push(MemoryPool {
                fabric: String::new(),
                endpoint: id.clone(),
                domain: id.clone(),
                total_mib: body["MemorySizeMiB"].as_u64().unwrap_or(0),
                free_mib: 0,
            });
        } else if ty.starts_with("#Processor.") && body["ProcessorType"] == "GPU" {
            inv.gpus.push(GpuPool {
                fabric: String::new(),
                endpoint: id.clone(),
                processor: id.clone(),
                assigned: body["Oem"]["OFMF"]["AssignedTo"].is_string(),
            });
        } else if ty.starts_with("#StoragePool.") {
            inv.storage.push(StoragePoolView {
                fabric: String::new(),
                endpoint: id.clone(),
                pool: id.clone(),
                total_bytes: body["Capacity"]["GuaranteedBytes"].as_u64().unwrap_or(0),
                free_bytes: 0,
            });
        }
    });

    // Second half, over what the pass collected: join each pool to the
    // endpoint fronting it, inherit `UnavailableOffline` from any ancestor,
    // subtract what is carved.
    let is_offline =
        |id: &ODataId| std::iter::successors(Some(id.clone()), ODataId::parent).any(|c| offline.contains(&c));
    let used_in = |collection: ODataId| used.get(&collection).copied().unwrap_or(0);
    for node in &mut inv.compute {
        node.endpoints = initiators.remove(&node.system).unwrap_or_default();
    }
    inv.memory.retain_mut(|m| {
        let Some((fabric, endpoint)) = targets.get(&m.domain).cloned() else {
            return false;
        };
        (m.fabric, m.endpoint) = (fabric, endpoint);
        m.free_mib = m.total_mib.saturating_sub(used_in(m.domain.child("MemoryChunks")));
        !is_offline(&m.domain)
    });
    inv.gpus.retain_mut(|g| {
        let Some((fabric, endpoint)) = targets.get(&g.processor).cloned() else {
            return false;
        };
        (g.fabric, g.endpoint) = (fabric, endpoint);
        g.assigned |= is_offline(&g.processor);
        true
    });
    inv.storage.retain_mut(|s| {
        let Some((fabric, endpoint)) = targets.get(&s.pool).cloned() else {
            return false;
        };
        let Some(service) = s.pool.parent().and_then(|pools| pools.parent()) else {
            return false;
        };
        (s.fabric, s.endpoint) = (fabric, endpoint);
        s.free_bytes = s.total_bytes.saturating_sub(used_in(service.child("Volumes")));
        !is_offline(&s.pool)
    });
    inv
}

/// `n` client chassis that no endpoint links to.
pub fn add_unrelated_chassis(reg: &Registry, n: usize) {
    let chassis = ODataId::new(redfish_model::path::top::CHASSIS);
    for i in 0..n {
        let body = serde_json::json!({"@odata.type": "#Chassis.v1_25_0.Chassis", "Name": "client"});
        reg.create(&chassis.child(&format!("client{i:04}")), body).unwrap();
    }
}

/// `Inventory` has no `PartialEq`; compare list by list so a failure names
/// the pool class that diverged.
pub fn assert_same(walked: &Inventory, scanned: &Inventory, when: &str) {
    assert_eq!(walked.compute, scanned.compute, "compute nodes {when}");
    assert_eq!(walked.memory, scanned.memory, "memory pools {when}");
    assert_eq!(walked.gpus, scanned.gpus, "GPUs {when}");
    assert_eq!(walked.storage, scanned.storage, "storage pools {when}");
}
