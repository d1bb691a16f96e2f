//! End-to-end Composability Manager tests over live agents.

use composer::request::BindingKind;
use composer::{Composer, CompositionRequest, Strategy};
use fabric_sim::failure::Fault;
use fabric_sim::ids::SwitchId;
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use redfish_model::RedfishError;
use std::collections::HashMap;
use std::sync::Arc;

fn rig() -> (Arc<Ofmf>, Arc<ofmf_agents::SimAgent>) {
    let o = Ofmf::new("comp-uuid", HashMap::new(), 5);
    let shape = RackShape::default();
    let cxl = Arc::new(cxl_agent("CXL0", &shape, 1 << 20, 1));
    o.register_agent(Arc::clone(&cxl) as Arc<dyn ofmf_core::Agent>).unwrap();
    o.register_agent(Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, 2)))
        .unwrap();
    o.register_agent(Arc::new(infiniband_agent("IB0", &shape, "A100", 3)))
        .unwrap();
    (o, cxl)
}

#[test]
fn compose_full_system_and_decompose() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    let req = CompositionRequest::compute_only("job42", 32, 64)
        .with_fabric_memory_mib(128 * 1024)
        .with_gpus(1)
        .with_storage_bytes(1 << 39);
    let composed = c.compose(&req).unwrap();

    assert_eq!(composed.bound_memory_mib(), 128 * 1024);
    assert_eq!(composed.bound_gpus(), 1);
    assert_eq!(composed.bound_storage_bytes(), 1 << 39);
    assert!(o.registry.exists(&composed.system));
    let doc = o.registry.get(&composed.system).unwrap().body;
    assert_eq!(doc["SystemType"], "Composed");
    // 128 local + 128 fabric GiB.
    assert_eq!(doc["MemorySummary"]["TotalSystemMemoryGiB"], 128 + 128);
    // Resource block links point at real resources.
    for l in doc["Links"]["ResourceBlocks"].as_array().unwrap() {
        let id = ODataId::new(l["@odata.id"].as_str().unwrap());
        assert!(o.registry.exists(&id), "{id} missing");
    }
    // GPU marked assigned.
    let gpu_binding = composed.bindings.iter().find(|b| b.kind == BindingKind::Gpu).unwrap();
    let gpu_doc = o.registry.get(&gpu_binding.resource).unwrap().body;
    assert_eq!(gpu_doc["Oem"]["OFMF"]["AssignedTo"], composed.system.as_str());

    // Inventory reflects the consumption.
    let inv = c.inventory();
    assert_eq!(inv.compute.len(), 3, "one node bound");
    assert_eq!(inv.free_memory_mib(), (2 << 20) - 128 * 1024);
    assert_eq!(inv.free_gpus(), 1);

    // Decompose returns everything.
    c.decompose(&composed.system).unwrap();
    assert!(!o.registry.exists(&composed.system));
    let inv = c.inventory();
    assert_eq!(inv.compute.len(), 4);
    assert_eq!(inv.free_memory_mib(), 2 << 20);
    assert_eq!(inv.free_gpus(), 2);
    assert_eq!(inv.free_storage_bytes(), 2 << 40);
}

#[test]
fn insufficient_memory_rolls_back_cleanly() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    // More memory than both appliances together.
    let req = CompositionRequest::compute_only("greedy", 8, 8).with_fabric_memory_mib(3 << 20);
    let err = c.compose(&req).unwrap_err();
    assert_eq!(err.http_status(), 507);
    // Nothing leaked: no zones/connections remain on CXL0.
    let zones = o
        .registry
        .members(&ODataId::new("/redfish/v1/Fabrics/CXL0/Zones"))
        .unwrap();
    assert!(zones.is_empty());
    assert_eq!(c.inventory().free_memory_mib(), 2 << 20);
}

#[test]
fn gpu_exhaustion_rolls_back_memory_binding() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    // 3 GPUs requested but only 2 exist: memory must be released again.
    let req = CompositionRequest::compute_only("gpuhog", 8, 8)
        .with_fabric_memory_mib(1024)
        .with_gpus(3);
    assert_eq!(c.compose(&req).unwrap_err().http_status(), 507);
    assert_eq!(c.inventory().free_memory_mib(), 2 << 20, "memory binding rolled back");
    let cons = o
        .registry
        .members(&ODataId::new("/redfish/v1/Fabrics/CXL0/Connections"))
        .unwrap();
    assert!(cons.is_empty());
}

#[test]
fn spread_memory_uses_multiple_appliances() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    // 1.5x one appliance's capacity, spread allowed.
    let req = CompositionRequest::compute_only("spread", 8, 8)
        .with_fabric_memory_mib((1 << 20) + (1 << 19))
        .with_spread_memory();
    let composed = c.compose(&req).unwrap();
    let mem_bindings: Vec<_> = composed
        .bindings
        .iter()
        .filter(|b| b.kind == BindingKind::Memory)
        .collect();
    assert_eq!(mem_bindings.len(), 2, "two appliances used");
    let domains: std::collections::BTreeSet<&str> = mem_bindings.iter().map(|b| b.resource.as_str()).collect();
    assert_eq!(domains.len(), 2, "chunks on distinct appliances");
    assert_eq!(composed.bound_memory_mib(), (1 << 20) + (1 << 19));
}

#[test]
fn grow_memory_oom_mitigation() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::BestFit);
    let composed = c
        .compose(&CompositionRequest::compute_only("job1", 8, 8).with_fabric_memory_mib(1024))
        .unwrap();
    let before = o.registry.get(&composed.system).unwrap().body["MemorySummary"]["TotalSystemMemoryGiB"]
        .as_u64()
        .unwrap();
    c.grow_memory(&composed.system, 64 * 1024).unwrap();
    let after = o.registry.get(&composed.system).unwrap().body["MemorySummary"]["TotalSystemMemoryGiB"]
        .as_u64()
        .unwrap();
    assert_eq!(after, before + 64);
    let live = c.find(&composed.system).unwrap();
    assert_eq!(live.bound_memory_mib(), 1024 + 64 * 1024);
    // Growth of a non-existent composition fails.
    assert!(matches!(
        c.grow_memory(&ODataId::new("/redfish/v1/Systems/ghost"), 1),
        Err(RedfishError::NotFound(_))
    ));
}

#[test]
fn attach_storage_io_mitigation() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    let composed = c.compose(&CompositionRequest::compute_only("job1", 8, 8)).unwrap();
    c.attach_storage(&composed.system, 1 << 38).unwrap();
    let live = c.find(&composed.system).unwrap();
    assert_eq!(live.bound_storage_bytes(), 1 << 38);
    // A volume document exists.
    let vols = o
        .registry
        .members(&ODataId::new("/redfish/v1/StorageServices/nvme00/Volumes"))
        .unwrap();
    assert_eq!(vols.len(), 1);
}

#[test]
fn reconcile_rebinds_lost_memory() {
    let (o, cxl) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    let composed = c
        .compose(&CompositionRequest::compute_only("job1", 8, 8).with_fabric_memory_mib(2048))
        .unwrap();
    let mem = composed
        .bindings
        .iter()
        .find(|b| b.kind == BindingKind::Memory)
        .unwrap()
        .clone();

    // Kill every switch so the connection is lost, then restore so the
    // rebind has paths to work with.
    let n_switches = { 4 }; // 2 spines + 2 leaves
    for s in 0..n_switches {
        cxl.inject_fault(Fault::SwitchDown(SwitchId(s)));
    }
    o.poll(); // agent reports the lost connection; docs removed
    assert!(!o.registry.exists(&mem.connection), "connection doc removed");
    for s in 0..n_switches {
        cxl.inject_fault(Fault::SwitchUp(SwitchId(s)));
    }
    o.poll();

    let (repaired, lost) = c.reconcile();
    assert_eq!((repaired, lost), (1, 0));
    let live = c.find(&composed.system).unwrap();
    assert_eq!(live.bound_memory_mib(), 2048, "same capacity rebound");
    assert!(live.bindings.iter().all(|b| o.registry.exists(&b.connection)));
}

#[test]
fn compositions_are_isolated() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    let a = c
        .compose(&CompositionRequest::compute_only("a", 8, 8).with_fabric_memory_mib(1024))
        .unwrap();
    let b = c
        .compose(&CompositionRequest::compute_only("b", 8, 8).with_fabric_memory_mib(1024))
        .unwrap();
    assert_ne!(a.node, b.node, "distinct physical nodes");
    c.decompose(&a.system).unwrap();
    // b untouched.
    let live = c.find(&b.system).unwrap();
    assert!(o.registry.exists(&live.bindings[0].connection));
}

#[test]
fn qos_reservations_gate_composition() {
    let (o, _) = rig();
    let c = Composer::new(Arc::clone(&o), Strategy::FirstFit);
    // CXL access links are 256 G: a 200 G reservation fits…
    let a = c
        .compose(
            &CompositionRequest::compute_only("qos-a", 8, 8)
                .with_fabric_memory_mib(1024)
                .with_memory_bandwidth_gbps(200.0),
        )
        .unwrap();
    // …but a second 200 G to the *same* appliance from another node still
    // fits (different access links), while an absurd reservation fails
    // cleanly and rolls back.
    let err = c
        .compose(
            &CompositionRequest::compute_only("qos-hog", 8, 8)
                .with_fabric_memory_mib(1024)
                .with_memory_bandwidth_gbps(10_000.0),
        )
        .unwrap_err();
    assert!(err.http_status() == 409 || err.http_status() == 507, "{err}");
    // No leaked zones from the failed attempt (only qos-a's one binding).
    let zones = o
        .registry
        .members(&redfish_model::odata::ODataId::new("/redfish/v1/Fabrics/CXL0/Zones"))
        .unwrap();
    assert_eq!(zones.len(), 1);
    c.decompose(&a.system).unwrap();
}

#[test]
fn all_strategies_compose_successfully() {
    for strategy in Strategy::ALL {
        let (o, _) = rig();
        let c = Composer::new(Arc::clone(&o), strategy);
        let req = CompositionRequest::compute_only("s", 8, 8)
            .with_fabric_memory_mib(4096)
            .with_gpus(1);
        let composed = c.compose(&req).unwrap();
        assert_eq!(composed.bound_memory_mib(), 4096, "{strategy:?}");
        c.decompose(&composed.system).unwrap();
    }
}

/// Picking a free node and marking it taken is one critical section: N
/// threads racing for M < N×k free nodes never share one, exactly M
/// composes succeed and every loser is refused with 507.
#[test]
fn concurrent_composes_never_share_a_node() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 3;
    for round in 0..8 {
        let (o, _) = rig();
        let c = Composer::new(Arc::clone(&o), Strategy::TopologyAware);
        let free_nodes = c.inventory().compute.len();
        assert!(free_nodes < THREADS * PER_THREAD);
        // Every thread is past the barrier before any compose starts, so
        // their inventory reads overlap.
        let start = std::sync::Barrier::new(THREADS);
        let outcomes: Vec<Result<ODataId, RedfishError>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (c, start) = (&c, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..PER_THREAD)
                            .map(|i| {
                                let req = CompositionRequest::compute_only(&format!("r{round}-t{t}-{i}"), 8, 8)
                                    .with_fabric_memory_mib(1024);
                                c.compose(&req).map(|composed| composed.node)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("compose thread"))
                .collect()
        });
        let nodes: Vec<&ODataId> = outcomes.iter().filter_map(|r| r.as_ref().ok()).collect();
        let distinct: std::collections::BTreeSet<&ODataId> = nodes.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            nodes.len(),
            "round {round}: a node was double-booked: {nodes:?}"
        );
        assert_eq!(
            nodes.len(),
            free_nodes,
            "round {round}: every free node is used exactly once"
        );
        for refused in outcomes.iter().filter_map(|r| r.as_ref().err()) {
            assert_eq!(refused.http_status(), 507, "round {round}: {refused}");
        }
        assert!(c.inventory().compute.is_empty());
        // The reservations of the refused and the committed are all released:
        // decomposing everything frees every node again.
        for composed in c.compositions() {
            c.decompose(&composed.system).unwrap();
        }
        assert_eq!(c.inventory().compute.len(), free_nodes);
        assert_eq!(c.inventory().free_memory_mib(), 2 << 20);
        assert!(o.registry.dangling_links().is_empty());
    }
}
