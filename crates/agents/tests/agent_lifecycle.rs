//! Integration tests: agents registered into a live OFMF, zone/connection
//! lifecycle, fault propagation, telemetry flow.

use fabric_sim::failure::Fault;
use fabric_sim::ids::SwitchId;
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::agent::AgentOp;
use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use redfish_model::resources::events::EventType;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;

fn ofmf() -> Arc<Ofmf> {
    Ofmf::new("it-uuid", HashMap::new(), 99)
}

fn shape() -> RackShape {
    RackShape::default()
}

#[test]
fn cxl_compose_memory_end_to_end() {
    let o = ofmf();
    let agent = Arc::new(cxl_agent("CXL0", &shape(), 1 << 20, 7));
    o.register_agent(Arc::clone(&agent) as Arc<dyn ofmf_core::Agent>)
        .unwrap();

    // Tree contains the mounted inventory with intact links.
    assert!(o.registry.exists(&ODataId::new("/redfish/v1/Systems/cn00")));
    assert!(o
        .registry
        .exists(&ODataId::new("/redfish/v1/Chassis/mem00/MemoryDomains/dom0")));

    // Create a zone over cn00 + mem00 via the north-bound POST.
    let zones = ODataId::new("/redfish/v1/Fabrics/CXL0/Zones");
    let zone = o
        .post(
            &zones,
            &json!({
                "Id": "jobzone",
                "Links": {"Endpoints": [
                    {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"},
                    {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
                ]}
            }),
        )
        .unwrap();
    assert!(o.registry.exists(&zone));

    // Connect 64 GiB of fabric memory to cn00.
    let cons = ODataId::new("/redfish/v1/Fabrics/CXL0/Connections");
    let conn = o
        .post(
            &cons,
            &json!({
                "Id": "c1",
                "Zone": {"@odata.id": zone.as_str()},
                "Size": 64 * 1024,
                "Links": {
                    "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"}],
                    "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
                }
            }),
        )
        .unwrap();
    assert!(o.registry.exists(&conn));
    // A MemoryChunk materialized under the appliance.
    let chunks = o
        .registry
        .members(&ODataId::new(
            "/redfish/v1/Chassis/mem00/MemoryDomains/dom0/MemoryChunks",
        ))
        .unwrap();
    assert_eq!(chunks.len(), 1);
    let chunk = o.registry.get(&chunks[0]).unwrap().body;
    assert_eq!(chunk["MemoryChunkSizeMiB"], 64 * 1024);
    assert_eq!(agent.free_capacity_of("mem00"), Some((1 << 20) - 64 * 1024));

    // Disconnect releases the chunk and the doc.
    o.delete(&conn).unwrap();
    assert!(!o.registry.exists(&conn));
    assert!(!o.registry.exists(&chunks[0]));
    assert_eq!(agent.free_capacity_of("mem00"), Some(1 << 20));

    // Zone can now be deleted.
    o.delete(&zone).unwrap();
    assert!(!o.registry.exists(&zone));
}

#[test]
fn nvmeof_connect_materializes_volume() {
    let o = ofmf();
    let agent = Arc::new(nvmeof_agent("NVME0", &shape(), 1 << 40, 7));
    o.register_agent(agent).unwrap();

    let zones = ODataId::new("/redfish/v1/Fabrics/NVME0/Zones");
    let zone = o
        .post(
            &zones,
            &json!({"Links": {"Endpoints": [
                {"@odata.id": "/redfish/v1/Fabrics/NVME0/Endpoints/cn01-ep"},
                {"@odata.id": "/redfish/v1/Fabrics/NVME0/Endpoints/nvme00-ep"},
            ]}}),
        )
        .unwrap();
    let cons = ODataId::new("/redfish/v1/Fabrics/NVME0/Connections");
    o.post(
        &cons,
        &json!({
            "Id": "ns1",
            "Zone": {"@odata.id": zone.as_str()},
            "Size": 500_000_000_000u64,
            "Links": {
                "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/NVME0/Endpoints/cn01-ep"}],
                "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/NVME0/Endpoints/nvme00-ep"}],
            }
        }),
    )
    .unwrap();
    let vols = o
        .registry
        .members(&ODataId::new("/redfish/v1/StorageServices/nvme00/Volumes"))
        .unwrap();
    assert_eq!(vols.len(), 1);
    assert_eq!(
        o.registry.get(&vols[0]).unwrap().body["CapacityBytes"],
        500_000_000_000u64
    );
}

#[test]
fn gpu_grant_is_exclusive() {
    let o = ofmf();
    o.register_agent(Arc::new(infiniband_agent("IB0", &shape(), "A100", 7)))
        .unwrap();
    let zones = ODataId::new("/redfish/v1/Fabrics/IB0/Zones");
    let zone = o
        .post(
            &zones,
            &json!({"Links": {"Endpoints": [
                {"@odata.id": "/redfish/v1/Fabrics/IB0/Endpoints/cn00-ep"},
                {"@odata.id": "/redfish/v1/Fabrics/IB0/Endpoints/cn01-ep"},
                {"@odata.id": "/redfish/v1/Fabrics/IB0/Endpoints/gpu00-ep"},
            ]}}),
        )
        .unwrap();
    let cons = ODataId::new("/redfish/v1/Fabrics/IB0/Connections");
    let mk = |id: &str, cn: &str| {
        json!({
            "Id": id,
            "Zone": {"@odata.id": zone.as_str()},
            "Size": 1,
            "Links": {
                "InitiatorEndpoints": [{"@odata.id": format!("/redfish/v1/Fabrics/IB0/Endpoints/{cn}-ep")}],
                "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/IB0/Endpoints/gpu00-ep"}],
            }
        })
    };
    o.post(&cons, &mk("g1", "cn00")).unwrap();
    // Second grant on the same GPU must be refused (507).
    let err = o.post(&cons, &mk("g2", "cn01")).unwrap_err();
    assert_eq!(err.http_status(), 507);
}

#[test]
fn switch_failure_propagates_alert_and_failover() {
    let o = ofmf();
    let agent = Arc::new(cxl_agent("CXL0", &shape(), 1 << 20, 7));
    o.register_agent(Arc::clone(&agent) as Arc<dyn ofmf_core::Agent>)
        .unwrap();
    let (_, rx) = o
        .events
        .subscribe(
            &o.registry,
            "channel://ops",
            vec![EventType::Alert, EventType::StatusChange],
            vec![],
        )
        .unwrap();

    // Set up a connection that crosses a spine (cn01 on leaf1, mem00 on leaf0).
    let zones = ODataId::new("/redfish/v1/Fabrics/CXL0/Zones");
    let zone = o
        .post(
            &zones,
            &json!({"Links": {"Endpoints": [
                {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn01-ep"},
                {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
            ]}}),
        )
        .unwrap();
    let cons = ODataId::new("/redfish/v1/Fabrics/CXL0/Connections");
    o.post(
        &cons,
        &json!({
            "Id": "c1",
            "Zone": {"@odata.id": zone.as_str()},
            "Size": 1024,
            "Links": {
                "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn01-ep"}],
                "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
            }
        }),
    )
    .unwrap();
    while rx.try_recv().is_ok() {} // clear setup noise

    // Kill spine0 via the typed test hook, then poll the OFMF.
    agent.inject_fault(Fault::SwitchDown(SwitchId(0)));
    let n = o.poll();
    assert!(n >= 1, "poll processed agent events");

    // The spine's resource shows Critical and at least one Alert was delivered.
    let spine = ODataId::new("/redfish/v1/Fabrics/CXL0/Switches/spine0");
    assert_eq!(o.registry.get(&spine).unwrap().body["Status"]["Health"], "Critical");
    let mut saw_alert = false;
    while let Ok(batch) = rx.try_recv() {
        for e in batch.events.iter() {
            if e.severity == "Critical" || e.severity == "Warning" {
                saw_alert = true;
            }
        }
    }
    assert!(saw_alert);
}

#[test]
fn telemetry_flows_from_agents_to_reports() {
    let o = ofmf();
    o.register_agent(Arc::new(cxl_agent("CXL0", &shape(), 1 << 20, 7)))
        .unwrap();
    o.poll(); // one telemetry sweep
    assert!(o.telemetry.series_count() > 0);
    let rid = o.telemetry.generate_report(&o.registry, &o.events).unwrap();
    let report = o.registry.get(&rid).unwrap().body;
    assert!(!report["MetricValues"].as_array().unwrap().is_empty());
    // Power metrics reference real tree resources.
    let prop = report["MetricValues"][0]["MetricProperty"].as_str().unwrap();
    assert!(o.registry.exists(&ODataId::new(prop)), "{prop} should exist");
}

#[test]
fn fault_injection_via_agent_op() {
    let o = ofmf();
    o.register_agent(Arc::new(cxl_agent("CXL0", &shape(), 1 << 20, 7)))
        .unwrap();
    o.apply(
        "CXL0",
        &AgentOp::InjectFault {
            description: "link:0 down".into(),
        },
    )
    .unwrap();
    o.poll();
    // The port doc for link 0 carries the failure.
    let mut bad = 0;
    o.registry.for_each(|_, node| {
        let is_port = node.odata_type().is_some_and(|t| t.starts_with("#Port."));
        bad += usize::from(is_port && node.body["LinkState"] == "Disabled");
    });
    assert_eq!(bad, 1);
    // Unparseable description rejected.
    assert!(o
        .apply(
            "CXL0",
            &AgentOp::InjectFault {
                description: "chaos everywhere".into()
            }
        )
        .is_err());
}

#[test]
fn multi_fabric_tree_is_unified() {
    let o = ofmf();
    o.register_agent(Arc::new(cxl_agent("CXL0", &shape(), 1 << 20, 1)))
        .unwrap();
    o.register_agent(Arc::new(nvmeof_agent("NVME0", &shape(), 1 << 40, 2)))
        .unwrap();
    o.register_agent(Arc::new(infiniband_agent("IB0", &shape(), "A100", 3)))
        .unwrap();
    assert_eq!(o.fabric_ids(), vec!["CXL0", "IB0", "NVME0"]);
    let fabrics = o.registry.members(&ODataId::new("/redfish/v1/Fabrics")).unwrap();
    assert_eq!(fabrics.len(), 3);
    // Unregistration removes exactly that fabric's subtree.
    o.unregister_agent("NVME0").unwrap();
    assert!(!o.registry.exists(&ODataId::new("/redfish/v1/Fabrics/NVME0")));
    assert!(o.registry.exists(&ODataId::new("/redfish/v1/Fabrics/CXL0")));
}
