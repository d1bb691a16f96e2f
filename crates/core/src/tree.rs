//! Bootstrap of the unified Redfish tree and agent subtree mounting.
//!
//! "An HPC disaggregated infrastructure is represented under a single
//! Redfish tree that includes all the fabrics and resources available."
//! This module creates the service root and all top-level collections, and
//! mounts/unmounts the subtrees agents publish at registration.

use redfish_model::odata::ODataId;
use redfish_model::path::{top, SERVICE_ROOT};
use redfish_model::resources::{Resource, ServiceRoot};
use redfish_model::{RedfishResult, Registry};
use serde_json::{json, Value};

/// Create the service root, all top-level collections and the service
/// singletons in `reg`.
pub fn bootstrap(reg: &Registry, uuid: &str) -> RedfishResult<()> {
    let root = ServiceRoot::ofmf(uuid);
    reg.create(&ODataId::new(SERVICE_ROOT), root.to_value())?;

    let collections: [(&str, &str, &str); 6] = [
        (
            top::SYSTEMS,
            "#ComputerSystemCollection.ComputerSystemCollection",
            "Computer Systems",
        ),
        (top::CHASSIS, "#ChassisCollection.ChassisCollection", "Chassis"),
        (top::FABRICS, "#FabricCollection.FabricCollection", "Fabrics"),
        (
            top::STORAGE_SERVICES,
            "#StorageServiceCollection.StorageServiceCollection",
            "Storage Services",
        ),
        (
            top::RESOURCE_BLOCKS,
            "#ResourceBlockCollection.ResourceBlockCollection",
            "Resource Blocks",
        ),
        (top::TASKS, "#TaskCollection.TaskCollection", "Tasks"),
    ];

    // Service singletons must exist before their child collections.
    reg.create(
        &ODataId::new(top::EVENT_SERVICE),
        json!({
            "@odata.type": "#EventService.v1_10_0.EventService",
            "Id": "EventService",
            "Name": "Event Service",
            "ServiceEnabled": true,
            "Subscriptions": {"@odata.id": top::SUBSCRIPTIONS},
        }),
    )?;
    reg.create_collection(
        &ODataId::new(top::SUBSCRIPTIONS),
        "#EventDestinationCollection.EventDestinationCollection",
        "Event Subscriptions",
    )?;
    reg.create(
        &ODataId::new(top::TASK_SERVICE),
        json!({
            "@odata.type": "#TaskService.v1_2_0.TaskService",
            "Id": "TaskService",
            "Name": "Task Service",
            "ServiceEnabled": true,
            "Tasks": {"@odata.id": top::TASKS},
        }),
    )?;
    reg.create(
        &ODataId::new(top::SESSION_SERVICE),
        json!({
            "@odata.type": "#SessionService.v1_1_8.SessionService",
            "Id": "SessionService",
            "Name": "Session Service",
            "ServiceEnabled": true,
            "SessionTimeout": 1800,
            "Sessions": {"@odata.id": top::SESSIONS},
        }),
    )?;
    reg.create_collection(
        &ODataId::new(top::SESSIONS),
        "#SessionCollection.SessionCollection",
        "Sessions",
    )?;
    reg.create(
        &ODataId::new(top::TELEMETRY_SERVICE),
        json!({
            "@odata.type": "#TelemetryService.v1_3_0.TelemetryService",
            "Id": "TelemetryService",
            "Name": "Telemetry Service",
            "ServiceEnabled": true,
            "MetricReports": {"@odata.id": top::METRIC_REPORTS},
        }),
    )?;
    reg.create_collection(
        &ODataId::new(top::METRIC_REPORTS),
        "#MetricReportCollection.MetricReportCollection",
        "Metric Reports",
    )?;
    reg.create(
        &ODataId::new(top::COMPOSITION_SERVICE),
        json!({
            "@odata.type": "#CompositionService.v1_2_0.CompositionService",
            "Id": "CompositionService",
            "Name": "Composition Service",
            "ServiceEnabled": true,
            "AllowOverprovisioning": false,
            "ResourceBlocks": {"@odata.id": top::RESOURCE_BLOCKS},
        }),
    )?;
    for (id, ty, name) in collections {
        reg.create_collection(&ODataId::new(id), ty, name)?;
    }

    // The OFMF is itself a Redfish manager with an event log.
    reg.create_collection(
        &ODataId::new(top::MANAGERS),
        "#ManagerCollection.ManagerCollection",
        "Managers",
    )?;
    reg.create(
        &ODataId::new(top::OFMF_MANAGER),
        json!({
            "@odata.type": "#Manager.v1_19_0.Manager",
            "Id": "OFMF",
            "Name": "OpenFabrics Management Framework",
            "ManagerType": "Service",
            "Status": {"State": "Enabled", "Health": "OK"},
            "LogServices": {"@odata.id": format!("{}/LogServices", top::OFMF_MANAGER)},
            "Oem": {"OFMF": {"MetricReports": {"@odata.id": top::OBS_METRIC_REPORTS}}},
        }),
    )?;
    reg.create_collection(
        &ODataId::new(top::OBS_METRIC_REPORTS),
        "#MetricReportCollection.MetricReportCollection",
        "Live Metric Reports",
    )?;
    let log_services = ODataId::new(top::OFMF_MANAGER).child("LogServices");
    reg.create_collection(
        &log_services,
        "#LogServiceCollection.LogServiceCollection",
        "Log Services",
    )?;
    reg.create(
        &log_services.child("EventLog"),
        json!({
            "@odata.type": "#LogService.v1_5_0.LogService",
            "Id": "EventLog",
            "Name": "OFMF Event Log",
            "OverWritePolicy": "WrapsWhenFull",
            "ServiceEnabled": true,
            "Entries": {"@odata.id": top::EVENT_LOG_ENTRIES},
        }),
    )?;
    // The event log and the observability views are rings served live by
    // the REST layer; only the shells live in the tree.
    reg.create_collection(
        &ODataId::new(top::EVENT_LOG_ENTRIES),
        "#LogEntryCollection.LogEntryCollection",
        "Event Log Entries",
    )?;
    reg.create(
        &log_services.child("Observability"),
        json!({
            "@odata.type": "#LogService.v1_5_0.LogService",
            "Id": "Observability",
            "Name": "OFMF Observability Events",
            "OverWritePolicy": "WrapsWhenFull",
            "ServiceEnabled": true,
            "Entries": {"@odata.id": top::OBS_LOG_ENTRIES},
        }),
    )?;
    reg.create_collection(
        &ODataId::new(top::OBS_LOG_ENTRIES),
        "#LogEntryCollection.LogEntryCollection",
        "Observability Events",
    )?;
    Ok(())
}

/// Mount an agent's discovered inventory into the unified tree.
///
/// Resources are created in path order so parents (collections) exist before
/// children; documents already present are replaced (re-registration after
/// an agent restart).
pub fn mount_subtree(reg: &Registry, inventory: &[(ODataId, Value)]) -> RedfishResult<usize> {
    let mut sorted: Vec<&(ODataId, Value)> = inventory.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut mounted = 0;
    for (id, body) in sorted {
        let is_collection = body.get("Members").is_some();
        if reg.exists(id) {
            // Re-registration. A collection keeps the members the registry
            // holds for it (zones, connections and carves replayed from the
            // journal are unknown to a fresh discovery).
            reg.replace(id, body.clone())?;
        } else if is_collection {
            // Create the shell, then replace to carry the agent's other
            // members of the document.
            let ty = body.get("@odata.type").and_then(Value::as_str).unwrap_or("#Collection");
            let name = body.get("Name").and_then(Value::as_str).unwrap_or(id.leaf());
            reg.create_collection(id, ty, name)?;
            reg.replace(id, body.clone())?;
        } else {
            reg.create(id, body.clone())?;
        }
        mounted += 1;
    }
    Ok(mounted)
}

/// Remove an agent's fabric subtree (agent unregistration / death).
pub fn unmount_fabric(reg: &Registry, fabric_id: &str) -> usize {
    let fabric = ODataId::new(format!("{}/{}", top::FABRICS, fabric_id));
    reg.delete_subtree(&fabric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_creates_canonical_tree() {
        let reg = Registry::new();
        bootstrap(&reg, "uuid-1").unwrap();
        for p in [
            SERVICE_ROOT,
            top::SYSTEMS,
            top::CHASSIS,
            top::FABRICS,
            top::STORAGE_SERVICES,
            top::EVENT_SERVICE,
            top::SUBSCRIPTIONS,
            top::TASK_SERVICE,
            top::TASKS,
            top::SESSION_SERVICE,
            top::SESSIONS,
            top::TELEMETRY_SERVICE,
            top::METRIC_REPORTS,
            top::COMPOSITION_SERVICE,
            top::RESOURCE_BLOCKS,
            top::MANAGERS,
            top::OFMF_MANAGER,
            top::EVENT_LOG_ENTRIES,
            top::OBS_METRIC_REPORTS,
            top::OBS_LOG_ENTRIES,
        ] {
            assert!(reg.exists(&ODataId::new(p)), "{p} missing");
        }
        assert!(reg.dangling_links().is_empty(), "bootstrap tree must be closed");
    }

    #[test]
    fn bootstrap_twice_fails_cleanly() {
        let reg = Registry::new();
        bootstrap(&reg, "uuid-1").unwrap();
        assert!(bootstrap(&reg, "uuid-1").is_err());
    }

    #[test]
    fn mount_orders_parents_first() {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let fabric = ODataId::new("/redfish/v1/Fabrics/CXL0");
        // Deliberately shuffled: child before parent.
        let inv = vec![
            (fabric.child("Endpoints").child("ep0"), json!({"Name": "ep0"})),
            (
                fabric.clone(),
                json!({"@odata.type": "#Fabric.v1_3_0.Fabric", "Name": "CXL0"}),
            ),
            (
                fabric.child("Endpoints"),
                json!({"@odata.type": "#EndpointCollection.EndpointCollection", "Name": "Endpoints", "Members": [], "Members@odata.count": 0}),
            ),
        ];
        let n = mount_subtree(&reg, &inv).unwrap();
        assert_eq!(n, 3);
        // Endpoint got linked into its collection by the registry.
        let members = reg.members(&fabric.child("Endpoints")).unwrap();
        assert_eq!(members.len(), 1);
        // Fabric is a member of the Fabrics collection.
        let fabrics = reg.members(&ODataId::new(top::FABRICS)).unwrap();
        assert_eq!(fabrics, vec![fabric.clone()]);
    }

    #[test]
    fn unmount_removes_everything() {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let fabric = ODataId::new("/redfish/v1/Fabrics/IB0");
        mount_subtree(&reg, &[(fabric.clone(), json!({"Name": "IB0"}))]).unwrap();
        assert_eq!(unmount_fabric(&reg, "IB0"), 1);
        assert!(!reg.exists(&fabric));
        assert!(reg.members(&ODataId::new(top::FABRICS)).unwrap().is_empty());
    }

    #[test]
    fn remount_replaces_documents() {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let fabric = ODataId::new("/redfish/v1/Fabrics/CXL0");
        mount_subtree(&reg, &[(fabric.clone(), json!({"Name": "old"}))]).unwrap();
        mount_subtree(&reg, &[(fabric.clone(), json!({"Name": "new"}))]).unwrap();
        assert_eq!(reg.get(&fabric).unwrap().body["Name"], "new");
        // Not double-linked into the collection.
        assert_eq!(reg.members(&ODataId::new(top::FABRICS)).unwrap().len(), 1);
    }
}
