//! Full-stack integration: agents → OFMF → Composability Manager → REST,
//! all live in one process, observed over real sockets.

// The composer crate's test-side reference scan, shared by path so the
// tier-1 command (root package only) guards the link-following inventory.
#[path = "../crates/composer/tests/oracle/mod.rs"]
mod oracle;
// Likewise the registry's: what its byte writers must produce, in `Value`s.
#[path = "../crates/redfish/tests/wire_oracle/mod.rs"]
mod wire_oracle;

use composer::{Composer, CompositionRequest, Strategy};
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::{Agent, Ofmf};
use ofmf_repro::{demo_rig, demo_rig_with_shape, ComposerBridge};
use ofmf_rest::{HttpClient, RestServer, Router};
use ofmf_wal::{FsyncPolicy, Wal};
use redfish_model::odata::ODataId;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn compose_is_visible_over_http() {
    let rig = demo_rig(301);
    let router = Arc::new(Router::new(Arc::clone(&rig.ofmf), false));
    let server = RestServer::start("127.0.0.1:0", router, 4).unwrap();
    let mut http = HttpClient::new(server.addr());

    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::BestFit);
    let composed = composer
        .compose(
            &CompositionRequest::compute_only("webjob", 32, 64)
                .with_fabric_memory_mib(32 * 1024)
                .with_gpus(1)
                .with_storage_bytes(1 << 38),
        )
        .unwrap();

    // The composed system is a first-class Redfish resource over the wire.
    let resp = http.get("/redfish/v1/Systems/webjob").unwrap();
    assert_eq!(resp.status, 200);
    let doc = resp.json().unwrap();
    assert_eq!(doc["SystemType"], "Composed");
    // Every resource block link resolves over HTTP too.
    for link in doc["Links"]["ResourceBlocks"].as_array().unwrap() {
        let path = link["@odata.id"].as_str().unwrap();
        assert_eq!(http.get(path).unwrap().status, 200, "{path}");
    }

    // Decompose; the resource disappears from the wire.
    composer.decompose(&composed.system).unwrap();
    assert_eq!(http.get("/redfish/v1/Systems/webjob").unwrap().status, 404);
    server.shutdown();
}

#[test]
fn http_composition_and_composer_coexist() {
    // A client composing raw zones/connections over HTTP shares pools with
    // the Composability Manager; accounting must stay consistent.
    let rig = demo_rig(302);
    let router = Arc::new(Router::new(Arc::clone(&rig.ofmf), false));
    let server = RestServer::start("127.0.0.1:0", router, 2).unwrap();
    let mut http = HttpClient::new(server.addr());
    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::FirstFit);

    // HTTP client carves 1 GiB directly.
    let zone = http
        .post(
            "/redfish/v1/Fabrics/CXL0/Zones",
            &json!({"Id": "manual", "Links": {"Endpoints": [
                {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn03-ep"},
                {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
            ]}}),
        )
        .unwrap();
    assert_eq!(zone.status, 201);
    let conn = http
        .post(
            "/redfish/v1/Fabrics/CXL0/Connections",
            &json!({
                "Id": "manual",
                "Zone": {"@odata.id": "/redfish/v1/Fabrics/CXL0/Zones/manual"},
                "Size": 1024,
                "Links": {
                    "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn03-ep"}],
                    "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
                }
            }),
        )
        .unwrap();
    assert_eq!(conn.status, 201);

    // The composer's inventory sees the manual carve.
    let inv = composer.inventory();
    assert_eq!(inv.free_memory_mib(), (2 << 20) - 1024);

    // The composer can still use the remaining capacity.
    let composed = composer
        .compose(&CompositionRequest::compute_only("shared", 8, 8).with_fabric_memory_mib((1 << 20) - 1024))
        .unwrap();
    assert_eq!(composed.bound_memory_mib(), (1 << 20) - 1024);
    server.shutdown();
}

#[test]
fn telemetry_report_visible_over_http() {
    let rig = demo_rig(303);
    let router = Arc::new(Router::new(Arc::clone(&rig.ofmf), false));
    let server = RestServer::start("127.0.0.1:0", router, 2).unwrap();
    let mut http = HttpClient::new(server.addr());

    rig.ofmf.poll(); // one telemetry sweep from all three agents
    let rid = rig
        .ofmf
        .telemetry
        .generate_report(&rig.ofmf.registry, &rig.ofmf.events)
        .unwrap();

    let resp = http.get(rid.as_str()).unwrap();
    assert_eq!(resp.status, 200);
    let doc = resp.json().unwrap();
    let values = doc["MetricValues"].as_array().unwrap();
    assert!(!values.is_empty());
    // Samples cover all three fabrics' resources.
    let props: Vec<&str> = values.iter().filter_map(|v| v["MetricProperty"].as_str()).collect();
    assert!(props.iter().any(|p| p.contains("/Fabrics/CXL0/")));
    assert!(props
        .iter()
        .any(|p| p.contains("/Fabrics/NVME0/") || p.contains("nvme")));
    server.shutdown();
}

#[test]
fn event_log_of_a_full_composition_lifecycle() {
    let rig = demo_rig(304);
    let (_, rx) = rig
        .ofmf
        .events
        .subscribe(&rig.ofmf.registry, "channel://audit", vec![], vec![])
        .unwrap();
    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::FirstFit);
    let composed = composer
        .compose(&CompositionRequest::compute_only("audited", 8, 8).with_fabric_memory_mib(2048))
        .unwrap();
    composer.grow_memory(&composed.system, 1024).unwrap();
    composer.decompose(&composed.system).unwrap();

    let mut messages = Vec::new();
    while let Ok(batch) = rx.try_recv() {
        for e in batch.events.iter() {
            messages.push(e.message.clone());
        }
    }
    // The audit trail tells the whole story in order.
    let joined = messages.join("\n");
    assert!(joined.contains("zone created"));
    assert!(joined.contains("connection established"));
    assert!(joined.contains("composed"), "{joined}");
    assert!(joined.contains("grew fabric memory"));
    assert!(joined.contains("decomposed"));
}

#[test]
fn tree_has_no_dangling_links_through_lifecycle() {
    let rig = demo_rig(305);
    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::TopologyAware);
    assert!(rig.ofmf.registry.dangling_links().is_empty(), "after boot");
    let composed = composer
        .compose(
            &CompositionRequest::compute_only("linkcheck", 8, 8)
                .with_fabric_memory_mib(4096)
                .with_gpus(2)
                .with_storage_bytes(1 << 33),
        )
        .unwrap();
    assert!(rig.ofmf.registry.dangling_links().is_empty(), "while composed");
    composer.decompose(&composed.system).unwrap();
    assert!(rig.ofmf.registry.dangling_links().is_empty(), "after decompose");
}

/// A thin slice of `prop_composer.rs`'s oracle property and its 2 000-chassis
/// test: through one fixed lifecycle the link-following inventory equals a
/// full type scan of the tree, and resources no endpoint links to change
/// neither. (Where the two are meant to differ — a `#ComputerSystem.`
/// outside `Systems` — is pinned in the composer crate's own test.)
#[test]
fn link_following_inventory_matches_full_type_scan() {
    let rig = demo_rig(306);
    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::TopologyAware);
    let reg = &rig.ofmf.registry;
    let check = |when: &str| {
        let walked = composer.inventory();
        oracle::assert_same(&walked, &oracle::full_scan(&composer), when);
        walked
    };
    check("on the fresh rig");
    let req = CompositionRequest::compute_only("slice", 8, 8)
        .with_fabric_memory_mib(4096)
        .with_gpus(1)
        .with_storage_bytes(1 << 30);
    let system = composer.compose(&req).unwrap().system;
    check("after compose");
    composer.grow_memory(&system, 2048).unwrap();
    composer.attach_storage(&system, 1 << 28).unwrap();
    check("after grow + attach");
    let offline = json!({"Status": {"State": "UnavailableOffline"}});
    reg.patch(&ODataId::new("/redfish/v1/Chassis/mem01"), &offline, None)
        .unwrap();
    assert_eq!(check("with an appliance chassis offline").memory.len(), 1);
    rig.ofmf.unregister_agent("NVME0").unwrap();
    assert!(check("after the NVMe agent unmounts").storage.is_empty());
    composer.decompose(&system).unwrap();
    let before = check("after decompose");

    oracle::add_unrelated_chassis(reg, 2000);
    oracle::assert_same(
        &check("with 2 000 unrelated chassis"),
        &before,
        "against the rig without them",
    );
}

/// Tier-1 slice of the wire byte-identity suite (`crates/redfish/tests/
/// wire_identity.rs`, `crates/rest/tests/rest_stack.rs`): every resource of
/// the rack rig the benchmark boots is answered — GET on a cache miss, on
/// the hit, and `$expand` — with exactly the bytes its `wire_body()` prints
/// to, fresh and after a compose has patched, created and linked its way
/// through the tree; and `Ofmf::get_raw` is `Ofmf::get`, printed.
#[test]
fn rack_rig_wire_bytes_are_what_the_wire_body_prints() {
    let rack = RackShape {
        compute_nodes: 128,
        targets: 32,
        leaves: 16,
        spines: 2,
        ..RackShape::default()
    };
    let rig = demo_rig_with_shape(307, &rack);
    let checked = wire_oracle::assert_wire_identity(&rig.ofmf.registry);
    assert!(checked > 1700, "the rack rig tree: {checked} resources");

    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::TopologyAware);
    let req = CompositionRequest::compute_only("wire", 8, 8)
        .with_fabric_memory_mib(4096)
        .with_gpus(1)
        .with_storage_bytes(1 << 30);
    let system = composer.compose(&req).unwrap().system;
    assert!(wire_oracle::assert_wire_identity(&rig.ofmf.registry) > checked);
    let (bytes, etag) = rig.ofmf.get_raw(&system).unwrap();
    let (body, same) = rig.ofmf.get(&system).unwrap();
    assert_eq!(etag, same);
    assert_eq!(bytes.to_vec(), serde_json::to_vec(&body).unwrap());
}

/// Tier-1 slice of the hostile-JSON suite (the shim's unit tests,
/// `crates/redfish/tests/prop_json.rs`, `wire_conformance.rs`): the inputs
/// that used to end the process, panic a worker or hold it for half a
/// minute are an `Err` — a 400 over REST — or parse promptly.
#[test]
fn hostile_json_is_refused_and_a_mebibyte_parses_promptly() {
    let parse = |text: &str| serde_json::from_str::<serde_json::Value>(text);
    assert!(parse(&"[".repeat(100_000)).is_err(), "unbounded recursion");
    for lone in [
        r#""\ud800\u0041""#,
        r#""\ud800\ud800""#,
        r#""\ud800\ue000""#,
        r#""\u+041""#,
    ] {
        assert!(parse(lone).is_err(), "{lone}");
    }
    assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");

    let doc = format!("{{\"Description\":\"{}\"}}", "x".repeat((1 << 20) - 32));
    let started = std::time::Instant::now();
    let parsed = parse(&doc).unwrap();
    assert!(
        started.elapsed().as_millis() < 1000,
        "1 MiB took {:?}",
        started.elapsed()
    );
    assert_eq!(serde_json::to_string(&parsed).unwrap(), doc);

    // Over the wire the same bytes are a 400 and the router lives on.
    let rig = demo_rig(308);
    let router = Router::new(Arc::clone(&rig.ofmf), false);
    let request = |body: &str| ofmf_rest::http::Request {
        method: ofmf_rest::http::Method::Post,
        path: "/redfish/v1/Chassis".to_string(),
        query: None,
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
        version: ofmf_rest::http::HttpVersion::Http11,
    };
    assert_eq!(router.handle(&request(&"[".repeat(100_000))).status, 400);
    assert_eq!(
        router.handle(&request(r#"{"Id":"x","Name":"\ud800\u0041"}"#)).status,
        400
    );
    assert_eq!(router.handle(&request(r#"{"Id":"x","Name":"fine"}"#)).status, 201);
}

/// `DELETE /Systems/<composed>` decomposes: the zones, connections and node
/// reservation go with the system document, the journal does not bring the
/// composition back, and a system nobody composed is still a plain delete.
#[test]
fn rest_delete_of_a_composed_system_decomposes_it() {
    let dir = std::env::temp_dir().join(format!("ofmf-full-stack-delete-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The demo rig's three fabrics, on an OFMF that journals.
    let boot = || {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("open journal"));
        let ofmf = Ofmf::with_wal("ofmf-delete", HashMap::new(), 309, wal).expect("boot");
        let shape = RackShape::default();
        let agents: [Arc<dyn Agent>; 3] = [
            Arc::new(cxl_agent("CXL0", &shape, 1 << 20, 1)),
            Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, 2)),
            Arc::new(infiniband_agent("IB0", &shape, "A100", 3)),
        ];
        for agent in agents {
            ofmf.register_agent(agent).expect("register");
        }
        let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::FirstFit));
        composer.attach_snapshot_provider();
        (ofmf, composer)
    };
    const COMPOSE: &str = "/redfish/v1/CompositionService/Actions/CompositionService.Compose";
    let job = |name: &str| json!({"Name": name, "Cores": 8, "LocalMemoryGiB": 8, "FabricMemoryMiB": 1024});

    {
        let (ofmf, composer) = boot();
        let bridge = Arc::new(ComposerBridge::shared(Arc::clone(&composer)));
        let router = Arc::new(Router::new(Arc::clone(&ofmf), false).with_compose_service(bridge));
        let server = RestServer::start("127.0.0.1:0", router, 2).unwrap();
        let mut http = HttpClient::new(server.addr());

        // One composition on every fabric, then fill the rest of the rack.
        let mut body = job("doomed");
        body["Gpus"] = json!(1);
        body["StorageBytes"] = json!(1u64 << 30);
        assert_eq!(http.post(COMPOSE, &body).unwrap().status, 201);
        for i in 1..RackShape::default().compute_nodes {
            assert_eq!(http.post(COMPOSE, &job(&format!("filler{i}"))).unwrap().status, 201);
        }
        assert_eq!(
            http.post(COMPOSE, &job("overflow")).unwrap().status,
            507,
            "every node is taken"
        );
        let doomed = composer
            .find(&ODataId::new("/redfish/v1/Systems/doomed"))
            .expect("composed over REST");
        let fabrics: std::collections::BTreeSet<&str> = doomed.bindings.iter().map(|b| b.fabric.as_str()).collect();
        assert_eq!(fabrics.len(), 3, "{fabrics:?}");

        assert_eq!(http.delete(doomed.system.as_str()).unwrap().status, 204);
        assert!(composer.find(&doomed.system).is_none());
        assert_eq!(composer.compositions().len(), RackShape::default().compute_nodes - 1);
        assert_eq!(http.get(doomed.system.as_str()).unwrap().status, 404);
        for b in &doomed.bindings {
            assert_eq!(http.get(b.zone.as_str()).unwrap().status, 404, "{}", b.zone);
            assert_eq!(http.get(b.connection.as_str()).unwrap().status, 404, "{}", b.connection);
        }

        // The node went back to the pool: the rack composes again, on it.
        assert_eq!(http.post(COMPOSE, &job("again")).unwrap().status, 201);
        let again = composer
            .find(&ODataId::new("/redfish/v1/Systems/again"))
            .expect("recomposed");
        assert_eq!(again.node, doomed.node);
        assert_eq!(http.delete(again.system.as_str()).unwrap().status, 204);

        // A system no composition owns is deleted as before.
        let plain = json!({"Id": "plain", "Name": "plain"});
        assert_eq!(http.post("/redfish/v1/Systems", &plain).unwrap().status, 201);
        assert_eq!(http.delete("/redfish/v1/Systems/plain").unwrap().status, 204);
        assert_eq!(http.get("/redfish/v1/Systems/plain").unwrap().status, 404);
        assert_eq!(http.delete("/redfish/v1/Systems/plain").unwrap().status, 404);
        assert!(ofmf.registry.dangling_links().is_empty());
        server.shutdown();
    }

    // The decompositions were journaled: a restart restores only the fillers.
    let (ofmf, composer) = boot();
    assert!(ofmf.was_recovered());
    ofmf.finish_recovery();
    assert_eq!(composer.recover(), (RackShape::default().compute_nodes - 1, 0));
    for gone in ["doomed", "again", "plain"] {
        let id = ODataId::new("/redfish/v1/Systems").child(gone);
        assert!(composer.find(&id).is_none(), "{gone}");
        assert!(!ofmf.registry.exists(&id), "{gone}");
    }
    assert!(ofmf.registry.dangling_links().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
