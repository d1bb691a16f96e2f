//! Full-stack tests: real sockets, real HTTP, live agents behind the OFMF.

// The registry's test-side `$expand` reference, shared by path.
#[path = "../../redfish/tests/wire_oracle/mod.rs"]
mod wire_oracle;

use ofmf_agents::flavors::{cxl_agent, RackShape};
use ofmf_core::Ofmf;
use ofmf_rest::query::QueryOptions;
use ofmf_rest::{HttpClient, RestServer, Router};
use redfish_model::odata::ODataId;
use serde_json::json;
use std::collections::HashMap;
use std::sync::Arc;

fn boot(require_auth: bool, creds: HashMap<String, String>) -> (RestServer, HttpClient, Arc<Ofmf>) {
    let ofmf = Ofmf::new_wall("rest-it", creds, 11);
    ofmf.register_agent(Arc::new(cxl_agent("CXL0", &RackShape::default(), 1 << 20, 4)))
        .unwrap();
    let router = Arc::new(Router::new(Arc::clone(&ofmf), require_auth));
    let server = RestServer::start("127.0.0.1:0", router, 4).unwrap();
    let client = HttpClient::new(server.addr());
    (server, client, ofmf)
}

#[test]
fn get_tree_over_the_wire() {
    let (server, mut c, _o) = boot(false, HashMap::new());
    let root = c.get("/redfish/v1").unwrap();
    assert_eq!(root.status, 200);
    let v = root.json().unwrap();
    assert_eq!(v["Fabrics"]["@odata.id"], "/redfish/v1/Fabrics");
    assert!(root.header("etag").is_some());

    let fabrics = c.get("/redfish/v1/Fabrics").unwrap().json().unwrap();
    assert_eq!(fabrics["Members@odata.count"], 1);
    let sys = c.get("/redfish/v1/Systems/cn00").unwrap();
    assert_eq!(sys.status, 200);
    assert_eq!(sys.json().unwrap()["ProcessorSummary"]["CoreCount"], 56);
    server.shutdown();
}

#[test]
fn compose_memory_over_the_wire() {
    let (server, mut c, _o) = boot(false, HashMap::new());
    // Zone.
    let zone = c
        .post(
            "/redfish/v1/Fabrics/CXL0/Zones",
            &json!({"Id": "z1", "Links": {"Endpoints": [
                {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"},
                {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
            ]}}),
        )
        .unwrap();
    assert_eq!(zone.status, 201);
    assert_eq!(zone.header("location"), Some("/redfish/v1/Fabrics/CXL0/Zones/z1"));

    // Connection carving 4 GiB.
    let conn = c
        .post(
            "/redfish/v1/Fabrics/CXL0/Connections",
            &json!({
                "Id": "c1",
                "Zone": {"@odata.id": "/redfish/v1/Fabrics/CXL0/Zones/z1"},
                "Size": 4096,
                "Links": {
                    "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"}],
                    "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
                }
            }),
        )
        .unwrap();
    assert_eq!(conn.status, 201);

    // The chunk is GETtable.
    let chunks = c
        .get("/redfish/v1/Chassis/mem00/MemoryDomains/dom0/MemoryChunks")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(chunks["Members@odata.count"], 1);

    // Tear down over the wire.
    assert_eq!(c.delete("/redfish/v1/Fabrics/CXL0/Connections/c1").unwrap().status, 204);
    assert_eq!(c.delete("/redfish/v1/Fabrics/CXL0/Zones/z1").unwrap().status, 204);
    let chunks = c
        .get("/redfish/v1/Chassis/mem00/MemoryDomains/dom0/MemoryChunks")
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(chunks["Members@odata.count"], 0);
    server.shutdown();
}

#[test]
fn auth_flow_over_the_wire() {
    let mut creds = HashMap::new();
    creds.insert("admin".to_string(), "secret".to_string());
    let (server, mut c, _o) = boot(true, creds);

    assert_eq!(c.get("/redfish/v1").unwrap().status, 200, "root open");
    assert_eq!(c.get("/redfish/v1/Systems").unwrap().status, 401);

    let login = c
        .post(
            "/redfish/v1/SessionService/Sessions",
            &json!({"UserName": "admin", "Password": "secret"}),
        )
        .unwrap();
    assert_eq!(login.status, 201);
    let token = login.header("x-auth-token").unwrap().to_string();
    c.token = Some(token);
    assert_eq!(c.get("/redfish/v1/Systems").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn event_subscription_over_the_wire() {
    let (server, mut c, ofmf) = boot(false, HashMap::new());
    let sub = c
        .post(
            "/redfish/v1/EventService/Subscriptions",
            &json!({"Destination": "rest-poll://it", "EventTypes": ["Alert"]}),
        )
        .unwrap();
    assert_eq!(sub.status, 201);
    let loc = sub.header("location").unwrap().to_string();

    ofmf.events.publish(
        redfish_model::resources::events::EventType::Alert,
        &redfish_model::odata::ODataId::new("/redfish/v1/Fabrics/CXL0"),
        "synthetic alert",
        "Critical",
    );
    let drained = c.get(&format!("{loc}/Events")).unwrap().json().unwrap();
    assert_eq!(drained["Count"], 1);
    assert_eq!(drained["Events"][0]["Events"][0]["Message"], "synthetic alert");
    server.shutdown();
}

#[test]
fn odata_query_options_over_the_wire() {
    let (server, mut c, _o) = boot(false, HashMap::new());
    // $select trims the payload but keeps control data.
    let r = c.get("/redfish/v1/Systems/cn00?$select=Name").unwrap().json().unwrap();
    assert_eq!(r["Name"], "cn00");
    assert!(r.get("ProcessorSummary").is_none());
    assert!(r["@odata.id"].is_string());
    // $top/$skip paginate collections; per DSP0266 Members@odata.count
    // stays at the TOTAL collection size and a nextLink points at the
    // remainder.
    let total = c.get("/redfish/v1/Systems").unwrap().json().unwrap()["Members@odata.count"].clone();
    let page = c.get("/redfish/v1/Systems?$top=2&$skip=1").unwrap().json().unwrap();
    assert_eq!(page["Members"].as_array().unwrap().len(), 2);
    assert_eq!(page["Members@odata.count"], total);
    assert_eq!(page["Members@odata.nextLink"], "/redfish/v1/Systems?$skip=3&$top=2");
    // Both annotations are the registry's to state: a PATCH of either is a
    // 400 and leaves the collection as it was.
    for annotation in ["Members@odata.count", "Members@odata.nextLink"] {
        let r = c.patch("/redfish/v1/Systems", &json!({annotation: 7})).unwrap();
        assert_eq!(r.status, 400, "{annotation}");
    }
    assert_eq!(
        c.get("/redfish/v1/Systems").unwrap().json().unwrap()["Members@odata.count"],
        total
    );
    // Combined with $expand the members are full documents.
    let expanded = c
        .get("/redfish/v1/Systems?$expand=.&$top=1&$select=Members")
        .unwrap()
        .json()
        .unwrap();
    let members = expanded["Members"].as_array().unwrap();
    assert_eq!(members.len(), 1);
    assert_eq!(members[0]["ProcessorSummary"]["CoreCount"], 56);
    server.shutdown();
}

#[test]
fn qos_connection_over_the_wire() {
    let (server, mut c, _o) = boot(false, HashMap::new());
    c.post(
        "/redfish/v1/Fabrics/CXL0/Zones",
        &json!({"Id": "qz", "Links": {"Endpoints": [
            {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"},
            {"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"},
        ]}}),
    )
    .unwrap();
    let mk = |id: &str, gbps: f64| {
        json!({
            "Id": id,
            "Zone": {"@odata.id": "/redfish/v1/Fabrics/CXL0/Zones/qz"},
            "Size": 64,
            "BandwidthGbps": gbps,
            "Links": {
                "InitiatorEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/cn00-ep"}],
                "TargetEndpoints": [{"@odata.id": "/redfish/v1/Fabrics/CXL0/Endpoints/mem00-ep"}],
            }
        })
    };
    // The CXL access link is 256 G: 200 G is admitted, the next 200 G is not.
    assert_eq!(
        c.post("/redfish/v1/Fabrics/CXL0/Connections", &mk("q1", 200.0))
            .unwrap()
            .status,
        201
    );
    let denied = c
        .post("/redfish/v1/Fabrics/CXL0/Connections", &mk("q2", 200.0))
        .unwrap();
    assert_eq!(denied.status, 409, "admission control over the wire");
    // Negative bandwidth is a 400.
    let bad = c.post("/redfish/v1/Fabrics/CXL0/Connections", &mk("q3", -5.0)).unwrap();
    assert_eq!(bad.status, 400);
    server.shutdown();
}

#[test]
fn event_log_over_the_wire() {
    // Registration events are in the log as soon as they are published.
    let (server, mut c, _o) = boot(false, HashMap::new());
    let entries = c
        .get("/redfish/v1/Managers/OFMF/LogServices/EventLog/Entries?$expand=.")
        .unwrap()
        .json()
        .unwrap();
    let members = entries["Members"].as_array().unwrap();
    assert!(!members.is_empty());
    assert!(members
        .iter()
        .any(|e| e["Message"].as_str().unwrap_or("").contains("registered")));
    server.shutdown();
}

#[test]
fn malformed_requests_get_clean_errors() {
    use std::io::{Read, Write};
    let (server, _c, _o) = boot(false, HashMap::new());
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"BREW /coffee HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 405"), "{buf}");
    server.shutdown();
}

#[test]
fn concurrent_clients_share_the_tree() {
    let (server, _c, _o) = boot(false, HashMap::new());
    let addr = server.addr();
    let mut handles = Vec::new();
    for i in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut c = HttpClient::new(addr);
            let resp = c
                .post(
                    "/redfish/v1/Systems",
                    &json!({"Id": format!("t{i}"), "Name": format!("t{i}")}),
                )
                .unwrap();
            assert_eq!(resp.status, 201);
            for _ in 0..20 {
                assert_eq!(c.get("/redfish/v1/Systems").unwrap().status, 200);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut c = HttpClient::new(addr);
    let systems = c.get("/redfish/v1/Systems").unwrap().json().unwrap();
    // 4 discovered nodes + 8 test-created.
    assert_eq!(systems["Members@odata.count"], 12);
    server.shutdown();
}

/// Raw-socket exchange: send `bytes`, read the full response text.
fn raw_roundtrip(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(bytes).unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap();
    buf
}

#[test]
fn garbled_request_line_is_a_400_and_counted() {
    let (server, _c, _o) = boot(false, HashMap::new());
    let errors = ofmf_obs::counter("ofmf.rest.parse_errors.total");
    let c4xx = ofmf_obs::counter("ofmf.rest.status.4xx");
    let (e0, s0) = (errors.get(), c4xx.get());

    let buf = raw_roundtrip(server.addr(), b"GET /redfish/v1 SPDY/3\r\n\r\n");
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    assert!(buf.contains("\"error\""), "{buf}");

    assert!(errors.get() > e0, "parser rejection must hit the error counter");
    assert!(c4xx.get() > s0, "400 must land in the 4xx status class");
    server.shutdown();
}

#[test]
fn oversized_headers_are_a_431_and_counted() {
    let (server, _c, _o) = boot(false, HashMap::new());
    let errors = ofmf_obs::counter("ofmf.rest.parse_errors.total");
    let c4xx = ofmf_obs::counter("ofmf.rest.status.4xx");
    let (e0, s0) = (errors.get(), c4xx.get());

    // One giant header line pushes the section past MAX_HEADER_BYTES; the
    // overflow triggers on the last byte sent, so the server consumes the
    // whole request before responding (no RST racing the response).
    let mut req = b"GET /redfish/v1 HTTP/1.1\r\n".to_vec();
    req.extend_from_slice(format!("X-Pad: {}\r\n", "y".repeat(66 * 1024)).as_bytes());
    let buf = raw_roundtrip(server.addr(), &req);
    assert!(buf.starts_with("HTTP/1.1 431"), "{buf}");

    assert!(errors.get() > e0);
    assert!(c4xx.get() > s0);
    server.shutdown();
}

#[test]
fn unknown_route_is_a_404_and_counted() {
    let (server, mut c, _o) = boot(false, HashMap::new());
    let c4xx = ofmf_obs::counter("ofmf.rest.status.4xx");
    let gets = ofmf_obs::counter("ofmf.rest.get.requests");
    let (s0, g0) = (c4xx.get(), gets.get());

    let miss = c.get("/redfish/v1/Chassis/teapot").unwrap();
    assert_eq!(miss.status, 404);
    let body = miss.json().unwrap();
    assert!(body["error"]["message"].as_str().unwrap().contains("teapot"), "{body}");

    assert!(c4xx.get() > s0, "404 must land in the 4xx status class");
    assert!(gets.get() > g0, "routed 404s still count as GET requests");
    server.shutdown();
}

/// A write is answered with the bytes a GET of the resource now returns —
/// serialized once, into the wire cache — so the read-after-write GET that
/// typically follows is a cache hit, not a second serialization.
#[test]
fn write_replies_are_the_next_get_and_fill_the_wire_cache() {
    let (server, mut c, ofmf) = boot(false, HashMap::new());
    let stats = || ofmf.registry.wire_cache_stats();

    let posted = c
        .post(
            "/redfish/v1/Chassis",
            &json!({"Id": "raw-1", "Name": "read \"after\" write \u{e9}", "AssetTag": "t0"}),
        )
        .unwrap();
    assert_eq!(posted.status, 201);
    assert_eq!(posted.header("location"), Some("/redfish/v1/Chassis/raw-1"));
    let (hits, misses) = stats();
    let got = c.get("/redfish/v1/Chassis/raw-1").unwrap();
    assert_eq!(got.status, 200);
    assert_eq!(got.body, posted.body, "POST reply == the GET that follows");
    assert_eq!(got.header("etag"), posted.header("etag"));
    assert_eq!(stats(), (hits + 1, misses), "that GET is a wire-cache hit");

    let patched = c
        .patch("/redfish/v1/Chassis/raw-1", &json!({"AssetTag": "t1"}))
        .unwrap();
    assert_eq!(patched.status, 200);
    assert_ne!(patched.body, posted.body);
    let (hits, misses) = stats();
    let got = c.get("/redfish/v1/Chassis/raw-1").unwrap();
    assert_eq!(got.body, patched.body, "PATCH reply == the GET that follows");
    assert_eq!(got.header("etag"), patched.header("etag"));
    assert_eq!(stats(), (hits + 1, misses), "that GET is a wire-cache hit");

    // And both are what the stored document's wire body prints to.
    let stored = ofmf.registry.get(&ODataId::new("/redfish/v1/Chassis/raw-1")).unwrap();
    assert_eq!(got.body, serde_json::to_vec(&stored.wire_body()).unwrap());
    assert_eq!(got.json().unwrap()["AssetTag"], "t1");
    server.shutdown();
}

/// One expander: `$expand` alone sends its bytes as they are; beside
/// `$select` / `$top` / `$skip` the same answer is paged and projected.
/// Either way the body is what the `Value`-built expansion printed to.
#[test]
fn expand_keeps_its_answer_alone_and_beside_other_options() {
    let (server, mut c, ofmf) = boot(false, HashMap::new());
    let systems = ODataId::new("/redfish/v1/Systems");
    assert!(ofmf.registry.members(&systems).unwrap().len() >= 4);
    for query in [
        "$expand=.",
        "$expand=*($levels=1)",
        "$expand=.&$top=2&$skip=1",
        "$skip=3&$expand=.",
        "$expand=.&$select=Name,Members",
        "$expand=.&$select=Name&$top=1",
    ] {
        let resp = c.get(&format!("{systems}?{query}")).unwrap();
        assert_eq!(resp.status, 200, "{query}");
        let want = QueryOptions::parse(query)
            .unwrap()
            .apply(wire_oracle::expansion(&ofmf.registry, &systems));
        assert_eq!(
            String::from_utf8_lossy(&resp.body),
            serde_json::to_string(&want).unwrap(),
            "{query}"
        );
    }
    // A single resource expands to itself.
    let one = c.get("/redfish/v1/Systems/cn00?$expand=.").unwrap();
    assert_eq!(one.body, c.get("/redfish/v1/Systems/cn00").unwrap().body);
    server.shutdown();
}
