//! Wire-level conformance tests against raw sockets: pipelining, partial
//! reads, abrupt disconnects, HTTP/1.0 defaults, HEAD semantics, parse-error
//! statuses, connection-cap load shedding, and gauge hygiene.

use ofmf_agents::flavors::{cxl_agent, RackShape};
use ofmf_core::events::EVENT_LOG_CAP;
use ofmf_core::Ofmf;
use ofmf_obs::Severity;
use ofmf_rest::{RestServer, Router, ServerConfig};
use redfish_model::odata::ODataId;
use redfish_model::resources::events::EventType;
use serde_json::Value;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(workers: usize, max_connections: usize) -> RestServer {
    boot_with_ofmf(workers, max_connections).0
}

/// [`boot`], keeping a handle on the OFMF behind the server.
fn boot_with_ofmf(workers: usize, max_connections: usize) -> (RestServer, Arc<Ofmf>) {
    let ofmf = Ofmf::new_wall("wire-it", HashMap::new(), 11);
    ofmf.register_agent(Arc::new(cxl_agent("CXL0", &RackShape::default(), 1 << 20, 4)))
        .unwrap();
    let router = Arc::new(Router::new(Arc::clone(&ofmf), false));
    let server = RestServer::start_with(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers,
            max_connections,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, ofmf)
}

/// A raw client connection that parses HTTP responses out of a byte buffer,
/// so pipelined responses on one socket are read back one at a time.
struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn content_length(&self) -> usize {
        self.header("content-length").and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl Wire {
    fn connect(server: &RestServer) -> Wire {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).unwrap();
        Wire {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// Pull more bytes off the socket; `None` on orderly EOF.
    fn fill(&mut self) -> Option<usize> {
        let mut tmp = [0u8; 8192];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return None,
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    return Some(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("socket read failed: {e}"),
            }
        }
    }

    /// Read one full response (headers + Content-Length body).
    fn response(&mut self) -> Resp {
        self.read_one(false)
    }

    /// Read one response whose body is never transmitted (HEAD).
    fn head_response(&mut self) -> Resp {
        self.read_one(true)
    }

    fn read_one(&mut self, head_only: bool) -> Resp {
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            assert!(self.fill().is_some(), "connection closed before response headers");
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        let headers: Vec<(String, String)> = lines
            .filter(|l| !l.is_empty())
            .filter_map(|l| {
                let (k, v) = l.split_once(':')?;
                Some((k.trim().to_string(), v.trim().to_string()))
            })
            .collect();
        let declared: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let body_len = if head_only { 0 } else { declared };
        while self.buf.len() < head_end + body_len {
            assert!(self.fill().is_some(), "connection closed mid-body");
        }
        let body = self.buf[head_end..head_end + body_len].to_vec();
        self.buf.drain(..head_end + body_len);
        Resp { status, headers, body }
    }

    /// Drain the socket to EOF; returns whatever bytes arrived after the
    /// already-parsed responses. Panics if the server never closes.
    fn read_to_eof(&mut self) -> Vec<u8> {
        while self.fill().is_some() {}
        std::mem::take(&mut self.buf)
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
}

/// Retry a connect+request until the server answers 200 (used after
/// releasing capacity, where the worker needs a moment to observe the
/// hang-up).
fn eventually_200(server: &RestServer) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut w = Wire::connect(server);
        w.send(get("/redfish/v1").as_bytes());
        let r = w.response();
        if r.status == 200 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server never recovered capacity; last status {}",
            r.status
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn pipelined_requests_answered_in_order() {
    let server = boot(2, 4096);
    let mut w = Wire::connect(&server);
    // Three requests in one segment; responses must come back complete,
    // in order, on the same connection.
    let batch = format!(
        "{}{}{}",
        get("/redfish/v1"),
        get("/redfish/v1/Fabrics"),
        get("/redfish/v1/Systems")
    );
    w.send(batch.as_bytes());
    let first = w.response();
    assert_eq!(first.status, 200);
    assert!(first.body_text().contains("\"Fabrics\""));
    let second = w.response();
    assert_eq!(second.status, 200);
    assert!(second.body_text().contains("FabricCollection"));
    let third = w.response();
    assert_eq!(third.status, 200);
    assert!(third.body_text().contains("ComputerSystemCollection"));
    server.shutdown();
}

#[test]
fn slowloris_partial_request_does_not_block_other_clients() {
    // One event-loop worker: if a stalled partial read blocked the loop,
    // the fast client below could never be served.
    let server = boot(1, 4096);
    let mut slow = Wire::connect(&server);
    let request = get("/redfish/v1");
    let (left, right) = request.split_at(request.len() / 2);
    slow.send(left.as_bytes());
    std::thread::sleep(Duration::from_millis(50));

    // A fast client completes while the slow request is still in flight.
    let mut fast = Wire::connect(&server);
    fast.send(get("/redfish/v1").as_bytes());
    assert_eq!(fast.response().status, 200);

    // Dribble the rest byte by byte; the request must still complete.
    for b in right.as_bytes() {
        slow.send(std::slice::from_ref(b));
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(slow.response().status, 200);
    server.shutdown();
}

#[test]
fn mid_response_disconnect_leaves_server_healthy() {
    let server = boot(2, 4096);
    for _ in 0..3 {
        let mut w = Wire::connect(&server);
        w.send(get("/redfish/v1").as_bytes());
        // Read only the first few bytes of the response, then vanish.
        let mut partial = [0u8; 16];
        let n = w.stream.read(&mut partial).unwrap();
        assert!(n > 0);
        drop(w);
    }
    // The server must still answer new connections.
    let mut w = Wire::connect(&server);
    w.send(get("/redfish/v1").as_bytes());
    assert_eq!(w.response().status, 200);
    server.shutdown();
}

#[test]
fn http10_defaults_to_close_on_the_wire() {
    let server = boot(2, 4096);
    let mut w = Wire::connect(&server);
    w.send(b"GET /redfish/v1 HTTP/1.0\r\nHost: t\r\n\r\n");
    let r = w.response();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.header("connection"),
        Some("close"),
        "HTTP/1.0 without keep-alive must advertise close"
    );
    assert!(
        w.read_to_eof().is_empty(),
        "server must close after an HTTP/1.0 exchange"
    );
    server.shutdown();
}

#[test]
fn http10_explicit_keep_alive_persists_the_connection() {
    let server = boot(2, 4096);
    let mut w = Wire::connect(&server);
    let req = b"GET /redfish/v1 HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n";
    w.send(req);
    let r = w.response();
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("keep-alive"));
    // A second exchange on the same socket must work.
    w.send(req);
    assert_eq!(w.response().status, 200);
    server.shutdown();
}

#[test]
fn head_reports_entity_length_and_etag_with_no_body_bytes() {
    let server = boot(2, 4096);
    // Reference entity length from a real GET.
    let mut g = Wire::connect(&server);
    g.send(get("/redfish/v1").as_bytes());
    let got = g.response();
    assert_eq!(got.status, 200);
    let entity_len = got.body.len();
    assert!(entity_len > 0);
    drop(g);

    let mut w = Wire::connect(&server);
    w.send(b"HEAD /redfish/v1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let r = w.head_response();
    assert_eq!(r.status, 200);
    assert_eq!(
        r.content_length(),
        entity_len,
        "HEAD must report the entity's real Content-Length"
    );
    assert!(r.header("etag").is_some(), "HEAD must keep the ETag");
    assert!(w.read_to_eof().is_empty(), "HEAD must transmit no body bytes");
    server.shutdown();
}

#[test]
fn unsupported_method_gets_405_with_allow_header() {
    let server = boot(2, 4096);
    let mut w = Wire::connect(&server);
    w.send(b"BREW /redfish/v1 HTTP/1.1\r\nHost: t\r\n\r\n");
    let r = w.response();
    assert_eq!(r.status, 405);
    assert_eq!(
        r.header("allow"),
        Some("GET, HEAD, POST, PATCH, DELETE"),
        "405 must list the allowed methods"
    );
    assert!(
        r.body_text().contains("Base.1.0.OperationNotAllowed"),
        "{}",
        r.body_text()
    );
    server.shutdown();
}

#[test]
fn oversized_body_and_headers_get_specific_statuses() {
    let server = boot(2, 4096);

    // Declared body over the 1 MiB cap: rejected from the headers alone.
    let mut w = Wire::connect(&server);
    w.send(b"POST /redfish/v1/SessionService/Sessions HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\n\r\n");
    let r = w.response();
    assert_eq!(r.status, 413);
    assert!(r.body_text().contains("Base.1.0.PayloadTooLarge"));

    // Header section over the 64 KiB cap.
    let mut w = Wire::connect(&server);
    let mut raw = String::from("GET /redfish/v1 HTTP/1.1\r\nHost: t\r\n");
    let filler = "a".repeat(8000);
    for i in 0..10 {
        raw.push_str(&format!("X-Pad-{i}: {filler}\r\n"));
    }
    raw.push_str("\r\n");
    w.send(raw.as_bytes());
    let r = w.response();
    assert_eq!(r.status, 431);
    assert!(r.body_text().contains("Base.1.0.HeaderTooLong"));

    server.shutdown();
}

/// Hostile JSON bodies are a 400, not the end of the daemon. 100 kB of `[`
/// used to recurse once per byte and overflow the stack — an abort, which
/// takes every connection with it — and a lone high surrogate used to
/// panic the worker; a megabyte of string used to hold it for half a minute.
#[test]
fn hostile_json_bodies_are_refused_and_the_next_connection_is_served() {
    fn request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let mut raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }
    let server = boot(1, 4096);
    let deep = "[".repeat(100_000);
    let deep_object = "{\"a\":".repeat(20_000);
    // Parses, but a journal frame or `$expand` wraps what is stored:
    // bodies are taken to half the parser's depth, no further.
    let too_deep = format!("{{\"Id\":\"d\",\"a\":{}1{}}}", "[".repeat(64), "]".repeat(64));
    let long = format!("{{\"Id\":\"big\",\"Description\":\"{}\"}}", "x".repeat(1_000_000));
    for (method, path, body) in [
        ("POST", "/redfish/v1/Chassis", deep.as_str()),
        ("PATCH", "/redfish/v1/Systems/cn00", deep.as_str()),
        ("POST", "/redfish/v1/Chassis", deep_object.as_str()),
        ("POST", "/redfish/v1/Chassis", too_deep.as_str()),
        ("PATCH", "/redfish/v1/Systems/cn00", too_deep.as_str()),
        ("PATCH", "/redfish/v1/Systems/cn00", r#"{"AssetTag":"\ud800\u0041"}"#),
        ("POST", "/redfish/v1/Chassis", r#"{"Id":"x","Name":"\ud800\ud800"}"#),
        ("POST", "/redfish/v1/Chassis", r#"{"Id":"x","Power":1e999}"#),
    ] {
        let mut w = Wire::connect(&server);
        w.send(&request(method, path, body.as_bytes()));
        let r = w.response();
        assert_eq!(r.status, 400, "{method} {}…", &body[..body.len().min(24)]);
        assert!(r.body_text().contains("invalid JSON body"), "{}", r.body_text());
        // A fresh connection is served: the one worker is alive.
        drop(w);
        let mut w = Wire::connect(&server);
        w.send(get("/redfish/v1").as_bytes());
        assert_eq!(w.response().status, 200, "after {method}");
    }
    // A body at the size cap that *is* JSON is parsed promptly and stored.
    let started = Instant::now();
    let mut w = Wire::connect(&server);
    w.send(&request("POST", "/redfish/v1/Chassis", long.as_bytes()));
    assert_eq!(w.response().status, 201);
    assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
    server.shutdown();
}

/// The three `LogEntry` collections the service synthesizes from rings —
/// the event log, the observability ring and the flight recorder — honour
/// `$expand=.` as a stored collection does, and an entry its ring has
/// evicted is a Redfish 404.
#[test]
fn log_collections_expand_and_an_evicted_entry_is_404() {
    fn json(r: &Resp) -> Value {
        assert_eq!(r.status, 200, "{}", r.body_text());
        serde_json::from_slice(&r.body).unwrap()
    }
    let (server, ofmf) = boot_with_ofmf(2, 4096);
    let mut w = Wire::connect(&server);
    // One entry in each ring besides the agent's registration event.
    ofmf_obs::global()
        .ring()
        .emit(Severity::Warning, "ofmf.test", "wire-conformance expand".to_string());
    w.send(b"GET /redfish/v1 HTTP/1.1\r\nHost: t\r\nX-OFMF-Trace: 1\r\n\r\n");
    let traced = w.response();
    let trace_id = traced.header("x-ofmf-traceid").unwrap().to_string();

    for (log, wanted) in [
        ("EventLog", "fabric CXL0 registered".to_string()),
        ("Observability", "wire-conformance expand".to_string()),
        ("Tracing", "Get /redfish/v1".to_string()),
    ] {
        let path = format!("/redfish/v1/Managers/OFMF/LogServices/{log}/Entries");
        w.send(get(&format!("{path}?$expand=.")).as_bytes());
        let expanded = json(&w.response());
        let members = expanded["Members"].as_array().unwrap();
        assert_eq!(expanded["Members@odata.count"], members.len(), "{log}");
        for m in members {
            assert_eq!(m["@odata.type"], "#LogEntry.v1_15_0.LogEntry", "{log}: {m}");
            let id = m["Id"].as_str().unwrap();
            assert_eq!(m["@odata.id"], format!("{path}/{id}"), "{log}");
        }
        assert!(
            members.iter().any(|m| m["Message"].as_str().unwrap().contains(&wanted)),
            "{log}: no entry says {wanted:?}"
        );
        if log == "Tracing" {
            assert!(members.iter().any(|m| m["Id"] == trace_id.as_str()));
        }
    }

    // The event log is this OFMF's own: its links and expansion agree
    // member for member.
    let path = "/redfish/v1/Managers/OFMF/LogServices/EventLog/Entries";
    w.send(get(path).as_bytes());
    let links = json(&w.response());
    w.send(get(&format!("{path}?$expand=.")).as_bytes());
    let expanded = json(&w.response());
    let ids = |v: &Value| -> Vec<Value> {
        v["Members"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m["@odata.id"].clone())
            .collect()
    };
    assert_eq!(ids(&links), ids(&expanded));

    // Publish a full log's worth: the first entry is evicted.
    let first = ids(&links)[0].as_str().unwrap().to_string();
    w.send(get(&first).as_bytes());
    assert_eq!(w.response().status, 200);
    for i in 0..EVENT_LOG_CAP {
        ofmf.events.publish(
            EventType::ResourceUpdated,
            &ODataId::new("/redfish/v1/Systems"),
            format!("filler {i}"),
            "OK",
        );
    }
    w.send(get(&first).as_bytes());
    let evicted = w.response();
    assert_eq!(evicted.status, 404);
    assert!(
        evicted.body_text().contains("Base.1.0.ResourceMissingAtURI"),
        "{}",
        evicted.body_text()
    );
    server.shutdown();
}

#[test]
fn over_cap_connections_are_shed_with_503_retry_after() {
    let server = boot(1, 2);
    let shed_before = ofmf_obs::counter("ofmf.rest.shed.total").get();

    // Fill the cap with two keep-alive connections; a completed round trip
    // guarantees each was accepted and adopted.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut w = Wire::connect(&server);
        w.send(get("/redfish/v1").as_bytes());
        assert_eq!(w.response().status, 200);
        held.push(w);
    }

    // The next connection must be answered — not hung — with 503.
    let mut over = Wire::connect(&server);
    let r = over.response();
    assert_eq!(r.status, 503, "over-cap connection must be shed, not queued");
    assert_eq!(
        r.header("retry-after"),
        Some("1"),
        "shed response must say when to retry"
    );
    assert!(r.body_text().contains("Base.1.0.ServiceTemporarilyUnavailable"));
    assert!(over.read_to_eof().is_empty(), "shed connection must be closed");
    assert!(
        ofmf_obs::counter("ofmf.rest.shed.total").get() > shed_before,
        "shedding must be visible in ofmf.rest.shed.total"
    );

    // Releasing one connection restores capacity.
    drop(held.pop());
    eventually_200(&server);
    drop(held);
    server.shutdown();
}

#[test]
fn queue_depth_gauge_settles_at_zero_after_connection_churn() {
    let gauge = ofmf_obs::gauge("ofmf.rest.accept_queue.depth");
    let server = boot(1, 4096);
    // Churn: connections that complete a request, connections dropped
    // with a request in flight, and connections dropped while still
    // queued — every accept's gauge increment must come back.
    for _ in 0..4 {
        let mut w = Wire::connect(&server);
        w.send(get("/redfish/v1").as_bytes());
        assert_eq!(w.response().status, 200);
    }
    for _ in 0..4 {
        let mut w = Wire::connect(&server);
        w.send(get("/redfish/v1").as_bytes());
        drop(w);
    }
    for _ in 0..4 {
        drop(Wire::connect(&server));
    }
    server.shutdown();

    // Other tests in this binary may hold transient increments, so wait
    // for the gauge to pass through zero rather than asserting a single
    // sample.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if gauge.get() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "queue_depth stuck at {} after shutdown",
            gauge.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Following `Members@odata.nextLink` walks the pages of the view the client
/// asked for: the link keeps `$expand` and `$select`, and a selected
/// `Members` keeps its count and its nextLink. The pages together are the
/// collection, member for member.
#[test]
fn next_link_keeps_the_views_expand_and_select() {
    let (server, ofmf) = boot_with_ofmf(1, 64);
    let mut w = Wire::connect(&server);
    let col = ODataId::new("/redfish/v1/Fabrics/CXL0/Endpoints");
    let members: Vec<Value> = ofmf
        .registry
        .members(&col)
        .unwrap()
        .iter()
        .map(|m| Value::String(m.as_str().to_string()))
        .collect();
    assert!(members.len() >= 3, "{members:?}");
    for (first, options) in [
        ("$expand=.&$top=2", "&$top=2&$expand=."),
        ("$select=Members&$top=2", "&$top=2&$select=Members"),
        (
            "$top=2&$expand=*&$select=Name,Members",
            "&$top=2&$expand=.&$select=Name,Members",
        ),
    ] {
        let mut seen = Vec::new();
        let mut next = Some(format!("{col}?{first}"));
        while let Some(target) = next.take() {
            w.send(get(&target).as_bytes());
            let page = w.response();
            assert_eq!(page.status, 200, "{target}: {}", page.body_text());
            let doc: Value = serde_json::from_slice(&page.body).unwrap();
            assert_eq!(doc["Members@odata.count"], members.len(), "{target}");
            let name_kept = !first.contains("$select") || first.contains("Name");
            assert_eq!(doc.get("Name").is_some(), name_kept, "{target}");
            for m in doc["Members"].as_array().unwrap() {
                // Expanded pages inline documents, the others list links.
                assert_eq!(
                    m.get("@odata.type").is_some(),
                    first.contains("$expand"),
                    "{target}: {m}"
                );
                seen.push(m["@odata.id"].clone());
            }
            next = doc
                .get("Members@odata.nextLink")
                .map(|l| l.as_str().unwrap().to_string());
            if let Some(link) = &next {
                assert_eq!(link, &format!("{col}?$skip={}{options}", seen.len()));
            }
        }
        assert_eq!(seen, members, "{first}");
    }
    server.shutdown();
}
