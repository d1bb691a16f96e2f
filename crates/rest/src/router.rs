//! Routing: HTTP requests → OFMF operations → HTTP responses.

use crate::http::{Method, Request, Response};
use crossbeam::channel::Receiver;
use ofmf_core::Ofmf;
use parking_lot::Mutex;
use redfish_model::odata::{ETag, ODataId};
use redfish_model::path::{in_service_tree, top};
use redfish_model::resources::events::{EventEnvelope, EventType};
use redfish_model::RedfishError;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// South-bound composition hook: the umbrella crate implements this over
/// `composer::Composer` and attaches it with
/// [`Router::with_compose_service`], keeping `ofmf-rest` free of a
/// composer dependency while `CompositionService.Compose` still runs the
/// real allocation + bind pipeline (and its span tree) in-request.
pub trait ComposeService: Send + Sync {
    /// Handle `CompositionService.Compose`: allocate and bind a composed
    /// system described by `body`, returning the new system's id.
    fn compose(&self, body: &Value) -> Result<ODataId, RedfishError>;
}

/// The OFMF request router.
pub struct Router {
    ofmf: Arc<Ofmf>,
    /// Whether requests (other than the service root and session login)
    /// must carry a valid `X-Auth-Token`.
    require_auth: bool,
    /// Optional composition backend for `CompositionService.Compose`.
    compose: Option<Arc<dyn ComposeService>>,
    /// Delivery queues of REST-created subscriptions, drained via
    /// `GET …/Subscriptions/{id}/Events`. Receivers are `Arc`-shared so a
    /// long-polling drain can block on its queue without holding the map
    /// lock (other subscriptions keep draining concurrently).
    sub_queues: Mutex<HashMap<String, Arc<Receiver<EventEnvelope>>>>,
}

impl Router {
    /// New router; `require_auth` gates everything but `GET /redfish/v1`
    /// and session creation.
    pub fn new(ofmf: Arc<Ofmf>, require_auth: bool) -> Self {
        Router {
            ofmf,
            require_auth,
            compose: None,
            sub_queues: Mutex::new(HashMap::new()),
        }
    }

    /// Attach a composition backend serving `CompositionService.Compose`.
    pub fn with_compose_service(mut self, svc: Arc<dyn ComposeService>) -> Self {
        self.compose = Some(svc);
        self
    }

    /// Handle one request. Every request runs under a root span; the
    /// response carries its trace id in `X-OFMF-TraceId`, and a request
    /// with an `x-ofmf-trace` header is force-sampled into the flight
    /// recorder.
    pub fn handle(&self, req: &Request) -> Response {
        let metrics = crate::obs::metrics();
        let method = metrics.method(req.method);
        method.requests.inc();
        let mut span = ofmf_obs::root_span("ofmf.rest.request");
        span.set_route(&route_key(req.method, &req.path));
        if req.header("x-ofmf-trace").is_some() {
            span.force_sample();
        }
        let trace_id = span.trace_id();
        let mut resp = self.dispatch(req);
        if req.method == Method::Head {
            // HEAD advertises the entity's real Content-Length and headers
            // (ETag included) but transmits no body.
            resp = resp.into_head();
        }
        metrics.record_status(resp.status);
        if resp.status >= 500 {
            span.set_error();
            ofmf_obs::global().ring().emit_for_trace(
                ofmf_obs::Severity::Critical,
                "ofmf.rest",
                format!("{:?} {} -> {}", req.method, req.path, resp.status),
                (trace_id != 0).then_some(trace_id),
            );
        }
        span.annotate("status", resp.status.to_string());
        method.latency.record_with_exemplar(span.elapsed_ns(), trace_id);
        drop(span);
        if trace_id != 0 {
            resp = resp.with_header("X-OFMF-TraceId", &trace_id.to_string());
        }
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        if !in_service_tree(&req.path) && req.path != "/redfish" {
            return error_response(&RedfishError::NotFound(ODataId::new(req.path.as_str())));
        }
        if req.path == "/redfish" {
            return Response::json(200, &json!({"v1": "/redfish/v1/"}));
        }

        // Authentication.
        let is_login = req.method == Method::Post && req.path.trim_end_matches('/') == top::SESSIONS;
        let is_root = req.method == Method::Get && req.path.trim_end_matches('/') == "/redfish/v1";
        if self.require_auth && !is_login && !is_root {
            let token = req.header("x-auth-token").unwrap_or("");
            if self.ofmf.sessions.authenticate(&self.ofmf.registry, token).is_err() {
                return error_response(&RedfishError::Unauthorized);
            }
        }

        let path = ODataId::new(req.path.as_str());
        match req.method {
            Method::Get | Method::Head => self.get(req, &path),
            Method::Post => self.post(req, &path),
            Method::Patch => self.patch(req, &path),
            Method::Delete => self.delete(req, &path),
        }
    }

    fn get(&self, req: &Request, path: &ODataId) -> Response {
        let opts = match crate::query::QueryOptions::parse(req.query.as_deref().unwrap_or("")) {
            Ok(o) => o,
            Err(e) => return error_response(&e),
        };
        // Live observability surface (synthesized per GET, never stored).
        if let Some(resp) = crate::obs::handle_get(&self.ofmf, path, &opts) {
            return resp;
        }
        // Subscription event drain: GET …/Subscriptions/{id}/Events
        // (`?wait=<ms>` long-polls up to 10 s for the first batch).
        if let Some(parent) = path.parent() {
            if path.leaf() == "Events" && parent.as_str().starts_with(top::SUBSCRIPTIONS) {
                let wait_ms = req
                    .query
                    .as_deref()
                    .unwrap_or("")
                    .split('&')
                    .find_map(|kv| kv.strip_prefix("wait="))
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(|ms| ms.min(10_000));
                return self.drain_subscription(parent.leaf(), wait_ms);
            }
        }
        if opts.expand {
            let bytes = match self.ofmf.registry.expand(path) {
                Ok(bytes) => bytes,
                Err(e) => return error_response(&e),
            };
            let rest = crate::query::QueryOptions { expand: false, ..opts };
            if rest.is_noop() {
                return Response::json_bytes(200, bytes);
            }
            // Rare: `$expand` beside `$select`/`$top`/`$skip` pages and
            // projects the one expander's answer, parsed back.
            return match serde_json::from_slice(&bytes) {
                Ok(body) => Response::json(200, &rest.apply(body)),
                Err(e) => error_response(&RedfishError::Internal(format!("expanded {path}: {e}"))),
            };
        }
        if opts.is_noop() {
            return self.current(path, false);
        }
        match self.ofmf.get(path) {
            Ok((body, etag)) => Response::json(200, &opts.apply(body)).with_header("ETag", &etag.to_header()),
            Err(e) => error_response(&e),
        }
    }

    /// The resource at `path` as it now stands: pre-serialized bytes shared
    /// straight from the registry's ETag-keyed wire cache — no clone, no
    /// re-serialization; the event loop writes the `Arc<[u8]>` directly to
    /// the socket. A plain GET and the replies to PATCH and POST (`created`)
    /// are all this one call, so a write's reply is serialized once and the
    /// read-after-write GET behind it is a cache hit.
    fn current(&self, path: &ODataId, created: bool) -> Response {
        match self.ofmf.get_raw(path) {
            Ok((bytes, etag)) => {
                let resp = if created {
                    Response::json_bytes(201, bytes).with_header("Location", path.as_str())
                } else {
                    Response::json_bytes(200, bytes)
                };
                resp.with_header("ETag", &etag.to_header())
            }
            Err(e) => error_response(&e),
        }
    }

    fn post(&self, req: &Request, path: &ODataId) -> Response {
        let body = match parse_body(&req.body) {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        };
        let normalized = path.as_str().trim_end_matches('/');
        if normalized == top::SESSIONS {
            return self.login(&body);
        }
        if normalized == top::SUBSCRIPTIONS {
            return self.subscribe(&body);
        }
        // Redfish actions: POST …/Actions/CompositionService.Compose
        if normalized == top::COMPOSE_ACTION {
            let Some(svc) = &self.compose else {
                return error_response(&RedfishError::MethodNotAllowed(
                    "no composition service attached to this endpoint".into(),
                ));
            };
            return match svc.compose(&body) {
                Ok(rid) => self.current(&rid, true),
                Err(e) => error_response(&e),
            };
        }
        // Redfish actions: POST …/Actions/ComputerSystem.Reset
        if normalized.ends_with("/Actions/ComputerSystem.Reset") {
            let system = ODataId::new(normalized.trim_end_matches("/Actions/ComputerSystem.Reset"));
            let reset_type = body
                .get("ResetType")
                .and_then(Value::as_str)
                .unwrap_or("GracefulRestart");
            return match self.ofmf.reset_system(&system, reset_type) {
                Ok(()) => Response::empty(204),
                Err(e) => error_response(&e),
            };
        }
        match self.ofmf.post(path, &body) {
            Ok(rid) => self.current(&rid, true),
            Err(e) => error_response(&e),
        }
    }

    fn patch(&self, req: &Request, path: &ODataId) -> Response {
        let body = match parse_body(&req.body) {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        };
        let if_match = req.header("if-match").and_then(ETag::parse_header);
        if req.header("if-match").is_some() && if_match.is_none() {
            return error_response(&RedfishError::BadRequest("unparseable If-Match".into()));
        }
        match self.ofmf.patch(path, &body, if_match) {
            Ok(_) => self.current(path, false),
            Err(e) => error_response(&e),
        }
    }

    fn delete(&self, req: &Request, path: &ODataId) -> Response {
        // Session logout deletes via the session service so the token dies.
        if let Some(parent) = path.parent() {
            if parent.as_str() == top::SESSIONS {
                let token = req.header("x-auth-token").unwrap_or("");
                return match self.ofmf.sessions.logout(&self.ofmf.registry, token) {
                    Ok(()) => Response::empty(204),
                    Err(e) => error_response(&e),
                };
            }
            if parent.as_str() == top::SUBSCRIPTIONS {
                self.sub_queues.lock().remove(path.leaf());
                return match self.ofmf.events.unsubscribe(&self.ofmf.registry, path.leaf()) {
                    Ok(()) => Response::empty(204),
                    Err(e) => error_response(&e),
                };
            }
        }
        match self.ofmf.delete(path) {
            Ok(()) => Response::empty(204),
            Err(e) => error_response(&e),
        }
    }

    fn login(&self, body: &Value) -> Response {
        let user = body.get("UserName").and_then(Value::as_str).unwrap_or("");
        let password = body.get("Password").and_then(Value::as_str).unwrap_or("");
        match self.ofmf.sessions.login(&self.ofmf.registry, user, password) {
            Ok((token, sid)) => {
                let (doc, _) = self.ofmf.get(&sid).unwrap_or((json!({}), ETag::INITIAL));
                Response::json(201, &doc)
                    .with_header("Location", sid.as_str())
                    .with_header("X-Auth-Token", &token)
            }
            Err(e) => error_response(&e),
        }
    }

    fn subscribe(&self, body: &Value) -> Response {
        let destination = body
            .get("Destination")
            .and_then(Value::as_str)
            .unwrap_or("rest-poll://");
        let event_types: Vec<EventType> = body
            .get("EventTypes")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| serde_json::from_value(v.clone()).ok())
                    .collect()
            })
            .unwrap_or_default();
        let origins: Vec<ODataId> = body
            .get("OriginResources")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.get("@odata.id").and_then(Value::as_str).map(ODataId::new))
                    .collect()
            })
            .unwrap_or_default();
        match self
            .ofmf
            .events
            .subscribe(&self.ofmf.registry, destination, event_types, origins)
        {
            Ok((id, rx)) => {
                self.sub_queues.lock().insert(id.clone(), Arc::new(rx));
                let sid = ODataId::new(top::SUBSCRIPTIONS).child(&id);
                let (doc, _) = self.ofmf.get(&sid).unwrap_or((json!({}), ETag::INITIAL));
                Response::json(201, &doc).with_header("Location", sid.as_str())
            }
            Err(e) => error_response(&e),
        }
    }

    fn drain_subscription(&self, sub_id: &str, wait_ms: Option<u64>) -> Response {
        // Clone the Arc and release the map lock immediately: a long-polling
        // drain must never block other subscriptions (or new subscribes).
        let rx = {
            let queues = self.sub_queues.lock();
            match queues.get(sub_id) {
                Some(rx) => Arc::clone(rx),
                None => {
                    return error_response(&RedfishError::NotFound(
                        ODataId::new(top::SUBSCRIPTIONS).child(sub_id).child("Events"),
                    ))
                }
            }
        };
        // The wire body was serialized once at fan-out; every subscriber of
        // the batch (and every drain of it) splices the same bytes.
        fn push(batches: &mut Vec<String>, sub_id: &str, ev: EventEnvelope) {
            match ev.wire_json() {
                Ok(json) => batches.push(json),
                Err(e) => {
                    // No-panic-at-dispatch: a malformed event is dropped and
                    // counted, never allowed to kill a worker thread.
                    crate::obs::metrics().sub_events_dropped.inc();
                    ofmf_obs::global().ring().emit(
                        ofmf_obs::Severity::Warning,
                        "ofmf.rest",
                        format!("dropped unserializable event for subscription {sub_id}: {e}"),
                    );
                }
            }
        }
        let mut batches: Vec<String> = Vec::new();
        while let Ok(ev) = rx.try_recv() {
            push(&mut batches, sub_id, ev);
        }
        // SSE-style long-poll: nothing queued yet — block (off the map lock)
        // for the first batch, then sweep up whatever arrived with it.
        if batches.is_empty() {
            if let Some(ms) = wait_ms {
                if let Ok(ev) = rx.recv_timeout(std::time::Duration::from_millis(ms)) {
                    push(&mut batches, sub_id, ev);
                    while let Ok(ev) = rx.try_recv() {
                        push(&mut batches, sub_id, ev);
                    }
                }
            }
        }
        // Splice the pre-serialized batches straight into the response body.
        let mut body = Vec::with_capacity(batches.iter().map(String::len).sum::<usize>() + 32);
        body.extend_from_slice(b"{\"Events\":[");
        for (i, b) in batches.iter().enumerate() {
            if i > 0 {
                body.push(b',');
            }
            body.extend_from_slice(b.as_bytes());
        }
        body.extend_from_slice(format!("],\"Count\":{}}}", batches.len()).as_bytes());
        Response::json_bytes(200, body)
    }
}

/// Deepest array/object nesting a request body may have. The parser follows
/// 128 levels, and the service reads a stored body back inside one of its
/// own wrappers — a journal or snapshot record (one level around it), an
/// `$expand` answer (two) — so what is accepted stays well inside what can
/// be read again: a frame that does not parse at boot counts as a torn
/// tail, and the journal behind it is cut off.
const MAX_BODY_DEPTH: usize = 64;

/// A POST/PATCH body as a document, or the 400 that refuses it.
fn parse_body(bytes: &[u8]) -> Result<Value, RedfishError> {
    fn depth(v: &Value) -> usize {
        match v {
            Value::Array(a) => 1 + a.iter().map(depth).max().unwrap_or(0),
            Value::Object(m) => 1 + m.values().map(depth).max().unwrap_or(0),
            _ => 0,
        }
    }
    let body: Value =
        serde_json::from_slice(bytes).map_err(|e| RedfishError::BadRequest(format!("invalid JSON body: {e}")))?;
    if depth(&body) > MAX_BODY_DEPTH {
        return Err(RedfishError::BadRequest(format!(
            "invalid JSON body: nesting deeper than {MAX_BODY_DEPTH}"
        )));
    }
    Ok(body)
}

/// Normalize a request into a bounded route key for the flight recorder's
/// per-route latency state: member ids and deeper segments collapse to `*`
/// so a path-scanning client cannot inflate the route map.
fn route_key(method: Method, path: &str) -> String {
    let mut segs = path.split('/').filter(|s| !s.is_empty());
    let (a, b, c, rest) = (segs.next(), segs.next(), segs.next(), segs.next());
    let key = match (a, b, c, rest) {
        (Some("redfish"), None, _, _) => "/redfish".to_string(),
        (Some("redfish"), Some("v1"), None, _) => "/redfish/v1".to_string(),
        (Some("redfish"), Some("v1"), Some(col), None) => format!("/redfish/v1/{col}"),
        (Some("redfish"), Some("v1"), Some(col), Some(_)) => format!("/redfish/v1/{col}/*"),
        _ => "/*".to_string(),
    };
    format!("{method:?} {key}")
}

/// Render a Redfish error as a response. Availability errors (open circuit
/// breakers, unreachable agents) advertise a `Retry-After` header so clients
/// back off instead of hammering a dead fabric.
pub fn error_response(e: &RedfishError) -> Response {
    let resp = Response::json(e.http_status(), &e.to_body());
    match e.retry_after_secs() {
        Some(secs) => resp.with_header("Retry-After", &secs.to_string()),
        None => resp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn req(method: Method, path: &str, body: &str) -> Request {
        Request {
            method,
            path: path.to_string(),
            query: None,
            headers: BTreeMap::new(),
            body: body.as_bytes().to_vec(),
            version: crate::http::HttpVersion::Http11,
        }
    }

    fn open_router() -> Router {
        Router::new(Ofmf::new("router-test", HashMap::new(), 3), false)
    }

    #[test]
    fn get_service_root() {
        let r = open_router();
        let resp = r.handle(&req(Method::Get, "/redfish/v1", ""));
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["RedfishVersion"], "1.15.0");
        assert!(resp.headers.iter().any(|(k, _)| k == "ETag"));
    }

    #[test]
    fn version_discovery_document() {
        let r = open_router();
        let resp = r.handle(&req(Method::Get, "/redfish", ""));
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["v1"], "/redfish/v1/");
    }

    #[test]
    fn paths_outside_tree_404() {
        let r = open_router();
        assert_eq!(r.handle(&req(Method::Get, "/etc/passwd", "")).status, 404);
        assert_eq!(r.handle(&req(Method::Get, "/redfish/v2/x", "")).status, 404);
    }

    #[test]
    fn post_then_get_then_patch_then_delete() {
        let r = open_router();
        let resp = r.handle(&req(
            Method::Post,
            "/redfish/v1/Systems",
            r#"{"Id":"cn0","Name":"cn0"}"#,
        ));
        assert_eq!(resp.status, 201);
        let loc = resp
            .headers
            .iter()
            .find(|(k, _)| k == "Location")
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_eq!(loc, "/redfish/v1/Systems/cn0");

        let resp = r.handle(&req(Method::Get, &loc, ""));
        assert_eq!(resp.status, 200);

        let resp = r.handle(&req(Method::Patch, &loc, r#"{"Name":"renamed"}"#));
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["Name"], "renamed");

        let resp = r.handle(&req(Method::Delete, &loc, ""));
        assert_eq!(resp.status, 204);
        assert_eq!(r.handle(&req(Method::Get, &loc, "")).status, 404);
    }

    #[test]
    fn invalid_json_is_400_with_redfish_error_body() {
        let r = open_router();
        let resp = r.handle(&req(Method::Post, "/redfish/v1/Systems", "{nope"));
        assert_eq!(resp.status, 400);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert!(v["error"]["code"].as_str().unwrap().starts_with("Base."));
    }

    #[test]
    fn if_match_enforced() {
        let r = open_router();
        r.handle(&req(Method::Post, "/redfish/v1/Systems", r#"{"Id":"cn0","Name":"a"}"#));
        let mut p = req(Method::Patch, "/redfish/v1/Systems/cn0", r#"{"Name":"b"}"#);
        p.headers.insert("if-match".into(), "W/\"999\"".into());
        assert_eq!(r.handle(&p).status, 412);
        p.headers.insert("if-match".into(), "garbage".into());
        assert_eq!(r.handle(&p).status, 400);
    }

    #[test]
    fn auth_gates_everything_but_root_and_login() {
        let mut creds = HashMap::new();
        creds.insert("admin".to_string(), "pw".to_string());
        let ofmf = Ofmf::new("auth-test", creds, 3);
        let r = Router::new(ofmf, true);

        assert_eq!(r.handle(&req(Method::Get, "/redfish/v1", "")).status, 200, "root open");
        assert_eq!(r.handle(&req(Method::Get, "/redfish/v1/Systems", "")).status, 401);

        let login = r.handle(&req(
            Method::Post,
            "/redfish/v1/SessionService/Sessions",
            r#"{"UserName":"admin","Password":"pw"}"#,
        ));
        assert_eq!(login.status, 201);
        let token = login
            .headers
            .iter()
            .find(|(k, _)| k == "X-Auth-Token")
            .map(|(_, v)| v.clone())
            .unwrap();

        let mut authed = req(Method::Get, "/redfish/v1/Systems", "");
        authed.headers.insert("x-auth-token".into(), token.clone());
        assert_eq!(r.handle(&authed).status, 200);

        // Logout kills the token.
        let mut logout = req(Method::Delete, &format!("{}/1", top::SESSIONS), "");
        logout.headers.insert("x-auth-token".into(), token);
        assert_eq!(r.handle(&logout).status, 204);
        assert_eq!(r.handle(&authed).status, 401);

        let bad = r.handle(&req(
            Method::Post,
            "/redfish/v1/SessionService/Sessions",
            r#"{"UserName":"admin","Password":"wrong"}"#,
        ));
        assert_eq!(bad.status, 401);
    }

    #[test]
    fn subscription_create_and_drain() {
        let r = open_router();
        let resp = r.handle(&req(
            Method::Post,
            "/redfish/v1/EventService/Subscriptions",
            r#"{"Destination":"rest-poll://","EventTypes":["Alert"]}"#,
        ));
        assert_eq!(resp.status, 201);
        let loc = resp
            .headers
            .iter()
            .find(|(k, _)| k == "Location")
            .map(|(_, v)| v.clone())
            .unwrap();

        // Nothing yet.
        let drained = r.handle(&req(Method::Get, &format!("{loc}/Events"), ""));
        let v: Value = serde_json::from_slice(&drained.body).unwrap();
        assert_eq!(v["Count"], 0);

        // Publish an alert; it shows up on the next drain.
        r.ofmf.events.publish(
            EventType::Alert,
            &ODataId::new("/redfish/v1/Chassis/x"),
            "hot",
            "Warning",
        );
        let drained = r.handle(&req(Method::Get, &format!("{loc}/Events"), ""));
        let v: Value = serde_json::from_slice(&drained.body).unwrap();
        assert_eq!(v["Count"], 1);
        assert_eq!(v["Events"][0]["Events"][0]["Severity"], "Warning");

        // Unsubscribe.
        assert_eq!(r.handle(&req(Method::Delete, &loc, "")).status, 204);
        assert_eq!(r.handle(&req(Method::Get, &format!("{loc}/Events"), "")).status, 404);
    }

    #[test]
    fn expand_query_inlines_members() {
        let r = open_router();
        r.handle(&req(Method::Post, "/redfish/v1/Systems", r#"{"Id":"a","Name":"a"}"#));
        r.handle(&req(Method::Post, "/redfish/v1/Systems", r#"{"Id":"b","Name":"b"}"#));
        let mut g = req(Method::Get, "/redfish/v1/Systems", "");
        g.query = Some("$expand=.".to_string());
        let resp = r.handle(&g);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["Members"].as_array().unwrap().len(), 2);
        assert_eq!(v["Members"][0]["Name"], "a");
    }

    #[test]
    fn reset_action_toggles_power_state() {
        let r = open_router();
        r.handle(&req(
            Method::Post,
            "/redfish/v1/Systems",
            r##"{"Id":"cn0","Name":"cn0","@odata.type":"#ComputerSystem.v1_20_0.ComputerSystem","PowerState":"On"}"##,
        ));
        let resp = r.handle(&req(
            Method::Post,
            "/redfish/v1/Systems/cn0/Actions/ComputerSystem.Reset",
            r#"{"ResetType":"ForceOff"}"#,
        ));
        assert_eq!(resp.status, 204);
        let got = r.handle(&req(Method::Get, "/redfish/v1/Systems/cn0", ""));
        let v: Value = serde_json::from_slice(&got.body).unwrap();
        assert_eq!(v["PowerState"], "Off");
        // Bad reset type is a 400; unknown system a 404; non-system a 405.
        let resp = r.handle(&req(
            Method::Post,
            "/redfish/v1/Systems/cn0/Actions/ComputerSystem.Reset",
            r#"{"ResetType":"Sideways"}"#,
        ));
        assert_eq!(resp.status, 400);
        let resp = r.handle(&req(
            Method::Post,
            "/redfish/v1/Systems/ghost/Actions/ComputerSystem.Reset",
            r#"{"ResetType":"On"}"#,
        ));
        assert_eq!(resp.status, 404);
        let resp = r.handle(&req(
            Method::Post,
            "/redfish/v1/Chassis/Actions/ComputerSystem.Reset",
            r#"{"ResetType":"On"}"#,
        ));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn pagination_keeps_total_count_and_adds_next_link() {
        let r = open_router();
        for id in ["a", "b", "c", "d"] {
            r.handle(&req(
                Method::Post,
                "/redfish/v1/Systems",
                &format!(r#"{{"Id":"{id}","Name":"{id}"}}"#),
            ));
        }
        let mut g = req(Method::Get, "/redfish/v1/Systems", "");
        g.query = Some("$top=2&$skip=1".to_string());
        let resp = r.handle(&g);
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_slice(&resp.body).unwrap();
        assert_eq!(v["Members"].as_array().unwrap().len(), 2);
        // DSP0266: the count stays at the total collection size so clients
        // can size the collection; nextLink carries the paging state.
        assert_eq!(v["Members@odata.count"], 4);
        assert_eq!(v["Members@odata.nextLink"], "/redfish/v1/Systems?$skip=3&$top=2");

        // Follow the nextLink: the final page has no further link.
        let mut g = req(Method::Get, "/redfish/v1/Systems", "");
        g.query = Some("$skip=3&$top=2".to_string());
        let v: Value = serde_json::from_slice(&r.handle(&g).body).unwrap();
        assert_eq!(v["Members"].as_array().unwrap().len(), 1);
        assert_eq!(v["Members@odata.count"], 4);
        assert!(v.get("Members@odata.nextLink").is_none());
    }

    #[test]
    fn malformed_query_params_are_400() {
        let r = open_router();
        for bad in ["$top=abc", "$skip=-3", "$expand=yes", "$expand="] {
            let mut g = req(Method::Get, "/redfish/v1/Systems", "");
            g.query = Some(bad.to_string());
            let resp = r.handle(&g);
            assert_eq!(resp.status, 400, "{bad}");
            let v: Value = serde_json::from_slice(&resp.body).unwrap();
            assert_eq!(v["error"]["code"], "Base.1.0.QueryParameterValueTypeError", "{bad}");
        }
    }

    #[test]
    fn hot_get_serves_cached_bytes_with_etag() {
        let r = open_router();
        r.handle(&req(Method::Post, "/redfish/v1/Systems", r#"{"Id":"cn0","Name":"a"}"#));
        let first = r.handle(&req(Method::Get, "/redfish/v1/Systems/cn0", ""));
        let second = r.handle(&req(Method::Get, "/redfish/v1/Systems/cn0", ""));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body);
        let etag1 = first.headers.iter().find(|(k, _)| k == "ETag").cloned().unwrap();
        let etag2 = second.headers.iter().find(|(k, _)| k == "ETag").cloned().unwrap();
        assert_eq!(etag1, etag2);
        // Mutation invalidates: body and ETag both change.
        r.handle(&req(Method::Patch, "/redfish/v1/Systems/cn0", r#"{"Name":"b"}"#));
        let third = r.handle(&req(Method::Get, "/redfish/v1/Systems/cn0", ""));
        assert_ne!(third.body, second.body);
        let v: Value = serde_json::from_slice(&third.body).unwrap();
        assert_eq!(v["Name"], "b");
        assert_ne!(third.headers.iter().find(|(k, _)| k == "ETag").cloned().unwrap(), etag2);
    }

    #[test]
    fn head_reports_entity_length_and_etag_without_body() {
        let r = open_router();
        let get = r.handle(&req(Method::Get, "/redfish/v1", ""));
        let head = r.handle(&req(Method::Head, "/redfish/v1", ""));
        assert_eq!(head.status, 200);
        assert!(head.head_only, "HEAD must not transmit a body");
        assert_eq!(head.body.len(), get.body.len(), "HEAD advertises the entity length");
        assert!(head.headers.iter().any(|(k, _)| k == "ETag"), "HEAD keeps the ETag");
        let encoded = head.encode_head(true);
        let text = String::from_utf8(encoded).unwrap();
        assert!(
            text.contains(&format!("Content-Length: {}\r\n", get.body.len())),
            "{text}"
        );
    }
}
