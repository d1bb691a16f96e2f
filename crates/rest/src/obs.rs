//! REST-layer instrumentation and the Redfish-native observability export.
//!
//! Two halves:
//!
//! * [`metrics`] — the REST service's instrument bundle, resolved once from
//!   the global [`ofmf_obs`] registry and cached in a `OnceLock` so the hot
//!   path never performs a name lookup.
//! * [`handle_get`] — materializes the live observability surface under the
//!   OFMF manager: `…/Managers/OFMF` is overlaid with an `Oem.OFMF`
//!   summary, `…/Managers/OFMF/MetricReports/live` renders the current
//!   registry snapshot as a `MetricReport`, and three rings are served as
//!   `LogEntry` collections by one renderer: `…/LogServices/EventLog` (the
//!   event service's log), `…/Observability` (the obs event ring) and
//!   `…/Tracing` (the flight recorder). These documents are synthesized per
//!   GET — they are never stored in the tree, so the tree's link-closure
//!   invariant holds while the data stays live.

use crate::http::{Method, Response};
use crate::query::QueryOptions;
use ofmf_core::Ofmf;
use ofmf_obs::{Counter, Gauge, Histogram, RecordedTrace, RingEvent, Severity};
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::EventRecord;
use redfish_model::resources::log::LogEntry;
use redfish_model::resources::telemetry::{MetricReport, MetricValue};
use redfish_model::resources::Resource;
use redfish_model::RedfishError;
use serde_json::{json, Value};
use std::sync::{Arc, OnceLock};

/// Instruments for one HTTP method.
pub(crate) struct MethodMetrics {
    /// `ofmf.rest.<method>.requests`
    pub requests: Arc<Counter>,
    /// `ofmf.rest.<method>.latency_ns`
    pub latency: Arc<Histogram>,
}

impl MethodMetrics {
    fn new(method: &str) -> MethodMetrics {
        MethodMetrics {
            requests: ofmf_obs::counter(&format!("ofmf.rest.{method}.requests")),
            latency: ofmf_obs::histogram(&format!("ofmf.rest.{method}.latency_ns")),
        }
    }
}

/// The REST service's instrument bundle.
pub(crate) struct RestMetrics {
    /// `ofmf.rest.accepted.total` — connections accepted.
    pub accepted: Arc<Counter>,
    /// `ofmf.rest.accept_queue.depth` — accepted-but-unserved connections.
    pub queue_depth: Arc<Gauge>,
    /// `ofmf.rest.connections.active` — connections currently being served.
    pub connections: Arc<Gauge>,
    /// `ofmf.rest.parse_errors.total` — requests rejected by the parser.
    pub parse_errors: Arc<Counter>,
    /// `ofmf.rest.sub_events.dropped` — subscriber events dropped because
    /// they failed to serialize at drain time (no-panic-at-dispatch).
    pub sub_events_dropped: Arc<Counter>,
    /// `ofmf.rest.pipelined.total` — requests parsed behind another request
    /// in the same readiness tick (HTTP/1.1 pipelining in action).
    pub pipelined: Arc<Counter>,
    /// `ofmf.rest.shed.total` — connections refused with 503 + `Retry-After`
    /// because the event loop was at its connection cap.
    pub shed: Arc<Counter>,
    /// `ofmf.rest.status.<class>` — responses by status class, index 0 = 1xx.
    pub status: [Arc<Counter>; 5],
    pub get: MethodMetrics,
    pub post: MethodMetrics,
    pub patch: MethodMetrics,
    pub delete: MethodMetrics,
}

impl RestMetrics {
    /// The bundle for `method` (HEAD shares GET's instruments).
    pub fn method(&self, m: Method) -> &MethodMetrics {
        match m {
            Method::Get | Method::Head => &self.get,
            Method::Post => &self.post,
            Method::Patch => &self.patch,
            Method::Delete => &self.delete,
        }
    }

    /// Count a response toward its status class.
    pub fn record_status(&self, status: u16) {
        let class = (status / 100).clamp(1, 5) as usize - 1;
        // ofmf-lint: allow(no-panic-path, "class is clamped to 0..=4 and status has 5 slots")
        self.status[class].inc();
    }
}

/// The process-wide REST instrument bundle.
pub(crate) fn metrics() -> &'static RestMetrics {
    static METRICS: OnceLock<RestMetrics> = OnceLock::new();
    METRICS.get_or_init(|| RestMetrics {
        accepted: ofmf_obs::counter("ofmf.rest.accepted.total"),
        queue_depth: ofmf_obs::gauge("ofmf.rest.accept_queue.depth"),
        connections: ofmf_obs::gauge("ofmf.rest.connections.active"),
        parse_errors: ofmf_obs::counter("ofmf.rest.parse_errors.total"),
        sub_events_dropped: ofmf_obs::counter("ofmf.rest.sub_events.dropped"),
        pipelined: ofmf_obs::counter("ofmf.rest.pipelined.total"),
        shed: ofmf_obs::counter("ofmf.rest.shed.total"),
        status: std::array::from_fn(|i| ofmf_obs::counter(&format!("ofmf.rest.status.{}xx", i + 1))),
        get: MethodMetrics::new("get"),
        post: MethodMetrics::new("post"),
        patch: MethodMetrics::new("patch"),
        delete: MethodMetrics::new("delete"),
    })
}

/// The live metric report's URI.
fn live_report_id() -> ODataId {
    ODataId::new(top::OBS_METRIC_REPORTS).child("live")
}

/// Serve the synthesized observability resources. Returns `None` for paths
/// outside the observability surface (the router falls through to the
/// stored tree).
pub(crate) fn handle_get(ofmf: &Ofmf, path: &ODataId, opts: &QueryOptions) -> Option<Response> {
    let p = path.as_str().trim_end_matches('/');
    let ring = || ofmf_obs::global().ring().recent();
    let recorder = ofmf_obs::recorder();
    match p {
        top::OFMF_MANAGER => Some(manager_overlay(ofmf, path)),
        top::OBS_METRIC_REPORTS => Some(report_collection()),
        _ if p == live_report_id().as_str() => Some(live_report()),
        top::EVENT_LOG_ENTRIES => Some(log_collection(p, "Event Log Entries", &ofmf.events.log(), opts)),
        top::OBS_LOG_ENTRIES => Some(log_collection(p, "Observability Events", &ring(), opts)),
        top::OBS_TRACE_ENTRIES => Some(log_collection(p, "Flight Recorder Traces", &recorder.recent(), opts)),
        _ => {
            let id = path.leaf();
            let n = id.parse::<u64>().ok();
            match path.parent()?.as_str() {
                top::EVENT_LOG_ENTRIES => Some(log_entry(
                    path,
                    ofmf.events.log().into_iter().find(|r| r.event_id == id),
                    opts,
                )),
                top::OBS_LOG_ENTRIES => Some(log_entry(path, ring().into_iter().find(|e| Some(e.seq) == n), opts)),
                top::OBS_TRACE_ENTRIES => Some(log_entry(path, n.and_then(|n| recorder.get(n)), opts)),
                _ => None,
            }
        }
    }
}

/// `GET …/Managers/OFMF`: the stored manager document plus a live
/// `Oem.OFMF.Observability` summary.
fn manager_overlay(ofmf: &Ofmf, path: &ODataId) -> Response {
    let (mut body, etag) = match ofmf.get(path) {
        Ok(x) => x,
        Err(e) => return crate::router::error_response(&e),
    };
    let reg = ofmf_obs::global();
    let m = metrics();
    let requests: u64 = [&m.get, &m.post, &m.patch, &m.delete]
        .iter()
        .map(|mm| mm.requests.get())
        .sum();
    let exemplar = |mm: &MethodMetrics| match mm.latency.top_exemplar() {
        Some(id) => json!(id),
        None => Value::Null,
    };
    let summary = json!({
        "Enabled": ofmf_obs::enabled(),
        "UptimeMs": reg.uptime_ms(),
        "RestRequests": requests,
        "RingEvents": reg.ring().total_emitted(),
        "RetainedTraces": ofmf_obs::recorder().len(),
        "MetricReports": {"@odata.id": top::OBS_METRIC_REPORTS},
        "Tracing": {"@odata.id": top::OBS_TRACE_ENTRIES},
        "LatencyExemplars": {
            "Get": exemplar(&m.get),
            "Post": exemplar(&m.post),
            "Patch": exemplar(&m.patch),
            "Delete": exemplar(&m.delete),
        },
    });
    if let Value::Object(map) = &mut body {
        let oem = map.entry("Oem".to_string()).or_insert_with(|| json!({}));
        if let Value::Object(oem) = oem {
            #[cfg(feature = "lockcheck")]
            let payload = json!({"Observability": summary, "Lockcheck": lockcheck_summary()});
            #[cfg(not(feature = "lockcheck"))]
            let payload = json!({"Observability": summary});
            oem.insert("OFMF".to_string(), payload);
        }
    }
    Response::json(200, &body).with_header("ETag", &etag.to_header())
}

/// `Oem.OFMF.Lockcheck`: the recording shim's live lock health — hottest
/// hold sites, witnessed blocking-while-locked operations, and the
/// runtime lock-order graph summary. Present only when the server binary
/// was built with `--features lockcheck`.
#[cfg(feature = "lockcheck")]
fn lockcheck_summary() -> Value {
    ofmf_obs::publish_lockcheck();
    let holds = parking_lot::hold_time_report();
    let top: Vec<Value> = holds
        .iter()
        .take(8)
        .map(|h| {
            json!({
                "Site": format!("{}:{}", h.file, h.line),
                "Mode": h.mode,
                "Count": h.count,
                "TotalNs": h.total_ns,
                "MaxNs": h.max_ns,
                "P99Ns": h.p99_ns,
                "Contended": h.contended,
            })
        })
        .collect();
    let blocking: Vec<Value> = parking_lot::blocking_report()
        .iter()
        .map(|v| {
            json!({
                "Kind": v.kind,
                "Site": format!("{}:{}", v.file, v.line),
                "Held": v.held,
            })
        })
        .collect();
    let order = parking_lot::lock_order_report();
    json!({
        "HoldSites": holds.len(),
        "TopHolds": top,
        "BlockingWhileLocked": blocking,
        "OrderEdges": order.edges.len(),
        "OrderCycles": order.cycles.len(),
    })
}

/// `GET …/MetricReports`: the collection, always listing the live report.
fn report_collection() -> Response {
    Response::json(
        200,
        &json!({
            "@odata.id": top::OBS_METRIC_REPORTS,
            "@odata.type": "#MetricReportCollection.MetricReportCollection",
            "Name": "Live Metric Reports",
            "Members": [{"@odata.id": live_report_id().as_str()}],
            "Members@odata.count": 1,
        }),
    )
}

/// `GET …/MetricReports/live`: the registry snapshot as a `MetricReport`.
///
/// Counters and gauges become one `MetricValue` each; histograms expand to
/// `<name>.count/.mean/.p50/.p95/.p99/.max`.
fn live_report() -> Response {
    let reg = ofmf_obs::global();
    #[cfg(feature = "lockcheck")]
    ofmf_obs::publish_lockcheck();
    let snap = reg.snapshot();
    let origin = ODataId::new(top::OFMF_MANAGER);
    let now = ofmf_obs::unix_ms();
    let mut values = Vec::with_capacity(snap.counters.len() + snap.gauges.len() + snap.histograms.len() * 6);
    for (name, v) in &snap.counters {
        values.push(MetricValue::sample(name, *v as f64, &origin, now));
    }
    for (name, v) in &snap.gauges {
        values.push(MetricValue::sample(name, *v as f64, &origin, now));
    }
    for (name, h) in &snap.histograms {
        values.push(MetricValue::sample(
            &format!("{name}.count"),
            h.count as f64,
            &origin,
            now,
        ));
        values.push(MetricValue::sample(&format!("{name}.mean"), h.mean, &origin, now));
        values.push(MetricValue::sample(&format!("{name}.p50"), h.p50 as f64, &origin, now));
        values.push(MetricValue::sample(&format!("{name}.p95"), h.p95 as f64, &origin, now));
        values.push(MetricValue::sample(&format!("{name}.p99"), h.p99 as f64, &origin, now));
        values.push(MetricValue::sample(&format!("{name}.max"), h.max as f64, &origin, now));
    }
    let report = MetricReport::new(&ODataId::new(top::OBS_METRIC_REPORTS), "live", snap.uptime_ms, values);
    Response::json(200, &report.to_value())
}

/// One entry of a synthesized `LogEntry` collection: the event log, the
/// observability ring or the flight recorder.
trait AsLogEntry {
    /// The entry's `Id`, the last segment of its path.
    fn id(&self) -> String;
    /// The entry as a `LogEntry` under `collection`.
    fn log_entry(&self, collection: &ODataId) -> LogEntry;
}

/// The event log: `Id` is the record's `EventId`.
impl AsLogEntry for EventRecord {
    fn id(&self) -> String {
        self.event_id.clone()
    }

    fn log_entry(&self, collection: &ODataId) -> LogEntry {
        LogEntry::event(
            collection,
            &self.event_id,
            &self.severity,
            &self.message,
            &self.message_id,
            &self.origin_of_condition.odata_id,
            self.event_timestamp,
        )
    }
}

/// The observability ring: `Id` is the event's sequence number.
impl AsLogEntry for RingEvent {
    fn id(&self) -> String {
        self.seq.to_string()
    }

    fn log_entry(&self, collection: &ODataId) -> LogEntry {
        let message = match self.trace_id {
            Some(tid) => format!("{}: {} (trace {tid})", self.target, self.message),
            None => format!("{}: {}", self.target, self.message),
        };
        let mut entry = LogEntry::event(
            collection,
            &self.id(),
            self.severity.as_str(),
            &message,
            "OFMF.1.0.ObservabilityEvent",
            &ODataId::new(top::OFMF_MANAGER),
            self.unix_ms,
        );
        // Join: when the flight recorder retained the originating trace, the
        // entry links straight to it.
        let retained = self.trace_id.filter(|tid| ofmf_obs::recorder().get(*tid).is_some());
        let link = |tid: u64| {
            let trace = ODataId::new(top::OBS_TRACE_ENTRIES).child(&tid.to_string());
            json!({"OFMF": {"Trace": {"TraceId": tid, "@odata.id": trace.as_str()}}})
        };
        entry.oem = retained.map(link);
        entry
    }
}

/// The flight recorder: `Id` is the trace id, and `Oem.OFMF.Trace` carries
/// the full span tree.
impl AsLogEntry for RecordedTrace {
    fn id(&self) -> String {
        self.trace_id.to_string()
    }

    fn log_entry(&self, collection: &ODataId) -> LogEntry {
        let message = format!(
            "{}: {:.3} ms, {} spans ({})",
            self.route,
            self.duration_ns as f64 / 1e6,
            self.spans.len(),
            self.reason.as_str()
        );
        let severity = if self.errored { "Critical" } else { "OK" };
        let mut entry = LogEntry::event(
            collection,
            &self.id(),
            severity,
            &message,
            "OFMF.1.0.TraceRecord",
            &ODataId::new(top::OFMF_MANAGER),
            self.started_unix_ms,
        );
        entry.oem = Some(json!({"OFMF": {"Trace": trace_json(self)}}));
        entry
    }
}

/// `GET` of a synthesized `LogEntry` collection, oldest entry first: member
/// links, or the entries themselves under `$expand`; `$select`, `$top` and
/// `$skip` apply as they do to a stored collection.
fn log_collection<T: AsLogEntry>(path: &str, name: &str, entries: &[T], opts: &QueryOptions) -> Response {
    let collection = ODataId::new(path);
    let members: Vec<Value> = entries
        .iter()
        .map(|e| {
            if opts.expand {
                e.log_entry(&collection).to_value()
            } else {
                json!({"@odata.id": collection.child(&e.id()).as_str()})
            }
        })
        .collect();
    let count = members.len();
    let body = json!({
        "@odata.id": path,
        "@odata.type": "#LogEntryCollection.LogEntryCollection",
        "Name": name,
        "Members": members,
        "Members@odata.count": count,
    });
    Response::json(200, &opts.apply(body))
}

/// `GET …/Entries/{Id}` of a synthesized collection: the entry, or 404 once
/// its ring has evicted it.
fn log_entry<T: AsLogEntry>(path: &ODataId, entry: Option<T>, opts: &QueryOptions) -> Response {
    match (entry, path.parent()) {
        (Some(e), Some(collection)) => Response::json(200, &opts.apply(e.log_entry(&collection).to_value())),
        _ => crate::router::error_response(&RedfishError::NotFound(path.clone())),
    }
}

/// Render a recorded trace as plain JSON (the CLI re-renders this as a
/// tree with self-time and the critical path).
fn trace_json(t: &RecordedTrace) -> Value {
    let spans: Vec<Value> = t
        .spans
        .iter()
        .map(|s| {
            let ann: Vec<Value> = s.annotations.iter().map(|(k, v)| json!([k, v])).collect();
            json!({
                "Id": s.id,
                "ParentId": s.parent_id,
                "Name": s.name,
                "StartNs": s.start_ns,
                "DurationNs": s.duration_ns,
                "Status": s.status.as_str(),
                "Annotations": ann,
            })
        })
        .collect();
    json!({
        "TraceId": t.trace_id,
        "Route": t.route,
        "StartedUnixMs": t.started_unix_ms,
        "DurationNs": t.duration_ns,
        "Errored": t.errored,
        "Reason": t.reason.as_str(),
        "SpansDropped": t.spans_dropped,
        "Spans": spans,
    })
}

/// Emit a warning event about a rejected (unparseable) request.
pub(crate) fn note_parse_error(detail: &str) {
    let m = metrics();
    m.parse_errors.inc();
    ofmf_obs::global()
        .ring()
        .emit(Severity::Warning, "ofmf.rest", format!("request rejected: {detail}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes_clamp() {
        let m = metrics();
        let before = m.status[4].get();
        m.record_status(500);
        m.record_status(599);
        m.record_status(999); // clamped into 5xx
        assert_eq!(m.status[4].get(), before + 3);
    }
}
