//! The traced run's per-layer metrics. Every layer is measured from
//! outside, through its public functions, on the rig in the state the
//! workload left it: counters read around the timed segments, an in-process
//! replay of a sample of the workload's own operations under harness spans,
//! and fixed probes of each layer's calls.
//!
//! layer → end-to-end metric it should move (on which workload):
//! `rest.*`, `core.sessions.*`, `obs.*` → `ops_per_s` (monitor_sweep);
//! `redfish.registry.*`, `serde_json.*` → `ops_per_s`, `expand_p50_us`
//! (tree_churn); `wal.*`, `redfish.replay.*` → `wal_bytes_per_op`,
//! `recovery_s` (all); `composer.*`, `agents.apply_ns.*`,
//! `core.supervisor.*` → `compose_p50_ms`, `compose_p99_ms`,
//! `decompose_p50_ms` (job_churn); `fabric.*`, `core.events.*`,
//! `core.telemetry.*`, `core.ofmf.poll_ns`, `agents.drain_events_ns`,
//! `agents.sample_telemetry_ns` → `event_delivery_p50_ms`,
//! `event_delivery_p99_ms` (fault_storm); `core.ofmf.register_agent_ms` →
//! `setup_s`.

use crate::gen::{JobGen, Kind};
use crate::recover::Recovery;
use crate::rig::{Rig, PASSWORD, USER};
use crate::run::{Metric, Options};
use crate::stats::{fast_median, fast_rate, percentile, Segment};
use crate::trace::Tracer;
use crate::wire::encode_request;
use crate::workloads::{Load, Session, Storm};
use ofmf_core::AgentOp;
use ofmf_rest::http::{parse_request, Request, Response};
use ofmf_rest::query::QueryOptions;
use ofmf_wal::{FsyncPolicy, Wal, WalRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::EventType;
use redfish_model::Registry;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Operations of the workload replayed in-process under recorded spans: a
/// twentieth of the timed operations, within these limits.
const REPLAY_OPS: (usize, usize) = (50, 2000);

const OBS_COUNTERS: [&str; 12] = [
    "ofmf.wal.appends.total",
    "ofmf.wal.bytes.total",
    "ofmf.wal.snapshot.total",
    "ofmf.composer.composed.total",
    "ofmf.composer.probe.pairs.total",
    "ofmf.composer.probe.cache_hit.total",
    "ofmf.composer.probe.cache_miss.total",
    "ofmf.supervisor.retries.total",
    "ofmf.events.published.total",
    "ofmf.events.delivered.total",
    "ofmf.events.dropped.total",
    "ofmf.telemetry.ingest.samples.total",
];

/// A reading of the program's own counters.
pub struct Counters {
    obs: BTreeMap<&'static str, u64>,
    wire_cache: (u64, u64),
}

impl Counters {
    /// Read them now.
    pub fn read(rig: &Rig) -> Counters {
        Counters {
            obs: OBS_COUNTERS.iter().map(|n| (*n, ofmf_obs::counter(n).get())).collect(),
            wire_cache: rig.ofmf.registry.wire_cache_stats(),
        }
    }

    fn since(&self, earlier: &Counters, name: &str) -> f64 {
        (self.obs[name] - earlier.obs[name]) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span name of the router handling a request of this method.
fn handle_span(req: &Request) -> &'static str {
    match req.method {
        ofmf_rest::http::Method::Get | ofmf_rest::http::Method::Head => "rest.handle_get",
        ofmf_rest::http::Method::Patch => "rest.handle_patch",
        ofmf_rest::http::Method::Post => "rest.handle_post",
        ofmf_rest::http::Method::Delete => "rest.handle_delete",
    }
}

/// Serve one encoded request in-process the way a worker does — parse,
/// route, encode — each step under its span. Returns the response and the
/// bytes it would put on the wire.
pub fn serve(rig: &Rig, t: &Tracer, bytes: &[u8]) -> io::Result<(Response, usize)> {
    let parsed = t.enter("rest.parse", || parse_request(bytes)).0;
    let Ok(Some((req, _))) = parsed else {
        return Err(io::Error::other("generated request does not parse"));
    };
    let resp = t.enter(handle_span(&req), || rig.router.handle(&req)).0;
    let head = t.enter("rest.encode", || resp.encode_head(true)).0;
    let out = head.len() + resp.body.len();
    Ok((resp, out))
}

fn root_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Get => "op.get",
        Kind::GetCollection => "op.get_collection",
        Kind::GetWritten => "op.get_written",
        Kind::Patch => "op.patch",
        Kind::Post => "op.post",
        Kind::Delete => "op.delete",
        Kind::QueryExpand => "op.query_expand",
        Kind::QuerySelect => "op.query_select",
        Kind::QueryPage => "op.query_page",
        Kind::Compose => "op.compose",
    }
}

/// Replay one generated request under a root span named after its kind.
/// Returns the bytes it would put on the wire.
pub fn replay_request(s: &mut Session, t: &Tracer, trace: u64, kind: Kind, bytes: &[u8]) -> io::Result<usize> {
    t.begin_trace(trace);
    let (served, _) = t.enter(root_span(kind), || serve(&s.rig, t, bytes));
    let (resp, out) = served?;
    s.tally.record(if resp.status < 300 {
        Ok(())
    } else {
        Err(format!("replayed {kind:?} answered {}", resp.status))
    });
    Ok(out)
}

/// Run `f` `n` times under span `name` (totals only unless recording).
fn probe(t: &Tracer, name: &'static str, n: usize, mut f: impl FnMut(usize)) {
    for i in 0..n {
        t.enter(name, || f(i));
    }
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: samples as usize,
    }
}

fn get_request(token: &str, target: &str) -> Vec<u8> {
    let mut req = Vec::new();
    encode_request(&mut req, "GET", target, token, b"");
    req
}

/// The per-layer metrics of a traced run plus the layer table of the
/// replayed sample. Runs after the timed segments, poll thread stopped.
pub fn measure(
    s: &mut Session,
    load: &mut dyn Load,
    t: &Arc<Tracer>,
    before: &Counters,
    segments: &[Segment],
    opts: &Options,
    register_agent_ms: f64,
) -> io::Result<(Vec<Metric>, Value)> {
    let after = Counters::read(&s.rig);
    let main_ops: u64 = segments.iter().map(|x| x.ops).sum();
    // Each round's second segment ran with the timing decorators active,
    // its first with them passing straight through: traced and untraced
    // throughput of one process on one rig, interleaved in time.
    let off: Vec<Segment> = segments.iter().copied().step_by(2).collect();
    let on: Vec<Segment> = segments.iter().copied().skip(1).step_by(2).collect();
    let untraced_rate = fast_rate(&off);
    let traced_rate = fast_rate(&on);
    let time_per_op_ns = ratio(1e9, untraced_rate);
    t.set_active(true);

    // ---- the workload's own operations, replayed in-process, recorded ----
    let n_replay = (main_ops as usize / 20).clamp(REPLAY_OPS.0, REPLAY_OPS.1);
    t.set_recording(true);
    let replayed = load.replay(s, t, n_replay)?;
    t.set_recording(false);
    let selfs = t.self_times();
    let mut rows: Vec<Value> = Vec::new();
    let mut accounted = 0.0;
    for (name, total) in &selfs {
        let per_op = total.ns as f64 / replayed.ops.max(1) as f64;
        accounted += per_op;
        rows.push(json!({"layer": *name, "spans": total.count, "self_ns_per_op": per_op}));
    }
    let wire_remainder_ns = time_per_op_ns - accounted;
    let table = json!({
        "replayed_ops": replayed.ops,
        "untraced_time_per_op_ns": time_per_op_ns,
        "rows": rows,
        "rest.wire_remainder_ns": wire_remainder_ns,
        "sum_ns": accounted + wire_remainder_ns,
        "note": "self time = span minus the part its children cover; rows + rest.wire_remainder_ns = untraced time per op. \
                 The remainder is what in-process replay cannot see: sockets, epoll, syscalls, and the generator's share of a closed loop.",
    });

    // ---- fixed probes of each layer's public calls ----
    let rig = &s.rig;
    let ofmf = Arc::clone(&rig.ofmf);
    let reg = Arc::clone(&ofmf.registry);
    let tree = Arc::clone(&s.tree);
    let token = s.token.clone();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x1A7E);
    let member = |rng: &mut StdRng| ODataId::new(tree.members[rng.gen_range(0..tree.members.len())].as_str());
    let patchable = |rng: &mut StdRng| {
        ODataId::new(tree.members[tree.patchable[rng.gen_range(0..tree.patchable.len())] as usize].as_str())
    };

    // rest: hot GET, PATCH, POST (+ DELETE) through parse → handle → encode.
    let hot: Vec<Vec<u8>> = (0..256)
        .map(|_| get_request(&token, member(&mut rng).as_str()))
        .collect();
    let hot_reqs: Vec<Request> = hot
        .iter()
        .map(|r| parse_request(r).ok().flatten().expect("generated GET parses").0)
        .collect();
    for req in &hot_reqs {
        black_box(rig.router.handle(req));
    }
    let (mut bytes_out, mut on_ns, mut off_ns) = (0usize, 0u64, 0u64);
    for i in 0..8192 {
        bytes_out += serve(rig, t, &hot[i % hot.len()])?.1;
        on_ns += t
            .enter("obs.handle_get_on", || rig.router.handle(&hot_reqs[i % hot.len()]))
            .1;
    }
    ofmf_obs::set_enabled(false);
    for i in 0..8192 {
        off_ns += t
            .enter("obs.handle_get_off", || rig.router.handle(&hot_reqs[i % hot.len()]))
            .1;
    }
    ofmf_obs::set_enabled(true);
    let get_on_ns = on_ns as f64 / 8192.0;
    let get_off_ns = off_ns as f64 / 8192.0;
    let hot_bytes_out = bytes_out as f64 / 8192.0;
    for i in 0..1024 {
        let mut req = Vec::new();
        // Not `AssetTag`: that is the member `tree_churn`'s ledger checks.
        let body = format!("{{\"PartNumber\":\"probe-{i}\"}}");
        encode_request(&mut req, "PATCH", patchable(&mut rng).as_str(), &token, body.as_bytes());
        serve(rig, t, &req)?;
    }
    for i in 0..512 {
        let mut req = Vec::new();
        let body = format!("{{\"Id\":\"probe-{i}\",\"Name\":\"probe-{i}\"}}");
        encode_request(&mut req, "POST", top::CHASSIS, &token, body.as_bytes());
        serve(rig, t, &req)?;
        let mut del = Vec::new();
        encode_request(&mut del, "DELETE", &format!("{}/probe-{i}", top::CHASSIS), &token, b"");
        serve(rig, t, &del)?;
    }

    // rest.query: parse + apply over the chassis collection's real body.
    let chassis_body = reg
        .get(&ODataId::new(top::CHASSIS))
        .map_err(|e| io::Error::other(format!("chassis: {e}")))?
        .wire_body();
    probe(t, "rest.query", 512, |i| {
        let q = QueryOptions::parse(&format!("$top=50&$skip={}&$select=Members,Name", i % 64)).expect("valid query");
        black_box(q.apply(chassis_body.clone()));
    });

    // rest.rtt: idle ping-pong over the wire (diagnostic, host-dominated).
    let mut rtt = Vec::with_capacity(512);
    for i in 0..512 {
        let t0 = Instant::now();
        s.conns[0].round_trip(&hot[i % hot.len()], |_, _| ())?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    // core.sessions
    probe(t, "core.sessions.authenticate", 4096, |_| {
        black_box(ofmf.sessions.authenticate(&reg, &token).is_ok());
    });
    let mut logins = Vec::new();
    probe(t, "core.sessions.login", 64, |_| {
        logins.extend(ofmf.sessions.login(&reg, USER, PASSWORD).ok());
    });
    for (tok, _) in logins {
        let _ = ofmf.sessions.logout(&reg, &tok);
    }

    // redfish.registry
    let ids: Vec<ODataId> = (0..512).map(|_| patchable(&mut rng)).collect();
    for id in &ids {
        let _ = reg.wire_bytes(id);
    }
    probe(t, "redfish.registry.wire_hit", 8192, |i| {
        black_box(reg.wire_bytes(&ids[i % ids.len()]).is_ok());
    });
    for (i, id) in ids.iter().enumerate() {
        let _ = reg.patch(id, &json!({"PartNumber": format!("miss-{i}")}), None);
        t.enter("redfish.registry.wire_miss", || black_box(reg.wire_bytes(id).is_ok()));
    }
    probe(t, "redfish.registry.get", 4096, |i| {
        black_box(reg.get(&ids[i % ids.len()]).is_ok());
    });
    probe(t, "redfish.registry.patch", 2048, |i| {
        black_box(
            reg.patch(&ids[i % ids.len()], &json!({"PartNumber": format!("p-{i}")}), None)
                .is_ok(),
        );
    });
    // create/delete at 2 000 members: `Members` bookkeeping is O(n).
    let chassis = ODataId::new(top::CHASSIS);
    let held = reg.members(&chassis).map_or(0, |m| m.len());
    let fill: Vec<ODataId> = (held..2000).map(|i| chassis.child(&format!("fill-{i}"))).collect();
    for id in &fill {
        let _ = reg.create(id, json!({"Id": id.leaf(), "Name": id.leaf()}));
    }
    for i in 0..512 {
        let id = chassis.child(&format!("scratch-{i}"));
        t.enter("redfish.registry.create", || {
            black_box(reg.create(&id, json!({"Id": id.leaf(), "Name": id.leaf()})).is_ok())
        });
        t.enter("redfish.registry.delete", || black_box(reg.delete(&id).is_ok()));
    }
    for id in &fill {
        let _ = reg.delete(id);
    }
    let systems = ODataId::new(top::SYSTEMS);
    probe(t, "redfish.registry.expand", 256, |_| {
        black_box(reg.expand(&systems).is_ok());
    });

    // serde_json over the workload's real bodies.
    let bodies: Vec<Arc<[u8]>> = ids
        .iter()
        .filter_map(|id| reg.wire_bytes(id).ok().map(|(b, _)| b))
        .collect();
    let body_bytes: usize = bodies.iter().map(|b| b.len()).sum();
    let t0 = Instant::now();
    let docs: Vec<Value> = bodies.iter().filter_map(|b| serde_json::from_slice(b).ok()).collect();
    let parse_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    let out_bytes: usize = docs
        .iter()
        .filter_map(|d| serde_json::to_vec(d).ok())
        .map(|v| v.len())
        .sum();
    let serialize_ns = t0.elapsed().as_nanos() as f64;

    // wal
    let wal = Arc::clone(ofmf.wal().expect("the rig journals"));
    probe(t, "wal.append", 4096, |i| {
        wal.record(&WalRecord::SessionTouch {
            token: token.clone(),
            last_used_ms: i as u64,
        });
    });
    // What the rig's `FsyncPolicy::Off` leaves out: one fdatasync of a few
    // freshly appended records, as `Batch(5)` would issue every 5 ms.
    let mut fsync_us = Vec::with_capacity(32);
    for i in 0..32u64 {
        wal.record(&WalRecord::SessionTouch {
            token: token.clone(),
            last_used_ms: i,
        });
        let t0 = Instant::now();
        let _ = wal.flush();
        fsync_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    t.enter("wal.snapshot", || black_box(ofmf.write_snapshot().is_ok()));

    // composer + agents + supervisor
    probe(t, "composer.inventory", 64, |_| {
        black_box(s.rig.composer.inventory());
    });
    let mut jobs = JobGen::new(opts.seed ^ 0x1A7F, "layer", 0, &token);
    for _ in 0..48 {
        let c = jobs.cycle();
        let served = t.enter("op.compose", || serve(&s.rig, t, c.compose.request(0))).0?;
        let ok = served.0.status == 201;
        let sys = ODataId::new(c.decompose.expect("max_live 0 decomposes at once"));
        let torn = t.enter("composer.decompose", || s.rig.composer.decompose(&sys)).0;
        s.tally.record(if ok && torn.is_ok() {
            Ok(())
        } else {
            Err(format!(
                "layer-probe compose answered {}, decompose {torn:?}",
                served.0.status
            ))
        });
    }
    // One supervised ProbeRoutes batch: a node against every CXL target.
    let cxl = &s.rig.agents[0];
    let node = tree.nodes[rng.gen_range(0..tree.nodes.len())]
        .rsplit('/')
        .next()
        .unwrap_or("");
    let initiator = cxl.endpoint_id(node);
    let pairs: Vec<(ODataId, ODataId)> = cxl.with_sim(|sim| {
        sim.topology()
            .target_endpoints()
            .iter()
            .map(|e| (initiator.clone(), cxl.endpoint_id(&sim.device(*e).name)))
            .collect()
    });
    let agent_before = t.totals().get("agents.apply.probe_routes").copied().unwrap_or_default();
    probe(t, "core.ofmf.apply", 512, |_| {
        black_box(
            ofmf.apply("CXL0", &AgentOp::ProbeRoutes { pairs: pairs.clone() })
                .is_ok(),
        );
    });
    let agent_after = t.totals().get("agents.apply.probe_routes").copied().unwrap_or_default();
    let dispatch_overhead_ns = t.mean_ns("core.ofmf.apply")
        - ratio(
            (agent_after.ns - agent_before.ns) as f64,
            (agent_after.count - agent_before.count) as f64,
        );

    // fabric + events + telemetry + poll: fault ticks on this rig.
    let (faults, reroutes) = match load.fault_counts() {
        Some(counts) => counts,
        None => {
            let mut storm = Storm::setup(s, opts.seed ^ 0x1A80, false)?;
            for _ in 0..64 {
                storm.tick(s)?;
            }
            let counts = storm.counts();
            storm.teardown(s)?;
            counts
        }
    };
    let origin = ODataId::new(top::SYSTEMS);
    // The internal event-log subscriber queues 256 batches: flush it
    // between rounds so the probe measures fan-out, not drops.
    for _ in 0..16 {
        probe(t, "core.events.publish", 128, |_| {
            ofmf.events
                .publish(EventType::ResourceUpdated, &origin, "layer probe", "OK");
        });
        ofmf.flush_event_log();
    }
    let polls_before = Counters::read(&s.rig);
    probe(t, "core.ofmf.poll", 32, |_| {
        black_box(ofmf.poll());
    });
    let polls_after = Counters::read(&s.rig);
    let batch = {
        use ofmf_core::Agent;
        s.rig.agents[0].sample_telemetry()
    };
    probe(t, "core.telemetry.ingest", 64, |_| {
        black_box(ofmf.telemetry.ingest(&batch, &ofmf.events));
    });
    ofmf.flush_event_log();
    let end = Counters::read(&s.rig);

    // `name` = mean duration of the spans called `span`.
    let timed = |name: &str, span: &str| {
        let total = t.totals().get(span).copied().unwrap_or_default();
        metric(name, t.mean_ns(span), "ns", total.count)
    };
    let mean = |name: &str| t.mean_ns(name);
    let count = |name: &str| t.totals().get(name).map_or(0, |x| x.count);
    let total_ns = |name: &str| t.totals().get(name).map_or(0, |x| x.ns) as f64;
    let composes = count("composer.compose");
    let agent_kinds = [
        "agents.apply.probe_routes",
        "agents.apply.create_zone",
        "agents.apply.connect",
        "agents.apply.disconnect",
        "agents.apply.delete_zone",
    ];
    // Compose-time agent work: what the bind path calls (probe, zone,
    // connect); disconnect and delete_zone belong to decompose.
    let compose_agent_ns: f64 =
        agent_kinds[..3].iter().map(|k| total_ns(k)).sum::<f64>() - (agent_after.ns - agent_before.ns) as f64;
    let agent_ops: u64 = agent_kinds.iter().map(|k| count(k)).sum::<u64>() - (agent_after.count - agent_before.count);
    let (hits, misses) = (
        (after.wire_cache.0 - before.wire_cache.0) as f64,
        (after.wire_cache.1 - before.wire_cache.1) as f64,
    );
    let ns = "ns";
    let m = vec![
        timed("rest.parse_ns", "rest.parse"),
        metric("rest.handle_get_ns", get_on_ns, ns, 8192),
        timed("rest.handle_patch_ns", "rest.handle_patch"),
        timed("rest.handle_post_ns", "rest.handle_post"),
        timed("rest.encode_ns", "rest.encode"),
        metric("rest.wire_remainder_ns", wire_remainder_ns, ns, replayed.ops),
        metric(
            "rest.bytes_out_per_op",
            if replayed.bytes_out > 0 {
                replayed.bytes_out as f64 / replayed.ops.max(1) as f64
            } else {
                hot_bytes_out
            },
            "B",
            replayed.ops,
        ),
        timed("rest.query_ns", "rest.query"),
        metric("rest.rtt_us", percentile(&rtt, 50.0), "us", rtt.len() as u64),
        timed("core.sessions.authenticate_ns", "core.sessions.authenticate"),
        timed("core.sessions.login_ns", "core.sessions.login"),
        timed("redfish.registry.wire_hit_ns", "redfish.registry.wire_hit"),
        timed("redfish.registry.wire_miss_ns", "redfish.registry.wire_miss"),
        metric(
            "redfish.registry.wire_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            (hits + misses) as u64,
        ),
        timed("redfish.registry.get_ns", "redfish.registry.get"),
        timed("redfish.registry.patch_ns", "redfish.registry.patch"),
        timed("redfish.registry.create_ns", "redfish.registry.create"),
        timed("redfish.registry.delete_ns", "redfish.registry.delete"),
        timed("redfish.registry.expand_ns", "redfish.registry.expand"),
        metric(
            "serde_json.parse_ns_per_byte",
            ratio(parse_ns, body_bytes as f64),
            "ns/B",
            body_bytes as u64,
        ),
        metric(
            "serde_json.serialize_ns_per_byte",
            ratio(serialize_ns, out_bytes as f64),
            "ns/B",
            out_bytes as u64,
        ),
        timed("wal.append_ns", "wal.append"),
        metric(
            "wal.bytes_per_record",
            ratio(
                after.since(before, "ofmf.wal.bytes.total"),
                after.since(before, "ofmf.wal.appends.total"),
            ),
            "B",
            after.since(before, "ofmf.wal.appends.total") as u64,
        ),
        metric("wal.fsync_us", percentile(&fsync_us, 50.0), "us", fsync_us.len() as u64),
        metric(
            "wal.snapshots",
            after.since(before, "ofmf.wal.snapshot.total"),
            "count",
            1,
        ),
        metric(
            "wal.snapshot_ms",
            mean("wal.snapshot") / 1e6,
            "ms",
            count("wal.snapshot"),
        ),
        metric("composer.compose_ns", mean("composer.compose"), ns, composes),
        timed("composer.inventory_ns", "composer.inventory"),
        timed("composer.decompose_ns", "composer.decompose"),
        metric(
            "composer.self_ns",
            mean("composer.compose") - ratio(compose_agent_ns, composes as f64),
            ns,
            composes,
        ),
        metric(
            "composer.probe_cache_hit_ratio",
            ratio(
                end.since(before, "ofmf.composer.probe.cache_hit.total"),
                end.since(before, "ofmf.composer.probe.cache_hit.total")
                    + end.since(before, "ofmf.composer.probe.cache_miss.total"),
            ),
            "ratio",
            composes,
        ),
        metric(
            "composer.probe_pairs_per_compose",
            ratio(
                end.since(before, "ofmf.composer.probe.pairs.total"),
                end.since(before, "ofmf.composer.composed.total"),
            ),
            "count",
            composes,
        ),
        timed("agents.apply_ns.probe_routes", agent_kinds[0]),
        timed("agents.apply_ns.create_zone", agent_kinds[1]),
        timed("agents.apply_ns.connect", agent_kinds[2]),
        timed("agents.apply_ns.disconnect", agent_kinds[3]),
        timed("agents.apply_ns.delete_zone", agent_kinds[4]),
        metric(
            "agents.ops_per_compose",
            ratio(agent_ops as f64, composes as f64),
            "count",
            composes,
        ),
        timed("agents.drain_events_ns", "agents.drain_events"),
        timed("agents.sample_telemetry_ns", "agents.sample_telemetry"),
        timed("agents.heartbeat_ns", "agents.heartbeat"),
        metric(
            "core.supervisor.dispatch_overhead_ns",
            dispatch_overhead_ns,
            ns,
            count("core.ofmf.apply"),
        ),
        metric(
            "core.supervisor.retries",
            end.since(before, "ofmf.supervisor.retries.total"),
            "count",
            1,
        ),
        timed("fabric.inject_ns", "fabric.inject"),
        metric(
            "fabric.reroutes_per_fault",
            ratio(reroutes as f64, faults as f64),
            "count",
            faults,
        ),
        timed("core.events.publish_ns", "core.events.publish"),
        metric(
            "core.events.deliveries_per_publish",
            ratio(
                end.since(before, "ofmf.events.delivered.total"),
                end.since(before, "ofmf.events.published.total"),
            ),
            "count",
            end.since(before, "ofmf.events.published.total") as u64,
        ),
        metric(
            "core.events.dropped",
            end.since(before, "ofmf.events.dropped.total"),
            "count",
            1,
        ),
        metric(
            "core.telemetry.ingest_ns_per_sample",
            ratio(mean("core.telemetry.ingest"), batch.len() as f64),
            ns,
            (count("core.telemetry.ingest") as usize * batch.len()) as u64,
        ),
        metric(
            "core.telemetry.samples_per_poll",
            polls_after.since(&polls_before, "ofmf.telemetry.ingest.samples.total") / 32.0,
            "count",
            32,
        ),
        timed("core.ofmf.poll_ns", "core.ofmf.poll"),
        metric("core.ofmf.register_agent_ms", register_agent_ms, "ms", 3),
        metric("obs.handle_get_off_ns", get_off_ns, ns, 8192),
        metric("obs.overhead_ratio", ratio(get_on_ns, get_off_ns), "ratio", 8192),
        metric(
            "decompose_p50_ms",
            fast_median(&s.lat.decompose_ms, 20),
            "ms",
            s.lat.decompose_ms.len() as u64,
        ),
        metric(
            "compose_p99_ms",
            percentile(&s.lat.compose_ms, 99.0),
            "ms",
            s.lat.compose_ms.len() as u64,
        ),
        metric(
            "event_delivery_p99_ms",
            percentile(&s.lat.delivery_ms, 99.0),
            "ms",
            s.lat.delivery_ms.len() as u64,
        ),
        metric("traced_ops_per_s", traced_rate, "1/s", on.len() as u64),
        metric("untraced_ops_per_s", untraced_rate, "1/s", off.len() as u64),
        metric(
            "trace_overhead_ratio",
            ratio(traced_rate, untraced_rate),
            "ratio",
            segments.len() as u64,
        ),
    ];
    Ok((m, table))
}

/// Write `trace-<workload>.json`: the recorded spans and the layer table.
pub fn write_trace(opts: &Options, t: &Tracer, recovery: &Recovery, table: &Value) -> io::Result<()> {
    let doc = json!({
        "workload": opts.workload.as_str(),
        "seed": opts.seed,
        "how_to_read": "spans[]: id, parent (0 = root), trace (one per replayed operation), name (layer.function), start_ns/end_ns since the run's epoch. \
                        A layer's self time is its span minus the part its children cover; layer_table.rows sums those per replayed operation.",
        "layer_table": table.clone(),
        "crash_restart_ok": recovery.ok(),
        "spans": t.spans_json(),
    });
    let text = serde_json::to_string(&doc).map_err(io::Error::other)?;
    std::fs::create_dir_all(&opts.out_dir)?;
    std::fs::write(opts.out_dir.join(format!("trace-{}.json", opts.workload)), text + "\n")
}

/// `wal.replay_ns_per_record` and `redfish.replay.apply_ns_per_record` over
/// the journal the crashed rig left behind.
pub fn replay_probes(recovery: &Recovery) -> io::Result<Vec<Metric>> {
    let wal = Wal::open(&recovery.crashed_wal, FsyncPolicy::Off)?;
    let t0 = Instant::now();
    let replay = wal.replay()?;
    let read_ns = t0.elapsed().as_nanos() as f64;
    let n = replay.records.len();
    let reg = Registry::new();
    let t0 = Instant::now();
    black_box(redfish_model::replay::apply_all(&reg, &replay.records));
    let apply_ns = t0.elapsed().as_nanos() as f64;
    Ok(vec![
        metric("wal.replay_ns_per_record", ratio(read_ns, n as f64), "ns", n as u64),
        metric(
            "redfish.replay.apply_ns_per_record",
            ratio(apply_ns, n as f64),
            "ns",
            n as u64,
        ),
    ])
}
