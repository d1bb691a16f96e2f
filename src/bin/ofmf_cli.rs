//! `ofmf_cli` — a small Redfish client for an `ofmfd` instance.
//!
//! ```text
//! Usage: ofmf_cli [--server HOST:PORT] [--token T] COMMAND [ARGS]
//!
//! Commands:
//!   get PATH                 GET a resource (pretty-printed)
//!   members PATH             list a collection's member ids
//!   post PATH JSON           create a member
//!   patch PATH JSON          merge-patch a resource
//!   delete PATH              delete a resource
//!   login USER PASSWORD      create a session, print the token
//!   log [N]                  show the last N event-log entries (default 10)
//!   tree [PREFIX]            walk collections breadth-first from PREFIX
//!   stats                    service health summary from the live metrics
//!   wal-status               durability journal counters (appends, fsyncs,
//!                            replays, torn tails, snapshots)
//!   lock-report              lockcheck hold-time/contention/blocking summary
//!                            (ofmfd built with --features lockcheck)
//!   trace ID                 render a flight-recorder span tree (self-time,
//!                            critical path marked with `*`)
//! ```
//!
//! Trace ids come from the `X-OFMF-TraceId` response header, from exemplar
//! links in `ofmf_cli stats`, or from the members of
//! `/redfish/v1/Managers/OFMF/LogServices/Tracing/Entries`.

use ofmf_rest::client::HttpClient;
use serde_json::Value;
use std::net::SocketAddr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("ofmf_cli: {msg}");
            std::process::exit(1);
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let mut server = "127.0.0.1:8421".to_string();
    let mut token = None;
    while args.first().map(String::as_str) == Some("--server") || args.first().map(String::as_str) == Some("--token") {
        let flag = args.remove(0);
        if args.is_empty() {
            return Err(format!("{flag} requires a value"));
        }
        let v = args.remove(0);
        if flag == "--server" {
            server = v;
        } else {
            token = Some(v);
        }
    }
    let addr: SocketAddr = server
        .parse()
        .map_err(|e| format!("bad --server address '{server}': {e}"))?;
    let mut client = HttpClient::new(addr);
    client.token = token;

    let cmd = args.first().cloned().ok_or("no command; try: get /redfish/v1")?;
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("{cmd} needs more arguments"))
    };

    match cmd.as_str() {
        "get" => {
            let r = client.get(arg(1)?).map_err(stringify)?;
            print_response(&r)
        }
        "members" => {
            let r = client.get(arg(1)?).map_err(stringify)?;
            check(&r)?;
            let v = r.json().ok_or("non-JSON response")?;
            let members = v["Members"].as_array().ok_or("not a collection")?;
            for m in members {
                println!("{}", m["@odata.id"].as_str().unwrap_or("?"));
            }
            Ok(())
        }
        "post" => {
            let body: Value = serde_json::from_str(arg(2)?).map_err(|e| format!("bad JSON: {e}"))?;
            let r = client.post(arg(1)?, &body).map_err(stringify)?;
            if let Some(loc) = r.header("location") {
                eprintln!("created: {loc}");
            }
            print_response(&r)
        }
        "patch" => {
            let body: Value = serde_json::from_str(arg(2)?).map_err(|e| format!("bad JSON: {e}"))?;
            let r = client.patch(arg(1)?, &body).map_err(stringify)?;
            print_response(&r)
        }
        "delete" => {
            let r = client.delete(arg(1)?).map_err(stringify)?;
            check(&r)?;
            eprintln!("deleted ({})", r.status);
            Ok(())
        }
        "login" => {
            let body = serde_json::json!({"UserName": arg(1)?, "Password": arg(2)?});
            let r = client
                .post("/redfish/v1/SessionService/Sessions", &body)
                .map_err(stringify)?;
            check(&r)?;
            println!("{}", r.header("x-auth-token").ok_or("no token in response")?);
            Ok(())
        }
        "log" => {
            let n: usize = args
                .get(1)
                .map_or(Ok(10), |s| s.parse())
                .map_err(|e| format!("bad N: {e}"))?;
            let r = client
                .get("/redfish/v1/Managers/OFMF/LogServices/EventLog/Entries?$expand=.")
                .map_err(stringify)?;
            check(&r)?;
            let v = r.json().ok_or("non-JSON response")?;
            let entries = v["Members"].as_array().ok_or("no entries")?;
            for e in entries.iter().rev().take(n).collect::<Vec<_>>().into_iter().rev() {
                println!(
                    "[{:>8}] {:8} {}",
                    e["Created"].as_u64().unwrap_or(0),
                    e["Severity"].as_str().unwrap_or("?"),
                    e["Message"].as_str().unwrap_or("?"),
                );
            }
            Ok(())
        }
        "tree" => {
            let prefix = args.get(1).map(String::as_str).unwrap_or("/redfish/v1").to_string();
            let mut queue = vec![prefix];
            let mut seen = std::collections::BTreeSet::new();
            while let Some(path) = queue.pop() {
                if !seen.insert(path.clone()) {
                    continue;
                }
                let Ok(r) = client.get(&path) else { continue };
                if r.status != 200 {
                    continue;
                }
                let Some(v) = r.json() else { continue };
                let ty = v["@odata.type"].as_str().unwrap_or("");
                println!("{path}  {ty}");
                if let Some(members) = v["Members"].as_array() {
                    for m in members {
                        if let Some(id) = m["@odata.id"].as_str() {
                            queue.push(id.to_string());
                        }
                    }
                }
            }
            Ok(())
        }
        "stats" => stats(&mut client),
        "wal-status" => wal_status(&mut client),
        "lock-report" => lock_report(&mut client),
        "trace" => trace(&mut client, arg(1)?),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `lock-report`: the recording shim's live lock health from the manager's
/// `Oem.OFMF.Lockcheck` overlay — hottest hold sites, witnessed
/// blocking-while-locked operations, and the runtime lock-order graph.
/// Only populated when `ofmfd` was built with `--features lockcheck`.
fn lock_report(client: &mut HttpClient) -> Result<(), String> {
    let r = client.get("/redfish/v1/Managers/OFMF").map_err(stringify)?;
    check(&r)?;
    let body = r.json().ok_or("non-JSON response")?;
    let lc = &body["Oem"]["OFMF"]["Lockcheck"];
    if lc.is_null() {
        println!("lockcheck: disabled (build ofmfd with --features lockcheck)");
        return Ok(());
    }
    println!(
        "hold sites:    {} (order edges: {}, cycles: {})",
        lc["HoldSites"], lc["OrderEdges"], lc["OrderCycles"]
    );
    let empty = Vec::new();
    let tops = lc["TopHolds"].as_array().unwrap_or(&empty);
    if !tops.is_empty() {
        println!("hottest holds (by total held time):");
        for t in tops {
            println!(
                "  {:<52} {:>5} holds  max {:>9} ns  p99 {:>9} ns  contended {}",
                format!(
                    "{} ({})",
                    t["Site"].as_str().unwrap_or("?"),
                    t["Mode"].as_str().unwrap_or("?")
                ),
                t["Count"],
                t["MaxNs"],
                t["P99Ns"],
                t["Contended"],
            );
        }
    }
    let blocking = lc["BlockingWhileLocked"].as_array().unwrap_or(&empty);
    if blocking.is_empty() {
        println!("blocking while locked: none witnessed");
    } else {
        println!("blocking while locked ({} witnessed):", blocking.len());
        for b in blocking {
            println!(
                "  {} at {} holding {}",
                b["Kind"].as_str().unwrap_or("?"),
                b["Site"].as_str().unwrap_or("?"),
                b["Held"]
            );
        }
    }
    Ok(())
}

/// `wal-status`: the durability journal's counters from the live metric
/// report. All-zero appends with no replay means the daemon runs without a
/// WAL (`ofmfd --wal-dir` not set).
fn wal_status(client: &mut HttpClient) -> Result<(), String> {
    let r = client
        .get("/redfish/v1/Managers/OFMF/MetricReports/live")
        .map_err(stringify)?;
    check(&r)?;
    let report = r.json().ok_or("non-JSON response")?;
    let empty = Vec::new();
    let vals = report["MetricValues"].as_array().unwrap_or(&empty);
    let metric = |id: &str| -> Option<f64> {
        vals.iter()
            .find(|v| v["MetricId"] == id)
            .and_then(|v| v["MetricValue"].as_str())
            .and_then(|s| s.parse().ok())
    };
    let present = [
        "ofmf.wal.appends.total",
        "ofmf.wal.bytes.total",
        "ofmf.wal.fsyncs.total",
        "ofmf.wal.replayed.total",
        "ofmf.wal.torn_tail.total",
        "ofmf.wal.snapshot.total",
        "ofmf.wal.errors.total",
    ]
    .iter()
    .any(|id| metric(id).is_some());
    if !present {
        println!("durability: disabled (no WAL metrics exported; start ofmfd with --wal-dir)");
        return Ok(());
    }
    let get = |id: &str| metric(id).unwrap_or(0.0);
    println!("durability:    enabled");
    println!(
        "appends:       {:.0} records ({:.0} bytes)",
        get("ofmf.wal.appends.total"),
        get("ofmf.wal.bytes.total")
    );
    println!("fsyncs:        {:.0}", get("ofmf.wal.fsyncs.total"));
    println!("replayed:      {:.0} records at boot", get("ofmf.wal.replayed.total"));
    println!("torn tails:    {:.0} truncated", get("ofmf.wal.torn_tail.total"));
    println!("snapshots:     {:.0} written", get("ofmf.wal.snapshot.total"));
    let errors = get("ofmf.wal.errors.total");
    println!(
        "errors:        {errors:.0}{}",
        if errors > 0.0 {
            "  <-- journal writes failing!"
        } else {
            ""
        }
    );
    Ok(())
}

/// `stats`: summarize service health from the observability export.
fn stats(client: &mut HttpClient) -> Result<(), String> {
    let r = client.get("/redfish/v1/Managers/OFMF").map_err(stringify)?;
    check(&r)?;
    let mgr = r.json().ok_or("non-JSON response")?;
    let obs = &mgr["Oem"]["OFMF"]["Observability"];
    let uptime_ms = obs["UptimeMs"].as_u64().unwrap_or(0);
    let requests = obs["RestRequests"].as_u64().unwrap_or(0);
    let uptime_s = (uptime_ms as f64 / 1000.0).max(0.001);

    let r = client
        .get("/redfish/v1/Managers/OFMF/MetricReports/live")
        .map_err(stringify)?;
    check(&r)?;
    let report = r.json().ok_or("non-JSON response")?;
    let metric = |id: &str| -> f64 {
        report["MetricValues"]
            .as_array()
            .and_then(|vals| vals.iter().find(|v| v["MetricId"] == id))
            .and_then(|v| v["MetricValue"].as_str())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0)
    };
    let p99_ms = |id: &str| metric(id) / 1e6;

    println!(
        "observability: {}",
        if obs["Enabled"] == true { "enabled" } else { "DISABLED" }
    );
    println!("uptime:        {uptime_s:.1} s");
    println!(
        "rest:          {requests} requests ({:.1} req/s)",
        requests as f64 / uptime_s
    );
    println!(
        "               GET p99 {:.2} ms | POST p99 {:.2} ms | PATCH p99 {:.2} ms",
        p99_ms("ofmf.rest.get.latency_ns.p99"),
        p99_ms("ofmf.rest.post.latency_ns.p99"),
        p99_ms("ofmf.rest.patch.latency_ns.p99"),
    );
    println!(
        "               2xx {} | 4xx {} | 5xx {} | parse errors {}",
        metric("ofmf.rest.status.2xx") as u64,
        metric("ofmf.rest.status.4xx") as u64,
        metric("ofmf.rest.status.5xx") as u64,
        metric("ofmf.rest.parse_errors.total") as u64,
    );
    println!(
        "events:        {} published, {} delivered, {} dropped (fanout p99 {:.2} ms)",
        metric("ofmf.events.published.total") as u64,
        metric("ofmf.events.delivered.total") as u64,
        metric("ofmf.events.dropped.total") as u64,
        p99_ms("ofmf.events.fanout.latency_ns.p99"),
    );
    let candidates = metric("ofmf.events.index.candidates.total");
    let skipped = metric("ofmf.events.index.skipped.total");
    let scanned = candidates + skipped;
    println!(
        "               routing index: {} candidates visited, {} skipped ({:.0}% of subscriptions pruned)",
        candidates as u64,
        skipped as u64,
        if scanned > 0.0 { 100.0 * skipped / scanned } else { 0.0 },
    );
    println!(
        "telemetry:     {} samples ingested, {} contended shard acquisitions",
        metric("ofmf.telemetry.ingest.samples.total") as u64,
        metric("ofmf.telemetry.shard.contention") as u64,
    );
    println!(
        "composer:      {} composed, {} rejected",
        metric("ofmf.composer.composed.total") as u64,
        (metric("ofmf.composer.reject.no_node")
            + metric("ofmf.composer.reject.memory")
            + metric("ofmf.composer.reject.gpu")
            + metric("ofmf.composer.reject.storage")
            + metric("ofmf.composer.reject.other")) as u64,
    );
    let probe_hits = metric("ofmf.composer.probe.cache_hit.total");
    let probe_misses = metric("ofmf.composer.probe.cache_miss.total");
    let probe_lookups = probe_hits + probe_misses;
    println!(
        "               probes: {} batches / {} pairs sent, {} failed; cache {} hits / {} misses ({:.0}% hit)",
        metric("ofmf.composer.probe.batches.total") as u64,
        metric("ofmf.composer.probe.pairs.total") as u64,
        metric("ofmf.composer.probe.failed.total") as u64,
        probe_hits as u64,
        probe_misses as u64,
        if probe_lookups > 0.0 {
            100.0 * probe_hits / probe_lookups
        } else {
            0.0
        },
    );
    println!(
        "agents:        {} heartbeats (p99 {:.2} ms), {} missed",
        metric("ofmf.agents.heartbeat.rtt_ns.count") as u64,
        p99_ms("ofmf.agents.heartbeat.rtt_ns.p99"),
        metric("ofmf.agents.heartbeat.missed") as u64,
    );
    println!(
        "tracing:       {} spans started, {} dropped at span cap",
        metric("ofmf.trace.spans.started.total") as u64,
        metric("ofmf.trace.spans.dropped.total") as u64,
    );
    println!(
        "               recorder: {} retained now ({} retained / {} evicted all-time), {} exemplar top-band hits",
        obs["RetainedTraces"].as_u64().unwrap_or(0),
        metric("ofmf.trace.recorder.retained.total") as u64,
        metric("ofmf.trace.recorder.evicted.total") as u64,
        metric("ofmf.trace.exemplar.hits.total") as u64,
    );
    for (method, tid) in [
        ("GET", &obs["LatencyExemplars"]["Get"]),
        ("POST", &obs["LatencyExemplars"]["Post"]),
    ] {
        if let Some(id) = tid.as_u64() {
            println!("               slowest recent {method}: ofmf_cli trace {id}");
        }
    }
    Ok(())
}

/// `trace ID`: fetch one flight-recorder entry and render its span tree.
///
/// Each line shows total duration, self time (total minus direct children),
/// a `*` on spans lying on the critical path (greedy descent into the
/// longest child), and the span's annotations.
fn trace(client: &mut HttpClient, id: &str) -> Result<(), String> {
    let r = client
        .get(&format!("/redfish/v1/Managers/OFMF/LogServices/Tracing/Entries/{id}"))
        .map_err(stringify)?;
    check(&r)?;
    let entry = r.json().ok_or("non-JSON response")?;
    let t = &entry["Oem"]["OFMF"]["Trace"];
    if t.is_null() {
        return Err(format!("entry {id} carries no trace payload"));
    }
    let spans = t["Spans"].as_array().ok_or("trace has no Spans array")?;
    println!(
        "trace {}: {} — {:.3} ms, {} spans, retained: {}{}",
        t["TraceId"].as_u64().unwrap_or(0),
        t["Route"].as_str().unwrap_or("?"),
        t["DurationNs"].as_u64().unwrap_or(0) as f64 / 1e6,
        spans.len(),
        t["Reason"].as_str().unwrap_or("?"),
        if t["Errored"].as_bool().unwrap_or(false) {
            " (errored)"
        } else {
            ""
        },
    );
    let dropped = t["SpansDropped"].as_u64().unwrap_or(0);
    if dropped > 0 {
        println!("({dropped} spans dropped at the per-trace cap; tree is truncated)");
    }

    // Index the tree: spans arrive in completion order.
    let sid = |s: &Value| s["Id"].as_u64().unwrap_or(0);
    let dur = |s: &Value| s["DurationNs"].as_u64().unwrap_or(0);
    let mut children: std::collections::BTreeMap<u64, Vec<&Value>> = std::collections::BTreeMap::new();
    for s in spans {
        children.entry(s["ParentId"].as_u64().unwrap_or(0)).or_default().push(s);
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|s| s["StartNs"].as_u64().unwrap_or(0));
    }

    // Critical path: greedy descent into the longest child.
    let mut critical = std::collections::BTreeSet::new();
    let mut cursor: Vec<&Value> = children.get(&0).cloned().unwrap_or_default();
    while let Some(longest) = cursor.iter().max_by_key(|s| dur(s)) {
        critical.insert(sid(longest));
        cursor = children.get(&sid(longest)).cloned().unwrap_or_default();
    }

    let mut stack: Vec<(&Value, usize)> = children
        .get(&0)
        .map(|roots| roots.iter().rev().map(|s| (*s, 0)).collect())
        .unwrap_or_default();
    while let Some((s, depth)) = stack.pop() {
        let kids = children.get(&sid(s)).cloned().unwrap_or_default();
        let child_ns: u64 = kids.iter().map(|c| dur(c)).sum();
        let annos = s["Annotations"]
            .as_array()
            .map(|a| {
                a.iter()
                    .map(|kv| format!("{}={}", kv[0].as_str().unwrap_or("?"), kv[1].as_str().unwrap_or("?")))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_default();
        println!(
            "{:10.3} ms  self {:8.3} ms {}{}{:indent$}{} {}",
            dur(s) as f64 / 1e6,
            dur(s).saturating_sub(child_ns) as f64 / 1e6,
            if critical.contains(&sid(s)) { "*" } else { " " },
            if s["Status"].as_str() == Some("Error") {
                "!"
            } else {
                " "
            },
            "",
            s["Name"].as_str().unwrap_or("?"),
            annos,
            indent = depth * 2 + 1,
        );
        for k in kids.into_iter().rev() {
            stack.push((k, depth + 1));
        }
    }
    Ok(())
}

fn stringify(e: std::io::Error) -> String {
    format!("connection failed: {e}")
}

fn check(r: &ofmf_rest::client::ClientResponse) -> Result<(), String> {
    if r.status >= 400 {
        let msg = r
            .json()
            .and_then(|v| v["error"]["message"].as_str().map(str::to_string))
            .unwrap_or_default();
        return Err(format!("HTTP {}: {msg}", r.status));
    }
    Ok(())
}

fn print_response(r: &ofmf_rest::client::ClientResponse) -> Result<(), String> {
    check(r)?;
    match r.json() {
        Some(v) => println!("{}", serde_json::to_string_pretty(&v).unwrap()),
        None => println!("{}", String::from_utf8_lossy(&r.body)),
    }
    Ok(())
}
