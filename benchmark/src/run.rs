//! One run of one workload.
//!
//! A run is a sequence of rounds, and every round samples every metric:
//! two timed segments of the workload's traffic, a slice of each probe the
//! workload's own traffic does not cover (expand, compose + decompose,
//! fault ticks), recoveries of copies of the journal as it then stands,
//! and cold boots. Spreading every metric's samples over the whole run
//! is what makes the run's value insensitive to which few seconds the host
//! happened to be slow in (see `stats`). The crash-restart check ends it.

use crate::gen::{input_digest, JobGen, QueryGen, Tree};
use crate::layers;
use crate::recover::{copy_dir, crash_and_verify};
use crate::rig::{get_status, login, Rig};
use crate::stats::{block_medians, fast_median, fast_quarter, fast_rate, segment_spread, Segment};
use crate::trace::Tracer;
use crate::wire::Conn;
use crate::workloads::{calibrate, ChurnLoad, JobLoad, Latencies, Load, Session, Storm, StormLoad, SweepLoad};
use redfish_model::path::top;
use serde_json::{json, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`crate::workloads::WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the probes and timed segments measure, in seconds.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Smoke mode: fewer rounds.
    pub quick: bool,
    /// Scratch directory for journals; created and removed by the run.
    pub work_dir: PathBuf,
    /// Where the trace file goes (traced run only).
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// What a run found.
#[derive(Debug)]
pub struct Report {
    /// Every response checked out and every crash-restart check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Everything else the result file records.
    pub detail: Value,
}

/// Rounds per run (each adds two timed segments, a slice of every probe,
/// cold boots and recoveries to the samples).
const ROUNDS: usize = 8;
/// Cold boots and recoveries timed per round: both are short, so several
/// fit, and a fast-quarter mean wants more than two samples to choose from.
const BOOTS_PER_ROUND: usize = 3;
const RECOVERIES_PER_ROUND: usize = 2;
/// Share of `seconds` spent warming up and calibrating.
const WARM_SHARE: f64 = 0.06;
/// Share the timed segments get at least.
const MAIN_SHARE: f64 = 0.47;
/// Shares of `seconds` (and samples per round at most) of the probes for
/// latency metrics the workload's own traffic does not sample; a skipped
/// probe's share goes to the timed segments.
const EXPAND_PROBE: (f64, usize) = (0.04, 128);
const COMPOSE_PROBE: (f64, usize) = (0.26, 200);
const FAULT_PROBE: (f64, usize) = (0.12, 250);
/// Samples per time block of each latency metric at most (`stats::block_size`).
const BLOCK: usize = 20;

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Read the booted tree into what the generators need.
fn scan_tree(rig: &Rig) -> (Tree, u32, u32) {
    // Collections whose membership moves under every workload (the poll
    // loop writes the event log; sessions and subscriptions come and go),
    // and the observability views the REST layer synthesises per GET.
    let volatile = [
        top::SESSIONS,
        top::SUBSCRIPTIONS,
        top::EVENT_LOG_ENTRIES,
        top::TASKS,
        top::METRIC_REPORTS,
        top::OBS_METRIC_REPORTS,
        top::OBS_LOG_ENTRIES,
        top::OBS_TRACE_ENTRIES,
    ];
    let inventory = [top::FABRICS, top::CHASSIS, top::SYSTEMS, top::STORAGE_SERVICES];
    let mut tree = Tree::default();
    let (mut chassis, mut systems) = (0, 0);
    rig.ofmf.registry.for_each(|id, stored| {
        let path = id.as_str();
        if volatile.iter().any(|v| path.starts_with(v)) {
            return;
        }
        if stored.is_collection {
            let count = stored.body.get("Members").and_then(Value::as_array).map_or(0, Vec::len) as u32;
            match path {
                top::CHASSIS => chassis = count,
                top::SYSTEMS => systems = count,
                _ => {}
            }
            tree.collections.push((path.to_string(), count));
        } else {
            if inventory.iter().any(|p| path.starts_with(p) && path.len() > p.len()) {
                tree.patchable.push(tree.members.len() as u32);
            }
            if id.parent().is_some_and(|p| p.as_str() == top::SYSTEMS)
                && stored.body.get("SystemType").and_then(Value::as_str) == Some("Physical")
            {
                tree.nodes.push(path.to_string());
            }
            tree.members.push(path.to_string());
        }
    });
    (tree, chassis, systems)
}

/// Run `f` until it ran `max` times or `seconds` passed.
fn until(seconds: f64, max: usize, mut f: impl FnMut(usize) -> io::Result<()>) -> io::Result<()> {
    let started = Instant::now();
    for i in 0..max {
        f(i)?;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(())
}

/// Metrics as the result file lists them.
fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Array(
        metrics
            .iter()
            .map(|m| json!({"name": m.name.as_str(), "value": m.value, "unit": m.unit, "samples": m.samples}))
            .collect(),
    )
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Boot a rig on `dir`, log in (or reuse `token`), read the first
/// authenticated 200; the seconds that took.
fn time_to_serving(
    dir: &Path,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    token: Option<&str>,
) -> io::Result<(f64, Rig, Conn, String)> {
    let t0 = Instant::now();
    let rig = Rig::boot(dir, seed, tracer, |_| {})?;
    let (mut conn, token) = match token {
        Some(t) => (Conn::connect(rig.addr)?, t.to_string()),
        None => login(rig.addr)?,
    };
    let status = get_status(&mut conn, &token, top::SYSTEMS)?;
    let seconds = t0.elapsed().as_secs_f64();
    if status != 200 {
        return Err(io::Error::other(format!("first authenticated GET answered {status}")));
    }
    Ok((seconds, rig, conn, token))
}

/// [`time_to_serving`] for a rig that is only booted to be timed: stopped
/// and its journal directory removed again.
fn serve_and_stop(dir: &Path, seed: u64, token: Option<&str>) -> io::Result<f64> {
    let (seconds, rig, conn, _) = time_to_serving(dir, seed, None, token)?;
    drop(conn);
    rig.stop();
    std::fs::remove_dir_all(dir)?;
    Ok(seconds)
}

/// What the rounds collected besides the session's latencies.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    segments: Vec<Segment>,
    /// Journal bytes written during the timed segments.
    wal_bytes: u64,
}

fn end_to_end(samples: &Samples, lat: &Latencies) -> Vec<Metric> {
    let ops: u64 = samples.segments.iter().map(|s| s.ops).sum();
    let m = |name: &str, value: f64, unit: &'static str, n: usize| Metric {
        name: name.to_string(),
        value,
        unit,
        samples: n,
    };
    vec![
        m(
            "setup_s",
            fast_quarter(&samples.setup_s, false),
            "s",
            samples.setup_s.len(),
        ),
        m("ops_per_s", fast_rate(&samples.segments), "1/s", samples.segments.len()),
        m(
            "compose_p50_ms",
            fast_median(&lat.compose_ms, BLOCK),
            "ms",
            lat.compose_ms.len(),
        ),
        m(
            "expand_p50_us",
            fast_median(&lat.expand_us, BLOCK),
            "us",
            lat.expand_us.len(),
        ),
        m(
            "event_delivery_p50_ms",
            fast_median(&lat.delivery_ms, BLOCK),
            "ms",
            lat.delivery_ms.len(),
        ),
        m(
            "recovery_s",
            fast_quarter(&samples.recovery_s, false),
            "s",
            samples.recovery_s.len(),
        ),
        // A count, not a timing: all of it over all of them.
        m(
            "wal_bytes_per_op",
            samples.wal_bytes as f64 / ops.max(1) as f64,
            "B",
            ops as usize,
        ),
        m("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ]
}

/// Run one workload.
pub fn run(opts: &Options) -> io::Result<Report> {
    let (rounds, boots, recoveries) = if opts.quick {
        (2, 1, 1)
    } else {
        (ROUNDS, BOOTS_PER_ROUND, RECOVERIES_PER_ROUND)
    };
    let s = opts.seconds;
    let w = opts.workload.as_str();
    let tracer = opts.traced.then(|| Arc::new(Tracer::default()));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)?;
    let mut samples = Samples::default();

    // The rig the workload runs on; its boot is the first set-up sample.
    let wal_dir = opts.work_dir.join("wal");
    let (first_boot, rig, conn, token) = time_to_serving(&wal_dir, opts.seed, tracer.as_ref(), None)?;
    samples.setup_s.push(first_boot);
    let register_agent_ms = tracer
        .as_ref()
        .map_or(0.0, |t| t.mean_ns("core.ofmf.register_agent") / 1e6);

    // Flush the boot's own events into the event log, then look at the tree.
    rig.ofmf.poll();
    let (tree, chassis_base, systems) = scan_tree(&rig);
    let second = Conn::connect(rig.addr)?;
    let mut session = Session {
        rig,
        tree: Arc::new(tree),
        token,
        conns: vec![conn, second],
        tally: Default::default(),
        lat: Latencies::default(),
        chassis_base,
        systems,
        tracer: tracer.clone(),
    };
    let digest = input_digest(w, opts.seed, &session.tree);
    let mut load: Box<dyn Load> = match w {
        "monitor_sweep" => Box::new(SweepLoad::new(opts.seed, &session)),
        "tree_churn" => Box::new(ChurnLoad::new(opts.seed, &mut session)?),
        "job_churn" => Box::new(JobLoad::new(opts.seed, &mut session)?),
        "fault_storm" => Box::new(StormLoad::new(opts.seed, &mut session)?),
        other => return Err(io::Error::other(format!("unknown workload '{other}'"))),
    };

    // A probe the workload's own traffic makes redundant gives its share of
    // the time to the timed segments.
    let probes = [
        (w != "tree_churn", EXPAND_PROBE),
        (w != "job_churn", COMPOSE_PROBE),
        (w != "fault_storm", FAULT_PROBE),
    ];
    let main_s = s * (MAIN_SHARE + probes.iter().filter(|(on, _)| !on).map(|(_, p)| p.0).sum::<f64>());
    let slice_s = |p: (f64, usize)| s * p.0 / rounds as f64;
    let queries = QueryGen::new(opts.seed, Arc::clone(&session.tree), &session.token);
    let mut probe_jobs = JobGen::new(opts.seed ^ 0xC0, "probe", 0, &session.token);

    let poll_thread = w != "fault_storm";
    if poll_thread {
        session.rig.start_poll_thread();
    }
    if let Some(t) = &tracer {
        t.reset_totals();
        t.set_active(false);
    }
    let rate = calibrate(&mut session, load.as_mut(), s * WARM_SHARE)?;
    let per_segment = ((rate * main_s / (2 * rounds) as f64) as usize).max(load.unit());
    let counters = layers::Counters::read(&session.rig);
    let wal_counter = ofmf_obs::counter("ofmf.wal.bytes.total");
    let main_started = Instant::now();

    for round in 0..rounds {
        // Traced run: the second segment of each round runs with the timing
        // decorators active, the first with them passing straight through
        // (`trace_overhead_ratio` compares the two).
        for half in 0..2 {
            if let Some(t) = &tracer {
                t.set_active(half == 1);
            }
            let before = wal_counter.get();
            let seg = load.run(&mut session, per_segment)?;
            samples.wal_bytes += wal_counter.get() - before;
            samples.segments.push(seg);
        }
        if let Some(t) = &tracer {
            t.set_active(false);
        }

        if probes[0].0 {
            until(slice_s(EXPAND_PROBE), EXPAND_PROBE.1, |_| session.expand(&queries))?;
        }
        if probes[1].0 {
            until(slice_s(COMPOSE_PROBE), COMPOSE_PROBE.1, |i| {
                session.cycle(&mut probe_jobs)?;
                // A cycle publishes a dozen events; subscribers queue 256.
                if i % 8 == 7 {
                    load.after_probe(&mut session)?;
                }
                Ok(())
            })?;
            load.after_probe(&mut session)?;
        }
        session.rig.stop_poll_thread();
        if probes[2].0 {
            let mut storm = Storm::setup(&mut session, opts.seed ^ 0xFA ^ round as u64, false)?;
            until(slice_s(FAULT_PROBE), FAULT_PROBE.1, |_| storm.tick(&mut session))?;
            storm.teardown(&mut session)?;
        }

        // Recovery samples: a snapshot, a fixed tail of this workload's own
        // traffic, then copies of the journal as a crash would leave it, each
        // reopened → replayed → recovered → serving.
        session
            .rig
            .ofmf
            .write_snapshot()
            .map_err(|e| io::Error::other(format!("snapshot: {e}")))?;
        let tail = load.tail();
        load.run(&mut session, tail)?;
        for _ in 0..recoveries {
            let dir = opts.work_dir.join("recover-sample");
            copy_dir(&wal_dir, &dir)?;
            samples
                .recovery_s
                .push(serve_and_stop(&dir, opts.seed, Some(&session.token))?);
        }
        // Cold boots to the first authenticated 200.
        for _ in 0..boots {
            samples
                .setup_s
                .push(serve_and_stop(&opts.work_dir.join("boot-sample"), opts.seed, None)?);
        }

        if poll_thread {
            session.rig.start_poll_thread();
        }
    }
    let rounds_wall_s = main_started.elapsed().as_secs_f64();
    session.rig.stop_poll_thread();

    let layer_metrics = match &tracer {
        Some(t) => Some(layers::measure(
            &mut session,
            load.as_mut(),
            t,
            &counters,
            &samples.segments,
            opts,
            register_agent_ms,
        )?),
        None => None,
    };

    let ledger = load.ledger();
    let lat = std::mem::take(&mut session.lat);
    let tally = session.tally.clone();
    let recovery = crash_and_verify(session, &ledger, &wal_dir, &opts.work_dir, opts.seed)?;

    let mut metrics = end_to_end(&samples, &lat);
    let e2e_detail = metrics_json(&metrics);
    let busy: f64 = samples.segments.iter().map(|x| x.seconds).sum();
    let mut detail = json!({
        "workload": w,
        "seed": opts.seed,
        "seconds": s,
        "traced": opts.traced,
        "quick": opts.quick,
        "cpus": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "input_digest": format!("{digest:016x}"),
        "rounds": rounds,
        "segments": samples.segments.len(),
        "segment_ops": samples.segments.first().map_or(0, |x| x.ops),
        "segment_spread": segment_spread(&samples.segments),
        "segment_rates": samples.segments.iter().map(|x| x.ops as f64 / x.seconds).collect::<Vec<_>>(),
        "rounds_wall_s": rounds_wall_s,
        "segments_wall_s": busy,
        "block_medians": json!({
            "compose_ms": block_medians(&lat.compose_ms, BLOCK),
            "decompose_ms": block_medians(&lat.decompose_ms, BLOCK),
            "expand_us": block_medians(&lat.expand_us, BLOCK),
            "event_delivery_ms": block_medians(&lat.delivery_ms, BLOCK),
        }),
        "setup_s_all": sorted(&samples.setup_s),
        "recovery_s_all": sorted(&samples.recovery_s),
        "failed_share": tally.failed as f64 / tally.attempted.max(1) as f64,
        "failures": tally.examples.clone(),
        "crash_restart": recovery.checks.iter().map(|(n, ok)| json!({"check": n.as_str(), "ok": *ok})).collect::<Vec<_>>(),
        "end_to_end": e2e_detail,
    });
    if let Some((layer, table)) = layer_metrics {
        if let Some(t) = &tracer {
            layers::write_trace(opts, t, &recovery, &table)?;
        }
        let replay = layers::replay_probes(&recovery)?;
        metrics = layer.into_iter().chain(replay).collect();
        if let Some(obj) = detail.as_object_mut() {
            obj.insert("layer_table".into(), table);
            obj.insert("per_layer".into(), metrics_json(&metrics));
        }
    }
    std::fs::remove_dir_all(&opts.work_dir)?;
    Ok(Report {
        correct: tally.failed == 0 && recovery.ok(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}
