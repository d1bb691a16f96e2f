//! `ofmf-benchmark` — the committed benchmark of the OFMF reproduction.
//!
//! ```text
//! ofmf-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ofmf-benchmark compare A.json B.json
//! ```
//!
//! `run` boots the production configuration in-process on the rack rig,
//! drives one workload, checks every response and a crash-restart, and
//! prints every metric by name; its last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this crate.

mod check;
mod compare;
mod gen;
mod layers;
mod recover;
mod rig;
mod run;
mod stats;
mod trace;
mod wire;
mod workloads;

use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ofmf-benchmark run --workload {} [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n       \
         ofmf-benchmark compare A.json B.json",
        workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workload: String::new(),
        seed: 1,
        seconds: 22.0,
        traced: false,
        quick: false,
        work_dir: PathBuf::new(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", workloads::WORKLOADS.join(", ")));
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    opts.work_dir = opts.out_dir.join(format!("tmp-{}", std::process::id()));
    Ok(opts)
}

fn run_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let report = match run::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&opts.work_dir);
            eprintln!("ofmf-benchmark: {} failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{} seed {} ({} s{}{})",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.traced { ", traced" } else { "" },
        if opts.quick { ", quick" } else { "" }
    );
    for m in &report.metrics {
        println!("  {:<44} {:>16.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
    for c in report.detail["crash_restart"].as_array().into_iter().flatten() {
        println!(
            "  crash-restart: {} — {}",
            c["check"].as_str().unwrap_or(""),
            if c["ok"].as_bool() == Some(true) {
                "ok"
            } else {
                "FAILED"
            }
        );
    }
    for f in report.detail["failures"].as_array().into_iter().flatten() {
        println!("  failed op: {}", f.as_str().unwrap_or(""));
    }

    let mut detail = report.detail.clone();
    if let Some(obj) = detail.as_object_mut() {
        obj.insert("git_sha".into(), Value::String(git_sha()));
        obj.insert("correct".into(), Value::Bool(report.correct));
        obj.insert("attempted".into(), json!(report.attempted));
        obj.insert("failed".into(), json!(report.failed));
    }
    let file = opts.out_dir.join(format!(
        "result-{}{}.json",
        opts.workload,
        if opts.traced { "-traced" } else { "" }
    ));
    let written = serde_json::to_string_pretty(&detail)
        .map_err(std::io::Error::other)
        .and_then(|text| std::fs::write(&file, text + "\n"));
    if let Err(e) = written {
        eprintln!("ofmf-benchmark: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }

    let mut metrics = Map::new();
    for m in &report.metrics {
        metrics.insert(m.name.clone(), json!({"value": m.value, "unit": m.unit}));
    }
    let line = json!({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).expect("result object serialises"));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        _ => usage(),
    }
}
