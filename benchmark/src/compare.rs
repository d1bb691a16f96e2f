//! `ofmf-benchmark compare A.json B.json`: per workload × end-to-end metric,
//! is B worse than A by more than the bound `BENCHMARK.json` fixes?
//!
//! Each file is one result object as `run` writes it, or an array of them
//! (`run.sh --repeat N` collects one). With several runs per side a metric
//! whose run-to-run spread is wider than its bound is `unresolved`, not
//! `within`: the runs cannot tell.

use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Values of one metric on one workload, one per run.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<Value> = match doc {
        Value::Array(a) => a,
        single => vec![single],
    };
    let mut out = Series::new();
    for run in &runs {
        let workload = run["workload"]
            .as_str()
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        for m in run["end_to_end"].as_array().into_iter().flatten() {
            if let (Some(name), Some(value)) = (m["name"].as_str(), m["value"].as_f64()) {
                out.entry((workload.to_string(), name.to_string()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// `name → (lower is better, bound)` from `BENCHMARK.json`.
fn bounds(path: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e} (run from the repository root)"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc["end_to_end"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m["name"].as_str()?.to_string(),
                (m["better"].as_str()? == "lower", m["bound"].as_f64()?),
            ))
        })
        .collect())
}

/// The verdict on one metric: how much worse B's median is than A's as a
/// share of A's (negative = better), and what that means against `bound`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, &'static str) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if ma == 0.0 {
        0.0
    } else if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let label = if spread(a) > bound || spread(b) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "within"
    };
    (worse_by, label)
}

/// Entry point of `compare`.
pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let loaded = load(a).and_then(|sa| Ok((sa, load(b)?, bounds("BENCHMARK.json")?)));
    let (sa, sb, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ofmf-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = 0;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spr A", "spr B"
    );
    for ((workload, name), va) in &sa {
        let Some(vb) = sb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(&(lower, bound)) = bounds.get(name) else {
            continue;
        };
        let (worse_by, label) = verdict(va, vb, lower, bound);
        if label != "within" {
            bad += 1;
        }
        println!(
            "{:<14} {:<24} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}% {:>6.1}%  {label} (bound {:.0}%, n={}/{})",
            workload,
            name,
            median(va),
            median(vb),
            worse_by * 100.0,
            spread(va) * 100.0,
            spread(vb) * 100.0,
            bound * 100.0,
            va.len(),
            vb.len()
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{bad} metric(s) worse or unresolved");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +4 % is within a 10 % bound, +20 % is worse.
        assert_eq!(
            verdict(&a, &[104.0, 104.5, 103.5, 104.2, 103.8], true, 0.10).1,
            "within"
        );
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], true, 0.10).1, "worse");
        // An improvement is never worse.
        assert_eq!(verdict(&a, &[50.0, 51.0, 49.0, 50.5, 49.5], true, 0.10).1, "within");
        // Higher is better: the same drop reads the other way round.
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], false, 0.10).1, "worse");
        assert_eq!(
            verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], false, 0.10).1,
            "within"
        );
        // Runs that disagree with each other by more than the bound decide
        // nothing.
        assert_eq!(
            verdict(&a, &[60.0, 100.0, 140.0, 80.0, 120.0], true, 0.10).1,
            "unresolved"
        );
        // A single run per side has no spread to speak of.
        assert_eq!(verdict(&[100.0], &[105.0], true, 0.10).1, "within");
    }
}
