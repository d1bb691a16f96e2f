//! Batched, cached, congestion-aware route probing for placement.
//!
//! The old `TopologyAware` path paid one synchronous supervised agent
//! round-trip per candidate pool and scored by hop count alone. This module
//! replaces that with a shared scored-candidate pipeline:
//!
//! 1. **filter** — callers pass only candidates that fit;
//! 2. **batch-probe** — all uncached `(initiator, target)` pairs on one
//!    fabric travel in a single [`AgentOp::ProbeRoutes`] round-trip, and
//!    batches for different fabrics are dispatched in parallel through
//!    [`Ofmf::apply_parallel`] (supervisor retries/breakers/deadlines still
//!    apply per agent);
//! 3. **score** — candidates are ranked by `(residual bandwidth desc, hops
//!    asc, blast radius asc, free capacity asc)` with a deterministic
//!    index tie-break.
//!
//! Probe results are cached per fabric, keyed on the topology generation the
//! agent reports (bumped on every link/route/reservation change), so
//! repeated composes against a quiet fabric never re-probe it. The cache
//! lock is **never held across an agent call** — lookups release it before
//! dispatch and re-acquire to insert — which keeps the lockcheck-verified
//! lock graph acyclic.
//!
//! A probe failure no longer silently drops a candidate: failed batches are
//! counted (`ofmf.composer.probe.failed.total`), the skipped fabrics are
//! named on the placement span, and the affected candidates degrade to
//! *unprobed* scoring (ranked after every probed candidate, in input order)
//! so a flaky agent can slow placement down but never wedge it.

use ofmf_core::agent::AgentOp;
use ofmf_core::Ofmf;
use parking_lot::Mutex;
use redfish_model::odata::ODataId;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One fabric's freshly-probed batch: the topology generation it was
/// probed at, plus the per-pair outcomes (None = that pair has no route).
type FreshBatch = (u64, Vec<((ODataId, ODataId), Option<RouteScore>)>);

/// What a probe learned about one candidate route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteScore {
    /// Link hops from initiator to target.
    pub hops: u64,
    /// Bottleneck unreserved bandwidth along the route (Gbit/s).
    pub residual_gbps: f64,
    /// Live connections sharing at least one link with the route.
    pub blast_radius: u64,
}

struct ProbeMetrics {
    batches: Arc<ofmf_obs::Counter>,
    pairs: Arc<ofmf_obs::Counter>,
    failed: Arc<ofmf_obs::Counter>,
    cache_hit: Arc<ofmf_obs::Counter>,
    cache_miss: Arc<ofmf_obs::Counter>,
}

fn probe_metrics() -> &'static ProbeMetrics {
    static METRICS: std::sync::OnceLock<ProbeMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ProbeMetrics {
        batches: ofmf_obs::counter("ofmf.composer.probe.batches.total"),
        pairs: ofmf_obs::counter("ofmf.composer.probe.pairs.total"),
        failed: ofmf_obs::counter("ofmf.composer.probe.failed.total"),
        cache_hit: ofmf_obs::counter("ofmf.composer.probe.cache_hit.total"),
        cache_miss: ofmf_obs::counter("ofmf.composer.probe.cache_miss.total"),
    })
}

/// Cached probe results for one fabric at one topology generation.
/// `None` scores are cached too: an unroutable pair stays unroutable until
/// the topology changes, so re-probing it every compose is wasted work.
struct FabricCache {
    generation: u64,
    scores: BTreeMap<(ODataId, ODataId), Option<RouteScore>>,
}

/// The probing engine: owns the per-fabric result cache and dispatches
/// one batched probe per fabric, fabrics in parallel.
#[derive(Default)]
pub struct Prober {
    cache: Mutex<BTreeMap<String, FabricCache>>,
}

impl Prober {
    /// A prober with an empty cache.
    pub fn new() -> Self {
        Prober::default()
    }

    /// Drop cached results for one fabric (the composer calls this after
    /// binding or unbinding there — the reservation change moved residuals).
    pub fn invalidate_fabric(&self, fabric: &str) {
        self.cache.lock().remove(fabric);
    }

    /// Drop the whole cache.
    pub fn invalidate_all(&self) {
        self.cache.lock().clear();
    }

    /// Probe `(fabric, initiator, target)` triples, returning one score slot
    /// per input in input order (`None` = unroutable or probe failed) plus
    /// the fabrics whose batches failed outright (for span annotation).
    pub fn probe_pairs(
        &self,
        ofmf: &Ofmf,
        requests: &[(String, ODataId, ODataId)],
    ) -> (Vec<Option<RouteScore>>, Vec<String>) {
        let m = probe_metrics();
        let mut results: Vec<Option<Option<RouteScore>>> = vec![None; requests.len()];

        // Phase 1: consult the cache, collect misses per fabric. The lock is
        // released before any agent traffic.
        let mut misses: BTreeMap<String, Vec<(ODataId, ODataId)>> = BTreeMap::new();
        {
            let cache = self.cache.lock();
            for (i, (fabric, ini, tgt)) in requests.iter().enumerate() {
                let key = (ini.clone(), tgt.clone());
                match cache.get(fabric).and_then(|fc| fc.scores.get(&key)) {
                    Some(score) => {
                        m.cache_hit.inc();
                        // ofmf-lint: allow(no-panic-path, "i enumerates requests and results was sized to requests.len()")
                        results[i] = Some(*score);
                    }
                    None => {
                        m.cache_miss.inc();
                        let pairs = misses.entry(fabric.clone()).or_default();
                        if !pairs.contains(&key) {
                            pairs.push(key);
                        }
                    }
                }
            }
        }
        if misses.is_empty() {
            return (results.into_iter().map(|r| r.unwrap_or(None)).collect(), Vec::new());
        }

        // Phase 2: dispatch one ProbeRoutes per fabric, all fabrics in
        // parallel.
        let mut failed_fabrics: Vec<String> = Vec::new();
        let mut fresh: BTreeMap<String, FreshBatch> = BTreeMap::new();
        let ops: Vec<(String, AgentOp)> = misses
            .iter()
            .map(|(fabric, pairs)| (fabric.clone(), AgentOp::ProbeRoutes { pairs: pairs.clone() }))
            .collect();
        m.batches.add(ops.len() as u64);
        m.pairs.add(misses.values().map(|p| p.len() as u64).sum());
        let responses = ofmf.apply_parallel(&ops);
        for ((fabric, pairs), resp) in misses.iter().zip(responses) {
            match resp {
                Ok(r) => {
                    let payload = r.payload.unwrap_or(Value::Null);
                    let generation = payload.get("TopologyGeneration").and_then(Value::as_u64).unwrap_or(0);
                    let empty = Vec::new();
                    let entries = payload.get("Results").and_then(Value::as_array).unwrap_or(&empty);
                    let scored = pairs
                        .iter()
                        .enumerate()
                        .map(|(j, key)| (key.clone(), score_from_payload(entries.get(j))))
                        .collect();
                    fresh.insert(fabric.clone(), (generation, scored));
                }
                Err(_) => {
                    m.failed.inc();
                    failed_fabrics.push(fabric.clone());
                }
            }
        }

        // Phase 3: install fresh results (re-acquiring the lock) and fill
        // the remaining slots.
        {
            let mut cache = self.cache.lock();
            for (fabric, (generation, scored)) in &fresh {
                let fc = cache.entry(fabric.clone()).or_insert_with(|| FabricCache {
                    generation: *generation,
                    scores: BTreeMap::new(),
                });
                if fc.generation != *generation {
                    // The fabric moved under us: everything older is stale.
                    fc.generation = *generation;
                    fc.scores.clear();
                }
                for (key, score) in scored {
                    fc.scores.insert(key.clone(), *score);
                }
            }
        }
        for (i, (fabric, ini, tgt)) in requests.iter().enumerate() {
            // ofmf-lint: allow(no-panic-path, "i enumerates requests and results was sized to requests.len()")
            if results[i].is_none() {
                let key = (ini.clone(), tgt.clone());
                let hit = fresh
                    .get(fabric)
                    .and_then(|(_, scored)| scored.iter().find(|(k, _)| *k == key))
                    .map(|(_, s)| *s);
                // ofmf-lint: allow(no-panic-path, "i enumerates requests and results was sized to requests.len()")
                results[i] = Some(hit.unwrap_or(None));
            }
        }
        (results.into_iter().map(|r| r.unwrap_or(None)).collect(), failed_fabrics)
    }
}

/// Extract a [`RouteScore`] from a per-pair probe payload; `None` for
/// missing payloads or `{"Error": ...}` entries.
fn score_from_payload(v: Option<&Value>) -> Option<RouteScore> {
    let v = v?;
    if v.get("Error").is_some() {
        return None;
    }
    Some(RouteScore {
        hops: v.get("Hops")?.as_u64()?,
        residual_gbps: v.get("ResidualGbps").and_then(Value::as_f64).unwrap_or(f64::MAX),
        blast_radius: v.get("BlastRadius").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// One placement candidate after the fit filter: index into the caller's
/// pool slice plus the facts scoring needs.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index into the caller's pool slice.
    pub index: usize,
    /// Owning fabric.
    pub fabric: String,
    /// Target endpoint resource id.
    pub endpoint: ODataId,
    /// Free capacity for tightest-fit ranking (0 for whole-device grants).
    pub free: u64,
}

/// Outcome of a scored selection, including which fabrics were skipped
/// because their probe batches failed (surfaced on the placement span).
pub struct Selection {
    /// Winning candidate's `index`, if any candidate survived.
    pub index: Option<usize>,
    /// Fabrics whose probe batch failed outright.
    pub skipped_fabrics: Vec<String>,
}

/// Rank probed candidates by `(residual desc, hops asc, blast asc, free
/// asc, index asc)`. `total_cmp` keeps the order total (and therefore the
/// pick deterministic) even for degenerate scores.
fn better(a: (&RouteScore, u64, usize), b: (&RouteScore, u64, usize)) -> bool {
    let (sa, free_a, ia) = a;
    let (sb, free_b, ib) = b;
    sb.residual_gbps
        .total_cmp(&sa.residual_gbps)
        .then(sa.hops.cmp(&sb.hops))
        .then(sa.blast_radius.cmp(&sb.blast_radius))
        .then(free_a.cmp(&free_b))
        .then(ia.cmp(&ib))
        == std::cmp::Ordering::Less
}

/// Probe every candidate through `prober` and pick the congestion-aware
/// winner. Candidates whose probes failed (agent down, batch dropped)
/// degrade to *unprobed* and rank after every probed candidate in input
/// order, so placement still succeeds when probing cannot.
pub fn choose_probed(
    prober: &Prober,
    ofmf: &Ofmf,
    initiator_by_fabric: &BTreeMap<String, ODataId>,
    candidates: &[Candidate],
) -> Selection {
    let requests: Vec<(String, ODataId, ODataId)> = candidates
        .iter()
        .filter_map(|c| {
            initiator_by_fabric
                .get(&c.fabric)
                .map(|ini| (c.fabric.clone(), ini.clone(), c.endpoint.clone()))
        })
        .collect();
    if requests.len() != candidates.len() {
        // Callers filter on initiator reachability; a mismatch is a bug.
        return Selection {
            index: None,
            skipped_fabrics: Vec::new(),
        };
    }
    let (scores, skipped_fabrics) = prober.probe_pairs(ofmf, &requests);
    let mut best_probed: Option<(RouteScore, u64, usize)> = None;
    let mut best_unprobed: Option<usize> = None;
    for (pos, (cand, score)) in candidates.iter().zip(&scores).enumerate() {
        match score {
            Some(s) => {
                let challenger = (s, cand.free, pos);
                let wins = match &best_probed {
                    None => true,
                    Some((bs, bf, bp)) => better(challenger, (bs, *bf, *bp)),
                };
                if wins {
                    best_probed = Some((*s, cand.free, pos));
                }
            }
            None => {
                // Unroutable pairs stay excluded; only *failed* probes (the
                // fabric never answered) degrade to unprobed scoring.
                if skipped_fabrics.contains(&cand.fabric) && best_unprobed.is_none() {
                    best_unprobed = Some(pos);
                }
            }
        }
    }
    let winner = best_probed.map(|(_, _, pos)| pos).or(best_unprobed);
    Selection {
        // ofmf-lint: allow(no-panic-path, "pos came from enumerate() over this same candidates slice")
        index: winner.map(|pos| candidates[pos].index),
        skipped_fabrics,
    }
}
