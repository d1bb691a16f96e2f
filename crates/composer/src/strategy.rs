//! Allocation strategies: how the composer picks targets from the pools.
//!
//! The strategies differ along the classic placement trade-offs:
//!
//! * **FirstFit** — O(1)-ish, fragments pools, fastest.
//! * **BestFit** — minimizes leftover fragments (least free capacity that
//!   still fits), slower, keeps large pools intact for large requests.
//! * **TopologyAware** — probes the fabric route from the compute node to
//!   each candidate and picks by `(residual bandwidth, hops, blast radius)`
//!   through the shared scored-candidate pipeline in [`crate::probe`]:
//!   uncached candidates are probed in one batched round-trip per fabric,
//!   fabrics in parallel, behind a generation-keyed result cache.
//!
//! The three `choose_*` entry points take the caller's long-lived
//! [`Prober`], so repeated composes hit its cache.

use crate::inventory::{GpuPool, MemoryPool, StoragePoolView};
use crate::probe::{choose_probed, Candidate, Prober};
use ofmf_core::Ofmf;
use redfish_model::odata::ODataId;
use std::collections::BTreeMap;

/// Strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// First candidate that fits.
    #[default]
    FirstFit,
    /// Tightest candidate that fits.
    BestFit,
    /// Congestion-aware: widest residual bandwidth, then fewest hops, then
    /// smallest blast radius; ties broken by tightest fit.
    TopologyAware,
}

impl Strategy {
    /// All strategies (ablation benches).
    pub const ALL: [Strategy; 3] = [Strategy::FirstFit, Strategy::BestFit, Strategy::TopologyAware];

    /// Stable lowercase label (metric names, CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::FirstFit => "first_fit",
            Strategy::BestFit => "best_fit",
            Strategy::TopologyAware => "topology_aware",
        }
    }

    /// Index into [`Strategy::ALL`].
    pub fn index(self) -> usize {
        match self {
            Strategy::FirstFit => 0,
            Strategy::BestFit => 1,
            Strategy::TopologyAware => 2,
        }
    }
}

/// The `TopologyAware` pick: probe every pool that `fits` and take the
/// scored winner. `facts` yields a pool's `(fabric, endpoint, free
/// capacity)`; free capacity feeds the tightest-fit tie-break.
fn pick_probed<'a, P>(
    prober: &Prober,
    ofmf: &Ofmf,
    initiator_by_fabric: &BTreeMap<String, ODataId>,
    pools: &'a [P],
    fits: impl Fn(&&P) -> bool,
    facts: impl Fn(&P) -> (&str, &ODataId, u64),
) -> (Option<&'a P>, Vec<String>) {
    let candidates: Vec<Candidate> = pools
        .iter()
        .enumerate()
        .filter(|(_, p)| fits(p))
        .map(|(i, p)| {
            let (fabric, endpoint, free) = facts(p);
            Candidate {
                index: i,
                fabric: fabric.to_string(),
                endpoint: endpoint.clone(),
                free,
            }
        })
        .collect();
    let sel = choose_probed(prober, ofmf, initiator_by_fabric, &candidates);
    (sel.index.and_then(|i| pools.get(i)), sel.skipped_fabrics)
}

/// Choose a memory pool for `size_mib`, honoring the strategy.
/// `initiator_by_fabric` maps fabric id → the compute node's endpoint on
/// that fabric. Also reports fabrics skipped because their probe batch
/// failed.
pub fn choose_memory<'a>(
    prober: &Prober,
    strategy: Strategy,
    pools: &'a [MemoryPool],
    size_mib: u64,
    ofmf: &Ofmf,
    initiator_by_fabric: &BTreeMap<String, ODataId>,
) -> (Option<&'a MemoryPool>, Vec<String>) {
    let fits = |p: &&MemoryPool| p.free_mib >= size_mib && initiator_by_fabric.contains_key(&p.fabric);
    match strategy {
        Strategy::FirstFit => (pools.iter().find(fits), Vec::new()),
        Strategy::BestFit => (pools.iter().filter(fits).min_by_key(|p| p.free_mib), Vec::new()),
        Strategy::TopologyAware => pick_probed(prober, ofmf, initiator_by_fabric, pools, fits, |p| {
            (p.fabric.as_str(), &p.endpoint, p.free_mib)
        }),
    }
}

/// Choose a storage pool for `bytes`.
pub fn choose_storage<'a>(
    prober: &Prober,
    strategy: Strategy,
    pools: &'a [StoragePoolView],
    bytes: u64,
    ofmf: &Ofmf,
    initiator_by_fabric: &BTreeMap<String, ODataId>,
) -> (Option<&'a StoragePoolView>, Vec<String>) {
    let fits = |p: &&StoragePoolView| p.free_bytes >= bytes && initiator_by_fabric.contains_key(&p.fabric);
    match strategy {
        Strategy::FirstFit => (pools.iter().find(fits), Vec::new()),
        Strategy::BestFit => (pools.iter().filter(fits).min_by_key(|p| p.free_bytes), Vec::new()),
        Strategy::TopologyAware => pick_probed(prober, ofmf, initiator_by_fabric, pools, fits, |p| {
            (p.fabric.as_str(), &p.endpoint, p.free_bytes)
        }),
    }
}

/// Choose an unassigned GPU.
pub fn choose_gpu<'a>(
    prober: &Prober,
    strategy: Strategy,
    pools: &'a [GpuPool],
    ofmf: &Ofmf,
    initiator_by_fabric: &BTreeMap<String, ODataId>,
) -> (Option<&'a GpuPool>, Vec<String>) {
    let fits = |p: &&GpuPool| !p.assigned && initiator_by_fabric.contains_key(&p.fabric);
    match strategy {
        // Whole-device grants have no "tightness", so BestFit degenerates to
        // FirstFit (unchanged from the pre-pipeline behavior).
        Strategy::FirstFit | Strategy::BestFit => (pools.iter().find(fits), Vec::new()),
        Strategy::TopologyAware => pick_probed(prober, ofmf, initiator_by_fabric, pools, fits, |p| {
            (p.fabric.as_str(), &p.endpoint, 0)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Arc;

    fn pool(fabric: &str, name: &str, total: u64, free: u64) -> MemoryPool {
        MemoryPool {
            fabric: fabric.to_string(),
            endpoint: ODataId::new(format!("/redfish/v1/Fabrics/{fabric}/Endpoints/{name}-ep")),
            domain: ODataId::new(format!("/redfish/v1/Chassis/{name}/MemoryDomains/dom0")),
            total_mib: total,
            free_mib: free,
        }
    }

    fn no_ofmf() -> Arc<Ofmf> {
        Ofmf::new("strategy-test", HashMap::new(), 1)
    }

    fn ini_map(fabric: &str) -> BTreeMap<String, ODataId> {
        let mut m = BTreeMap::new();
        m.insert(
            fabric.to_string(),
            ODataId::new(format!("/redfish/v1/Fabrics/{fabric}/Endpoints/cn00-ep")),
        );
        m
    }

    /// A 40 MiB pick from `pools` for a node whose only endpoint is on
    /// `fabric`, with no agent behind it.
    fn pick<'a>(strategy: Strategy, pools: &'a [MemoryPool], fabric: &str) -> Option<&'a MemoryPool> {
        choose_memory(&Prober::new(), strategy, pools, 40, &no_ofmf(), &ini_map(fabric)).0
    }

    #[test]
    fn first_fit_takes_first_that_fits() {
        let pools = vec![
            pool("F", "a", 100, 10),
            pool("F", "b", 100, 50),
            pool("F", "c", 100, 90),
        ];
        assert_eq!(pick(Strategy::FirstFit, &pools, "F").unwrap().domain, pools[1].domain);
    }

    #[test]
    fn best_fit_takes_tightest() {
        let pools = vec![
            pool("F", "a", 100, 90),
            pool("F", "b", 100, 45),
            pool("F", "c", 100, 50),
        ];
        assert_eq!(pick(Strategy::BestFit, &pools, "F").unwrap().domain, pools[1].domain);
    }

    #[test]
    fn nothing_fits_returns_none() {
        let pools = vec![pool("F", "a", 100, 10)];
        assert!(pick(Strategy::FirstFit, &pools, "F").is_none());
        assert!(pick(Strategy::BestFit, &pools, "F").is_none());
    }

    #[test]
    fn pools_on_unreachable_fabrics_are_skipped() {
        // Initiator only has an endpoint on fabric G; pool is on F.
        let pools = vec![pool("F", "a", 100, 90)];
        assert!(pick(Strategy::FirstFit, &pools, "G").is_none());
    }

    #[test]
    fn gpu_choice_skips_assigned() {
        let mk = |name: &str, assigned| GpuPool {
            fabric: "F".to_string(),
            endpoint: ODataId::new(format!("/e/{name}")),
            processor: ODataId::new(format!("/p/{name}")),
            assigned,
        };
        let pools = vec![mk("g0", true), mk("g1", false)];
        let o = no_ofmf();
        let (chosen, _) = choose_gpu(&Prober::new(), Strategy::FirstFit, &pools, &o, &ini_map("F"));
        assert_eq!(chosen.unwrap().processor.as_str(), "/p/g1");
    }

    #[test]
    fn topology_aware_degrades_to_first_fit_when_fabric_unreachable() {
        // No agent is registered for fabric F, so the probe batch fails
        // outright. Placement must degrade to unprobed scoring (first
        // candidate in input order) and name the skipped fabric, instead of
        // silently returning None as the pre-pipeline code did.
        let pools = vec![pool("F", "a", 100, 90), pool("F", "b", 100, 50)];
        let o = no_ofmf();
        let prober = Prober::new();
        let (chosen, skipped) = choose_memory(&prober, Strategy::TopologyAware, &pools, 40, &o, &ini_map("F"));
        assert_eq!(chosen.unwrap().domain, pools[0].domain);
        assert_eq!(skipped, vec!["F".to_string()]);
    }
}
