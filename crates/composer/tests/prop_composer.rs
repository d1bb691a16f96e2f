//! Property tests: policy arithmetic, accounting bounds, the composer's
//! conservation law (compose ∘ decompose = identity on the inventory),
//! batched probing against a one-probe-per-pair reference, and the
//! link-following inventory against a full type scan of the tree.

mod oracle;

use composer::accounting::{composable_outcome, heterogeneous_mix, static_outcome, PowerModel, StaticNodeShape};
use composer::inventory::MemoryPool;
use composer::policy::PolicySet;
use composer::probe::{Prober, RouteScore};
use composer::{Composer, CompositionRequest, Strategy};
use fabric_sim::failure::Fault;
use fabric_sim::ids::DeviceId;
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_agents::SimAgent;
use ofmf_core::agent::AgentOp;
use proptest::prelude::*;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::RedfishError;
use serde_json::json;
use std::sync::Arc;

fn demo_rig(seed: u64) -> DemoRig {
    let ofmf = ofmf_core::Ofmf::new("prop-rig", std::collections::HashMap::new(), seed);
    let shape = RackShape::default();
    ofmf.register_agent(Arc::new(cxl_agent("CXL0", &shape, 1 << 20, seed ^ 1)))
        .unwrap();
    ofmf.register_agent(Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, seed ^ 2)))
        .unwrap();
    ofmf.register_agent(Arc::new(infiniband_agent("IB0", &shape, "A100", seed ^ 3)))
        .unwrap();
    DemoRig { ofmf }
}

struct DemoRig {
    ofmf: Arc<ofmf_core::Ofmf>,
}

fn pool(total: u64, free: u64) -> MemoryPool {
    MemoryPool {
        fabric: "F".into(),
        endpoint: ODataId::new("/e"),
        domain: ODataId::new("/d"),
        total_mib: total,
        free_mib: free.min(total),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A spread plan always sums to exactly the demand, never uses more
    /// pools than the cap, and never takes more from a pool than offered.
    #[test]
    fn spread_plan_is_exact_and_bounded(
        frees in prop::collection::vec(0u64..5000, 1..8),
        demand in 1u64..20_000,
        cap in 1usize..8,
        headroom in 0.0f64..0.5,
    ) {
        let policy = PolicySet { memory_headroom: headroom, max_memory_spread: cap, ..PolicySet::default() };
        let pools: Vec<MemoryPool> = frees.iter().map(|&f| pool(5000, f)).collect();
        let refs: Vec<&MemoryPool> = pools.iter().collect();
        match policy.spread_plan(&refs, demand) {
            Some(plan) => {
                let sum: u64 = plan.iter().map(|(_, s)| s).sum();
                prop_assert_eq!(sum, demand);
                prop_assert!(plan.len() <= cap);
                for (i, take) in &plan {
                    prop_assert!(*take <= policy.offered_mib(refs[*i]));
                    prop_assert!(*take > 0);
                }
                // No pool used twice.
                let mut seen: Vec<usize> = plan.iter().map(|(i, _)| *i).collect();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), plan.len());
            }
            None => {
                // Refusal must be justified: the top-`cap` offers don't cover it.
                let mut offers: Vec<u64> = refs.iter().map(|p| policy.offered_mib(p)).collect();
                offers.sort_unstable_by(|a, b| b.cmp(a));
                let best: u64 = offers.iter().take(cap).sum();
                prop_assert!(best < demand, "refused {demand} though {best} was offered");
            }
        }
    }

    /// Accounting outcomes are always within physical bounds, for both
    /// provisioning models and any mix.
    #[test]
    fn accounting_outcomes_bounded(n in 1usize..200, seed in any::<u64>()) {
        let jobs = heterogeneous_mix(n, seed);
        let power = PowerModel::default();
        let shape = StaticNodeShape { cores: 32, memory_gib: 384, gpus: 2 };
        let st = static_outcome(&jobs, shape, n, &power);
        let total_mem: u64 = jobs.iter().map(|j| j.memory_gib).sum();
        let total_gpus: u32 = jobs.iter().map(|j| j.gpus).sum();
        let co = composable_outcome(&jobs, n, 32, total_mem.max(1), total_gpus, &power);
        for o in [&st, &co] {
            prop_assert!((0.0..=1.0).contains(&o.core_utilization));
            prop_assert!((0.0..=1.0).contains(&o.memory_utilization));
            prop_assert!((0.0..=1.0).contains(&o.gpu_utilization));
            prop_assert!((0.0..=1.0).contains(&o.stranded_fraction));
            prop_assert!(o.power_watts >= 0.0);
            prop_assert!(o.rejected_jobs <= n);
        }
    }
}

const PROBE_FABRICS: [&str; 3] = ["CXL0", "CXL1", "CXL2"];

/// Three memory fabrics, so one `probe_pairs` call fans batches out across
/// all of them in parallel. The agents are returned for fault injection.
fn probe_rig(seed: u64) -> (Arc<ofmf_core::Ofmf>, Vec<Arc<SimAgent>>) {
    let ofmf = ofmf_core::Ofmf::new("prop-probe-rig", std::collections::HashMap::new(), seed);
    let shape = RackShape::default();
    let agents: Vec<Arc<SimAgent>> = PROBE_FABRICS
        .iter()
        .zip(1u64..)
        .map(|(fid, salt)| Arc::new(cxl_agent(fid, &shape, 1 << 20, seed ^ salt)))
        .collect();
    for a in &agents {
        ofmf.register_agent(Arc::clone(a) as Arc<dyn ofmf_core::Agent>).unwrap();
    }
    (ofmf, agents)
}

/// The reference `probe_pairs` is checked against: one supervised
/// `ProbeRoute` round-trip per pair, one after another. `Conflict` is the
/// agent's "no healthy route" answer and maps to an empty slot.
fn probe_one_by_one(ofmf: &ofmf_core::Ofmf, requests: &[(String, ODataId, ODataId)]) -> Vec<Option<RouteScore>> {
    requests
        .iter()
        .map(|(fabric, ini, tgt)| {
            let op = AgentOp::ProbeRoute {
                initiator: ini.clone(),
                target: tgt.clone(),
            };
            match ofmf.apply(fabric, &op) {
                Ok(r) => {
                    let p = r.payload.expect("probe payload");
                    Some(RouteScore {
                        hops: p["Hops"].as_u64().expect("Hops"),
                        residual_gbps: p["ResidualGbps"].as_f64().expect("ResidualGbps"),
                        blast_radius: p["BlastRadius"].as_u64().expect("BlastRadius"),
                    })
                }
                Err(RedfishError::Conflict(_)) => None,
                Err(e) => panic!("reference probe failed: {e}"),
            }
        })
        .collect()
}

proptest! {
    // The live-stack properties are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched probing is a pure transport optimization: for any pair list
    /// (duplicates included) `probe_pairs` fills every slot with exactly
    /// what one supervised `ProbeRoute` per pair reports, an unroutable
    /// pair is an empty slot rather than a failed fabric, and a second call
    /// is answered from the cache without asking the agents again.
    #[test]
    fn probe_pairs_matches_one_supervised_probe_per_pair(
        picks in prop::collection::vec((0usize..3, 0usize..4, 0usize..2), 1..12),
        dead in (0usize..3, 0usize..2),
    ) {
        let (ofmf, agents) = probe_rig(4242);
        let shape = RackShape::default();
        let request = |(f, node, target): (usize, usize, usize)| {
            (
                PROBE_FABRICS[f].to_string(),
                agents[f].endpoint_id(&format!("cn{node:02}")),
                agents[f].endpoint_id(&format!("mem{target:02}")),
            )
        };
        // One appliance is down, and a pair that needs it is always asked
        // for. Devices are numbered compute nodes first, then appliances.
        let dead_device = DeviceId((shape.compute_nodes + dead.1) as u32);
        agents[dead.0].inject_fault(Fault::DeviceDown(dead_device));
        let mut requests: Vec<_> = picks.into_iter().map(request).collect();
        requests.push(request((dead.0, 0, dead.1)));

        let prober = Prober::new();
        let expected = probe_one_by_one(&ofmf, &requests);
        prop_assert_eq!(expected.last(), Some(&None), "the dead appliance is unroutable");
        let (cold, failed) = prober.probe_pairs(&ofmf, &requests);
        prop_assert!(failed.is_empty(), "an unroutable pair must not fail its fabric: {:?}", failed);
        prop_assert_eq!(&cold, &expected);

        // Warm: the appliance comes back, but nothing invalidated the
        // cache, so an answer identical to the cold one proves no agent
        // was asked.
        agents[dead.0].inject_fault(Fault::DeviceUp(dead_device));
        let (warm, failed) = prober.probe_pairs(&ofmf, &requests);
        prop_assert!(failed.is_empty());
        prop_assert_eq!(&warm, &cold);

        prober.invalidate_fabric(PROBE_FABRICS[dead.0]);
        let (fresh, _) = prober.probe_pairs(&ofmf, &requests);
        prop_assert_eq!(&fresh, &probe_one_by_one(&ofmf, &requests));
        prop_assert!(fresh.iter().all(Option::is_some), "every pair routes once the appliance is back");
    }

    /// Conservation: for any satisfiable request mix, composing then
    /// decomposing everything restores the exact inventory.
    #[test]
    fn compose_decompose_is_identity(
        mems in prop::collection::vec(1u64..4096, 1..4),
        gpus in 0u32..2,
        storage in prop::collection::vec(0u64..(1u64<<30), 0..2),
    ) {
        let rig = demo_rig(777);
        let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::BestFit);
        let before = composer.inventory();
        let mut composed = Vec::new();
        for (i, &m) in mems.iter().enumerate() {
            let mut req = CompositionRequest::compute_only(&format!("p{i}"), 8, 8)
                .with_fabric_memory_mib(m);
            if i == 0 {
                req = req.with_gpus(gpus);
                if let Some(&s) = storage.first() {
                    req = req.with_storage_bytes(s);
                }
            }
            match composer.compose(&req) {
                Ok(c) => composed.push(c),
                Err(e) => prop_assert_eq!(e.http_status(), 507, "only capacity refusals allowed"),
            }
        }
        for c in &composed {
            composer.decompose(&c.system).unwrap();
        }
        let after = composer.inventory();
        prop_assert_eq!(before.compute.len(), after.compute.len());
        prop_assert_eq!(before.free_memory_mib(), after.free_memory_mib());
        prop_assert_eq!(before.free_gpus(), after.free_gpus());
        prop_assert_eq!(before.free_storage_bytes(), after.free_storage_bytes());
        prop_assert!(rig.ofmf.registry.dangling_links().is_empty());
    }

    /// The old scan is the oracle: after every step of a random sequence of
    /// compose / decompose / grow / attach / `Status.State` PATCHes on
    /// chassis, domains and nodes / agent unmount, following links finds
    /// exactly what a type scan of the whole tree finds, in the same order.
    #[test]
    fn link_following_inventory_equals_full_type_scan(
        ops in prop::collection::vec((0usize..8, 0usize..8, 1u64..4096), 1..24),
    ) {
        let rig = demo_rig(4711);
        let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::TopologyAware);
        let reg = &rig.ofmf.registry;
        let patchable: Vec<ODataId> = ["Chassis/mem00", "Chassis/mem01/MemoryDomains/dom0", "Chassis/gpu01", "Systems/cn02"]
            .iter()
            .map(|p| ODataId::new(format!("/redfish/v1/{p}")))
            .collect();
        for (step, (kind, a, b)) in ops.into_iter().enumerate() {
            let live = composer.compositions();
            let pick = live.get(a % live.len().max(1)).map(|c| c.system.clone());
            // Refusals (507, a fabric that is gone) are part of the walk:
            // whatever an op did or did not do, the two views must agree.
            match (kind, pick) {
                (0 | 1, _) => {
                    let req = CompositionRequest::compute_only(&format!("s{step}"), 8, 8)
                        .with_fabric_memory_mib(b)
                        .with_gpus((a % 3 == 0) as u32)
                        .with_storage_bytes((a as u64 % 2) * (b << 20));
                    let _ = composer.compose(&req);
                }
                (2, Some(system)) => composer.decompose(&system).unwrap(),
                (3, Some(system)) => drop(composer.grow_memory(&system, b)),
                (4, Some(system)) => drop(composer.attach_storage(&system, b << 20)),
                (5 | 6, _) => {
                    let state = ["Enabled", "UnavailableOffline", "StandbyOffline"][b as usize % 3];
                    reg.patch(&patchable[a % patchable.len()], &json!({"Status": {"State": state}}), None).unwrap();
                }
                (7, _) => drop(rig.ofmf.unregister_agent(["CXL0", "NVME0", "IB0"][a % 3])),
                _ => {}
            }
            oracle::assert_same(&composer.inventory(), &oracle::full_scan(&composer), &format!("after step {step} (op {kind})"));
        }
    }
}

/// The scan's cost and its result follow the pools, not the tree: 2 000
/// chassis no endpoint links to change neither view. What is *meant* to
/// differ is reachability — a `#ComputerSystem.` document outside `Systems`
/// is a compute node to the type scan and invisible to a client following
/// links, so the composer never places anything on it.
#[test]
fn unrelated_chassis_leave_the_inventory_unchanged() {
    let rig = demo_rig(2000);
    let composer = Composer::new(Arc::clone(&rig.ofmf), Strategy::FirstFit);
    let reg = &rig.ofmf.registry;
    composer
        .compose(&CompositionRequest::compute_only("busy", 8, 8).with_fabric_memory_mib(2048))
        .unwrap();
    let before = composer.inventory();
    oracle::add_unrelated_chassis(reg, 2000);
    oracle::assert_same(&composer.inventory(), &before, "after 2 000 unrelated chassis");
    oracle::assert_same(&before, &oracle::full_scan(&composer), "against the type scan");

    let stray = ODataId::new(top::CHASSIS).child("client0000").child("stray-node");
    let body = json!({"@odata.type": "#ComputerSystem.v1_20_0.ComputerSystem", "SystemType": "Physical",
        "ProcessorSummary": {"CoreCount": 64}, "MemorySummary": {"TotalSystemMemoryGiB": 512}});
    reg.create(&stray, body).unwrap();
    oracle::assert_same(&composer.inventory(), &before, "after a stray ComputerSystem");
    let scanned = oracle::full_scan(&composer);
    assert!(
        scanned.compute.iter().any(|c| c.system == stray),
        "the type scan does see it"
    );
    assert_eq!(scanned.compute.len(), before.compute.len() + 1);
}
