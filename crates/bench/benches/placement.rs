//! OFMF-B9: congestion-aware placement at scale.
//!
//! Two scenarios:
//!
//! 1. **probe_sweep** — one topology-aware placement decision over a
//!    multi-appliance estate (full mode: 1 000 fabrics / 10 000 endpoints /
//!    ~100 000 Redfish resources; `OFMF_BENCH_QUICK=1` shrinks to 8
//!    fabrics). Each agent round-trip carries 1 ms of service-clock
//!    latency, so round-trip cost is deterministic. The gate is absolute:
//!    a cold sweep sends exactly one `ProbeRoutes` batch per fabric
//!    (`ofmf.composer.probe.batches.total`), a warm one sends none.
//! 2. **gpu_contention** — eight 32-GPU systems composed concurrently on a
//!    switch-cascade GPU fabric with twice the GPUs needed. Hop counts tie
//!    across appliances, so the aggregate effective bandwidth reported
//!    here is what residual-bandwidth-first scoring buys by spreading
//!    reservations across every uplink.

use composer::probe::Prober;
use composer::strategy::choose_memory;
use composer::{Composer, CompositionRequest, Strategy};
use fabric_sim::device::{Device, DeviceKind};
use fabric_sim::topology::{presets, Attach, Topology, TopologyBuilder};
use fabric_sim::{FabricConfig, FabricSim};
use ofmf_agents::{ChaosAgent, ChaosConfig, SimAgent};
use ofmf_core::Ofmf;
use redfish_model::enums::Protocol;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("OFMF_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

// ------------------------------------------------------------- probe sweep

const SWEEP_TARGETS: usize = 8;

/// One memory fabric of the sweep estate. Compute nodes keep the shared
/// `cn00`/`cn01` names (one node spans every fabric), but appliances get
/// estate-unique names — each is distinct hardware with its own chassis.
fn mem_fabric(i: usize, seed: u64) -> SimAgent {
    let mut devices = presets::compute_nodes(2, 8, 16);
    devices.extend((0..SWEEP_TARGETS).map(|j| {
        Device::new(
            format!("p{i:04}m{j:02}"),
            DeviceKind::MemoryAppliance { capacity_mib: 1 << 20 },
        )
    }));
    let topo = TopologyBuilder::new()
        .access_gbps(256.0)
        .trunk_gbps(512.0)
        .leaf_spine(1, 2, devices);
    SimAgent::new(
        FabricSim::new(FabricConfig::new(&format!("CXL{i:04}"), "CXL", seed), topo),
        Protocol::CXL,
    )
}

fn probe_sweep() {
    let (fabrics, iters) = if quick() { (8usize, 2u32) } else { (1000, 3) };
    let ofmf = Ofmf::new("placement-bench", HashMap::new(), 11);
    for i in 0..fabrics {
        // Every agent round-trip costs 1 ms of service-clock latency — the
        // management-network hop an in-process sim otherwise hides, and the
        // cost batching exists to amortize.
        let agent = ChaosAgent::new(
            Arc::new(mem_fabric(i, 11 ^ i as u64)),
            ChaosConfig::quiet(11 ^ i as u64).with_delay_ms(1),
        )
        .with_clock(Arc::clone(&ofmf.clock));
        ofmf.register_agent(Arc::new(agent)).expect("fresh rig");
    }
    let composer = Composer::new(Arc::clone(&ofmf), Strategy::TopologyAware);
    let inv = composer.inventory();
    let initiators = &inv.compute[0].endpoints;
    assert_eq!(
        inv.memory.len(),
        fabrics * SWEEP_TARGETS,
        "every appliance is a candidate"
    );
    println!(
        "placement/probe_sweep: {} fabrics, {} endpoints, {} resources, {} candidate pools",
        fabrics,
        fabrics * (2 + SWEEP_TARGETS),
        ofmf.registry.len(),
        inv.memory.len()
    );

    // One cold placement decision: every candidate pool probed. Warm = the
    // same decision again with the cache intact. Service-clock ms counts
    // agent round-trips; wall ms is the CPU cost of the pipeline itself.
    let batches = || {
        ofmf_obs::global()
            .snapshot()
            .counter("ofmf.composer.probe.batches.total")
            .unwrap_or(0)
    };
    let prober = Prober::new();
    let mut svc = u64::MAX;
    let mut cold = f64::INFINITY;
    let mut warm = f64::INFINITY;
    for _ in 0..iters {
        prober.invalidate_all();
        let batches0 = batches();
        let clock0 = ofmf.clock.now_ms();
        let t = Instant::now();
        let (chosen, skipped) = choose_memory(&prober, Strategy::TopologyAware, &inv.memory, 64, &ofmf, initiators);
        cold = cold.min(t.elapsed().as_secs_f64());
        svc = svc.min(ofmf.clock.now_ms() - clock0);
        assert!(skipped.is_empty(), "no fabric may fail its probe batch: {skipped:?}");
        let picked = chosen.expect("a pool fits").domain.as_str().to_string();
        let batches_cold = batches();
        assert_eq!(
            batches_cold - batches0,
            fabrics as u64,
            "a cold sweep sends exactly one probe batch per fabric"
        );
        let t = Instant::now();
        let (again, _) = choose_memory(&prober, Strategy::TopologyAware, &inv.memory, 64, &ofmf, initiators);
        warm = warm.min(t.elapsed().as_secs_f64());
        assert_eq!(again.expect("cache hit").domain.as_str(), picked);
        assert_eq!(batches(), batches_cold, "a warm sweep is served from the cache");
    }
    println!(
        "placement/probe_sweep: {svc} round-trip ms for {fabrics} batches ({:.1} ms wall cold / {:.2} warm)",
        cold * 1e3,
        warm * 1e3,
    );
}

// ---------------------------------------------------------- GPU contention

/// A cascade GPU fabric with GPUs attached **consecutively** per appliance
/// (not round-robin), so tie-breaking by candidate index alone would pack
/// the first appliances' uplinks.
fn gpu_cascade(appliances: usize, gpus_per_app: usize, nodes: usize, seed: u64) -> SimAgent {
    let mut topo = Topology::new();
    let head = topo.add_switch("head", 128);
    let apps: Vec<_> = (0..appliances)
        .map(|i| topo.add_switch(format!("app{i}"), 96))
        .collect();
    for &a in &apps {
        topo.add_link(Attach::Switch(head), Attach::Switch(a), 512.0, 500);
    }
    // Fat access links on both ends: the shared appliance uplinks (512
    // Gbps), not a device's own access link, must be every probed path's
    // bottleneck — otherwise min-residual ties across appliances and the
    // congestion score cannot discriminate.
    for d in presets::compute_nodes(nodes, 8, 16) {
        topo.attach_device(head, d, 4096.0, 500);
    }
    for (i, d) in presets::gpus(appliances * gpus_per_app, "A100", 40)
        .into_iter()
        .enumerate()
    {
        topo.attach_device(apps[i / gpus_per_app], d, 1024.0, 500);
    }
    SimAgent::new(
        FabricSim::new(FabricConfig::new("GPU0", "InfiniBand", seed), topo),
        Protocol::InfiniBand,
    )
}

fn gpu_contention() {
    let (systems, gpus_per_system, appliances) = if quick() { (4usize, 8u32, 4usize) } else { (8, 32, 8) };
    // Twice the GPUs needed: placement has real freedom to pack or spread.
    // Each appliance holds two systems' worth, so index tie-breaking alone
    // would stack two systems per uplink; the residual-aware scorer peels
    // off to an idle appliance as soon as reservations debit the first.
    let gpus_per_app = (systems * gpus_per_system as usize * 2) / appliances;

    let agent = Arc::new(gpu_cascade(appliances, gpus_per_app, systems, 21));
    let ofmf = Ofmf::new("placement-contention", HashMap::new(), 21);
    ofmf.register_agent(Arc::clone(&agent) as Arc<dyn ofmf_core::Agent>)
        .expect("fresh rig");
    let composer = Composer::new(Arc::clone(&ofmf), Strategy::TopologyAware);
    std::thread::scope(|s| {
        for i in 0..systems {
            let composer = &composer;
            s.spawn(move || {
                let req = CompositionRequest::compute_only(&format!("hpc{i}"), 8, 8)
                    .with_gpus(gpus_per_system)
                    .with_gpu_bandwidth_gbps(4.0);
                // Concurrent composes race for the same GPUs: a loser's
                // bind hits 507 (the grant went to another system) and
                // retries against a fresh inventory snapshot, like any
                // real client of the CompositionService.
                let mut last = None;
                for _ in 0..64 {
                    match composer.compose(&req) {
                        Ok(_) => return,
                        Err(e) if e.http_status() == 507 => last = Some(e),
                        Err(e) => panic!("compose failed: {e}"),
                    }
                }
                panic!("compose kept losing the GPU race: {last:?}");
            });
        }
    });
    let gbps = agent.with_sim(|sim| sim.aggregate_effective_gbps());
    println!(
        "placement/gpu_contention: {systems} x {gpus_per_system}-GPU systems on {appliances} appliances — \
         aggregate effective bandwidth {gbps:.0} Gbps"
    );
}

fn main() {
    probe_sweep();
    gpu_contention();
    ofmf_bench::finish_obs();
}
