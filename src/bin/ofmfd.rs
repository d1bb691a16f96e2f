//! `ofmfd` — the OFMF daemon: boots the management framework with the three
//! simulated fabric agents and serves the Redfish tree over HTTP, polling
//! agents for events/telemetry on a fixed cadence.
//!
//! ```text
//! Usage: ofmfd [--port N] [--nodes N] [--targets N] [--seed N]
//!              [--auth USER:PASSWORD] [--poll-ms N] [--workers N]
//!              [--max-conns N] [--rest-backend epoll|threads]
//!              [--wal-dir PATH] [--fsync always|batch:<ms>|off]
//! ```
//!
//! With `--wal-dir`, every control-plane mutation is journaled to a
//! write-ahead log and the daemon resumes from it after a restart
//! (`--fsync` trades durability for latency; default `batch:5`).
//!
//! Example session:
//!
//! ```text
//! $ cargo run --bin ofmfd -- --port 8421 &
//! $ curl -s http://127.0.0.1:8421/redfish/v1 | jq .RedfishVersion
//! "1.15.0"
//! ```

use composer::{Composer, Strategy};
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::{Clock, Ofmf};
use ofmf_repro::ComposerBridge;
use ofmf_rest::{Backend, RestServer, Router, ServerConfig};
use ofmf_wal::{FsyncPolicy, Wal};
use std::collections::HashMap;
use std::sync::Arc;

struct Config {
    port: u16,
    nodes: usize,
    targets: usize,
    seed: u64,
    auth: Option<(String, String)>,
    poll_ms: u64,
    workers: usize,
    max_conns: usize,
    backend: Backend,
    wal_dir: Option<std::path::PathBuf>,
    fsync: FsyncPolicy,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        port: 8421,
        nodes: 4,
        targets: 2,
        seed: 2026,
        auth: None,
        poll_ms: 500,
        workers: 8,
        max_conns: 4096,
        backend: Backend::Epoll,
        wal_dir: None,
        fsync: FsyncPolicy::DEFAULT,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--port" => cfg.port = value("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
            "--nodes" => cfg.nodes = value("--nodes")?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--targets" => cfg.targets = value("--targets")?.parse().map_err(|e| format!("--targets: {e}"))?,
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--poll-ms" => cfg.poll_ms = value("--poll-ms")?.parse().map_err(|e| format!("--poll-ms: {e}"))?,
            "--workers" => cfg.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?,
            "--max-conns" => cfg.max_conns = value("--max-conns")?.parse().map_err(|e| format!("--max-conns: {e}"))?,
            "--rest-backend" => {
                cfg.backend = match value("--rest-backend")?.as_str() {
                    "epoll" => Backend::Epoll,
                    "threads" => Backend::ThreadPool,
                    other => return Err(format!("--rest-backend expects epoll|threads, got '{other}'")),
                }
            }
            "--auth" => {
                let v = value("--auth")?;
                let (u, p) = v
                    .split_once(':')
                    .ok_or_else(|| "--auth expects USER:PASSWORD".to_string())?;
                cfg.auth = Some((u.to_string(), p.to_string()));
            }
            "--wal-dir" => cfg.wal_dir = Some(std::path::PathBuf::from(value("--wal-dir")?)),
            "--fsync" => {
                let v = value("--fsync")?;
                cfg.fsync = FsyncPolicy::parse(&v)
                    .ok_or_else(|| format!("--fsync expects always|batch:<ms>|off, got '{v}'"))?;
            }
            "--help" | "-h" => {
                return Err("usage: ofmfd [--port N] [--nodes N] [--targets N] [--seed N] \
                            [--auth USER:PASSWORD] [--poll-ms N] [--workers N] \
                            [--max-conns N] [--rest-backend epoll|threads] \
                            [--wal-dir PATH] [--fsync always|batch:<ms>|off]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let mut creds = HashMap::new();
    let require_auth = cfg.auth.is_some();
    if let Some((u, p)) = &cfg.auth {
        creds.insert(u.clone(), p.clone());
    }
    let ofmf = match &cfg.wal_dir {
        Some(dir) => {
            let wal = match Wal::open(dir, cfg.fsync) {
                Ok(w) => Arc::new(w),
                Err(e) => {
                    eprintln!("cannot open WAL at {}: {e}", dir.display());
                    std::process::exit(1);
                }
            };
            match Ofmf::with_wal_clock("ofmfd", creds, cfg.seed, wal, Arc::new(Clock::wall())) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot replay WAL at {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
        None => Ofmf::new_wall("ofmfd", creds, cfg.seed),
    };
    let recovered = ofmf.was_recovered();

    let shape = RackShape {
        compute_nodes: cfg.nodes,
        targets: cfg.targets,
        leaves: (cfg.nodes / 8).max(2),
        spines: 2,
        ..RackShape::default()
    };
    ofmf.register_agent(Arc::new(cxl_agent("CXL0", &shape, 1 << 20, cfg.seed ^ 1)))
        .expect("fabric id free at boot");
    ofmf.register_agent(Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, cfg.seed ^ 2)))
        .expect("fabric id free at boot");
    ofmf.register_agent(Arc::new(infiniband_agent("IB0", &shape, "A100", cfg.seed ^ 3)))
        .expect("fabric id free at boot");

    let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::TopologyAware));
    composer.attach_snapshot_provider();
    if recovered {
        ofmf.finish_recovery();
        let (restored, compensated) = composer.recover();
        println!("ofmfd: resumed from WAL ({restored} composition(s) restored, {compensated} compensated)");
    }
    let bridge = ComposerBridge::shared(Arc::clone(&composer));
    let router = Arc::new(Router::new(Arc::clone(&ofmf), require_auth).with_compose_service(Arc::new(bridge)));
    let server_config = ServerConfig {
        workers: cfg.workers,
        max_connections: cfg.max_conns,
        backend: cfg.backend,
    };
    let server = match RestServer::start_with(&format!("0.0.0.0:{}", cfg.port), router, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind port {}: {e}", cfg.port);
            std::process::exit(1);
        }
    };

    println!(
        "ofmfd: serving {} resources at {}",
        ofmf.registry.len(),
        server.base_url()
    );
    println!("ofmfd: fabrics {:?}", ofmf.fabric_ids());
    println!(
        "ofmfd: auth {}, polling agents every {} ms",
        if require_auth { "required" } else { "open" },
        cfg.poll_ms
    );
    println!(
        "ofmfd: rest backend {:?}, {} worker(s), shedding load past {} connections",
        cfg.backend, cfg.workers, cfg.max_conns
    );
    match &cfg.wal_dir {
        Some(dir) => println!(
            "ofmfd: durability on, journal at {} (fsync {:?})",
            dir.display(),
            cfg.fsync
        ),
        None => println!("ofmfd: durability off (no --wal-dir); state is lost on exit"),
    }

    // Poll loop on the main thread; the server owns its own threads.
    loop {
        std::thread::sleep(std::time::Duration::from_millis(cfg.poll_ms));
        let events = ofmf.poll();
        if events > 0 {
            println!("ofmfd: processed {events} agent event(s)");
        }
    }
}
