//! The production configuration booted in-process on the rack rig: WAL on
//! (see [`FSYNC`]), wall clock, auth required, topology-aware composer behind
//! the REST bridge, epoll backend with one worker, and the daemon's 500 ms
//! poll thread — the same wiring as `ofmfd`, on 128 nodes × 32 targets ×
//! three fabrics.

use crate::trace::{TimingAgent, TimingBridge, Tracer};
use crate::wire::{encode_request, header, Conn};
use composer::{Composer, Strategy};
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_agents::SimAgent;
use ofmf_core::{Agent, Clock, Ofmf};
use ofmf_repro::ComposerBridge;
use ofmf_rest::{Backend, ComposeService, RestServer, Router, ServerConfig};
use ofmf_wal::{FsyncPolicy, Wal};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The rack every workload runs on (1 753 resources once mounted).
pub fn rack() -> RackShape {
    RackShape {
        compute_nodes: 128,
        targets: 32,
        leaves: 16,
        spines: 2,
        ..RackShape::default()
    }
}

/// The benchmark's only account.
pub const USER: &str = "bench";
/// Its password.
pub const PASSWORD: &str = "rack-scale";

/// Journal on, fsync off. The daemon's default is `Batch(5)`; on this
/// class of host `fdatasync` on the shared virtual disk takes 0.9–2.5 ms at
/// the median, moves between those within seconds and stalls to 30 ms, and
/// under `Batch(5)` every compose, every fault tick and every 5 ms of GETs
/// carries one inline — which made every timing follow the disk, not the
/// program. Every record is still encoded and written to the file; the
/// traced run reports what an fsync costs (`wal.fsync_us`) beside it.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Off;

/// The daemon's poll cadence.
pub const POLL_MS: u64 = 500;

fn credentials() -> HashMap<String, String> {
    HashMap::from([(USER.to_string(), PASSWORD.to_string())])
}

struct PollThread {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<()>,
}

/// A booted stack.
pub struct Rig {
    /// The management framework.
    pub ofmf: Arc<Ofmf>,
    /// The composer behind `CompositionService.Compose`.
    pub composer: Arc<Composer>,
    /// The router the server serves (also driven in-process by the traced
    /// replay).
    pub router: Arc<Router>,
    /// `CXL0`, `NVME0`, `IB0`, in that order.
    pub agents: Vec<Arc<SimAgent>>,
    /// Where the REST server listens.
    pub addr: SocketAddr,
    /// `(restored, compensated)` from `Composer::recover` on a recovered boot.
    pub recovered: Option<(usize, usize)>,
    server: Option<RestServer>,
    poll: Option<PollThread>,
}

impl Rig {
    /// Boot on `wal_dir`: fresh when the directory holds no journal,
    /// otherwise replay and recover exactly as `ofmfd` does. `after_replay`
    /// sees the tree right after replay, before agents re-register. With a
    /// tracer, agents and the compose bridge are wrapped in their timing
    /// decorators.
    pub fn boot(
        wal_dir: &Path,
        seed: u64,
        tracer: Option<&Arc<Tracer>>,
        after_replay: impl FnOnce(&Ofmf),
    ) -> io::Result<Rig> {
        let wal = Arc::new(Wal::open(wal_dir, FSYNC)?);
        let ofmf = Ofmf::with_wal_clock("ofmf-benchmark", credentials(), seed, wal, Arc::new(Clock::wall()))?;
        after_replay(&ofmf);
        let shape = rack();
        let agents = vec![
            Arc::new(cxl_agent("CXL0", &shape, 1 << 20, seed ^ 1)),
            Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, seed ^ 2)),
            Arc::new(infiniband_agent("IB0", &shape, "A100", seed ^ 3)),
        ];
        for a in &agents {
            let agent: Arc<dyn Agent> = match tracer {
                Some(t) => Arc::new(TimingAgent::new(Arc::clone(a) as Arc<dyn Agent>, Arc::clone(t))),
                None => Arc::clone(a) as Arc<dyn Agent>,
            };
            let registered = match tracer {
                Some(t) => t.leaf("core.ofmf.register_agent", || ofmf.register_agent(agent)),
                None => ofmf.register_agent(agent),
            };
            registered.map_err(|e| io::Error::other(format!("register agent: {e}")))?;
        }
        let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::TopologyAware));
        composer.attach_snapshot_provider();
        let recovered = if ofmf.was_recovered() {
            ofmf.finish_recovery();
            Some(composer.recover())
        } else {
            None
        };
        let bridge: Arc<dyn ComposeService> = Arc::new(ComposerBridge::shared(Arc::clone(&composer)));
        let bridge = match tracer {
            Some(t) => Arc::new(TimingBridge::new(bridge, Arc::clone(t))) as Arc<dyn ComposeService>,
            None => bridge,
        };
        let router = Arc::new(Router::new(Arc::clone(&ofmf), true).with_compose_service(bridge));
        let server = RestServer::start_with(
            "127.0.0.1:0",
            Arc::clone(&router),
            ServerConfig {
                workers: 1,
                max_connections: 4096,
                backend: Backend::Epoll,
            },
        )?;
        let addr = server.addr();
        Ok(Rig {
            ofmf,
            composer,
            router,
            agents,
            addr,
            recovered,
            server: Some(server),
            poll: None,
        })
    }

    /// Start the daemon's poll loop (`Ofmf::poll` every 500 ms).
    pub fn start_poll_thread(&mut self) {
        let (stop, stopped) = mpsc::channel::<()>();
        let ofmf = Arc::clone(&self.ofmf);
        let handle = std::thread::Builder::new()
            .name("bench-poll".into())
            .spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(Duration::from_millis(POLL_MS)) {
                    ofmf.poll();
                }
            })
            .expect("spawn poll thread");
        self.poll = Some(PollThread { stop, handle });
    }

    /// Stop and join the poll loop (no-op when it is not running).
    pub fn stop_poll_thread(&mut self) {
        if let Some(p) = self.poll.take() {
            let _ = p.stop.send(());
            p.handle.join().expect("poll thread panicked");
        }
    }

    /// Stop every thread and drop the stack. The journal is not flushed or
    /// snapshotted: what the files hold is what a killed process leaves.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.stop_poll_thread();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Log in over the wire; returns the connection and its session token.
pub fn login(addr: SocketAddr) -> io::Result<(Conn, String)> {
    let mut conn = Conn::connect(addr)?;
    let body = format!("{{\"UserName\":\"{USER}\",\"Password\":\"{PASSWORD}\"}}");
    let mut req = Vec::new();
    encode_request(
        &mut req,
        "POST",
        redfish_model::path::top::SESSIONS,
        "",
        body.as_bytes(),
    );
    let token = conn.round_trip(&req, |s, f| {
        (f.status == 201)
            .then(|| header(s.bytes(f.head), "x-auth-token").map(|t| String::from_utf8_lossy(t).into_owned()))
            .flatten()
    })?;
    let token = token.ok_or_else(|| io::Error::other("login refused"))?;
    Ok((conn, token))
}

/// One authenticated GET; returns the status.
pub fn get_status(conn: &mut Conn, token: &str, path: &str) -> io::Result<u16> {
    let mut req = Vec::new();
    encode_request(&mut req, "GET", path, token, b"");
    conn.round_trip(&req, |_, f| f.status)
}
