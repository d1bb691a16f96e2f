//! The REST server facade over the epoll readiness event loop in the
//! private `event_loop` module: a shared acceptor, per-worker epoll instances,
//! per-connection state machines, incremental parsing, pipelining, and a
//! connection cap with 503 load-shedding. Thousands of idle keep-alive
//! connections cost nothing but memory.

use crate::event_loop::EventLoopServer;
use crate::router::Router;
use std::net::SocketAddr;
use std::sync::Arc;

/// Which wire backend serves the sockets. The event loop is the only one;
/// the enum stays because `benchmark/src/rig.rs` names
/// `Backend::Epoll`, and goes once that harness stops naming it
/// (ROADMAP item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Nonblocking readiness event loop.
    Epoll,
}

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Event-loop worker threads.
    pub workers: usize,
    /// Concurrently open connections before the server sheds load with
    /// `503` + `Retry-After`.
    pub max_connections: usize,
    /// The wire backend: always [`Backend::Epoll`]. Kept because
    /// `benchmark/src/rig.rs` sets it; ROADMAP item 1 deletes it.
    pub backend: Backend,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_connections: 4096,
            backend: Backend::Epoll,
        }
    }
}

/// A running REST server.
pub struct RestServer {
    inner: EventLoopServer,
}

impl RestServer {
    /// Bind `bind_addr` (use port 0 for an ephemeral port) and serve
    /// `router` on `workers` threads.
    pub fn start(bind_addr: &str, router: Arc<Router>, workers: usize) -> std::io::Result<RestServer> {
        RestServer::start_with(
            bind_addr,
            router,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
    }

    /// Bind and serve with explicit tuning.
    pub fn start_with(bind_addr: &str, router: Arc<Router>, config: ServerConfig) -> std::io::Result<RestServer> {
        let inner = EventLoopServer::start(bind_addr, router, config.workers, config.max_connections)?;
        Ok(RestServer { inner })
    }

    /// The bound address (for clients when port 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Base URL, e.g. `http://127.0.0.1:8421`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr())
    }

    /// Stop accepting, drain workers, join threads.
    pub fn shutdown(mut self) {
        self.inner.shutdown();
    }
}
