//! # ofmf-rest
//!
//! The OFMF's RESTful north-bound interface, built from scratch on
//! `std::net` (no async runtime): "a centralized abstract management layer
//! that exposes a RESTful API … transactions are stateless and lightweight,
//! consisting of JSON data carried on OData".
//!
//! * [`http`] — a small, strict HTTP/1.1 request parser and response
//!   serializer (keep-alive aware, bounded bodies).
//! * [`query`] — OData query options: `$expand`, `$select`, `$top`, `$skip`.
//! * [`router`] — maps `GET/POST/PATCH/DELETE` on tree paths to [`ofmf_core::Ofmf`]
//!   operations: session login, event subscriptions with long-poll-style
//!   draining, ETag/If-Match concurrency, Redfish error bodies.
//! * [`server`] — the server facade over an epoll readiness event loop
//!   (shared acceptor, per-worker event loops, per-connection state
//!   machines, pipelining, connection-cap load shedding).
//! * [`client`] — a minimal blocking HTTP client used by tests, examples and
//!   benches.
//!
//! `unsafe` is denied crate-wide with exactly one audited exception: the
//! raw `epoll` syscall facade in `event_loop/sys.rs` (the workspace vendors
//! no libc). The `syscall-facade` lint rule pins it there. That facade is
//! written for Linux on x86_64 and aarch64, the only supported targets; a
//! build for any other target fails at compile time.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!("ofmf-rest serves over raw epoll syscalls: Linux on x86_64 or aarch64 only");

pub mod client;
mod event_loop;
pub mod http;
mod obs;
pub mod query;
pub mod router;
pub mod server;

pub use client::HttpClient;
pub use router::{ComposeService, Router};
pub use server::{Backend, RestServer, ServerConfig};
