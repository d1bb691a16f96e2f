//! # ofmf-core
//!
//! The OpenFabrics Management Framework services layer — the paper's
//! "centralized abstract management layer that exposes a RESTful API and
//! incorporates DMTF Redfish and SNIA Swordfish schemas".
//!
//! The OFMF sits between north-bound clients (workload managers, runtime
//! libraries, administrators, the Composability Layer) and south-bound
//! technology-specific **Agents**:
//!
//! ```text
//!  clients ──► Composability Layer ──► OFMF services ──► Agents ──► fabrics
//! ```
//!
//! * [`agent`] — the [`agent::Agent`] trait Agents implement, the operation
//!   vocabulary ([`agent::AgentOp`]) the OFMF forwards to them, and the
//!   event/telemetry types they push back.
//! * [`clock`] — the service's monotonic millisecond clock (manual in tests,
//!   wall-driven in servers).
//! * [`tree`] — bootstrap of the unified Redfish tree and agent subtree
//!   mounting.
//! * [`events`] — the subscription-based event service with bounded
//!   per-subscriber delivery queues.
//! * [`telemetry`] — metric ingestion, windowed aggregation, report
//!   generation and threshold alerting.
//! * [`sessions`] — token-authenticated sessions.
//! * [`supervisor`] — per-agent circuit breakers, deadline/retry dispatch
//!   and the teardown replay journal that keep one flaky Agent from taking
//!   the manager down.
//! * [`ofmf`] — the [`ofmf::Ofmf`] facade tying everything together; this is
//!   the object the REST layer and the Composability Manager program
//!   against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod clock;
pub mod events;
pub mod ofmf;
pub mod sessions;
pub mod supervisor;
pub mod telemetry;
pub mod tree;

pub use agent::{Agent, AgentEvent, AgentInfo, AgentOp, AgentResponse};
pub use clock::Clock;
pub use events::EventService;
pub use ofmf::Ofmf;
pub use supervisor::{AgentSupervisor, BreakerState, SupervisorConfig};
pub use telemetry::TelemetryService;
