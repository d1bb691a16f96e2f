//! # composer
//!
//! The OFMF **Composability Manager** — the layer the paper places between
//! clients and the OFMF services: "The Composability Layer manages hardware
//! resources to best provide run-time computational performance, energy
//! efficiency, and resource monitoring by applying policies and updating
//! subscribed clients with events."
//!
//! * [`inventory`] — a live view of free pools (compute nodes, fabric
//!   memory, GPUs, NVMe capacity) derived from the unified Redfish tree.
//! * [`request`] — composition requests and the resulting
//!   [`request::ComposedSystem`] records.
//! * [`strategy`] — allocation strategies: first-fit, best-fit and
//!   topology-aware (hop-minimizing via agent route probes).
//! * [`policy`] — placement policies: capacity headroom, carve floors and
//!   bounded memory spreading.
//! * [`composer`] — the [`composer::Composer`] itself: compose / decompose,
//!   dynamic reprovisioning (grow memory under OOM pressure, attach storage
//!   under I/O thrash), and event-driven fail-over recovery.
//! * [`accounting`] — stranded-resource and energy accounting comparing
//!   composable against statically provisioned infrastructure (Fig. 1).
//! * [`probe`] — batched, cached route probes the topology-aware strategy
//!   scores placements with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod composer;
pub mod inventory;
pub mod policy;
pub mod probe;
pub mod request;
pub mod strategy;

pub use composer::Composer;
pub use inventory::Inventory;
pub use request::{ComposedSystem, CompositionRequest};
pub use strategy::Strategy;
