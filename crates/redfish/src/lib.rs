//! # redfish-model
//!
//! Strongly-typed DMTF Redfish / SNIA Swordfish data model plus an in-memory,
//! path-keyed **resource registry** (the "Redfish tree") used by the
//! OpenFabrics Management Framework (OFMF).
//!
//! The OFMF paper describes a centralized management layer whose transactions
//! are "stateless and lightweight, consisting of JSON data carried on
//! OData". This crate provides exactly that substrate:
//!
//! * [`odata`] — OData id/type/etag envelope shared by every resource.
//! * [`status`] — the ubiquitous Redfish `Status` object (`Health`, `State`).
//! * [`enums`] — cross-resource enumerations (protocols, power states, …).
//! * [`resources`] — resource schema structs: `ServiceRoot`, `Chassis`,
//!   `ComputerSystem`, `Processor`, `Memory`/`MemoryDomain`/`MemoryChunks`,
//!   Swordfish storage (`StorageService`, `StoragePool`, `Volume`, `Drive`),
//!   fabric objects (`Fabric`, `Switch`, `Port`, `Endpoint`, `Zone`,
//!   `Connection`, `AddressPool`), eventing, sessions, telemetry.
//! * [`registry`] — the concurrent resource tree: create / read / merge-PATCH
//!   / delete with ETag versioning, Redfish collection semantics and link
//!   integrity checks.
//! * [`patch`] — RFC 7386 JSON merge-patch used for `PATCH` semantics.
//! * [`path`] — Redfish URI path manipulation helpers.
//! * [`query`] — OData query options (`$expand`, `$select`, `$top`,
//!   `$skip`), which the registry writes a GET's answer under.
//! * [`error`] — error type carrying the HTTP status and a Redfish
//!   `ExtendedInfo`-style message payload.
//!
//! Every resource struct serializes to the wire format with `@odata.id`,
//! `@odata.type` and `Id`/`Name` members, so a registry populated from these
//! types is directly servable over the REST layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enums;
pub mod error;
pub mod odata;
pub mod patch;
pub mod path;
pub mod query;
pub mod registry;
pub mod replay;
pub mod resources;
pub mod status;

pub use error::{RedfishError, RedfishResult};
pub use odata::{ETag, ODataId, ResourceHeader};
pub use registry::{Registry, StoredResource};
pub use status::{Health, State, Status};
