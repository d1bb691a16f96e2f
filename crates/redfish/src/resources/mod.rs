//! Redfish / Swordfish resource schema types.
//!
//! Each submodule models one schema family. All types serialize to the wire
//! shape mandated by the DMTF/SNIA schemas (PascalCase members, `@odata.*`
//! annotations) and can be inserted into the [`crate::registry::Registry`]
//! via [`Resource::to_value`].

pub mod chassis;
pub mod events;
pub mod fabric;
pub mod log;
pub mod memory;
pub mod processor;
pub mod service_root;
pub mod session;
pub mod storage;
pub mod system;
pub mod telemetry;

use crate::odata::ODataId;
use serde::Serialize;
use serde_json::Value;

/// Implemented by every schema struct in this module tree.
pub trait Resource: Serialize {
    /// The `@odata.type` string of this schema version.
    const ODATA_TYPE: &'static str;

    /// The canonical URI of this instance.
    fn odata_id(&self) -> &ODataId;

    /// Serialize to the registry/wire JSON document.
    fn to_value(&self) -> Value {
        // ofmf-lint: allow(no-panic-path, "the vendored serde_json::to_value wraps to_json and is Ok-infallible")
        serde_json::to_value(self).expect("schema types always serialize")
    }
}

pub use chassis::Chassis;
pub use events::{Event, EventDestination, EventRecord, EventType};
pub use fabric::{AddressPool, Connection, Endpoint, Fabric, Port, Switch, Zone};
pub use log::LogEntry;
pub use memory::{Memory, MemoryChunk, MemoryDomain};
pub use processor::Processor;
pub use service_root::ServiceRoot;
pub use session::Session;
pub use storage::{Capacity, Drive, StoragePool, StorageService, Volume};
pub use system::ComputerSystem;
pub use telemetry::{MetricReport, MetricValue};
