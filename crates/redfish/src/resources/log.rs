//! Log resources: `LogEntry` records under a `LogService`.
//!
//! The OFMF keeps "a subscription-based central repository for telemetry
//! information, provisioning, and event logs" — the event-log half serves
//! the event service's log of published events as `LogEntry` resources
//! under `/redfish/v1/Managers/OFMF/LogServices/EventLog/Entries`,
//! rendered per GET rather than stored in the tree.

use crate::odata::{Link, ODataId, ResourceHeader};
use crate::resources::Resource;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One event-log record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogEntry {
    /// Common resource members.
    #[serde(flatten)]
    pub header: ResourceHeader,
    /// Entry class per the Redfish schema.
    #[serde(rename = "EntryType")]
    pub entry_type: String,
    /// Severity: OK / Warning / Critical.
    #[serde(rename = "Severity")]
    pub severity: String,
    /// Human readable message.
    #[serde(rename = "Message")]
    pub message: String,
    /// Registry message id.
    #[serde(rename = "MessageId")]
    pub message_id: String,
    /// Milliseconds (service clock) of the underlying event.
    #[serde(rename = "Created")]
    pub created_ms: u64,
    /// The resource the event was about.
    #[serde(rename = "Links")]
    pub links: LogEntryLinks,
    /// Service-specific members (`{"OFMF": …}`), when there are any.
    #[serde(rename = "Oem", default, skip_serializing_if = "Option::is_none")]
    pub oem: Option<Value>,
}

/// Link section of a log entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogEntryLinks {
    /// Origin of the logged condition.
    #[serde(rename = "OriginOfCondition")]
    pub origin_of_condition: Link,
}

impl LogEntry {
    /// Build an event-class entry.
    pub fn event(
        collection: &ODataId,
        id: &str,
        severity: &str,
        message: &str,
        message_id: &str,
        origin: &ODataId,
        created_ms: u64,
    ) -> Self {
        LogEntry {
            header: ResourceHeader::under(collection, id, Self::ODATA_TYPE, "Event Log Entry"),
            entry_type: "Event".to_string(),
            severity: severity.to_string(),
            message: message.to_string(),
            message_id: message_id.to_string(),
            created_ms,
            links: LogEntryLinks {
                origin_of_condition: Link::to(origin.clone()),
            },
            oem: None,
        }
    }
}

impl Resource for LogEntry {
    const ODATA_TYPE: &'static str = "#LogEntry.v1_15_0.LogEntry";

    fn odata_id(&self) -> &ODataId {
        &self.header.odata_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_wire_shape() {
        let col = ODataId::new("/redfish/v1/Managers/OFMF/LogServices/EventLog/Entries");
        let e = LogEntry::event(
            &col,
            "17",
            "Critical",
            "switch sw0 failed",
            "Platform.1.0.UnhandledExceptionDetected",
            &ODataId::new("/redfish/v1/Fabrics/CXL0/Switches/sw0"),
            4242,
        );
        let v = e.to_value();
        assert_eq!(v["EntryType"], "Event");
        assert_eq!(v["Severity"], "Critical");
        assert_eq!(v["Created"], 4242);
        assert_eq!(
            v["Links"]["OriginOfCondition"]["@odata.id"],
            "/redfish/v1/Fabrics/CXL0/Switches/sw0"
        );
    }
}
