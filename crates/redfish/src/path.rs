//! Redfish URI path helpers.
//!
//! The OFMF mounts every fabric and resource under a single tree rooted at
//! `/redfish/v1`. These helpers build and inspect those canonical paths.

use crate::odata::ODataId;

/// The service root URI.
pub const SERVICE_ROOT: &str = "/redfish/v1";

/// Well-known top-level collections under the service root.
pub mod top {
    /// Computer systems (physical and composed).
    pub const SYSTEMS: &str = "/redfish/v1/Systems";
    /// Physical enclosures.
    pub const CHASSIS: &str = "/redfish/v1/Chassis";
    /// Fabrics (one per managed interconnect).
    pub const FABRICS: &str = "/redfish/v1/Fabrics";
    /// Swordfish storage services.
    pub const STORAGE_SERVICES: &str = "/redfish/v1/StorageServices";
    /// Event service singleton.
    pub const EVENT_SERVICE: &str = "/redfish/v1/EventService";
    /// Event subscriptions collection.
    pub const SUBSCRIPTIONS: &str = "/redfish/v1/EventService/Subscriptions";
    /// Task service singleton.
    pub const TASK_SERVICE: &str = "/redfish/v1/TaskService";
    /// Task collection.
    pub const TASKS: &str = "/redfish/v1/TaskService/Tasks";
    /// Session service singleton.
    pub const SESSION_SERVICE: &str = "/redfish/v1/SessionService";
    /// Sessions collection.
    pub const SESSIONS: &str = "/redfish/v1/SessionService/Sessions";
    /// Telemetry service singleton.
    pub const TELEMETRY_SERVICE: &str = "/redfish/v1/TelemetryService";
    /// Metric reports collection.
    pub const METRIC_REPORTS: &str = "/redfish/v1/TelemetryService/MetricReports";
    /// Composition service singleton.
    pub const COMPOSITION_SERVICE: &str = "/redfish/v1/CompositionService";
    /// Resource blocks available for composition.
    pub const RESOURCE_BLOCKS: &str = "/redfish/v1/CompositionService/ResourceBlocks";
    /// Managers collection (the OFMF itself is a manager).
    pub const MANAGERS: &str = "/redfish/v1/Managers";
    /// The OFMF manager singleton.
    pub const OFMF_MANAGER: &str = "/redfish/v1/Managers/OFMF";
    /// The OFMF event log entries collection.
    pub const EVENT_LOG_ENTRIES: &str = "/redfish/v1/Managers/OFMF/LogServices/EventLog/Entries";
    /// Live observability metric reports of the OFMF manager.
    pub const OBS_METRIC_REPORTS: &str = "/redfish/v1/Managers/OFMF/MetricReports";
    /// Observability log entries (the in-process event ring).
    pub const OBS_LOG_ENTRIES: &str = "/redfish/v1/Managers/OFMF/LogServices/Observability/Entries";
    /// Flight-recorder trace entries (retained span trees).
    pub const OBS_TRACE_ENTRIES: &str = "/redfish/v1/Managers/OFMF/LogServices/Tracing/Entries";
    /// The `CompositionService.Compose` action target.
    pub const COMPOSE_ACTION: &str = "/redfish/v1/CompositionService/Actions/CompositionService.Compose";
}

/// Split a path into its segments, ignoring empty segments.
pub fn segments(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

/// True if `path` is the service root or below it.
pub fn in_service_tree(path: &str) -> bool {
    ODataId::new(path).is_under(&ODataId::new(SERVICE_ROOT))
}

/// Derive the fabric id from any path under `/redfish/v1/Fabrics/{id}/...`.
pub fn fabric_id_of(path: &str) -> Option<&str> {
    let segs = segments(path);
    match segs.as_slice() {
        ["redfish", "v1", "Fabrics", id, ..] => Some(id),
        _ => None,
    }
}

/// The first path segment below the service root (`Systems`, `Fabrics`,
/// …): the key the registry stripes on and the event index routes on, so a
/// resource and all of its descendants share one key. Root documents
/// (`/redfish/v1`, `/redfish`, `/`) key to the empty string; paths outside
/// the service tree key by their first segment.
pub fn top_segment(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("/redfish/v1/") {
        rest.split('/').next().unwrap_or("")
    } else if path == "/redfish/v1" || path == "/redfish" || path == "/" {
        ""
    } else {
        path.trim_start_matches('/').split('/').next().unwrap_or("")
    }
}

/// 64-bit FNV-1a — the one stripe/seed hash of the workspace,
/// deterministic across runs and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Validate a client-supplied member id: non-empty, ASCII alphanumerics plus
/// `-`, `_`, `.`; never contains a path separator. Returns `false` for ids
/// that could escape their collection.
pub fn valid_member_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 128
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && id != "."
        && id != ".."
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_skip_empties() {
        assert_eq!(segments("/redfish/v1//Systems/"), vec!["redfish", "v1", "Systems"]);
        assert!(segments("/").is_empty());
    }

    #[test]
    fn fabric_extraction() {
        assert_eq!(fabric_id_of("/redfish/v1/Fabrics/CXL0/Switches/sw1"), Some("CXL0"));
        assert_eq!(fabric_id_of("/redfish/v1/Systems/cn01"), None);
    }

    #[test]
    fn top_segment_groups_subtrees() {
        assert_eq!(top_segment("/redfish/v1/Systems"), "Systems");
        assert_eq!(top_segment("/redfish/v1/Systems/cn01/Processors/p0"), "Systems");
        assert_eq!(top_segment("/redfish/v1/Fabrics/CXL0/Endpoints/ep0"), "Fabrics");
        assert_eq!(top_segment("/redfish/v1"), "");
        assert_eq!(top_segment("/redfish"), "");
        assert_eq!(top_segment("/"), "");
        assert_eq!(top_segment("/x/y"), "x");
        assert_eq!(top_segment("/x"), "x");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn member_id_validation() {
        assert!(valid_member_id("cn-01.rack2"));
        assert!(!valid_member_id(""));
        assert!(!valid_member_id("a/b"));
        assert!(!valid_member_id(".."));
        assert!(!valid_member_id("спутник"));
    }

    #[test]
    fn service_tree_membership() {
        assert!(in_service_tree("/redfish/v1"));
        assert!(in_service_tree("/redfish/v1/Systems/x"));
        assert!(!in_service_tree("/redfish/v2/Systems"));
        assert!(!in_service_tree("/favicon.ico"));
    }
}
