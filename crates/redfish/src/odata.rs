//! OData envelope types shared by every Redfish resource.
//!
//! Redfish payloads are JSON documents annotated with OData control
//! information: `@odata.id` (the canonical URI of the resource),
//! `@odata.type` (the schema type, e.g. `#ComputerSystem.v1_20_0.ComputerSystem`)
//! and `@odata.etag` (opaque version tag used for optimistic concurrency).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Canonical URI identifying a resource within the Redfish tree, e.g.
/// `/redfish/v1/Systems/cn01`.
///
/// `ODataId` is a thin newtype over `String` that normalizes trailing
/// slashes away so that `/redfish/v1/Systems/` and `/redfish/v1/Systems`
/// compare equal, as required by the Redfish specification.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ODataId(String);

/// By hand so that `clone_from` reuses the target's buffer.
impl Clone for ODataId {
    fn clone(&self) -> Self {
        ODataId(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl ODataId {
    /// Create a new id, normalizing any trailing slash.
    pub fn new(raw: impl Into<String>) -> Self {
        let mut s: String = raw.into();
        while s.len() > 1 && s.ends_with('/') {
            s.pop();
        }
        ODataId(s)
    }

    /// The string form of the id.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Append a child segment, e.g. `/redfish/v1/Systems` + `cn01`.
    pub fn child(&self, segment: &str) -> ODataId {
        ODataId::new(format!("{}/{}", self.0, segment))
    }

    /// The parent id, if any (`/redfish/v1` has parent `/redfish`).
    pub fn parent(&self) -> Option<ODataId> {
        let idx = self.0.rfind('/')?;
        if idx == 0 {
            if self.0.len() > 1 {
                return Some(ODataId::new("/"));
            }
            return None;
        }
        // ofmf-lint: allow(no-panic-path, "idx is the byte offset of a '/' found in this string; slicing at it is valid")
        Some(ODataId::new(&self.0[..idx]))
    }

    /// The final path segment (the resource's `Id` member by convention).
    pub fn leaf(&self) -> &str {
        self.0.rsplit('/').next().unwrap_or("")
    }

    /// True if `self` is `other` or a descendant of `other`.
    pub fn is_under(&self, other: &ODataId) -> bool {
        self == other || (self.0.starts_with(other.as_str()) && self.0.as_bytes().get(other.0.len()) == Some(&b'/'))
    }

    /// Crate-internal: wrap a raw string *without* normalization. Used by
    /// the registry to build exclusive range bounds (`{path}/`, `{path}0`)
    /// that normalization would destroy.
    pub(crate) fn raw(s: String) -> ODataId {
        ODataId(s)
    }
}

impl fmt::Display for ODataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ODataId {
    fn from(s: &str) -> Self {
        ODataId::new(s)
    }
}

impl From<String> for ODataId {
    fn from(s: String) -> Self {
        ODataId::new(s)
    }
}

/// Opaque entity tag for optimistic concurrency control.
///
/// The registry bumps a monotonically increasing version on every mutation;
/// the wire form is the Redfish weak-validator style `W/"<n>"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ETag(pub u64);

impl ETag {
    /// Initial tag for a freshly created resource.
    pub const INITIAL: ETag = ETag(1);

    /// The next tag after a mutation.
    #[must_use]
    pub fn bumped(self) -> ETag {
        ETag(self.0 + 1)
    }

    /// Wire form, e.g. `W/"7"`.
    pub fn to_header(self) -> String {
        format!("W/\"{}\"", self.0)
    }

    /// Parse the wire form produced by [`ETag::to_header`]. Also accepts a
    /// bare strong validator `"7"`.
    pub fn parse_header(s: &str) -> Option<ETag> {
        let s = s.trim();
        let s = s.strip_prefix("W/").unwrap_or(s);
        let s = s.strip_prefix('"')?.strip_suffix('"')?;
        s.parse().ok().map(ETag)
    }
}

/// The members common to every Redfish resource: identity, schema type,
/// human name and optional description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceHeader {
    /// Canonical URI (`@odata.id`).
    #[serde(rename = "@odata.id")]
    pub odata_id: ODataId,
    /// Schema type (`@odata.type`), e.g. `#Fabric.v1_3_0.Fabric`.
    #[serde(rename = "@odata.type")]
    pub odata_type: String,
    /// Resource identifier within its collection.
    #[serde(rename = "Id")]
    pub id: String,
    /// Human readable name.
    #[serde(rename = "Name")]
    pub name: String,
    /// Optional free-form description.
    #[serde(rename = "Description", skip_serializing_if = "Option::is_none")]
    pub description: Option<String>,
}

impl ResourceHeader {
    /// Build a header for a resource living under `collection`.
    pub fn under(collection: &ODataId, id: &str, odata_type: &str, name: &str) -> Self {
        ResourceHeader {
            odata_id: collection.child(id),
            odata_type: odata_type.to_string(),
            id: id.to_string(),
            name: name.to_string(),
            description: None,
        }
    }

    /// Attach a description (builder style).
    #[must_use]
    pub fn describe(mut self, d: impl Into<String>) -> Self {
        self.description = Some(d.into());
        self
    }
}

/// A reference to another resource, serialized as `{"@odata.id": "..."}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// The target resource URI.
    #[serde(rename = "@odata.id")]
    pub odata_id: ODataId,
}

impl Link {
    /// Reference the given id.
    pub fn to(id: impl Into<ODataId>) -> Self {
        Link { odata_id: id.into() }
    }
}

impl From<&ODataId> for Link {
    fn from(id: &ODataId) -> Self {
        Link { odata_id: id.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odata_id_normalizes_trailing_slash() {
        assert_eq!(ODataId::new("/redfish/v1/"), ODataId::new("/redfish/v1"));
        assert_eq!(ODataId::new("/").as_str(), "/");
    }

    #[test]
    fn odata_id_child_and_parent_roundtrip() {
        let base = ODataId::new("/redfish/v1/Systems");
        let child = base.child("cn01");
        assert_eq!(child.as_str(), "/redfish/v1/Systems/cn01");
        assert_eq!(child.parent().unwrap(), base);
        assert_eq!(child.leaf(), "cn01");
    }

    #[test]
    fn odata_id_is_under_requires_segment_boundary() {
        let a = ODataId::new("/redfish/v1/Systems");
        let b = ODataId::new("/redfish/v1/Systems/cn01");
        let c = ODataId::new("/redfish/v1/SystemsExtra");
        assert!(b.is_under(&a));
        assert!(a.is_under(&a));
        assert!(!c.is_under(&a));
        assert!(!a.is_under(&b));
    }

    #[test]
    fn etag_header_roundtrip() {
        let t = ETag(42);
        assert_eq!(ETag::parse_header(&t.to_header()), Some(t));
        assert_eq!(ETag::parse_header("\"7\""), Some(ETag(7)));
        assert_eq!(ETag::parse_header("garbage"), None);
    }

    #[test]
    fn header_serializes_odata_members() {
        let h = ResourceHeader::under(
            &ODataId::new("/redfish/v1/Fabrics"),
            "CXL0",
            "#Fabric.v1_3_0.Fabric",
            "CXL fabric 0",
        );
        let v = serde_json::to_value(&h).unwrap();
        assert_eq!(v["@odata.id"], "/redfish/v1/Fabrics/CXL0");
        assert_eq!(v["@odata.type"], "#Fabric.v1_3_0.Fabric");
        assert_eq!(v["Id"], "CXL0");
    }

    #[test]
    fn parent_of_root() {
        assert_eq!(ODataId::new("/redfish").parent(), Some(ODataId::new("/")));
        assert_eq!(ODataId::new("/").parent(), None);
    }
}
