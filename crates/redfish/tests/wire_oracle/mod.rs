//! Test-side reference for the registry's byte writers.
//!
//! `Registry::wire_bytes` and `Registry::expand` write response bytes
//! straight from the stored documents. What those bytes must be is stated
//! with `Value`s: `StoredResource::wire_body()` for one resource, and for
//! `$expand` the expansion below — the `Value`-building code `expand` used
//! to be, kept here as its oracle. Shared by path with the REST tests and
//! the root package's tier-1 slice.

#![allow(dead_code)] // each includer uses its half

use redfish_model::odata::ODataId;
use redfish_model::Registry;
use serde_json::Value;

/// The collection's wire body with each listed member that exists inlined
/// as its wire body; any other resource's wire body unchanged. (A collection
/// whose body is not an object — only a journal can install one — is left
/// as it is too: indexing it with `"Members"` is where the old `expand`
/// panicked.)
pub fn expansion(reg: &Registry, id: &ODataId) -> Value {
    let node = reg.get(id).expect("resource exists");
    let mut body = node.wire_body();
    if !node.is_collection || !body.is_object() {
        return body;
    }
    let mut expanded = Vec::new();
    if let Some(members) = node.body["Members"].as_array() {
        for m in members {
            if let Some(child) = m["@odata.id"].as_str().and_then(|mid| reg.get(&ODataId::new(mid)).ok()) {
                expanded.push(child.wire_body());
            }
        }
    }
    body["Members"] = Value::Array(expanded);
    body
}

/// Check every resource of `reg` against the oracle — GET bytes on a cache
/// miss and again on the hit, and the `$expand` bytes — and return how many
/// were checked.
pub fn assert_wire_identity(reg: &Registry) -> usize {
    let mut ids = Vec::new();
    reg.for_each(|id, _| ids.push(id.clone()));
    for id in &ids {
        let stored = reg.get(id).expect("resource exists");
        let want = serde_json::to_vec(&stored.wire_body()).expect("printable");
        for pass in ["miss", "hit"] {
            let (bytes, etag) = reg.wire_bytes(id).expect("resource exists");
            assert_eq!(etag, stored.etag, "{id}");
            assert_eq!(
                String::from_utf8_lossy(&bytes),
                String::from_utf8_lossy(&want),
                "wire bytes of {id} ({pass})"
            );
        }
        let want = serde_json::to_vec(&expansion(reg, id)).expect("printable");
        let got = reg.expand(id).expect("resource exists");
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "expansion of {id}"
        );
    }
    ids.len()
}
