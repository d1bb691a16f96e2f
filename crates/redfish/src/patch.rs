//! RFC 7386 JSON merge-patch.
//!
//! Redfish `PATCH` semantics are merge semantics: objects merge recursively,
//! `null` deletes a member, and any non-object value (including arrays)
//! replaces the target wholesale.

use serde_json::{Map, Value};

/// Apply `patch` to `target` in place, per RFC 7386.
pub fn merge_patch(target: &mut Value, patch: &Value) {
    match patch {
        Value::Object(patch_map) => {
            if !target.is_object() {
                *target = Value::Object(Map::new());
            }
            let Some(target_map) = target.as_object_mut() else {
                return; // unreachable: target was just coerced to an object
            };
            for (k, v) in patch_map {
                if v.is_null() {
                    target_map.remove(k);
                } else {
                    merge_patch(target_map.entry(k.clone()).or_insert(Value::Null), v);
                }
            }
        }
        other => {
            *target = other.clone();
        }
    }
}

/// Members that the Redfish specification forbids clients from patching.
pub const READ_ONLY_MEMBERS: [&str; 7] = [
    "@odata.id",
    "@odata.type",
    "@odata.etag",
    "Id",
    "Members",
    "Members@odata.count",
    "Members@odata.nextLink",
];

/// Return the first read-only member a patch attempts to touch, if any.
///
/// The registry uses this to reject PATCHes that touch read-only members
/// (`@odata.id`, `Id`, …) before applying anything.
pub fn first_read_only_violation(patch: &Value) -> Option<&str> {
    let mut touched = patch.as_object()?.keys().map(String::as_str);
    touched.find(|m| READ_ONLY_MEMBERS.contains(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn merges_nested_objects() {
        let mut t = json!({"a": {"b": 1, "c": 2}, "d": 3});
        merge_patch(&mut t, &json!({"a": {"b": 9}}));
        assert_eq!(t, json!({"a": {"b": 9, "c": 2}, "d": 3}));
    }

    #[test]
    fn null_deletes_member() {
        let mut t = json!({"a": 1, "b": 2});
        merge_patch(&mut t, &json!({"a": null}));
        assert_eq!(t, json!({"b": 2}));
    }

    #[test]
    fn arrays_replace_wholesale() {
        let mut t = json!({"a": [1, 2, 3]});
        merge_patch(&mut t, &json!({"a": [9]}));
        assert_eq!(t, json!({"a": [9]}));
    }

    #[test]
    fn scalar_replaces_object() {
        let mut t = json!({"a": {"deep": true}});
        merge_patch(&mut t, &json!({"a": 5}));
        assert_eq!(t, json!({"a": 5}));
    }

    #[test]
    fn patch_onto_non_object_coerces() {
        let mut t = json!(42);
        merge_patch(&mut t, &json!({"a": 1}));
        assert_eq!(t, json!({"a": 1}));
    }

    #[test]
    fn detects_read_only_violation() {
        assert_eq!(first_read_only_violation(&json!({"Id": "x"})), Some("Id"));
        assert_eq!(first_read_only_violation(&json!({"Name": "x"})), None);
        assert_eq!(
            first_read_only_violation(&json!({"@odata.etag": "y", "Name": "x"})),
            Some("@odata.etag")
        );
        // A collection's size and paging link are the registry's to state.
        for annotation in ["Members@odata.count", "Members@odata.nextLink"] {
            assert_eq!(first_read_only_violation(&json!({annotation: 7})), Some(annotation));
        }
    }

    #[test]
    fn empty_patch_is_identity() {
        let orig = json!({"a": {"b": [1,2]}, "c": null});
        let mut t = orig.clone();
        merge_patch(&mut t, &json!({}));
        assert_eq!(t, orig);
    }
}
