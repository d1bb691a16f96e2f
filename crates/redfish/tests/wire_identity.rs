//! Byte identity of the registry's wire writers against their `Value`
//! oracle (`wire_oracle`), on documents built to hit every branch of the
//! writer: a stored `@odata.etag` in the middle of a body, at its end, or
//! absent; keys and values that need escaping; the numeric edges; empty
//! containers; bodies that are not objects; collections large, empty,
//! without a `Members` array, or listing members that are not there.

mod wire_oracle;

use ofmf_wal::WalRecord;
use redfish_model::odata::ODataId;
use redfish_model::Registry;
use serde_json::{json, Value};

/// Put `body` at `id` verbatim, as a snapshot install does.
fn install(reg: &Registry, id: &ODataId, body: Value, etag: u64, is_collection: bool) {
    assert!(reg.apply_record(WalRecord::InstallResource {
        id: id.as_str().to_string(),
        body,
        etag,
        is_collection,
    }));
}

fn hand_built() -> Registry {
    let reg = Registry::new();
    let root = ODataId::new("/redfish/v1");
    reg.create(&root, json!({"Name": "root"})).unwrap();
    let things = root.child("Things");
    reg.create_collection(&things, "#ThingCollection.ThingCollection", "Things")
        .unwrap();

    // A client-supplied `@odata.etag` is stored where the client put it
    // and answered with the current one in the same place.
    reg.create(
        &things.child("etag-mid"),
        json!({"Name": "mid", "@odata.etag": "W/\"stale\"", "Tail": [1, 2]}),
    )
    .unwrap();
    reg.create(&things.child("etag-last"), json!({"Name": "last", "@odata.etag": 7}))
        .unwrap();
    reg.create(
        &things.child("escapes"),
        json!({
            "quote\"back\\slash/": "tab\there\nnewline\rreturn",
            "control": "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
            "non-ascii-\u{e9}\u{20ac}\u{1F600}": "\u{e9}\u{20ac}\u{10400}\u{1F600}",
            "": "",
        }),
    )
    .unwrap();
    reg.create(
        &things.child("numbers"),
        json!({
            "U64Max": u64::MAX, "I64Min": i64::MIN, "Zero": 0, "MinusOne": -1,
            "Half": 0.5, "Two": 2.0, "NegZero": -0.0, "Big": 1e300, "Tiny": 5e-324, "E15": 1e15,
        }),
    )
    .unwrap();
    reg.create(
        &things.child("empties"),
        json!({"Obj": {}, "Arr": [], "Null": null, "Nested": {"a": [{}, [], [[]]]}, "Flags": [true, false]}),
    )
    .unwrap();
    // A patched resource is written again with last time's size as the hint.
    reg.patch(&things.child("numbers"), &json!({"Zero": 10}), None).unwrap();

    // Bodies a journal can install that no request can create.
    let odd = root.child("Odd");
    reg.create_collection(&odd, "#OddCollection.OddCollection", "Odd")
        .unwrap();
    install(&reg, &odd.child("empty-object"), json!({}), 900, false);
    install(&reg, &odd.child("array"), json!([1, "two", {"three": 3}]), 901, false);
    install(&reg, &odd.child("null"), Value::Null, 902, false);
    install(&reg, &odd.child("string"), json!("just text"), 903, false);
    install(
        &reg,
        &odd.child("no-members"),
        json!({"Name": "collection without the array"}),
        904,
        true,
    );
    install(
        &reg,
        &odd.child("members-not-array"),
        json!({"Members": "soon", "Name": "x"}),
        905,
        true,
    );
    install(&reg, &odd.child("array-collection"), json!([1, 2]), 906, true);
    install(
        &reg,
        &odd.child("odd-members"),
        json!({
            "@odata.etag": "W/\"old\"",
            "Members": [
                {"@odata.id": "/redfish/v1/Things/escapes"},
                {"@odata.id": "/redfish/v1/Things/gone"},
                {"@odata.id": 5},
                "not a link",
                {"@odata.id": "/redfish/v1/Odd/array"},
                {"@odata.id": "/redfish/v1/Things"},
            ],
            "After": "members",
        }),
        907,
        true,
    );

    // The size `tree_churn` keeps its chassis collection at.
    let chassis = root.child("Chassis");
    reg.create_collection(&chassis, "#ChassisCollection.ChassisCollection", "Chassis")
        .unwrap();
    for i in 0..2000 {
        reg.create(
            &chassis.child(&format!("churn-{i:05}")),
            json!({"Name": format!("chassis {i}"), "AssetTag": format!("tag-{i}"), "Status": {"State": "Enabled", "Health": "OK"}}),
        )
        .unwrap();
    }
    reg
}

#[test]
fn hand_built_documents_are_written_as_their_wire_body_prints() {
    let reg = hand_built();
    let checked = wire_oracle::assert_wire_identity(&reg);
    assert!(checked > 2015, "{checked}");

    // Pin two of them, so oracle and writer cannot drift together.
    let (bytes, _) = reg.wire_bytes(&ODataId::new("/redfish/v1/Things/etag-mid")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        r#"{"Name":"mid","@odata.etag":"W/\"3\"","Tail":[1,2],"@odata.id":"/redfish/v1/Things/etag-mid"}"#
    );
    let expanded = reg.expand(&ODataId::new("/redfish/v1/Odd/no-members")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&expanded),
        r#"{"Name":"collection without the array","@odata.etag":"W/\"904\"","Members":[]}"#
    );

    // Every mutation kind leaves bytes the oracle agrees with.
    let things = ODataId::new("/redfish/v1/Things");
    reg.delete(&things.child("empties")).unwrap();
    reg.replace(&things.child("etag-last"), json!({"Name": "replaced"}))
        .unwrap();
    reg.delete_subtree(&ODataId::new("/redfish/v1/Chassis/churn-00007"));
    wire_oracle::assert_wire_identity(&reg);
}
