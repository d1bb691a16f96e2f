//! Byte identity of the registry's wire writers against their `Value`
//! oracle (`wire_oracle`), on documents built to hit every branch of the
//! writer: a stored `@odata.etag` in the middle of a body, at its end, or
//! absent; keys and values that need escaping; the numeric edges; empty
//! containers; bodies that are not objects; collections large, empty, or
//! installed with a `Members` array of their own — dropped, since a
//! collection's members are its children in the tree — that lists members
//! which are not there.

mod wire_oracle;

use ofmf_wal::WalRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redfish_model::odata::ODataId;
use redfish_model::query::QueryOptions;
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
        r#"{"Name":"collection without the array","Members":[],"Members@odata.count":0,"@odata.etag":"W/\"904\""}"#
    );

    // Every mutation kind leaves bytes the oracle agrees with.
    let things = ODataId::new("/redfish/v1/Things");
    reg.delete(&things.child("empties")).unwrap();
    reg.replace(&things.child("etag-last"), json!({"Name": "replaced"}))
        .unwrap();
    reg.delete_subtree(&ODataId::new("/redfish/v1/Chassis/churn-00007"));
    wire_oracle::assert_wire_identity(&reg);
}

/// Leaves that sort next to one another and to `{leaf}/…` (`-`, `.` and `0`
/// straddle `/`), so a member's subtree lies between siblings in id order.
const LEAVES: [&str; 6] = ["a", "a-x", "a.y", "a0", "ab", "b"];

/// A random mix of the four query options, `$select` naming members the
/// documents have, the membership annotations among them.
fn random_query(rng: &mut StdRng) -> QueryOptions {
    let names = [
        "Name",
        "Tag",
        "Members",
        "Members@odata.count",
        "Members@odata.nextLink",
        "@odata.id",
    ];
    QueryOptions {
        expand: rng.gen_bool(0.3),
        select: rng.gen_bool(0.4).then(|| {
            names
                .iter()
                .filter(|_| rng.gen_bool(0.4))
                .map(|n| n.to_string())
                .collect()
        }),
        top: rng.gen_bool(0.5).then(|| rng.gen_range(0..5usize)),
        skip: rng.gen_bool(0.5).then(|| rng.gen_range(0..6usize)),
    }
}

/// What the one writer must hold to after any step: a collection's members
/// are its direct children in id order; a query GET is the bytes
/// `QueryOptions::apply` prints of `get()`'s wire body, with the members'
/// wire bodies in place under `$expand`; and every resource's `wire_bytes`
/// are what its `wire_body()` prints.
fn assert_one_writer(reg: &Registry, rng: &mut StdRng) {
    let mut ids = Vec::new();
    let mut collections = Vec::new();
    reg.for_each(|id, stored| {
        ids.push(id.clone());
        if stored.is_collection {
            collections.push(id.clone());
        }
    });
    for col in &collections {
        let children: Vec<ODataId> = ids
            .iter()
            .filter(|i| i.parent().as_ref() == Some(col))
            .cloned()
            .collect();
        assert_eq!(reg.members(col).unwrap(), children, "members of {col}");
    }
    for id in &ids {
        for _ in 0..4 {
            let q = random_query(rng);
            let (bytes, etag) = reg.query(id, &q).unwrap();
            let stored = reg.get(id).unwrap();
            assert_eq!(etag, stored.etag, "{id}");
            let doc = if q.expand {
                wire_oracle::expansion(reg, id)
            } else {
                stored.wire_body()
            };
            assert_eq!(
                String::from_utf8_lossy(&bytes),
                serde_json::to_string(&q.apply(doc)).unwrap(),
                "{id} under {q:?}"
            );
        }
    }
    wire_oracle::assert_wire_identity(reg);
}

/// Seeded create, delete, delete_subtree, replace and install sequences
/// over a collection whose members have subtrees — a collection of their
/// own among them, and one large enough that the member walk seeks past
/// it — with the one writer checked against its oracle after every step. Replaces and installs bring `Members` arrays of their own,
/// stale links included, which a collection must not serve.
#[test]
fn one_writer_answers_as_its_oracle_through_seeded_mutations() {
    for seed in 1..=4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let reg = Registry::new();
        let root = ODataId::new("/redfish/v1");
        reg.create(&root, json!({"Name": "root"})).unwrap();
        let things = root.child("Things");
        reg.create_collection(&things, "#ThingCollection.ThingCollection", "Things")
            .unwrap();
        // A member whose subtree is large enough for the walk to seek past,
        // between siblings the steps never touch.
        for leaf in ["c", "c-1", "c0"] {
            reg.create(&things.child(leaf), json!({"Name": leaf})).unwrap();
        }
        let bulk = things.child("c").child("Parts");
        reg.create_collection(&bulk, "#PartCollection.PartCollection", "Parts")
            .unwrap();
        for i in 0..20 {
            reg.create(&bulk.child(&format!("p{i:02}")), json!({"Name": i}))
                .unwrap();
        }
        let stale = json!([{"@odata.id": "/redfish/v1/Things/ghost"}, {"@odata.id": "/redfish/v1/Things/a"}]);
        for step in 0..120u64 {
            let member = things.child(LEAVES[rng.gen_range(0..LEAVES.len())]);
            let parts = member.child("Parts");
            let part = parts.child(LEAVES[rng.gen_range(0..LEAVES.len())]);
            match rng.gen_range(0..6u32) {
                0 => {
                    let _ = reg.create(&member, json!({"Name": member.leaf(), "Tag": step}));
                }
                1 => {
                    let _ = reg.create_collection(&parts, "#PartCollection.PartCollection", "Parts");
                    let _ = reg.create(&part, json!({"Name": part.leaf(), "Tag": step}));
                }
                2 => {
                    let _ = reg.delete(if rng.gen_bool(0.5) { &member } else { &part });
                }
                3 => {
                    reg.delete_subtree(if rng.gen_bool(0.5) { &member } else { &parts });
                }
                4 => {
                    let _ = reg.replace(&member, json!({"Name": format!("replaced {step}"), "Tag": step}));
                    let collection = if rng.gen_bool(0.5) { &things } else { &parts };
                    let _ = reg.replace(
                        collection,
                        json!({"Name": format!("replaced {step}"), "Members": stale.clone(), "Members@odata.count": 2}),
                    );
                }
                _ => {
                    let (id, is_collection) = match rng.gen_range(0..3u32) {
                        0 => (&member, false),
                        1 => (&parts, true),
                        _ => (&part, false),
                    };
                    let body = if is_collection {
                        json!({"Name": "installed", "Members": stale.clone(), "Members@odata.count": 2, "Members@odata.nextLink": "x"})
                    } else {
                        json!({"Name": "installed", "Tag": step})
                    };
                    assert!(reg.apply_record(WalRecord::InstallResource {
                        id: id.as_str().to_string(),
                        body,
                        etag: reg.etag_seq(),
                        is_collection,
                    }));
                }
            }
            assert_one_writer(&reg, &mut rng);
        }
    }
}
