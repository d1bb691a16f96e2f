//! The event log over Redfish: the event service's in-memory ring, recorded
//! on publish and rendered per GET. No subscription feeds it, so there is
//! nothing a client can list or delete that would stop it, and a burst with
//! no poll behind it loses nothing.

use ofmf_core::events::EVENT_LOG_CAP;
use ofmf_core::Ofmf;
use ofmf_rest::http::{HttpVersion, Method, Request};
use ofmf_rest::Router;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::EventType;
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

fn request(method: Method, path: &str, query: Option<&str>, body: &str) -> Request {
    Request {
        method,
        path: path.to_string(),
        query: query.map(str::to_string),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
        version: HttpVersion::Http11,
    }
}

fn get(router: &Router, path: &str, query: Option<&str>) -> Value {
    let resp = router.handle(&request(Method::Get, path, query, ""));
    assert_eq!(resp.status, 200, "GET {path}");
    serde_json::from_slice(&resp.body).expect("JSON body")
}

fn messages(log: &Value) -> Vec<String> {
    log["Members"]
        .as_array()
        .expect("Members")
        .iter()
        .map(|e| e["Message"].as_str().unwrap_or_default().to_string())
        .collect()
}

/// Regression: a client that deletes every subscription it can list must
/// not stop the event log.
#[test]
fn a_fresh_boot_lists_no_subscription_and_deleting_every_listed_one_leaves_the_log_recording() {
    let ofmf = Ofmf::new("event-log-subs", HashMap::new(), 31);
    let router = Router::new(Arc::clone(&ofmf), false);
    assert_eq!(get(&router, top::SUBSCRIPTIONS, None)["Members@odata.count"], 0);

    let created = router.handle(&request(
        Method::Post,
        top::SUBSCRIPTIONS,
        None,
        r#"{"Destination":"rest-poll://client"}"#,
    ));
    assert_eq!(created.status, 201);
    let listed = get(&router, top::SUBSCRIPTIONS, None);
    for member in listed["Members"].as_array().expect("Members") {
        let path = member["@odata.id"].as_str().expect("member link");
        assert_eq!(router.handle(&request(Method::Delete, path, None, "")).status, 204);
    }
    assert_eq!(ofmf.events.subscription_count(), 0);

    ofmf.events.publish(
        EventType::Alert,
        &ODataId::new("/redfish/v1/Fabrics/CXL0"),
        "after every delete",
        "Warning",
    );
    let log = get(&router, top::EVENT_LOG_ENTRIES, Some("$expand=."));
    assert_eq!(messages(&log).last().map(String::as_str), Some("after every delete"));
}

/// 2 000 events with no poll in between: the log renders exactly the last
/// `EVENT_LOG_CAP`, in publish order, each under its `EventId`, and not one
/// delivery is dropped.
#[test]
fn a_burst_with_no_poll_keeps_the_newest_entries_in_order_and_drops_nothing() {
    let ofmf = Ofmf::new("event-log-burst", HashMap::new(), 32);
    let router = Router::new(Arc::clone(&ofmf), false);
    let dropped = ofmf_obs::counter("ofmf.events.dropped.total");
    let before = dropped.get();
    let origin = ODataId::new("/redfish/v1/Systems");
    let burst = 2_000;
    for i in 0..burst {
        ofmf.events
            .publish(EventType::ResourceUpdated, &origin, format!("burst {i}"), "OK");
    }

    let log = get(&router, top::EVENT_LOG_ENTRIES, Some("$expand=."));
    assert_eq!(log["Members@odata.count"], EVENT_LOG_CAP);
    let expected: Vec<String> = (burst - EVENT_LOG_CAP..burst).map(|i| format!("burst {i}")).collect();
    assert_eq!(messages(&log), expected);
    assert_eq!(dropped.get(), before, "no delivery dropped");

    // Every member is addressable by its Id, which is the record's EventId.
    let links = get(&router, top::EVENT_LOG_ENTRIES, None);
    let newest = links["Members"][EVENT_LOG_CAP - 1]["@odata.id"]
        .as_str()
        .expect("member link")
        .to_string();
    let entry = get(&router, &newest, None);
    assert_eq!(entry["Message"], format!("burst {}", burst - 1));
    assert_eq!(
        entry["Id"].as_str().and_then(|id| id.parse::<u64>().ok()),
        Some(ofmf.events.peek_next_event_id() - 1)
    );
}
