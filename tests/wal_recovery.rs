//! End-to-end durability: a full OFMF stack journals every control-plane
//! mutation, writes a compacted snapshot, hard-stops, and a fresh process
//! resumes — tree, sessions, subscriptions, clock baseline and live
//! compositions all where the previous process left them. Reads are the
//! exception that proves the rule: an authenticated GET journals nothing,
//! and what a crash costs a busy session's idle timer is bounded. So is the
//! event log: an event journals nothing beyond the state change it reports.

use composer::{Composer, CompositionRequest, Strategy};
use fabric_sim::failure::Fault;
use fabric_sim::ids::LinkId;
use ofmf_agents::flavors::{cxl_agent, infiniband_agent, nvmeof_agent, RackShape};
use ofmf_core::telemetry::Threshold;
use ofmf_core::{Agent, Ofmf};
use ofmf_rest::http::{HttpVersion, Method, Request};
use ofmf_rest::Router;
use ofmf_wal::{FsyncPolicy, Wal, WalRecord};
use redfish_model::odata::ODataId;
use redfish_model::resources::events::EventType;
use serde_json::json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ofmf-wal-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn credentials() -> HashMap<String, String> {
    HashMap::from([("admin".to_string(), "hunter2".to_string())])
}

fn register_rig(ofmf: &Arc<Ofmf>, seed: u64) {
    let shape = RackShape::default();
    let agents: [Arc<dyn Agent>; 3] = [
        Arc::new(cxl_agent("CXL0", &shape, 1 << 20, seed ^ 1)),
        Arc::new(nvmeof_agent("NVME0", &shape, 1 << 40, seed ^ 2)),
        Arc::new(infiniband_agent("IB0", &shape, "A100", seed ^ 3)),
    ];
    for a in agents {
        ofmf.register_agent(a).expect("register");
    }
}

/// The acceptance walk: mutate every journaled service, snapshot midway,
/// stop, restart, and verify each service resumed.
#[test]
fn full_stack_survives_a_restart() {
    let dir = fresh_dir("full-stack");

    // ---- Epoch 1 ----
    let (token, sub_id, t_crash, etag_before) = {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Batch(5)).expect("open"));
        let ofmf = Ofmf::with_wal("ofmf-e2e", credentials(), 7001, wal).expect("fresh boot");
        assert!(!ofmf.was_recovered());
        register_rig(&ofmf, 7001);

        // A session, a subscription, a composition, and a custom document.
        let (token, _sid) = ofmf.sessions.login(&ofmf.registry, "admin", "hunter2").expect("login");
        let (sub_id, _rx) = ofmf
            .events
            .subscribe(
                &ofmf.registry,
                "https://listener.example/events",
                vec![EventType::Alert, EventType::StatusChange],
                vec![ODataId::new("/redfish/v1/Fabrics/CXL0")],
            )
            .expect("subscribe");
        let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::FirstFit));
        composer.attach_snapshot_provider();
        composer
            .compose(
                &CompositionRequest::compute_only("resilient", 8, 8)
                    .with_fabric_memory_mib(2048)
                    .with_storage_bytes(1 << 30),
            )
            .expect("compose");

        // A composition created and torn down again must NOT come back.
        let gone = composer
            .compose(&CompositionRequest::compute_only("ephemeral", 8, 8))
            .expect("compose ephemeral");
        composer.decompose(&gone.system).expect("decompose");

        // Snapshot midway: the restart must stitch snapshot + rotated log +
        // live log back together.
        ofmf.write_snapshot().expect("snapshot");
        ofmf.registry
            .patch(
                &ODataId::new("/redfish/v1/Systems/resilient"),
                &json!({"AssetTag": "post-snapshot-write"}),
                None,
            )
            .expect("patch after snapshot");

        // Clock marks let the next process resume the timeline.
        ofmf.clock.advance_ms(1500);
        ofmf.poll();
        (token, sub_id, ofmf.clock.now_ms(), ofmf.registry.etag_seq())
    };

    // ---- Epoch 2 ----
    let replayed_before = ofmf_obs::counter("ofmf.wal.replayed.total").get();
    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Batch(5)).expect("reopen"));
    let ofmf = Ofmf::with_wal("ofmf-e2e", credentials(), 7001, wal).expect("recovery boot");
    assert!(ofmf.was_recovered());
    assert!(
        ofmf_obs::counter("ofmf.wal.replayed.total").get() > replayed_before,
        "replay counted its records"
    );
    register_rig(&ofmf, 7001);
    ofmf.finish_recovery();
    let composer = Arc::new(Composer::new(Arc::clone(&ofmf), Strategy::FirstFit));
    composer.attach_snapshot_provider();
    let (restored, compensated) = composer.recover();
    assert_eq!((restored, compensated), (1, 0), "one committed composition, no debris");

    // The clock resumed at or after the crash point: no time travel.
    assert!(ofmf.clock.now_ms() >= t_crash - 1000, "clock baseline resumed");

    // The session still authenticates — same token, original deadline rules.
    let user = ofmf
        .sessions
        .authenticate(&ofmf.registry, &token)
        .expect("session survived");
    assert_eq!(user, "admin");
    assert_eq!(ofmf.sessions.session_count(), 1);

    // The subscription is back and its document is in the tree.
    assert_eq!(ofmf.events.subscription_count(), 1);
    let sub_doc = ofmf
        .registry
        .get(&ODataId::new("/redfish/v1/EventService/Subscriptions").child(&sub_id))
        .expect("subscription doc replayed")
        .body;
    assert_eq!(sub_doc["Destination"], "https://listener.example/events");

    // The composition is live again; the decomposed one stayed dead.
    let resilient = ODataId::new("/redfish/v1/Systems/resilient");
    let c = composer.find(&resilient).expect("composition restored");
    assert_eq!(c.bound_memory_mib(), 2048);
    assert_eq!(c.bound_storage_bytes(), 1 << 30);
    assert!(composer.find(&ODataId::new("/redfish/v1/Systems/ephemeral")).is_none());
    assert!(!ofmf.registry.exists(&ODataId::new("/redfish/v1/Systems/ephemeral")));

    // The post-snapshot patch made it: replay = snapshot + live tail.
    let body = ofmf.registry.get(&resilient).expect("doc").body;
    assert_eq!(body["AssetTag"], "post-snapshot-write");

    // No stale links, monotonic validators, and the stack still mutates.
    assert!(ofmf.registry.dangling_links().is_empty());
    assert!(ofmf.registry.etag_seq() >= etag_before);
    composer
        .grow_memory(&resilient, 512)
        .expect("reprovision still works after recovery");
    assert_eq!(
        composer.find(&resilient).map(|c| c.bound_memory_mib()),
        Some(2048 + 512)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client retrying its `Compose` POST names a live system: the retry is
/// refused before it plans, binds or journals anything. And when a second
/// intent for the name does reach the journal (two racing composes: the loser
/// fails at the document create and aborts), a restart still restores the
/// committed composition instead of dropping it from crash recovery.
#[test]
fn duplicate_name_compose_leaves_the_live_composition_recoverable() {
    let dir = fresh_dir("duplicate-name");
    let request = CompositionRequest::compute_only("job1", 8, 8).with_fabric_memory_mib(1024);
    let job1 = ODataId::new("/redfish/v1/Systems/job1");
    let original = {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("open"));
        let ofmf = Ofmf::with_wal("ofmf-dup", credentials(), 7004, Arc::clone(&wal)).expect("fresh boot");
        register_rig(&ofmf, 7004);
        let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
        let original = composer.compose(&request).expect("compose");

        let journaled = wal.log_bytes();
        let err = composer.compose(&request).expect_err("the name is taken");
        assert_eq!(err.http_status(), 409);
        assert_eq!(wal.log_bytes(), journaled, "refused before any journal record");

        // What the loser of a same-name race leaves in the journal.
        let system = job1.as_str().to_string();
        ofmf.wal_record(ofmf_wal::WalRecord::ComposeIntent {
            system: system.clone(),
            node: "/redfish/v1/Systems/cn01".to_string(),
            request: request.to_value(),
            planned: json!([]),
        });
        ofmf.wal_record(ofmf_wal::WalRecord::ComposeAbort { system });
        original
    };

    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("reopen"));
    let ofmf = Ofmf::with_wal("ofmf-dup", credentials(), 7004, wal).expect("recovery boot");
    register_rig(&ofmf, 7004);
    ofmf.finish_recovery();
    let composer = Composer::new(Arc::clone(&ofmf), Strategy::FirstFit);
    assert_eq!(composer.recover(), (1, 0), "the committed composition is restored");
    assert_eq!(composer.find(&job1), Some(original.clone()));
    // Its node is taken again, so the next compose cannot land on it.
    assert!(composer.inventory().compute.iter().all(|c| c.system != original.node));
    assert!(ofmf.registry.dangling_links().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sessions restored from the journal keep their ORIGINAL idle deadline:
/// the sweep evicts them relative to the resumed clock, not a reset one.
#[test]
fn restored_sessions_rejoin_the_expiry_sweep() {
    let dir = fresh_dir("session-sweep");
    let token = {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("open"));
        let ofmf = Ofmf::with_wal("ofmf-sess", credentials(), 7002, wal).expect("boot");
        let (token, _) = ofmf.sessions.login(&ofmf.registry, "admin", "hunter2").expect("login");
        // Burn most of the idle budget before the crash; the poll loop's
        // periodic ClockMark is what lets the next process resume time.
        ofmf.clock.advance_ms(ofmf.sessions.timeout_ms() - 100);
        ofmf.poll();
        token
    };
    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("reopen"));
    let ofmf = Ofmf::with_wal("ofmf-sess", credentials(), 7002, wal).expect("recovery boot");
    assert!(ofmf.was_recovered());
    assert_eq!(ofmf.sessions.session_count(), 1, "session replayed");
    // 100ms of budget left on the original deadline: 101ms past the restart
    // the sweep must evict it, NOT timeout_ms past the restart.
    ofmf.clock.advance_ms(101);
    assert_eq!(
        ofmf.sessions.sweep_expired(&ofmf.registry),
        1,
        "original deadline enforced"
    );
    assert!(ofmf.sessions.authenticate(&ofmf.registry, &token).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots compact: after `write_snapshot` the live log restarts near
/// empty, and a reboot replays snapshot + tail identically.
#[test]
fn snapshot_compacts_the_live_log() {
    let dir = fresh_dir("compaction");
    {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("open"));
        let ofmf = Ofmf::with_wal("ofmf-compact", HashMap::new(), 7003, wal).expect("boot");
        register_rig(&ofmf, 7003);
        for i in 0..50 {
            ofmf.registry
                .patch(
                    &ODataId::new("/redfish/v1/Fabrics/CXL0"),
                    &json!({"Oem": {"OFMF": {"Churn": i}}}),
                    None,
                )
                .expect("patch");
        }
        let before = ofmf.wal().expect("wal attached").log_bytes();
        assert!(before > 0);
        ofmf.write_snapshot().expect("snapshot");
        let after = ofmf.wal().expect("wal attached").log_bytes();
        assert!(after < before, "live log compacted: {after} !< {before}");
    }
    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("reopen"));
    let ofmf = Ofmf::with_wal("ofmf-compact", HashMap::new(), 7003, wal).expect("recovery boot");
    assert!(ofmf.was_recovered());
    let body = ofmf
        .registry
        .get(&ODataId::new("/redfish/v1/Fabrics/CXL0"))
        .expect("doc")
        .body;
    assert_eq!(body["Oem"]["OFMF"]["Churn"], 49, "last write wins through the snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The read path is the monitoring path: with auth on, 10 000 GETs over a
/// second of service time refresh the session's timer in memory and leave
/// the journal as it was.
#[test]
fn authenticated_reads_do_not_grow_the_journal() {
    let dir = fresh_dir("read-path");
    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("open"));
    let ofmf = Ofmf::with_wal("ofmf-reads", credentials(), 7005, Arc::clone(&wal)).expect("boot");
    let router = Router::new(Arc::clone(&ofmf), true);
    let request = |method, path: &str, token: &str, body: &str| Request {
        method,
        path: path.to_string(),
        query: None,
        headers: [("x-auth-token".to_string(), token.to_string())].into(),
        body: body.as_bytes().to_vec(),
        version: HttpVersion::Http11,
    };
    let login = router.handle(&request(
        Method::Post,
        "/redfish/v1/SessionService/Sessions",
        "",
        r#"{"UserName":"admin","Password":"hunter2"}"#,
    ));
    assert_eq!(login.status, 201);
    let token = &login
        .headers
        .iter()
        .find(|(k, _)| k == "X-Auth-Token")
        .expect("token")
        .1;
    assert_eq!(
        router
            .handle(&request(Method::Get, "/redfish/v1/Systems", "", ""))
            .status,
        401
    );

    let journaled = wal.log_bytes();
    let t0 = ofmf.clock.now_ms();
    let paths = [
        "/redfish/v1/Systems",
        "/redfish/v1/Chassis",
        "/redfish/v1/SessionService",
    ];
    for i in 0..10_000 {
        if i % 10 == 0 {
            ofmf.clock.advance_ms(1);
        }
        let resp = router.handle(&request(Method::Get, paths[i % paths.len()], token, ""));
        assert_eq!(resp.status, 200);
    }
    // Every frame appended grows this: none was. (`ofmf.wal.appends.total`
    // is one counter for the whole test process, so it cannot say.)
    assert_eq!(wal.log_bytes(), journaled, "reads cost no writes");
    // The timer moved all the same: a snapshot would store the last read.
    let timers: Vec<u64> = ofmf
        .sessions
        .snapshot_records()
        .iter()
        .map(|r| match r {
            WalRecord::SessionLogin { last_used_ms, .. } => *last_used_ms,
            other => panic!("not a session record: {other:?}"),
        })
        .collect();
    assert_eq!(timers, vec![t0 + 1000]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a crash costs a busy session: its idle timer comes back at the last
/// journaled touch — never later than the pre-crash value (the session cannot
/// outlive its deadline), and less than one granule (`timeout / 16`) earlier.
#[test]
fn restored_session_deadline_is_within_one_granule() {
    let dir = fresh_dir("session-granule");
    let last_used = |ofmf: &Ofmf| match ofmf.sessions.snapshot_records().as_slice() {
        [WalRecord::SessionLogin { last_used_ms, .. }] => *last_used_ms,
        other => panic!("exactly one session: {other:?}"),
    };
    let (token, timeout_ms, used_before, journaled_touches) = {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("open"));
        let ofmf = Ofmf::with_wal("ofmf-granule", credentials(), 7006, Arc::clone(&wal)).expect("boot");
        let timeout_ms = ofmf.sessions.timeout_ms();
        let (token, _) = ofmf.sessions.login(&ofmf.registry, "admin", "hunter2").expect("login");
        // A request every 160th of the timeout, for 2.55 granules: the poll
        // loop stamps the clock, nothing snapshots, then the process dies.
        for _ in 0..408 {
            ofmf.clock.advance_ms(timeout_ms / 2560);
            ofmf.sessions.authenticate(&ofmf.registry, &token).expect("live");
            ofmf.poll();
        }
        let touches = wal.replay().expect("read back").records;
        let touches = touches.iter().filter(|r| matches!(r, WalRecord::SessionTouch { .. }));
        (token, timeout_ms, last_used(&ofmf), touches.count())
    };
    assert_eq!(journaled_touches, 2, "one per granule crossed, not one per request");

    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Always).expect("reopen"));
    let ofmf = Ofmf::with_wal("ofmf-granule", credentials(), 7006, wal).expect("recovery boot");
    assert!(ofmf.was_recovered());
    let used_after = last_used(&ofmf);
    assert!(
        used_after <= used_before,
        "never outlives: {used_after} > {used_before}"
    );
    assert!(
        used_before - used_after < timeout_ms / 16,
        "under-lives by less than a granule: {used_before} - {used_after}"
    );
    // The deadline is the restored timer's, on the resumed clock — not
    // `timeout_ms` after the restart.
    assert!(
        ofmf.clock.now_ms() > used_after,
        "the clock resumed past the last touch"
    );
    ofmf.clock.advance_ms(used_after + timeout_ms - ofmf.clock.now_ms());
    assert_eq!(ofmf.sessions.sweep_expired(&ofmf.registry), 0, "alive at its deadline");
    ofmf.clock.advance_ms(1);
    assert_eq!(ofmf.sessions.sweep_expired(&ofmf.registry), 1, "reaped 1 ms past it");
    assert!(ofmf.sessions.authenticate(&ofmf.registry, &token).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The event log costs the journal nothing: a poll that forwards agent
/// faults and trips a telemetry threshold appends the agents' status patches
/// and at most one `ClockMark` — no record per event — and the tree a restart
/// replays holds no `LogEntry` and no dangling link.
#[test]
fn a_poll_journals_status_patches_and_no_record_per_event() {
    let dir = fresh_dir("event-budget");
    let faults = 6;
    {
        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("open"));
        let ofmf = Ofmf::with_wal("ofmf-events", HashMap::new(), 7008, Arc::clone(&wal)).expect("boot");
        let cxl = Arc::new(cxl_agent("CXL0", &RackShape::default(), 1 << 20, 7008));
        ofmf.register_agent(Arc::clone(&cxl) as Arc<dyn Agent>)
            .expect("register");
        // Every switch temperature sample trips it.
        ofmf.telemetry.add_threshold(Threshold {
            metric_id: "TemperatureCelsius".to_string(),
            upper: 0.0,
            severity: "Warning".to_string(),
        });
        for l in 0..faults {
            cxl.inject_fault(Fault::LinkDown(LinkId(l as u32)));
        }
        ofmf.clock.advance_ms(1000);
        let journaled = wal.replay().expect("read back").records.len();
        let logged = ofmf.events.log().len();

        assert_eq!(ofmf.poll(), faults, "one agent event per fault");
        let records = wal.replay().expect("read back").records;
        let appended = &records[journaled..];
        let patches = appended
            .iter()
            .filter(|r| matches!(r, WalRecord::Patch { id, .. } if id.starts_with("/redfish/v1/Fabrics/CXL0/")))
            .count();
        let marks = appended
            .iter()
            .filter(|r| matches!(r, WalRecord::ClockMark { .. }))
            .count();
        assert_eq!(patches, faults, "one status patch per fault: {appended:?}");
        assert!(marks <= 1);
        assert_eq!(appended.len(), patches + marks, "nothing else: {appended:?}");
        let published = ofmf.events.log().len() - logged;
        assert!(
            published > faults,
            "the threshold alerts are logged too: {published} events"
        );
    }

    let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("reopen"));
    let ofmf = Ofmf::with_wal("ofmf-events", HashMap::new(), 7008, wal).expect("recovery boot");
    assert!(ofmf.was_recovered());
    let mut log_entries = 0;
    ofmf.registry.for_each(|_, stored| {
        log_entries += usize::from(stored.odata_type().is_some_and(|t| t.starts_with("#LogEntry.")));
    });
    assert_eq!(log_entries, 0, "no LogEntry was journaled");
    assert!(ofmf.registry.dangling_links().is_empty());
    assert!(ofmf.events.log().is_empty(), "the log starts empty after a restart");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whatever the REST path accepts can be read back at boot. A journal or
/// snapshot frame puts one level around the stored body and `$expand` two,
/// and all of them go through the parser that caps nesting at 128: the
/// deepest body the router takes (64) replays from the journal and from a
/// snapshot with nothing truncated behind it, and one level more is a 400
/// that journals nothing. A frame that does not parse at boot counts as a
/// torn tail, and every acknowledged mutation behind it is cut off.
#[test]
fn the_deepest_accepted_body_replays_from_journal_and_snapshot() {
    let request = |method, path: &str, query: Option<&str>, body: &str| Request {
        method,
        path: path.to_string(),
        query: query.map(str::to_string),
        headers: Default::default(),
        body: body.as_bytes().to_vec(),
        version: HttpVersion::Http11,
    };
    // An object around `arrays` nested arrays: `arrays + 1` levels.
    let nested = |id: &str, arrays: usize| {
        format!(
            "{{\"Id\":\"{id}\",\"a\":{}1{}}}",
            "[".repeat(arrays),
            "]".repeat(arrays)
        )
    };
    let deep = ODataId::new("/redfish/v1/Chassis/deep");
    let after = ODataId::new("/redfish/v1/Chassis/after");

    for snapshot in [false, true] {
        let dir = fresh_dir(if snapshot { "deep-snapshot" } else { "deep-journal" });
        let stored = {
            let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("open"));
            let ofmf = Ofmf::with_wal("ofmf-deep", HashMap::new(), 7007, Arc::clone(&wal)).expect("boot");
            let router = Router::new(Arc::clone(&ofmf), false);

            let journaled = wal.log_bytes();
            for (method, path) in [
                (Method::Post, "/redfish/v1/Chassis"),
                (Method::Patch, "/redfish/v1/Managers/OFMF"),
            ] {
                let refused = router.handle(&request(method, path, None, &nested("deeper", 64)));
                assert_eq!(refused.status, 400);
                let text = String::from_utf8_lossy(&refused.body).to_string();
                assert!(text.contains("invalid JSON body: nesting deeper than 64"), "{text}");
            }
            assert_eq!(wal.log_bytes(), journaled, "a refused body journals nothing");

            let created = router.handle(&request(Method::Post, "/redfish/v1/Chassis", None, &nested("deep", 63)));
            assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
            let patched = router.handle(&request(
                Method::Patch,
                deep.as_str(),
                None,
                &nested("deep", 63).replace("\"Id\":\"deep\",\"a\"", "\"b\""),
            ));
            assert_eq!(patched.status, 200, "{}", String::from_utf8_lossy(&patched.body));
            // `$expand` beside `$top` parses the expanded answer back: the
            // member sits two levels down in it.
            let paged = router.handle(&request(
                Method::Get,
                "/redfish/v1/Chassis",
                Some("$expand=.&$top=1000"),
                "",
            ));
            assert_eq!(paged.status, 200, "{}", String::from_utf8_lossy(&paged.body));
            if snapshot {
                ofmf.write_snapshot().expect("snapshot");
            }
            let next = router.handle(&request(Method::Post, "/redfish/v1/Chassis", None, r#"{"Id":"after"}"#));
            assert_eq!(next.status, 201);
            ofmf.registry.get(&deep).expect("stored").body
        };

        let wal = Arc::new(Wal::open(&dir, FsyncPolicy::Off).expect("reopen"));
        let before = wal.log_bytes();
        let replay = wal.replay().expect("replay");
        assert_eq!(replay.torn_tails, 0, "snapshot={snapshot}: every frame parses");
        assert_eq!(wal.log_bytes(), before, "snapshot={snapshot}: nothing truncated");
        let ofmf = Ofmf::with_wal("ofmf-deep", HashMap::new(), 7007, wal).expect("recovery boot");
        assert!(ofmf.was_recovered());
        assert_eq!(ofmf.registry.get(&deep).expect("deep survives").body, stored);
        assert!(
            ofmf.registry.get(&after).is_ok(),
            "snapshot={snapshot}: the mutation acknowledged after it survives"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
