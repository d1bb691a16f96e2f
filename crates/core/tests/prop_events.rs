//! Property test for the subscription routing index: for ANY population of
//! subscription filters and ANY publish origin, the indexed fan-out delivers
//! to exactly the subscribers a reference model selects by running
//! `EventDestination::matches` over the test's own filter list — with
//! unsubscribes interleaved, so incremental index maintenance is exercised
//! too.

use ofmf_core::clock::Clock;
use ofmf_core::events::EventService;
use ofmf_core::tree::bootstrap;
use proptest::prelude::*;
use redfish_model::odata::ODataId;
use redfish_model::path::top;
use redfish_model::resources::events::{EventDestination, EventType};
use redfish_model::Registry;
use std::sync::Arc;

/// Origin paths spanning the interesting routing shapes: different
/// top-level collections, nested members, root documents (which key to the
/// wildcard list), and non-standard prefixes.
fn origin_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        // Members of the usual top-level collections, two depths.
        (
            prop_oneof![
                Just("Fabrics"),
                Just("Systems"),
                Just("Chassis"),
                Just("StorageServices")
            ],
            0u32..4,
            0u32..4,
        )
            .prop_map(|(seg, m, leaf)| match leaf {
                0 => format!("/redfish/v1/{seg}/m{m}"),
                l => format!("/redfish/v1/{seg}/m{m}/Parts/p{}", l - 1),
            }),
        // Root-ish paths: span every segment.
        Just("/redfish/v1".to_string()),
        Just("/redfish/v1/".to_string()),
    ]
}

fn event_type_strategy() -> impl Strategy<Value = EventType> {
    prop::sample::select(EventType::ALL.to_vec())
}

/// A subscription's filters: 0–2 event types (0 = wildcard), 0–3 origin
/// subtrees (0 = whole tree).
fn filter_strategy() -> impl Strategy<Value = (Vec<EventType>, Vec<String>)> {
    (
        prop::collection::vec(event_type_strategy(), 0..3),
        prop::collection::vec(origin_strategy(), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_routing_equals_full_scan_model(
        filters in prop::collection::vec(filter_strategy(), 1..20),
        publishes in prop::collection::vec((event_type_strategy(), origin_strategy()), 1..20),
        // Indices (mod population) of subscriptions dropped mid-run, so the
        // incrementally-maintained index is exercised, not just the built one.
        unsubs in prop::collection::vec(0usize..20, 0..6),
    ) {
        let reg = Registry::new();
        bootstrap(&reg, "prop").unwrap();
        let svc = EventService::new(Arc::new(Clock::manual())).with_queue_depth(4096);

        // The reference model: each subscription's filter, whether it is
        // still subscribed, and the deliveries a full scan would make.
        struct Model {
            dest: EventDestination,
            live: bool,
            expected: Vec<(EventType, String)>,
        }
        let subs_col = ODataId::new(top::SUBSCRIPTIONS);
        let mut model = Vec::new();
        let mut subs = Vec::new();
        for (k, (types, origins)) in filters.iter().enumerate() {
            let origins: Vec<ODataId> = origins.iter().map(ODataId::new).collect();
            let dest = format!("channel://s{k}");
            subs.push(svc.subscribe(&reg, &dest, types.clone(), origins.clone()).unwrap());
            model.push(Model {
                dest: EventDestination::new(&subs_col, &k.to_string(), &dest, types.clone(), origins),
                live: true,
                expected: Vec::new(),
            });
        }
        // Interleave unsubscribes with publishes: drop one subscription,
        // publish a few, repeat.
        let mut chunks = publishes.chunks(publishes.len().div_ceil(unsubs.len() + 1));
        let run = |model: &mut Vec<Model>, pubs: &[(EventType, String)]| {
            for (t, origin) in pubs {
                let id = ODataId::new(origin);
                let mut want = 0;
                for m in model.iter_mut().filter(|m| m.live && m.dest.matches(*t, &id)) {
                    m.expected.push((*t, id.as_str().to_string()));
                    want += 1;
                }
                let got = svc.publish(*t, &id, "p", "OK");
                prop_assert_eq!(got, want, "delivery count diverged for {:?} {}", t, origin);
            }
            Ok(())
        };
        if let Some(chunk) = chunks.next() {
            run(&mut model, chunk)?;
        }
        for u in &unsubs {
            let k = u % filters.len();
            if model[k].live {
                model[k].live = false;
                svc.unsubscribe(&reg, &subs[k].0).unwrap();
            }
            if let Some(chunk) = chunks.next() {
                run(&mut model, chunk)?;
            }
        }
        for chunk in chunks {
            run(&mut model, chunk)?;
        }

        // Identical delivery SETS, subscriber by subscriber: each queue
        // holds exactly the model's record payloads in the same order.
        for (k, ((_, rx), m)) in subs.iter().zip(&model).enumerate() {
            let mut msgs = Vec::new();
            while let Ok(b) = rx.try_recv() {
                for r in b.events.iter() {
                    msgs.push((r.event_type, r.origin_of_condition.odata_id.as_str().to_string()));
                }
            }
            prop_assert_eq!(&msgs, &m.expected, "subscriber {} saw different deliveries", k);
        }
    }
}
