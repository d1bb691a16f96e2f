//! The OFMF event service.
//!
//! Clients subscribe by creating an `EventDestination`; the service fans
//! published records out to every matching subscription's bounded delivery
//! queue. Bounded queues (crossbeam) protect the OFMF from slow consumers:
//! when a queue is full the new batch is dropped (after one retry against a
//! racing consumer) and a drop counter is bumped — the subscriber can detect
//! gaps from event ids.
//!
//! # Fan-out at scale
//!
//! Two structures keep `publish` fast when subscriptions number in the
//! hundreds:
//!
//! * **Routing index.** Subscriptions are bucketed by `EventType` and by the
//!   top-level collection segment of their origin filters (the same keying
//!   scheme the sharded registry uses), so a publish visits only candidate
//!   subscribers instead of scanning every subscription. Subscriptions with
//!   no origin filter (or a filter at/above the service root) land in a
//!   per-type wildcard list. The index is maintained incrementally on
//!   subscribe/unsubscribe.
//! * **Shared zero-copy batches.** One fan-out allocates a single
//!   `Arc<[EventRecord]>` plus a single lazily-serialized wire body
//!   ([`SharedEventBody`]); every subscriber's queue receives a cheap
//!   [`EventEnvelope`] (three `Arc` clones) carrying its own per-delivery
//!   batch id. No per-subscriber deep clone, no per-subscriber
//!   re-serialization.
//!
//! # The event log
//!
//! Every fan-out also appends its records to the event log, a ring of the
//! last [`EVENT_LOG_CAP`] records with no queue in between to drop them. It
//! is neither journaled nor snapshotted, so it starts empty on every boot;
//! the REST layer renders it as the manager's `EventLog` collection.

use crate::clock::Clock;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use ofmf_obs::{Counter, Histogram};
use ofmf_wal::{Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use redfish_model::odata::ODataId;
use redfish_model::path::{top, top_segment};
use redfish_model::resources::events::{EventDestination, EventEnvelope, EventRecord, EventType, SharedEventBody};
use redfish_model::resources::Resource;
use redfish_model::{RedfishError, RedfishResult, Registry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default per-subscription queue depth.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Records the event log retains; each append beyond it evicts the oldest
/// (`OverWritePolicy: WrapsWhenFull`).
pub const EVENT_LOG_CAP: usize = 512;

struct Subscription {
    id: String,
    dest: EventDestination,
    tx: Sender<EventEnvelope>,
    dropped: AtomicU64,
    /// Set once the subscriber's losses have been announced as an `Alert`
    /// (fires a single time per subscription).
    drop_alerted: AtomicBool,
}

/// The name an event type goes by in the journal: its wire name, the one
/// the `EventDestination` document carries.
fn type_name(t: &EventType) -> Option<String> {
    Some(serde_json::to_value(t).ok()?.as_str()?.to_string())
}

impl Subscription {
    /// A fresh subscription with an empty `depth`-bounded delivery queue.
    fn open(id: &str, dest: EventDestination, depth: usize) -> (Arc<Self>, Receiver<EventEnvelope>) {
        let (tx, rx) = bounded(depth);
        let sub = Subscription {
            id: id.to_string(),
            dest,
            tx,
            dropped: AtomicU64::new(0),
            drop_alerted: AtomicBool::new(false),
        };
        (Arc::new(sub), rx)
    }

    /// The journal record that re-creates this subscription on replay.
    fn journal_record(&self) -> WalRecord {
        WalRecord::Subscribe {
            id: self.id.clone(),
            destination: self.dest.destination.clone(),
            event_types: self.dest.event_types.iter().filter_map(type_name).collect(),
            origins: self
                .dest
                .origin_resources
                .iter()
                .map(|l| l.odata_id.as_str().to_string())
                .collect(),
        }
    }
}

struct EventMetrics {
    /// `ofmf.events.fanout.latency_ns`
    fanout_latency: Arc<Histogram>,
    /// `ofmf.events.published.total` — fan-out invocations.
    published: Arc<Counter>,
    /// `ofmf.events.delivered.total` — successful queue deliveries.
    delivered: Arc<Counter>,
    /// `ofmf.events.dropped.total` — batches lost to slow/dead subscribers.
    dropped: Arc<Counter>,
    /// `ofmf.events.index.candidates.total` — subscriptions visited by
    /// indexed fan-outs (match checks actually performed).
    index_candidates: Arc<Counter>,
    /// `ofmf.events.index.skipped.total` — subscriptions the index proved
    /// irrelevant without a match check (the scan work saved vs a full scan).
    index_skipped: Arc<Counter>,
}

fn event_metrics() -> &'static EventMetrics {
    static METRICS: OnceLock<EventMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EventMetrics {
        fanout_latency: ofmf_obs::histogram("ofmf.events.fanout.latency_ns"),
        published: ofmf_obs::counter("ofmf.events.published.total"),
        delivered: ofmf_obs::counter("ofmf.events.delivered.total"),
        dropped: ofmf_obs::counter("ofmf.events.dropped.total"),
        index_candidates: ofmf_obs::counter("ofmf.events.index.candidates.total"),
        index_skipped: ofmf_obs::counter("ofmf.events.index.skipped.total"),
    })
}

/// Copy `rec` into a recycled event-log record, reusing its string buffers:
/// a full log takes a steady stream of events without allocating.
fn overwrite(slot: &mut EventRecord, rec: &EventRecord) {
    slot.event_type = rec.event_type;
    slot.event_id.clone_from(&rec.event_id);
    slot.message_id.clone_from(&rec.message_id);
    slot.message.clone_from(&rec.message);
    slot.severity.clone_from(&rec.severity);
    slot.origin_of_condition
        .odata_id
        .clone_from(&rec.origin_of_condition.odata_id);
    slot.event_timestamp = rec.event_timestamp;
}

/// Position of an event type in the routing index's bucket array.
fn type_index(t: EventType) -> usize {
    match t {
        EventType::StatusChange => 0,
        EventType::ResourceAdded => 1,
        EventType::ResourceRemoved => 2,
        EventType::ResourceUpdated => 3,
        EventType::Alert => 4,
        EventType::MetricReport => 5,
    }
}

/// Bucket indices a subscription's type filter occupies (all six for a
/// wildcard filter).
fn type_slots(dest: &EventDestination) -> Vec<usize> {
    if dest.event_types.is_empty() {
        (0..EventType::ALL.len()).collect()
    } else {
        let mut v: Vec<usize> = dest.event_types.iter().map(|t| type_index(*t)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Distinct routing keys ([`top_segment`], the scheme the registry stripes
/// on) of a subscription's origin filters; `None` means
/// the subscription is a candidate for every origin (no filter, or a filter
/// at/above the service root whose subtree spans every top-level segment).
fn origin_keys(dest: &EventDestination) -> Option<Vec<String>> {
    if dest.origin_resources.is_empty() {
        return None;
    }
    let mut keys: Vec<String> = Vec::with_capacity(dest.origin_resources.len());
    for l in &dest.origin_resources {
        let k = top_segment(l.odata_id.as_str());
        if k.is_empty() {
            return None;
        }
        if !keys.iter().any(|x| x == k) {
            keys.push(k.to_string());
        }
    }
    Some(keys)
}

/// One `EventType`'s slice of the routing index.
#[derive(Default)]
struct TypeBucket {
    /// origin routing key → subscriptions whose filters live under it.
    by_origin: HashMap<String, Vec<Arc<Subscription>>>,
    /// Subscriptions that are candidates for every origin.
    any_origin: Vec<Arc<Subscription>>,
}

/// `EventType`-bucketed, origin-prefix-mapped subscription index. A
/// subscription appears in every type bucket it can match, and within a
/// bucket in exactly one list per routing key — so the candidate set for a
/// publish (`by_origin[key] ∪ any_origin`) never yields a duplicate.
#[derive(Default)]
struct RoutingIndex {
    buckets: [TypeBucket; 6],
}

impl RoutingIndex {
    fn insert(&mut self, sub: &Arc<Subscription>) {
        let keys = origin_keys(&sub.dest);
        for ti in type_slots(&sub.dest) {
            // ofmf-lint: allow(no-panic-path, "type_slots maps the 6 EventType variants to 0..6, the bucket count")
            let bucket = &mut self.buckets[ti];
            match &keys {
                None => bucket.any_origin.push(Arc::clone(sub)),
                Some(ks) => {
                    for k in ks {
                        bucket.by_origin.entry(k.clone()).or_default().push(Arc::clone(sub));
                    }
                }
            }
        }
    }

    fn remove(&mut self, sub: &Subscription) {
        let keys = origin_keys(&sub.dest);
        for ti in type_slots(&sub.dest) {
            // ofmf-lint: allow(no-panic-path, "type_slots maps the 6 EventType variants to 0..6, the bucket count")
            let bucket = &mut self.buckets[ti];
            match &keys {
                None => bucket.any_origin.retain(|s| s.id != sub.id),
                Some(ks) => {
                    for k in ks {
                        if let Some(v) = bucket.by_origin.get_mut(k.as_str()) {
                            v.retain(|s| s.id != sub.id);
                            if v.is_empty() {
                                bucket.by_origin.remove(k.as_str());
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The subscription table: id map plus the routing index, mutated together
/// under one lock so the two views never diverge.
#[derive(Default)]
struct SubTable {
    by_id: HashMap<String, Arc<Subscription>>,
    index: RoutingIndex,
}

/// The subscription-based event service.
pub struct EventService {
    clock: Arc<Clock>,
    subs: RwLock<SubTable>,
    next_sub: AtomicU64,
    next_event: AtomicU64,
    queue_depth: usize,
    /// Durability journal, fixed at construction. Subscribe records are
    /// appended while the subscription-table lock is held, so replay order
    /// matches live order. Lock order: subs → WAL file mutex (leaf).
    journal: Option<Arc<Wal>>,
    /// The event log, oldest first. A leaf lock, taken with nothing held.
    log: Mutex<VecDeque<EventRecord>>,
}

impl EventService {
    /// New service using `clock` for record timestamps.
    pub fn new(clock: Arc<Clock>) -> Self {
        EventService {
            clock,
            subs: RwLock::new(SubTable::default()),
            next_sub: AtomicU64::new(1),
            next_event: AtomicU64::new(1),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            journal: None,
            log: Mutex::new(VecDeque::with_capacity(EVENT_LOG_CAP)),
        }
    }

    /// Journal every subscribe/unsubscribe to `wal`
    /// ([`EventService::replay`] never journals).
    pub fn with_journal(mut self, wal: Option<Arc<Wal>>) -> Self {
        self.journal = wal;
        self
    }

    fn journal_record(&self, rec: WalRecord) {
        if let Some(w) = &self.journal {
            w.record(&rec);
        }
    }

    /// Override the per-subscription queue depth (before subscribing).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Create a subscription. Registers the `EventDestination` resource in
    /// `reg` and returns `(subscription id, delivery receiver)`. Atomic with
    /// respect to the registry: if resource creation fails, the service's
    /// subscription table is left untouched.
    pub fn subscribe(
        &self,
        reg: &Registry,
        destination: &str,
        event_types: Vec<EventType>,
        origin_resources: Vec<ODataId>,
    ) -> RedfishResult<(String, Receiver<EventEnvelope>)> {
        let id = self.next_sub.fetch_add(1, Ordering::AcqRel).to_string();
        let subs_col = ODataId::new(top::SUBSCRIPTIONS);
        let dest = EventDestination::new(&subs_col, &id, destination, event_types, origin_resources);
        reg.create(&subs_col.child(&id), dest.to_value())?;
        let (sub, rx) = Subscription::open(&id, dest, self.queue_depth);
        let mut subs = self.subs.write();
        subs.index.insert(&sub);
        self.journal_record(sub.journal_record());
        subs.by_id.insert(id.clone(), sub);
        Ok((id, rx))
    }

    /// Fold the subscription records of a replayed journal (subscribe →
    /// insert, unsubscribe → remove) and re-install what is left in id
    /// order, the order the live subscribes indexed them in. Creates no
    /// registry resource (the `EventDestination` documents come back through
    /// registry-record replay), journals nothing and keeps the id allocator
    /// above every restored id. Every queue starts empty with no receiver —
    /// the pre-crash consumers are gone — so deliveries to a restored
    /// subscription count as drops until a client deletes it.
    pub fn replay(&self, records: &[WalRecord]) {
        // Keyed by the numeric id first: a snapshot lists ids as strings.
        let mut live: BTreeMap<(u64, &str), EventDestination> = BTreeMap::new();
        let subs_col = ODataId::new(top::SUBSCRIPTIONS);
        for rec in records {
            match rec {
                WalRecord::Subscribe {
                    id,
                    destination,
                    event_types,
                    origins,
                } => {
                    // Unknown type names (a journal written by a future
                    // OFMF) drop out of the filter; they are not fatal.
                    let named = |s: &String| serde_json::from_value(serde_json::Value::String(s.clone())).ok();
                    let types = event_types.iter().filter_map(named).collect();
                    let origins = origins.iter().map(ODataId::new).collect();
                    let dest = EventDestination::new(&subs_col, id, destination, types, origins);
                    live.insert((id.parse().unwrap_or(u64::MAX), id), dest);
                }
                WalRecord::Unsubscribe { id } => {
                    live.remove(&(id.parse().unwrap_or(u64::MAX), id));
                }
                _ => {}
            }
        }
        let mut subs = self.subs.write();
        for ((n, id), dest) in live {
            if n != u64::MAX {
                self.next_sub.fetch_max(n.saturating_add(1), Ordering::AcqRel);
            }
            let (sub, _gone) = Subscription::open(id, dest, self.queue_depth);
            subs.index.insert(&sub);
            subs.by_id.insert(id.to_string(), sub);
        }
    }

    /// One `Subscribe` record per live subscription — the compact form a
    /// snapshot stores instead of the subscribe/unsubscribe history.
    pub fn snapshot_records(&self) -> Vec<WalRecord> {
        let subs = self.subs.read();
        let mut ids: Vec<&String> = subs.by_id.keys().collect();
        ids.sort();
        ids.iter()
            .filter_map(|id| subs.by_id.get(*id))
            .map(|sub| sub.journal_record())
            .collect()
    }

    /// Delete a subscription (client unsubscribes or its queue is dead).
    /// Atomic with respect to the registry: if the `EventDestination`
    /// resource cannot be deleted (other than already being gone), the
    /// subscription is restored and keeps delivering.
    pub fn unsubscribe(&self, reg: &Registry, id: &str) -> RedfishResult<()> {
        let removed = {
            let mut subs = self.subs.write();
            match subs.by_id.remove(id) {
                Some(sub) => {
                    subs.index.remove(&sub);
                    sub
                }
                None => return Err(RedfishError::NotFound(ODataId::new(top::SUBSCRIPTIONS).child(id))),
            }
        };
        match reg.delete(&ODataId::new(top::SUBSCRIPTIONS).child(id)) {
            // NotFound: the resource is already gone, so both views agree.
            Ok(()) | Err(RedfishError::NotFound(_)) => {
                self.journal_record(WalRecord::Unsubscribe { id: id.to_string() });
                Ok(())
            }
            Err(e) => {
                let mut subs = self.subs.write();
                subs.index.insert(&removed);
                subs.by_id.insert(id.to_string(), removed);
                Err(e)
            }
        }
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.read().by_id.len()
    }

    /// Batches dropped for subscription `id` due to a full queue.
    pub fn dropped_count(&self, id: &str) -> u64 {
        self.subs
            .read()
            .by_id
            .get(id)
            .map_or(0, |s| s.dropped.load(Ordering::Acquire))
    }

    /// Build a service-stamped record (fresh event id, service clock).
    /// Pair with [`EventService::publish_batch`] to forward many agent
    /// events as one fan-out.
    pub fn record(
        &self,
        event_type: EventType,
        origin: &ODataId,
        message: impl Into<String>,
        severity: &str,
    ) -> EventRecord {
        let event_id = self.next_event.fetch_add(1, Ordering::AcqRel);
        EventRecord::new(event_type, event_id, origin, message, severity, self.clock.now_ms())
    }

    /// Publish one record: build the batch and fan it out to every matching
    /// subscription. Returns the number of subscriptions it was delivered to.
    pub fn publish(
        &self,
        event_type: EventType,
        origin: &ODataId,
        message: impl Into<String>,
        severity: &str,
    ) -> usize {
        let record = self.record(event_type, origin, message, severity);
        self.fan_out(event_type, origin, vec![record])
    }

    /// Publish a pre-built batch of records sharing one origin/type (bulk
    /// agent forwarding).
    pub fn publish_batch(&self, event_type: EventType, origin: &ODataId, records: Vec<EventRecord>) -> usize {
        self.fan_out(event_type, origin, records)
    }

    fn fan_out(&self, event_type: EventType, origin: &ODataId, records: Vec<EventRecord>) -> usize {
        let metrics = event_metrics();
        metrics.published.inc();
        let _span = ofmf_obs::Trace::begin(&metrics.fanout_latency);
        self.append_to_log(&records);
        // One shared allocation + one (lazy) serialization for the whole
        // fan-out, however many subscribers match.
        let records: Arc<[EventRecord]> = records.into();
        let shared = SharedEventBody::new();
        let subs = self.subs.read();
        let mut delivered = 0;
        // Subscribers whose accumulated losses crossed the alert threshold
        // during this fan-out; announced after the read lock is released.
        let mut newly_lossy: Vec<String> = Vec::new();
        // ofmf-lint: allow(no-panic-path, "type_index maps the 6 EventType variants to 0..6, the bucket count")
        let bucket = &subs.index.buckets[type_index(event_type)];
        let keyed = bucket
            .by_origin
            .get(top_segment(origin.as_str()))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let mut candidates = 0u64;
        for sub in keyed.iter().chain(bucket.any_origin.iter()) {
            candidates += 1;
            if !sub.dest.matches(event_type, origin) {
                continue;
            }
            self.deliver(sub, &records, &shared, &mut delivered, &mut newly_lossy);
        }
        metrics.index_candidates.add(candidates);
        metrics.index_skipped.add(subs.by_id.len() as u64 - candidates);
        drop(subs);
        for id in newly_lossy {
            self.alert_lossy_subscriber(&id);
        }
        delivered
    }

    /// Append a fan-out's records to the event log; once it is full, each
    /// append overwrites the oldest record in place. Holding a fresh copy
    /// (or the fan-out's batch) per event instead fragmented the publishing
    /// threads' heaps enough to slow the `$expand` buffers they allocate
    /// next by 4–11 %.
    fn append_to_log(&self, records: &[EventRecord]) {
        let mut log = self.log.lock();
        for rec in records {
            if log.len() < EVENT_LOG_CAP {
                log.push_back(rec.clone());
            } else if let Some(mut oldest) = log.pop_front() {
                overwrite(&mut oldest, rec);
                log.push_back(oldest);
            }
        }
    }

    /// The event log: the last [`EVENT_LOG_CAP`] records published, oldest
    /// first. Empty after a restart — it is neither journaled nor
    /// snapshotted.
    pub fn log(&self) -> Vec<EventRecord> {
        self.log.lock().iter().cloned().collect()
    }

    /// Enqueue one delivery: a fresh per-delivery batch id around the shared
    /// record batch. A full queue gets exactly one retry (a racing consumer
    /// may have freed space); a successful retry counts as delivered, a
    /// still-full queue drops the new batch exactly once — a batch id is
    /// never enqueued twice.
    fn deliver(
        &self,
        sub: &Subscription,
        records: &Arc<[EventRecord]>,
        shared: &SharedEventBody,
        delivered: &mut usize,
        newly_lossy: &mut Vec<String>,
    ) {
        let metrics = event_metrics();
        let batch_id = self.next_event.fetch_add(1, Ordering::AcqRel);
        let mut ev = EventEnvelope::new(batch_id, Arc::clone(records), shared.clone());
        let mut retried = false;
        loop {
            match sub.tx.try_send(ev) {
                Ok(()) => {
                    *delivered += 1;
                    metrics.delivered.inc();
                    break;
                }
                Err(TrySendError::Full(back)) => {
                    if retried {
                        self.count_drop(sub, newly_lossy);
                        break;
                    }
                    retried = true;
                    ev = back;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.count_drop(sub, newly_lossy);
                    break;
                }
            }
        }
    }

    /// Record one lost batch; when the subscription's total losses first
    /// exceed its queue depth, mark it for a (one-time) alert.
    fn count_drop(&self, sub: &Subscription, newly_lossy: &mut Vec<String>) {
        let total = sub.dropped.fetch_add(1, Ordering::AcqRel) + 1;
        event_metrics().dropped.inc();
        if total > self.queue_depth as u64 && !sub.drop_alerted.swap(true, Ordering::AcqRel) {
            newly_lossy.push(sub.id.clone());
        }
    }

    /// Latched alert: published once per subscription, the first time its
    /// drop count exceeds the queue depth. Runs without the subscription
    /// lock held; re-entry into `fan_out` is safe and cannot recurse again
    /// for the same subscription because the latch is already set.
    fn alert_lossy_subscriber(&self, id: &str) {
        let origin = ODataId::new(top::SUBSCRIPTIONS).child(id);
        let dropped = self.dropped_count(id);
        ofmf_obs::global().ring().emit(
            ofmf_obs::Severity::Warning,
            "ofmf.events",
            format!(
                "subscription {id} is lossy: {dropped} batches dropped (queue depth {})",
                self.queue_depth
            ),
        );
        self.publish(
            EventType::Alert,
            &origin,
            format!("event subscription {id} dropped {dropped} batches; deliveries are lossy"),
            "Warning",
        );
    }

    /// Next event id the service will assign (diagnostics/tests).
    pub fn peek_next_event_id(&self) -> u64 {
        self.next_event.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::bootstrap;

    fn setup() -> (Registry, EventService) {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let svc = EventService::new(Arc::new(Clock::manual()));
        (reg, svc)
    }

    #[test]
    fn subscribe_registers_resource_and_delivers() {
        let (reg, svc) = setup();
        let (id, rx) = svc.subscribe(&reg, "channel://c1", vec![], vec![]).unwrap();
        assert!(reg.exists(&ODataId::new(top::SUBSCRIPTIONS).child(&id)));
        let n = svc.publish(
            EventType::Alert,
            &ODataId::new("/redfish/v1/Fabrics/CXL0"),
            "link down",
            "Critical",
        );
        assert_eq!(n, 1);
        let batch = rx.try_recv().unwrap();
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.events[0].severity, "Critical");
    }

    #[test]
    fn filters_route_only_matching_events() {
        let (reg, svc) = setup();
        let (_, rx_alerts) = svc
            .subscribe(
                &reg,
                "channel://a",
                vec![EventType::Alert],
                vec![ODataId::new("/redfish/v1/Fabrics/CXL0")],
            )
            .unwrap();
        let (_, rx_all) = svc.subscribe(&reg, "channel://b", vec![], vec![]).unwrap();
        svc.publish(
            EventType::ResourceAdded,
            &ODataId::new("/redfish/v1/Fabrics/CXL0/Zones/z"),
            "zone",
            "OK",
        );
        svc.publish(
            EventType::Alert,
            &ODataId::new("/redfish/v1/Fabrics/IB0/Switches/s"),
            "hot",
            "Warning",
        );
        svc.publish(
            EventType::Alert,
            &ODataId::new("/redfish/v1/Fabrics/CXL0/Switches/s"),
            "down",
            "Critical",
        );
        assert_eq!(rx_all.len(), 3);
        assert_eq!(rx_alerts.len(), 1);
        assert_eq!(rx_alerts.try_recv().unwrap().events[0].message, "down");
    }

    #[test]
    fn root_origin_filter_matches_every_segment() {
        // A filter at the service root spans every top-level collection —
        // the index must treat it as a wildcard, not key it to "".
        let (reg, svc) = setup();
        let (_, rx) = svc
            .subscribe(&reg, "channel://root", vec![], vec![ODataId::new("/redfish/v1")])
            .unwrap();
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/Systems/cn0"), "a", "OK");
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/Fabrics/F0"), "b", "OK");
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn multi_origin_filter_subscription_delivers_once_per_event() {
        // Two filters under the same top-level segment must not double-index
        // (and thus double-deliver) the subscription.
        let (reg, svc) = setup();
        let (_, rx) = svc
            .subscribe(
                &reg,
                "channel://multi",
                vec![],
                vec![
                    ODataId::new("/redfish/v1/Fabrics/CXL0"),
                    ODataId::new("/redfish/v1/Fabrics/CXL1"),
                    ODataId::new("/redfish/v1/Systems/cn0"),
                ],
            )
            .unwrap();
        svc.publish(
            EventType::Alert,
            &ODataId::new("/redfish/v1/Fabrics/CXL0/Switches/s"),
            "x",
            "OK",
        );
        assert_eq!(rx.len(), 1, "exactly one delivery");
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/Systems/cn0"), "y", "OK");
        assert_eq!(rx.len(), 2);
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/Chassis/c0"), "z", "OK");
        assert_eq!(rx.len(), 2, "unrelated segment filtered out");
    }

    #[test]
    fn fanout_shares_one_record_batch_across_subscribers() {
        let (reg, svc) = setup();
        let (_, rx1) = svc.subscribe(&reg, "channel://a", vec![], vec![]).unwrap();
        let (_, rx2) = svc.subscribe(&reg, "channel://b", vec![], vec![]).unwrap();
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "m", "OK");
        let b1 = rx1.try_recv().unwrap();
        let b2 = rx2.try_recv().unwrap();
        // Zero-copy: both subscribers hold the same allocation…
        assert!(Arc::ptr_eq(&b1.events, &b2.events));
        // …and the wire body is serialized once and spliced per delivery.
        let w1: serde_json::Value = serde_json::from_str(&b1.wire_json().unwrap()).unwrap();
        let w2: serde_json::Value = serde_json::from_str(&b2.wire_json().unwrap()).unwrap();
        assert_eq!(w1["Events"], w2["Events"]);
        // …while the batch ids stay per-delivery.
        assert_ne!(b1.id, b2.id);
    }

    #[test]
    fn unsubscribe_removes_resource_and_stops_delivery() {
        let (reg, svc) = setup();
        let (id, _rx) = svc.subscribe(&reg, "channel://c", vec![], vec![]).unwrap();
        svc.unsubscribe(&reg, &id).unwrap();
        assert_eq!(svc.subscription_count(), 0);
        assert!(!reg.exists(&ODataId::new(top::SUBSCRIPTIONS).child(&id)));
        assert_eq!(
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "m", "OK"),
            0
        );
        assert!(matches!(svc.unsubscribe(&reg, &id), Err(RedfishError::NotFound(_))));
    }

    #[test]
    fn journaled_subscriptions_replay_to_the_live_table() {
        let dir = std::env::temp_dir().join(format!("ofmf-events-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(Wal::open(&dir, ofmf_wal::FsyncPolicy::Off).unwrap());
        let (reg, svc) = setup();
        let svc = svc.with_journal(Some(Arc::clone(&wal)));
        let cxl0 = ODataId::new("/redfish/v1/Fabrics/CXL0");
        svc.subscribe(&reg, "channel://c1", vec![EventType::Alert], vec![cxl0.clone()])
            .unwrap();
        let (gone, _rx) = svc.subscribe(&reg, "channel://c2", vec![], vec![]).unwrap();
        svc.unsubscribe(&reg, &gone).unwrap();
        // Past id 9: a snapshot lists ids as strings ("10" before "3"), and
        // replay still re-installs them in numeric order.
        for i in 3..=11 {
            svc.subscribe(&reg, &format!("channel://c{i}"), vec![], vec![]).unwrap();
        }

        // "Restart" from the journal, and from its compacted snapshot form.
        for records in [wal.replay().unwrap().records, svc.snapshot_records()] {
            let (reg2, svc2) = setup();
            svc2.replay(&records);
            assert_eq!(svc2.snapshot_records(), svc.snapshot_records());
            // The filters route again, to subscribers whose consumers are
            // gone: each matching delivery counts as a drop.
            assert_eq!(
                svc2.publish(EventType::Alert, &cxl0.child("Switches"), "down", "Critical"),
                0
            );
            svc2.publish(EventType::ResourceAdded, &cxl0, "zone", "OK");
            assert_eq!((svc2.dropped_count("1"), svc2.dropped_count("3")), (1, 2));
            // New ids are allocated above the restored ones.
            let (next, _rx) = svc2.subscribe(&reg2, "channel://new", vec![], vec![]).unwrap();
            assert_eq!(next, "12");
            assert_eq!(svc2.subscription_count(), 11);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_recycled_log_record_is_overwritten_in_its_own_buffers() {
        let port = ODataId::new("/redfish/v1/Fabrics/CXL0/Switches/sw0/Ports/p17");
        let mut slot = EventRecord::new(EventType::Alert, 1_000_001, &port, "x".repeat(64), "Critical", 5);
        let buffers = (
            slot.message.as_ptr(),
            slot.origin_of_condition.odata_id.as_str().as_ptr(),
        );
        let rec = EventRecord::new(
            EventType::StatusChange,
            7,
            &ODataId::new("/redfish/v1/Fabrics/IB0"),
            "up",
            "OK",
            9,
        );
        overwrite(&mut slot, &rec);
        assert_eq!(
            serde_json::to_value(&slot).unwrap(),
            serde_json::to_value(&rec).unwrap()
        );
        let after = (
            slot.message.as_ptr(),
            slot.origin_of_condition.odata_id.as_str().as_ptr(),
        );
        assert_eq!(after, buffers, "no buffer was reallocated");
    }

    #[test]
    fn subscribe_failure_leaves_table_untouched() {
        let (reg, svc) = setup();
        let (first, _rx) = svc.subscribe(&reg, "channel://ok", vec![], vec![]).unwrap();
        // Squat on the id the service will allocate next, so reg.create fails.
        let next: u64 = first.parse::<u64>().unwrap() + 1;
        let squatted = ODataId::new(top::SUBSCRIPTIONS).child(&next.to_string());
        reg.create(
            &squatted,
            serde_json::json!({"Id": next.to_string(), "Name": "squatter"}),
        )
        .unwrap();
        let err = match svc.subscribe(&reg, "channel://fails", vec![], vec![]) {
            Err(e) => e,
            Ok(_) => panic!("subscribe over a squatted id must fail"),
        };
        assert!(matches!(err, RedfishError::AlreadyExists(_)), "{err}");
        assert_eq!(svc.subscription_count(), 1, "failed subscribe left no entry");
        // The failed attempt consumed an id but delivery still works.
        assert_eq!(
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "m", "OK"),
            1
        );
    }

    #[test]
    fn unsubscribe_tolerates_already_deleted_resource() {
        let (reg, svc) = setup();
        let (id, _rx) = svc.subscribe(&reg, "channel://c", vec![], vec![]).unwrap();
        // The resource vanishes behind the service's back.
        reg.delete(&ODataId::new(top::SUBSCRIPTIONS).child(&id)).unwrap();
        // Unsubscribe still succeeds and both views agree.
        svc.unsubscribe(&reg, &id).unwrap();
        assert_eq!(svc.subscription_count(), 0);
    }

    #[test]
    fn unsubscribe_restores_subscription_when_delete_fails() {
        let (reg, svc) = setup();
        let (id, rx) = svc.subscribe(&reg, "channel://c", vec![], vec![]).unwrap();
        // A child resource under the EventDestination makes reg.delete
        // refuse with Conflict.
        let sub_path = ODataId::new(top::SUBSCRIPTIONS).child(&id);
        reg.create(&sub_path.child("pin"), serde_json::json!({"Name": "pin"}))
            .unwrap();
        let err = svc.unsubscribe(&reg, &id).unwrap_err();
        assert!(matches!(err, RedfishError::Conflict(_)), "{err}");
        // Consistent state: the subscription survived and still delivers.
        assert_eq!(svc.subscription_count(), 1);
        assert_eq!(
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "m", "OK"),
            1
        );
        assert!(rx.try_recv().is_ok());
        // Unpin and the unsubscribe goes through.
        reg.delete(&sub_path.child("pin")).unwrap();
        svc.unsubscribe(&reg, &id).unwrap();
        assert_eq!(svc.subscription_count(), 0);
    }

    #[test]
    fn full_queue_drops_and_counts() {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let svc = EventService::new(Arc::new(Clock::manual())).with_queue_depth(2);
        let (id, rx) = svc.subscribe(&reg, "channel://slow", vec![], vec![]).unwrap();
        for i in 0..5 {
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), format!("m{i}"), "OK");
        }
        assert!(svc.dropped_count(&id) >= 1, "drops recorded");
        assert_eq!(rx.len(), 2, "queue bounded");
    }

    #[test]
    fn racing_consumer_never_sees_a_batch_id_twice() {
        // Regression for the full-queue duplicate-delivery bug: the old
        // retry path could enqueue the same batch twice when a consumer
        // freed space mid-retry (and never counted the successful retry).
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let svc = Arc::new(EventService::new(Arc::new(Clock::manual())).with_queue_depth(2));
        let (_, rx) = svc.subscribe(&reg, "channel://racer", vec![], vec![]).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = std::collections::HashSet::new();
                let mut dup = None;
                loop {
                    match rx.try_recv() {
                        Ok(batch) => {
                            if !seen.insert(batch.id) {
                                dup = Some(batch.id);
                                break;
                            }
                        }
                        Err(_) => {
                            if stop.load(Ordering::Acquire) && rx.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                dup
            })
        };

        let publishers: Vec<_> = (0..2)
            .map(|t| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for i in 0..2000 {
                        svc.publish(
                            EventType::Alert,
                            &ODataId::new("/redfish/v1/x"),
                            format!("t{t}-m{i}"),
                            "OK",
                        );
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let dup = consumer.join().unwrap();
        assert_eq!(dup, None, "a batch id was observed twice");
    }

    #[test]
    fn delivered_metric_counts_successful_retry() {
        // The retry that squeezes into a freed slot must count as delivered,
        // not silently succeed (or worse, be recorded as a drop).
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let svc = EventService::new(Arc::new(Clock::manual())).with_queue_depth(1);
        let (id, rx) = svc.subscribe(&reg, "channel://tight", vec![], vec![]).unwrap();
        assert_eq!(
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "a", "OK"),
            1
        );
        // Queue full now: this one drops (retry also fails, no consumer).
        assert_eq!(
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "b", "OK"),
            0
        );
        assert_eq!(svc.dropped_count(&id), 1);
        // Drain and the next publish is delivered (and counted) again.
        rx.try_recv().unwrap();
        assert_eq!(
            svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "c", "OK"),
            1
        );
        assert_eq!(svc.dropped_count(&id), 1);
    }

    #[test]
    fn lossy_subscriber_alert_fires_once_and_latches() {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let svc = EventService::new(Arc::new(Clock::manual())).with_queue_depth(2);
        let (slow_id, _slow_rx) = svc.subscribe(&reg, "channel://slow", vec![], vec![]).unwrap();
        // Watcher filtered to alerts about the slow subscription only, so
        // the flood below never fills its own queue.
        let sub_path = ODataId::new(top::SUBSCRIPTIONS).child(&slow_id);
        let (_, watch_rx) = svc
            .subscribe(&reg, "channel://watch", vec![EventType::Alert], vec![sub_path.clone()])
            .unwrap();

        // Flood without draining: drops accumulate past the queue depth.
        for i in 0..10 {
            svc.publish(
                EventType::ResourceUpdated,
                &ODataId::new("/redfish/v1/x"),
                format!("m{i}"),
                "OK",
            );
        }
        assert!(svc.dropped_count(&slow_id) > 2);
        assert_eq!(watch_rx.len(), 1, "exactly one latched alert");
        let alert = watch_rx.try_recv().unwrap();
        assert_eq!(alert.events[0].severity, "Warning");
        assert!(alert.events[0].message.contains(&slow_id));
        assert_eq!(alert.events[0].origin_of_condition.odata_id, sub_path);

        // Still latched: further losses never re-alert.
        for i in 0..10 {
            svc.publish(
                EventType::ResourceUpdated,
                &ODataId::new("/redfish/v1/x"),
                format!("n{i}"),
                "OK",
            );
        }
        assert_eq!(watch_rx.len(), 0, "alert latched");
    }

    #[test]
    fn disconnected_receiver_counts_drops() {
        let (reg, svc) = setup();
        let (id, rx) = svc.subscribe(&reg, "channel://gone", vec![], vec![]).unwrap();
        drop(rx);
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "m", "OK");
        assert_eq!(svc.dropped_count(&id), 1);
    }

    #[test]
    fn timestamps_come_from_service_clock() {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let clock = Arc::new(Clock::manual());
        let svc = EventService::new(Arc::clone(&clock));
        let (_, rx) = svc.subscribe(&reg, "channel://c", vec![], vec![]).unwrap();
        clock.advance_ms(777);
        svc.publish(EventType::Alert, &ODataId::new("/redfish/v1/x"), "m", "OK");
        assert_eq!(rx.try_recv().unwrap().events[0].event_timestamp, 777);
    }
}
