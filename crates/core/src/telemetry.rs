//! The OFMF telemetry service: metric ingestion, windowed aggregation,
//! report generation and threshold alerting.
//!
//! Agents push raw samples; the service keeps a bounded window per
//! `(metric, origin)` series, materializes `MetricReport` resources into the
//! tree on demand (or on a cadence driven by the caller), and raises
//! `MetricReport`/`Alert` events when thresholds trip.
//!
//! # Ingest at scale
//!
//! The series store is lock-striped: metric ids hash (FNV-1a, the same
//! function the sharded registry uses) to one of 16 shards, each an
//! independent `RwLock` over a two-level `metric → origin → Series` map.
//! Concurrent ingesting threads carrying different metrics proceed without
//! contending. Metric ids are interned
//! `Arc<str>` end-to-end (agents sample them as `Arc<str>`), so a sample's
//! journey from agent to series costs refcount bumps, not `String` +
//! `ODataId` clones. Threshold rules are pre-grouped by metric id, so the
//! per-sample check is one hash lookup instead of a scan of every rule.

use crate::agent::AgentMetric;
use crate::clock::Clock;
use crate::events::EventService;
use ofmf_obs::Counter;
use parking_lot::RwLock;
use redfish_model::odata::ODataId;
use redfish_model::path::{fnv1a, top};
use redfish_model::resources::events::EventType;
use redfish_model::resources::telemetry::{MetricReport, MetricValue};
use redfish_model::resources::Resource;
use redfish_model::{RedfishResult, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Samples kept per series.
pub const WINDOW: usize = 128;

/// Number of lock stripes in the series store.
const STRIPES: usize = 16;

/// A threshold rule: alert when `metric` at any origin crosses `limit`.
#[derive(Debug, Clone)]
pub struct Threshold {
    /// Metric name to watch.
    pub metric_id: String,
    /// Upper limit; a sample strictly above it trips the rule.
    pub upper: f64,
    /// Severity attached to the alert.
    pub severity: String,
}

struct TelemetryMetrics {
    /// `ofmf.telemetry.ingest.samples.total`
    samples: Arc<Counter>,
    /// `ofmf.telemetry.shard.contention` — ingest calls that found their
    /// shard's lock held and had to wait.
    contention: Arc<Counter>,
}

fn telemetry_metrics() -> &'static TelemetryMetrics {
    static METRICS: OnceLock<TelemetryMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TelemetryMetrics {
        samples: ofmf_obs::counter("ofmf.telemetry.ingest.samples.total"),
        contention: ofmf_obs::counter("ofmf.telemetry.shard.contention"),
    })
}

#[derive(Debug, Default)]
struct Series {
    samples: VecDeque<(u64, f64)>,
}

impl Series {
    fn push(&mut self, t: u64, v: f64) {
        if self.samples.len() == WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back((t, v));
    }

    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }

    /// Window minimum; `None` for an empty window (never ±infinity).
    fn min(&self) -> Option<f64> {
        self.samples.iter().map(|(_, v)| *v).reduce(f64::min)
    }

    /// Window maximum; `None` for an empty window (never ±infinity).
    fn max(&self) -> Option<f64> {
        self.samples.iter().map(|(_, v)| *v).reduce(f64::max)
    }

    fn last(&self) -> Option<(u64, f64)> {
        self.samples.back().copied()
    }
}

/// Which window statistic a report definition collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Most recent sample.
    Latest,
    /// Window average.
    Average,
    /// Window minimum.
    Minimum,
    /// Window maximum.
    Maximum,
}

impl Aggregate {
    fn label(self) -> &'static str {
        match self {
            Aggregate::Latest => "Latest",
            Aggregate::Average => "Average",
            Aggregate::Minimum => "Minimum",
            Aggregate::Maximum => "Maximum",
        }
    }
}

/// A report definition: which metric to collect, how to aggregate it, and
/// the Redfish `MetricReportDefinition` id it materializes under.
#[derive(Debug, Clone)]
pub struct ReportDefinition {
    /// Definition member id.
    pub id: String,
    /// Metric name to include (every origin is reported).
    pub metric_id: String,
    /// Window statistic.
    pub aggregate: Aggregate,
}

/// One lock stripe: interned metric id → origin → series. The two-level
/// shape means one `Arc<str>` key per metric (not per `(metric, origin)`
/// pair) and metric-scoped scans (reports, thresholds) touch one entry.
type Shard = RwLock<HashMap<Arc<str>, HashMap<ODataId, Series>>>;

/// Stripe index of a metric id. Always `< STRIPES`.
fn stripe_of(metric: &str) -> usize {
    (fnv1a(metric.as_bytes()) % STRIPES as u64) as usize
}

/// The telemetry service.
pub struct TelemetryService {
    clock: Arc<Clock>,
    shards: [Shard; STRIPES],
    /// Threshold rules pre-grouped by metric id: the per-sample check is a
    /// single hash lookup, not a scan of every installed rule.
    thresholds: RwLock<HashMap<String, Vec<Threshold>>>,
    definitions: RwLock<Vec<ReportDefinition>>,
    next_report: AtomicU64,
}

impl TelemetryService {
    /// New service using `clock` for sample timestamps.
    pub fn new(clock: Arc<Clock>) -> Self {
        TelemetryService {
            clock,
            shards: Default::default(),
            thresholds: RwLock::new(HashMap::new()),
            definitions: RwLock::new(Vec::new()),
            next_report: AtomicU64::new(1),
        }
    }

    /// The shard holding `metric`. Total without a bounds escape: the array
    /// is never empty and `stripe_of` is always in range, so the fallback
    /// is unreachable.
    fn shard_of(&self, metric: &str) -> &Shard {
        let [first, ..] = &self.shards;
        self.shards.get(stripe_of(metric)).unwrap_or(first)
    }

    /// Install a report definition. Reports for it are generated by
    /// [`TelemetryService::generate_defined_reports`].
    pub fn add_definition(&self, d: ReportDefinition) {
        self.definitions.write().push(d);
    }

    /// Generate one `MetricReport` per installed definition, each holding
    /// the defined aggregate of every origin tracked for that metric.
    /// Returns the report ids.
    pub fn generate_defined_reports(&self, reg: &Registry, events: &EventService) -> RedfishResult<Vec<ODataId>> {
        let defs = self.definitions.read().clone();
        let col = ODataId::new(top::METRIC_REPORTS);
        let mut out = Vec::with_capacity(defs.len());
        for d in defs {
            let seq = self.next_report.fetch_add(1, Ordering::AcqRel);
            let values: Vec<MetricValue> = {
                let shard = self.shard_of(&d.metric_id).read();
                let mut v: Vec<MetricValue> = shard
                    .get(d.metric_id.as_str())
                    .into_iter()
                    .flatten()
                    .filter_map(|(origin, s)| {
                        let (t, val) = match d.aggregate {
                            Aggregate::Latest => s.last()?,
                            Aggregate::Average => (self.clock.now_ms(), s.mean()),
                            Aggregate::Minimum => (self.clock.now_ms(), s.min()?),
                            Aggregate::Maximum => (self.clock.now_ms(), s.max()?),
                        };
                        Some(MetricValue {
                            metric_id: format!("{}:{}", d.metric_id, d.aggregate.label()),
                            metric_value: format!("{val}"),
                            metric_property: origin.as_str().to_string(),
                            timestamp_ms: t,
                        })
                    })
                    .collect();
                v.sort_by(|a, b| a.metric_property.cmp(&b.metric_property));
                v
            };
            let id = format!("{}-{seq}", d.id);
            let report = MetricReport::new(&col, &id, seq, values);
            let rid = col.child(&id);
            reg.create(&rid, report.to_value())?;
            events.publish(
                EventType::MetricReport,
                &rid,
                format!("defined report {id} ready"),
                "OK",
            );
            out.push(rid);
        }
        Ok(out)
    }

    /// Install a threshold rule.
    pub fn add_threshold(&self, t: Threshold) {
        self.thresholds.write().entry(t.metric_id.clone()).or_default().push(t);
    }

    /// Ingest a batch of agent samples. Threshold violations are published
    /// as `Alert` events on `events`. Returns the number of alerts raised.
    ///
    /// Samples are bucketed per shard so each stripe is locked exactly once
    /// per batch, however large the batch; batches carrying disjoint metrics
    /// ingest fully in parallel.
    pub fn ingest(&self, samples: &[AgentMetric], events: &EventService) -> usize {
        let metrics = telemetry_metrics();
        metrics.samples.add(samples.len() as u64);
        let now = self.clock.now_ms();
        let mut buckets: [Vec<&AgentMetric>; STRIPES] = Default::default();
        for s in samples {
            if let Some(bucket) = buckets.get_mut(stripe_of(&s.metric_id)) {
                bucket.push(s);
            }
        }
        for (shard, bucket) in self.shards.iter().zip(buckets) {
            if !bucket.is_empty() {
                self.write_shard(shard, bucket, now);
            }
        }
        let mut alerts = 0;
        let thresholds = self.thresholds.read();
        if thresholds.is_empty() {
            return 0;
        }
        for s in samples {
            let Some(rules) = thresholds.get(&*s.metric_id) else {
                continue;
            };
            for t in rules {
                if s.value > t.upper {
                    events.publish(
                        EventType::Alert,
                        &s.origin,
                        format!("{} = {:.2} exceeds limit {:.2}", s.metric_id, s.value, t.upper),
                        &t.severity,
                    );
                    alerts += 1;
                }
            }
        }
        alerts
    }

    /// Push one bucket of samples under a single shard lock, counting the
    /// acquisition as contended if the stripe was already held.
    fn write_shard(&self, shard: &Shard, bucket: Vec<&AgentMetric>, now: u64) {
        let mut guard = match shard.try_write() {
            Some(g) => g,
            None => {
                telemetry_metrics().contention.inc();
                shard.write()
            }
        };
        for s in bucket {
            let by_origin = match guard.get_mut(&*s.metric_id) {
                Some(m) => m,
                // First sighting of this metric id: intern it (one Arc
                // refcount bump — the agent already holds it as Arc<str>).
                None => guard.entry(Arc::clone(&s.metric_id)).or_default(),
            };
            // Origins are few and stable per metric; clone only on first
            // sighting via the entry API.
            match by_origin.get_mut(&s.origin) {
                Some(series) => series.push(now, s.value),
                None => by_origin.entry(s.origin.clone()).or_default().push(now, s.value),
            }
        }
    }

    /// Number of distinct `(metric, origin)` series being tracked.
    pub fn series_count(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.read().values().map(HashMap::len).sum::<usize>()) // ofmf-lint: allow(lock-discipline, "stripes are visited in ascending index order on every path")
            .sum()
    }

    /// Latest value of a series, if any.
    pub fn latest(&self, metric_id: &str, origin: &ODataId) -> Option<f64> {
        self.shard_of(metric_id)
            .read()
            .get(metric_id)
            .and_then(|m| m.get(origin))
            .and_then(|s| s.last())
            .map(|(_, v)| v)
    }

    /// Window mean of a series, if tracked.
    pub fn mean(&self, metric_id: &str, origin: &ODataId) -> Option<f64> {
        self.shard_of(metric_id)
            .read()
            .get(metric_id)
            .and_then(|m| m.get(origin))
            .map(Series::mean)
    }

    /// Materialize a `MetricReport` of every series' latest sample into the
    /// tree and announce it. Returns the report id.
    pub fn generate_report(&self, reg: &Registry, events: &EventService) -> RedfishResult<ODataId> {
        let seq = self.next_report.fetch_add(1, Ordering::AcqRel);
        let col = ODataId::new(top::METRIC_REPORTS);
        let id = format!("report{seq}");
        let mut values: Vec<MetricValue> = Vec::new();
        for sh in self.shards.iter() {
            let shard = sh.read();
            for (metric, by_origin) in shard.iter() {
                for (origin, s) in by_origin {
                    if let Some((t, val)) = s.last() {
                        values.push(MetricValue {
                            metric_id: metric.to_string(),
                            metric_value: format!("{val}"),
                            metric_property: origin.as_str().to_string(),
                            timestamp_ms: t,
                        });
                    }
                }
            }
        }
        values.sort_by(|a, b| {
            (a.metric_property.as_str(), a.metric_id.as_str()).cmp(&(b.metric_property.as_str(), b.metric_id.as_str()))
        });
        let report = MetricReport::new(&col, &id, seq, values);
        let rid = col.child(&id);
        reg.create(&rid, report.to_value())?;
        events.publish(EventType::MetricReport, &rid, format!("metric report {id} ready"), "OK");
        Ok(rid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::bootstrap;

    fn setup() -> (Registry, EventService, TelemetryService, Arc<Clock>) {
        let reg = Registry::new();
        bootstrap(&reg, "u").unwrap();
        let clock = Arc::new(Clock::manual());
        let ev = EventService::new(Arc::clone(&clock));
        let tel = TelemetryService::new(Arc::clone(&clock));
        (reg, ev, tel, clock)
    }

    fn metric(id: &str, origin: &str, value: f64) -> AgentMetric {
        AgentMetric {
            metric_id: id.into(),
            origin: ODataId::new(origin),
            value,
        }
    }

    #[test]
    fn ingest_tracks_series_and_means() {
        let (_reg, ev, tel, clock) = setup();
        tel.ingest(&[metric("Temp", "/redfish/v1/Chassis/c0", 50.0)], &ev);
        clock.advance_ms(10);
        tel.ingest(&[metric("Temp", "/redfish/v1/Chassis/c0", 70.0)], &ev);
        assert_eq!(tel.series_count(), 1);
        assert_eq!(tel.latest("Temp", &ODataId::new("/redfish/v1/Chassis/c0")), Some(70.0));
        assert_eq!(tel.mean("Temp", &ODataId::new("/redfish/v1/Chassis/c0")), Some(60.0));
    }

    #[test]
    fn threshold_raises_alert() {
        let (reg, ev, tel, _clock) = setup();
        let (_, rx) = ev
            .subscribe(&reg, "channel://c", vec![EventType::Alert], vec![])
            .unwrap();
        tel.add_threshold(Threshold {
            metric_id: "Temp".into(),
            upper: 80.0,
            severity: "Critical".into(),
        });
        let n = tel.ingest(&[metric("Temp", "/redfish/v1/Chassis/c0", 85.0)], &ev);
        assert_eq!(n, 1);
        let batch = rx.try_recv().unwrap();
        assert!(batch.events[0].message.contains("exceeds limit"));
        // Below threshold: no alert.
        assert_eq!(tel.ingest(&[metric("Temp", "/redfish/v1/Chassis/c0", 75.0)], &ev), 0);
        // A rule on a different metric never fires for Temp samples.
        tel.add_threshold(Threshold {
            metric_id: "Power".into(),
            upper: 0.0,
            severity: "Warning".into(),
        });
        assert_eq!(tel.ingest(&[metric("Temp", "/redfish/v1/Chassis/c0", 79.0)], &ev), 0);
    }

    #[test]
    fn report_materializes_into_tree() {
        let (reg, ev, tel, _clock) = setup();
        tel.ingest(
            &[
                metric("Temp", "/redfish/v1/Chassis/c0", 55.0),
                metric("PowerConsumedWatts", "/redfish/v1/Chassis/c0", 120.0),
            ],
            &ev,
        );
        let rid = tel.generate_report(&reg, &ev).unwrap();
        let body = reg.get(&rid).unwrap().body;
        assert_eq!(body["MetricValues"].as_array().unwrap().len(), 2);
        assert_eq!(body["ReportSequence"], 1);
        // Reports land in the collection.
        let members = reg.members(&ODataId::new(top::METRIC_REPORTS)).unwrap();
        assert_eq!(members, vec![rid]);
    }

    #[test]
    fn defined_reports_aggregate_per_metric() {
        let (reg, ev, tel, clock) = setup();
        tel.add_definition(ReportDefinition {
            id: "temp-max".into(),
            metric_id: "Temp".into(),
            aggregate: Aggregate::Maximum,
        });
        tel.add_definition(ReportDefinition {
            id: "temp-avg".into(),
            metric_id: "Temp".into(),
            aggregate: Aggregate::Average,
        });
        for v in [50.0, 70.0, 60.0] {
            tel.ingest(&[metric("Temp", "/redfish/v1/Chassis/c0", v)], &ev);
            clock.advance_ms(1);
        }
        // A different metric must not appear in the Temp reports.
        tel.ingest(&[metric("Power", "/redfish/v1/Chassis/c0", 120.0)], &ev);

        let reports = tel.generate_defined_reports(&reg, &ev).unwrap();
        assert_eq!(reports.len(), 2);
        let max_report = reg.get(&reports[0]).unwrap().body;
        assert_eq!(max_report["MetricValues"][0]["MetricId"], "Temp:Maximum");
        assert_eq!(max_report["MetricValues"][0]["MetricValue"], "70");
        let avg_report = reg.get(&reports[1]).unwrap().body;
        assert_eq!(avg_report["MetricValues"][0]["MetricId"], "Temp:Average");
        assert_eq!(avg_report["MetricValues"][0]["MetricValue"], "60");
        assert_eq!(
            avg_report["MetricValues"].as_array().unwrap().len(),
            1,
            "Power excluded"
        );
    }

    #[test]
    fn empty_series_yields_no_min_max_values() {
        // Regression: an empty window must produce no sample at all, not a
        // MetricValue of ±inf (which is unrepresentable in JSON).
        let s = Series::default();
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);

        let (reg, ev, tel, _clock) = setup();
        tel.add_definition(ReportDefinition {
            id: "temp-min".into(),
            metric_id: "Temp".into(),
            aggregate: Aggregate::Minimum,
        });
        tel.shard_of("Temp")
            .write()
            .entry(Arc::from("Temp"))
            .or_default()
            .insert(ODataId::new("/redfish/v1/Chassis/c0"), Series::default());
        let reports = tel.generate_defined_reports(&reg, &ev).unwrap();
        let body = reg.get(&reports[0]).unwrap().body;
        assert!(
            body["MetricValues"].as_array().unwrap().is_empty(),
            "empty window skipped"
        );
    }

    #[test]
    fn window_is_bounded() {
        let (_reg, ev, tel, _clock) = setup();
        for i in 0..(WINDOW + 50) {
            tel.ingest(&[metric("X", "/redfish/v1/a", i as f64)], &ev);
        }
        // Mean over the retained window only (the first 50 were evicted).
        let mean = tel.mean("X", &ODataId::new("/redfish/v1/a")).unwrap();
        let expect: f64 = (50..WINDOW + 50).map(|i| i as f64).sum::<f64>() / WINDOW as f64;
        assert!((mean - expect).abs() < 1e-9);
    }

    #[test]
    fn parallel_ingest_across_metrics_is_consistent() {
        let (_reg, ev, tel, _clock) = setup();
        let tel = Arc::new(tel);
        let ev = Arc::new(ev);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let tel = Arc::clone(&tel);
                let ev = Arc::clone(&ev);
                std::thread::spawn(move || {
                    let samples: Vec<AgentMetric> = (0..100)
                        .map(|i| metric(&format!("M{t}"), "/redfish/v1/a", i as f64))
                        .collect();
                    tel.ingest(&samples, &ev);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tel.series_count(), 8);
        for t in 0..8 {
            assert_eq!(tel.latest(&format!("M{t}"), &ODataId::new("/redfish/v1/a")), Some(99.0));
        }
    }
}
