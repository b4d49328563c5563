//! The metric registry: sharded counters, gauges, log-bucketed
//! histograms, and Prometheus-style exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histo`]) are cheap `Arc` clones
//! that stay valid for the life of the process; call sites cache them
//! (typically in a `OnceLock`) and never touch the registry lock again.
//! Every handle carries its registry's *enabled* flag, so a disabled
//! metric costs a single relaxed atomic load per operation — the
//! invariant the instrumented solver kernels rely on.

use crate::buckets::LogBuckets;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shards per counter. Eight padded cells cover the worker counts this
/// workspace uses (the service defaults to a handful of workers) while
/// keeping an idle counter at 512 bytes.
const SHARDS: usize = 8;

/// One cache line per shard so concurrent writers on different cores
/// never bounce the same line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

fn shard_index() -> usize {
    // Round-robin shard assignment at first use per thread: stable for
    // the thread's lifetime, uniformly spread across shards.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

struct CounterCell {
    enabled: Arc<AtomicBool>,
    shards: [PaddedU64; SHARDS],
}

/// A monotonically increasing counter, sharded across padded atomic
/// cells so concurrent increments from different threads don't contend.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. When the owning registry is disabled this is one relaxed
    /// atomic load and an early return.
    #[inline]
    pub fn add(&self, n: u64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.0.shards[shard_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (sum over shards).
    pub fn get(&self) -> u64 {
        self.0
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

struct GaugeCell {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
}

/// A settable instantaneous value (queue depths, rates).
#[derive(Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Add (possibly negative) `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.0.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

struct HistoCell {
    enabled: Arc<AtomicBool>,
    layout: LogBuckets,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-bucketed histogram over non-negative integer samples
/// (durations in the unit the metric name declares, sizes, …).
///
/// The bucket layout is one zero bucket plus four linear sub-buckets
/// per power of two, so a bucket midpoint is within ~12.5 % of any
/// sample it absorbed — enough for latency quantiles without
/// per-sample storage.
#[derive(Clone)]
pub struct Histo(Arc<HistoCell>);

impl Histo {
    /// Record one sample. Disabled: one relaxed load.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return;
        }
        let idx = self.0.layout.index(value);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile from bucket midpoints (`None` when
    /// empty): the midpoint of the bucket that holds the
    /// `ceil(q · count)`-th sample.
    pub fn approx_quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (idx, bucket) in self.0.buckets.iter().enumerate() {
            acc += bucket.load(Ordering::Relaxed);
            if acc >= target {
                return Some(self.0.layout.midpoint(idx));
            }
        }
        None
    }

    /// Non-empty buckets as `(lower_edge, upper_edge_exclusive, count)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| {
                    (
                        self.0.layout.lower_edge(idx),
                        self.0.layout.upper_edge(idx),
                        c,
                    )
                })
            })
            .collect()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histo(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    metric: Metric,
}

/// A named collection of metrics.
///
/// The workspace keeps one [`global()`] registry for library kernels and
/// lets long-lived components (a daemon core) own private registries, so
/// concurrent tests never observe each other's counters. Registration is
/// get-or-create by name; looking a name up twice returns handles to the
/// same underlying cells.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turn recording on or off for every metric of this registry.
    /// Reads (`get`, exposition) keep working either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether this registry currently records.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce(&Self) -> Metric) -> Metric {
        let mut entries = self.entries.lock().expect("metrics registry lock");
        if let Some(e) = entries.get(name) {
            return e.metric.clone();
        }
        let metric = make(self);
        entries.insert(
            name.to_string(),
            Entry {
                help: help.to_string(),
                metric: metric.clone(),
            },
        );
        metric
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.get_or_insert(name, help, |r| {
            Metric::Counter(Counter(Arc::new(CounterCell {
                enabled: Arc::clone(&r.enabled),
                shards: Default::default(),
            })))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.get_or_insert(name, help, |r| {
            Metric::Gauge(Gauge(Arc::new(GaugeCell {
                enabled: Arc::clone(&r.enabled),
                value: AtomicI64::new(0),
            })))
        }) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histo {
        match self.get_or_insert(name, help, |r| {
            let layout = LogBuckets::new(4);
            let buckets = (0..layout.len()).map(|_| AtomicU64::new(0)).collect();
            Metric::Histo(Histo(Arc::new(HistoCell {
                enabled: Arc::clone(&r.enabled),
                layout,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })))
        }) {
            Metric::Histo(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Render every metric in the Prometheus text exposition format.
    ///
    /// Histograms emit cumulative `_bucket{le="…"}` samples at their
    /// non-empty bucket edges plus `le="+Inf"`, and `_sum`/`_count` —
    /// a sparse but valid sampling of the CDF.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let entries = self.entries.lock().expect("metrics registry lock");
        let mut out = String::new();
        for (name, e) in entries.iter() {
            if !e.help.is_empty() {
                writeln!(out, "# HELP {name} {}", e.help).expect("write to string");
            }
            writeln!(out, "# TYPE {name} {}", e.metric.kind()).expect("write to string");
            match &e.metric {
                Metric::Counter(c) => writeln!(out, "{name} {}", c.get()).expect("write to string"),
                Metric::Gauge(g) => writeln!(out, "{name} {}", g.get()).expect("write to string"),
                Metric::Histo(h) => {
                    let mut cum = 0u64;
                    for (_, hi, count) in h.nonzero_buckets() {
                        cum += count;
                        if hi == u64::MAX {
                            continue; // folded into +Inf below
                        }
                        writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}")
                            .expect("write to string");
                    }
                    writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count())
                        .expect("write to string");
                    writeln!(out, "{name}_sum {}", h.sum()).expect("write to string");
                    writeln!(out, "{name}_count {}", h.count()).expect("write to string");
                }
            }
        }
        out
    }
}

/// The process-wide registry used by library kernels (distance builds,
/// search, netsim) that cannot carry a registry through their APIs.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Enable or disable recording on the [`global()`] registry.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let r = Registry::new();
        let c = r.counter("test_ops_total", "ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same cells.
        let c2 = r.counter("test_ops_total", "ops");
        c2.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn counter_shards_merge_across_threads() {
        let r = Registry::new();
        let c = r.counter("mt_ops_total", "ops");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth", "queue depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("lat_ms", "latency");
        for v in [0, 1, 2, 3, 100, 100, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1306);
        let p50 = h.approx_quantile(0.5).unwrap();
        assert!((3.0..=120.0).contains(&p50), "p50 = {p50}");
        let p99 = h.approx_quantile(0.99).unwrap();
        assert!(p99 > 500.0, "p99 = {p99}");
        assert_eq!(
            h.approx_quantile(0.0).unwrap(),
            h.approx_quantile(0.01).unwrap()
        );
        // Empty histogram has no quantiles.
        let empty = r.histogram("empty", "");
        assert_eq!(empty.approx_quantile(0.5), None);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        let c = r.counter("c_total", "");
        let g = r.gauge("g", "");
        let h = r.histogram("h", "");
        r.set_enabled(false);
        assert!(!r.enabled());
        c.inc();
        g.set(9);
        h.record(5);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        // Re-enabling resumes recording on the same cells.
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", "");
        let _ = r.gauge("x", "");
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("jobs_total", "jobs run").add(3);
        r.gauge("queue_depth", "pending").set(2);
        let h = r.histogram("wait_ms", "queue wait");
        h.record(0);
        h.record(9);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 3"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 2"));
        assert!(text.contains("# TYPE wait_ms histogram"));
        assert!(text.contains("wait_ms_count 2"));
        assert!(text.contains("wait_ms_sum 9"));
        assert!(text.contains("wait_ms_bucket{le=\"+Inf\"} 2"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("wait_ms_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative bucket decreased: {line}");
            last = v;
        }
    }

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("global_smoke_total", "");
        let b = global().counter("global_smoke_total", "");
        a.inc();
        b.inc();
        assert!(a.get() >= 2);
    }
}
