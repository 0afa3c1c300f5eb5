//! Named counters, gauges, and histograms with a thread-sharded registry.
//!
//! Kernels report work here (`linalg.matmul.flops` and its SpMM mirror
//! `sparse.spmm.flops` — both 2·(multiply-adds), so a counter delta over a
//! timed call yields FLOP/s directly, as the lifecycle benchmark's kernel
//! probes do — plus `sparse.spmm.nnz`, `sparse.spmm.bytes`, …) and serving
//! paths record latency distributions. Recording is gated on
//! [`crate::metrics_on`], so with no sink and no explicit opt-in every call
//! is a single atomic load. When on, each thread accumulates into its own
//! shard (an uncontended per-thread mutex), so pool workers recording ~30
//! metrics per 25 µs request never serialise on a global lock (a one-lock
//! registry cost 12 % of `online_syn` offline throughput; DESIGN.md §4h).
//! A thread that exits folds its shard into one retired shard and leaves
//! the list, so the registry holds one shard per *live* thread however
//! many connections a server has accepted. [`snapshot`] merges the shards
//! — counters sum, histograms [`Histogram::merge`] exactly, gauges resolve
//! last-write-wins via a global write stamp — into a [`MetricsSnapshot`]
//! that serialises to JSON — the unit the table reports fold into their
//! result dumps and `emit_snapshot` writes to the event log.

use crate::json::Json;
use crate::sink::{emit, enabled, metrics_on, Record};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A log-bucketed histogram of non-negative samples.
///
/// Buckets are powers of two (bucket `i` holds values in `[2^(i-1), 2^i)`,
/// bucket 0 holds `[0, 1)`), which gives ~2x-resolution quantiles over any
/// range without configuration — plenty for latency and fanout tracking.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    /// Same as [`Histogram::new`]. (A derived `Default` would start
    /// `min` at `0.0` instead of `+∞`, permanently pinning the reported
    /// minimum of any histogram created through `or_default()` to zero.)
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, buckets: Vec::new() }
    }

    /// Records one sample (negative samples clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += *src;
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`) with within-bucket linear
    /// interpolation: the fractional rank is located inside its bucket and
    /// the estimate interpolates between the bucket's bounds, assuming
    /// samples spread uniformly within it. Clamped to the observed
    /// `[min, max]`, so the tails never overshoot the data.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let lo_rank = seen as f64;
            seen += n;
            #[allow(clippy::cast_precision_loss)]
            let hi_rank = seen as f64;
            if rank < hi_rank {
                let (lo, hi) = bucket_bounds(i);
                // Midpoint convention: the k-th of n samples in a bucket
                // sits at fraction (k + 0.5) / n of the bucket's width.
                #[allow(clippy::cast_precision_loss)]
                let frac = ((rank - lo_rank) + 0.5) / n as f64;
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Freezes into the summary statistics used in reports.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: if self.count == 0 { 0.0 } else { self.sum / self.count as f64 },
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.5),
            p90: self.quantile(0.9),
            p99: self.quantile(0.99),
        }
    }
}

fn bucket_index(v: f64) -> usize {
    if v < 1.0 {
        0
    } else {
        // 1 + floor(log2(v)), capped to a sane bucket count.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = 1 + v.log2().floor() as usize;
        idx.min(128)
    }
}

/// `[lo, hi)` value bounds of bucket `i` (inverse of [`bucket_index`]).
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 1.0)
    } else {
        let hi = 2f64.powi(i32::try_from(i).unwrap_or(i32::MAX));
        (hi / 2.0, hi)
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Mean sample.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSummary {
    /// JSON object with every summary statistic.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("mean", self.mean)
            .with("min", self.min)
            .with("max", self.max)
            .with("p50", self.p50)
            .with("p90", self.p90)
            .with("p99", self.p99)
    }
}

/// A frozen copy of metric state, ready for reporting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters (name, total).
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges (name, value).
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries (name, summary).
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// JSON object `{counters: {...}, gauges: {...}, histograms: {...}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters.insert(k, *v);
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.gauges {
            gauges.insert(k, *v);
        }
        let mut histograms = Json::obj();
        for (k, v) in &self.histograms {
            histograms.insert(k, v.to_json());
        }
        Json::obj()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }

    /// Counter total by name (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    /// Histogram summary by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// One thread's private accumulator. Gauges carry the global write stamp
/// taken at set time so the merge can resolve last-write-wins across
/// shards.
#[derive(Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, (u64, f64)>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Shard {
    /// Folds `other` into `self`: counters sum, histograms merge exactly,
    /// gauges keep the later-stamped write.
    fn absorb(&mut self, other: &Shard) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, &(stamp, value)) in &other.gauges {
            let slot = self.gauges.entry(k).or_insert((0, 0.0));
            if stamp > slot.0 {
                *slot = (stamp, value);
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
    }
}

/// Monotonic stamp ordering gauge writes across shards.
static GAUGE_STAMP: AtomicU64 = AtomicU64::new(1);

/// One shard per live thread that has recorded, plus one holding what
/// threads that have since exited recorded.
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Mutex<Shard>>>,
    retired: Shard,
}

/// The registry, locked. Lock order is registry, then shard.
fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's handle on its shard. Dropped when the thread exits, which
/// retires the shard: under the registry lock — so a concurrent
/// [`snapshot`] sees it in exactly one place — it leaves the live list
/// and its contents move to [`Registry::retired`].
struct Local(RefCell<Option<Arc<Mutex<Shard>>>>);

impl Drop for Local {
    fn drop(&mut self) {
        if let Some(shard) = self.0.get_mut().take() {
            let mut registry = registry();
            registry.live.retain(|s| !Arc::ptr_eq(s, &shard));
            registry.retired.absorb(&shard.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }
}

thread_local! {
    static LOCAL: Local = const { Local(RefCell::new(None)) };
}

/// Runs `f` on the calling thread's shard, creating and registering it on
/// first use. The per-shard mutex is uncontended except while a concurrent
/// [`snapshot`]/[`reset_metrics`] briefly visits, so the hot path is one
/// thread-local read plus one uncontended lock.
fn with_local_shard(f: impl FnOnce(&mut Shard)) {
    LOCAL.with(|local| {
        let mut slot = local.0.borrow_mut();
        let arc = slot.get_or_insert_with(|| {
            let arc = Arc::new(Mutex::new(Shard::default()));
            registry().live.push(Arc::clone(&arc));
            arc
        });
        f(&mut arc.lock().unwrap_or_else(PoisonError::into_inner));
    });
}

/// Adds `delta` to the named counter. No-op unless metrics are on.
pub fn counter_add(name: &'static str, delta: u64) {
    if !metrics_on() {
        return;
    }
    with_local_shard(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge (last write across all threads wins). No-op unless
/// metrics are on.
pub fn gauge_set(name: &'static str, value: f64) {
    if !metrics_on() {
        return;
    }
    let stamp = GAUGE_STAMP.fetch_add(1, Ordering::Relaxed);
    with_local_shard(|s| {
        s.gauges.insert(name, (stamp, value));
    });
}

/// Records a sample into the named histogram. No-op unless metrics are on.
pub fn histogram_record(name: &'static str, value: f64) {
    if !metrics_on() {
        return;
    }
    with_local_shard(|s| s.histograms.entry(name).or_default().record(value));
}

/// Freezes the registry into a snapshot: counters sum across shards,
/// histograms merge exactly, gauges keep the latest-stamped write.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let mut all = Shard::default();
    {
        let registry = registry();
        all.absorb(&registry.retired);
        for shard in &registry.live {
            all.absorb(&shard.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }
    MetricsSnapshot {
        counters: all.counters.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        gauges: all.gauges.into_iter().map(|(k, (_, v))| (k.to_owned(), v)).collect(),
        histograms: all.histograms.into_iter().map(|(k, h)| (k.to_owned(), h.summary())).collect(),
    }
}

/// Clears every counter, gauge, and histogram in every shard.
pub fn reset_metrics() {
    let mut registry = registry();
    registry.retired = Shard::default();
    for shard in &registry.live {
        *shard.lock().unwrap_or_else(PoisonError::into_inner) = Shard::default();
    }
}

/// Writes the current registry snapshot to the event log as a `metrics`
/// record labelled `name`. No-op when the sink is disabled.
pub fn emit_snapshot(name: &str) {
    if !enabled() {
        return;
    }
    let snap = snapshot();
    emit(&Record {
        kind: "metrics",
        name,
        path: None,
        dur_us: None,
        depth: 0,
        trace: crate::trace::current_trace(),
        fields: &[],
        payload: Some(snap.to_json()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_moments_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        // Log buckets: the median estimate lands within a factor of two.
        assert!(s.p50 >= 32.0 && s.p50 <= 100.0, "p50 {}", s.p50);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [0.5, 3.0, 17.0, 200.0] {
            a.record(v);
            all.record(v);
        }
        for v in [1.5, 9.0] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!((s.min, s.max, s.mean, s.p50), (0.0, 0.0, 0.0, 0.0));
    }

    /// Regression: a `Default`-constructed histogram (the registry's
    /// `or_default()` path) must report the true minimum, not a zero
    /// baked in by a derived `Default`.
    #[test]
    fn default_histogram_reports_the_true_minimum() {
        assert_eq!(Histogram::default(), Histogram::new());
        let mut h = Histogram::default();
        h.record(7.5);
        h.record(3.25);
        let s = h.summary();
        assert_eq!(s.min, 3.25);
        assert_eq!(s.max, 7.5);
    }

    /// Deterministic xorshift64* (the obs crate is dependency-free, so the
    /// accuracy tests carry their own generator).
    struct Rng(u64);
    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn uniform(&mut self) -> f64 {
            #[allow(clippy::cast_precision_loss)]
            let v = (self.next_u64() >> 11) as f64;
            v / (1u64 << 53) as f64
        }
        /// Standard normal via Box–Muller.
        fn normal(&mut self) -> f64 {
            let u = self.uniform().max(f64::MIN_POSITIVE);
            let v = self.uniform();
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        }
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn assert_quantile_accuracy(samples: &[f64], tol: f64, label: &str) {
        let mut h = Histogram::new();
        let mut sorted = samples.to_vec();
        for &v in samples {
            h.record(v);
        }
        sorted.sort_by(f64::total_cmp);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact.abs().max(1e-12);
            assert!(
                rel <= tol,
                "{label} q={q}: estimate {est} vs exact {exact} (rel err {rel:.3} > {tol})"
            );
        }
    }

    /// Within-bucket interpolation pins quantiles far tighter than the
    /// factor-of-two bucket edges: uniform samples interpolate almost
    /// exactly, log-normal samples (whose density bends inside a bucket)
    /// stay well inside one bucket width.
    #[test]
    fn quantile_interpolation_is_accurate_on_uniform_and_lognormal() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let uniform: Vec<f64> = (0..20_000).map(|_| rng.uniform() * 1000.0).collect();
        assert_quantile_accuracy(&uniform, 0.05, "uniform[0,1000)");

        let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
        let lognormal: Vec<f64> = (0..20_000).map(|_| (3.0 + rng.normal()).exp()).collect();
        assert_quantile_accuracy(&lognormal, 0.35, "lognormal(3,1)");
    }

    /// The tails never leave the observed range.
    #[test]
    fn quantile_extremes_clamp_to_observed_range() {
        let mut h = Histogram::new();
        for v in [3.0, 5.0, 100.0] {
            h.record(v);
        }
        assert!(h.quantile(0.0) >= 3.0);
        assert!(h.quantile(1.0) <= 100.0);
    }

    /// A server spawns a thread per accepted connection; each must leave
    /// its numbers behind and take its shard with it.
    #[test]
    fn an_exiting_thread_leaves_its_numbers_and_takes_its_shard() {
        crate::enable_metrics();
        let shards: Vec<_> = (0..1000u32)
            .map(|i| {
                let worker = std::thread::spawn(move || {
                    counter_add("test.retire.count", u64::from(i));
                    histogram_record("test.retire.sample", f64::from(i));
                    LOCAL.with(|l| Arc::downgrade(l.0.borrow().as_ref().expect("recorded")))
                });
                worker.join().expect("worker")
            })
            .collect();
        let snap = snapshot();
        assert_eq!(snap.counter("test.retire.count"), 999 * 1000 / 2);
        let h = snap.histogram("test.retire.sample").expect("samples survive their threads");
        assert_eq!((h.count, h.sum, h.min, h.max), (1000, 499_500.0, 0.0, 999.0));
        // The list held the only other strong reference to each shard.
        let listed = shards.iter().filter(|s| s.upgrade().is_some()).count();
        assert_eq!(listed, 0, "{listed} of 1000 exited threads still have a shard in the list");
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let mut h = Histogram::new();
        h.record(10.0);
        let snap = MetricsSnapshot {
            counters: vec![("flops".into(), 42)],
            gauges: vec![("loss".into(), 0.5)],
            histograms: vec![("lat".into(), h.summary())],
        };
        let j = snap.to_json();
        assert_eq!(
            j.get("counters").and_then(|c| c.get("flops")).and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            j.get("histograms")
                .and_then(|h| h.get("lat"))
                .and_then(|l| l.get("count"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(snap.counter("flops"), 42);
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.histogram("lat").is_some());
    }
}
