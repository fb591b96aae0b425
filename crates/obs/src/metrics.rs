//! Process-wide typed metrics registry.
//!
//! Handles are interned by name and leaked to `&'static`, so a hot-path
//! increment is one relaxed atomic operation with no lock and no hash
//! lookup (call sites cache the handle in a `OnceLock` via the
//! [`counter!`](crate::counter!) family of macros). Counters and
//! histograms are monotonic totals; per-handle `reset` exists for
//! benches and tests that need cold starts.
//!
//! Metrics are deliberately *not* part of the trace digest: cache warmth
//! (e.g. the sigcache) legitimately changes hit/miss splits between
//! otherwise identical runs, and the tests of one binary share this
//! registry, each bumping it from its own test thread. Totals are still
//! deterministic for one workload run alone, which the chaos tests
//! assert.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Monotonically increasing `u64` total.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the total. Bench/test helper: cold runs must not see a
    /// previous run's counts (mirrors `sigcache::clear`).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins `f64` value (stored as IEEE-754 bits in an atomic),
/// plus a high-water mark: the largest value the gauge has held since
/// creation or the last reset. The mark turns instantaneous gauges
/// (`mempool_size`, queue depths) into answerable capacity questions —
/// "how full did it ever get?" — without sampling.
pub struct Gauge {
    bits: AtomicU64,
    hwm_bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.raise_hwm(v);
    }

    /// Adds `delta` (CAS loop; gauges are low-frequency).
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next_val = f64::from_bits(cur) + delta;
            match self.bits.compare_exchange_weak(
                cur,
                next_val.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.raise_hwm(next_val);
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// CAS-max on the high-water mark (compared as `f64`, not bit
    /// patterns, so negative values order correctly; NaN never raises).
    fn raise_hwm(&self, v: f64) {
        let mut cur = self.hwm_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.hwm_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Largest value held since creation or the last [`reset`](Gauge::reset)
    /// (0.0 if the gauge never rose above zero).
    #[inline]
    pub fn high_water(&self) -> f64 {
        f64::from_bits(self.hwm_bits.load(Ordering::Relaxed))
    }

    /// Resets value and high-water mark to 0.0.
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.hwm_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Bucket upper bounds: powers of four (1, 4, 16, …, 4^15) plus a
/// catch-all. Fourteen doublings cover everything from per-tx gas to
/// per-block byte counts without tuning.
const HISTOGRAM_BUCKETS: usize = 17;

/// Fixed-bucket histogram of `u64` observations.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Upper bound (inclusive) of bucket `i`; the last bucket is
    /// unbounded.
    pub fn bucket_bound(i: usize) -> u64 {
        if i + 1 >= HISTOGRAM_BUCKETS {
            u64::MAX
        } else {
            1u64 << (2 * i as u32)
        }
    }

    /// The bucket `v` falls in: the first whose bound is at least `v`.
    pub(crate) fn bucket_index(v: u64) -> usize {
        (0..HISTOGRAM_BUCKETS - 1)
            .find(|&i| v <= Self::bucket_bound(i))
            .unwrap_or(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Zeroes all buckets, count and sum.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket observation counts (see [`Histogram::bucket_bound`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The snapshot a [`Histogram`] that observed exactly `values`
    /// would give (the sum saturates).
    pub(crate) fn from_values(values: &[u64]) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: values.len() as u64,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        for &v in values {
            snap.buckets[Histogram::bucket_index(v)] += 1;
            snap.sum = snap.sum.saturating_add(v);
        }
        snap
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q ∈ [0, 1]`) by linear interpolation
    /// within the bucket holding rank `q·count`. Bucket `i` is treated
    /// as the half-open value range `(bound(i-1), bound(i)]` with mass
    /// spread uniformly, so the estimate is exact when observations sit
    /// at interpolation-consistent positions and never off by more than
    /// one bucket width otherwise. The unbounded last bucket reports its
    /// lower bound (there is no upper edge to interpolate toward).
    /// Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.buckets.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = cum as f64;
            cum += c;
            if cum as f64 >= target {
                let lower = if i == 0 {
                    0.0
                } else {
                    Histogram::bucket_bound(i - 1) as f64
                };
                if i + 1 >= self.buckets.len() {
                    return lower;
                }
                let upper = Histogram::bucket_bound(i) as f64;
                let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
        }
        // Unreachable for consistent snapshots (cum == count ≥ target),
        // but stay total: report the largest bounded edge.
        Histogram::bucket_bound(self.buckets.len().saturating_sub(2)) as f64
    }

    /// Median estimate (see [`quantile`](HistogramSnapshot::quantile)).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[derive(Default)]
struct Registry {
    counters: HashMap<&'static str, &'static Counter>,
    gauges: HashMap<&'static str, &'static Gauge>,
    histograms: HashMap<&'static str, &'static Histogram>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Interns and returns the counter named `name`. Prefer the
/// [`counter!`](crate::counter!) macro, which caches the handle per
/// call site.
pub fn counter_handle(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock();
    reg.counters.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Counter {
            value: AtomicU64::new(0),
        }))
    })
}

/// Interns and returns the gauge named `name`.
pub fn gauge_handle(name: &'static str) -> &'static Gauge {
    let mut reg = registry().lock();
    reg.gauges.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
            hwm_bits: AtomicU64::new(0f64.to_bits()),
        }))
    })
}

/// Interns and returns the histogram named `name`.
pub fn histogram_handle(name: &'static str) -> &'static Histogram {
    let mut reg = registry().lock();
    reg.histograms.entry(name).or_insert_with(|| {
        Box::leak(Box::new(Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    })
}

/// Point-in-time copy of every registered metric, name-sorted so two
/// snapshots diff cleanly.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Gauge high-water marks by name (peak since creation/reset).
    pub gauge_hwms: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter delta `self - earlier` (names missing from `earlier`
    /// count from zero). Gauges/histograms are excluded: deltas on
    /// last-write-wins values are not meaningful.
    pub fn counter_deltas(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect()
    }

    /// One `name value` line per metric, sorted — the runbook's
    /// "human snapshot" format. Histogram lines carry mean and
    /// interpolated p50/p90/p99; gauges carry their high-water mark.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {v}\n"));
        }
        for (k, v) in &self.gauge_hwms {
            out.push_str(&format!("gauge_hwm {k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {k} count={} sum={} mean={:.3} p50={:.3} p90={:.3} p99={:.3}\n",
                h.count,
                h.sum,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            ));
        }
        out
    }

    /// Prometheus text exposition (the `obs_report` output scrapers
    /// ingest): counters/gauges as-is, gauge high-water marks as
    /// `<name>_hwm` gauges, histograms in cumulative-`le` form. Metric
    /// names are sanitized (`[^a-zA-Z0-9_]` → `_`) and prefixed
    /// `pds2_`.
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("pds2_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                });
            }
            out
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
            if let Some(hwm) = self.gauge_hwms.get(k) {
                out.push_str(&format!("# TYPE {n}_hwm gauge\n{n}_hwm {hwm}\n"));
            }
        }
        for (k, h) in &self.histograms {
            let n = sanitize(k);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, c) in h.buckets.iter().enumerate() {
                cum += c;
                if i + 1 >= h.buckets.len() {
                    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n"));
                } else {
                    out.push_str(&format!(
                        "{n}_bucket{{le=\"{}\"}} {cum}\n",
                        Histogram::bucket_bound(i)
                    ));
                }
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry().lock();
    let mut snap = MetricsSnapshot::default();
    for (name, c) in &reg.counters {
        snap.counters.insert((*name).to_string(), c.get());
    }
    for (name, g) in &reg.gauges {
        snap.gauges.insert((*name).to_string(), g.get());
        snap.gauge_hwms.insert((*name).to_string(), g.high_water());
    }
    for (name, h) in &reg.histograms {
        snap.histograms.insert((*name).to_string(), h.snapshot());
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    /// Quantiles on a synthetic distribution confined to one bucket:
    /// interpolation is exact because the bucket's value range and the
    /// rank fraction determine the answer completely.
    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let _g = test_lock();
        let h = histogram_handle("test.metrics.q_single");
        h.reset();
        // 100 observations in bucket 1, value range (1, 4].
        for _ in 0..100 {
            h.observe(3);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 1.0 + 3.0 * 0.50); // 2.5
        assert_eq!(s.quantile(0.90), 1.0 + 3.0 * 0.90); // 3.7
        assert_eq!(s.quantile(0.99), 1.0 + 3.0 * 0.99); // 3.97
        assert_eq!(s.p50(), s.quantile(0.5));
    }

    /// Quantiles across buckets: the rank walk picks the right bucket
    /// and interpolates against that bucket's own edges.
    #[test]
    fn quantiles_walk_across_buckets() {
        let _g = test_lock();
        let h = histogram_handle("test.metrics.q_multi");
        h.reset();
        // 50 observations in bucket 0 ([0, 1]), 50 in bucket 2 ((4, 16]).
        for _ in 0..50 {
            h.observe(1);
            h.observe(10);
        }
        let s = h.snapshot();
        // target 50 lands exactly on bucket 0's upper edge.
        assert_eq!(s.quantile(0.50), 1.0);
        // target 90: 40 of bucket 2's 50 → 4 + 12·0.8.
        assert_eq!(s.quantile(0.90), 4.0 + 12.0 * 0.8);
        // Degenerate and clamped arguments stay total.
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 16.0);
        assert_eq!(s.quantile(2.0), s.quantile(1.0));
        assert_eq!(HistogramSnapshot::from_values(&[]).quantile(0.5), 0.0);
    }

    /// The unbounded last bucket has no upper edge: quantiles landing
    /// there report its lower bound instead of inventing a value.
    #[test]
    fn quantile_in_unbounded_bucket_reports_lower_bound() {
        let _g = test_lock();
        let h = histogram_handle("test.metrics.q_tail");
        h.reset();
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(
            s.quantile(0.99),
            Histogram::bucket_bound(HISTOGRAM_BUCKETS - 2) as f64
        );
    }

    #[test]
    fn gauge_tracks_high_water_mark() {
        let _g = test_lock();
        let g = gauge_handle("test.metrics.hwm");
        g.reset();
        g.set(5.0);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(g.high_water(), 5.0);
        g.add(10.0);
        assert_eq!(g.get(), 12.0);
        assert_eq!(g.high_water(), 12.0);
        g.add(-7.0);
        assert_eq!(g.high_water(), 12.0);
        let snap = snapshot();
        assert_eq!(snap.gauge_hwms["test.metrics.hwm"], 12.0);
        assert!(snap
            .render_text()
            .contains("gauge_hwm test.metrics.hwm 12\n"));
        g.reset();
        assert_eq!(g.high_water(), 0.0);
        // Negative excursions never raise the mark above its 0.0 floor.
        g.set(-3.0);
        assert_eq!(g.high_water(), 0.0);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_sanitized() {
        let _g = test_lock();
        let h = histogram_handle("test.metrics.prom-hist");
        h.reset();
        h.observe(1);
        h.observe(10);
        // Its own gauge: the hwm line must not depend on which other test
        // registered one first.
        gauge_handle("test.metrics.prom-gauge").set(1.0);
        let snap = snapshot();
        let prom = snap.render_prometheus();
        assert!(prom.contains("# TYPE pds2_test_metrics_prom_hist histogram\n"));
        assert!(prom.contains("pds2_test_metrics_prom_hist_bucket{le=\"1\"} 1\n"));
        assert!(prom.contains("pds2_test_metrics_prom_hist_bucket{le=\"16\"} 2\n"));
        assert!(prom.contains("pds2_test_metrics_prom_hist_bucket{le=\"+Inf\"} 2\n"));
        assert!(prom.contains("pds2_test_metrics_prom_hist_sum 11\n"));
        assert!(prom.contains("pds2_test_metrics_prom_hist_count 2\n"));
        assert!(prom.contains("# TYPE pds2_test_metrics_prom_gauge_hwm gauge\n"));
    }
}
