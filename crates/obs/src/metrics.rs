//! Counters and log2-bucketed histograms.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use serde::Serialize;

use crate::timeline::{Timeline, TimelineEvent};

/// Number of histogram buckets: one for zero plus one per power of two.
const BUCKETS: usize = 65;

/// Inclusive upper bound of bucket `i`: 0, then `2^i − 1`.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// A log2-bucketed latency/size histogram with exact count, sum, min, and
/// max. Bucket 0 holds zeros; bucket `i ≥ 1` holds `[2^(i−1), 2^i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the bucket
    /// boundary at or above the ranked observation, clamped to the exact
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A serializable summary (p50/p95/p99 are bucket upper-bound
    /// estimates).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| BucketCount {
                    le: bucket_upper(i),
                    n,
                })
                .collect(),
        }
    }
}

/// One non-empty histogram bucket: `n` observations `≤ le` (and above the
/// previous bucket's bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations in the bucket.
    pub n: u64,
}

/// Serializable summary of one [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (exact).
    pub max: u64,
    /// Median, as a bucket upper-bound estimate clamped to `max`.
    pub p50: u64,
    /// 95th percentile, as a bucket upper-bound estimate clamped to `max`.
    pub p95: u64,
    /// 99th percentile, as a bucket upper-bound estimate clamped to `max`.
    pub p99: u64,
    /// 99.9th percentile, as a bucket upper-bound estimate clamped to
    /// `max` — the deep tail the many-core contention sweep reports.
    pub p999: u64,
    /// The non-empty buckets, in ascending `le` order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSummary {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another summary into this one. The raw bucket counts are
    /// merged key-by-key on their exact `le` bounds — never re-bucketed
    /// through [`Histogram::bucket_index`], which would reinterpret the
    /// upper-bound *estimates* as observations — and the quantile
    /// estimates are re-derived from the merged counts, so
    /// `merge(a, b)` equals the summary of the union histogram exactly.
    pub fn merge(&mut self, other: &HistogramSummary) {
        let mut merged: Vec<BucketCount> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            let next = match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(a), Some(b)) if a.le == b.le => {
                    i += 1;
                    j += 1;
                    BucketCount {
                        le: a.le,
                        n: a.n + b.n,
                    }
                }
                (Some(a), Some(b)) if a.le < b.le => {
                    i += 1;
                    *a
                }
                (Some(_), Some(b)) => {
                    j += 1;
                    *b
                }
                (Some(a), None) => {
                    i += 1;
                    *a
                }
                (None, Some(b)) => {
                    j += 1;
                    *b
                }
                (None, None) => unreachable!("loop condition guarantees a bucket remains"),
            };
            merged.push(next);
        }
        self.min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.p50 = bucket_quantile(&merged, self.count, self.max, 0.50);
        self.p95 = bucket_quantile(&merged, self.count, self.max, 0.95);
        self.p99 = bucket_quantile(&merged, self.count, self.max, 0.99);
        self.p999 = bucket_quantile(&merged, self.count, self.max, 0.999);
        self.buckets = merged;
    }
}

/// The `q`-quantile upper-bound estimate over an ascending bucket list —
/// the same ranked walk as [`Histogram::quantile`], applied to merged
/// [`BucketCount`]s.
fn bucket_quantile(buckets: &[BucketCount], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for b in buckets {
        seen += b.n;
        if seen >= rank {
            return b.le.min(max);
        }
    }
    max
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    timeline: Timeline,
}

/// A cloneable handle into one shared set of named counters and
/// histograms. Like [`crate::TraceSink`], the default handle is disabled
/// and every call on it costs one branch.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl MetricsRegistry {
    /// A disabled handle: every update is a no-op.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// A new, enabled, empty registry.
    pub fn enabled() -> Self {
        MetricsRegistry {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
        }
    }

    /// `true` if updates through this handle are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Increments the named counter by 1.
    #[inline]
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(i) = &self.inner {
            *i.borrow_mut().counters.entry(name).or_insert(0) += n;
        }
    }

    /// Records one observation into the named histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut()
                .histograms
                .entry(name)
                .or_default()
                .observe(value);
        }
    }

    /// Accumulates `event` into the registry's windowed timeline at
    /// `cycle` (CPU cycles). Both simulation loops call this from the
    /// same component sites, so fast-forward and naive runs build
    /// identical timelines by construction.
    #[inline]
    pub fn timeline_mark(&self, cycle: u64, event: TimelineEvent) {
        if let Some(i) = &self.inner {
            i.borrow_mut().timeline.record(cycle, event);
        }
    }

    /// Records `count` retirements at each of the `times` cycles `first`,
    /// `first + period`, … into the timeline in one call (see
    /// [`Timeline::record_retired_every`]) — how a periodic skip accounts
    /// for the retirements of the loop periods it jumps.
    pub fn timeline_retired_every(&self, first: u64, period: u64, times: u64, count: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut()
                .timeline
                .record_retired_every(first, period, times, count);
        }
    }

    /// Records `counts[i]` retirements at cycle `first + i` into the
    /// timeline in one call (see [`Timeline::record_retired_at`]) — how a
    /// replayed loop warm-up accounts for the retirements of the cycles
    /// it installs.
    pub fn timeline_retired_at(&self, first: u64, counts: &[u8]) {
        if let Some(i) = &self.inner {
            i.borrow_mut().timeline.record_retired_at(first, counts);
        }
    }

    /// The named counter's current value (0 if absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().counters.get(name).copied().unwrap_or(0))
    }

    /// A copy of the named histogram, if it has been observed into.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().histograms.get(name).cloned())
    }

    /// A serializable snapshot of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(i) => {
                let inner = i.borrow();
                MetricsSnapshot {
                    counters: inner
                        .counters
                        .iter()
                        .map(|(&k, &v)| (k.to_string(), v))
                        .collect(),
                    histograms: inner
                        .histograms
                        .iter()
                        .map(|(&k, h)| (k.to_string(), h.summary()))
                        .collect(),
                    timeline: inner.timeline.clone(),
                }
            }
        }
    }
}

/// A point-in-time snapshot of a [`MetricsRegistry`], mergeable across
/// simulation points and serializable into the metrics JSON artifact.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Windowed over-time activity profile.
    pub timeline: Timeline,
}

impl MetricsSnapshot {
    /// `true` if the snapshot holds no counters, no histograms, and no
    /// timeline activity.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.timeline.is_empty()
    }

    /// Folds another snapshot into this one: counters add, histograms
    /// merge bucket-wise with re-derived quantile estimates, and the
    /// timelines fold at the wider window width.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        self.timeline.merge(&other.timeline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Bucket 0 = {0}; bucket i ≥ 1 = [2^(i−1), 2^i).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        for i in 1..=63usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            let hi = (1u64 << i) - 1;
            assert_eq!(Histogram::bucket_index(hi), i, "upper edge of bucket {i}");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(4), 15);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 3, 6, 6, 6, 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 62);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 40);
        // Rank ceil(0.5×8)=4 lands in bucket [2,3] → upper bound 3.
        assert_eq!(h.quantile(0.50), 3);
        // Rank 8 is the max observation; clamped to the exact max.
        assert_eq!(h.quantile(0.95), 40);
        assert_eq!(h.quantile(1.0), 40);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        let s = h.summary();
        assert_eq!(s.min, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn all_zero_observations_stay_zero() {
        let mut h = Histogram::default();
        for _ in 0..5 {
            h.observe(0);
        }
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.95), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.summary().buckets, vec![BucketCount { le: 0, n: 5 }]);
    }

    #[test]
    fn merge_matches_combined_observations() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [1u64, 5, 9] {
            a.observe(v);
            both.observe(v);
        }
        for v in [0u64, 100, 3] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Summary-level merge agrees on every derived statistic.
        let mut sa = Histogram::default();
        for v in [1u64, 5, 9] {
            sa.observe(v);
        }
        let mut sb = Histogram::default();
        for v in [0u64, 100, 3] {
            sb.observe(v);
        }
        let mut s = sa.summary();
        s.merge(&sb.summary());
        assert_eq!(s, both.summary());
    }

    #[test]
    fn summary_merge_equals_histogram_of_union() {
        // Pin merge(a, b) == summary of the union histogram on every
        // derived field — p50/p95/p99 included — across skewed splits,
        // zero-heavy sets, an empty side, and cross-bucket spreads.
        let cases: [(&[u64], &[u64]); 5] = [
            (&[1, 5, 9], &[0, 100, 3]),
            (&[0, 0, 0, 0], &[1]),
            (&[], &[7, 7, 7, 1 << 40]),
            (&[2; 99], &[1 << 20]),
            (&[1, 2, 4, 8, 16, 32, 64, 128], &[3, 5, 1000, u64::MAX]),
        ];
        for (xs, ys) in cases {
            let (mut a, mut b, mut union) = (
                Histogram::default(),
                Histogram::default(),
                Histogram::default(),
            );
            for &v in xs {
                a.observe(v);
                union.observe(v);
            }
            for &v in ys {
                b.observe(v);
                union.observe(v);
            }
            let mut s = a.summary();
            s.merge(&b.summary());
            assert_eq!(s, union.summary(), "union of {xs:?} and {ys:?}");
            // And the symmetric merge.
            let mut s = b.summary();
            s.merge(&a.summary());
            assert_eq!(s, union.summary(), "union of {ys:?} and {xs:?}");
        }
    }

    #[test]
    fn p999_tracks_the_deep_tail() {
        // 2000 fast observations and two slow ones: p99 stays in the fast
        // bucket while p99.9 lands on the tail — the gauge the many-core
        // contention sweep exists to expose.
        let mut h = Histogram::default();
        for _ in 0..2000 {
            h.observe(3);
        }
        h.observe(5000);
        h.observe(9000);
        let s = h.summary();
        assert_eq!(s.p99, 3);
        // Rank ceil(0.999×2002) = 2000 is still fast; 0.9995 would be the
        // first slow one. Use a slightly heavier tail to pin the split:
        let mut h = Histogram::default();
        for _ in 0..990 {
            h.observe(3);
        }
        for _ in 0..10 {
            h.observe(8000);
        }
        let s = h.summary();
        assert_eq!(s.p99, 3, "rank 990 of 1000 is still fast");
        assert_eq!(s.p999, 8000, "rank 999 of 1000 is in the tail");
        // Merge-safety: splitting the same observations across two
        // summaries re-derives the identical p999.
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 0..990 {
            if i % 2 == 0 {
                a.observe(3);
            } else {
                b.observe(3);
            }
        }
        for _ in 0..5 {
            a.observe(8000);
            b.observe(8000);
        }
        let mut m = a.summary();
        m.merge(&b.summary());
        assert_eq!(m, s);
    }

    #[test]
    fn registry_enabled_and_disabled() {
        let off = MetricsRegistry::disabled();
        off.inc("x");
        off.observe("h", 3);
        assert!(!off.is_enabled());
        assert!(off.snapshot().is_empty());

        let on = MetricsRegistry::enabled();
        let clone = on.clone();
        on.inc("x");
        clone.add("x", 2);
        on.observe("h", 3);
        assert_eq!(on.counter("x"), 3);
        assert_eq!(on.histogram("h").unwrap().count(), 1);
        let snap = on.snapshot();
        assert_eq!(snap.counters["x"], 3);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = MetricsRegistry::enabled();
        a.inc("c");
        a.observe("h", 4);
        let b = MetricsRegistry::enabled();
        b.add("c", 4);
        b.inc("only_b");
        b.observe("h", 16);
        b.observe("g", 1);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.counters["only_b"], 1);
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].max, 16);
        assert_eq!(snap.histograms["g"].count, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let r = MetricsRegistry::enabled();
        r.inc("flushes");
        r.observe("lat", 12);
        let json = serde_json::to_string(&r.snapshot()).unwrap();
        assert!(json.contains("\"flushes\""));
        assert!(json.contains("\"p95\""));
    }
}
