//! Counters, gauges, and log-bucketed latency histograms.
//!
//! Protocols update these from the hot path, so everything here is
//! allocation-free after construction. The histogram uses logarithmically
//! spaced buckets (HdrHistogram-style, base-2 with 8 sub-buckets) which
//! keeps quantile error under ~12% across nine orders of magnitude —
//! plenty for comparing strategies.
//!
//! (These types started life in `cb-simnet::metrics` and moved here when
//! the whole workspace grew a shared telemetry registry; `cb-simnet`
//! re-exports them for compatibility.)

use std::fmt;

/// A monotonically increasing counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A gauge: a value that can move both ways (used for peaks and levels).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge(i64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&mut self, v: i64) {
        self.0 = v;
    }

    /// Raises the gauge to `v` if it is larger (peak tracking).
    pub fn raise_to(&mut self, v: i64) {
        self.0 = self.0.max(v);
    }

    /// Current value.
    pub fn get(self) -> i64 {
        self.0
    }
}

/// A histogram of `u64` samples with log-spaced buckets.
///
/// # Examples
///
/// ```
/// use cb_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) >= 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Count per bucket index, grown to the highest bucket ever recorded
    /// (`bucket_of` tops out at 496). The last element is therefore never
    /// zero, so equal histograms have equal vectors and the derived
    /// `PartialEq` holds.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Number of linear sub-buckets per power of two.
const SUB_BUCKETS: u64 = 8;

fn bucket_of(v: u64) -> u32 {
    if v < SUB_BUCKETS {
        return v as u32;
    }
    let exp = 63 - v.leading_zeros(); // floor(log2 v), >= 3 here
    let sub = (v >> (exp - 3)) as u32 & 0x7; // the 3 bits after the leading 1
    8 + (exp - 3) * SUB_BUCKETS as u32 + sub
}

fn bucket_low(b: u32) -> u64 {
    if (b as u64) < SUB_BUCKETS {
        return b as u64;
    }
    let exp = (b - 8) / SUB_BUCKETS as u32 + 3;
    let sub = ((b - 8) % SUB_BUCKETS as u32) as u64;
    (1u64 << exp) | (sub << (exp - 3))
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v) as usize;
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at quantile `q` in `[0, 1]`.
    ///
    /// Returns the lower bound of the bucket containing the `q`-th sample,
    /// clamped to the exact observed min/max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0;
        for (b, c) in self.buckets() {
            seen += c;
            if seen >= rank {
                return bucket_low(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterates the populated log buckets as `(bucket index, count)` pairs,
    /// in ascending bucket order. [`Histogram::bucket_lower_bound`] maps an
    /// index back to the smallest value it covers — together they expose
    /// the raw distribution for exports and cross-run divergence checks.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| (b as u32, c))
    }

    /// The smallest value that lands in bucket `b` (inverse of the
    /// internal value→bucket mapping, exposed for rendering bucket edges).
    pub fn bucket_lower_bound(b: u32) -> u64 {
        bucket_low(b)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_sets_and_peaks() {
        let mut g = Gauge::default();
        g.set(5);
        g.raise_to(3);
        assert_eq!(g.get(), 5);
        g.raise_to(9);
        assert_eq!(g.get(), 9);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            assert!(
                bucket_low(b) <= v,
                "bucket_low({b})={} > {v}",
                bucket_low(b)
            );
        }
        // Relative error of the bucket lower bound is bounded.
        for v in [100u64, 1_000, 50_000, 1_000_000, u32::MAX as u64] {
            let lo = bucket_low(bucket_of(v));
            assert!(
                (v - lo) as f64 / v as f64 <= 0.13,
                "error too big at {v}: lo={lo}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_stats_track_samples() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 25.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!((450..=550).contains(&p50), "p50={p50}");
        assert!((850..=960).contains(&p90), "p90={p90}");
        assert!(h.quantile(0.0) == 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn bucket_iteration_matches_recorded_samples() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 700, 90_000] {
            h.record(v);
        }
        let buckets: Vec<(u32, u64)> = h.buckets().collect();
        assert_eq!(buckets.iter().map(|(_, c)| c).sum::<u64>(), 4);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "{buckets:?}");
        for (b, _) in &buckets {
            assert_eq!(Histogram::bucket_lower_bound(*b), bucket_low(*b));
        }
        // The two equal samples share a bucket.
        assert_eq!(buckets[0], (bucket_of(3), 2));
    }

    #[test]
    fn display_is_stable() {
        let mut h = Histogram::new();
        h.record(7);
        let text = format!("{h}");
        assert!(text.contains("n=1"), "display: {text}");
    }
}
