//! Measurement primitives used to regenerate the paper's figures:
//! fixed-size latency histograms (the recorder's per-task queue, run and
//! overhead times) and time series with moving averages (Figure 8
//! throughput).

use crate::time::SimTime;

/// Sub-buckets per octave, as a power of two: 2^5 = 32.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// A fixed-size, mergeable, log-linear histogram with quantile queries.
///
/// A sample (u64, caller-chosen unit, typically microseconds) bumps one
/// bucket count and is not kept. Values below 64 have a bucket each;
/// above that every octave `[2^k, 2^(k+1))` is cut into 32 equal
/// sub-buckets, so a bucket is never wider than 1/32 of its lower bound.
/// [`Histogram::quantile`] answers with the upper bound of the bucket that
/// holds the exact nearest-rank sample (clamped to the exact maximum): the
/// answer is never below that sample and at most 1/32 ≈ 3.2 % above it,
/// and `quantile(1.0)` is the maximum. `count`, `min`, `max` and `mean`
/// are exact.
///
/// The bucket array grows to the highest bucket a sample touched and never
/// past 1,920 counts (15 KiB) — the size is set by the range of the values,
/// not by how many were recorded — and [`Histogram::merge`] adds counts.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// `counts[bucket_of(v)]` samples fell in that bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// The bucket `value` falls in.
fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    // `shift` drops everything below the leading one and the SUB_BITS
    // bits after it; those bits, leading one included, are SUB..2*SUB.
    let shift = (63 - SUB_BITS) - value.leading_zeros();
    shift as usize * SUB + (value >> shift) as usize
}

/// The largest value that falls in `bucket`.
fn bucket_upper(bucket: usize) -> u64 {
    if bucket < 2 * SUB {
        return bucket as u64;
    }
    let shift = (bucket / SUB - 1) as u32;
    let top = (SUB + bucket % SUB) as u64;
    // The last bucket's bound is `u64::MAX`; wrapping keeps it so.
    ((top + 1) << shift).wrapping_sub(1)
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = bucket_of(value);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        self.max = self.max.max(value);
        self.count += 1;
        self.sum += value as u128;
    }

    /// Absorb `other` (sharded-recorder merge): equal to having recorded
    /// both sample streams into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-th quantile (0.0 ..= 1.0) by nearest rank, to within the
    /// bucket width (see the type docs); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_upper(bucket).min(self.max);
            }
        }
        self.max
    }
}

/// A `(time, value)` series, e.g. queue length or instantaneous throughput.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a point. Times should be non-decreasing (asserted in debug).
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(self.points.last().is_none_or(|&(lt, _)| lt <= t));
        self.points.push((t, v));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Down-sample to at most `n` points by keeping every k-th point
    /// (used to keep printed figures readable). The first and (for `n ≥ 2`)
    /// the last point are always preserved so the plotted range is exact.
    pub fn thin(&self, n: usize) -> Vec<(SimTime, f64)> {
        if self.points.len() <= n || n == 0 {
            return self.points.clone();
        }
        let step = self.points.len().div_ceil(n);
        let mut out: Vec<(SimTime, f64)> = self.points.iter().step_by(step).copied().collect();
        let last = *self.points.last().expect("non-empty");
        if out.last() != Some(&last) {
            if out.len() >= n {
                out.pop();
            }
            out.push(last);
        }
        out
    }

    /// Trailing moving average: each point's value is the mean of it and the
    /// up to `w - 1` points before it (the paper's Figure 8 plots a 60-sample
    /// moving average over 1 Hz samples).
    pub fn moving_average(&self, w: usize) -> Vec<(SimTime, f64)> {
        if self.points.is_empty() || w == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.points.len());
        let mut sum = 0.0;
        let mut window = std::collections::VecDeque::with_capacity(w);
        for &(t, v) in &self.points {
            window.push_back(v);
            sum += v;
            if window.len() > w {
                sum -= window.pop_front().unwrap();
            }
            out.push((t, sum / window.len() as f64));
        }
        out
    }

    /// Maximum value in the series (0.0 when empty).
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 50);
        assert!((h.mean() - 30.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(0.5), 30);
        assert_eq!(h.quantile(1.0), 50);
    }

    #[test]
    fn buckets_tile_the_u64_range_without_gaps() {
        assert_eq!(bucket_of(u64::MAX), 1919, "1,920 buckets in all");
        assert_eq!(bucket_upper(1919), u64::MAX);
        for bucket in 0..1919 {
            let upper = bucket_upper(bucket);
            assert_eq!(bucket_of(upper), bucket);
            assert_eq!(bucket_of(upper + 1), bucket + 1);
        }
    }

    #[test]
    fn size_follows_the_value_range_not_the_sample_count() {
        let mut h = Histogram::new();
        for v in 0..1_000_000u64 {
            h.record(v % 50_000);
        }
        assert_eq!(h.count(), 1_000_000);
        assert_eq!(h.counts.len(), bucket_of(49_999) + 1);
        assert!(h.counts.len() < 400);
    }

    #[test]
    fn quantile_is_within_one_bucket_above_the_exact_sample() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        // Exact nearest rank: round(99_999 * 0.5) = 50_000 → sample 50_001.
        let p50 = h.quantile(0.5);
        assert!(
            (50_001..=50_001 + 50_001 / 32).contains(&p50),
            "p50 = {p50}"
        );
        assert_eq!(h.quantile(1.0), 100_000);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!((h.min(), h.max()), (0, 0));
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50u64 {
            a.record(v);
        }
        for v in 50..100u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 99);
        assert_eq!(a.quantile(0.5), 50);
    }

    #[test]
    fn timeseries_moving_average() {
        let mut ts = TimeSeries::new();
        for i in 0..10 {
            ts.push(SimTime::from_secs(i), if i % 2 == 0 { 0.0 } else { 10.0 });
        }
        let ma = ts.moving_average(2);
        assert_eq!(ma.len(), 10);
        // After the first sample every 2-window average is 5.0.
        for &(_, v) in &ma[1..] {
            assert!((v - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn timeseries_thin_bounds_output() {
        let mut ts = TimeSeries::new();
        for i in 0..1000 {
            ts.push(SimTime::from_secs(i), i as f64);
        }
        let thinned = ts.thin(100);
        assert!(thinned.len() <= 100);
        assert_eq!(thinned[0].1, 0.0);
        assert_eq!(thinned.last().unwrap().1, 999.0, "last point preserved");
    }
}
