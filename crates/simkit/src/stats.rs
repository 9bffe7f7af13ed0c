//! Small statistics helpers for benchmark reporting.

use crate::time::SimDuration;

/// Collected samples with percentile queries (sorts lazily on demand).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Append a duration in microseconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.values.push(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Percentile `p` in `[0, 100]` by nearest-rank on a sorted copy.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// A log-scaled latency histogram: power-of-two buckets from 1 ns up.
/// Fixed memory, O(1) insert, approximate percentiles — for long-running
/// measurements where keeping every sample is wasteful.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        let bucket = 63u32.saturating_sub(ns.max(1).leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Approximate percentile `p` in `[0, 100]`: the upper bound of the
    /// bucket containing the p-th sample (within 2x of the true value).
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                return SimDuration::from_nanos(upper.min(self.max_ns));
            }
        }
        self.max()
    }
}

/// Convert a byte count and a span into MB/s (1 MB = 10^6 bytes, the paper's
/// convention for network bandwidth).
pub fn megabytes_per_second(bytes: u64, elapsed: SimDuration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 / elapsed.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
    }

    #[test]
    fn single_sample_stats() {
        let mut s = Samples::new();
        s.push(3.5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 3.5);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(s.percentile(p), 3.5);
        }
    }

    #[test]
    fn percentiles() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert!((s.median() - 50.0).abs() <= 1.0);
        assert!((s.percentile(90.0) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn duration_samples() {
        let mut s = Samples::new();
        s.push_duration(SimDuration::from_micros(10));
        s.push_duration(SimDuration::from_micros(20));
        assert!((s.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_records_and_ranks() {
        let mut h = Histogram::new();
        for us in [1u64, 2, 4, 100, 100, 100, 1000] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), SimDuration::from_micros(1000));
        // Median lands in the 100 us bucket: upper bound within 2x.
        let p50 = h.percentile(50.0).as_micros_f64();
        assert!((100.0..=200.0).contains(&p50), "p50 {p50}");
        // Max percentile returns the max.
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), SimDuration::ZERO);
        // Every rank of an empty histogram is zero, including the edges.
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), SimDuration::ZERO);
        }
    }

    #[test]
    fn single_sample_histogram_returns_that_sample_at_every_rank() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(5));
        assert_eq!(h.count(), 1);
        // One sample: the bucket upper bound clamps to max_ns, so every
        // percentile is the sample itself, exactly.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), SimDuration::from_micros(5), "p={p}");
        }
    }

    #[test]
    fn zero_duration_sample_lands_in_the_bottom_bucket() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        // ns.max(1) maps zero into bucket 0; the upper bound then clamps
        // to the recorded max of 0.
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
    }

    #[test]
    fn values_past_top_bucket_clamp_without_overflow() {
        // 2^63 and u64::MAX both land in bucket 63, whose upper bound
        // would be 2^64: the clamp must return u64::MAX (then min'd with
        // the recorded max), not shift-overflow.
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1u64 << 63));
        h.record(SimDuration::from_nanos(u64::MAX));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), SimDuration::from_nanos(u64::MAX));
        assert_eq!(h.percentile(50.0), SimDuration::from_nanos(u64::MAX));
        assert_eq!(h.percentile(100.0), SimDuration::from_nanos(u64::MAX));
        // With only the 2^63 sample, the top-bucket bound clamps to it.
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1u64 << 63));
        assert_eq!(h.percentile(99.0), SimDuration::from_nanos(1u64 << 63));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_nanos(u64::MAX));
        assert_eq!(h.count(), 2);
        assert!(h.percentile(10.0).as_nanos() <= 2);
    }

    #[test]
    fn bandwidth_conversion() {
        // 1 MB in 10 ms = 100 MB/s.
        let bw = megabytes_per_second(1_000_000, SimDuration::from_millis(10));
        assert!((bw - 100.0).abs() < 1e-9);
        assert_eq!(megabytes_per_second(123, SimDuration::ZERO), 0.0);
    }
}
