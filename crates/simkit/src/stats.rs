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
        s.push(SimDuration::from_micros(10).as_micros_f64());
        s.push(SimDuration::from_micros(20).as_micros_f64());
        assert!((s.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_conversion() {
        // 1 MB in 10 ms = 100 MB/s.
        let bw = megabytes_per_second(1_000_000, SimDuration::from_millis(10));
        assert!((bw - 100.0).abs() < 1e-9);
        assert_eq!(megabytes_per_second(123, SimDuration::ZERO), 0.0);
    }
}
