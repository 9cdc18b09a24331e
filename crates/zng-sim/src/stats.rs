//! Statistics primitives used to regenerate the paper's figures.

use zng_types::Cycle;

/// An exact-percentile accumulator: keeps every sample and answers
/// nearest-rank percentile queries precisely.
///
/// It stores all samples, so it is reserved for bounded-cardinality
/// series (per-request latencies of a single run) where the QoS report
/// needs exact p50/p95/p99 numbers.
///
/// # Examples
///
/// ```
/// let mut p = zng_sim::Percentiles::new();
/// for v in [10u64, 20, 30, 40, 50] {
///     p.record(v);
/// }
/// assert_eq!(p.percentile(0.5), 30);
/// assert_eq!(p.percentile(1.0), 50);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Percentiles {
    samples: Vec<u64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty accumulator.
    pub fn new() -> Percentiles {
        Percentiles::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean of samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Exact p-th percentile (0.0–1.0) by the nearest-rank method:
    /// the smallest sample such that at least `ceil(p * count)` samples
    /// are less than or equal to it. Returns 0 if empty.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        self.samples[rank.max(1) - 1]
    }
}

/// A fixed-interval time series: counts events per time bucket.
///
/// Used for the paper's Fig. 17b (memory requests generated over time
/// during garbage collection).
///
/// # Examples
///
/// ```
/// use zng_types::Cycle;
/// let mut ts = zng_sim::TimeSeries::new(Cycle(100));
/// ts.record(Cycle(10), 1);
/// ts.record(Cycle(150), 2);
/// ts.record(Cycle(160), 1);
/// assert_eq!(ts.samples(), vec![1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval: Cycle,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Cycle) -> TimeSeries {
        assert!(
            interval > Cycle::ZERO,
            "time-series interval must be positive"
        );
        TimeSeries {
            interval,
            buckets: Vec::new(),
        }
    }

    /// Adds `weight` events at time `at`.
    pub fn record(&mut self, at: Cycle, weight: u64) {
        let idx = (at.raw() / self.interval.raw()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += weight;
    }

    /// The bucket width.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// The per-bucket event counts, in time order.
    pub fn samples(&self) -> Vec<u64> {
        self.buckets.clone()
    }

    /// Iterates `(bucket_start_time, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (Cycle(i as u64 * self.interval.raw()), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_exact_on_hand_checked_inputs() {
        // Nearest-rank on [15, 20, 35, 40, 50] (the canonical worked
        // example): p30 -> rank ceil(0.3*5)=2 -> 20; p40 -> rank 2 -> 20;
        // p50 -> rank 3 -> 35; p100 -> rank 5 -> 50.
        let mut p = Percentiles::new();
        for v in [50u64, 15, 40, 35, 20] {
            p.record(v);
        }
        assert_eq!(p.percentile(0.30), 20);
        assert_eq!(p.percentile(0.40), 20);
        assert_eq!(p.percentile(0.50), 35);
        assert_eq!(p.percentile(1.00), 50);
        assert_eq!(p.percentile(0.0), 15, "p0 clamps to the minimum");
        assert_eq!(p.count(), 5);
        assert_eq!(p.max(), 50);
        assert!((p.mean() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_single_sample_and_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.percentile(0.99), 0);
        assert_eq!(p.mean(), 0.0);
        p.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(p.percentile(q), 7);
        }
    }

    #[test]
    fn percentiles_interleaved_record_and_query() {
        let mut p = Percentiles::new();
        for v in 1..=100u64 {
            p.record(v);
        }
        assert_eq!(p.percentile(0.50), 50);
        assert_eq!(p.percentile(0.95), 95);
        assert_eq!(p.percentile(0.99), 99);
        // Recording after a query re-sorts lazily.
        p.record(1000);
        assert_eq!(p.percentile(1.0), 1000);
        assert_eq!(p.percentile(0.5), 51);
    }

    #[test]
    fn time_series_bucketing() {
        let mut ts = TimeSeries::new(Cycle(10));
        ts.record(Cycle(0), 1);
        ts.record(Cycle(9), 1);
        ts.record(Cycle(10), 5);
        ts.record(Cycle(35), 2);
        assert_eq!(ts.samples(), vec![2, 5, 0, 2]);
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs[1], (Cycle(10), 5));
        assert_eq!(ts.interval(), Cycle(10));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn time_series_rejects_zero_interval() {
        let _ = TimeSeries::new(Cycle::ZERO);
    }
}
