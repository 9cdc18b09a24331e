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
}

impl Percentiles {
    /// Creates an empty accumulator.
    pub fn new() -> Percentiles {
        Percentiles::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
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
    ///
    /// Each query selects its rank in linear time (and reorders the
    /// stored samples), so a run's few queries never sort them.
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let n = self.samples.len();
        let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        *self.samples.select_nth_unstable(rank.max(1) - 1).1
    }
}

/// A fixed-interval time series: counts events per time bucket.
///
/// Used for the paper's Fig. 17b (memory requests generated over time
/// during garbage collection). Only non-empty buckets are stored, so a
/// long, mostly idle run costs memory in proportion to the events it
/// recorded rather than to the cycles it simulated; [`TimeSeries::dense`]
/// reads the series back with every empty bucket in place.
///
/// # Examples
///
/// ```
/// use zng_types::Cycle;
/// let mut ts = zng_sim::TimeSeries::new(Cycle(100));
/// ts.record(Cycle(10), 1);
/// ts.record(Cycle(350), 2);
/// ts.record(Cycle(160), 1);
/// assert_eq!(ts.dense().collect::<Vec<_>>(), vec![1, 1, 0, 2]);
/// assert_eq!(ts.len(), 4);
/// assert_eq!(ts.stored(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval: Cycle,
    /// `(bucket, count)` of every non-empty bucket, sorted by bucket.
    buckets: Vec<(u64, u64)>,
    /// Buckets up to and including the latest one recorded, empty or not.
    len: u64,
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
            len: 0,
        }
    }

    /// Adds `weight` events at time `at`. A zero weight still extends
    /// the series to `at`'s bucket.
    ///
    /// Recording in time order is O(1); an earlier bucket than the
    /// latest one stored costs a binary search and an insert.
    pub fn record(&mut self, at: Cycle, weight: u64) {
        let bucket = at.raw() / self.interval.raw();
        self.len = self.len.max(bucket + 1);
        if weight == 0 {
            return;
        }
        match self.buckets.last_mut() {
            Some((last, count)) if *last == bucket => *count += weight,
            Some(&mut (last, _)) if last > bucket => {
                match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                    Ok(i) => self.buckets[i].1 += weight,
                    Err(i) => self.buckets.insert(i, (bucket, weight)),
                }
            }
            _ => self.buckets.push((bucket, weight)),
        }
    }

    /// The bucket width.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// Number of buckets, empty ones included: one past the latest
    /// bucket recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-empty buckets, which is what the series stores.
    pub fn stored(&self) -> usize {
        self.buckets.len()
    }

    /// The event count of bucket `i` (0 for an empty or out-of-range
    /// bucket).
    pub fn get(&self, i: usize) -> u64 {
        self.buckets
            .binary_search_by_key(&(i as u64), |&(b, _)| b)
            .map_or(0, |j| self.buckets[j].1)
    }

    /// Every bucket's event count in time order, empty buckets included.
    pub fn dense(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let mut stored = self.buckets.iter().peekable();
        (0..self.len()).map(move |i| {
            stored
                .next_if(|&&(b, _)| b == i as u64)
                .map_or(0, |&(_, count)| count)
        })
    }

    /// Iterates `(bucket index, count)` over the non-empty buckets, in
    /// time order: what the series stores.
    pub fn buckets(&self) -> impl ExactSizeIterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().map(|&(b, count)| (b as usize, count))
    }

    /// Iterates `(bucket_start_time, count)` over the non-empty buckets,
    /// in time order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Cycle, u64)> + '_ {
        self.buckets
            .iter()
            .map(move |&(b, count)| (Cycle(b * self.interval.raw()), count))
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
        assert_eq!(ts.dense().collect::<Vec<_>>(), vec![2, 5, 0, 2]);
        let pairs: Vec<_> = ts.iter().collect();
        assert_eq!(pairs, vec![(Cycle(0), 2), (Cycle(10), 5), (Cycle(30), 2)]);
        assert_eq!((ts.get(1), ts.get(2), ts.get(9)), (5, 0, 0));
        assert_eq!(
            ts.buckets().collect::<Vec<_>>(),
            vec![(0, 2), (1, 5), (3, 2)]
        );
        assert_eq!(ts.interval(), Cycle(10));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn time_series_rejects_zero_interval() {
        let _ = TimeSeries::new(Cycle::ZERO);
    }
}
