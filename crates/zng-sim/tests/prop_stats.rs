//! Property tests for the statistics primitives.

use proptest::prelude::*;
use zng_sim::{Percentiles, TimeSeries};
use zng_types::Cycle;

/// The reference model: every bucket stored densely, grown on demand.
#[derive(Default)]
struct DenseSeries {
    buckets: Vec<u64>,
}

impl DenseSeries {
    fn record(&mut self, at: u64, interval: u64, weight: u64) {
        let idx = (at / interval) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += weight;
    }
}

/// Turns `(kind, step, weight)` draws into record times and weights: a
/// step of at most ±2 000 cycles from the previous time (either side, as
/// issue times are across SMs), or, for one draw in four, a jump of
/// 100 000 plus the step forward (kind 6) or back (kind 7). A weight
/// of 0 happens one draw in five.
fn walk(steps: &[(u8, i64, u64)]) -> Vec<(u64, u64)> {
    let mut t = 0i64;
    steps
        .iter()
        .map(|&(kind, step, w)| {
            let jump = match kind {
                6 => 100_000,
                7 => -100_000,
                _ => 0,
            };
            t = (t + jump + step).max(0);
            (t as u64, w)
        })
        .collect()
}

/// The reference percentile: nearest rank over a sorted copy.
fn sorted_percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The run report's quantiles and both ends of [0, 1].
const QUANTILES: [f64; 5] = [0.0, 0.5, 0.95, 0.99, 1.0];

proptest! {
    /// Queries interleaved with records, in any order and repeated,
    /// return what a sort-based nearest rank returns. A `(kind, value,
    /// q)` step records `value` (kinds 0–1), asks a report quantile
    /// (kind 2) or asks `q / 1000`, anywhere in [0, 1] (kind 3).
    #[test]
    fn percentile_matches_a_sorted_reference(
        steps in prop::collection::vec((0u8..4, 0u64..50, 0u32..1001), 0..300),
    ) {
        let mut pct = Percentiles::new();
        let mut samples = Vec::new();
        for (kind, value, q) in steps {
            let p = match kind {
                0 | 1 => {
                    pct.record(value);
                    samples.push(value);
                    prop_assert_eq!(pct.count(), samples.len() as u64);
                    continue;
                }
                2 => QUANTILES[value as usize % QUANTILES.len()],
                _ => f64::from(q) / 1000.0,
            };
            prop_assert_eq!(pct.percentile(p), sorted_percentile(&samples, p), "p {}", p);
            prop_assert_eq!(pct.max(), samples.iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn time_series_conserves_events(
        events in prop::collection::vec((0u64..10_000, 1u64..5), 0..200),
        interval in 1u64..500,
    ) {
        let mut ts = TimeSeries::new(Cycle(interval));
        let mut total = 0u64;
        for &(at, w) in &events {
            ts.record(Cycle(at), w);
            total += w;
        }
        prop_assert_eq!(ts.dense().sum::<u64>(), total);
        // Every event landed in the right bucket.
        for (start, _) in ts.iter() {
            prop_assert_eq!(start.raw() % interval, 0);
        }
    }

    #[test]
    fn sparse_series_matches_dense_reference(
        steps in prop::collection::vec((0u8..8, -2_000i64..2_000, 0u64..5), 0..200),
        interval in 1u64..3_000,
    ) {
        let events = walk(&steps);
        let mut ts = TimeSeries::new(Cycle(interval));
        let mut reference = DenseSeries::default();
        for &(at, w) in &events {
            ts.record(Cycle(at), w);
            reference.record(at, interval, w);
        }
        let want = &reference.buckets;
        prop_assert_eq!(ts.len(), want.len());
        prop_assert_eq!(ts.is_empty(), want.is_empty());
        prop_assert_eq!(ts.dense().collect::<Vec<_>>(), want.clone());
        let non_empty: Vec<(Cycle, u64)> = want
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (Cycle(i as u64 * interval), n))
            .collect();
        prop_assert_eq!(ts.stored(), non_empty.len());
        prop_assert_eq!(ts.iter().collect::<Vec<_>>(), non_empty);
        for (i, &n) in want.iter().enumerate() {
            prop_assert_eq!(ts.get(i), n);
        }
        prop_assert_eq!(ts.get(want.len()), 0);
    }
}
