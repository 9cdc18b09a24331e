//! Property tests for the statistics primitives.

use proptest::prelude::*;
use zng_sim::TimeSeries;
use zng_types::Cycle;

proptest! {
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
        prop_assert_eq!(ts.samples().iter().sum::<u64>(), total);
        // Every event landed in the right bucket.
        for (start, _) in ts.iter() {
            prop_assert_eq!(start.raw() % interval, 0);
        }
    }
}
