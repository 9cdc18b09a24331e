//! The cache's pinned-line count against a full scan: after every step
//! of a random sequence of fills, demand lookups, pins (re-pins of
//! pinned lines included), partial unpins, invalidations, poisonings
//! and whole-cache invalidations, `pinned()` must equal the number of
//! lines a scan over every address the sequence can touch finds pinned.

use proptest::prelude::*;
use zng_gpu::{CacheGeometry, SetAssocCache};
use zng_types::ids::AppId;

const LINE: u64 = 128;
/// Four times the cache's 8 lines, so fills evict and sets fill up
/// with pinned ways.
const LINES: u64 = 32;

/// The reference: every line address the sequence can touch, probed.
fn scan(c: &SetAssocCache) -> usize {
    (0..LINES).filter(|&l| c.is_pinned(l * LINE)).count()
}

proptest! {
    /// Each step is `(op, line, flag)`; the op draw is weighted toward
    /// fills and pins so sets fill up with pinned ways.
    #[test]
    fn pinned_count_matches_a_full_scan(
        steps in prop::collection::vec((0u8..16, 0u64..LINES, any::<bool>()), 1..400),
    ) {
        let mut c = SetAssocCache::new(CacheGeometry { sets: 4, ways: 2, line_bytes: 128 });
        for (op, line, flag) in steps {
            let addr = line * LINE;
            match op {
                0..=3 => {
                    c.fill(addr, flag, AppId(0));
                }
                4..=5 => {
                    c.lookup(addr, flag);
                }
                6..=9 => {
                    c.pin_dirty(addr);
                }
                10..=11 => {
                    c.unpin_some(line as usize % 4);
                }
                12..=13 => {
                    c.invalidate(addr);
                }
                14 => {
                    c.poison_line(addr);
                }
                _ => {
                    c.invalidate_all();
                }
            }
            prop_assert_eq!(c.pinned(), scan(&c));
        }
    }
}
