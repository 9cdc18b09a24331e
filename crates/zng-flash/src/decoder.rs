//! The programmable row decoder holding a log block's LPMT (paper §IV-A).
//!
//! ZnG stores each physical log block's **log page mapping table** inside
//! the plane's row decoder, implemented as a content-addressable memory:
//! a lookup applies the page index to the `A`/`A'` bitlines and discharges
//! the matching wordline (two clock phases); a write programs the mapping
//! cells of the next free page's row. Because Z-NAND programs in order,
//! a single register tracks the next free page.

use fxhash::{FxBuildHasher, FxHashMap};
use zng_types::{Cycle, Error, Result};

/// CAM search cost: two phases (precharge + match) of the decoder clock.
pub const CAM_SEARCH_CYCLES: Cycle = Cycle(2);

/// One log block's programmable row decoder.
///
/// Keys are *logical page ids* — the caller encodes (data block, page
/// index) into a `u64`; several data blocks share one log block
/// (paper §IV-A, LBMT).
///
/// # Examples
///
/// ```
/// use zng_flash::RowDecoder;
///
/// let mut dec = RowDecoder::new(4);
/// let slot = dec.record(0xAB)?;
/// assert_eq!(slot, 0);
/// assert_eq!(dec.lookup(0xAB), Some(0));
/// assert_eq!(dec.lookup(0xCD), None);
/// # Ok::<(), zng_types::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowDecoder {
    /// logical page id -> physical page within the log block. The CAM
    /// has at most `pages` live rows, so the index is pre-sized to
    /// `pages` and hashed with the deterministic Fx hasher: lookups are
    /// the hottest FTL operation and never rehash mid-run. Iteration
    /// order is never observed: [`RowDecoder::mappings`] sorts, and
    /// [`RowDecoder::logical_pages`] serves order-independent questions.
    map: FxHashMap<u64, u32>,
    /// In-order next-free-page register.
    next_free: u32,
    /// Wordlines (= pages in the log block).
    pages: u32,
    /// Lookups served (CAM activations).
    searches: u64,
    /// Mappings superseded (stale log pages created).
    superseded: u64,
}

impl RowDecoder {
    /// Creates a decoder for a log block with `pages` wordlines.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(pages: u32) -> RowDecoder {
        assert!(pages > 0, "row decoder needs at least one wordline");
        RowDecoder {
            map: FxHashMap::with_capacity_and_hasher(pages as usize, FxBuildHasher::default()),
            next_free: 0,
            pages,
            searches: 0,
            superseded: 0,
        }
    }

    /// CAM search: returns the physical log page holding `logical_page`,
    /// if any.
    pub fn lookup(&mut self, logical_page: u64) -> Option<u32> {
        self.searches += 1;
        self.map.get(&logical_page).copied()
    }

    /// The physical log page holding `logical_page`, if any, without a
    /// CAM activation (nothing is counted).
    pub fn mapping(&self, logical_page: u64) -> Option<u32> {
        self.map.get(&logical_page).copied()
    }

    /// The logical pages with a live mapping, in no particular order and
    /// without allocating: for order-independent questions such as "is
    /// any page of this data block logged?". [`RowDecoder::mappings`]
    /// gives the sorted pairs.
    pub fn logical_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.keys().copied()
    }

    /// Records a write of `logical_page` into the next free log page and
    /// returns that page's index. A previous mapping for the same logical
    /// page becomes stale (counted in [`RowDecoder::stale`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::FlashProtocol`] when the log block is full —
    /// the GC helper thread must merge it.
    pub fn record(&mut self, logical_page: u64) -> Result<u32> {
        if self.next_free >= self.pages {
            return Err(Error::FlashProtocol(
                "log block full: garbage collection required".to_string(),
            ));
        }
        let slot = self.next_free;
        self.next_free += 1;
        if self.map.insert(logical_page, slot).is_some() {
            self.superseded += 1;
        }
        Ok(slot)
    }

    /// Rolls back the most recent [`RowDecoder::record`] of
    /// `logical_page` after its log program failed verification: the
    /// burned slot stays consumed and stale, and the mapping reverts to
    /// `previous` (the slot [`RowDecoder::lookup`] returned before the
    /// record) — so an earlier acknowledged write stays reachable — or
    /// disappears entirely if the page was never logged before.
    pub fn retract(&mut self, logical_page: u64, previous: Option<u32>) {
        match previous {
            Some(slot) => {
                // `record` already counted the old mapping as superseded;
                // reviving it keeps the stale count right (the burned
                // slot is the one stale page).
                self.map.insert(logical_page, slot);
            }
            None => {
                if self.map.remove(&logical_page).is_some() {
                    self.superseded += 1;
                }
            }
        }
    }

    /// Whether no free log pages remain.
    pub fn is_full(&self) -> bool {
        self.next_free >= self.pages
    }

    /// Live mappings (logical page -> log page), sorted by logical page
    /// for deterministic GC merges. Allocates and sorts; see
    /// [`RowDecoder::mapping`] and [`RowDecoder::logical_pages`] for the
    /// non-allocating queries.
    pub fn mappings(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<_> = self.map.iter().map(|(&k, &p)| (k, p)).collect();
        v.sort_unstable();
        v
    }

    /// Number of live (non-superseded) mappings.
    pub fn live(&self) -> usize {
        self.map.len()
    }

    /// Stale log pages (superseded mappings).
    pub fn stale(&self) -> u64 {
        self.superseded
    }

    /// CAM activations performed.
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Rebuilds a decoder from an OOB scan during crash recovery.
    ///
    /// `consumed` is the number of pages already programmed in the log
    /// block (the in-order next-free register), `entries` the surviving
    /// live mappings. Any consumed slot not backing a live mapping is
    /// stale; the search counter restarts at zero.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero (same contract as [`RowDecoder::new`]).
    pub fn restore(
        pages: u32,
        consumed: u32,
        entries: impl IntoIterator<Item = (u64, u32)>,
    ) -> RowDecoder {
        let mut dec = RowDecoder::new(pages);
        dec.next_free = consumed.min(pages);
        dec.map.extend(entries);
        dec.superseded = u64::from(dec.next_free).saturating_sub(dec.map.len() as u64);
        dec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_allocation() {
        let mut d = RowDecoder::new(3);
        assert_eq!(d.record(10).unwrap(), 0);
        assert_eq!(d.record(20).unwrap(), 1);
        assert_eq!(d.record(30).unwrap(), 2);
        assert!(d.is_full());
        assert!(matches!(d.record(40), Err(Error::FlashProtocol(_))));
    }

    #[test]
    fn rewrite_supersedes_old_mapping() {
        let mut d = RowDecoder::new(4);
        d.record(10).unwrap(); // slot 0
        d.record(10).unwrap(); // slot 1 supersedes slot 0
        assert_eq!(d.lookup(10), Some(1));
        assert_eq!(d.stale(), 1);
        assert_eq!(d.live(), 1);
        assert_eq!(d.record(11).unwrap(), 2, "two slots consumed");
    }

    #[test]
    fn retract_without_prior_mapping_removes() {
        let mut d = RowDecoder::new(4);
        d.record(10).unwrap();
        d.retract(10, None);
        assert_eq!(d.lookup(10), None);
        assert_eq!(d.stale(), 1, "the burned slot is stale");
        d.retract(10, None); // idempotent
        assert_eq!(d.stale(), 1);
        assert_eq!(d.record(11).unwrap(), 1, "the slot itself is not reclaimed");
    }

    #[test]
    fn retract_revives_previous_mapping() {
        let mut d = RowDecoder::new(4);
        d.record(10).unwrap(); // slot 0: the acked write
        let old = d.lookup(10);
        d.record(10).unwrap(); // slot 1: fails verification
        d.retract(10, old);
        assert_eq!(d.lookup(10), Some(0), "acked data stays reachable");
        assert_eq!(d.stale(), 1, "only the burned slot is stale");
        assert_eq!(d.mappings(), vec![(10, 0)]);
    }

    #[test]
    fn queries_match_mappings_and_count_no_searches() {
        let mut d = RowDecoder::new(8);
        for k in [5u64, 1, 9, 5] {
            d.record(k).unwrap();
        }
        assert_eq!(d.mapping(5), Some(3));
        assert_eq!(d.mapping(2), None);
        let mut keys: Vec<u64> = d.logical_pages().collect();
        keys.sort_unstable();
        let sorted: Vec<u64> = d.mappings().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, sorted);
        assert_eq!(d.searches(), 0, "queries are not CAM activations");
    }

    #[test]
    fn lookup_counts_searches() {
        let mut d = RowDecoder::new(2);
        d.lookup(1);
        d.lookup(2);
        assert_eq!(d.searches(), 2);
        assert_eq!(d.lookup(1), None);
    }

    #[test]
    fn mappings_sorted_for_gc() {
        let mut d = RowDecoder::new(8);
        for k in [5u64, 1, 9, 3] {
            d.record(k).unwrap();
        }
        let m = d.mappings();
        assert_eq!(m, vec![(1, 1), (3, 3), (5, 0), (9, 2)],);
    }

    #[test]
    #[should_panic(expected = "at least one wordline")]
    fn zero_pages_rejected() {
        let _ = RowDecoder::new(0);
    }

    #[test]
    fn restore_rebuilds_cam_state() {
        let mut d = RowDecoder::restore(8, 5, [(10u64, 4u32), (20, 2), (30, 3)]);
        assert_eq!(d.lookup(10), Some(4));
        assert_eq!(d.lookup(20), Some(2));
        assert_eq!(d.stale(), 2, "5 consumed slots back 3 live mappings");
        assert_eq!(d.record(40).unwrap(), 5, "in-order register resumes");
    }
}
