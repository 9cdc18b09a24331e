//! Miss-status holding registers: merging outstanding misses.
//!
//! When several warps miss on the same line (or, in ZnG, the same flash
//! page) while a fill is in flight, only the first goes to memory; the
//! rest complete when that fill lands. [`Mshr`] tracks in-flight fills by
//! an arbitrary key (line address or page number) with their completion
//! times and merges joiners.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fxhash::{FxBuildHasher, FxHashMap};
use zng_types::Cycle;

/// In-flight fill tracker.
///
/// # Examples
///
/// ```
/// use zng_gpu::Mshr;
/// use zng_types::Cycle;
///
/// let mut mshr = Mshr::new(64);
/// assert_eq!(mshr.inflight(Cycle(0), 7), None); // nobody fetching 7
/// mshr.register(7, Cycle(100));
/// assert_eq!(mshr.inflight(Cycle(10), 7), Some(Cycle(100))); // merge
/// assert_eq!(mshr.inflight(Cycle(200), 7), None); // already landed
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    /// In-flight fills by key, pre-sized to `capacity` (the file never
    /// holds more) with the deterministic Fx hasher; victim selection is
    /// fully tie-broken on `(done, key)`, so iteration order is never
    /// observable.
    entries: FxHashMap<u64, Cycle>,
    /// Min-heap of `(done, key)` pairs with lazy deletion. Every entry
    /// has a matching pair; a pair whose key is gone from `entries`, or
    /// maps to another time there, is stale and skipped when it reaches
    /// the top. Victim selection and expired-entry pruning read the live
    /// minimum `(done, key)` on the per-request hot path. The heap holds
    /// at most `2 × capacity` pairs: it is rebuilt from `entries` rather
    /// than grown past that.
    by_done: BinaryHeap<Reverse<(Cycle, u64)>>,
    merges: u64,
    registrations: u64,
    /// Structural-hazard stalls observed through the bounded API
    /// ([`Mshr::full_until`]).
    full_stalls: u64,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mshr {
        assert!(capacity > 0, "MSHR needs capacity");
        Mshr {
            capacity,
            entries: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            by_done: BinaryHeap::with_capacity(2 * capacity),
            merges: 0,
            registrations: 0,
            full_stalls: 0,
        }
    }

    /// The live minimum `(done, key)`, after popping the stale pairs
    /// above it.
    fn earliest(&mut self) -> Option<(Cycle, u64)> {
        while let Some(&Reverse((done, key))) = self.by_done.peek() {
            if self.entries.get(&key) == Some(&done) {
                return Some((done, key));
            }
            self.by_done.pop();
        }
        None
    }

    /// Removes the live minimum `(done, key)` from the map and the heap.
    fn pop_earliest(&mut self) {
        if let Some((_, key)) = self.earliest() {
            self.by_done.pop();
            self.entries.remove(&key);
        }
    }

    /// If a fill for `key` is still in flight at `now`, returns its
    /// completion time (the caller merges instead of fetching).
    pub fn inflight(&mut self, now: Cycle, key: u64) -> Option<Cycle> {
        match self.entries.get(&key) {
            Some(&done) if done > now => {
                self.merges += 1;
                Some(done)
            }
            Some(_) => {
                self.entries.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Registers a new fill for `key` completing at `done`.
    ///
    /// If the file is full, expired entries are reclaimed first; when
    /// nothing has expired the oldest-completing entry is replaced (a
    /// structural-hazard approximation that keeps the model non-blocking).
    pub fn register(&mut self, key: u64, done: Cycle) {
        self.registrations += 1;
        if self.entries.len() >= self.capacity {
            // Reclaim the entry that completes earliest.
            self.pop_earliest();
        }
        if self.entries.insert(key, done) == Some(done) {
            // Its pair is already in the heap.
            return;
        }
        if self.by_done.len() >= 2 * self.capacity {
            // Mostly stale pairs: keep only the live ones.
            self.by_done.clear();
            self.by_done
                .extend(self.entries.iter().map(|(&k, &d)| Reverse((d, k))));
        } else {
            self.by_done.push(Reverse((done, key)));
        }
    }

    /// Bounded-mode structural-hazard check: if the file has no free
    /// entry at `now` (after pruning landed fills), returns the earliest
    /// cycle at which one frees up — the caller backs off and retries
    /// instead of displacing an in-flight fill. Returns `None` when an
    /// entry (or a mergeable fill for `key`) is available.
    ///
    /// Each `Some` result counts one MSHR-full stall.
    pub fn full_until(&mut self, now: Cycle, key: u64) -> Option<Cycle> {
        // Prune landed fills in completion order from the heap top.
        while self.earliest().is_some_and(|(done, _)| done <= now) {
            self.pop_earliest();
        }
        if self.entries.len() < self.capacity || self.entries.contains_key(&key) {
            return None;
        }
        self.full_stalls += 1;
        let (earliest, _) = self.earliest().expect("a full MSHR file has entries");
        Some(earliest.max(now + Cycle(1)))
    }

    /// MSHR-full stalls observed through [`Mshr::full_until`].
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Drops any record for `key` (e.g. the line was invalidated).
    pub fn cancel(&mut self, key: u64) {
        self.entries.remove(&key);
    }

    /// Drops every tracked fill (power loss — nothing in flight survives).
    /// Returns the number of entries dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.by_done.clear();
        n
    }

    /// Requests that merged onto an in-flight fill.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Fills registered.
    pub fn registrations(&self) -> u64 {
        self.registrations
    }

    /// Entries currently tracked (including expired ones not yet pruned).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fills are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_while_in_flight() {
        let mut m = Mshr::new(4);
        m.register(1, Cycle(100));
        assert_eq!(m.inflight(Cycle(50), 1), Some(Cycle(100)));
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn expired_entries_are_pruned_on_query() {
        let mut m = Mshr::new(4);
        m.register(1, Cycle(100));
        assert_eq!(m.inflight(Cycle(100), 1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_replacement_keeps_latest() {
        let mut m = Mshr::new(2);
        m.register(1, Cycle(10));
        m.register(2, Cycle(20));
        m.register(3, Cycle(30)); // displaces key 1 (earliest completion)
        assert_eq!(m.len(), 2);
        assert_eq!(m.inflight(Cycle(0), 1), None);
        assert_eq!(m.inflight(Cycle(0), 3), Some(Cycle(30)));
    }

    #[test]
    fn cancel_removes() {
        let mut m = Mshr::new(2);
        m.register(5, Cycle(100));
        m.cancel(5);
        assert_eq!(m.inflight(Cycle(0), 5), None);
    }

    #[test]
    fn clear_drops_everything_in_flight() {
        let mut m = Mshr::new(4);
        m.register(1, Cycle(100));
        m.register(2, Cycle(200));
        assert_eq!(m.clear(), 2);
        assert!(m.is_empty());
        assert_eq!(m.inflight(Cycle(0), 1), None);
    }

    #[test]
    fn full_until_reports_earliest_free_slot() {
        let mut m = Mshr::new(2);
        m.register(1, Cycle(100));
        m.register(2, Cycle(200));
        assert_eq!(m.full_until(Cycle(0), 3), Some(Cycle(100)));
        assert_eq!(m.full_stalls(), 1);
        // A mergeable key is never a structural hazard.
        assert_eq!(m.full_until(Cycle(0), 1), None);
        // Once the earliest fill lands, space exists again.
        assert_eq!(m.full_until(Cycle(100), 3), None);
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
