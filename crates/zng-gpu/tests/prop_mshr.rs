//! The MSHR file against a reference model: a map of in-flight fills
//! plus an ordered `(done, key)` set, the structure the file used before
//! its index became a heap. Random interleavings of merges, fills (a key
//! re-registered with the same and with a different completion time),
//! bounded-mode hazard checks, cancels and power losses must give the
//! same return value at every step, and the same `len`, `merges`,
//! `registrations` and `full_stalls` after it.

use std::collections::BTreeSet;

use fxhash::FxHashMap;
use proptest::prelude::*;
use zng_gpu::Mshr;
use zng_types::Cycle;

/// Sector keys are 128 B-aligned, as the request path registers them.
const SECTOR: u64 = 128;

/// The ordered-set MSHR: victim and prune read the first `(done, key)`.
struct Reference {
    capacity: usize,
    entries: FxHashMap<u64, Cycle>,
    by_done: BTreeSet<(Cycle, u64)>,
    merges: u64,
    registrations: u64,
    full_stalls: u64,
}

impl Reference {
    fn new(capacity: usize) -> Reference {
        Reference {
            capacity,
            entries: FxHashMap::default(),
            by_done: BTreeSet::new(),
            merges: 0,
            registrations: 0,
            full_stalls: 0,
        }
    }

    fn evict(&mut self, key: u64) {
        if let Some(done) = self.entries.remove(&key) {
            self.by_done.remove(&(done, key));
        }
    }

    fn inflight(&mut self, now: Cycle, key: u64) -> Option<Cycle> {
        match self.entries.get(&key) {
            Some(&done) if done > now => {
                self.merges += 1;
                Some(done)
            }
            Some(_) => {
                self.evict(key);
                None
            }
            None => None,
        }
    }

    fn register(&mut self, key: u64, done: Cycle) {
        self.registrations += 1;
        if self.entries.len() >= self.capacity {
            if let Some(&(d, victim)) = self.by_done.first() {
                self.by_done.remove(&(d, victim));
                self.entries.remove(&victim);
            }
        }
        if let Some(old) = self.entries.insert(key, done) {
            self.by_done.remove(&(old, key));
        }
        self.by_done.insert((done, key));
    }

    fn full_until(&mut self, now: Cycle, key: u64) -> Option<Cycle> {
        while let Some(&(done, k)) = self.by_done.first() {
            if done > now {
                break;
            }
            self.by_done.remove(&(done, k));
            self.entries.remove(&k);
        }
        if self.entries.len() < self.capacity || self.entries.contains_key(&key) {
            return None;
        }
        self.full_stalls += 1;
        let earliest = self.by_done.first().map(|&(done, _)| done)?;
        Some(earliest.max(now + Cycle(1)))
    }

    fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        self.by_done.clear();
        n
    }
}

/// Capacities 1–8 (the bounded `--qos` files) and 64 (the default).
fn capacity(draw: u8) -> usize {
    if draw < 8 {
        draw as usize + 1
    } else {
        64
    }
}

proptest! {
    /// Each step is `(op, key, delta, advance)`: `now` moves forward by
    /// `advance` (or back by it on one op in 32, so out-of-order callers
    /// are covered too), fills complete `delta` cycles after `now`, and
    /// keys come from a pool of `2 × capacity + 2` sectors so the file
    /// fills, evicts and merges.
    #[test]
    fn mshr_matches_the_ordered_set_reference(
        cap in 0u8..9,
        steps in prop::collection::vec((0u8..32, 0u64..256, 0u64..400, 0u64..40), 1..600),
    ) {
        let capacity = capacity(cap);
        let pool = 2 * capacity as u64 + 2;
        let (mut mshr, mut reference) = (Mshr::new(capacity), Reference::new(capacity));
        let mut now = Cycle(1_000);
        for (op, k, delta, advance) in steps {
            now = if op == 31 {
                Cycle(now.raw().saturating_sub(advance))
            } else {
                now + Cycle(advance)
            };
            let key = (k % pool) * SECTOR;
            match op {
                0..=8 => prop_assert_eq!(mshr.inflight(now, key), reference.inflight(now, key)),
                9..=16 => {
                    mshr.register(key, now + Cycle(delta));
                    reference.register(key, now + Cycle(delta));
                }
                17..=19 => {
                    // Re-register a tracked key at its own completion
                    // time (or a fresh one when it is not tracked).
                    let done = reference
                        .entries
                        .get(&key)
                        .copied()
                        .unwrap_or(now + Cycle(delta));
                    mshr.register(key, done);
                    reference.register(key, done);
                }
                20..=26 => {
                    prop_assert_eq!(mshr.full_until(now, key), reference.full_until(now, key))
                }
                27..=29 => {
                    mshr.cancel(key);
                    reference.evict(key);
                }
                30 if delta < 20 => prop_assert_eq!(mshr.clear(), reference.clear()),
                _ => prop_assert_eq!(mshr.inflight(now, key), reference.inflight(now, key)),
            }
            prop_assert_eq!(mshr.len(), reference.entries.len());
            prop_assert_eq!(mshr.is_empty(), reference.entries.is_empty());
            prop_assert_eq!(mshr.merges(), reference.merges);
            prop_assert_eq!(mshr.registrations(), reference.registrations);
            prop_assert_eq!(mshr.full_stalls(), reference.full_stalls);
        }
    }

    /// The request path's bounded pattern: check for a hazard, and fill
    /// only when the file has room or can merge.
    #[test]
    fn bounded_register_after_full_until_matches_the_reference(
        cap in 0u8..9,
        steps in prop::collection::vec((0u64..256, 1u64..400, 0u64..30), 1..600),
    ) {
        let capacity = capacity(cap);
        let pool = 2 * capacity as u64 + 2;
        let (mut mshr, mut reference) = (Mshr::new(capacity), Reference::new(capacity));
        let mut now = Cycle(0);
        for (k, delta, advance) in steps {
            now += Cycle(advance);
            let key = (k % pool) * SECTOR;
            let hazard = mshr.full_until(now, key);
            prop_assert_eq!(hazard, reference.full_until(now, key));
            if hazard.is_none() {
                let merged = mshr.inflight(now, key);
                prop_assert_eq!(merged, reference.inflight(now, key));
                if merged.is_none() {
                    mshr.register(key, now + Cycle(delta));
                    reference.register(key, now + Cycle(delta));
                }
            }
            prop_assert_eq!(mshr.len(), reference.entries.len());
            prop_assert!(mshr.len() <= capacity);
            prop_assert_eq!(mshr.full_stalls(), reference.full_stalls);
        }
    }
}
