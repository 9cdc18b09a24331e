//! The generic set-associative cache with ZnG's tag extensions.
//!
//! Beyond a textbook LRU cache, each line carries:
//!
//! * a **prefetch bit** — set when the line was filled by a prefetch;
//! * an **accessed bit** — set on the first demand hit;
//! * a **pin bit** — pinned lines are skipped by normal eviction (the
//!   write-redirection space of paper §III-C);
//! * an **app tag** — the application that filled the line, reported in
//!   [`EvictedLine::app`]. Nothing reads it: it is stored only because
//!   the fill methods (`SetAssocCache::fill`, `Sm::l1_fill`,
//!   `L2Cache::fill_line`) take an app, and the repository benchmark
//!   calls them with one.
//!
//! The prefetch/accessed pair feeds the access monitor: a line evicted
//! with `prefetch && !accessed` was a wasted prefetch (paper §IV-B).
//!
//! Lines also carry a **poison bit** for end-to-end data-integrity
//! containment: a fill fed by data that failed payload verification is
//! poisoned so every consumer faults deterministically instead of
//! computing on garbage. Poison is sticky until the line is invalidated;
//! a poisoned line never becomes dirty, so it can never be written back
//! to flash as clean data.

use zng_types::ids::AppId;

/// Shape of a cache: sets × ways of `line_bytes` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u64,
    last_use: u64,
    dirty: bool,
    prefetch: bool,
    accessed: bool,
    pinned: bool,
    poison: bool,
    app: AppId,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line base address of the victim.
    pub addr: u64,
    /// Whether it held unwritten-back data.
    pub dirty: bool,
    /// The prefetch bit at eviction.
    pub prefetch: bool,
    /// The accessed bit at eviction.
    pub accessed: bool,
    /// The application that filled the line (stored, never read).
    pub app: AppId,
}

/// A set-associative LRU cache over line addresses.
///
/// # Examples
///
/// ```
/// use zng_gpu::{CacheGeometry, SetAssocCache};
/// use zng_types::ids::AppId;
///
/// let mut c = SetAssocCache::new(CacheGeometry { sets: 4, ways: 2, line_bytes: 128 });
/// assert!(!c.lookup(0x80, false));
/// c.fill(0x80, false, AppId(0));
/// assert!(c.lookup(0x80, false));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geo: CacheGeometry,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Lines whose pin bit is set, kept exact wherever a pin bit changes.
    pinned: usize,
    set_shift: u32,
    set_mask: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `line_bytes` is not a power of
    /// two, or `sets` is not a power of two.
    pub fn new(geo: CacheGeometry) -> SetAssocCache {
        assert!(geo.sets > 0 && geo.ways > 0, "cache needs sets and ways");
        assert!(
            geo.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            geo.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        SetAssocCache {
            geo,
            lines: vec![Line::default(); geo.sets * geo.ways],
            tick: 0,
            hits: 0,
            misses: 0,
            pinned: 0,
            set_shift: geo.line_bytes.trailing_zeros(),
            set_mask: (geo.sets - 1) as u64,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift >> self.geo.sets.trailing_zeros()
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag << self.geo.sets.trailing_zeros() | set as u64) << self.set_shift
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.geo.ways..(set + 1) * self.geo.ways
    }

    /// Hints the host to load `addr`'s set, so a later access to it
    /// does not wait on host memory. Changes no line, tick or counter.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        zng_sim::prefetch(&self.lines[self.slot_range(self.set_of(addr))]);
    }

    /// Demand lookup: returns whether `addr`'s line is resident; on hit,
    /// refreshes LRU, sets the accessed bit, and ORs in `write` dirtiness.
    pub fn lookup(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.last_use = self.tick;
                line.accessed = true;
                // A poisoned line never turns dirty: its payload must not
                // reach flash via a write-back.
                line.dirty |= write && !line.poison;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Non-destructive residency probe (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.slot_range(set)
            .any(|i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Fills `addr`'s line (idempotent if already resident), evicting the
    /// LRU non-pinned way if the set is full.
    ///
    /// Returns the evicted line, if one was displaced. When every way in
    /// the set is pinned the fill is dropped (the caller treats the access
    /// as uncached) and `None` is returned.
    pub fn fill(&mut self, addr: u64, prefetch: bool, app: AppId) -> Option<EvictedLine> {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        // Already resident: refresh only.
        for i in self.slot_range(set) {
            if self.lines[i].valid && self.lines[i].tag == tag {
                self.lines[i].last_use = self.tick;
                return None;
            }
        }
        // Choose an invalid way, else the LRU non-pinned way.
        let mut victim: Option<usize> = None;
        for i in self.slot_range(set) {
            if !self.lines[i].valid {
                victim = Some(i);
                break;
            }
        }
        if victim.is_none() {
            victim = self
                .slot_range(set)
                .filter(|&i| !self.lines[i].pinned)
                .min_by_key(|&i| self.lines[i].last_use);
        }
        let slot = victim?;
        let old = self.lines[slot];
        let evicted = if old.valid {
            Some(EvictedLine {
                addr: self.line_addr(set, old.tag),
                dirty: old.dirty,
                prefetch: old.prefetch,
                accessed: old.accessed,
                app: old.app,
            })
        } else {
            None
        };
        self.lines[slot] = Line {
            valid: true,
            tag,
            last_use: self.tick,
            dirty: false,
            prefetch,
            accessed: false,
            pinned: false,
            poison: false,
            app,
        };
        evicted
    }

    /// Poisons `addr`'s resident line (its fill data failed integrity
    /// verification): consumers check [`SetAssocCache::is_poisoned`] and
    /// fault instead of reading garbage. Poisoning clears the dirty bit
    /// — the payload must never be written back — and is sticky until
    /// the line is invalidated or refilled. Returns `false` if the line
    /// is not resident.
    pub fn poison_line(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.poison = true;
                line.dirty = false;
                return true;
            }
        }
        false
    }

    /// Whether `addr`'s line is resident and poisoned.
    pub fn is_poisoned(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.slot_range(set)
            .any(|i| self.lines[i].valid && self.lines[i].tag == tag && self.lines[i].poison)
    }

    /// Currently poisoned lines.
    pub fn poisoned(&self) -> usize {
        self.lines.iter().filter(|l| l.valid && l.poison).count()
    }

    /// Marks `addr`'s line dirty and pinned (write redirection); returns
    /// `false` if the line is not resident.
    pub fn pin_dirty(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                if line.poison {
                    // Redirecting writes into a poisoned line would pin
                    // bad data for an eventual write-back; refuse.
                    return false;
                }
                self.pinned += usize::from(!line.pinned);
                line.dirty = true;
                line.pinned = true;
                return true;
            }
        }
        false
    }

    /// Unpins at most `max` pinned lines, returning the dirty ones for
    /// write-back. Clean pinned lines encountered on the way are unpinned
    /// for free (nothing to write back).
    pub fn unpin_some(&mut self, max: usize) -> Vec<u64> {
        let mut dirty = Vec::new();
        for set in 0..self.geo.sets {
            for i in self.slot_range(set) {
                if self.lines[i].valid && self.lines[i].pinned {
                    if self.lines[i].dirty {
                        if dirty.len() >= max {
                            return dirty;
                        }
                        dirty.push(self.line_addr(set, self.lines[i].tag));
                    }
                    self.lines[i].pinned = false;
                    self.lines[i].dirty = false;
                    self.pinned -= 1;
                }
            }
        }
        dirty
    }

    /// Whether `addr`'s line is resident and pinned.
    pub fn is_pinned(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.slot_range(set)
            .any(|i| self.lines[i].valid && self.lines[i].tag == tag && self.lines[i].pinned)
    }

    /// Number of currently pinned lines.
    pub fn pinned(&self) -> usize {
        self.pinned
    }

    /// Invalidates `addr`'s line; returns whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        for i in self.slot_range(set) {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                self.pinned -= usize::from(line.pinned);
                line.valid = false;
                line.pinned = false;
                line.poison = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// Drops every line — pinned, dirty, all of it — without write-back
    /// (a power loss; redirected writes that never reached flash are
    /// gone). Returns the number of valid lines lost. Statistics survive
    /// (they are host-side accounting, not SRAM).
    pub fn invalidate_all(&mut self) -> usize {
        let mut lost = 0;
        for line in &mut self.lines {
            if line.valid {
                lost += 1;
            }
            *line = Line::default();
        }
        self.pinned = 0;
        lost
    }

    /// Demand hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Demand hit rate (0.0 if never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> SetAssocCache {
        SetAssocCache::new(CacheGeometry {
            sets: 4,
            ways: 2,
            line_bytes: 128,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        assert!(!c.lookup(0, false));
        c.fill(0, false, AppId(0));
        assert!(c.lookup(0, false));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn line_granularity() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        assert!(c.lookup(127, false), "same line");
        assert!(!c.lookup(128, false), "next line");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = cache();
        // Set stride = 4 sets * 128 = 512; these three map to set 0.
        c.fill(0, false, AppId(0));
        c.fill(512, false, AppId(0));
        c.lookup(0, false); // refresh
        let ev = c.fill(1024, false, AppId(0)).expect("eviction");
        assert_eq!(ev.addr, 512);
        assert!(c.probe(0) && c.probe(1024) && !c.probe(512));
    }

    #[test]
    fn eviction_reports_prefetch_and_accessed_bits() {
        let mut c = cache();
        c.fill(0, true, AppId(0)); // prefetched, never touched
        c.fill(512, false, AppId(0));
        let ev = c.fill(1024, false, AppId(0)).expect("eviction");
        assert_eq!(ev.addr, 0);
        assert!(ev.prefetch && !ev.accessed, "wasted prefetch detected");

        // Now a prefetched line that *was* touched.
        let mut c = cache();
        c.fill(0, true, AppId(0));
        c.lookup(0, false);
        c.fill(512, false, AppId(0));
        c.lookup(512, false);
        let ev = c.fill(1024, false, AppId(0)).expect("eviction");
        assert!(ev.prefetch && ev.accessed);
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        c.lookup(0, true); // dirty it
        c.fill(512, false, AppId(0));
        c.lookup(512, false);
        let ev = c.fill(1024, false, AppId(0)).unwrap();
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn pinned_lines_survive_eviction() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        assert!(c.pin_dirty(0));
        c.fill(512, false, AppId(0));
        // Set 0 full: one pinned + one normal. New fill evicts the normal.
        let ev = c.fill(1024, false, AppId(0)).unwrap();
        assert_eq!(ev.addr, 512);
        assert!(c.probe(0), "pinned line survives");
        // Pin the second way too: now fills into this set are dropped.
        assert!(c.pin_dirty(1024));
        assert!(c.fill(2048, false, AppId(0)).is_none());
        assert!(!c.probe(2048));
    }

    #[test]
    fn unpin_returns_dirty_lines() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        c.pin_dirty(0);
        c.fill(128, false, AppId(0));
        c.pin_dirty(128);
        let dirty = c.unpin_some(usize::MAX);
        assert_eq!(dirty, vec![0, 128]);
        // Unpinned lines are evictable again.
        c.fill(512, false, AppId(0));
        assert!(c.fill(1024, false, AppId(0)).is_some());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        c.lookup(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.probe(0));
    }

    #[test]
    fn fill_is_idempotent_for_resident_lines() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        assert!(c.fill(0, true, AppId(1)).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_all_drops_even_pinned_dirty_lines() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        c.pin_dirty(0);
        c.fill(128, false, AppId(1));
        assert_eq!(c.invalidate_all(), 2);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.pinned(), 0);
        assert!(!c.probe(0) && !c.probe(128));
    }

    #[test]
    fn poison_is_sticky_and_never_dirties() {
        let mut c = cache();
        assert!(!c.poison_line(0), "not resident yet");
        c.fill(0, false, AppId(0));
        c.lookup(0, true); // dirty it first
        assert!(c.poison_line(0));
        assert!(c.is_poisoned(0));
        assert_eq!(c.poisoned(), 1);
        // Poisoning scrubbed the dirty bit and later writes cannot
        // restore it: the bad payload never reaches a write-back.
        c.lookup(0, true);
        assert!(c.is_poisoned(0), "poison survives a write hit");
        assert!(!c.pin_dirty(0), "redirection refuses poisoned lines");
        c.fill(512, false, AppId(0));
        c.lookup(512, false);
        let ev = c.fill(1024, false, AppId(0)).expect("eviction");
        assert_eq!(ev.addr, 0);
        assert!(!ev.dirty, "poisoned victim leaves as clean (dropped)");
    }

    #[test]
    fn poison_clears_on_invalidate_and_refill() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        c.poison_line(0);
        assert_eq!(c.invalidate(0), Some(false));
        assert!(!c.is_poisoned(0));
        c.fill(0, false, AppId(0));
        assert!(!c.is_poisoned(0), "a fresh fill starts clean");

        c.poison_line(0);
        assert_eq!(c.invalidate_all(), 1);
        assert_eq!(c.poisoned(), 0);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = cache();
        c.fill(0, false, AppId(0));
        c.lookup(0, false);
        c.lookup(128, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}
