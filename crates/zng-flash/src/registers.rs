//! Flash-register write cache (paper §III-C / §IV-C).
//!
//! Z-NAND planes carry a few registers (Table I: 8 per plane). ZnG groups
//! all registers of a package into a **fully-associative** write cache so
//! that small 128 B writes merge in registers instead of each triggering a
//! 100 µs read-modify-program. The [`RegisterCache`] tracks *which* page
//! each register holds and where it physically sits (which plane's
//! register file), because an eviction whose holder is not the page's home
//! plane must migrate data across the register interconnect
//! (SWnet / FCnet / NiF — see [`crate::package`]).
//!
//! The **thrashing checker** watches the eviction/write ratio; when
//! write-intensive phases (e.g. `gaus`) overwhelm the registers, the
//! platform redirects overflow dirty data into pinned L2 space
//! (paper Fig. 13 "redirection").

use fxhash::{FxBuildHasher, FxHashMap};

/// Identifies a page held in a register (device-global page key).
pub type RegPageKey = u64;

#[derive(Debug, Clone)]
struct Entry {
    home_plane: usize,
    holder_plane: usize,
    last_use: u64,
    /// Sector writes merged into this register since insertion.
    writes_merged: u64,
}

/// A page pushed out of the register cache; the caller must program it to
/// its home plane (and pay a migration if `holder_plane != home_plane`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The page being written back.
    pub key: RegPageKey,
    /// The plane (package-local index) the page belongs to.
    pub home_plane: usize,
    /// The plane whose register file physically held the data.
    pub holder_plane: usize,
    /// How many sector writes were merged while resident.
    pub writes_merged: u64,
}

/// The result of a sector write submitted to the register cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The write merged into a register already holding the page.
    pub hit: bool,
    /// The page was newly inserted into a register on a *remote* plane
    /// (its home plane's register group was full).
    pub inserted_remote: bool,
    /// A victim had to be written back to make room.
    pub evicted: Option<Evicted>,
}

/// A package's flash registers, managed as a write cache.
///
/// Two organisations (paper Fig. 13 "baseline" vs "network"):
///
/// * **private** — each plane may only use its own `registers_per_plane`
///   registers (the baseline, which thrashes under skewed writes);
/// * **grouped** — all registers of the package form one fully-associative
///   pool; a write prefers its home plane's registers but can spill to any
///   other plane's.
///
/// # Examples
///
/// ```
/// use zng_flash::RegisterCache;
///
/// let mut regs = RegisterCache::grouped(4, 2); // 4 planes x 2 registers
/// let first = regs.write(100, 0);
/// assert!(!first.hit);
/// let again = regs.write(100, 0);
/// assert!(again.hit); // merged, no flash program
/// ```
#[derive(Debug, Clone)]
pub struct RegisterCache {
    planes: usize,
    registers_per_plane: usize,
    grouped: bool,
    /// Resident pages, keyed by page. Bounded by the pool capacity, so
    /// the map is pre-sized at construction and never rehashes; victim
    /// selection is iteration-order independent (`last_use` ticks are
    /// unique), so the Fx hasher changes no observable behaviour.
    entries: FxHashMap<RegPageKey, Entry>,
    plane_occupancy: Vec<usize>,
    tick: u64,
    // Thrashing checker (windowed eviction-rate monitor).
    window_writes: u64,
    window_evictions: u64,
    thrashing: bool,
    // Lifetime stats.
    total_writes: u64,
    total_hits: u64,
    total_evictions: u64,
}

/// Thrashing-checker window length in writes.
const THRASH_WINDOW: u64 = 256;
/// Eviction/write ratio above which the cache is declared thrashing.
const THRASH_RATIO: f64 = 0.5;

impl RegisterCache {
    /// A fully-associative package-wide register pool.
    pub fn grouped(planes: usize, registers_per_plane: usize) -> RegisterCache {
        Self::new(planes, registers_per_plane, true)
    }

    /// Private per-plane registers (the baseline organisation).
    pub fn private(planes: usize, registers_per_plane: usize) -> RegisterCache {
        Self::new(planes, registers_per_plane, false)
    }

    fn new(planes: usize, registers_per_plane: usize, grouped: bool) -> RegisterCache {
        assert!(planes > 0, "register cache needs at least one plane");
        assert!(
            registers_per_plane > 0,
            "register cache needs at least one register per plane"
        );
        RegisterCache {
            planes,
            registers_per_plane,
            grouped,
            entries: FxHashMap::with_capacity_and_hasher(
                planes * registers_per_plane,
                FxBuildHasher::default(),
            ),
            plane_occupancy: vec![0; planes],
            tick: 0,
            window_writes: 0,
            window_evictions: 0,
            thrashing: false,
            total_writes: 0,
            total_hits: 0,
            total_evictions: 0,
        }
    }

    /// Submits one sector write for the page `key` whose home plane is
    /// `home_plane` (package-local plane index).
    ///
    /// # Panics
    ///
    /// Panics if `home_plane` is out of range.
    pub fn write(&mut self, key: RegPageKey, home_plane: usize) -> WriteOutcome {
        assert!(
            home_plane < self.planes,
            "home plane {home_plane} out of range"
        );
        self.tick += 1;
        self.total_writes += 1;
        self.window_writes += 1;

        if let Some(e) = self.entries.get_mut(&key) {
            e.last_use = self.tick;
            e.writes_merged += 1;
            self.total_hits += 1;
            self.roll_window();
            return WriteOutcome {
                hit: true,
                inserted_remote: false,
                evicted: None,
            };
        }

        // Find a holder plane with a free register.
        let holder = self.pick_holder(home_plane);
        let (holder, evicted) = match holder {
            Some(h) => (h, None),
            None => {
                let victim = self.evict_for(home_plane);
                // The victim freed a slot in its holder plane; reuse it if
                // allowed, else the home plane (private mode evicts from
                // the home plane by construction).
                (victim.holder_plane, Some(victim))
            }
        };
        self.entries.insert(
            key,
            Entry {
                home_plane,
                holder_plane: holder,
                last_use: self.tick,
                writes_merged: 1,
            },
        );
        self.plane_occupancy[holder] += 1;
        self.roll_window();
        WriteOutcome {
            hit: false,
            inserted_remote: holder != home_plane,
            evicted,
        }
    }

    /// Chooses a plane with a free register: home first, then (grouped
    /// only) the least-occupied other plane.
    fn pick_holder(&self, home_plane: usize) -> Option<usize> {
        if self.plane_occupancy[home_plane] < self.registers_per_plane {
            return Some(home_plane);
        }
        if !self.grouped {
            return None;
        }
        self.plane_occupancy
            .iter()
            .enumerate()
            .filter(|(_, &occ)| occ < self.registers_per_plane)
            .min_by_key(|(_, &occ)| occ)
            .map(|(i, _)| i)
    }

    /// Evicts the least-recently-used eligible entry and returns it.
    fn evict_for(&mut self, home_plane: usize) -> Evicted {
        let victim_key = self
            .entries
            .iter()
            .filter(|(_, e)| self.grouped || e.holder_plane == home_plane)
            .min_by_key(|(_, e)| e.last_use)
            .map(|(k, _)| *k)
            .expect("cache is full, so an eligible victim exists");
        let e = self.entries.remove(&victim_key).expect("victim present");
        self.plane_occupancy[e.holder_plane] -= 1;
        self.total_evictions += 1;
        self.window_evictions += 1;
        Evicted {
            key: victim_key,
            home_plane: e.home_plane,
            holder_plane: e.holder_plane,
            writes_merged: e.writes_merged,
        }
    }

    fn roll_window(&mut self) {
        if self.window_writes >= THRASH_WINDOW {
            let ratio = self.window_evictions as f64 / self.window_writes as f64;
            self.thrashing = ratio > THRASH_RATIO;
            self.window_writes = 0;
            self.window_evictions = 0;
        }
    }

    /// Whether a register currently holds `key` (reads can be served from
    /// the register without touching the array).
    pub fn contains(&self, key: RegPageKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Removes `key` without a write-back (its data became stale, e.g.
    /// after GC migrated the block).
    pub fn discard(&mut self, key: RegPageKey) -> bool {
        if let Some(e) = self.entries.remove(&key) {
            self.plane_occupancy[e.holder_plane] -= 1;
            true
        } else {
            false
        }
    }

    /// Cuts power: every resident page is lost **without** write-back
    /// (registers are volatile — this is the write-cache data a crash
    /// destroys), and the thrashing window resets. Returns how many
    /// pages were dropped.
    pub fn power_loss(&mut self) -> usize {
        let dropped = self.entries.len();
        self.entries.clear();
        self.plane_occupancy.iter_mut().for_each(|o| *o = 0);
        self.window_writes = 0;
        self.window_evictions = 0;
        self.thrashing = false;
        dropped
    }

    /// The thrashing checker's current verdict (paper §III-C).
    pub fn is_thrashing(&self) -> bool {
        self.thrashing
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no registers are in use.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total register capacity in pages.
    pub fn capacity(&self) -> usize {
        self.planes * self.registers_per_plane
    }

    /// Lifetime sector writes accepted.
    pub fn writes(&self) -> u64 {
        self.total_writes
    }

    /// Lifetime merges (register hits).
    pub fn hits(&self) -> u64 {
        self.total_hits
    }

    /// Lifetime evictions (flash programs caused).
    pub fn evictions(&self) -> u64 {
        self.total_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_hits_avoid_evictions() {
        let mut r = RegisterCache::grouped(2, 2);
        for _ in 0..100 {
            r.write(7, 0);
        }
        assert_eq!(r.hits(), 99);
        assert_eq!(r.evictions(), 0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn grouped_spills_to_remote_plane() {
        let mut r = RegisterCache::grouped(2, 1);
        let a = r.write(1, 0);
        assert!(!a.inserted_remote);
        // Plane 0's single register is taken; page 2 (home 0) spills to 1.
        let b = r.write(2, 0);
        assert!(b.inserted_remote, "{b:?}");
        assert!(b.evicted.is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn private_mode_cannot_spill() {
        let mut r = RegisterCache::private(2, 1);
        r.write(1, 0);
        let b = r.write(2, 0); // must evict page 1 from plane 0
        assert!(!b.inserted_remote);
        let ev = b.evicted.expect("eviction required");
        assert_eq!(ev.key, 1);
        assert_eq!(ev.home_plane, 0);
        // Plane 1 register untouched.
        let c = r.write(3, 1);
        assert!(c.evicted.is_none());
    }

    #[test]
    fn lru_victim_selection() {
        let mut r = RegisterCache::grouped(1, 2);
        r.write(1, 0);
        r.write(2, 0);
        r.write(1, 0); // refresh 1 -> victim must be 2
        let out = r.write(3, 0);
        assert_eq!(out.evicted.unwrap().key, 2);
        assert!(r.contains(1));
        assert!(r.contains(3));
    }

    #[test]
    fn evicted_records_remote_holder() {
        let mut r = RegisterCache::grouped(2, 1);
        r.write(1, 0);
        r.write(2, 0); // remote: held by plane 1
        r.write(1, 0); // refresh 1
        let out = r.write(3, 0); // evicts 2, which lives on plane 1
        let ev = out.evicted.unwrap();
        assert_eq!(ev.key, 2);
        assert_eq!(ev.home_plane, 0);
        assert_eq!(ev.holder_plane, 1);
    }

    #[test]
    fn power_loss_drops_everything_without_writeback() {
        let mut r = RegisterCache::grouped(2, 2);
        for k in 0..4u64 {
            r.write(k, (k % 2) as usize);
        }
        let evictions_before = r.evictions();
        assert_eq!(r.power_loss(), 4);
        assert!(r.is_empty());
        assert_eq!(
            r.evictions(),
            evictions_before,
            "a power loss is not a write-back"
        );
        assert!(!r.is_thrashing());
        // Slots are genuinely free again.
        assert!(!r.write(10, 0).inserted_remote);
    }

    #[test]
    fn discard_frees_slot() {
        let mut r = RegisterCache::grouped(1, 1);
        r.write(1, 0);
        assert!(r.discard(1));
        assert!(!r.discard(1));
        let out = r.write(2, 0);
        assert!(out.evicted.is_none());
    }

    #[test]
    fn thrashing_checker_fires_under_pressure() {
        // 1 plane x 1 register, all-distinct pages: every write evicts.
        let mut r = RegisterCache::private(1, 1);
        for k in 0..1024u64 {
            r.write(k, 0);
        }
        assert!(r.is_thrashing());
        // A merge-friendly stream clears the verdict.
        for _ in 0..1024 {
            r.write(0, 0);
        }
        assert!(!r.is_thrashing());
    }

    #[test]
    fn capacity_reporting() {
        let r = RegisterCache::grouped(64, 8);
        assert_eq!(r.capacity(), 512);
    }
}
