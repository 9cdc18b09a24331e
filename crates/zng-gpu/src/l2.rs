//! The shared, banked L2 cache (SRAM or STT-MRAM).
//!
//! Table I: 6 banks, 1024 sets × 8 ways × 128 B = 6 MB of SRAM; the
//! STT-MRAM variant quadruples capacity (24 MB) at a 5-cycle write cost.
//! In ZnG the STT-MRAM L2 is operated **read-only** — writes bypass to
//! the flash registers — except for *pinned* lines that absorb redirected
//! dirty data when the registers thrash (paper §III-C).

use zng_sim::Resource;
use zng_types::{ids::AppId, ids::BankId, Cycle};

use crate::cache::{CacheGeometry, EvictedLine, SetAssocCache};
use crate::config::{GpuConfig, L2Technology};

/// The outcome of an L2 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Access {
    /// Whether the line was resident.
    pub hit: bool,
    /// When the bank finished the access.
    pub done: Cycle,
}

/// The shared L2.
#[derive(Debug, Clone)]
pub struct L2Cache {
    banks: Vec<SetAssocCache>,
    bank_ports: Vec<Resource>,
    tech: L2Technology,
    read_only: bool,
    line_bytes: usize,
    /// `log2(line_bytes)`: [`L2Cache::bank_of`] shifts instead of dividing.
    line_shift: u32,
    fills: u64,
    prefetch_fills: u64,
}

impl L2Cache {
    /// Builds the L2 from a GPU configuration.
    pub fn new(cfg: &GpuConfig) -> L2Cache {
        let geo = CacheGeometry {
            sets: cfg.l2_sets_per_bank,
            ways: cfg.l2_ways,
            line_bytes: cfg.line_bytes,
        };
        L2Cache {
            banks: (0..cfg.l2_banks).map(|_| SetAssocCache::new(geo)).collect(),
            bank_ports: (0..cfg.l2_banks).map(|_| Resource::new(1)).collect(),
            tech: cfg.l2_tech,
            read_only: false,
            line_bytes: cfg.line_bytes,
            line_shift: cfg.line_bytes.trailing_zeros(),
            fills: 0,
            prefetch_fills: 0,
        }
    }

    /// Marks the cache read-only (ZnG's STT-MRAM mode): [`L2Cache::access`]
    /// with `write = true` will not allocate or dirty lines.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// The bank an address maps to (line-interleaved).
    pub fn bank_of(&self, addr: u64) -> BankId {
        BankId(((addr >> self.line_shift) % self.banks.len() as u64) as u16)
    }

    /// Hints the host to load the set `addr` maps to (see
    /// [`SetAssocCache::prefetch`]). Changes no line, port or counter.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        self.banks[self.bank_of(addr).index()].prefetch(addr);
    }

    fn port_latency(&self, write: bool) -> Cycle {
        if write {
            Cycle(self.tech.write_cycles())
        } else {
            Cycle(self.tech.read_cycles())
        }
    }

    /// Demand access: looks up `addr`, occupying the bank port.
    ///
    /// A write to a read-only L2 is a *bypass*: it still probes (to
    /// invalidate stale data is the platform's job) but never dirties.
    pub fn access(&mut self, now: Cycle, addr: u64, write: bool) -> L2Access {
        let bank = self.bank_of(addr).index();
        let effective_write = write && !self.read_only;
        let latency = self.port_latency(effective_write);
        let done = self.bank_ports[bank].acquire(now, latency);
        let hit = self.banks[bank].lookup(addr, effective_write);
        L2Access { hit, done }
    }

    /// Fills one line; returns the displaced line (for the access
    /// monitor) and the fill-done time.
    ///
    /// Fills arrive at *future* timestamps (when the backend delivers the
    /// data) and slip into idle bank cycles, so they pay the technology's
    /// write latency but do **not** reserve the bank port — reserving a
    /// single-server resource out of time order would falsely queue every
    /// later-processed demand access behind the fill.
    pub fn fill_line(
        &mut self,
        now: Cycle,
        addr: u64,
        prefetch: bool,
        app: AppId,
    ) -> (Option<EvictedLine>, Cycle) {
        let bank = self.bank_of(addr).index();
        let done = now + self.port_latency(true);
        self.fills += 1;
        if prefetch {
            self.prefetch_fills += 1;
        }
        (self.banks[bank].fill(addr, prefetch, app), done)
    }

    /// Fills `bytes / line_bytes` consecutive lines starting at `base`
    /// (a flash-page or prefetch-granule fill). Hands each displaced line
    /// to `on_evict` and returns the time the last line landed.
    pub fn fill_span(
        &mut self,
        now: Cycle,
        base: u64,
        bytes: usize,
        prefetch: bool,
        app: AppId,
        mut on_evict: impl FnMut(EvictedLine),
    ) -> Cycle {
        let mut done = now;
        let lines = (bytes / self.line_bytes).max(1);
        let line_bytes = self.line_bytes as u64;
        let addrs = (0..lines as u64).map(|i| base + i * line_bytes);
        // Hint every set first, so their host misses overlap instead of
        // each fill waiting on its own.
        for addr in addrs.clone() {
            self.prefetch(addr);
        }
        for addr in addrs {
            let (ev, t) = self.fill_line(now, addr, prefetch, app);
            if let Some(e) = ev {
                on_evict(e);
            }
            done = done.max(t);
        }
        done
    }

    /// Non-destructive residency probe.
    pub fn probe(&self, addr: u64) -> bool {
        self.banks[self.bank_of(addr).index()].probe(addr)
    }

    /// Poisons `addr`'s resident line (integrity containment); returns
    /// `false` if not resident.
    pub fn poison_line(&mut self, addr: u64) -> bool {
        let bank = self.bank_of(addr).index();
        self.banks[bank].poison_line(addr)
    }

    /// Currently poisoned lines across all banks.
    pub fn poisoned(&self) -> usize {
        self.banks.iter().map(|b| b.poisoned()).sum()
    }

    /// Pins `addr`'s line dirty (write redirection target). Returns
    /// `false` if not resident.
    pub fn pin_dirty(&mut self, addr: u64) -> bool {
        let bank = self.bank_of(addr).index();
        self.banks[bank].pin_dirty(addr)
    }

    /// Unpins at most `max` dirty lines (bank by bank), returning them
    /// for write-back — lets the platform drain redirected writes in
    /// small batches instead of one thundering herd.
    pub fn unpin_up_to(&mut self, max: usize) -> Vec<u64> {
        let mut dirty = Vec::new();
        for bank in &mut self.banks {
            let remaining = max.saturating_sub(dirty.len());
            if remaining == 0 {
                break;
            }
            dirty.extend(bank.unpin_some(remaining));
        }
        dirty.sort_unstable();
        dirty
    }

    /// Currently pinned lines across all banks.
    pub fn pinned(&self) -> usize {
        self.banks.iter().map(|b| b.pinned()).sum()
    }

    /// Drops every resident line in every bank — pinned dirty lines
    /// included — without any write-back. This models a power cut: both
    /// SRAM and STT-MRAM L2 contents are treated as lost because the
    /// tag/state arrays are volatile even when the data array is not.
    /// Returns the number of lines lost. Hit/miss statistics survive.
    pub fn power_loss(&mut self) -> usize {
        self.banks.iter_mut().map(|b| b.invalidate_all()).sum()
    }

    /// Invalidates a line; returns `Some(dirty)` if it was resident.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let bank = self.bank_of(addr).index();
        self.banks[bank].invalidate(addr)
    }

    /// Aggregate demand hits.
    pub fn hits(&self) -> u64 {
        self.banks.iter().map(|b| b.hits()).sum()
    }

    /// Aggregate demand misses.
    pub fn misses(&self) -> u64 {
        self.banks.iter().map(|b| b.misses()).sum()
    }

    /// Aggregate hit rate.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Total line fills (demand + prefetch).
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Prefetch line fills.
    pub fn prefetch_fills(&self) -> u64 {
        self.prefetch_fills
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2Cache {
        L2Cache::new(&GpuConfig::tiny())
    }

    #[test]
    fn banks_interleave_by_line() {
        let c = l2();
        assert_eq!(c.bank_of(0), BankId(0));
        assert_eq!(c.bank_of(128), BankId(1));
        assert_eq!(c.bank_of(256), BankId(0));
    }

    #[test]
    fn bank_shift_matches_the_division_form() {
        for cfg in [
            GpuConfig::table1(),
            GpuConfig::table1_stt_mram(),
            GpuConfig::tiny(),
        ] {
            let c = L2Cache::new(&cfg);
            let banks = cfg.l2_banks as u64;
            for i in 0..10_000 {
                let addr = zng_sim::rng::derive_seed(42, i);
                let by_division = (addr / cfg.line_bytes as u64) % banks;
                assert_eq!(c.bank_of(addr), BankId(by_division as u16), "{addr:#x}");
            }
        }
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = l2();
        let a = c.access(Cycle(0), 0, false);
        assert!(!a.hit);
        c.fill_line(a.done, 0, false, AppId(0));
        let b = c.access(Cycle(100), 0, false);
        assert!(b.hit);
    }

    #[test]
    fn stt_mram_writes_are_slower() {
        let mut cfg = GpuConfig::tiny();
        cfg.l2_tech = L2Technology::SttMram;
        let mut c = L2Cache::new(&cfg);
        c.fill_line(Cycle(0), 0, false, AppId(0));
        let r = c.access(Cycle(100), 0, false);
        let w = c.access(Cycle(200), 0, true);
        assert_eq!(r.done - Cycle(100), Cycle(1));
        assert_eq!(w.done - Cycle(200), Cycle(5));
    }

    #[test]
    fn read_only_mode_never_dirties() {
        let mut c = l2();
        c.set_read_only(true);
        c.fill_line(Cycle(0), 0, false, AppId(0));
        c.access(Cycle(1), 0, true); // bypassed write
        assert_eq!(c.invalidate(0), Some(false), "line stayed clean");
    }

    #[test]
    fn fill_span_covers_page() {
        let mut c = l2();
        let done = c.fill_span(Cycle(0), 0, 4096, false, AppId(0), |_| {});
        assert!(done > Cycle(0));
        for i in 0..32u64 {
            assert!(c.probe(i * 128), "line {i} filled");
        }
        assert_eq!(c.fills(), 32);
    }

    #[test]
    fn prefetch_fills_counted_separately() {
        let mut c = l2();
        c.fill_span(Cycle(0), 0, 1024, true, AppId(0), |_| {});
        assert_eq!(c.prefetch_fills(), 8);
    }

    #[test]
    fn pin_and_unpin_roundtrip() {
        let mut c = l2();
        c.fill_line(Cycle(0), 0, false, AppId(0));
        assert!(c.pin_dirty(0));
        assert!(!c.pin_dirty(4096 * 64)); // not resident
        let dirty = c.unpin_up_to(usize::MAX);
        assert_eq!(dirty, vec![0]);
    }

    #[test]
    fn power_loss_drops_all_banks_including_pinned() {
        let mut c = l2();
        c.fill_line(Cycle(0), 0, false, AppId(0));
        c.fill_line(Cycle(0), 128, false, AppId(1));
        assert!(c.pin_dirty(0));
        assert_eq!(c.power_loss(), 2);
        assert_eq!(c.pinned(), 0, "pinned dirty lines are gone, not drained");
        assert!(!c.probe(0));
        assert!(!c.probe(128));
    }

    #[test]
    fn poison_containment_round_trip() {
        let mut c = l2();
        c.fill_line(Cycle(0), 0, false, AppId(0));
        assert!(c.poison_line(0));
        assert_eq!(c.poisoned(), 1);
        // A poisoned line still *hits* (the consumer checks the bit and
        // faults), never dirties, and drops cleanly on power loss.
        let a = c.access(Cycle(1), 0, true);
        assert!(a.hit);
        assert!(!c.pin_dirty(0));
        assert_eq!(c.power_loss(), 1);
        assert_eq!(c.poisoned(), 0);
    }

    #[test]
    fn bank_port_contention() {
        let mut c = l2();
        // Two same-bank accesses at t=0 serialize on the port.
        let a = c.access(Cycle(0), 0, false);
        let b = c.access(Cycle(0), 256, false); // bank 0 again
        assert!(b.done > a.done);
        // Different bank proceeds in parallel.
        let d = c.access(Cycle(0), 128, false);
        assert_eq!(d.done, a.done);
    }
}
