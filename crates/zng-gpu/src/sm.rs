//! A streaming multiprocessor: the issue port, private L1D and MSHRs.
//!
//! The SM issues at most one warp instruction per cycle (the warp
//! scheduler's loose round-robin emerges from warps queueing at the issue
//! port). The private L1D (Table I: 64-set, 6-way, 48 KB, 1-cycle)
//! filters traffic before the shared L2.

use zng_sim::Resource;
use zng_types::{ids::AppId, ids::SmId, Cycle};

use crate::cache::{CacheGeometry, SetAssocCache};
use crate::config::GpuConfig;
use crate::mshr::Mshr;

/// One SM.
#[derive(Debug, Clone)]
pub struct Sm {
    id: SmId,
    issue: Resource,
    l1: SetAssocCache,
    l1_latency: Cycle,
    mshr: Mshr,
    instructions_issued: u64,
}

impl Sm {
    /// Builds an SM from the GPU configuration.
    pub fn new(id: SmId, cfg: &GpuConfig) -> Sm {
        Sm {
            id,
            issue: Resource::new(1),
            l1: SetAssocCache::new(CacheGeometry {
                sets: cfg.l1_sets,
                ways: cfg.l1_ways,
                line_bytes: cfg.line_bytes,
            }),
            l1_latency: Cycle(cfg.l1_latency),
            mshr: Mshr::new(64),
            instructions_issued: 0,
        }
    }

    /// The SM's id.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Issues `count` instructions starting no earlier than `now`;
    /// returns when the last one issued. One instruction per cycle.
    pub fn issue(&mut self, now: Cycle, count: u32) -> Cycle {
        self.instructions_issued += count as u64;
        self.issue.acquire(now, Cycle(count as u64))
    }

    /// Accesses the private L1D; returns `(hit, access-done time)`.
    ///
    /// Stores write through (the GPU L1 is write-through, no dirty
    /// write-backs): a write hit updates the line, a write miss does not
    /// allocate.
    pub fn l1_access(&mut self, now: Cycle, addr: u64, write: bool) -> (bool, Cycle) {
        let hit = if write {
            // Write-through, write-no-allocate.
            self.l1.probe(addr) && self.l1.lookup(addr, false)
        } else {
            self.l1.lookup(addr, false)
        };
        (hit, now + self.l1_latency)
    }

    /// Fills a line into the L1D after a miss returns.
    pub fn l1_fill(&mut self, addr: u64, app: AppId) {
        self.l1.fill(addr, false, app);
    }

    /// Invalidates an L1D line (GC flush of a victim app's data goes
    /// through L2; the L1 copy must die too).
    pub fn l1_invalidate(&mut self, addr: u64) {
        self.l1.invalidate(addr);
    }

    /// The SM's MSHR file (merged misses).
    pub fn mshr(&self) -> &Mshr {
        &self.mshr
    }

    /// Mutable access to the SM's MSHR file.
    pub fn mshr_mut(&mut self) -> &mut Mshr {
        &mut self.mshr
    }

    /// Power loss: drops the L1D contents and every in-flight MSHR fill.
    /// The issue port and statistics survive (they are model state, not
    /// silicon). Returns `(l1_lines_lost, mshr_entries_dropped)`.
    pub fn power_loss(&mut self) -> (usize, usize) {
        (self.l1.invalidate_all(), self.mshr.clear())
    }

    /// L1D hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1.hit_rate()
    }

    /// Instructions issued by this SM.
    pub fn instructions_issued(&self) -> u64 {
        self.instructions_issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm() -> Sm {
        Sm::new(SmId(0), &GpuConfig::tiny())
    }

    #[test]
    fn issue_serializes_instructions() {
        let mut s = sm();
        let a = s.issue(Cycle(0), 10);
        let b = s.issue(Cycle(0), 5);
        assert_eq!(a, Cycle(10));
        assert_eq!(b, Cycle(15));
        assert_eq!(s.instructions_issued(), 15);
    }

    #[test]
    fn l1_read_miss_then_fill_then_hit() {
        let mut s = sm();
        let (hit, t) = s.l1_access(Cycle(0), 0x80, false);
        assert!(!hit);
        assert_eq!(t, Cycle(1));
        s.l1_fill(0x80, AppId(0));
        let (hit, _) = s.l1_access(Cycle(5), 0x80, false);
        assert!(hit);
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut s = sm();
        let (hit, _) = s.l1_access(Cycle(0), 0x100, true);
        assert!(!hit);
        // Still not resident: write misses don't allocate.
        let (hit, _) = s.l1_access(Cycle(1), 0x100, false);
        assert!(!hit);
    }

    #[test]
    fn power_loss_empties_l1_and_mshr() {
        let mut s = sm();
        s.l1_fill(0x80, AppId(0));
        s.mshr_mut().register(7, Cycle(1_000));
        let (lines, fills) = s.power_loss();
        assert_eq!((lines, fills), (1, 1));
        let (hit, _) = s.l1_access(Cycle(0), 0x80, false);
        assert!(!hit);
        assert!(s.mshr_mut().is_empty());
    }

    #[test]
    fn invalidate_specific_line() {
        let mut s = sm();
        s.l1_fill(0x80, AppId(0));
        s.l1_invalidate(0x80);
        let (hit, _) = s.l1_access(Cycle(0), 0x80, false);
        assert!(!hit);
    }
}
