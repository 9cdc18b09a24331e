//! A Z-NAND plane: the unit of array access.
//!
//! A plane owns its blocks (allocated lazily — the full Table I device has
//! a million blocks, but workloads touch a small fraction) and its array
//! timing. Programs and erases serialize on the array; reads run at
//! *higher priority*: Z-NAND implements program/erase suspend-resume so
//! that its 3 µs reads are not buried under 100 µs programs (this is the
//! core of Z-SSD's low-latency design). Reads therefore serialize only
//! against other reads, paying a small suspension overhead when they
//! preempt a program.

use zng_sim::Resource;
use zng_types::{Cycle, Error, Result};

use crate::block::Block;
use crate::fault::{PlaneFaults, MAX_READ_RETRIES, RETRY_STEP_EXTRA_CYCLES};
use crate::timing::FlashCycles;

/// Extra cycles a read pays to suspend an in-flight program/erase
/// (~0.5 µs at the default clock).
pub const SUSPEND_OVERHEAD: Cycle = Cycle(600);

/// Outcome of a page read that completed (possibly after retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReport {
    /// When the data is available.
    pub done: Cycle,
    /// Whether the array was sensed (`false`: served from the cache
    /// register).
    pub sensed: bool,
    /// Read-retry steps taken beyond the initial sense.
    pub retries: u32,
}

/// Outcome of a page program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramReport {
    /// The in-order page index that was programmed.
    pub page: u32,
    /// When the program completes.
    pub done: Cycle,
    /// Whether program verification failed: the page holds garbage and
    /// the block must be retired after its live data is migrated.
    pub failed: bool,
}

/// Outcome of a block erase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraseReport {
    /// When the erase completes.
    pub done: Cycle,
    /// Whether erase verification failed: the block must be retired.
    pub failed: bool,
}

/// One flash plane.
#[derive(Debug, Clone)]
pub struct Plane {
    blocks_per_plane: u32,
    pages_per_block: u32,
    timing: FlashCycles,
    /// Direct-indexed by block id, grown lazily to the highest block
    /// ever touched: the hot read/program paths index in O(1) with no
    /// hashing, while an untouched tail of a million-block device costs
    /// nothing. Iteration (power loss) walks in index order, which is
    /// deterministic by construction.
    blocks: Vec<Option<Block>>,
    /// Program/erase occupancy.
    array: Resource,
    /// Read occupancy (reads suspend programs, so they only queue behind
    /// other reads).
    read_port: Resource,
    /// The page currently latched in the plane's cache register: repeat
    /// reads of it stream out without re-sensing the array.
    sensed: Option<(u32, u32)>,
    /// When the latched page's sense completes.
    sensed_at: Cycle,
    reads: u64,
    register_reads: u64,
    erases: u64,
    /// Fault-injection state; `None` runs the plane fault-free with no
    /// RNG draws at all.
    faults: Option<PlaneFaults>,
    /// Read-disturb tracking unit: array senses per block that add one
    /// P/E-equivalent cycle of RBER exposure. `None` (the default)
    /// disables disturb accounting entirely — no counter updates, and
    /// every fault draw is bit-identical to a build without it.
    disturb_unit: Option<u64>,
    /// Senses charged to per-block disturb counters (endurance on only).
    disturb_noted: u64,
    /// Failed read attempts attributable to disturb amplification alone,
    /// including the final attempt of an uncorrectable read.
    disturb_errors: u64,
}

impl Plane {
    /// Creates a plane with the given dimensions and media timing.
    pub fn new(blocks_per_plane: u32, pages_per_block: u32, timing: FlashCycles) -> Plane {
        Plane {
            blocks_per_plane,
            pages_per_block,
            timing,
            blocks: Vec::new(),
            array: Resource::new(1),
            read_port: Resource::new(1),
            sensed: None,
            sensed_at: Cycle::ZERO,
            reads: 0,
            register_reads: 0,
            erases: 0,
            faults: None,
            disturb_unit: None,
            disturb_noted: 0,
            disturb_errors: 0,
        }
    }

    /// Installs (or clears) the plane's fault-injection state.
    pub fn set_faults(&mut self, faults: Option<PlaneFaults>) {
        self.faults = faults;
    }

    /// Enables read-disturb accounting: every array sense bumps its
    /// block's disturb counter and every `unit` senses amplify the
    /// block's effective wear by one P/E cycle. `None` (the default)
    /// disables it with zero behavioural footprint.
    pub fn set_disturb_unit(&mut self, unit: Option<u64>) {
        self.disturb_unit = unit.map(|u| u.max(1));
    }

    /// Senses charged to per-block disturb counters.
    pub fn disturb_noted(&self) -> u64 {
        self.disturb_noted
    }

    /// Failed read attempts attributable to disturb amplification alone.
    pub fn disturb_errors(&self) -> u64 {
        self.disturb_errors
    }

    fn check_block(&self, block: u32) -> Result<()> {
        if block >= self.blocks_per_plane {
            return Err(Error::AddressOutOfRange {
                addr: block as u64,
                capacity: self.blocks_per_plane as u64,
            });
        }
        Ok(())
    }

    /// Mutable access to a block, creating it erased on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for an invalid block index.
    pub fn block_mut(&mut self, block: u32) -> Result<&mut Block> {
        self.check_block(block)?;
        let idx = block as usize;
        if idx >= self.blocks.len() {
            self.blocks.resize_with(idx + 1, || None);
        }
        let pages = self.pages_per_block;
        Ok(self.blocks[idx].get_or_insert_with(|| Block::new(pages)))
    }

    /// Shared access to a block, if it has ever been touched.
    pub fn block(&self, block: u32) -> Option<&Block> {
        self.blocks.get(block as usize).and_then(|b| b.as_ref())
    }

    /// Mutable access to a block only if it has ever been touched.
    fn touched_mut(&mut self, block: u32) -> Option<&mut Block> {
        self.blocks.get_mut(block as usize).and_then(|b| b.as_mut())
    }

    /// Senses one page from the array; returns sense-complete time.
    ///
    /// If the plane's cache register already latches this page (it was
    /// the most recently sensed one), the data streams from the register
    /// without occupying the array — `(time, false)` is returned and the
    /// read is *not* an array access.
    ///
    /// # Errors
    ///
    /// Flash protocol: reading an unprogrammed page is rejected.
    pub fn read_page(&mut self, now: Cycle, block: u32, page: u32) -> Result<Cycle> {
        Ok(self.read_page_traced(now, block, page)?.done)
    }

    /// [`Plane::read_page`] variant reporting whether the array was
    /// actually sensed (`true`) or the cache register served it
    /// (`false`), and how many read-retry steps the sense needed.
    ///
    /// # Errors
    ///
    /// Flash protocol: reading an unprogrammed page is rejected.
    /// Under fault injection, a sense whose raw bit errors stay above the
    /// ECC budget through the whole retry ladder returns
    /// [`Error::UncorrectableRead`]; the failure is transient (the data
    /// is not lost) and an independent later read may succeed.
    pub fn read_page_traced(&mut self, now: Cycle, block: u32, page: u32) -> Result<ReadReport> {
        self.check_block(block)?;
        let programmed = self
            .block(block)
            .map(|b| b.is_programmed(page))
            .unwrap_or(false);
        if !programmed {
            return Err(Error::FlashProtocol(format!(
                "reading unprogrammed page {page} of block {block}"
            )));
        }
        if self.block(block).is_some_and(|b| b.is_torn(page)) {
            // A program interrupted by power loss left detectable garbage;
            // serving it would silently return corrupt data.
            return Err(Error::TornPage {
                block: block as u64,
                page,
            });
        }
        if self.sensed == Some((block, page)) {
            // Register data already passed ECC when it was latched.
            self.register_reads += 1;
            return Ok(ReadReport {
                done: now.max(self.sensed_at),
                sensed: false,
                retries: 0,
            });
        }
        self.reads += 1;
        // Read disturb: the sense stresses the whole block's sibling
        // pages. The pre-sense exposure drives this read's amplification;
        // the counter is charged afterwards.
        let disturb_cycles = match self.disturb_unit {
            Some(unit) => self.block(block).map(|b| b.disturb_reads()).unwrap_or(0) / unit,
            None => 0,
        };
        // Reads preempt programs (suspend-resume): they serialize only
        // against other reads, plus a fixed suspension overhead when a
        // program/erase is in flight.
        let suspend = if self.array.earliest_free() > now {
            SUSPEND_OVERHEAD
        } else {
            Cycle::ZERO
        };
        let mut done = self.read_port.acquire(now, self.timing.read + suspend);
        let mut retries = 0u32;
        if let Some(faults) = self.faults.as_mut() {
            let wear = self
                .blocks
                .get(block as usize)
                .and_then(|b| b.as_ref())
                .map(|b| b.erase_count() as u64)
                .unwrap_or(0);
            // Read-retry ladder: each failed sense re-senses with tuned
            // reference voltages — slower, but far more likely to pass
            // ECC. The time of every failed attempt stays charged to the
            // read port.
            loop {
                let (failed, disturb_hit) =
                    faults.read_attempt_fails_disturbed(wear, disturb_cycles, retries);
                if disturb_hit {
                    self.disturb_errors += 1;
                }
                if !failed {
                    break;
                }
                if retries >= MAX_READ_RETRIES {
                    self.note_disturb(block);
                    // ECC-uncorrectable. The register does not latch a
                    // failed sense, so the previously sensed page is
                    // simply gone and the stored data stays intact.
                    return Err(Error::UncorrectableRead {
                        block: block as u64,
                        page,
                        retries,
                    });
                }
                retries += 1;
                let step = self.timing.read + Cycle(RETRY_STEP_EXTRA_CYCLES * retries as u64);
                done = self.read_port.acquire(done, step);
            }
        }
        self.note_disturb(block);
        self.sensed = Some((block, page));
        self.sensed_at = done;
        Ok(ReadReport {
            done,
            sensed: true,
            retries,
        })
    }

    /// Drops the plane's cache-register latch. A failed sense never
    /// latches; the device's degrading-die penalty uses this to keep
    /// that invariant when it fails a sense after the fact.
    pub fn evict_latch(&mut self) {
        self.sensed = None;
    }

    /// Charges one array sense against `block`'s disturb counter
    /// (no-op unless disturb accounting is enabled).
    fn note_disturb(&mut self, block: u32) {
        if self.disturb_unit.is_none() {
            return;
        }
        if let Some(b) = self.touched_mut(block) {
            b.note_disturb_read();
            self.disturb_noted += 1;
        }
    }

    /// `block`'s current disturb exposure in P/E-equivalent cycles
    /// (zero when disturb accounting is disabled).
    pub fn disturb_cycles(&self, block: u32) -> u64 {
        match self.disturb_unit {
            Some(unit) => self.block(block).map(|b| b.disturb_reads()).unwrap_or(0) / unit,
            None => 0,
        }
    }

    /// Programs the next in-order page of `block`.
    ///
    /// Under fault injection a program can fail verification
    /// ([`ProgramReport::failed`]): the burned page is invalidated, the
    /// block is marked failed (the FTL retires it after migrating live
    /// data), and the caller must re-drive the write elsewhere. The full
    /// program time is still charged.
    ///
    /// # Errors
    ///
    /// Propagates the block's protocol errors (full block).
    pub fn program_next(&mut self, now: Cycle, block: u32) -> Result<ProgramReport> {
        let page = self.block_mut(block)?.program_next()?;
        // Programming reuses the cache register: the latched page is lost.
        self.sensed = None;
        let done = self.array.acquire(now, self.timing.program);
        let wear = self
            .block(block)
            .map(|b| b.erase_count() as u64)
            .unwrap_or(0);
        let failed = self.faults.as_mut().is_some_and(|f| f.program_fails(wear));
        if failed {
            let b = self.touched_mut(block).expect("block was just programmed");
            b.mark_failed();
            b.invalidate(page);
        }
        Ok(ProgramReport { page, done, failed })
    }

    /// Erases `block`.
    ///
    /// Under fault injection an erase can fail verification
    /// ([`EraseReport::failed`]): the block is marked failed and must be
    /// retired rather than reused. The full erase time is still charged.
    ///
    /// # Errors
    ///
    /// Propagates the block's protocol errors (valid pages remain).
    pub fn erase(&mut self, now: Cycle, block: u32) -> Result<EraseReport> {
        // Capture wear before the erase bumps the count.
        let wear = self
            .block(block)
            .map(|b| b.erase_count() as u64)
            .unwrap_or(0);
        self.block_mut(block)?.erase()?;
        self.erases += 1;
        if matches!(self.sensed, Some((b, _)) if b == block) {
            self.sensed = None;
        }
        let done = self.array.acquire(now, self.timing.erase);
        let failed = self.faults.as_mut().is_some_and(|f| f.erase_fails(wear));
        if failed {
            self.touched_mut(block)
                .expect("block was just erased")
                .mark_failed();
        }
        Ok(EraseReport { done, failed })
    }

    /// Cuts power to the plane at `now`: the cache-register latch is
    /// lost and every block drops its volatile bookkeeping (validity,
    /// role) while tearing in-flight demand programs not covered by the
    /// device's erase barrier `fenced_seq`. Returns the number of pages
    /// torn.
    pub fn power_loss(&mut self, now: Cycle, fenced_seq: u64) -> u64 {
        self.sensed = None;
        self.sensed_at = Cycle::ZERO;
        self.blocks
            .iter_mut()
            .flatten()
            .map(|b| b.power_loss(now, fenced_seq) as u64)
            .sum()
    }

    /// Array reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Reads served from the cache register without an array sense.
    pub fn register_reads(&self) -> u64 {
        self.register_reads
    }

    /// Array erases performed.
    pub fn erases(&self) -> u64 {
        self.erases
    }

    /// The media timing this plane was built with.
    pub fn timing(&self) -> FlashCycles {
        self.timing
    }

    /// Pages per block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Blocks in this plane.
    pub fn blocks_per_plane(&self) -> u32 {
        self.blocks_per_plane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Plane {
        Plane::new(8, 4, FlashCycles::default())
    }

    #[test]
    fn read_requires_programmed_page() {
        let mut p = plane();
        assert!(matches!(
            p.read_page(Cycle(0), 0, 0),
            Err(Error::FlashProtocol(_))
        ));
        p.program_next(Cycle(0), 0).unwrap();
        assert!(p.read_page(Cycle(0), 0, 0).is_ok());
        assert_eq!(p.reads(), 1);
    }

    #[test]
    fn reads_suspend_programs() {
        let mut p = plane();
        let t1 = p.program_next(Cycle(0), 0).unwrap().done;
        assert_eq!(t1, Cycle(120_000)); // 100us program
                                        // A read issued at t=0 suspends the program instead of waiting
                                        // for it: sense time + suspension overhead.
        let t2 = p.read_page(Cycle(0), 0, 0).unwrap();
        assert_eq!(t2, Cycle(3_600) + SUSPEND_OVERHEAD);
        // With the array idle, reads pay no suspension overhead.
        let t3 = p.read_page(Cycle(200_000), 1, 0);
        assert!(t3.is_err(), "block 1 page 0 unprogrammed");
        p.program_next(Cycle(200_000), 1).unwrap();
        let t4 = p.read_page(Cycle(500_000), 1, 0).unwrap();
        assert_eq!(t4, Cycle(500_000 + 3_600));
    }

    #[test]
    fn programs_serialize_on_array() {
        let mut p = plane();
        let r1 = p.program_next(Cycle(0), 0).unwrap();
        let r2 = p.program_next(Cycle(0), 0).unwrap();
        assert_eq!((r1.page, r1.done), (0, Cycle(120_000)));
        assert_eq!((r2.page, r2.done), (1, Cycle(240_000)));
        assert!(!r1.failed && !r2.failed);
    }

    #[test]
    fn program_erase_cycle() {
        let mut p = plane();
        for _ in 0..4 {
            p.program_next(Cycle(0), 1).unwrap();
        }
        assert!(p.program_next(Cycle(0), 1).is_err());
        for pg in 0..4 {
            p.block_mut(1).unwrap().invalidate(pg);
        }
        let t = p.erase(Cycle(0), 1).unwrap().done;
        assert!(t >= Cycle(1_200_000));
        assert_eq!(p.erases(), 1);
        // Block usable again.
        assert!(p.program_next(Cycle(0), 1).is_ok());
    }

    #[test]
    fn block_bounds_checked() {
        let mut p = plane();
        assert!(matches!(
            p.read_page(Cycle(0), 99, 0),
            Err(Error::AddressOutOfRange { .. })
        ));
        assert!(p.block_mut(99).is_err());
        assert!(p.block(99).is_none());
    }

    #[test]
    fn lazy_blocks() {
        let mut p = plane();
        assert!(p.block(3).is_none());
        p.block_mut(3).unwrap();
        assert!(p.block(3).is_some());
    }

    #[test]
    fn torn_pages_are_never_served() {
        use crate::block::OobMeta;
        use crate::BlockKind;
        let mut p = plane();
        let r = p.program_next(Cycle(0), 0).unwrap();
        p.block_mut(0).unwrap().record_oob(
            r.page,
            OobMeta {
                lpn: 9,
                seq: 1,
                tag: BlockKind::Log,
                programmed_at: r.done,
                demand: true,
            },
        );
        // Power cut before the program completes: the page tears.
        let torn = p.power_loss(Cycle(10), 0);
        assert_eq!(torn, 1);
        assert!(matches!(
            p.read_page(Cycle(500_000), 0, r.page),
            Err(Error::TornPage { block: 0, page }) if page == r.page
        ));
    }

    #[test]
    fn fault_free_plane_reports_no_retries_or_failures() {
        let mut p = plane();
        let r = p.program_next(Cycle(0), 0).unwrap();
        assert!(!r.failed);
        let rd = p.read_page_traced(Cycle(200_000), 0, 0).unwrap();
        assert_eq!(rd.retries, 0);
        assert!(rd.sensed);
    }

    #[test]
    fn eol_reads_retry_and_sometimes_fail_uncorrectably() {
        use crate::fault::{FaultConfig, PlaneFaults};
        let mut p = plane();
        p.set_faults(PlaneFaults::new(&FaultConfig::end_of_life(), 0, 100_000));
        p.program_next(Cycle(0), 0).unwrap();
        let mut retries = 0u64;
        let mut uncorrectable = 0u64;
        let mut t = Cycle(1_000_000);
        for _ in 0..400 {
            // Evict the register latch so each read senses the array.
            p.sensed = None;
            match p.read_page_traced(t, 0, 0) {
                Ok(r) => {
                    retries += r.retries as u64;
                    t = r.done;
                }
                Err(Error::UncorrectableRead { block, page, .. }) => {
                    assert_eq!((block, page), (0, 0));
                    uncorrectable += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(retries > 0, "EOL profile must trigger retries");
        // With an 8 % base rate and 0.25 decay, five consecutive failed
        // senses are ~0.08*0.02*0.005*... — rare but present over 400
        // draws is not guaranteed; only assert the data stayed readable.
        let _ = uncorrectable;
        p.sensed = None;
        assert!(
            (0..50).any(|i| p
                .read_page_traced(Cycle(10_000_000 + i * 10_000), 0, 0)
                .is_ok()),
            "uncorrectable reads are transient, not data loss"
        );
    }

    #[test]
    fn retry_steps_escalate_latency() {
        use crate::fault::{FaultConfig, PlaneFaults};
        // Find a seed whose first sense needs at least one retry, then
        // check the read took longer than a clean sense.
        for seed in 0..64 {
            let mut p = plane();
            let cfg = FaultConfig::end_of_life().with_seed(seed);
            p.set_faults(PlaneFaults::new(&cfg, 0, 100_000));
            p.program_next(Cycle(0), 0).unwrap();
            if let Ok(r) = p.read_page_traced(Cycle(1_000_000), 0, 0) {
                if r.retries > 0 {
                    let clean = Cycle(1_000_000) + p.timing.read;
                    assert!(
                        r.done
                            >= clean
                                + Cycle(
                                    (p.timing.read.raw() + RETRY_STEP_EXTRA_CYCLES)
                                        * r.retries as u64
                                ),
                        "each retry re-senses with an escalating step"
                    );
                    return;
                }
            }
        }
        panic!("no seed in 0..64 produced a retried read under EOL rates");
    }

    #[test]
    fn disturb_accounting_charges_senses_not_register_hits() {
        let mut p = plane();
        p.set_disturb_unit(Some(4));
        p.program_next(Cycle(0), 0).unwrap();
        // First read senses the array and charges the counter…
        p.read_page_traced(Cycle(200_000), 0, 0).unwrap();
        assert_eq!(p.block(0).unwrap().disturb_reads(), 1);
        assert_eq!(p.disturb_noted(), 1);
        // …repeat reads stream from the register latch: no disturb.
        p.read_page_traced(Cycle(300_000), 0, 0).unwrap();
        assert_eq!(p.block(0).unwrap().disturb_reads(), 1);
        // 4 senses = one P/E-equivalent cycle of exposure.
        for i in 0..3 {
            p.sensed = None;
            p.read_page_traced(Cycle(400_000 + i), 0, 0).unwrap();
        }
        assert_eq!(p.disturb_cycles(0), 1);
    }

    #[test]
    fn disturb_off_keeps_counters_untouched() {
        let mut p = plane();
        p.program_next(Cycle(0), 0).unwrap();
        for i in 0..8 {
            p.sensed = None;
            p.read_page_traced(Cycle(200_000 + i), 0, 0).unwrap();
        }
        assert_eq!(p.block(0).unwrap().disturb_reads(), 0);
        assert_eq!(p.disturb_noted(), 0);
        assert_eq!(p.disturb_errors(), 0);
        assert_eq!(p.disturb_cycles(0), 0);
    }

    #[test]
    fn heavy_disturb_exposure_triggers_attributable_errors() {
        use crate::fault::{FaultConfig, PlaneFaults};
        let mut p = plane();
        p.set_faults(PlaneFaults::new(&FaultConfig::nominal(), 0, 100_000));
        // One sense = one full P/E cycle of exposure: pathological, but
        // it drives the amplified rate to the wear ceiling fast.
        p.set_disturb_unit(Some(1));
        p.program_next(Cycle(0), 0).unwrap();
        for _ in 0..100_000 {
            p.block_mut(0).unwrap().note_disturb_read();
        }
        let mut t = Cycle(1_000_000);
        for _ in 0..2_000 {
            p.sensed = None;
            match p.read_page_traced(t, 0, 0) {
                Ok(r) => t = r.done,
                Err(_) => t += Cycle(10_000),
            }
        }
        assert!(
            p.disturb_errors() > 0,
            "full-wear disturb exposure must cause attributable errors"
        );
    }

    #[test]
    fn eol_program_failures_burn_page_and_mark_block() {
        use crate::fault::{FaultConfig, PlaneFaults};
        for seed in 0..64 {
            let mut p = Plane::new(8, 64, FlashCycles::default());
            let cfg = FaultConfig::end_of_life().with_seed(seed);
            p.set_faults(PlaneFaults::new(&cfg, 0, 100_000));
            for _ in 0..64 {
                let r = p.program_next(Cycle(0), 0).unwrap();
                if r.failed {
                    let b = p.block(0).unwrap();
                    assert!(b.is_failed());
                    assert!(!b.is_valid(r.page), "burned page is invalid");
                    assert!(b.is_programmed(r.page), "the page slot is consumed");
                    return;
                }
            }
        }
        panic!("no program failure in 64 seeds x 64 programs at EOL rates");
    }
}
