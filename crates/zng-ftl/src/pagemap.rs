//! The classic page-level FTL of a conventional SSD (Hetero, HybridGPU).
//!
//! Logical pages map individually to flash pages; writes go to per-channel
//! active blocks (page-striped for parallelism); greedy garbage collection
//! migrates the least-valid sealed block when free space runs low. The
//! mapping table lives in SSD DRAM and is *consulted by the SSD engine* —
//! the engine cost is charged by the SSD module, not here.

use std::collections::BTreeMap;

use fxhash::FxHashMap;
use zng_flash::{BlockKind, FlashDevice};
use zng_types::{BlockAddr, Cycle, Error, FlashAddr, Result};

use crate::allocator::BlockAllocator;
use crate::maint::{Ftl, FtlCore, Primitives, WriteResult};
use crate::recovery::RecoveryReport;
use crate::refresh::RefreshReason;
use crate::MAX_WRITE_REDRIVES;

/// A page-level FTL with greedy GC and wear-aware allocation.
#[derive(Debug, Clone)]
pub struct PageMapFtl {
    /// Logical page number -> current flash location. LPNs are sparse
    /// (per-app segments), so this stays a hash map — on the
    /// deterministic Fx hasher; every iteration over it is sorted before
    /// use.
    map: FxHashMap<u64, FlashAddr>,
    /// Reverse map, direct-indexed by device block index (a contiguous
    /// `0..total_blocks` key space): `rmap[idx]` is the per-page owner
    /// lpn table of block `idx`, `None` for blocks holding no mapping.
    /// Index-order iteration is ascending-block order, so walks are
    /// deterministic without sorting.
    rmap: Vec<Option<Vec<Option<u64>>>>,
    /// The allocator and reliability state shared with [`crate::ZngFtl`].
    core: FtlCore,
    /// One active write block per channel (page striping).
    active: Vec<Option<BlockAddr>>,
    cursor: usize,
    /// Sealed (fully programmed) blocks eligible for GC.
    sealed: Vec<BlockAddr>,
    gc_threshold: u64,
    /// Re-entry guard: GC's own migration programs must not trigger a
    /// nested collection (unbounded recursion when the pool can't refill,
    /// e.g. at end of life); they allocate directly instead.
    gc_active: bool,
    pages_migrated: u64,
}

impl PageMapFtl {
    /// Creates an FTL for `device`'s geometry.
    pub fn new(device: &FlashDevice) -> PageMapFtl {
        let g = device.geometry();
        let total = g.total_blocks() as u64;
        PageMapFtl {
            map: FxHashMap::default(),
            rmap: vec![None; total as usize],
            core: FtlCore::new(BlockAllocator::new(total)),
            active: vec![None; g.channels],
            cursor: 0,
            sealed: Vec::new(),
            gc_threshold: (total / 64).max(2),
            gc_active: false,
            pages_migrated: 0,
        }
    }

    /// The one allocation chokepoint: collects garbage first when the
    /// pool runs low, then allocates through the shared core.
    /// `most_worn` picks the static wear leveler's destination.
    fn fresh_block_with(
        &mut self,
        device: &mut FlashDevice,
        now: Cycle,
        most_worn: bool,
    ) -> Result<BlockAddr> {
        if self.core.allocator.free() <= self.gc_threshold && !self.gc_active {
            self.gc(now, device)?;
        }
        self.core.alloc(device, BlockKind::Data, most_worn)
    }

    /// Picks (allocating if needed) the active block for the next write
    /// and rotates the channel cursor.
    fn next_slot(&mut self, device: &mut FlashDevice, now: Cycle) -> Result<BlockAddr> {
        let ch = self.cursor % self.active.len();
        self.cursor = self.cursor.wrapping_add(1);
        let need_new = match self.active[ch] {
            Some(addr) => device
                .block(addr)
                .map(|b| b.is_full() || b.is_failed())
                .unwrap_or(false),
            None => true,
        };
        if need_new {
            if let Some(old) = self.active[ch] {
                self.sealed.push(old);
            }
            self.active[ch] = Some(self.fresh_block_with(device, now, false)?);
        }
        Ok(self.active[ch].expect("slot just ensured"))
    }

    fn record_mapping(&mut self, device: &FlashDevice, lpn: u64, addr: FlashAddr) {
        if let Some(old) = self.map.insert(lpn, addr) {
            // Superseded: mark stale both in media state and reverse map.
            let old_idx = device.geometry().index_for_block(old.block) as usize;
            if let Some(Some(pages)) = self.rmap.get_mut(old_idx) {
                pages[old.page as usize] = None;
            }
        }
        let idx = device.geometry().index_for_block(addr.block) as usize;
        let pages =
            self.rmap[idx].get_or_insert_with(|| vec![None; device.geometry().pages_per_block]);
        pages[addr.page as usize] = Some(lpn);
        self.core.note_remap(lpn);
    }

    /// Seals the active block that just failed a program so GC salvages
    /// its live pages and retires it; new writes go elsewhere.
    fn seal_active(&mut self, block: BlockAddr) {
        for slot in self.active.iter_mut() {
            if *slot == Some(block) {
                *slot = None;
                self.sealed.push(block);
            }
        }
    }

    fn write_inner(&mut self, now: Cycle, device: &mut FlashDevice, lpn: u64) -> Result<Cycle> {
        for _ in 0..MAX_WRITE_REDRIVES {
            let block = self.next_slot(device, now)?;
            let report = device.program(now, block, lpn)?;
            if report.failed {
                self.core.write_redrives += 1;
                self.seal_active(block);
                continue;
            }
            if let Some(old) = self.map.get(&lpn).copied() {
                device.invalidate(old);
            }
            self.record_mapping(device, lpn, FlashAddr::new(block, report.page));
            if let Some(rain) = self.core.rain.as_mut() {
                rain.note_program(report.done, device, block)?;
            }
            return Ok(report.done);
        }
        Err(Error::FlashProtocol(format!(
            "write of lpn {lpn} still failing after {MAX_WRITE_REDRIVES} re-drives"
        )))
    }

    /// Installs `lpn` as pre-loaded data (the workload's initial dataset
    /// resides on the SSD) without charging simulation time. The page
    /// still gets an OOB record so it survives a crash-recovery scan.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors.
    pub fn install(&mut self, device: &mut FlashDevice, lpn: u64) -> Result<()> {
        if self.map.contains_key(&lpn) {
            return Ok(());
        }
        let block = self.next_slot(device, Cycle::ZERO)?;
        let page = device.preload_page(block, lpn)?;
        if let Some(rain) = self.core.rain.as_mut() {
            rain.note_preload(device, block)?;
        }
        self.record_mapping(device, lpn, FlashAddr::new(block, page));
        self.core.ckpt_sync(Cycle::ZERO, device);
        Ok(())
    }

    /// Validates the delivered payload against its OOB checksum; a
    /// mismatch is reconstructed from the stripe (see
    /// [`FtlCore::verify`]) and healed onto a fresh location through the
    /// normal write path, quarantining the corrupt copy.
    fn verify_read(
        &mut self,
        done: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        lpn: u64,
        bytes: usize,
    ) -> Result<Cycle> {
        let Some(t) = self.core.verify(done, device, addr, lpn, bytes)? else {
            return Ok(done);
        };
        let t = self.migrate_page(t, device, addr, lpn, None, false, "integrity heal")?;
        self.core.icounters.quarantined += 1;
        Ok(t)
    }

    /// Programs `lpn`, read from `src`, into `dest` while it has room
    /// (the static leveler's worn-block destination), else through the
    /// normal striped write path, re-driving programs that fail
    /// verification. The source copy stays valid until the new one
    /// lands; then `src` is invalidated and `lpn` remapped. With
    /// `carry_corrupt`, a corrupt source's checksum mismatch moves along
    /// with the byte-identical copy (migration must not launder
    /// corruption). `what` names the operation in the re-drive error.
    #[allow(clippy::too_many_arguments)]
    fn migrate_page(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        src: FlashAddr,
        lpn: u64,
        dest: Option<BlockAddr>,
        carry_corrupt: bool,
        what: &str,
    ) -> Result<Cycle> {
        let mut redrives = 0;
        loop {
            let target = match dest {
                Some(d)
                    if device
                        .block(d)
                        .is_some_and(|b| !b.is_full() && !b.is_failed()) =>
                {
                    d
                }
                _ => self.next_slot(device, now)?,
            };
            let report = device.program_migrate(now, target, lpn)?;
            if report.failed {
                self.core.write_redrives += 1;
                // A burned striped block is sealed for salvage; a burned
                // dedicated destination just stops accepting (the caller
                // seals it for GC to retire).
                if Some(target) != dest {
                    self.seal_active(target);
                }
                redrives += 1;
                if redrives >= MAX_WRITE_REDRIVES {
                    return Err(Error::FlashProtocol(format!(
                        "{what} of lpn {lpn} still failing after {MAX_WRITE_REDRIVES} re-drives"
                    )));
                }
                continue;
            }
            let moved = FlashAddr::new(target, report.page);
            if carry_corrupt && device.page_is_corrupt(src) {
                device.mark_page_corrupt(moved)?;
            }
            device.invalidate(src);
            self.record_mapping(device, lpn, moved);
            if let Some(rain) = self.core.rain.as_mut() {
                rain.note_program(report.done, device, target)?;
            }
            return Ok(report.done);
        }
    }

    /// Greedy garbage collection: migrate the least-valid sealed block's
    /// live pages and erase it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfSpace`] when no sealed block exists to
    /// reclaim.
    pub fn gc(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        self.gc_active = true;
        let r = self.gc_inner(now, device);
        self.gc_active = false;
        let t = *r.as_ref().unwrap_or(&now);
        self.core.ckpt_sync(t, device);
        r
    }

    fn gc_inner(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let victim_pos = self
            .sealed
            .iter()
            .enumerate()
            .min_by_key(|(_, addr)| {
                device
                    .block(**addr)
                    .map(|b| b.valid_pages())
                    .unwrap_or(u32::MAX)
            })
            .map(|(i, _)| i)
            .ok_or(Error::OutOfSpace)?;
        let victim = self.sealed.swap_remove(victim_pos);
        self.core.gcs += 1;
        let (done, moved) = self.relocate_block(now, device, victim, None, "GC migration")?;
        self.pages_migrated += moved;
        Ok(done)
    }

    /// Migrates every live page of `victim` (verified reads with the
    /// retry/reconstruction ladder; corrupt flags move along, never
    /// laundered), then erases the victim and returns it to the pool.
    /// Pages land in `dest` while it has room (the static leveler's
    /// worn-block destination), overflowing into the normal striped
    /// write path; `None` uses the striped path throughout. The caller
    /// must have removed `victim` from the sealed list. `what` names the
    /// operation in the re-drive error.
    fn relocate_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        victim: BlockAddr,
        dest: Option<BlockAddr>,
        what: &str,
    ) -> Result<(Cycle, u64)> {
        let victim_idx = device.geometry().index_for_block(victim);
        let live: Vec<(u32, u64)> = self
            .rmap
            .get(victim_idx as usize)
            .and_then(|p| p.as_ref())
            .map(|pages| {
                pages
                    .iter()
                    .enumerate()
                    .filter_map(|(p, lpn)| lpn.map(|l| (p as u32, l)))
                    .collect()
            })
            .unwrap_or_default();
        let mut t = now;
        let mut moved = 0u64;
        let page_bytes = device.geometry().page_bytes;
        for (page, lpn) in live {
            let src = FlashAddr::new(victim, page);
            t = self.core.retried_read(device, t, src, lpn, page_bytes)?;
            t = self.migrate_page(t, device, src, lpn, dest, true, what)?;
            moved += 1;
        }
        let erase = device.erase(t, victim)?;
        self.rmap[victim_idx as usize] = None;
        // A failed erase (or earlier failed program) retires the block.
        self.core.release(device, victim);
        if let Some(d) = dest {
            // The dedicated destination is sealed (partial or full): GC
            // sees it, and a burned one gets retired at its next erase.
            self.sealed.push(d);
        }
        Ok((erase.done, moved))
    }

    /// Pages migrated by GC (write amplification numerator).
    pub fn pages_migrated(&self) -> u64 {
        self.pages_migrated
    }

    /// Mapped logical pages.
    pub fn mapped(&self) -> usize {
        self.map.len()
    }
}

impl Ftl for PageMapFtl {
    /// A page never written is installed first as part of the initial
    /// dataset.
    fn read(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        lpn: u64,
        transfer_bytes: usize,
    ) -> Result<Cycle> {
        if !self.map.contains_key(&lpn) {
            // The install allocates; at end of life it can hit the spare
            // pool cliff, which endurance mode reports as a capacity
            // step (already-mapped pages read without allocating).
            self.install(device, lpn)
                .map_err(|e| self.core.degrade(e, self.map.len() as u64))?;
        }
        let addr = *self.map.get(&lpn).expect("lpn just installed above");
        let done = self
            .core
            .retried_read(device, now, addr, lpn, transfer_bytes)?;
        let r = self.verify_read(done, device, addr, lpn, transfer_bytes);
        // The read path mutates media too (install preloads, integrity
        // heals): flush any critical journal records before acking.
        let t = *r.as_ref().unwrap_or(&done);
        self.core.ckpt_sync(t, device);
        r
    }

    /// A program that fails verification seals the stricken block and
    /// re-drives the write into another channel's active block. Garbage
    /// collection runs inside the write's own latency, so the result
    /// never carries a [`crate::GcReport`].
    fn write(&mut self, now: Cycle, device: &mut FlashDevice, lpn: u64) -> Result<WriteResult> {
        let r = self
            .write_inner(now, device, lpn)
            .map_err(|e| self.core.degrade(e, self.map.len() as u64));
        let t = *r.as_ref().unwrap_or(&now);
        self.core.ckpt_sync(t, device);
        r.map(|done| WriteResult {
            done,
            gc: None,
            thrashing: false,
        })
    }

    /// The page map, reverse map, sealed list and per-channel active
    /// blocks are rebuilt from the scan.
    fn recover(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<RecoveryReport> {
        let rs = self.core.recovery_scan(device);
        let scan = &rs.scan;
        let winners = crate::recovery::resolve_winners(&scan.blocks);
        let candidates: u64 = scan.blocks.iter().map(|b| b.entries.len() as u64).sum();
        let geo = *device.geometry();

        self.map.clear();
        self.rmap.iter_mut().for_each(|p| *p = None);
        self.sealed.clear();
        self.active = vec![None; geo.channels];
        self.cursor = 0;

        // Winners per owning block; rebuilding map + rmap together.
        let mut live_by_block: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
        for (&lpn, &(_, addr)) in &winners {
            self.map.insert(lpn, addr);
            live_by_block
                .entry(geo.index_for_block(addr.block))
                .or_default()
                .push((addr.page, lpn));
        }

        let mut referenced = 0u64;
        let mut dead = Vec::new();
        for blk in &scan.blocks {
            let Some(live) = live_by_block.get(&blk.idx) else {
                dead.push(blk);
                continue;
            };
            referenced += 1;
            let b = device.block_mut(blk.addr)?;
            b.set_kind(BlockKind::Data);
            let mut pages = vec![None; geo.pages_per_block];
            for &(page, lpn) in live {
                b.restore_valid(page);
                pages[page as usize] = Some(lpn);
            }
            self.rmap[blk.idx as usize] = Some(pages);
            // A partial healthy block resumes in-order writes as its
            // channel's active block; everything else (full, failed, or a
            // second partial on the same channel) is sealed for GC.
            let ch = blk.addr.channel.index();
            if !blk.full && !blk.failed && self.active[ch].is_none() {
                self.active[ch] = Some(blk.addr);
            } else {
                self.sealed.push(blk.addr);
            }
        }

        let stale_dropped = candidates - winners.len() as u64;
        self.core
            .finish_recovery(now, device, &rs, dead, referenced, stale_dropped)
    }

    fn locate(&self, lpn: u64) -> Option<FlashAddr> {
        self.map.get(&lpn).copied()
    }
}

impl Primitives for PageMapFtl {
    fn core(&self) -> &FtlCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FtlCore {
        &mut self.core
    }

    fn rewrite_page(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        src: FlashAddr,
        lpn: u64,
    ) -> Result<Cycle> {
        self.migrate_page(now, device, src, lpn, None, false, "scrub rewrite")
    }

    /// Relocates a sealed block. An active block is mid-write (in-order
    /// programming can't be disturbed): it seals soon and refreshes on a
    /// later pass. With no spare to refresh into, the victim keeps
    /// serving (and stays tracked) until capacity frees up, and the step
    /// is skipped unpaced.
    fn refresh_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: BlockAddr,
        reason: RefreshReason,
    ) -> Result<Option<Cycle>> {
        let idx = device.geometry().index_for_block(addr);
        if self.active.contains(&Some(addr)) || self.rmap[idx as usize].is_none() {
            return Ok(None);
        }
        self.sealed.retain(|a| *a != addr);
        match self.relocate_block(now, device, addr, None, "relocation") {
            Ok((done, pages)) => {
                if let Some(st) = self.core.endurance.as_mut() {
                    st.note_refresh(reason, pages);
                }
                Ok(Some(done))
            }
            Err(Error::DeviceWornOut { .. }) => {
                self.sealed.push(addr);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The coldest sealed block (lowest erase count, holding live pages)
    /// is relocated into the most-worn spare block, and its freed
    /// low-wear cells rejoin the pool where the wear-levelled allocator
    /// hands them to hot traffic. A no-op without an eligible victim.
    fn level_block(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let victim = self
            .sealed
            .iter()
            .copied()
            .filter(|&a| {
                !device.die_is_dead(a.channel, a.die)
                    && device.block(a).is_some_and(|b| !b.is_failed())
                    && self
                        .rmap
                        .get(device.geometry().index_for_block(a) as usize)
                        .and_then(|p| p.as_ref())
                        .is_some_and(|pages| pages.iter().any(Option::is_some))
            })
            .min_by_key(|&a| {
                let wear = device.block(a).map(|b| b.erase_count()).unwrap_or(0);
                (wear, device.geometry().index_for_block(a))
            });
        let Some(victim) = victim else {
            return Ok(now);
        };
        let dest = self.fresh_block_with(device, now, true)?;
        self.sealed.retain(|a| *a != victim);
        let (done, pages) = self
            .relocate_block(now, device, victim, Some(dest), "relocation")
            .inspect_err(|e| {
                if matches!(e, Error::DeviceWornOut { .. }) {
                    // Keep the partially drained victim tracked; the
                    // caller skips the step.
                    self.sealed.push(victim);
                }
            })?;
        if let Some(st) = self.core.endurance.as_mut() {
            st.note_levelling(pages);
        }
        Ok(done)
    }

    /// Seals the active blocks sitting on quarantined dies, so the
    /// stripe cursors stop landing new writes on a suspect, then
    /// relocates the next victim block.
    fn evacuate_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
    ) -> Option<Result<(Cycle, u64)>> {
        let quarantined: Vec<BlockAddr> = self
            .active
            .iter()
            .flatten()
            .copied()
            .filter(|&a| self.core.is_quarantined(a))
            .collect();
        for addr in quarantined {
            self.seal_active(addr);
        }
        // The lowest-indexed block holding live pages on a quarantined
        // (but not dead) die; index order is ascending-block order.
        let victim = self
            .rmap
            .iter()
            .enumerate()
            .filter(|(_, pages)| {
                pages
                    .as_ref()
                    .is_some_and(|pages| pages.iter().any(Option::is_some))
            })
            .filter_map(|(idx, _)| device.geometry().block_for_index(idx as u64).ok())
            .find(|&a| {
                !device.die_is_dead(a.channel, a.die)
                    && self.core.is_quarantined(a)
                    && !self.active.contains(&Some(a))
            })?;
        self.sealed.retain(|a| *a != victim);
        let r = self.relocate_block(now, device, victim, None, "relocation");
        if matches!(r, Err(Error::DeviceWornOut { .. } | Error::OutOfSpace)) {
            // No healthy spares: the victim keeps serving (and stays
            // tracked) until capacity frees up.
            self.sealed.push(victim);
        }
        Some(r)
    }

    /// Drops active write slots on dead dies (the next write allocates
    /// elsewhere) and takes their sealed blocks off the GC candidate
    /// list; their live pages stay mapped.
    fn fence_writers(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let mut fenced = 0u64;
        for slot in self.active.iter_mut() {
            if let Some(addr) = *slot {
                if device.die_is_dead(addr.channel, addr.die) {
                    *slot = None;
                    fenced += 1;
                }
            }
        }
        self.sealed.retain(|addr| {
            let dead = device.die_is_dead(addr.channel, addr.die);
            if dead {
                fenced += 1;
            }
            !dead
        });
        if let Some(rain) = self.core.rain.as_mut() {
            rain.fenced_blocks += fenced;
        }
        Ok(now)
    }

    /// Reconstructs each lost page and re-programs it through the normal
    /// write path; a spare pool that runs dry stops the walk. Then every
    /// fully rebuilt dead block — entirely stale — drops its reverse map
    /// and is retired so the pool never hands it out again. Blocks still
    /// holding live pages keep their maps so reads keep reconstructing.
    fn rebuild_lost(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<(Cycle, u64)> {
        let page_bytes = device.geometry().page_bytes;
        let mut lost: Vec<(u64, FlashAddr)> = self
            .map
            .iter()
            .filter(|(_, a)| device.die_is_dead(a.block.channel, a.block.die))
            .map(|(&l, &a)| (l, a))
            .collect();
        lost.sort_unstable();
        let mut t = now;
        let mut pages = 0u64;
        for (lpn, old) in lost {
            t = self.core.reconstruct(t, device, old, page_bytes)?;
            t = match self.migrate_page(t, device, old, lpn, None, false, "rebuild") {
                Ok(done) => done,
                Err(Error::DeviceWornOut { .. } | Error::OutOfSpace) => break,
                Err(e) => return Err(e),
            };
            pages += 1;
        }
        let dead_idxs: Vec<u64> = self
            .rmap
            .iter()
            .enumerate()
            .filter_map(|(i, pages)| Some((i as u64, pages.as_ref()?)))
            .filter(|&(idx, pages)| {
                device
                    .geometry()
                    .block_for_index(idx)
                    .map(|a| device.die_is_dead(a.channel, a.die))
                    .unwrap_or(false)
                    && pages.iter().all(Option::is_none)
            })
            .map(|(idx, _)| idx)
            .collect();
        for idx in dead_idxs {
            self.rmap[idx as usize] = None;
            self.core.fence(idx);
            self.core.blocks_retired += 1;
        }
        Ok((t, pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HealthPolicy, IntegrityCounters, RainConfig};
    use zng_flash::{FlashGeometry, RegisterTopology};
    use zng_types::Freq;

    fn setup() -> (FlashDevice, PageMapFtl) {
        let d = FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::Private,
        )
        .unwrap();
        let f = PageMapFtl::new(&d);
        (d, f)
    }

    #[test]
    fn write_then_read() {
        let (mut d, mut f) = setup();
        let t = f.write(Cycle(0), &mut d, 42).unwrap().done;
        assert!(t >= Cycle(120_000));
        let addr = f.locate(42).expect("mapped");
        let r = f.read(t, &mut d, 42, 4096).unwrap();
        assert!(r > t);
        assert_eq!(f.locate(42), Some(addr));
    }

    #[test]
    fn overwrite_remaps_and_invalidates() {
        let (mut d, mut f) = setup();
        f.write(Cycle(0), &mut d, 1).unwrap();
        let first = f.locate(1).unwrap();
        f.write(Cycle(0), &mut d, 1).unwrap();
        let second = f.locate(1).unwrap();
        assert_ne!(first, second);
        let b = d.block(first.block).unwrap();
        assert!(!b.is_valid(first.page), "old copy must be stale");
    }

    #[test]
    fn reads_install_initial_data_for_free() {
        let (mut d, mut f) = setup();
        let t = f.read(Cycle(0), &mut d, 99, 128).unwrap();
        // Only the read cost, no program cost (data pre-resided).
        assert!(t < Cycle(120_000), "{t}");
        assert!(f.locate(99).is_some());
        assert_eq!(f.mapped(), 1);
    }

    #[test]
    fn page_striping_spreads_channels() {
        let (mut d, mut f) = setup();
        f.write(Cycle(0), &mut d, 1).unwrap();
        f.write(Cycle(0), &mut d, 2).unwrap();
        let a = f.locate(1).unwrap();
        let b = f.locate(2).unwrap();
        assert_ne!(a.block.channel, b.block.channel);
    }

    #[test]
    fn gc_reclaims_space_under_churn() {
        let (mut d, mut f) = setup();
        // tiny geometry: 4*2*2*64 = 1024 blocks x 16 pages = 16384 pages.
        // Overwrite a small working set far beyond capacity.
        let mut t = Cycle(0);
        for i in 0..40_000u64 {
            t = f.write(t, &mut d, i % 256).unwrap().done;
        }
        assert!(f.gcs() > 0, "GC must have run");
        assert!(f.pages_migrated() < 40_000, "migration is bounded");
        // All 256 logical pages still readable.
        for lpn in 0..256 {
            assert!(f.locate(lpn).is_some());
            f.read(t, &mut d, lpn, 128).unwrap();
        }
    }

    #[test]
    fn eol_churn_wears_out_gracefully() {
        let (mut d, mut f) = setup();
        d.set_fault_config(&zng_flash::FaultConfig::end_of_life());
        let mut t = Cycle(0);
        let mut worn = false;
        for i in 0..400_000u64 {
            match f.write(t, &mut d, i % 256).map(|w| w.done) {
                Ok(done) => t = done,
                Err(Error::DeviceWornOut { retired_blocks }) => {
                    assert!(retired_blocks > 0);
                    worn = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(worn, "sustained EOL churn must wear the device out");
        assert!(f.blocks_retired() > 0);
        assert!(f.write_redrives() > 0);
    }

    #[test]
    fn refresh_relocates_aged_blocks_and_stays_readable() {
        use crate::refresh::RefreshPolicy;
        let (mut d, mut f) = setup();
        f.set_endurance(Some(RefreshPolicy {
            disturb_threshold: 0,
            retention_threshold: 1_000_000,
            wear_spread: 0.0,
        }));
        let t = f.write(Cycle(0), &mut d, 42).unwrap().done;
        let addr = f.locate(42).unwrap();
        f.seal_active(addr.block);
        // Long idle: the copy ages past the retention threshold.
        let mut t = t + Cycle(10_000_000);
        for _ in 0..64 {
            t = f.refresh_step(t, &mut d).unwrap();
            if f.endurance_counters().unwrap().refreshes > 0 {
                break;
            }
        }
        let c = f.endurance_counters().unwrap();
        assert_eq!(c.refreshes, 1, "the aged block must refresh");
        assert_eq!(c.retention_refreshes, 1);
        let moved = f.locate(42).unwrap();
        assert_ne!(moved.block, addr.block, "data moved to fresh cells");
        f.read(t, &mut d, 42, 128).unwrap();
        // The victim was erased back into the pool: nothing maps to it.
        assert!(d
            .block(addr.block)
            .is_some_and(|b| !b.is_programmed(addr.page)));
    }

    #[test]
    fn endurance_turns_worn_out_cliff_into_capacity_steps() {
        use crate::refresh::RefreshPolicy;
        let (mut d, mut f) = setup();
        d.set_fault_config(&zng_flash::FaultConfig::end_of_life());
        f.set_endurance(Some(RefreshPolicy {
            disturb_threshold: 0,
            retention_threshold: 0,
            wear_spread: 0.0,
        }));
        let mut t = Cycle(0);
        let mut degraded = None;
        for i in 0..400_000u64 {
            match f.write(t, &mut d, i % 256).map(|w| w.done) {
                Ok(done) => t = done,
                Err(Error::CapacityDegraded { remaining_pages }) => {
                    degraded = Some(remaining_pages);
                    break;
                }
                Err(Error::DeviceWornOut { .. }) => {
                    panic!("endurance mode must degrade the cliff away")
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let remaining = degraded.expect("sustained EOL churn must exhaust the pool");
        assert!(remaining > 0, "mapped data remains advertised");
        assert_eq!(f.endurance_counters().unwrap().capacity_steps, 1);
        for lpn in 0..256u64 {
            if f.locate(lpn).is_none() {
                continue; // never successfully acked under EOL faults
            }
            match f.read(t, &mut d, lpn, 128) {
                Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => panic!("read of acked lpn {lpn} failed: {e}"),
            }
        }
    }

    #[test]
    fn recovery_rebuilds_map_after_power_loss() {
        let (mut d, mut f) = setup();
        let mut t = Cycle(0);
        for i in 0..500u64 {
            t = f.write(t, &mut d, i % 64).unwrap().done;
        }
        let before: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        // `t` is the last program's completion, so nothing is in flight.
        d.power_loss(t);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(rep.pages_scanned >= 500);
        assert!(rep.stale_dropped > 0, "overwrites left stale versions");
        assert_eq!(rep.torn_discarded, 0);
        let after: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        assert_eq!(before, after, "mappings survive the crash exactly");
        for l in 0..64u64 {
            f.read(t + rep.scan_cycles, &mut d, l, 128).unwrap();
        }
        f.write(t + rep.scan_cycles, &mut d, 7).unwrap();
    }

    #[test]
    fn recovery_rolls_torn_write_back_to_previous_copy() {
        let (mut d, mut f) = setup();
        let t1 = f.write(Cycle(0), &mut d, 9).unwrap().done;
        let a1 = f.locate(9).unwrap();
        // Second write of the same page is cut mid-program.
        f.write(t1, &mut d, 9).unwrap();
        let cut = t1 + Cycle(1);
        let lost = d.power_loss(cut);
        assert_eq!(lost.pages_torn, 1);
        let rep = f.recover(cut, &mut d).unwrap();
        assert_eq!(rep.torn_discarded, 1);
        assert_eq!(f.locate(9), Some(a1), "rolls back to the acked copy");
        f.read(cut + rep.scan_cycles, &mut d, 9, 128).unwrap();
    }

    #[test]
    fn recovery_is_idempotent_under_midflight_cut() {
        let (mut d, mut f) = setup();
        let mut t = Cycle(0);
        for i in 0..300u64 {
            t = f.write(t, &mut d, i % 64).unwrap().done;
        }
        let cut = t - Cycle(60_000); // the last program is mid-flight
        d.power_loss(cut);
        f.recover(cut, &mut d).unwrap();
        let first: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        let free = f.free_blocks();
        // Crash during recovery, recover again: same mapping state.
        d.power_loss(cut);
        f.recover(cut, &mut d).unwrap();
        let second: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        assert_eq!(first, second);
        assert_eq!(f.free_blocks(), free);
    }

    fn ckpt_cfg(journal_cap: u64) -> crate::checkpoint::CheckpointConfig {
        crate::checkpoint::CheckpointConfig { journal_cap }
    }

    /// The first checkpoint-tagged page on media (for fault injection).
    fn first_checkpoint_page(d: &FlashDevice) -> zng_types::addr::FlashAddr {
        let total = d.geometry().total_blocks() as u64;
        for idx in 0..total {
            let addr = d.geometry().block_for_index(idx).unwrap();
            let b = d.block(addr).unwrap();
            if b.kind() == zng_flash::BlockKind::Checkpoint && b.programmed_pages() > 0 {
                return zng_types::addr::FlashAddr::new(addr, 0);
            }
        }
        panic!("no checkpoint block written yet");
    }

    #[test]
    fn checkpointed_recovery_takes_the_fast_path_and_matches_full_scan() {
        let (mut d, mut f) = setup();
        f.set_checkpointing(Some(ckpt_cfg(0)));
        let mut t = Cycle(0);
        for i in 0..400u64 {
            t = f.write(t, &mut d, i % 64).unwrap().done;
        }
        t = f.checkpoint_step(t, &mut d);
        // Enough post-checkpoint churn to flush at least one journal
        // page (remaps batch up; a full batch forces a flush).
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 16).unwrap().done;
        }
        // Clone the crashed state: one twin recovers fast, the other is
        // stripped of its checkpoint and must full-scan the same media.
        d.power_loss(t);
        let (mut d2, mut f2) = (d.clone(), f.clone());
        f2.set_checkpointing(None);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(rep.fast_path && !rep.fallback, "{rep:?}");
        assert!(rep.journal_replayed > 0, "{rep:?}");
        assert!(rep.blocks_rescanned > 0, "{rep:?}");
        let full = f2.recover(t, &mut d2).unwrap();
        assert!(!full.fast_path && !full.fallback, "{full:?}");
        let a: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        let b: Vec<_> = (0..64u64).map(|l| f2.locate(l)).collect();
        assert_eq!(a, b, "fast path rebuilds the exact full-scan mapping");
        assert_eq!(f.free_blocks(), f2.free_blocks());
    }

    #[test]
    fn crash_before_first_checkpoint_full_scans() {
        let (mut d, mut f) = setup();
        f.set_checkpointing(Some(ckpt_cfg(0)));
        let mut t = Cycle(0);
        for i in 0..100u64 {
            t = f.write(t, &mut d, i % 32).unwrap().done;
        }
        d.power_loss(t);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(!rep.fast_path && rep.fallback, "{rep:?}");
        for l in 0..32u64 {
            assert!(f.locate(l).is_some());
        }
    }

    #[test]
    fn corrupt_checkpoint_page_forces_clean_fallback() {
        let (mut d, mut f) = setup();
        f.set_checkpointing(Some(ckpt_cfg(0)));
        let mut t = Cycle(0);
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 64).unwrap().done;
        }
        t = f.checkpoint_step(t, &mut d);
        let before: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        d.mark_page_corrupt(first_checkpoint_page(&d)).unwrap();
        d.power_loss(t);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(!rep.fast_path && rep.fallback, "{rep:?}");
        let after: Vec<_> = (0..64u64).map(|l| f.locate(l)).collect();
        assert_eq!(before, after, "the fallback still rebuilds everything");
    }

    #[test]
    fn dead_die_under_checkpoint_forces_fallback() {
        let (mut d, mut f) = setup();
        f.set_checkpointing(Some(ckpt_cfg(0)));
        let mut t = Cycle(0);
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 64).unwrap().done;
        }
        t = f.checkpoint_step(t, &mut d);
        let ck = first_checkpoint_page(&d);
        d.fail_die(ck.block.channel, ck.block.die);
        d.power_loss(t);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(!rep.fast_path && rep.fallback, "{rep:?}");
    }

    #[test]
    fn journal_overflow_forces_fallback() {
        let (mut d, mut f) = setup();
        f.set_checkpointing(Some(ckpt_cfg(8)));
        let mut t = Cycle(0);
        for i in 0..100u64 {
            t = f.write(t, &mut d, i % 32).unwrap().done;
        }
        t = f.checkpoint_step(t, &mut d);
        // Far more map mutations than the cap: the journal overflows and
        // the epoch stops being trustworthy.
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 32).unwrap().done;
        }
        let c = f.checkpoint_counters().unwrap();
        assert!(c.journal_overflows > 0, "{c:?}");
        d.power_loss(t);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(!rep.fast_path && rep.fallback, "{rep:?}");
        for l in 0..32u64 {
            assert!(f.locate(l).is_some());
        }
    }

    #[test]
    fn recovery_resets_the_epoch_and_the_next_checkpoint_restores_the_fast_path() {
        let (mut d, mut f) = setup();
        f.set_checkpointing(Some(ckpt_cfg(0)));
        let mut t = Cycle(0);
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 64).unwrap().done;
        }
        t = f.checkpoint_step(t, &mut d);
        d.power_loss(t);
        let rep = f.recover(t, &mut d).unwrap();
        assert!(rep.fast_path, "{rep:?}");
        // The epoch died with the crash: a second cut right away must
        // full-scan, but a fresh checkpoint re-arms the fast path.
        d.power_loss(t + rep.scan_cycles);
        let rep2 = f.recover(t + rep.scan_cycles, &mut d).unwrap();
        assert!(!rep2.fast_path && rep2.fallback, "{rep2:?}");
        let mut t2 = t + rep.scan_cycles + rep2.scan_cycles;
        for i in 0..50u64 {
            t2 = f.write(t2, &mut d, i % 16).unwrap().done;
        }
        t2 = f.checkpoint_step(t2, &mut d);
        d.power_loss(t2);
        let rep3 = f.recover(t2, &mut d).unwrap();
        assert!(rep3.fast_path, "{rep3:?}");
    }

    #[test]
    fn integrity_off_serves_corrupt_pages_unchanged() {
        let (mut d, mut f) = setup();
        let t = f.write(Cycle(0), &mut d, 5).unwrap().done;
        let addr = f.locate(5).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        // Baseline semantics: without the opt-in there is no checksum to
        // fail, so the corrupt payload flows through silently.
        f.read(t, &mut d, 5, 128).unwrap();
        assert_eq!(f.integrity_counters(), IntegrityCounters::default());
    }

    #[test]
    fn integrity_read_fails_loudly_without_redundancy() {
        let (mut d, mut f) = setup();
        f.set_integrity(true);
        let t = f.write(Cycle(0), &mut d, 5).unwrap().done;
        let addr = f.locate(5).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        match f.read(t, &mut d, 5, 128) {
            Err(Error::IntegrityViolation { .. }) => {}
            other => panic!("expected IntegrityViolation, got {other:?}"),
        }
        let c = f.integrity_counters();
        assert_eq!(c.detected, 1);
        assert_eq!(c.rereads, 1, "one charged re-read before giving up");
        assert_eq!(c.reconstructed, 0);
    }

    #[test]
    fn integrity_read_reconstructs_and_heals_with_redundancy() {
        let (mut d, mut f) = setup();
        f.set_redundancy(&d, Some(RainConfig::default()));
        f.set_integrity(true);
        let t = f.write(Cycle(0), &mut d, 5).unwrap().done;
        let addr = f.locate(5).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        let t = f.read(t, &mut d, 5, 128).unwrap();
        let c = f.integrity_counters();
        assert_eq!(c.detected, 1);
        assert_eq!(c.reconstructed, 1);
        assert_eq!(c.quarantined, 1);
        // Healed: the lpn now maps to a clean copy; re-reading it detects
        // nothing new.
        let healed = f.locate(5).unwrap();
        assert_ne!(healed, addr);
        assert!(!d.page_is_corrupt(healed));
        f.read(t, &mut d, 5, 128).unwrap();
        assert_eq!(f.integrity_counters().detected, 1);
    }

    #[test]
    fn gc_never_launders_corruption() {
        let (mut d, mut f) = setup();
        f.set_integrity(true);
        let t = f.write(Cycle(0), &mut d, 5).unwrap().done;
        let addr = f.locate(5).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        // Seal the stricken block and migrate its one live page.
        f.seal_active(addr.block);
        let t = f.gc(t, &mut d).unwrap();
        let moved = f.locate(5).unwrap();
        assert_ne!(moved.block, addr.block);
        assert!(
            d.page_is_corrupt(moved),
            "the migrated copy carries the bad checksum along"
        );
        // The verified read still refuses to serve it.
        assert!(matches!(
            f.read(t, &mut d, 5, 128),
            Err(Error::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn rebuild_reports_partial_progress_when_spares_run_dry() {
        use zng_types::ids::{ChannelId, DieId};
        let (mut d, mut f) = setup();
        f.set_redundancy(&d, Some(RainConfig::default()));
        let mut t = Cycle(0);
        for lpn in 0..2048u64 {
            t = f.write(t, &mut d, lpn).unwrap().done;
        }
        d.fail_die(ChannelId(0), DieId(0));
        let lost: Vec<u64> = f
            .map
            .iter()
            .filter(|(_, a)| d.die_is_dead(a.block.channel, a.block.die))
            .map(|(&l, _)| l)
            .collect();
        assert!(lost.len() > 64, "striping must strand many pages");
        // Starve the spare pool so the rebuild runs dry part-way through
        // (the active write heads only hold a few dozen free slots).
        let mut drained = Vec::new();
        while f.core.allocator.free() > 0 {
            drained.push(f.core.allocator.allocate().unwrap());
        }
        let (t, pages) = f
            .rebuild_dead_die(t, &mut d)
            .expect("a dry spare pool must not abort the rebuild");
        assert!(
            pages < lost.len() as u64,
            "the dry pool must stop the rebuild part-way ({pages} pages)"
        );
        // Stranded pages stay mapped and readable via reconstruction.
        let stranded: Vec<u64> = lost
            .iter()
            .copied()
            .filter(|l| {
                let a = f.map[l];
                d.die_is_dead(a.block.channel, a.block.die)
            })
            .collect();
        assert!(!stranded.is_empty(), "some pages must still await spares");
        let mut t = t;
        for &lpn in &stranded {
            t = f.read(t, &mut d, lpn, 128).unwrap();
        }
        // Once spares return, a second pass finishes the job.
        for idx in drained {
            f.core.allocator.release(idx, 0);
        }
        let (_, more) = f.rebuild_dead_die(t, &mut d).unwrap();
        assert!(more > 0, "the resumed rebuild must make progress");
        assert!(
            f.map
                .values()
                .all(|a| !d.die_is_dead(a.block.channel, a.block.die)),
            "a resumed rebuild moves everything off the dead die"
        );
    }

    #[test]
    fn recovery_quarantines_corrupt_copies() {
        let (mut d, mut f) = setup();
        f.set_integrity(true);
        let t1 = f.write(Cycle(0), &mut d, 9).unwrap().done;
        let a1 = f.locate(9).unwrap();
        let t2 = f.write(t1, &mut d, 9).unwrap().done;
        let a2 = f.locate(9).unwrap();
        d.mark_page_corrupt(a2).unwrap();
        d.power_loss(t2);
        let rep = f.recover(t2, &mut d).unwrap();
        assert_eq!(rep.corrupt_quarantined, 1);
        assert_eq!(f.integrity_counters().quarantined, 1);
        assert_eq!(
            f.locate(9),
            Some(a1),
            "rolls back to the newest intact copy"
        );
        f.read(t2 + rep.scan_cycles, &mut d, 9, 128).unwrap();
    }

    #[test]
    fn nominal_faults_keep_data_readable_under_churn() {
        let (mut d, mut f) = setup();
        d.set_fault_config(&zng_flash::FaultConfig::nominal());
        let mut t = Cycle(0);
        for i in 0..20_000u64 {
            t = f.write(t, &mut d, i % 256).unwrap().done;
        }
        for lpn in 0..256 {
            assert!(f.locate(lpn).is_some());
            f.read(t, &mut d, lpn, 128).unwrap();
        }
    }

    fn degrading(onset: u64, death: u64) -> zng_flash::FaultConfig {
        zng_flash::FaultConfig::none().with_degrading(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset,
            death,
        })
    }

    /// Pages of the working set whose current copy sits on die (0, 0).
    fn live_on_suspect(f: &PageMapFtl) -> usize {
        (0..256u64)
            .filter(|&l| {
                f.locate(l)
                    .is_some_and(|a| a.block.channel.index() == 0 && a.block.die.index() == 0)
            })
            .count()
    }

    #[test]
    fn health_off_step_is_inert() {
        let (mut d, mut f) = setup();
        assert_eq!(f.health_step(Cycle(123), &mut d).unwrap(), Cycle(123));
        assert!(f.health_counters().is_none());
        assert!(f.quarantined_dies().is_empty());
    }

    #[test]
    fn health_evacuates_degrading_die_before_death() {
        let (mut d, mut f) = setup();
        f.set_health(Some(HealthPolicy {
            window: 32,
            suspect_threshold: 0.05,
            evacuate: true,
        }));
        let mut t = Cycle(0);
        for lpn in 0..256u64 {
            t = f.write(t, &mut d, lpn).unwrap().done;
        }
        assert!(live_on_suspect(&f) > 0, "working set must touch die (0,0)");
        let onset = t.raw() + 1_000_000;
        let death = onset + 2_000_000_000;
        d.set_fault_config(&degrading(onset, death));
        let step = (death - onset) / 200;
        let mut clock = Cycle(onset);
        let mut completed = false;
        for _ in 0..96 {
            for lpn in 0..256u64 {
                let _ = f.read(clock, &mut d, lpn, 128);
            }
            clock += Cycle(step);
            f.health_step(clock, &mut d).unwrap();
            if f.health_counters().unwrap().evacuations_completed > 0 {
                completed = true;
                break;
            }
        }
        let c = f.health_counters().unwrap();
        assert!(completed, "evacuation must complete before death: {c:?}");
        assert!(c.suspects_flagged >= 1, "{c:?}");
        assert!(c.pages_evacuated > 0, "{c:?}");
        assert_eq!(f.quarantined_dies(), vec![(0, 0)]);
        assert_eq!(
            live_on_suspect(&f),
            0,
            "no live page remains on the suspect"
        );
        // The die dies; the monitor fences it on its next tick. With the
        // data long gone, the death never costs a single read.
        clock = Cycle(death + 1);
        f.health_step(clock, &mut d).unwrap();
        assert!(d.dead_dies().contains(&(0, 0)));
        assert_eq!(f.health_counters().unwrap().dead_dies_fenced, 1);
        for lpn in 0..256u64 {
            f.read(clock, &mut d, lpn, 128).unwrap();
        }
        assert_eq!(d.dead_die_reads(), 0, "the death cost zero reads");
    }
}
