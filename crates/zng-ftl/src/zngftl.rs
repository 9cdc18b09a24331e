//! The ZnG zero-overhead FTL (paper §IV-A).
//!
//! Address translation is split so that no SSD engine is needed:
//!
//! * **DBMT** (data block mapping table) — virtual block → physical data
//!   block, block-granular and read-only. It lives in the GPU MMU and is
//!   cached by the TLB, so read translation costs nothing extra.
//! * **LBMT** (log block mapping table) — groups of
//!   [`ZngFtl::group_size`] data blocks share one over-provisioned
//!   physical *log block*; the LBMT lives in GPU shared memory.
//! * **LPMT** (log page mapping table) — each log block's page remapping
//!   lives *inside the plane's programmable row decoder*
//!   ([`zng_flash::RowDecoder`]), searched as a CAM on access.
//!
//! Writes append to the group's log block (directly, or via the flash
//! registers in wropt mode). When a log block fills, a **GPU helper
//! thread** merges the group: every data block with logged pages is
//! rewritten to a fresh block (wear-levelled), the old data block and the
//! log block are erased, and the DBMT/LBMT are updated. The report tells
//! the platform which pages to flush from L2 and how long the victim
//! app's requests stay blocked (paper Fig. 17).

use std::collections::{BTreeMap, BTreeSet};

use fxhash::FxHashMap;
use zng_flash::{BlockKind, FlashDevice, RowDecoder, CAM_SEARCH_CYCLES};
use zng_types::{BlockAddr, Cycle, Error, FlashAddr, Result};

use crate::densemap::DenseMap;
use crate::maint::{Ftl, FtlCore, Primitives, WriteResult};
use crate::pacing::pace;
use crate::recovery::{self, RecoveryReport};
use crate::refresh::RefreshReason;
use crate::MAX_WRITE_REDRIVES;

/// How writes reach the flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// ZnG-base: each 128 B write read-modify-programs a log page.
    Direct,
    /// ZnG-wropt: writes merge in the flash registers; only evictions
    /// program log pages.
    Buffered,
}

/// The outcome of a garbage collection performed by the GPU helper thread.
#[derive(Debug, Clone)]
pub struct GcReport {
    /// The data-block group that was merged.
    pub group: u64,
    /// When the GC started.
    pub started: Cycle,
    /// When the merge finished on the media.
    pub done: Cycle,
    /// How long the victim app is actually blocked. Equal to `done`
    /// without GC pacing; with pacing it is capped at the blocking
    /// deadline (`started + stall_budget`), and a capped merge counts as
    /// a deadline miss.
    pub blocking_done: Cycle,
    /// Pages migrated (reads+programs on the GC thread).
    pub migrated_pages: u64,
    /// Blocks erased (data blocks + the log block).
    pub erased_blocks: u64,
    /// Virtual page numbers whose L2 lines must be flushed.
    pub flushed_vpns: Vec<u64>,
}

#[derive(Debug, Clone)]
struct LogBlock {
    addr: BlockAddr,
    decoder: RowDecoder,
}

/// The zero-overhead FTL state machine.
#[derive(Debug, Clone)]
pub struct ZngFtl {
    group_size: u64,
    pages_per_block: u64,
    mode: WriteMode,
    /// DBMT: vbn -> physical data block, with a wear-ordered index for
    /// the static leveller.
    dbmt: Dbmt,
    /// LBMT: group -> log block (+ its row-decoder LPMT). Same
    /// direct-indexed layout as the DBMT.
    lbmt: DenseMap<LogBlock>,
    /// The allocator and reliability state shared with
    /// [`crate::PageMapFtl`].
    core: FtlCore,
    /// (start, end) of each GC, for the Fig. 17 time series.
    gc_events: Vec<(Cycle, Cycle)>,
    /// Merges whose media completion overran the blocking deadline.
    gc_deadline_misses: u64,
    /// Merges that ran with pacing enabled.
    paced_gcs: u64,
}

impl ZngFtl {
    /// Creates the FTL for `device`, with `group_size` data blocks per
    /// log block and the given write mode.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(device: &FlashDevice, group_size: u64, mode: WriteMode) -> ZngFtl {
        ZngFtl::with_wear_policy(
            device,
            group_size,
            mode,
            crate::allocator::WearPolicy::LeastErased,
        )
    }

    /// Creates the FTL with an explicit wear-levelling policy (paper §VI:
    /// the helper thread can run different wear-levelling algorithms).
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn with_wear_policy(
        device: &FlashDevice,
        group_size: u64,
        mode: WriteMode,
        policy: crate::allocator::WearPolicy,
    ) -> ZngFtl {
        assert!(group_size > 0, "log groups need at least one data block");
        let g = device.geometry();
        ZngFtl {
            group_size,
            pages_per_block: g.pages_per_block as u64,
            mode,
            dbmt: Dbmt::default(),
            lbmt: DenseMap::new(),
            core: FtlCore::new(crate::allocator::BlockAllocator::with_policy(
                g.total_blocks() as u64,
                policy,
            )),
            gc_events: Vec::new(),
            gc_deadline_misses: 0,
            paced_gcs: 0,
        }
    }

    /// Merges whose media completion overran the blocking deadline.
    pub fn gc_deadline_misses(&self) -> u64 {
        self.gc_deadline_misses
    }

    /// Merges that ran with pacing enabled.
    pub fn paced_gcs(&self) -> u64 {
        self.paced_gcs
    }

    /// Data blocks sharing one log block.
    pub fn group_size(&self) -> u64 {
        self.group_size
    }

    fn vbn_of(&self, vpn: u64) -> u64 {
        vpn / self.pages_per_block
    }

    fn group_of(&self, vpn: u64) -> u64 {
        self.vbn_of(vpn) / self.group_size
    }

    /// The graceful end-of-life step with every mapped data block's
    /// pages as the advertised capacity.
    fn degrade_worn(&mut self, e: Error) -> Error {
        let mapped = self.dbmt.len() as u64 * self.pages_per_block;
        self.core.degrade(e, mapped)
    }

    fn alloc_block(&mut self, device: &mut FlashDevice, kind: BlockKind) -> Result<BlockAddr> {
        self.core.alloc(device, kind, false)
    }

    /// Ensures `vbn`'s data block exists, pre-loaded with the initial
    /// dataset (zero simulated cost: data resided on flash at kernel
    /// launch). Every preloaded page gets an OOB record so the block is
    /// reconstructible after a power loss; the preload always precedes
    /// any log write of the same pages, so its stamps are outranked by
    /// every later demand write.
    fn ensure_data_block(&mut self, device: &mut FlashDevice, vbn: u64) -> Result<BlockAddr> {
        if let Some(addr) = self.dbmt.get(vbn) {
            return Ok(addr);
        }
        let addr = self.alloc_block(device, BlockKind::Data)?;
        for offset in 0..self.pages_per_block {
            device.preload_page(addr, vbn * self.pages_per_block + offset)?;
        }
        if let Some(rain) = self.core.rain.as_mut() {
            // Parity of a pre-resident superblock logically pre-resided
            // too: flush it outside the timing model.
            rain.note_preload(device, addr)?;
        }
        self.dbmt.insert(device, vbn, addr);
        self.core.note_remap(vbn);
        Ok(addr)
    }

    fn ensure_log_block(&mut self, device: &mut FlashDevice, group: u64) -> Result<BlockAddr> {
        if let Some(lb) = self.lbmt.get(group) {
            return Ok(lb.addr);
        }
        let addr = self.alloc_block(device, BlockKind::Log)?;
        let decoder = RowDecoder::new(device.geometry().pages_per_block as u32);
        self.lbmt.insert(group, LogBlock { addr, decoder });
        self.core.note_remap(group);
        Ok(addr)
    }

    /// Resolves where `vpn` currently lives: the log block (if logged)
    /// or its data block. Returns `(address, extra CAM-search cycles)`.
    fn resolve(&mut self, device: &mut FlashDevice, vpn: u64) -> Result<(FlashAddr, Cycle)> {
        let vbn = self.vbn_of(vpn);
        let data = self.ensure_data_block(device, vbn)?;
        let group = self.group_of(vpn);
        if let Some(lb) = self.lbmt.get_mut(group) {
            if let Some(slot) = lb.decoder.lookup(vpn) {
                return Ok((FlashAddr::new(lb.addr, slot), CAM_SEARCH_CYCLES));
            }
            // Missed in the CAM: the search still happened.
            let offset = (vpn % self.pages_per_block) as u32;
            return Ok((FlashAddr::new(data, offset), CAM_SEARCH_CYCLES));
        }
        let offset = (vpn % self.pages_per_block) as u32;
        Ok((FlashAddr::new(data, offset), Cycle::ZERO))
    }

    fn read_inner(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vpn: u64,
        transfer_bytes: usize,
    ) -> Result<Cycle> {
        // Freshly written data may still sit in the *log-home* package's
        // registers (no LPMT mapping exists until eviction): serve it
        // from there.
        let group = self.group_of(vpn);
        if let Some(lb) = self.lbmt.get(group) {
            let log_ch = lb.addr.channel;
            if let Some(done) = device.read_from_register_if_held(now, log_ch, vpn, transfer_bytes)
            {
                return Ok(done);
            }
        }
        let (addr, cam) = self.resolve(device, vpn)?;
        device.try_admit(now, addr.block.channel)?;
        let done = self.read_media(now + cam, device, addr, vpn, transfer_bytes)?;
        let done = self.verify_payload(done, device, addr, vpn, transfer_bytes, true)?;
        device.note_inflight(addr.block.channel, done);
        Ok(done)
    }

    /// Verifies a served payload against its OOB checksum (integrity mode
    /// only; a no-op otherwise). A mismatch is reconstructed from the
    /// stripe or fails loudly (the shared verification head in the FTL
    /// core); the reconstructed payload is re-logged as a clean copy if
    /// `heal`. Callers that immediately supersede the page anyway (the
    /// RMW write fetch) pass `heal = false`.
    fn verify_payload(
        &mut self,
        done: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        vpn: u64,
        bytes: usize,
        heal: bool,
    ) -> Result<Cycle> {
        let Some(t) = self.core.verify(done, device, addr, vpn, bytes)? else {
            return Ok(done);
        };
        if heal {
            // The corrupt physical page is superseded: a corrupt log slot
            // is invalidated outright, a corrupt data page is outranked by
            // the new log copy until the next merge erases it.
            self.rewrite_page(t, device, addr, vpn)?;
        }
        self.core.icounters.quarantined += 1;
        Ok(t)
    }

    /// One media sense with the RAIN fallback: an uncorrectable result
    /// (the host retry ladder lives in the platform; a dead die never
    /// recovers) reconstructs from surviving stripe members when
    /// redundancy is on, and propagates untouched when it is off. A
    /// quarantined die's data gets an elevated retry budget first: every
    /// sense that succeeds is one fewer reconstruction fan-out.
    fn read_media(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        vpn: u64,
        transfer_bytes: usize,
    ) -> Result<Cycle> {
        let extra = self.core.quarantine_extra(addr.block);
        let mut attempt = 0;
        loop {
            match self.core.sense(device, now, addr, vpn, transfer_bytes) {
                Err(Error::UncorrectableRead { .. }) if attempt < extra => attempt += 1,
                Err(Error::UncorrectableRead { .. }) if self.core.rain.is_some() => {
                    return self.core.reconstruct(now, device, addr, transfer_bytes)
                }
                r => return r,
            }
        }
    }

    fn write_inner(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vpn: u64,
    ) -> Result<WriteResult> {
        let vbn = self.vbn_of(vpn);
        self.ensure_data_block(device, vbn)?;
        let group = self.group_of(vpn);
        let log_addr = self.ensure_log_block(device, group)?;
        device.try_admit(now, log_addr.channel)?;
        let r = match self.mode {
            WriteMode::Direct => self.write_direct(now, device, vpn, group),
            WriteMode::Buffered => self.write_buffered(now, device, vpn, group, log_addr),
        }?;
        device.note_inflight(log_addr.channel, r.done);
        Ok(r)
    }

    /// ZnG-base path: fetch the current page, merge, program a log page.
    fn write_direct(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vpn: u64,
        group: u64,
    ) -> Result<WriteResult> {
        debug_assert_eq!(group, self.group_of(vpn));
        let mut gc = None;
        if self
            .lbmt
            .get(group)
            .expect("log block ensured")
            .decoder
            .is_full()
        {
            let report = self.gc_group(now, device, group)?;
            gc = Some(report);
            // Retry immediately after the merge freed the group's log
            // space. Resources are reserved at `now` (not at the merge's
            // far-future completion) so concurrent traffic is not falsely
            // queued; the *caller* blocks this app until `gc.done`.
            self.ensure_log_block(device, group)?;
            let r = self.write_direct(now, device, vpn, group)?;
            return Ok(WriteResult {
                done: r.done,
                gc,
                thrashing: false,
            });
        }
        // Read-modify-write: fetch the page being partially overwritten,
        // merge in a plane register, and program the log page. The warp
        // retires once the merged data is staged in the register; the
        // 100 µs program completes in the background (the plane stays
        // busy, which is the real throughput penalty).
        let (src, cam) = self.resolve(device, vpn)?;
        let page_bytes = device.geometry().page_bytes;
        let fetched = self.read_media(now + cam, device, src, vpn, page_bytes)?;
        // The RMW fetch is a consumer too: merging a corrupt payload
        // would launder the corruption into the new log page. No healing
        // rewrite — the merged program below supersedes the page anyway.
        let fetched = self.verify_payload(fetched, device, src, vpn, page_bytes, false)?;
        self.program_log_page(fetched, device, vpn, group)?;
        Ok(WriteResult {
            done: fetched + Cycle(600),
            gc,
            thrashing: false,
        })
    }

    /// ZnG-wropt path: merge in flash registers; program only on eviction.
    fn write_buffered(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vpn: u64,
        group: u64,
        log_addr: BlockAddr,
    ) -> Result<WriteResult> {
        debug_assert_eq!(group, self.group_of(vpn));
        let buffered = device.buffered_write(now, vpn, log_addr);
        let mut gc = None;
        if let Some(pending) = buffered.eviction {
            // The victim may belong to a different group.
            let victim_group = self.group_of(pending.key);
            self.ensure_log_block(device, victim_group)?;
            let t = pending.ready_at.max(now);
            if self
                .lbmt
                .get(victim_group)
                .expect("log block ensured")
                .decoder
                .is_full()
            {
                let report = self.gc_group(t, device, victim_group)?;
                gc = Some(report);
                self.ensure_log_block(device, victim_group)?;
            }
            // Reserve at the bounded `t`, never at the merge's completion
            // (see write_direct); the caller blocks the victim app.
            self.program_log_page(t, device, pending.key, victim_group)?;
        }
        Ok(WriteResult {
            done: buffered.done,
            gc,
            thrashing: buffered.thrashing,
        })
    }

    /// Appends `vpn` to `group`'s log block: records the LPMT mapping in
    /// the row decoder, invalidates a superseded log page, and programs
    /// the array.
    ///
    /// A program that fails verification is re-driven into the next log
    /// slot (the burned slot's mapping is retracted so the previous
    /// acknowledged version stays reachable); re-drives that fill the log
    /// block trigger an inline merge and continue on the fresh log block.
    fn program_log_page(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vpn: u64,
        group: u64,
    ) -> Result<Cycle> {
        for _ in 0..MAX_WRITE_REDRIVES {
            let lb = self.lbmt.get_mut(group).expect("log block ensured");
            if lb.decoder.is_full() {
                // Rare corner: re-drives consumed the last log slots
                // mid-write. Merge the group inline and continue on the
                // fresh log block. The merge is recorded in `gc_events`;
                // its blocking report cannot reach this write's caller.
                self.gc_group(now, device, group)?;
                self.ensure_log_block(device, group)?;
                continue;
            }
            let old = lb.decoder.lookup(vpn);
            let slot = lb.decoder.record(vpn)?;
            let addr = lb.addr;
            let report = device.program_evicted(now, addr, vpn)?;
            debug_assert_eq!(report.page, slot, "decoder and block program in lock-step");
            if !report.failed {
                // Supersede the previous version only once the new one
                // is verified, so a failure never strands acked data.
                if let Some(stale) = old {
                    device.invalidate(FlashAddr::new(addr, stale));
                }
                if let Some(rain) = self.core.rain.as_mut() {
                    rain.note_program(report.done, device, addr)?;
                }
                self.core.note_remap(vpn);
                return Ok(report.done);
            }
            // The burned slot holds garbage (the plane already
            // invalidated it); point the mapping back at the previous
            // version and try the next slot.
            self.core.write_redrives += 1;
            self.lbmt
                .get_mut(group)
                .expect("log block ensured")
                .decoder
                .retract(vpn, old);
        }
        Err(Error::FlashProtocol(format!(
            "write of vpn {vpn} still failing after {MAX_WRITE_REDRIVES} re-drives"
        )))
    }

    /// Merges `group`: rewrites every data block with logged pages to a
    /// fresh block, erases the stale blocks and the log block, updates
    /// DBMT/LBMT. Runs on the GPU helper thread; per-block merges proceed
    /// in parallel across planes, so `done` is the slowest block chain.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors.
    pub fn gc_group(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        group: u64,
    ) -> Result<GcReport> {
        let lb = match self.lbmt.remove(group) {
            Some(lb) => lb,
            None => {
                return Ok(GcReport {
                    group,
                    started: now,
                    done: now,
                    blocking_done: now,
                    migrated_pages: 0,
                    erased_blocks: 0,
                    flushed_vpns: Vec::new(),
                })
            }
        };
        self.core.gcs += 1;

        // Which data blocks of the group actually have logged pages?
        // Keyed in a BTreeMap so the merge walks vbns in ascending order
        // without a separate collect-and-sort.
        let mut by_vbn: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        for (vpn, slot) in lb.decoder.mappings() {
            by_vbn
                .entry(self.vbn_of(vpn))
                .or_default()
                .push((vpn, slot));
        }
        let mut flushed = Vec::new();
        let mut migrated = 0u64;
        let mut erased = 0u64;
        let mut done = now;

        for (vbn, logged) in by_vbn {
            // Every logged vpn passed through `write`, which ensures its
            // data block first; dbmt entries are never removed. A miss
            // here is a simulator bug, not a caller-reachable state.
            let old_data = self
                .dbmt
                .get(vbn)
                .expect("logged vpn's data block was ensured at write time");
            let logged_map: FxHashMap<u64, u32> = logged.into_iter().collect();
            // Merge all pages of the block, newest version of each.
            let copy =
                self.copy_block(now, device, vbn, old_data, false, false, |vpn, offset| {
                    match logged_map.get(&vpn) {
                        Some(&slot) => FlashAddr::new(lb.addr, slot),
                        None => FlashAddr::new(old_data, offset),
                    }
                })?;
            migrated += copy.pages;
            for offset in 0..self.pages_per_block {
                flushed.push(vbn * self.pages_per_block + offset);
            }
            done = done.max(copy.programmed);
            // Retire the old data block.
            self.invalidate_whole_block(device, old_data)?;
            done = done.max(self.erase_or_fence(copy.read, device, old_data, &mut erased)?);
            self.dbmt.insert(device, vbn, copy.fresh);
            self.core.note_remap(vbn);
        }

        // Retire the log block itself.
        self.invalidate_whole_block(device, lb.addr)?;
        done = done.max(self.erase_or_fence(done, device, lb.addr, &mut erased)?);

        self.gc_events.push((now, done));
        // With a pacing contract (`Ftl::set_pacing`) the victim blocks
        // only up to the deadline, and a later merge is a deadline miss.
        if self.core.pacing.is_some() {
            self.paced_gcs += 1;
        }
        let blocking_done = pace(self.core.pacing, now, done, &mut self.gc_deadline_misses);
        self.core.ckpt_sync(done, device);
        Ok(GcReport {
            group,
            started: now,
            done,
            blocking_done,
            migrated_pages: migrated,
            erased_blocks: erased,
            flushed_vpns: flushed,
        })
    }

    /// A group merge as a maintenance migration: its completion time
    /// and the pages it moved.
    fn merge(&mut self, now: Cycle, device: &mut FlashDevice, group: u64) -> Result<(Cycle, u64)> {
        let report = self.gc_group(now, device, group)?;
        Ok((report.done, report.migrated_pages))
    }

    /// The block copy every data-block rewrite shares (the GC merge, the
    /// standalone migration and the dead-die rebuild): allocates a fresh
    /// data block (the most-worn spare when `most_worn`) and programs
    /// `vbn`'s pages into it in offset order, page `offset` coming from
    /// `source(vpn, offset)`. A migration senses each source through the
    /// retry ladder, folds stale register copies of `old`'s pages into the
    /// copy, and moves corrupt flags along (never laundered); a rebuild
    /// (`reconstruct`) rebuilds each page from its stripe instead.
    ///
    /// The helper thread double-buffers: the next page's read overlaps
    /// the previous page's program (reads and programs occupy different
    /// planes), so the read chain advances at read speed and the
    /// destination plane's program queue absorbs the rest.
    ///
    /// A program failure mid-copy abandons the destination (data blocks
    /// must stay offset-ordered, so a partial block cannot be patched),
    /// retires it, and restarts on a new block — the sources are
    /// untouched (reads only). Each restart shrinks the free pool, so
    /// repeated failures terminate in [`Error::DeviceWornOut`] from the
    /// allocator.
    #[allow(clippy::too_many_arguments)]
    fn copy_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vbn: u64,
        old: BlockAddr,
        most_worn: bool,
        reconstruct: bool,
        source: impl Fn(u64, u32) -> FlashAddr,
    ) -> Result<BlockCopy> {
        let page_bytes = device.geometry().page_bytes;
        let mut pages = 0u64;
        loop {
            let fresh = self.core.alloc(device, BlockKind::Data, most_worn)?;
            let mut read = now;
            let mut programmed = now;
            let mut burned = false;
            for offset in 0..self.pages_per_block {
                let vpn = vbn * self.pages_per_block + offset;
                let src = source(vpn, offset as u32);
                read = if reconstruct {
                    self.core.reconstruct(read, device, src, page_bytes)?
                } else {
                    // Stale register copies are folded into the copy.
                    device.discard_register(old.channel, vpn);
                    self.core.retried_read(device, read, src, vpn, page_bytes)?
                };
                let report = device.program_migrate(read, fresh, vpn)?;
                if report.failed {
                    burned = true;
                    break;
                }
                if !reconstruct && device.page_is_corrupt(src) {
                    // The moved payload still fails its checksum at the
                    // new location, so the flag moves with it.
                    device.mark_page_corrupt(FlashAddr::new(fresh, report.page))?;
                }
                programmed = programmed.max(report.done);
                pages += 1;
            }
            if !burned {
                if let Some(rain) = self.core.rain.as_mut() {
                    rain.note_program(programmed, device, fresh)?;
                }
                return Ok(BlockCopy {
                    fresh,
                    read,
                    programmed,
                    pages,
                });
            }
            self.retire_block(device, fresh)?;
        }
    }

    /// Erases a reclaimed block, unless its die has died since: a block on
    /// dead silicon cannot be erased, so it is fenced out of service
    /// instead (its content, if still referenced anywhere, reconstructs
    /// from the stripe). Returns when the erase completes, bumping
    /// `erased` only for real erases.
    fn erase_or_fence(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: BlockAddr,
        erased: &mut u64,
    ) -> Result<Cycle> {
        if device.die_is_dead(addr.channel, addr.die) {
            self.core.fence(device.geometry().index_for_block(addr));
            return Ok(now);
        }
        let erase = device.erase(now, addr)?;
        self.core.release(device, addr);
        *erased += 1;
        Ok(erase.done)
    }

    fn invalidate_whole_block(&mut self, device: &mut FlashDevice, addr: BlockAddr) -> Result<()> {
        let block = device.block_mut(addr)?;
        let live: Vec<u32> = block.valid_page_indices().collect();
        for p in live {
            block.invalidate(p);
        }
        Ok(())
    }

    /// Permanently removes a half-written block from service (no erase:
    /// a block that failed program verification is not trusted again).
    fn retire_block(&mut self, device: &mut FlashDevice, addr: BlockAddr) -> Result<()> {
        self.invalidate_whole_block(device, addr)?;
        self.core.retire(device.geometry().index_for_block(addr));
        Ok(())
    }

    fn group_of_vbn(&self, vbn: u64) -> u64 {
        vbn / self.group_size
    }

    /// Whether `vbn`'s group log block holds a mapping for any of `vbn`'s
    /// pages (a newer copy that outranks the data block's).
    fn group_has_logged_pages(&self, vbn: u64) -> bool {
        self.lbmt.get(self.group_of_vbn(vbn)).is_some_and(|lb| {
            lb.decoder
                .logical_pages()
                .any(|vpn| self.vbn_of(vpn) == vbn)
        })
    }

    /// The static leveller's victim: the coldest mapped data block
    /// (lowest erase count, then lowest vbn) on a live die, not failed
    /// and with no logged sibling pages, as `(vbn, false)`. When every
    /// such block's group still holds logged pages, the coldest of them
    /// as `(vbn, true)`: its group must be merged first. The walk follows
    /// the DBMT's wear index, so it stops at the first block that passes.
    fn level_victim(&self, device: &FlashDevice) -> Option<(u64, bool)> {
        let mut merge = None;
        for (vbn, a) in self.dbmt.coldest_first() {
            if device.die_is_dead(a.channel, a.die) || device.block(a).is_none_or(|b| b.is_failed())
            {
                continue;
            }
            if !self.group_has_logged_pages(vbn) {
                return Some((vbn, false));
            }
            merge.get_or_insert((vbn, true));
        }
        merge
    }

    /// [`ZngFtl::level_victim`] by a linear walk of the whole DBMT with
    /// each log block's sorted mappings: the reference the indexed pick
    /// is checked against.
    #[cfg(any(test, debug_assertions))]
    fn level_victim_linear(&self, device: &FlashDevice) -> Option<(u64, bool)> {
        let coldest = |candidates: &mut dyn Iterator<Item = (u64, BlockAddr)>| {
            candidates
                .filter(|&(_, a)| {
                    !device.die_is_dead(a.channel, a.die)
                        && device.block(a).is_some_and(|b| !b.is_failed())
                })
                .min_by_key(|&(vbn, a)| {
                    let wear = device.block(a).map(|b| b.erase_count()).unwrap_or(0);
                    (wear, vbn)
                })
                .map(|(vbn, _)| vbn)
        };
        let logged = |vbn: u64| {
            self.lbmt.get(self.group_of_vbn(vbn)).is_some_and(|lb| {
                lb.decoder
                    .mappings()
                    .iter()
                    .any(|&(vpn, _)| self.vbn_of(vpn) == vbn)
            })
        };
        match coldest(&mut self.dbmt.iter().filter(|&(vbn, _)| !logged(vbn))) {
            Some(vbn) => Some((vbn, false)),
            None => coldest(&mut self.dbmt.iter()).map(|vbn| (vbn, true)),
        }
    }

    /// Rewrites `vbn`'s data block to a newly allocated block (the
    /// most-worn spare when `most_worn`), page by page with verified
    /// reads — corrupt flags move along, never laundered — then erases
    /// the old block and remaps. The caller guarantees no newer log copy
    /// of any page exists (see [`ZngFtl::group_has_logged_pages`]).
    fn migrate_data_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vbn: u64,
        most_worn: bool,
    ) -> Result<(Cycle, u64)> {
        let old = self.dbmt.get(vbn).expect("caller verified the mapping");
        let copy = self.copy_block(now, device, vbn, old, most_worn, false, |_, offset| {
            FlashAddr::new(old, offset)
        })?;
        let mut erased = 0u64;
        self.invalidate_whole_block(device, old)?;
        let done = copy
            .programmed
            .max(self.erase_or_fence(copy.read, device, old, &mut erased)?);
        self.dbmt.insert(device, vbn, copy.fresh);
        self.core.note_remap(vbn);
        Ok((done, self.pages_per_block))
    }

    /// (start, end) of every GC, for time-series plots.
    pub fn gc_events(&self) -> &[(Cycle, Cycle)] {
        &self.gc_events
    }
}

/// A completed [`ZngFtl::copy_block`].
struct BlockCopy {
    /// The destination block.
    fresh: BlockAddr,
    /// When the last source read completed.
    read: Cycle,
    /// When the last program completed.
    programmed: Cycle,
    /// Pages programmed, abandoned attempts included.
    pages: u64,
}

/// The DBMT (vbn -> physical data block) with a wear-ordered index
/// beside it, so the static leveller finds the coldest mapped block
/// without walking the table. The map is direct-indexed ([`DenseMap`]):
/// vbns are dense within an app's segment, every hot-path resolve is an
/// array index, and iteration is ascending-vbn by construction.
///
/// Every mapping goes through [`Dbmt::insert`], which keys the index by
/// the block's erase count at that moment. A mapped block is never
/// erased (a merge, migration or rebuild erases the old block, then maps
/// the new one), so the key stays the block's erase count while mapped.
#[derive(Debug, Clone, Default)]
struct Dbmt {
    map: DenseMap<BlockAddr>,
    /// vbn -> the erase count its block was mapped with: the index key
    /// to remove when the mapping is replaced. Kept apart from `map`,
    /// whose slots exist for every vbn of a touched segment.
    wear: BTreeMap<u64, u32>,
    /// `(erase count, vbn)` of every mapping.
    by_wear: BTreeSet<(u32, u64)>,
}

impl Dbmt {
    fn get(&self, vbn: u64) -> Option<BlockAddr> {
        self.map.get(vbn).copied()
    }

    /// Maps `vbn` to `addr`, replacing any previous mapping.
    fn insert(&mut self, device: &FlashDevice, vbn: u64, addr: BlockAddr) {
        let wear = device.block(addr).map_or(0, |b| b.erase_count());
        self.map.insert(vbn, addr);
        if let Some(old) = self.wear.insert(vbn, wear) {
            self.by_wear.remove(&(old, vbn));
        }
        self.by_wear.insert((wear, vbn));
    }

    fn clear(&mut self) {
        self.map.clear();
        self.wear.clear();
        self.by_wear.clear();
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Every mapping in ascending vbn order.
    fn iter(&self) -> impl Iterator<Item = (u64, BlockAddr)> + '_ {
        self.map.iter().map(|(vbn, &addr)| (vbn, addr))
    }

    /// Every mapping, coldest first: ascending `(erase count, vbn)`.
    fn coldest_first(&self) -> impl Iterator<Item = (u64, BlockAddr)> + '_ {
        self.by_wear
            .iter()
            .map(|&(_, vbn)| (vbn, self.get(vbn).expect("indexed vbns are mapped")))
    }
}

impl Ftl for ZngFtl {
    /// The DBMT lookup itself is free (it rides the MMU/TLB); only a log
    /// block's CAM search adds cycles. Register-served reads bypass
    /// admission: they never reach the channel's request queue.
    fn read(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        vpn: u64,
        transfer_bytes: usize,
    ) -> Result<Cycle> {
        self.read_inner(now, device, vpn, transfer_bytes)
            .map_err(|e| self.degrade_worn(e))
    }

    /// GC traffic triggered by an admitted write bypasses admission:
    /// reclamation must always make progress.
    fn write(&mut self, now: Cycle, device: &mut FlashDevice, vpn: u64) -> Result<WriteResult> {
        let r = self
            .write_inner(now, device, vpn)
            .map_err(|e| self.degrade_worn(e));
        let t = r.as_ref().map(|wr| wr.done).unwrap_or(now);
        self.core.ckpt_sync(t, device);
        r
    }

    /// The DBMT, the LBMT and every row-decoder LPMT are rebuilt from
    /// the scan.
    fn recover(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<RecoveryReport> {
        let rs = self.core.recovery_scan(device);
        let scan = &rs.scan;
        let winners = recovery::resolve_winners(&scan.blocks);
        let candidates: u64 = scan.blocks.iter().map(|b| b.entries.len() as u64).sum();

        // Classify touched blocks by their OOB role tag and pick, per
        // virtual data block / per group, the copy with the newest stamp.
        // A *failed* data-tagged block is an abandoned merge destination:
        // it was retired the moment it burned and is never referenced
        // (its pages are outranked by the completed restart copy). A data
        // block is kept even with zero winning pages — a fully-logged
        // block still backs every CAM miss of its group.
        let mut data_choice: BTreeMap<u64, &recovery::ScannedBlock> = BTreeMap::new();
        let mut log_choice: BTreeMap<u64, &recovery::ScannedBlock> = BTreeMap::new();
        for blk in &scan.blocks {
            let Some(&(_, first)) = blk.entries.first() else {
                continue;
            };
            match first.tag {
                BlockKind::Data if !blk.failed => {
                    let vbn = first.lpn / self.pages_per_block;
                    match data_choice.get(&vbn) {
                        Some(prev) if prev.max_seq() >= blk.max_seq() => {}
                        _ => {
                            data_choice.insert(vbn, blk);
                        }
                    }
                }
                BlockKind::Log => {
                    let group = self.group_of(first.lpn);
                    match log_choice.get(&group) {
                        Some(prev) if prev.max_seq() >= blk.max_seq() => {}
                        _ => {
                            log_choice.insert(group, blk);
                        }
                    }
                }
                _ => {}
            }
        }

        self.dbmt.clear();
        self.lbmt.clear();
        let mut referenced: BTreeSet<u64> = BTreeSet::new();
        for (&vbn, blk) in &data_choice {
            referenced.insert(blk.idx);
            self.dbmt.insert(device, vbn, blk.addr);
            let b = device.block_mut(blk.addr)?;
            b.set_kind(BlockKind::Data);
            // Data pages stay valid until their block is merged away,
            // even when a log copy supersedes them (pre-crash semantics).
            for &(page, _) in &blk.entries {
                b.restore_valid(page);
            }
        }
        for (&group, blk) in &log_choice {
            referenced.insert(blk.idx);
            let b = device.block_mut(blk.addr)?;
            b.set_kind(BlockKind::Log);
            let mut live: Vec<(u64, u32)> = Vec::new();
            for &(page, m) in &blk.entries {
                let here = FlashAddr::new(blk.addr, page);
                if winners.get(&m.lpn).is_some_and(|&(_, w)| w == here) {
                    b.restore_valid(page);
                    live.push((m.lpn, page));
                }
            }
            let decoder = RowDecoder::restore(self.pages_per_block as u32, blk.programmed, live);
            self.lbmt.insert(
                group,
                LogBlock {
                    addr: blk.addr,
                    decoder,
                },
            );
        }

        let installed = winners
            .values()
            .filter(|&&(_, addr)| {
                referenced.contains(&device.geometry().index_for_block(addr.block))
            })
            .count() as u64;
        let dead = scan.blocks.iter().filter(|b| !referenced.contains(&b.idx));
        self.core.finish_recovery(
            now,
            device,
            &rs,
            dead,
            referenced.len() as u64,
            candidates - installed,
        )
    }

    /// The log block's LPMT when it holds `vpn`, else its data block
    /// (when that exists). Counts no CAM search.
    fn locate(&self, vpn: u64) -> Option<FlashAddr> {
        let group = self.group_of(vpn);
        if let Some(lb) = self.lbmt.get(group) {
            if let Some(slot) = lb.decoder.mapping(vpn) {
                return Some(FlashAddr::new(lb.addr, slot));
            }
        }
        let data = self.dbmt.get(self.vbn_of(vpn))?;
        Some(FlashAddr::new(data, (vpn % self.pages_per_block) as u32))
    }
}

impl Primitives for ZngFtl {
    fn core(&self) -> &FtlCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut FtlCore {
        &mut self.core
    }

    /// Re-logs `vpn` through the log path.
    fn rewrite_page(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        _src: FlashAddr,
        vpn: u64,
    ) -> Result<Cycle> {
        let vbn = self.vbn_of(vpn);
        self.ensure_data_block(device, vbn)?;
        let group = self.group_of(vpn);
        self.ensure_log_block(device, group)?;
        self.program_log_page(now, device, vpn, group)
    }

    /// A log block — or a data block with logged sibling pages — goes
    /// through a full group merge (newest version of every page wins,
    /// exactly the GC path); a data block with no log copies migrates
    /// standalone. Either way the old block is erased, resetting its
    /// disturb and retention clocks. At end of life the step still
    /// paces.
    fn refresh_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: BlockAddr,
        reason: RefreshReason,
    ) -> Result<Option<Cycle>> {
        let log_group = self
            .lbmt
            .iter()
            .find(|(_, lb)| lb.addr == addr)
            .map(|(g, _)| g);
        let (done, pages) = match log_group {
            // A log block: merge its group (the merge folds every logged
            // page into fresh data blocks and erases the log block).
            Some(group) => self.merge(now, device, group)?,
            None => {
                let Some((vbn, _)) = self.dbmt.iter().find(|&(_, a)| a == addr) else {
                    // Neither mapped nor logged (e.g. a block drained
                    // between the scan and now): nothing live to preserve.
                    return Ok(Some(now));
                };
                // A standalone data-block rewrite stamps fresh OOB
                // records; if a *newer* log copy of any of its pages
                // existed, those stamps would outrank it after a crash
                // and resurrect stale data. Such blocks must refresh
                // through the group merge instead.
                if self.group_has_logged_pages(vbn) {
                    self.merge(now, device, self.group_of_vbn(vbn))?
                } else {
                    self.migrate_data_block(now, device, vbn, false)?
                }
            }
        };
        if let Some(st) = self.core.endurance.as_mut() {
            st.note_refresh(reason, pages);
        }
        Ok(Some(done))
    }

    /// The coldest mapped data block (lowest erase count, no logged
    /// sibling pages) is rewritten into the most-worn spare block, and
    /// its freed low-wear cells rejoin the allocation pool where the
    /// wear-levelled allocator hands them to hot traffic.
    ///
    /// When every mapped block's group still holds logged copies — the
    /// steady state under the log-structured write path, since a merge
    /// only runs on a write and the triggering write re-logs a page —
    /// a standalone migration would let the rewritten OOB stamps outrank
    /// those newer copies after a crash. Instead the coldest such group
    /// is merged, folding its logged pages away so a later step can
    /// migrate it.
    fn level_block(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let victim = self.level_victim(device);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            victim,
            self.level_victim_linear(device),
            "the indexed levelling pick must equal the linear walk's"
        );
        let vbn = match victim {
            None => return Ok(now),
            Some((vbn, true)) => {
                let group = self.group_of_vbn(vbn);
                return Ok(self.gc_group(now, device, group)?.done);
            }
            Some((vbn, false)) => vbn,
        };
        let (done, pages) = self.migrate_data_block(now, device, vbn, true)?;
        if let Some(st) = self.core.endurance.as_mut() {
            st.note_levelling(pages);
        }
        Ok(done)
    }

    /// Log blocks go first (they still absorb new log programs until
    /// merged away); then data blocks, through the group merge when a
    /// newer log copy exists (standalone rewrites must not outrank it
    /// after a crash), standalone otherwise.
    fn evacuate_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
    ) -> Option<Result<(Cycle, u64)>> {
        let on_suspect =
            |a: &BlockAddr| self.core.is_quarantined(*a) && !device.die_is_dead(a.channel, a.die);
        // DenseMap iteration is ascending by construction, so the first
        // match is already the lowest-numbered victim.
        let log_group = self
            .lbmt
            .iter()
            .find(|(_, lb)| on_suspect(&lb.addr))
            .map(|(g, _)| g);
        if let Some(group) = log_group {
            return Some(self.merge(now, device, group));
        }
        let vbn = self
            .dbmt
            .iter()
            .find(|(_, a)| on_suspect(a))
            .map(|(v, _)| v)?;
        Some(if self.group_has_logged_pages(vbn) {
            self.merge(now, device, self.group_of_vbn(vbn))
        } else {
            self.migrate_data_block(now, device, vbn, false)
        })
    }

    /// Re-logs every group whose log block sits on the dead die onto a
    /// spare block immediately (writes would otherwise hard-fail); data
    /// blocks stay degraded until the rebuild.
    fn fence_writers(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let page_bytes = device.geometry().page_bytes;
        // DenseMap iteration is ascending-group already: no sort needed.
        let groups: Vec<u64> = self
            .lbmt
            .iter()
            .filter(|(_, lb)| device.die_is_dead(lb.addr.channel, lb.addr.die))
            .map(|(g, _)| g)
            .collect();
        let mut t = now;
        for group in groups {
            let lb = self.lbmt.remove(group).expect("group collected above");
            let mut live: Vec<(u64, u32)> = lb.decoder.mappings();
            live.sort_unstable_by_key(|&(_, slot)| slot);
            self.ensure_log_block(device, group)?;
            let mut pages = 0u64;
            for (vpn, slot) in live {
                let src = FlashAddr::new(lb.addr, slot);
                let r = self.core.reconstruct(t, device, src, page_bytes)?;
                t = self.program_log_page(r, device, vpn, group)?;
                pages += 1;
            }
            self.invalidate_whole_block(device, lb.addr)?;
            self.core.fence(device.geometry().index_for_block(lb.addr));
            if let Some(rain) = self.core.rain.as_mut() {
                rain.rebuild_pages += pages;
            }
        }
        self.core.ckpt_sync(t, device);
        Ok(t)
    }

    /// Re-creates each lost data block on a spare, chained on the GPU
    /// helper thread; an empty spare pool ends the rebuild early.
    fn rebuild_lost(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<(Cycle, u64)> {
        // DenseMap iteration is ascending-vbn already: no sort needed.
        let lost: Vec<(u64, BlockAddr)> = self
            .dbmt
            .iter()
            .filter(|(_, a)| device.die_is_dead(a.channel, a.die))
            .collect();
        let mut t = now;
        let mut pages = 0u64;
        for (vbn, old) in lost {
            let source = |_, offset| FlashAddr::new(old, offset);
            let copy = match self.copy_block(t, device, vbn, old, false, true, source) {
                Ok(copy) => copy,
                Err(Error::DeviceWornOut { .. } | Error::OutOfSpace) => break,
                Err(e) => return Err(e),
            };
            pages += self.pages_per_block;
            t = t.max(copy.programmed);
            self.invalidate_whole_block(device, old)?;
            self.core.fence(device.geometry().index_for_block(old));
            self.dbmt.insert(device, vbn, copy.fresh);
            self.core.note_remap(vbn);
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

    use zng_flash::FaultConfig;

    fn setup(mode: WriteMode) -> (FlashDevice, ZngFtl) {
        let d = FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .unwrap();
        let f = ZngFtl::new(&d, 2, mode);
        (d, f)
    }

    #[test]
    fn reads_hit_preloaded_data_blocks() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let t = f.read(Cycle(0), &mut d, 100, 128).unwrap();
        // Sense (3600) + io + network, no program cost.
        assert!(t > Cycle(3_600) && t < Cycle(20_000), "{t}");
        assert_eq!(f.dbmt.len(), 1); // one DBMT entry
    }

    #[test]
    fn direct_write_lands_in_log_block_and_remaps_reads() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let w = f.write(Cycle(0), &mut d, 5).unwrap();
        // The warp retires once the RMW data is staged in a register
        // (sense + transfers + staging), well before the 100 us program.
        assert!(w.done > Cycle(3_600), "RMW fetch cost applies");
        assert!(w.done < Cycle(120_000), "program runs in the background");
        assert!(w.gc.is_none());
        // The background program did occupy the array.
        assert_eq!(d.stats().total_programs(), 1);
        // The read now resolves through the CAM to the log page.
        let (addr, cam) = f.resolve(&mut d, 5).unwrap();
        assert_eq!(cam, CAM_SEARCH_CYCLES);
        let block = d.block(addr.block).unwrap();
        assert_eq!(block.kind(), BlockKind::Log);
    }

    #[test]
    fn buffered_writes_merge_without_programs() {
        let (mut d, mut f) = setup(WriteMode::Buffered);
        for _ in 0..50 {
            let r = f.write(Cycle(0), &mut d, 7).unwrap();
            assert!(r.done < Cycle(10_000), "register writes are fast");
        }
        assert_eq!(d.stats().total_programs(), 0, "all merged in registers");
    }

    #[test]
    fn buffered_eviction_programs_log_page() {
        let (mut d, mut f) = setup(WriteMode::Buffered);
        // tiny geometry: 4 planes x 4 regs = 16 registers per package.
        // All writes target channel of group 0's log block; >16 distinct
        // pages forces evictions.
        for vpn in 0..30u64 {
            f.write(Cycle(0), &mut d, vpn).unwrap();
        }
        assert!(d.stats().total_programs() > 0);
    }

    #[test]
    fn log_block_overflow_triggers_gc() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        // tiny: 16 pages per block. Write the same page 20 times: the log
        // block (16 pages) fills and GC must merge.
        let mut t = Cycle(0);
        let mut saw_gc = false;
        for _ in 0..20 {
            let r = f.write(t, &mut d, 3).unwrap();
            t = r.done;
            if let Some(gc) = r.gc {
                saw_gc = true;
                assert!(gc.done > gc.started);
                assert!(gc.migrated_pages > 0);
                assert!(gc.erased_blocks >= 2); // data block + log block
                assert!(gc.flushed_vpns.contains(&3));
            }
        }
        assert!(saw_gc, "GC must have fired");
        assert_eq!(f.gcs(), 1);
        assert_eq!(f.gc_events().len(), 1);
        // Data still readable after the merge.
        f.read(t, &mut d, 3, 128).unwrap();
    }

    #[test]
    fn gc_preserves_all_group_pages() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        // Touch pages in two data blocks of the same group, then force GC.
        let mut t = Cycle(0);
        for vpn in [0u64, 1, 16, 17] {
            t = f.write(t, &mut d, vpn).unwrap().done;
        }
        let report = f.gc_group(t, &mut d, 0).unwrap();
        assert!(report.migrated_pages >= 32, "both blocks merged");
        t = report.done;
        for vpn in [0u64, 1, 15, 16, 31] {
            f.read(t, &mut d, vpn, 128).unwrap();
        }
        // The log block is gone until the next write.
        assert!(f.lbmt.get(0).is_none());
    }

    #[test]
    fn gc_on_empty_group_is_noop() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let r = f.gc_group(Cycle(5), &mut d, 99).unwrap();
        assert_eq!(r.done, Cycle(5));
        assert_eq!(r.migrated_pages, 0);
    }

    #[test]
    fn groups_isolate_log_blocks() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        // group = vbn / 2; tiny ppb = 16 -> vpn 0 is group 0, vpn 40 is
        // group 1.
        f.write(Cycle(0), &mut d, 0).unwrap();
        f.write(Cycle(0), &mut d, 40).unwrap();
        assert!(f.lbmt.get(0).unwrap().decoder.live() > 0);
        assert!(f.lbmt.get(1).unwrap().decoder.live() > 0);
        assert!(f.lbmt.get(2).is_none());
    }

    #[test]
    fn eol_churn_wears_out_gracefully() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        d.set_fault_config(&FaultConfig::end_of_life());
        let mut t = Cycle(0);
        let mut worn = None;
        for i in 0..400_000u64 {
            match f.write(t, &mut d, i % 64) {
                Ok(r) => t = r.done,
                Err(Error::DeviceWornOut { retired_blocks }) => {
                    worn = Some(retired_blocks);
                    break;
                }
                // The RMW fetch can hit a transient uncorrectable read;
                // the warp would simply re-issue.
                Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let retired = worn.expect("sustained EOL churn must wear the device out");
        assert!(retired > 0);
        assert!(f.blocks_retired() > 0, "the FTL retired blocks on the way");
        assert!(f.write_redrives() > 0, "failed programs were re-driven");
        assert!(d.stats().program_failures() > 0);
        // Worn out stays worn out: other groups' log blocks may absorb a
        // few more writes, but continued churn hits the exhausted pool
        // again almost immediately.
        let again = (0..200u64)
            .any(|i| matches!(f.write(t, &mut d, i % 64), Err(Error::DeviceWornOut { .. })));
        assert!(again, "the exhausted spare pool must resurface");
    }

    #[test]
    fn recovery_rebuilds_mappings_after_quiescent_power_loss() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let mut t = Cycle(0);
        for vpn in [0u64, 1, 5, 16, 40] {
            t = f.write(t, &mut d, vpn).unwrap().done;
        }
        let before: Vec<_> = (0..48u64).map(|v| f.locate(v)).collect();
        // Quiescent cut: every background program has long completed.
        let cut = t + Cycle(10_000_000);
        d.power_loss(cut);
        let rep = f.recover(cut, &mut d).unwrap();
        assert!(rep.pages_scanned > 0);
        assert_eq!(rep.torn_discarded, 0);
        assert!(rep.scan_cycles > Cycle::ZERO);
        let after: Vec<_> = (0..48u64).map(|v| f.locate(v)).collect();
        assert_eq!(before, after, "mappings survive the crash exactly");
        for vpn in [0u64, 1, 5, 16, 40] {
            f.read(cut + rep.scan_cycles, &mut d, vpn, 128).unwrap();
        }
        // The device keeps working: writes and GC still function.
        f.write(cut + rep.scan_cycles, &mut d, 7).unwrap();
    }

    #[test]
    fn recovery_discards_torn_write_and_restores_previous_version() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let w1 = f.write(Cycle(0), &mut d, 3).unwrap();
        // Let the first log program complete, then cut power right after
        // the second write's warp retires — its program is in flight.
        let quiet = w1.done + Cycle(10_000_000);
        let w2 = f.write(quiet, &mut d, 3).unwrap();
        let cut = w2.done + Cycle(1);
        let lost = d.power_loss(cut);
        assert_eq!(lost.pages_torn, 1, "the in-flight log program tears");
        let rep = f.recover(cut, &mut d).unwrap();
        assert_eq!(rep.torn_discarded, 1);
        // The previous acknowledged version is reachable again.
        let addr = f.locate(3).expect("vpn 3 still mapped");
        assert!(!d.page_is_torn(addr));
        assert_eq!(d.page_stamp(addr).map(|(k, _)| k), Some(3));
        f.read(cut + rep.scan_cycles, &mut d, 3, 128).unwrap();
    }

    #[test]
    fn recovery_is_idempotent_under_midflight_cut() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let mut t = Cycle(0);
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 48).unwrap().done;
        }
        // Cut mid-flight: the last few programs tear.
        d.power_loss(t);
        f.recover(t, &mut d).unwrap();
        let first: Vec<_> = (0..48u64).map(|v| f.locate(v)).collect();
        let free = f.free_blocks();
        // Crash during recovery, recover again: same mapping state.
        d.power_loss(t);
        f.recover(t, &mut d).unwrap();
        let second: Vec<_> = (0..48u64).map(|v| f.locate(v)).collect();
        assert_eq!(first, second);
        assert_eq!(f.free_blocks(), free);
    }

    #[test]
    fn nominal_faults_keep_all_writes_readable() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        d.set_fault_config(&FaultConfig::nominal());
        let mut t = Cycle(0);
        for i in 0..2_000u64 {
            t = f.write(t, &mut d, i % 32).unwrap().done;
        }
        for vpn in 0..32u64 {
            let (addr, _) = f.resolve(&mut d, vpn).unwrap();
            assert_eq!(f.locate(vpn), Some(addr));
        }
    }

    #[test]
    fn integrity_off_serves_corrupt_pages_unchanged() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        let t = f.read(Cycle(0), &mut d, 100, 128).unwrap();
        let addr = f.locate(100).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        // Baseline semantics: without the opt-in there is no checksum to
        // fail, so the corrupt payload flows through silently.
        f.read(t, &mut d, 100, 128).unwrap();
        assert_eq!(f.integrity_counters(), IntegrityCounters::default());
    }

    #[test]
    fn integrity_read_fails_loudly_without_redundancy() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_integrity(true);
        let t = f.read(Cycle(0), &mut d, 100, 128).unwrap();
        let addr = f.locate(100).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        match f.read(t, &mut d, 100, 128) {
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
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_redundancy(&d, Some(RainConfig::default()));
        f.set_integrity(true);
        let t = f.read(Cycle(0), &mut d, 100, 128).unwrap();
        let addr = f.locate(100).unwrap();
        d.mark_page_corrupt(addr).unwrap();
        let t = f.read(t, &mut d, 100, 128).unwrap();
        let c = f.integrity_counters();
        assert_eq!(c.detected, 1);
        assert_eq!(c.reconstructed, 1);
        assert_eq!(c.quarantined, 1);
        // Healed: the vpn now resolves to a clean log copy; re-reading it
        // detects nothing new.
        let healed = f.locate(100).unwrap();
        assert_ne!(healed, addr);
        assert!(!d.page_is_corrupt(healed));
        f.read(t, &mut d, 100, 128).unwrap();
        assert_eq!(f.integrity_counters().detected, 1);
    }

    #[test]
    fn refresh_rewrites_disturbed_blocks_and_keeps_data_readable() {
        use crate::refresh::RefreshPolicy;
        let (mut d, mut f) = setup(WriteMode::Direct);
        d.set_endurance_tracking(Some(1));
        f.set_endurance(Some(RefreshPolicy {
            disturb_threshold: 4,
            retention_threshold: 0,
            wear_spread: 0.0,
        }));
        let mut t = f.read(Cycle(0), &mut d, 0, 128).unwrap();
        let addr = f.locate(0).unwrap();
        // Hammer the data block with array senses (alternating pages
        // defeat the sense latch, distinct keys the register cache).
        for i in 0..16u64 {
            let _ = d.read(
                t,
                FlashAddr::new(addr.block, (i % 2) as u32),
                5_000 + i,
                128,
            );
        }
        for _ in 0..64 {
            t = f.refresh_step(t, &mut d).unwrap();
            if f.endurance_counters().unwrap().refreshes > 0 {
                break;
            }
        }
        let c = f.endurance_counters().unwrap();
        assert_eq!(c.refreshes, 1, "the disturbed block must refresh");
        assert_eq!(c.disturb_refreshes, 1);
        assert!(c.refreshed_pages >= 16, "the whole block was rewritten");
        let moved = f.locate(0).unwrap();
        assert_ne!(moved.block, addr.block, "data moved to fresh cells");
        assert_eq!(
            d.block(moved.block).map(|b| b.disturb_reads()),
            Some(0),
            "the new home starts with a clean disturb clock"
        );
        f.read(t, &mut d, 0, 128).unwrap();
    }

    #[test]
    fn static_levelling_merges_logged_groups_then_migrates_cold_blocks() {
        use crate::refresh::RefreshPolicy;
        let mut g = FlashGeometry::tiny();
        g.blocks_per_plane = 2;
        g.pages_per_block = 8;
        let mut d = FlashDevice::zng_config(g, Freq::default(), RegisterTopology::NiF).unwrap();
        let mut f = ZngFtl::new(&d, 1, WriteMode::Direct);
        f.set_endurance(Some(RefreshPolicy {
            disturb_threshold: 0,
            retention_threshold: 0,
            wear_spread: 1.0,
        }));
        // One cold group written once: its full log block pins newer
        // copies, so a standalone migration must not touch it yet.
        let mut t = Cycle(0);
        for p in 0..8u64 {
            t = f.write(t, &mut d, 8 + p).unwrap().done;
        }
        // Hot churn builds wear and fills the recycled pool.
        for i in 0..200u64 {
            t = f.write(t, &mut d, i % 8).unwrap().done;
        }
        assert!(f.lbmt.get(1).is_some(), "cold group still logged");
        // Every mapped group holds logged copies, so the first levelling
        // step merges the coldest group instead of migrating it...
        t = f.refresh_step(t, &mut d).unwrap();
        assert!(f.lbmt.get(1).is_none(), "coldest group merged");
        assert_eq!(f.endurance_counters().unwrap().level_migrations, 0);
        let cold = f.locate(8).unwrap();
        // ...and the next step migrates it into a worn spare.
        t = f.refresh_step(t, &mut d).unwrap();
        let c = f.endurance_counters().unwrap();
        assert_eq!(c.level_migrations, 1);
        assert_eq!(c.leveled_pages, 8);
        assert_ne!(f.locate(8).unwrap().block, cold.block, "cold data moved");
        for p in 0..8u64 {
            t = f.read(t, &mut d, 8 + p, 128).unwrap();
        }
    }

    #[test]
    fn endurance_turns_worn_out_cliff_into_capacity_steps() {
        use crate::refresh::RefreshPolicy;
        let (mut d, mut f) = setup(WriteMode::Direct);
        d.set_fault_config(&FaultConfig::end_of_life());
        f.set_endurance(Some(RefreshPolicy {
            disturb_threshold: 0,
            retention_threshold: 0,
            wear_spread: 0.0,
        }));
        let mut t = Cycle(0);
        let mut degraded = None;
        for i in 0..400_000u64 {
            match f.write(t, &mut d, i % 64) {
                Ok(r) => t = r.done,
                Err(Error::CapacityDegraded { remaining_pages }) => {
                    degraded = Some(remaining_pages);
                    break;
                }
                Err(Error::UncorrectableRead { .. }) => {}
                Err(Error::DeviceWornOut { .. }) => {
                    panic!("endurance mode must degrade the cliff away")
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let remaining = degraded.expect("sustained EOL churn must exhaust the pool");
        assert!(remaining > 0, "mapped data remains advertised");
        assert_eq!(f.endurance_counters().unwrap().capacity_steps, 1);
        // Previously acknowledged data stays readable (modulo transient
        // uncorrectable senses, which the caller retries).
        for vpn in 0..64u64 {
            match f.read(t, &mut d, vpn, 128) {
                Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => panic!("read of acked vpn {vpn} failed: {e}"),
            }
        }
    }

    #[test]
    fn rebuild_reports_partial_progress_when_spares_run_dry() {
        use zng_types::ids::{ChannelId, DieId};
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_redundancy(&d, Some(RainConfig::default()));
        let ppb = d.geometry().pages_per_block as u64;
        // Map 32 data blocks; striping lands several on the doomed die.
        let mut t = Cycle(0);
        for vbn in 0..32u64 {
            t = f.read(t, &mut d, vbn * ppb, 128).unwrap();
        }
        d.fail_die(ChannelId(0), DieId(0));
        let lost: Vec<u64> = f
            .dbmt
            .iter()
            .filter(|(_, a)| d.die_is_dead(a.channel, a.die))
            .map(|(v, _)| v)
            .collect();
        assert!(lost.len() >= 2, "striping must strand several blocks");
        // Starve the spare pool down to one block: the rebuild recreates
        // at most one data block before running dry.
        let mut drained = Vec::new();
        while f.core.allocator.free() > 1 {
            drained.push(f.core.allocator.allocate().unwrap());
        }
        let (t, pages) = f
            .rebuild_dead_die(t, &mut d)
            .expect("a dry spare pool must not abort the rebuild");
        assert!(
            pages < lost.len() as u64 * ppb,
            "the dry pool must stop the rebuild part-way ({pages} pages)"
        );
        // Every lost vbn — rebuilt or stranded — keeps its mapping, and
        // the stranded ones keep serving reads through reconstruction.
        let mut t = t;
        let mut stranded = 0;
        for &vbn in &lost {
            let a = f.dbmt.get(vbn).expect("lost vbn stays mapped");
            if d.die_is_dead(a.channel, a.die) {
                stranded += 1;
            }
            t = f.read(t, &mut d, vbn * ppb, 128).unwrap();
        }
        assert!(stranded > 0, "some blocks must still await spares");
        // Once spares return, a second pass finishes the job.
        for idx in drained {
            f.core.allocator.release(idx, 0);
        }
        let (_, more) = f.rebuild_dead_die(t, &mut d).unwrap();
        assert!(more > 0, "the resumed rebuild must make progress");
        assert!(
            f.dbmt.iter().all(|(_, a)| !d.die_is_dead(a.channel, a.die)),
            "a resumed rebuild moves everything off the dead die"
        );
    }

    #[test]
    fn recovery_quarantines_corrupt_copies() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_integrity(true);
        let t = f.write(Cycle(0), &mut d, 5).unwrap().done;
        let t = f.write(t, &mut d, 5).unwrap().done;
        let newest = f.locate(5).unwrap();
        d.mark_page_corrupt(newest).unwrap();
        // Cut well after both background programs complete.
        d.power_loss(t + Cycle(10_000_000));
        let rep = f.recover(t + Cycle(10_000_000), &mut d).unwrap();
        assert_eq!(rep.corrupt_quarantined, 1);
        assert_eq!(f.integrity_counters().quarantined, 1);
        assert_ne!(f.locate(5), Some(newest), "never resurrected as winner");
    }

    fn ckpt_cfg(journal_cap: u64) -> crate::checkpoint::CheckpointConfig {
        crate::checkpoint::CheckpointConfig { journal_cap }
    }

    #[test]
    fn checkpointed_recovery_takes_the_fast_path_and_matches_full_scan() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_checkpointing(Some(ckpt_cfg(0)));
        let mut t = Cycle(0);
        for i in 0..300u64 {
            t = f.write(t, &mut d, i % 48).unwrap().done;
        }
        t = f.checkpoint_step(t + Cycle(1_000_000), &mut d);
        for i in 0..60u64 {
            t = f.write(t, &mut d, i % 12).unwrap().done;
        }
        // Quiesce: background programs all complete before the cut.
        let cut = t + Cycle(10_000_000);
        d.power_loss(cut);
        let (mut d2, mut f2) = (d.clone(), f.clone());
        f2.set_checkpointing(None);
        let rep = f.recover(cut, &mut d).unwrap();
        assert!(rep.fast_path && !rep.fallback, "{rep:?}");
        assert!(rep.blocks_rescanned > 0, "{rep:?}");
        let full = f2.recover(cut, &mut d2).unwrap();
        assert!(!full.fast_path && !full.fallback, "{full:?}");
        for vpn in 0..48u64 {
            assert_eq!(f.locate(vpn), f2.locate(vpn), "vpn {vpn}");
        }
        assert_eq!(f.free_blocks(), f2.free_blocks());
    }

    #[test]
    fn journal_overflow_forces_fallback() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_checkpointing(Some(ckpt_cfg(4)));
        let mut t = Cycle(0);
        for i in 0..100u64 {
            t = f.write(t, &mut d, i % 24).unwrap().done;
        }
        t = f.checkpoint_step(t + Cycle(1_000_000), &mut d);
        for i in 0..200u64 {
            t = f.write(t, &mut d, i * 7 % 96).unwrap().done;
        }
        let c = f.checkpoint_counters().unwrap();
        assert!(c.journal_overflows > 0, "{c:?}");
        let cut = t + Cycle(10_000_000);
        d.power_loss(cut);
        let rep = f.recover(cut, &mut d).unwrap();
        assert!(!rep.fast_path && rep.fallback, "{rep:?}");
        for vpn in 0..24u64 {
            assert!(f.locate(vpn).is_some() || f.read(cut, &mut d, vpn, 128).is_ok());
        }
    }

    fn degrading(onset: u64, death: u64) -> FaultConfig {
        FaultConfig::none().with_degrading(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset,
            death,
        })
    }

    fn health_policy() -> HealthPolicy {
        HealthPolicy {
            window: 32,
            suspect_threshold: 0.05,
            evacuate: true,
        }
    }

    /// Pages of the working set whose current copy sits on die (0, 0).
    fn live_on_suspect(f: &ZngFtl) -> usize {
        (0..512u64)
            .filter(|&v| {
                f.locate(v)
                    .is_some_and(|a| a.block.channel.index() == 0 && a.block.die.index() == 0)
            })
            .count()
    }

    #[test]
    fn health_off_step_is_inert() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        assert_eq!(f.health_step(Cycle(123), &mut d).unwrap(), Cycle(123));
        assert!(f.health_counters().is_none());
        assert!(f.quarantined_dies().is_empty());
    }

    #[test]
    fn health_evacuates_degrading_die_before_death() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_health(Some(health_policy()));
        let mut t = Cycle(0);
        for vpn in 0..512u64 {
            t = f.write(t, &mut d, vpn).unwrap().done;
        }
        assert!(live_on_suspect(&f) > 0, "working set must touch die (0,0)");
        let onset = t.raw() + 1_000_000;
        let death = onset + 2_000_000_000;
        d.set_fault_config(&degrading(onset, death));
        // Severity grows ~0.5 % per tick: the monitor has a long, noisy
        // runway to flag the die and drain it well before the cliff.
        let step = (death - onset) / 200;
        let mut clock = Cycle(onset);
        let mut completed = false;
        for _ in 0..96 {
            for vpn in 0..512u64 {
                let _ = f.read(clock, &mut d, vpn, 128);
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
        for vpn in 0..512u64 {
            f.read(clock, &mut d, vpn, 128).unwrap();
        }
        assert_eq!(d.dead_die_reads(), 0, "the death cost zero reads");
    }

    #[test]
    fn health_rehabilitates_a_false_positive_die() {
        let (mut d, mut f) = setup(WriteMode::Direct);
        f.set_health(Some(HealthPolicy {
            evacuate: false,
            ..health_policy()
        }));
        let mut t = Cycle(0);
        for vpn in 0..512u64 {
            t = f.write(t, &mut d, vpn).unwrap().done;
        }
        let onset = t.raw() + 1_000_000;
        let death = onset + 2_000_000_000;
        d.set_fault_config(&degrading(onset, death));
        let step = (death - onset) / 200;
        let mut clock = Cycle(onset);
        for _ in 0..96 {
            if !f.quarantined_dies().is_empty() {
                break;
            }
            for vpn in 0..512u64 {
                let _ = f.read(clock, &mut d, vpn, 128);
            }
            clock += Cycle(step);
            f.health_step(clock, &mut d).unwrap();
        }
        assert_eq!(f.quarantined_dies(), vec![(0, 0)]);
        // The noise source vanishes (a marginal solder joint reseats,
        // say): the telemetry goes quiet and the clean streak clears it.
        d.set_fault_config(&FaultConfig::none());
        for _ in 0..16 {
            if f.quarantined_dies().is_empty() {
                break;
            }
            for vpn in 0..512u64 {
                f.read(clock, &mut d, vpn, 128).unwrap();
            }
            f.health_step(clock, &mut d).unwrap();
        }
        assert!(f.quarantined_dies().is_empty(), "false positive must clear");
        let c = f.health_counters().unwrap();
        assert_eq!(c.rehabilitations, 1, "{c:?}");
        assert_eq!(c.pages_evacuated, 0, "no data moved for a false positive");
    }

    proptest::proptest! {
        /// The wear-indexed levelling pick equals the linear walk over the
        /// whole DBMT after every step of random traffic: remaps (writes
        /// and the merges they trigger), erases (merges and levelling
        /// migrations), blocks burned mid-program (end-of-life faults), a
        /// die failure with fencing and rebuild, and finally mapped blocks
        /// on a dead die and mapped blocks that fail, with no traffic after.
        #[test]
        fn indexed_level_pick_matches_the_linear_walk(
            seed in 0u64..64,
            eol in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec((0u8..4, 0u64..160), 1..240),
            fail_die_at in 0usize..480,
            burn in proptest::collection::vec(0usize..64, 0..4),
        ) {
            use crate::refresh::RefreshPolicy;
            use zng_types::ids::{ChannelId, DieId};
            let (mut d, mut f) = setup(WriteMode::Direct);
            if eol {
                d.set_fault_config(&FaultConfig::end_of_life().with_seed(seed));
            }
            f.set_redundancy(&d, Some(RainConfig::default()));
            f.set_endurance(Some(RefreshPolicy {
                disturb_threshold: 0,
                retention_threshold: 0,
                wear_spread: 1.0,
            }));
            let mut t = Cycle(0);
            for (i, &(kind, key)) in ops.iter().enumerate() {
                if i == fail_die_at {
                    d.fail_die(ChannelId(1), DieId(0));
                    if let Ok(done) = f.fence_dead_die(t, &mut d) {
                        t = done;
                    }
                    if let Ok((done, _)) = f.rebuild_dead_die(t, &mut d) {
                        t = done;
                    }
                }
                if kind == 0 {
                    if let Ok(done) = f.refresh_step(t, &mut d) {
                        t = t.max(done);
                    }
                } else if let Ok(w) = f.write(t, &mut d, key) {
                    t = w.done;
                }
                proptest::prop_assert_eq!(f.level_victim(&d), f.level_victim_linear(&d));
            }
            if fail_die_at >= ops.len() {
                d.fail_die(ChannelId(2), DieId(1));
                proptest::prop_assert_eq!(f.level_victim(&d), f.level_victim_linear(&d));
            }
            for k in burn {
                let mapped: Vec<BlockAddr> = f.dbmt.iter().map(|(_, a)| a).collect();
                if let Some(&a) = mapped.get(k % mapped.len().max(1)) {
                    d.block_mut(a).unwrap().mark_failed();
                }
                proptest::prop_assert_eq!(f.level_victim(&d), f.level_victim_linear(&d));
            }
            proptest::prop_assert!(f.dbmt.len() > 0);
        }
    }
}
