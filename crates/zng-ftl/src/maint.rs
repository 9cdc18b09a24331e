//! The maintenance core both FTLs share.
//!
//! [`crate::PageMapFtl`] and [`crate::ZngFtl`] differ in mapping
//! granularity (a page map against the block-granular DBMT plus
//! LBMT/LPMT), not in how they keep the media healthy. Both carry the
//! same reliability state — the block allocator, RAIN, integrity
//! checking, endurance, checkpoints, the health monitor and the
//! retirement counters — and that state lives once, in [`FtlCore`].
//!
//! The maintenance steps (patrol scrub, refresh and levelling, health
//! evacuation, checkpoints, die fencing and rebuild) are written once as
//! provided methods of the [`Ftl`] trait. Each FTL supplies its demand
//! path (read, write, recovery, lookup) as the trait's required methods
//! and its mapping primitives: how to rewrite one page, and how to pick
//! and migrate a refresh, levelling or evacuation victim. Where the two
//! FTLs really behave differently, the difference stays inside that
//! FTL's implementation.

use zng_flash::{BlockKind, FlashDevice};
use zng_types::{BlockAddr, Cycle, Error, FlashAddr, Result};

use crate::allocator::BlockAllocator;
use crate::checkpoint::{self, CheckpointConfig, CheckpointCounters, CheckpointState};
use crate::health::{HealthCounters, HealthPolicy, HealthState, QUARANTINE_EXTRA_READ_ATTEMPTS};
use crate::integrity::IntegrityCounters;
use crate::pacing::{pace, GcPacing};
use crate::rain::{Claim, RainConfig, RainState};
use crate::recovery::{self, RecoveryReport, Scan, ScannedBlock};
use crate::refresh::{EnduranceCounters, EnduranceState, RefreshPolicy, RefreshReason};
use crate::zngftl::GcReport;
use crate::GC_READ_ATTEMPTS;

/// The `(channel, die)` key the health monitor tracks `block` under.
fn die_key(block: BlockAddr) -> (u16, u16) {
    (block.channel.index() as u16, block.die.index() as u16)
}

/// The reliability state both FTLs carry, and the logic on it that does
/// not depend on the mapping.
///
/// Every opt-in subsystem is `None` (or `false`) by default, which keeps
/// the baseline bit-for-bit.
#[derive(Debug, Clone)]
pub struct FtlCore {
    pub(crate) allocator: BlockAllocator,
    /// RAIN redundancy and self-healing state.
    pub(crate) rain: Option<RainState>,
    /// End-to-end payload verification on host-facing reads.
    pub(crate) integrity: bool,
    pub(crate) icounters: IntegrityCounters,
    /// Endurance management (refresh scheduler, static wear leveler,
    /// graceful end-of-life degradation); without it the allocator's
    /// [`Error::DeviceWornOut`] cliff surfaces as is.
    pub(crate) endurance: Option<EnduranceState>,
    /// Mapping checkpoints + delta journal for bounded-time recovery.
    pub(crate) checkpoint: Option<CheckpointState>,
    /// Stale checkpoint blocks a recovery deferred; the next checkpoint
    /// write erases them off the restore critical path.
    pub(crate) stale_ckpt: Vec<u64>,
    /// Predictive health monitor (suspect-die quarantine + pre-emptive
    /// evacuation).
    pub(crate) health: Option<HealthState>,
    /// The one pacing contract every background step shares: a step's
    /// foreground stall is capped at its stall budget (see
    /// [`crate::pacing`]). `None` blocks for the whole step.
    pub(crate) pacing: Option<GcPacing>,
    /// Garbage collections performed.
    pub(crate) gcs: u64,
    /// Blocks permanently retired after failed programs/erases.
    pub(crate) blocks_retired: u64,
    /// Writes re-driven to a new location after a program failure.
    pub(crate) write_redrives: u64,
}

/// A recovery's scan, from the checkpoint fast path or the full OOB
/// scan, with the fast-path bookkeeping the report needs.
pub(crate) struct RecoveryScan {
    pub scan: Scan,
    fast_path: bool,
    fallback: bool,
    journal_replayed: u64,
    blocks_rescanned: u64,
    cycles_saved: Cycle,
}

impl FtlCore {
    pub(crate) fn new(allocator: BlockAllocator) -> FtlCore {
        FtlCore {
            allocator,
            rain: None,
            integrity: false,
            icounters: IntegrityCounters::default(),
            endurance: None,
            checkpoint: None,
            stale_ckpt: Vec::new(),
            health: None,
            pacing: None,
            gcs: 0,
            blocks_retired: 0,
            write_redrives: 0,
        }
    }

    /// Journals a block whose media changed outside its own OOB appends.
    pub(crate) fn note_touched(&mut self, idx: u64) {
        if let Some(ck) = self.checkpoint.as_mut() {
            ck.note_touched(idx);
        }
    }

    /// Journals a remap of logical key `key`.
    pub(crate) fn note_remap(&mut self, key: u64) {
        if let Some(ck) = self.checkpoint.as_mut() {
            ck.note_remap(key);
        }
    }

    /// The health monitor; callers have checked that it is on.
    fn health_mut(&mut self) -> &mut HealthState {
        self.health.as_mut().expect("health monitoring is on")
    }

    /// Whether `block`'s die is quarantined (never, with health off).
    pub(crate) fn is_quarantined(&self, block: BlockAddr) -> bool {
        self.health
            .as_ref()
            .is_some_and(|h| h.is_quarantined(die_key(block)))
    }

    /// Extra read-retry attempts granted when `block`'s die is
    /// quarantined by the health monitor; zero otherwise (and always
    /// zero with health off, preserving the baseline bit-for-bit).
    pub(crate) fn quarantine_extra(&self, block: BlockAddr) -> u32 {
        if self.is_quarantined(block) {
            QUARANTINE_EXTRA_READ_ATTEMPTS
        } else {
            0
        }
    }

    /// A read with a bounded retry budget against transient
    /// ECC-uncorrectable senses — the one retry loop of both FTLs' GC,
    /// scrub and migration paths ([`GC_READ_ATTEMPTS`] attempts, deeper
    /// on a quarantined die). With redundancy on, a read that exhausts
    /// the ladder (or hits a dead die) is reconstructed from its
    /// surviving stripe members instead of failing.
    pub(crate) fn retried_read(
        &mut self,
        device: &mut FlashDevice,
        now: Cycle,
        addr: FlashAddr,
        key: u64,
        bytes: usize,
    ) -> Result<Cycle> {
        let budget = GC_READ_ATTEMPTS + self.quarantine_extra(addr.block);
        let mut attempt = 0;
        loop {
            match self.sense(device, now, addr, key, bytes) {
                Ok(t) => return Ok(t),
                Err(Error::UncorrectableRead { .. }) if attempt + 1 < budget => attempt += 1,
                Err(e @ Error::UncorrectableRead { .. }) => {
                    return if self.rain.is_some() {
                        self.reconstruct(now, device, addr, bytes)
                    } else {
                        Err(e)
                    };
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One array sense of `addr` (see [`checkpoint::sense`]).
    pub(crate) fn sense(
        &mut self,
        device: &mut FlashDevice,
        now: Cycle,
        addr: FlashAddr,
        key: u64,
        bytes: usize,
    ) -> Result<Cycle> {
        checkpoint::sense(self.checkpoint.as_mut(), device, now, addr, key, bytes)
    }

    /// Rebuilds `addr`'s page from its surviving stripe members;
    /// redundancy is on.
    pub(crate) fn reconstruct(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        bytes: usize,
    ) -> Result<Cycle> {
        self.rain
            .as_mut()
            .expect("reconstruction requires redundancy")
            .reconstruct(now, device, addr, bytes, self.checkpoint.as_mut())
    }

    /// Flushes pending journal records at the end of a mutating entry
    /// point, so every critical (touched-block) record is on media before
    /// the operation acknowledges. A no-op without checkpointing or with
    /// nothing flush-worthy pending.
    pub(crate) fn ckpt_sync(&mut self, now: Cycle, device: &mut FlashDevice) {
        let Some(mut ck) = self.checkpoint.take() else {
            return;
        };
        if ck.flush_ready() {
            checkpoint::flush_journal(&mut ck, self, device, now);
        } else {
            ck.tick(now);
        }
        self.checkpoint = Some(ck);
    }

    /// The one allocation chokepoint: takes a block from the pool (the
    /// tired end of the recycled pool when `most_worn` — the static wear
    /// leveler's destination, so cold data parks on high-wear cells),
    /// skipping dead and quarantined dies and RAIN's parity members, and
    /// tags it `kind`.
    pub(crate) fn alloc(
        &mut self,
        device: &mut FlashDevice,
        kind: BlockKind,
        most_worn: bool,
    ) -> Result<BlockAddr> {
        let idx = loop {
            let idx = if most_worn {
                self.allocator.allocate_most_worn()?
            } else {
                self.allocator.allocate()?
            };
            if let Some(h) = self.health.as_mut() {
                let addr = device.geometry().block_for_index(idx)?;
                if device.die_is_dead(addr.channel, addr.die) {
                    // Dead silicon never returns: retire, exactly like
                    // RAIN's fencing classification would.
                    self.allocator.retire(idx);
                    continue;
                }
                let key = die_key(addr);
                if h.is_quarantined(key) {
                    // Quarantine is reversible: park the block instead of
                    // retiring it, so rehabilitation can hand it back.
                    h.park(idx, key);
                    continue;
                }
            }
            match self.rain.as_mut() {
                Some(rain) => match rain.classify(device, idx)? {
                    Claim::Keep => break idx,
                    // The superblock's reserved parity member: RAIN keeps
                    // it, the FTL allocates again. Parity programs land
                    // here later, so the fast-path rescan must cover it.
                    Claim::Parity => self.note_touched(idx),
                    // A block on a dead die: permanently out of service.
                    Claim::Fenced => self.allocator.retire(idx),
                },
                None => break idx,
            }
        };
        self.note_touched(idx);
        let addr = device.geometry().block_for_index(idx)?;
        device.block_mut(addr)?.set_kind(kind);
        Ok(addr)
    }

    /// Returns an erased (or failed) block to the allocator: failed
    /// blocks are retired for good, healthy ones are recycled with their
    /// wear count.
    pub(crate) fn release(&mut self, device: &FlashDevice, addr: BlockAddr) {
        let idx = device.geometry().index_for_block(addr);
        match device.block(addr) {
            Some(b) if b.is_failed() => {
                self.allocator.retire(idx);
                self.blocks_retired += 1;
            }
            b => {
                let wear = b.map(|blk| blk.erase_count()).unwrap_or(0);
                self.allocator.release(idx, wear);
            }
        }
        self.note_touched(idx);
    }

    /// Permanently retires block `idx` after a failed program.
    pub(crate) fn retire(&mut self, idx: u64) {
        self.allocator.retire(idx);
        self.blocks_retired += 1;
        self.note_touched(idx);
    }

    /// Permanently removes dead-die block `idx` from service (no erase
    /// is possible on dead silicon).
    pub(crate) fn fence(&mut self, idx: u64) {
        self.allocator.retire(idx);
        if let Some(rain) = self.rain.as_mut() {
            rain.fenced_blocks += 1;
        }
        self.note_touched(idx);
    }

    /// The shared head of payload verification (integrity mode only; a
    /// no-op otherwise). A served page whose OOB checksum mismatches gets
    /// one charged re-read — the corruption is in the array, so it fails
    /// again, but the controller cannot know that without trying — then a
    /// stripe reconstruction, or [`Error::IntegrityViolation`] without
    /// redundancy: a corrupted payload is never served as a successful
    /// read. Returns `None` for a clean page, else when the reconstruction
    /// completes; the caller heals the page and counts the quarantine.
    pub(crate) fn verify(
        &mut self,
        done: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        key: u64,
        bytes: usize,
    ) -> Result<Option<Cycle>> {
        if !self.integrity || !device.page_is_corrupt(addr) {
            return Ok(None);
        }
        self.icounters.detected += 1;
        let t = device.read(done, addr, key, bytes).unwrap_or(done);
        self.icounters.rereads += 1;
        if self.rain.is_none() {
            return Err(Error::IntegrityViolation { addr });
        }
        let t = self.reconstruct(t, device, addr, bytes)?;
        self.icounters.reconstructed += 1;
        Ok(Some(t))
    }

    /// Converts an end-of-life allocator failure into the graceful
    /// [`Error::CapacityDegraded`] step when endurance management is on,
    /// advertising `mapped_pages`; passes every other error — and the
    /// baseline's hard cliff — through untouched.
    pub(crate) fn degrade(&mut self, e: Error, mapped_pages: u64) -> Error {
        match self.endurance.as_mut() {
            Some(st) => st.degrade(e, mapped_pages),
            None => e,
        }
    }

    /// The start of a recovery: the checkpoint fast path (load the newest
    /// verified checkpoint, replay the journal tail, re-scan only the
    /// blocks touched since the stamp) when it verifies, else the full
    /// OOB scan. The two paths feed the identical rebuild, so the fast
    /// path can only save time, never change the outcome.
    pub(crate) fn recovery_scan(&self, device: &FlashDevice) -> RecoveryScan {
        let planned = self
            .checkpoint
            .as_ref()
            .and_then(|ck| ck.plan_fast_scan(device));
        let fast_path = planned.is_some();
        let fallback = self.checkpoint.is_some() && !fast_path;
        match planned {
            Some(f) => {
                #[cfg(debug_assertions)]
                recovery::assert_same_image(
                    &f.scan.blocks,
                    &recovery::scan_device(device).blocks,
                    "fast-path image",
                );
                RecoveryScan {
                    scan: f.scan,
                    fast_path,
                    fallback,
                    journal_replayed: f.journal_replayed,
                    blocks_rescanned: f.blocks_rescanned,
                    cycles_saved: f.cycles_saved,
                }
            }
            None => RecoveryScan {
                scan: recovery::scan_device(device),
                fast_path,
                fallback,
                journal_replayed: 0,
                blocks_rescanned: 0,
                cycles_saved: Cycle::ZERO,
            },
        }
    }

    /// The end of a recovery, once the FTL has rebuilt its mapping from
    /// `rs`: reclaim the `dead` (unreferenced) blocks — erases start when
    /// the scan finishes — rebuild the block allocator from what the scan
    /// and the reclaim learned, and restart every subsystem's volatile
    /// state.
    /// `referenced` counts the blocks the mapping kept; `stale_dropped`
    /// the scanned copies it outranked.
    pub(crate) fn finish_recovery<'a>(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        rs: &'a RecoveryScan,
        dead: impl IntoIterator<Item = &'a ScannedBlock>,
        referenced: u64,
        stale_dropped: u64,
    ) -> Result<RecoveryReport> {
        let scan = &rs.scan;
        let start = now + scan.base_cycles;
        let reclaim = recovery::reclaim_dead(device, dead, start)?;
        let next_fresh = scan.blocks.last().map(|b| b.idx + 1).unwrap_or(0);
        // Deferred checkpoint blocks are still occupied until the next
        // checkpoint tick erases them, so they count as allocated.
        let allocator = BlockAllocator::rebuild(
            device.geometry().total_blocks() as u64,
            self.allocator.policy(),
            next_fresh,
            referenced + reclaim.deferred.len() as u64,
            reclaim.retired,
            reclaim.recycled,
        );
        // Only retirements discovered by this recovery count as new; the
        // rest were already charged when they happened.
        self.blocks_retired += reclaim.retired.saturating_sub(self.allocator.retired());
        self.allocator = allocator;
        self.stale_ckpt = reclaim.deferred;
        if let Some(rain) = self.rain.as_mut() {
            // Open-stripe parity lived in SRAM (lost with power) and
            // flushed parity blocks were reclaimed by the scan just now:
            // stripes restart empty.
            rain.reset_after_recovery();
        }
        if let Some(st) = self.endurance.as_mut() {
            st.reset_after_recovery();
        }
        if let Some(h) = self.health.as_mut() {
            h.reset_after_recovery();
        }
        self.icounters.quarantined += scan.corrupt;
        if let Some(ck) = self.checkpoint.as_mut() {
            ck.reset_after_recovery();
        }
        Ok(RecoveryReport {
            pages_scanned: scan.pages_scanned,
            torn_discarded: scan.torn,
            stale_dropped,
            blocks_erased: reclaim.erased,
            corrupt_quarantined: scan.corrupt,
            scan_cycles: reclaim.done.max(start) - now,
            fast_path: rs.fast_path,
            fallback: rs.fallback,
            journal_replayed: rs.journal_replayed,
            blocks_rescanned: rs.blocks_rescanned,
            cycles_saved: rs.cycles_saved,
        })
    }
}

/// The mapping primitives each FTL supplies to the shared maintenance
/// steps. Crate-private: the trait is public only so [`Ftl`] can name it
/// as its supertrait, and lives in a private module so nothing outside
/// this crate can call or implement it.
pub trait Primitives {
    /// The shared reliability state.
    fn core(&self) -> &FtlCore;

    /// The shared reliability state, mutably.
    fn core_mut(&mut self) -> &mut FtlCore;

    /// Rewrites `key`, currently at `src`, onto a fresh location through
    /// the FTL's normal write path (a scrub rewrite).
    fn rewrite_page(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        src: FlashAddr,
        key: u64,
    ) -> Result<Cycle>;

    /// Refreshes block `addr`, which crossed its `reason` threshold:
    /// migrates its live data to fresh cells and erases it, counting the
    /// refresh. Returns when the media work completes, or `None` when the
    /// step is skipped without pacing.
    fn refresh_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: BlockAddr,
        reason: RefreshReason,
    ) -> Result<Option<Cycle>>;

    /// One static-levelling migration of the coldest victim onto the
    /// most-worn spare (the recycled pool is known non-empty).
    fn level_block(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle>;

    /// Migrates one victim's live data off a quarantined die. `None` when
    /// nothing live remains on any quarantined die; otherwise the
    /// completion time and the pages moved.
    fn evacuate_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
    ) -> Option<Result<(Cycle, u64)>>;

    /// Stops writes from landing on a freshly dead die (redundancy is
    /// on); returns when any emergency relocation completes.
    fn fence_writers(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle>;

    /// Moves every logical page stranded on a dead die onto healthy
    /// blocks, reconstructing each from its stripe (redundancy is on).
    /// Stops early, keeping the partial progress, when the spare pool
    /// runs dry. Returns the completion time and the pages rebuilt.
    fn rebuild_lost(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<(Cycle, u64)>;
}

/// A completed write and any garbage collection it triggered.
#[derive(Debug, Clone, Default)]
pub struct WriteResult {
    /// When the write retires from the writer's perspective.
    pub done: Cycle,
    /// A log-block merge that ran to make room ([`crate::ZngFtl`] only;
    /// [`crate::PageMapFtl`] collects inside the write's own latency).
    pub gc: Option<GcReport>,
    /// The flash registers' thrashing-checker verdict (ZnG's buffered
    /// write mode only) — the trigger for ZnG's pinned-L2 write
    /// redirection.
    pub thrashing: bool,
}

/// The whole contract of a flash translation layer, implemented by
/// [`crate::PageMapFtl`] and [`crate::ZngFtl`]: the demand path (read,
/// write, power-loss recovery and lookup), the subsystem controls and
/// counters, and the background maintenance steps.
///
/// Each FTL implements the demand path; everything else is written once
/// here. Callers that hold a concrete FTL (the platform backends and SSD
/// models) dispatch the demand path statically; maintenance and
/// subsystem setup may go through `dyn Ftl`. This trait is object-safe
/// and sealed: only this crate implements it.
pub trait Ftl: Primitives {
    /// Reads logical page `key`, delivering `bytes` to the controller;
    /// returns when the data arrives. A page never written reads the
    /// workload's initial dataset, installed on first touch. With
    /// integrity on, a payload whose checksum fails is reconstructed
    /// from its stripe and healed, or fails with
    /// [`Error::IntegrityViolation`] without redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors; an end-of-life
    /// allocation failure becomes [`Error::CapacityDegraded`] with
    /// endurance management on. Under a bounded queue configuration a
    /// saturated [`crate::ZngFtl`] channel rejects the read with
    /// [`Error::Backpressure`] before touching the media.
    fn read(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        key: u64,
        bytes: usize,
    ) -> Result<Cycle>;

    /// Writes logical page `key`: a whole page on [`crate::PageMapFtl`],
    /// one 128 B sector on [`crate::ZngFtl`]. A program that fails
    /// verification is re-driven elsewhere, and the superseded copy is
    /// invalidated only once the new one verifies, so a failure never
    /// strands acknowledged data.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors; an end-of-life
    /// allocation failure becomes [`Error::CapacityDegraded`] with
    /// endurance management on. Under a bounded queue configuration a
    /// saturated [`crate::ZngFtl`] log-home channel rejects the write
    /// with [`Error::Backpressure`] before any state changes, so a
    /// rejected write can simply be retried.
    fn write(&mut self, now: Cycle, device: &mut FlashDevice, key: u64) -> Result<WriteResult>;

    /// Rebuilds the mapping after a power loss purely from the device's
    /// out-of-band metadata: per logical page the newest intact copy
    /// wins, torn pages are discarded, unreferenced blocks are erased
    /// back into the free pool and the allocator is re-derived. With
    /// checkpointing on, a verified checkpoint plus its journal tail
    /// replaces the full scan and rebuilds the same state. Deterministic
    /// and idempotent: scanning the same media twice rebuilds the same
    /// mapping.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors from the dead-block reclaim.
    fn recover(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<RecoveryReport>;

    /// Where logical page `key` lives now, if it is mapped. Charges no
    /// time and allocates nothing.
    fn locate(&self, key: u64) -> Option<FlashAddr>;

    /// Installs (or clears) the one pacing contract of the background
    /// steps: a scrub, refresh, checkpoint or health step — and, on
    /// [`crate::ZngFtl`], a log-block merge — stalls the foreground no
    /// longer than the stall budget and counts an overrun when its media
    /// work runs longer. `None` blocks for the whole step.
    fn set_pacing(&mut self, contract: Option<GcPacing>) {
        self.core_mut().pacing = contract;
    }

    /// Enables (or disables) RAIN redundancy: superblocks reserve one
    /// rotating parity member, uncorrectable reads reconstruct from
    /// surviving stripe members, and the patrol scrub / die-failure
    /// machinery activates. Enable before the first write: stripes only
    /// protect pages programmed while redundancy is on.
    fn set_redundancy(&mut self, device: &FlashDevice, config: Option<RainConfig>) {
        self.core_mut().rain = config.map(|c| RainState::new(device, c));
    }

    /// The redundancy state, when enabled.
    fn redundancy(&self) -> Option<&RainState> {
        self.core().rain.as_ref()
    }

    /// Enables (or disables) end-to-end payload verification: every
    /// host-facing read checks the page's OOB checksum and escalates on a
    /// mismatch (re-read → stripe reconstruction → fail loudly).
    fn set_integrity(&mut self, enabled: bool) {
        self.core_mut().integrity = enabled;
    }

    /// Whether end-to-end payload verification is enabled.
    fn integrity_enabled(&self) -> bool {
        self.core().integrity
    }

    /// Event counters of the integrity layer.
    fn integrity_counters(&self) -> IntegrityCounters {
        self.core().icounters
    }

    /// Installs (or clears) the endurance policy: the refresh scheduler,
    /// the static wear leveler and graceful end-of-life capacity
    /// degradation activate together. `None` keeps the hard
    /// [`Error::DeviceWornOut`] cliff.
    fn set_endurance(&mut self, policy: Option<RefreshPolicy>) {
        self.core_mut().endurance = policy.map(EnduranceState::new);
    }

    /// Event counters of the endurance subsystem, when enabled.
    fn endurance_counters(&self) -> Option<EnduranceCounters> {
        self.core().endurance.as_ref().map(|s| s.counters)
    }

    /// Installs (or clears) mapping checkpoints + the delta journal.
    /// `None` allocates no checkpoint blocks, and recovery always runs
    /// the full OOB scan.
    fn set_checkpointing(&mut self, config: Option<CheckpointConfig>) {
        self.core_mut().checkpoint = config.map(CheckpointState::new);
    }

    /// Event counters of the checkpoint subsystem, when enabled.
    fn checkpoint_counters(&self) -> Option<CheckpointCounters> {
        self.core().checkpoint.as_ref().map(|ck| ck.counters)
    }

    /// Installs (or clears) the predictive health policy: per-die scoring,
    /// suspect quarantine, pre-emptive evacuation and rehabilitation
    /// activate together.
    fn set_health(&mut self, policy: Option<HealthPolicy>) {
        self.core_mut().health = policy.map(HealthState::new);
    }

    /// Event counters of the health subsystem, when enabled.
    fn health_counters(&self) -> Option<HealthCounters> {
        self.core().health.as_ref().map(|h| h.counters)
    }

    /// The currently quarantined dies, sorted; empty when health is off.
    fn quarantined_dies(&self) -> Vec<(u16, u16)> {
        self.core()
            .health
            .as_ref()
            .map(|h| h.quarantined())
            .unwrap_or_default()
    }

    /// Garbage collections performed.
    fn gcs(&self) -> u64 {
        self.core().gcs
    }

    /// Blocks permanently retired after failed programs/erases.
    fn blocks_retired(&self) -> u64 {
        self.core().blocks_retired
    }

    /// Writes re-driven to a new location after a program failure.
    fn write_redrives(&self) -> u64 {
        self.core().write_redrives
    }

    /// Free blocks (fresh + recycled) in the allocator's pool.
    fn free_blocks(&self) -> u64 {
        self.core().allocator.free()
    }

    /// One background checkpoint write, run between demand requests:
    /// flush the journal tail, serialise the mapping image into
    /// checkpoint blocks, commit, and erase the superseded epoch. Media
    /// failures abort the write (the previous epoch stays in force)
    /// rather than surfacing — the checkpoint is an accelerator, never a
    /// correctness dependency. Returns when the foreground may resume,
    /// capped by the configured pacing budget.
    fn checkpoint_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Cycle {
        let core = self.core_mut();
        let Some(mut ck) = core.checkpoint.take() else {
            return now;
        };
        let done = checkpoint::write_checkpoint(&mut ck, core, device, now);
        let resumed = pace(core.pacing, now, done, &mut ck.counters.overruns);
        core.checkpoint = Some(ck);
        resumed
    }

    /// One patrol-scrub step, run between demand requests: sense the
    /// next live page and rewrite it when its retry depth reached the
    /// scrub threshold, the sense needed the stripe outright, or (with
    /// integrity on) its checksum fails. A corrupt page is rewritten from
    /// a clean stripe reconstruction — rewriting the sensed payload would
    /// just copy the corruption along. The foreground stall is capped by
    /// the configured pacing budget; the media work always completes. A
    /// no-op without redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors.
    fn scrub_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let Some(rain) = self.core_mut().rain.as_mut() else {
            return Ok(now);
        };
        let Some((addr, key)) = rain.scrub_scan(device) else {
            return Ok(now);
        };
        let page_bytes = device.geometry().page_bytes;
        let retries_before = device.stats().read_retries();
        let unc_before = device.stats().uncorrectable_reads();
        let core = self.core_mut();
        let mut t = core.retried_read(device, now, addr, key, page_bytes)?;
        let depth = device.stats().read_retries() - retries_before;
        let strained = device.stats().uncorrectable_reads() > unc_before;
        let corrupt = core.integrity && device.page_is_corrupt(addr);
        let rain = core.rain.as_mut().expect("checked above");
        let config = rain.config();
        rain.scrub_scanned += 1;
        if (depth >= config.scrub_threshold as u64 || strained || corrupt)
            && self.locate(key) == Some(addr)
        {
            if corrupt {
                let core = self.core_mut();
                core.icounters.detected += 1;
                t = core.reconstruct(t, device, addr, page_bytes)?;
                core.icounters.reconstructed += 1;
                core.icounters.quarantined += 1;
            }
            t = self.rewrite_page(t, device, addr, key)?;
            self.core_mut()
                .rain
                .as_mut()
                .expect("checked above")
                .scrub_rewrites += 1;
        }
        let core = self.core_mut();
        let rain = core.rain.as_mut().expect("checked above");
        let capped = pace(core.pacing, now, t, &mut rain.scrub_overruns);
        core.ckpt_sync(t, device);
        Ok(capped)
    }

    /// One endurance step, run between demand requests: walk the refresh
    /// cursor and relocate the first block whose disturb count or
    /// retention age crossed its threshold (verified reads → re-program →
    /// remap → erase, which resets both clocks); with no refresh
    /// candidate, run one static-levelling migration when the device
    /// wear spread exceeds the configured ratio. The foreground stall is
    /// capped by the configured pacing budget; the media work always
    /// completes. A no-op without an endurance policy.
    ///
    /// At end of life a step that cannot allocate a destination block is
    /// skipped, not surfaced — the data is no safer anywhere else, the
    /// mapping stays consistent, and capacity degradation is the write
    /// path's to report.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors.
    fn refresh_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let Some(st) = self.core_mut().endurance.as_mut() else {
            return Ok(now);
        };
        let moved = if let Some((addr, reason)) = st.scan_candidate(device, now) {
            match self.refresh_block(now, device, addr, reason) {
                Ok(Some(done)) => Ok(done),
                Ok(None) => return Ok(now),
                Err(e) => Err(e),
            }
        } else if st.wants_levelling(device) {
            // A fresh block has zero wear: migrating cold data onto one
            // would widen the spread, so levelling waits for recycled
            // destinations.
            if self.core().allocator.recycled_available() == 0 {
                Ok(now)
            } else {
                self.level_block(now, device)
            }
        } else {
            return Ok(now);
        };
        let done = match moved {
            Ok(done) => done,
            Err(Error::DeviceWornOut { .. }) => now,
            Err(e) => return Err(e),
        };
        let core = self.core_mut();
        let st = core.endurance.as_mut().expect("checked above");
        let paced = pace(core.pacing, now, done, &mut st.counters.refresh_overruns);
        core.ckpt_sync(done, device);
        Ok(paced)
    }

    /// One predictive-health step, run between demand requests: advance
    /// the degrading-die clock, fence + rebuild any die that died since
    /// the last tick (once per death), score the per-die telemetry
    /// (flagging new suspects into quarantine and rehabilitating false
    /// positives, whose parked blocks rejoin the pool), and — when
    /// evacuation is on — migrate one victim's live data off a suspect
    /// die onto healthy spares. The migrations reuse the GC / refresh
    /// machinery, so they are journalled, checkpoint-aware and never
    /// launder corrupt pages. The foreground stall is capped by the
    /// configured pacing budget; the media work always completes. A no-op
    /// without a health policy.
    ///
    /// A step that cannot allocate a destination (no healthy spares) is
    /// skipped, not surfaced: the data is no safer anywhere else and a
    /// later step retries.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors.
    fn health_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        if self.core().health.is_none() {
            return Ok(now);
        }
        // A quiet device never reaches its own lazy death check: advance
        // the degrading-die clock here so the monitor sees the death.
        device.degrade_tick(now);
        let mut t = now;

        // Dies that died since the last tick: fence + rebuild, once each.
        let newly_dead: Vec<(u16, u16)> = device
            .dead_dies()
            .iter()
            .copied()
            .filter(|&key| self.core_mut().health_mut().note_dead(key))
            .collect();
        for _ in newly_dead {
            t = self.fence_dead_die(t, device)?;
            let (done, _pages) = self.rebuild_dead_die(t, device)?;
            t = done;
        }

        // Score the telemetry; rehabilitated dies get their parked
        // blocks back (with their real wear, for levelling).
        let snapshot = device.stats().die_health_sorted();
        let dead: Vec<(u16, u16)> = device.dead_dies().to_vec();
        let rehabbed = self.core_mut().health_mut().observe(&snapshot, &dead);
        for key in rehabbed {
            let parked = self.core_mut().health_mut().unpark(key);
            for idx in parked {
                let wear = device
                    .geometry()
                    .block_for_index(idx)
                    .ok()
                    .and_then(|a| device.block(a))
                    .map(|b| b.erase_count())
                    .unwrap_or(0);
                self.core_mut().allocator.release(idx, wear);
            }
        }

        if self.core_mut().health_mut().policy.evacuate {
            match self.evacuate_block(t, device) {
                Some(Ok((done, pages))) => {
                    self.core_mut().health_mut().note_evacuated(pages);
                    t = done;
                }
                Some(Err(Error::DeviceWornOut { .. } | Error::OutOfSpace)) => {}
                Some(Err(e)) => return Err(e),
                None => {
                    // Nothing live remains on any quarantined die: its
                    // eventual death can no longer cost a single read.
                    let h = self.core_mut().health_mut();
                    for key in h.quarantined() {
                        h.mark_evacuated(key);
                    }
                }
            }
        }
        let core = self.core_mut();
        let paced = pace(
            core.pacing,
            now,
            t,
            &mut core.health_mut().counters.evacuation_overruns,
        );
        core.ckpt_sync(t, device);
        Ok(paced)
    }

    /// Fences a freshly failed die so no new write lands on it; the data
    /// already there stays mapped and degraded — its reads reconstruct
    /// from the stripe — until [`Ftl::rebuild_dead_die`] migrates it.
    /// Returns when any emergency relocation completes; a no-op without
    /// redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors, and
    /// [`Error::UncorrectableRead`] when a stripe has lost a second
    /// member.
    fn fence_dead_die(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        if self.core().rain.is_none() {
            return Ok(now);
        }
        self.fence_writers(now, device)
    }

    /// Migrates every logical page lost to a dead die onto healthy
    /// blocks: each is reconstructed from its surviving stripe members
    /// and re-programmed, after which reads stop paying the
    /// reconstruction fan-out. A spare pool that runs dry stops the
    /// rebuild with its partial progress; the pages left behind stay
    /// mapped and degraded. Returns the completion time and the pages
    /// rebuilt; a no-op without redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors, and
    /// [`Error::UncorrectableRead`] when a stripe has lost a second
    /// member.
    fn rebuild_dead_die(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<(Cycle, u64)> {
        if self.core().rain.is_none() {
            return Ok((now, 0));
        }
        let (t, pages) = self.rebuild_lost(now, device)?;
        let core = self.core_mut();
        core.rain.as_mut().expect("checked above").rebuild_pages += pages;
        core.ckpt_sync(t, device);
        Ok((t, pages))
    }
}
