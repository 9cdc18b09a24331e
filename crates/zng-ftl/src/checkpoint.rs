//! Mapping checkpoints and the delta journal: bounded-time crash
//! recovery.
//!
//! The full-device OOB scan ([`crate::recovery`]) rebuilds every mapping
//! structure from media truth, but its cost grows linearly with device
//! size. This module bounds recovery time the way zoned flash caches do:
//! a background writer periodically serialises the mapping state into
//! reserved [`BlockKind::Checkpoint`] blocks (a *checkpoint*), and every
//! map mutation between checkpoints appends a record to a write-ahead
//! *journal* in the same block namespace. Recovery then loads the newest
//! verified checkpoint, replays the journal tail, and re-scans only the
//! blocks touched since the checkpoint stamp.
//!
//! # The trust model
//!
//! The checkpoint is never a trusted-metadata shortcut:
//!
//! * checkpoint and journal pages are programmed through the
//!   program-and-verify path (non-demand, like GC migrations): the
//!   writer confirms each page on media before chaining the next, so a
//!   power cut never leaves a *torn* checkpoint page — the discipline an
//!   enterprise controller buys with power-loss-protection capacitors;
//! * the fast path is taken only when the commit page, every payload
//!   page, and every journal page verify on media (present, checkpoint
//!   tag, expected key, not torn, not corrupt) and the journal has no
//!   gap;
//! * anything else falls back to the full scan — gracefully degraded,
//!   never silently wrong;
//! * debug and property builds additionally cross-check that the
//!   fast-path image equals a full scan of the same media, bit for bit.
//!
//! # What a checkpoint contains
//!
//! The serialised state is the per-block media image the recovery scan
//! would have produced: every block's intact OOB records plus its
//! programmed/erase/failure status, and the set of *open* blocks (kind
//! assigned and not yet full, or holding in-flight demand programs).
//! Between checkpoints the journal records which blocks were touched
//! (opened, erased, retired) — critical records, flushed write-ahead —
//! and which logical pages were remapped (batched, loss-tolerant: a
//! remap's own OOB record is rediscovered by the rescan). At recovery
//! the touched set plus the open set is exactly the set of blocks whose
//! media may differ from the checkpointed image; everything else is
//! restored from the checkpoint without a scan.
//!
//! # How a capture is built
//!
//! The writer trusts the same set between two of its own captures: a
//! capture is the previous epoch's images with that *rescan set*
//! re-imaged from media and dead-die blocks dropped. Unchanged block
//! images are shared between epochs (`Arc`), so a capture copies no OOB
//! records and costs the blocks that changed, not the device. With no
//! epoch yet, an invalidated epoch or an overflowed journal the writer
//! scans the whole device instead, and debug builds check every capture
//! against that full scan.

use std::collections::BTreeSet;
use std::sync::Arc;

use zng_flash::{BlockKind, FlashDevice, PageOob};
use zng_types::{BlockAddr, Cycle, FlashAddr, Result};

use crate::maint::FtlCore;
use crate::rain::Claim;
use crate::recovery::{self, Scan, ScannedBlock, OOB_SCAN_CYCLES_PER_PAGE};

/// Synthetic OOB key namespace for checkpoint and journal pages, outside
/// the logical space (like [`crate::rain`]'s parity key base, one bit
/// lower so the two namespaces never collide).
pub(crate) const CHECKPOINT_KEY_BASE: u64 = 1 << 61;

/// Mapping-table entries serialised per checkpoint payload page.
pub const CKPT_ENTRIES_PER_PAGE: u64 = 256;

/// Journal records packed per journal page.
pub const JOURNAL_RECORDS_PER_PAGE: usize = 128;

/// Modelled cost of loading one checkpoint or journal page at recovery
/// (a full-page read into controller SRAM, cheaper than a demand read's
/// transfer but dearer than an OOB sense). The allocator stripes the
/// epoch's blocks across the device, so loads on different channels
/// overlap: the recovery charge is this per page of the *deepest
/// channel's* share of the load.
pub const CKPT_LOAD_CYCLES_PER_PAGE: Cycle = Cycle(1_500);

/// Modelled cost of replaying one journal record against the loaded
/// tables.
pub const JOURNAL_REPLAY_CYCLES_PER_RECORD: Cycle = Cycle(24);

/// Checkpoint subsystem configuration. Checkpointing is on while an FTL
/// holds one (see [`crate::Ftl::set_checkpointing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Journal records retained between checkpoints before the epoch is
    /// declared overflowed (its fast path falls back to the full scan
    /// until the next checkpoint). Zero means unbounded.
    pub journal_cap: u64,
}

/// Event counters of the checkpoint subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointCounters {
    /// Checkpoints committed.
    pub checkpoints: u64,
    /// Checkpoint payload + commit pages programmed.
    pub checkpoint_pages: u64,
    /// Journal records appended.
    pub journal_records: u64,
    /// Journal pages programmed.
    pub journal_pages: u64,
    /// Checkpoint writes that outlived their pacing deadline.
    pub overruns: u64,
    /// Epochs whose journal outgrew `journal_cap` (fast path disabled
    /// until the next checkpoint).
    pub journal_overflows: u64,
    /// Checkpoint writes aborted by media failures or pool exhaustion
    /// (the previous epoch stays in force).
    pub aborted: u64,
}

/// One delta-journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JournalRecord {
    /// A block was opened, erased, retired, or otherwise mutated outside
    /// its OOB records: recovery must re-scan it. Critical — flushed
    /// write-ahead before the owning operation acknowledges.
    Touched { idx: u64 },
    /// A logical page was remapped (demand write, GC merge, refresh,
    /// rebuild, levelling). Batched and loss-tolerant: the rescan of the
    /// touched destination block rediscovers the mapping from OOB.
    Remap { lpn: u64 },
}

impl JournalRecord {
    fn critical(&self) -> bool {
        matches!(self, JournalRecord::Touched { .. })
    }
}

/// A checkpoint or journal page's location and expected key on media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MediaPage {
    addr: BlockAddr,
    page: u32,
    key: u64,
}

/// One committed checkpoint epoch.
#[derive(Debug, Clone)]
struct Epoch {
    /// Per-block media images at capture time, in ascending index order;
    /// an image a later capture finds unchanged is shared with it.
    images: Vec<Arc<ScannedBlock>>,
    /// Blocks that could still change without journal evidence: kind
    /// assigned and not full, or holding in-flight demand programs.
    open: BTreeSet<u64>,
    /// When the images were captured.
    captured_at: Cycle,
    /// Serialised payload pages, verified at recovery.
    payload: Vec<MediaPage>,
    /// The generation-stamped commit page, programmed last: torn ⇒ the
    /// whole epoch is invalid.
    commit: MediaPage,
}

/// What the fast path would scan and rebuild, plus its accounting.
pub(crate) struct FastScan {
    pub scan: Scan,
    pub journal_replayed: u64,
    pub blocks_rescanned: u64,
    pub cycles_saved: Cycle,
}

/// Checkpoint writer + journal state, owned by an FTL.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointState {
    config: CheckpointConfig,
    pub(crate) counters: CheckpointCounters,
    /// Generation stamp of the current epoch (0 = none committed yet).
    generation: u64,
    /// Monotonic key suffix within [`CHECKPOINT_KEY_BASE`].
    key_seq: u64,
    epoch: Option<Epoch>,
    /// Journal records of the current epoch, in append order.
    journal: Vec<JournalRecord>,
    /// Records `journal[..flushed]` are covered by flushed pages.
    flushed: usize,
    /// One past the newest critical record (flush urgency watermark).
    critical_high: usize,
    /// Flushed journal pages with the record range each one covers.
    journal_pages: Vec<(MediaPage, usize)>,
    /// The checkpoint-namespace block currently taking appends.
    cur_block: Option<(BlockAddr, u64)>,
    /// Checkpoint-namespace blocks whose media postdates the current
    /// epoch's capture: always re-scanned by the fast path.
    epoch_blocks: Vec<u64>,
    /// Parity claims made while allocating checkpoint blocks during the
    /// current checkpoint write (re-journalled after the commit resets
    /// the journal).
    step_touched: Vec<u64>,
    /// Cleared when a checkpoint or journal program fails: the epoch can
    /// no longer be trusted and recovery falls back to the full scan.
    valid: bool,
    overflowed: bool,
    last_now: Cycle,
}

impl CheckpointState {
    pub(crate) fn new(config: CheckpointConfig) -> CheckpointState {
        CheckpointState {
            config,
            counters: CheckpointCounters::default(),
            generation: 0,
            key_seq: 0,
            epoch: None,
            journal: Vec::new(),
            flushed: 0,
            critical_high: 0,
            journal_pages: Vec::new(),
            cur_block: None,
            epoch_blocks: Vec::new(),
            step_touched: Vec::new(),
            valid: true,
            overflowed: false,
            last_now: Cycle::ZERO,
        }
    }

    /// Advances the journal clock (flushes issued at unknown call sites
    /// use the newest time any FTL entry point reported).
    pub(crate) fn tick(&mut self, now: Cycle) {
        self.last_now = self.last_now.max(now);
    }

    fn append(&mut self, rec: JournalRecord) {
        if self.epoch.is_none() || self.overflowed {
            return;
        }
        if self.config.journal_cap > 0 && self.journal.len() as u64 >= self.config.journal_cap {
            self.overflowed = true;
            self.counters.journal_overflows += 1;
            return;
        }
        self.journal.push(rec);
        self.counters.journal_records += 1;
        if rec.critical() {
            self.critical_high = self.journal.len();
        }
    }

    /// Notes a block whose media changed outside its own OOB appends
    /// (opened, erased, retired): the fast path must re-scan it.
    pub(crate) fn note_touched(&mut self, idx: u64) {
        self.append(JournalRecord::Touched { idx });
    }

    /// Notes a logical-page remap (batched, loss-tolerant).
    pub(crate) fn note_remap(&mut self, lpn: u64) {
        self.append(JournalRecord::Remap { lpn });
    }

    /// Whether unflushed records warrant a journal page now: any pending
    /// critical record, or a full batch of remaps.
    pub(crate) fn flush_ready(&self) -> bool {
        self.epoch.is_some()
            && self.valid
            && !self.overflowed
            && (self.critical_high > self.flushed
                || self.journal.len() - self.flushed >= JOURNAL_RECORDS_PER_PAGE)
    }

    fn next_key(&mut self) -> u64 {
        self.key_seq += 1;
        CHECKPOINT_KEY_BASE + self.key_seq
    }

    fn fail_epoch(&mut self) {
        if self.valid {
            self.counters.aborted += 1;
        }
        self.valid = false;
    }

    /// Drops all checkpoint bookkeeping after a crash recovery: the
    /// rebuilt state supersedes every epoch, and the recovery reclaim
    /// erased the checkpoint blocks along with the other dead blocks.
    /// Counters, generation, and the key stream survive.
    pub(crate) fn reset_after_recovery(&mut self) {
        self.epoch = None;
        self.journal.clear();
        self.flushed = 0;
        self.critical_high = 0;
        self.journal_pages.clear();
        self.cur_block = None;
        self.epoch_blocks.clear();
        self.step_touched.clear();
        self.valid = true;
        self.overflowed = false;
    }

    /// The blocks whose media may differ from `ep`'s images: those open
    /// at its capture, the checkpoint blocks written since, and every
    /// block `records` journal `Touched`.
    fn rescan_set(&self, ep: &Epoch, records: &[JournalRecord]) -> BTreeSet<u64> {
        let mut rescan = ep.open.clone();
        rescan.extend(self.epoch_blocks.iter().copied());
        rescan.extend(records.iter().filter_map(|rec| match *rec {
            JournalRecord::Touched { idx } => Some(idx),
            JournalRecord::Remap { .. } => None,
        }));
        rescan
    }

    /// The media image a checkpoint written at `now` serialises, and its
    /// open set: the previous epoch's images with the rescan set
    /// re-imaged, or a full-device scan when there is no trusted epoch
    /// to start from (none yet, invalidated, overflowed journal).
    fn capture(&self, device: &FlashDevice, now: Cycle) -> (Vec<Arc<ScannedBlock>>, BTreeSet<u64>) {
        let prev = self
            .epoch
            .as_ref()
            .filter(|ep| self.valid && !self.overflowed && ep.captured_at <= now);
        let (images, open) = match prev {
            Some(ep) => {
                let rescan = self.rescan_set(ep, &self.journal);
                let fresh = recovery::scan_blocks(device, rescan.iter().copied()).blocks;
                // A block outside the rescan set was not open at the last
                // capture and nothing touched it since, so it is not open
                // now either.
                let open = open_blocks(device, &fresh, now);
                (merge_images(device, &ep.images, &rescan, fresh), open)
            }
            None => {
                let blocks = recovery::scan_device(device).blocks;
                let open = open_blocks(device, &blocks, now);
                (blocks.into_iter().map(Arc::new).collect(), open)
            }
        };
        #[cfg(debug_assertions)]
        {
            let full = recovery::scan_device(device).blocks;
            recovery::assert_same_image(images.iter().map(|b| &**b), &full, "checkpoint capture");
            debug_assert_eq!(
                open,
                open_blocks(device, &full, now),
                "a capture's open set must equal the full scan's"
            );
        }
        (images, open)
    }

    /// Plans the fast-path recovery scan, or `None` when the fallback
    /// ladder demands the full scan: no committed epoch, an invalidated
    /// or overflowed epoch, an unflushed critical record, or any
    /// checkpoint/journal page failing media verification.
    pub(crate) fn plan_fast_scan(&self, device: &FlashDevice) -> Option<FastScan> {
        let ep = self.epoch.as_ref()?;
        if !self.valid || self.overflowed || self.critical_high > self.flushed {
            return None;
        }
        for mp in ep.payload.iter().chain(std::iter::once(&ep.commit)) {
            if !page_intact(device, mp) {
                return None;
            }
        }
        let mut replayed = 0u64;
        for (mp, end) in &self.journal_pages {
            if !page_intact(device, mp) {
                return None;
            }
            replayed = *end as u64;
        }
        let rescan = self.rescan_set(ep, &self.journal[..self.flushed]);
        let mut sub = recovery::scan_blocks(device, rescan.iter().copied());
        let blocks_rescanned = sub.blocks.len() as u64;
        let fresh = std::mem::take(&mut sub.blocks);
        let blocks: Vec<ScannedBlock> = merge_images(device, &ep.images, &rescan, fresh)
            .into_iter()
            .map(Arc::unwrap_or_clone)
            .collect();
        let torn: u64 = blocks.iter().map(|b| b.torn as u64).sum();
        let corrupt: u64 = blocks.iter().map(|b| b.corrupt as u64).sum();
        let load_pages = (ep.payload.len() + 1 + self.journal_pages.len()) as u64;
        // Checkpoint blocks are allocator-striped across channels, so the
        // load runs channel-parallel; the wall time is the deepest
        // channel's share.
        let channels = device.geometry().channels as u64;
        let load_depth = load_pages.div_ceil(channels);
        let base = Cycle(
            CKPT_LOAD_CYCLES_PER_PAGE.0 * load_depth
                + JOURNAL_REPLAY_CYCLES_PER_RECORD.0 * replayed
                + sub.base_cycles.0,
        );
        let full_estimate =
            Cycle(OOB_SCAN_CYCLES_PER_PAGE.0 * recovery::busiest_plane_pages(&blocks));
        Some(FastScan {
            scan: Scan {
                blocks,
                pages_scanned: sub.pages_scanned,
                torn,
                corrupt,
                base_cycles: base,
            },
            journal_replayed: replayed,
            blocks_rescanned,
            cycles_saved: Cycle(full_estimate.0.saturating_sub(base.0)),
        })
    }
}

/// One array sense of `addr` through [`FlashDevice::read`]. A sense can
/// miscorrect the page (silent corruption injected on reads), which
/// changes the media image of a block that may be closed and untouched
/// since the last capture; the sense then journals the block `Touched`,
/// so the next capture and the recovery fast path rescan it. Without
/// checkpointing (`ck` is `None`) this is a plain read.
pub(crate) fn sense(
    ck: Option<&mut CheckpointState>,
    device: &mut FlashDevice,
    now: Cycle,
    addr: FlashAddr,
    key: u64,
    bytes: usize,
) -> Result<Cycle> {
    let Some(ck) = ck else {
        return device.read(now, addr, key, bytes);
    };
    let clean = !device.page_is_corrupt(addr);
    let r = device.read(now, addr, key, bytes);
    if clean && device.page_is_corrupt(addr) {
        ck.note_touched(device.geometry().index_for_block(addr.block));
    }
    r
}

/// Whether a checkpoint/journal page survives on media exactly as
/// written: readable die, written (not torn), checkpoint-tagged, the
/// expected key, and an intact payload checksum.
fn page_intact(device: &FlashDevice, mp: &MediaPage) -> bool {
    if device.die_is_dead(mp.addr.channel, mp.addr.die) {
        return false;
    }
    let Some(b) = device.block(mp.addr) else {
        return false;
    };
    if mp.page >= b.programmed_pages() {
        return false;
    }
    match b.oob(mp.page) {
        PageOob::Written(m) => {
            m.lpn == mp.key && m.tag == BlockKind::Checkpoint && !b.is_corrupt(mp.page)
        }
        _ => false,
    }
}

/// `images` with every block in `rescan` replaced by its `fresh` image
/// (ascending, as [`recovery::scan_blocks`] returns them) and dead-die
/// blocks dropped, in ascending index order. Unchanged images are shared,
/// not copied.
fn merge_images(
    device: &FlashDevice,
    images: &[Arc<ScannedBlock>],
    rescan: &BTreeSet<u64>,
    fresh: Vec<ScannedBlock>,
) -> Vec<Arc<ScannedBlock>> {
    let mut kept = images
        .iter()
        .filter(|b| !rescan.contains(&b.idx) && !device.die_is_dead(b.addr.channel, b.addr.die))
        .peekable();
    let mut fresh = fresh.into_iter().peekable();
    let mut out = Vec::with_capacity(images.len() + fresh.len());
    loop {
        let from_kept = match (kept.peek(), fresh.peek()) {
            (Some(k), Some(f)) => k.idx < f.idx,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return out,
        };
        if from_kept {
            out.extend(kept.next().cloned());
        } else {
            out.extend(fresh.next().map(Arc::new));
        }
    }
}

/// The set of blocks whose media can change without journal evidence:
/// kind assigned and not yet full, or still holding in-flight demand
/// programs (which a later power cut could tear).
fn open_blocks(device: &FlashDevice, images: &[ScannedBlock], now: Cycle) -> BTreeSet<u64> {
    images
        .iter()
        .filter(|b| {
            let Some(blk) = device.block(b.addr) else {
                return false;
            };
            blk.kind() != BlockKind::Free
                && (!b.full
                    || b.entries
                        .iter()
                        .any(|(_, m)| m.demand && m.programmed_at > now))
        })
        .map(|b| b.idx)
        .collect()
}

/// Allocates one checkpoint-namespace block through the standard
/// chokepoint discipline: parity-reserved indices are claimed (and
/// journalled touched), dead-die indices fenced. `None` on exhaustion —
/// the epoch fails, foreground traffic is never killed by the writer.
fn alloc_ckpt_block(
    ck: &mut CheckpointState,
    core: &mut FtlCore,
    device: &mut FlashDevice,
) -> Option<(BlockAddr, u64)> {
    let idx = loop {
        let idx = core.allocator.allocate().ok()?;
        match core.rain.as_mut() {
            Some(rain) => match rain.classify(device, idx).ok()? {
                Claim::Keep => break idx,
                Claim::Parity => {
                    // The claim postdates the epoch capture: the parity
                    // block must be re-scanned at recovery.
                    ck.note_touched(idx);
                    ck.step_touched.push(idx);
                }
                Claim::Fenced => core.allocator.retire(idx),
            },
            None => break idx,
        }
    };
    let addr = device.geometry().block_for_index(idx).ok()?;
    device.block_mut(addr).ok()?.set_kind(BlockKind::Checkpoint);
    ck.epoch_blocks.push(idx);
    ck.cur_block = Some((addr, idx));
    Some((addr, idx))
}

/// Programs one checkpoint/journal page at `t`, rolling to a fresh block
/// when the current one is full and retiring blocks that burn mid-write.
/// `None` fails the epoch (pool exhausted or a device error).
///
/// Checkpoint appends go through the program-and-verify path
/// (non-demand): the writer confirms each page before chaining the next
/// and before any dependent record is trusted, so a power cut never
/// leaves a *torn* checkpoint page — the fallback ladder is exercised by
/// corruption, dead dies, journal overflow and aborted epochs instead.
fn program_page(
    ck: &mut CheckpointState,
    core: &mut FtlCore,
    device: &mut FlashDevice,
    mut t: Cycle,
) -> Option<(MediaPage, Cycle)> {
    loop {
        let cur = match ck.cur_block {
            Some((addr, idx))
                if device
                    .block(addr)
                    .is_some_and(|b| !b.is_full() && !b.is_failed()) =>
            {
                (addr, idx)
            }
            _ => match alloc_ckpt_block(ck, core, device) {
                Some(c) => c,
                None => {
                    ck.fail_epoch();
                    return None;
                }
            },
        };
        let key = ck.next_key();
        match device.program_migrate(t, cur.0, key) {
            Ok(rep) if !rep.failed => {
                return Some((
                    MediaPage {
                        addr: cur.0,
                        page: rep.page,
                        key,
                    },
                    rep.done,
                ));
            }
            Ok(rep) => {
                // Burned mid-append: retire it and roll to another block
                // (it stays in `epoch_blocks`, so recovery re-scans it).
                core.allocator.retire(cur.1);
                core.blocks_retired += 1;
                ck.cur_block = None;
                t = rep.done;
            }
            Err(_) => {
                ck.fail_epoch();
                return None;
            }
        }
    }
}

/// Flushes pending journal records to media, one page per
/// [`JOURNAL_RECORDS_PER_PAGE`] batch, until no critical record and no
/// full batch remains. Returns when the last flush completes.
pub(crate) fn flush_journal(
    ck: &mut CheckpointState,
    core: &mut FtlCore,
    device: &mut FlashDevice,
    now: Cycle,
) -> Cycle {
    ck.tick(now);
    let mut t = ck.last_now;
    while ck.flush_ready() {
        let end = (ck.flushed + JOURNAL_RECORDS_PER_PAGE).min(ck.journal.len());
        match program_page(ck, core, device, t) {
            Some((mp, done)) => {
                ck.journal_pages.push((mp, end));
                ck.flushed = end;
                ck.counters.journal_pages += 1;
                t = done;
            }
            None => break,
        }
    }
    ck.tick(t);
    t
}

/// Writes a full checkpoint: flush the journal tail, capture the media
/// image, serialise it into payload pages, commit with a
/// generation-stamped page, then erase the superseded epoch's blocks
/// back into the pool. An aborted write (burn or exhaustion) leaves the
/// previous epoch in force. Returns when the write completes (the caller
/// applies the pacing cap).
///
/// The stale-checkpoint-block backlog a recovery deferred (see
/// [`crate::recovery`]) retires alongside the superseded epoch, off the
/// restore critical path.
pub(crate) fn write_checkpoint(
    ck: &mut CheckpointState,
    core: &mut FtlCore,
    device: &mut FlashDevice,
    now: Cycle,
) -> Cycle {
    ck.tick(now);
    let mut t = flush_journal(ck, core, device, now);
    let (images, open) = ck.capture(device, now);
    let entries: u64 =
        images.len() as u64 + images.iter().map(|b| b.entries.len() as u64).sum::<u64>();
    let pages = entries.div_ceil(CKPT_ENTRIES_PER_PAGE).max(1);
    let mut retiring = std::mem::take(&mut ck.epoch_blocks);
    retiring.append(&mut core.stale_ckpt);
    ck.cur_block = None;
    ck.valid = true;
    let mut payload = Vec::with_capacity(pages as usize);
    let mut ok = true;
    for _ in 0..pages {
        match program_page(ck, core, device, t) {
            Some((mp, done)) => {
                payload.push(mp);
                t = done;
            }
            None => {
                ok = false;
                break;
            }
        }
    }
    let commit = if ok {
        program_page(ck, core, device, t)
    } else {
        None
    };
    match commit {
        Some((mp, done)) => {
            t = done;
            ck.generation += 1;
            ck.counters.checkpoints += 1;
            ck.counters.checkpoint_pages += payload.len() as u64 + 1;
            ck.epoch = Some(Epoch {
                images,
                open,
                captured_at: now,
                payload,
                commit: mp,
            });
            ck.journal.clear();
            ck.flushed = 0;
            ck.critical_high = 0;
            ck.journal_pages.clear();
            ck.overflowed = false;
            // Parity claims made during this write postdate the capture:
            // re-journal them into the fresh epoch.
            for idx in std::mem::take(&mut ck.step_touched) {
                ck.note_touched(idx);
            }
            t = retire_old_blocks(ck, core, device, t, retiring);
            t = flush_journal(ck, core, device, t);
        }
        None => {
            // The previous epoch stays current; its fast path must
            // re-scan both its own blocks and the partial new ones.
            ck.epoch_blocks.extend(retiring);
            ck.step_touched.clear();
            t = flush_journal(ck, core, device, t);
        }
    }
    ck.tick(t);
    t
}

/// Erases the superseded epoch's checkpoint blocks back into the pool
/// (dead-die blocks are fenced, burned erases retire). Each retired
/// index is journalled `Touched` — the new epoch's image captured it
/// *before* the erase, so the fast path must re-scan it — and NOT put
/// back into `epoch_blocks`: that set is the next checkpoint's retiring
/// set, and once an index is released the foreground may re-allocate it
/// as a live data block (re-erasing it later would destroy data).
fn retire_old_blocks(
    ck: &mut CheckpointState,
    core: &mut FtlCore,
    device: &mut FlashDevice,
    start: Cycle,
    retiring: Vec<u64>,
) -> Cycle {
    let mut done = start;
    for idx in retiring {
        ck.note_touched(idx);
        let Ok(addr) = device.geometry().block_for_index(idx) else {
            continue;
        };
        if let Some(b) = device.block(addr) {
            // Burned mid-append: already retired (and charged) when the
            // program failed — never release it back into the pool.
            if b.is_failed() {
                continue;
            }
        }
        if device.die_is_dead(addr.channel, addr.die) {
            core.allocator.retire(idx);
            if let Some(rain) = core.rain.as_mut() {
                rain.fenced_blocks += 1;
            }
            continue;
        }
        let valid: Vec<u32> = device
            .block(addr)
            .map(|b| b.valid_page_indices().collect())
            .unwrap_or_default();
        for page in valid {
            device.invalidate(zng_types::FlashAddr::new(addr, page));
        }
        match device.erase(start, addr) {
            Ok(rep) => {
                done = done.max(rep.done);
                if rep.failed {
                    core.allocator.retire(idx);
                    core.blocks_retired += 1;
                } else {
                    let wear = device.block(addr).map(|b| b.erase_count()).unwrap_or(0);
                    core.allocator.release(idx, wear);
                }
            }
            Err(_) => {
                core.allocator.retire(idx);
                core.blocks_retired += 1;
            }
        }
    }
    done
}
