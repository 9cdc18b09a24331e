//! Crash recovery shared by both FTLs: the full-device OOB scan.
//!
//! A power loss destroys every volatile mapping structure — the DBMT in
//! the GPU MMU, the LBMT in shared memory, the row-decoder LPMTs, the
//! page-map table in SSD DRAM — but the flash arrays survive, and every
//! programmed page carries an out-of-band record written atomically with
//! its data: the logical page number, a device-wide monotonic program
//! stamp, and the block's role tag ([`zng_flash::OobMeta`]). Recovery is
//! therefore a scan: read every touched block's OOB area, resolve
//! duplicate logical pages by stamp (newest wins), discard torn pages,
//! and re-derive the free pool and per-block wear.

use std::collections::BTreeMap;

use zng_flash::{BlockKind, FlashDevice, OobMeta, PageOob};
use zng_types::{BlockAddr, Cycle, FlashAddr, Result};

/// Modelled cost of sensing one programmed page's OOB area during the
/// recovery scan. The spare bytes are a tiny fraction of the 4 KB page,
/// so an OOB sense is far cheaper than the 3 µs full-page read; planes
/// scan their own blocks in parallel, so the scan's wall time is the
/// busiest plane's chain.
pub const OOB_SCAN_CYCLES_PER_PAGE: Cycle = Cycle(450);

/// What a full-device recovery scan found and rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Programmed pages whose OOB records were scanned.
    pub pages_scanned: u64,
    /// Torn pages (programs interrupted by the power cut) discarded.
    pub torn_discarded: u64,
    /// Superseded page versions dropped in favour of a newer stamp.
    pub stale_dropped: u64,
    /// Dead blocks erased back into the free pool during recovery.
    pub blocks_erased: u64,
    /// Pages whose payload checksum failed verification during the scan:
    /// quarantined (never resurrected as winners), like torn pages. The
    /// logical page rolls back to its newest *intact* copy, if any.
    pub corrupt_quarantined: u64,
    /// Modelled duration of the scan plus dead-block reclaim, in device
    /// cycles; the platform blocks resumed apps for this long.
    pub scan_cycles: Cycle,
    /// Whether the checkpoint fast path rebuilt the state (checkpoint
    /// load + journal replay + touched-blocks rescan) instead of the
    /// full-device OOB scan.
    pub fast_path: bool,
    /// Whether checkpointing was enabled but the fast path had to fall
    /// back to the full scan (torn/missing checkpoint, torn journal
    /// page, or a journal overflow).
    pub fallback: bool,
    /// Journal records replayed by the fast path.
    pub journal_replayed: u64,
    /// Blocks the fast path re-scanned from media (those touched since
    /// the checkpoint stamp, plus the checkpoint blocks themselves).
    pub blocks_rescanned: u64,
    /// Scan cycles the fast path saved versus the full-device scan it
    /// replaced (zero on the full-scan path).
    pub cycles_saved: Cycle,
}

/// One touched block's surviving media state.
///
/// `Clone + PartialEq` so a checkpoint can hold a serialised image of the
/// block and debug builds can assert the fast-path rebuild saw exactly
/// what a full scan would have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScannedBlock {
    /// Device-wide block index (the allocator's currency).
    pub idx: u64,
    pub addr: BlockAddr,
    /// Intact OOB records by page index (torn pages excluded).
    pub entries: Vec<(u32, OobMeta)>,
    /// Pages programmed (the in-order high-water mark survives).
    pub programmed: u32,
    pub erase_count: u32,
    /// Sticky failure flag (survives the power loss).
    pub failed: bool,
    pub full: bool,
    /// Torn pages found in this block.
    pub torn: u32,
    /// Written-but-corrupt pages quarantined in this block.
    pub corrupt: u32,
}

impl ScannedBlock {
    /// The newest program stamp in the block — its age when choosing
    /// between duplicate copies of the same content.
    pub fn max_seq(&self) -> u64 {
        self.entries.iter().map(|(_, m)| m.seq).max().unwrap_or(0)
    }
}

/// The raw scan: every touched block in ascending device index.
pub(crate) struct Scan {
    pub blocks: Vec<ScannedBlock>,
    pub pages_scanned: u64,
    pub torn: u64,
    /// Pages whose payload checksum failed verification (quarantined).
    pub corrupt: u64,
    /// The busiest plane's OOB chain (planes scan in parallel).
    pub base_cycles: Cycle,
}

/// Scans the OOB area of every block ever touched. Pure inspection: no
/// media mutation, deterministic (ascending block index).
pub(crate) fn scan_device(device: &FlashDevice) -> Scan {
    let total = device.geometry().total_blocks() as u64;
    scan_blocks(device, 0..total)
}

/// Reads one block's surviving media state, or `None` when its die is
/// dead (a dead die refuses array access: its OOB is as unreadable as
/// its payload, so its blocks are invisible to the scan and are never
/// reclaimed or chosen as winners).
pub(crate) fn image_block(device: &FlashDevice, idx: u64) -> Option<ScannedBlock> {
    let addr = device.geometry().block_for_index(idx).ok()?;
    if device.die_is_dead(addr.channel, addr.die) {
        return None;
    }
    let b = device.block(addr)?;
    let programmed = b.programmed_pages();
    let mut entries = Vec::new();
    let mut torn = 0u32;
    let mut corrupt = 0u32;
    for page in 0..programmed {
        match b.oob(page) {
            // A record whose payload checksum fails is quarantined
            // exactly like a torn page: it must never become a
            // winner, or recovery would resurrect corrupted data.
            PageOob::Written(_) if b.is_corrupt(page) => corrupt += 1,
            PageOob::Written(m) => entries.push((page, m)),
            PageOob::Torn => torn += 1,
            PageOob::Blank => {}
        }
    }
    Some(ScannedBlock {
        idx,
        addr,
        entries,
        programmed,
        erase_count: b.erase_count(),
        failed: b.is_failed(),
        full: b.is_full(),
        torn,
        corrupt,
    })
}

/// The busiest plane's programmed-page chain across `blocks` — the
/// scan's wall time in page units, since planes scan in parallel.
pub(crate) fn busiest_plane_pages(blocks: &[ScannedBlock]) -> u64 {
    let mut per_plane: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
    for b in blocks {
        *per_plane
            .entry((
                b.addr.channel.index(),
                b.addr.die.index(),
                b.addr.plane.index(),
            ))
            .or_insert(0) += b.programmed as u64;
    }
    per_plane.values().copied().max().unwrap_or(0)
}

/// Scans the OOB area of the given block indices (ascending order is the
/// caller's responsibility for determinism; a `BTreeSet` or a range both
/// qualify). The subset form is the checkpoint fast path's rescan.
pub(crate) fn scan_blocks(device: &FlashDevice, indices: impl IntoIterator<Item = u64>) -> Scan {
    let mut blocks = Vec::new();
    let mut pages_scanned = 0u64;
    let mut torn = 0u64;
    let mut corrupt = 0u64;
    for idx in indices {
        let Some(blk) = image_block(device, idx) else {
            continue;
        };
        pages_scanned += blk.programmed as u64;
        torn += blk.torn as u64;
        corrupt += blk.corrupt as u64;
        blocks.push(blk);
    }
    let busiest = busiest_plane_pages(&blocks);
    Scan {
        blocks,
        pages_scanned,
        torn,
        corrupt,
        base_cycles: Cycle(OOB_SCAN_CYCLES_PER_PAGE.0 * busiest),
    }
}

/// Panics unless `image` equals `full`, a full scan of the same media,
/// naming the first block where they differ: the debug cross-check of
/// every image built from a checkpoint instead of a full scan.
#[cfg(debug_assertions)]
pub(crate) fn assert_same_image<'a>(
    image: impl IntoIterator<Item = &'a ScannedBlock>,
    full: &[ScannedBlock],
    what: &str,
) {
    let mut image = image.into_iter();
    let mut full = full.iter();
    loop {
        match (image.next(), full.next()) {
            (None, None) => return,
            (a, b) if a == b => {}
            (a, b) => panic!(
                "{what} must equal a full scan of the same media:\n  image: {a:?}\n  scan:  {b:?}"
            ),
        }
    }
}

/// Resolves every logical page to its newest intact copy: the winner is
/// the highest program stamp among non-torn pages. Returns
/// `lpn -> (stamp, location)` in logical-page order.
pub(crate) fn resolve_winners(blocks: &[ScannedBlock]) -> BTreeMap<u64, (u64, FlashAddr)> {
    let mut winners: BTreeMap<u64, (u64, FlashAddr)> = BTreeMap::new();
    for blk in blocks {
        for &(page, m) in &blk.entries {
            if m.tag == BlockKind::Parity || m.tag == BlockKind::Checkpoint {
                // RAIN parity and checkpoint/journal pages carry
                // synthetic keys outside the logical space; they protect
                // stripes or persist metadata but never name a logical
                // page.
                continue;
            }
            let cand = (m.seq, FlashAddr::new(blk.addr, page));
            match winners.get_mut(&m.lpn) {
                Some(w) if w.0 >= m.seq => {}
                Some(w) => *w = cand,
                None => {
                    winners.insert(m.lpn, cand);
                }
            }
        }
    }
    winners
}

/// What reclaiming the dead (unreferenced) blocks produced.
pub(crate) struct Reclaim {
    /// `(index, erase_count)` of blocks returned clean to the pool, in
    /// ascending index order.
    pub recycled: Vec<(u64, u32)>,
    /// Dead blocks out of service: previously failed ones plus any whose
    /// reclaim erase failed verification.
    pub retired: u64,
    /// Erase operations actually performed.
    pub erased: u64,
    /// Stale checkpoint blocks whose erase is deferred to the next
    /// checkpoint tick (see [`reclaim_dead`]); they stay allocated.
    pub deferred: Vec<u64>,
    /// When the slowest reclaim erase completes.
    pub done: Cycle,
}

/// Erases dead blocks back into the free pool. Failed blocks are never
/// trusted again; blocks with no programmed pages are already clean and
/// skip the erase. Erases start at `start` (after the OOB scan) and run
/// in parallel across planes — each reserves its plane's array resource.
///
/// Checkpoint-namespace blocks are the exception: a recovery supersedes
/// every checkpoint epoch, so the blocks holding the old epoch are dead,
/// but erasing them here would serialise several ~ms erases per plane
/// onto the critical restore path. They are *deferred* instead — left
/// allocated (never handed out) and queued for the next checkpoint
/// write, which already erases superseded epochs in the background
/// ([`crate::checkpoint`]). Recovery only pays for erases that data
/// blocks actually need.
pub(crate) fn reclaim_dead<'a>(
    device: &mut FlashDevice,
    dead: impl IntoIterator<Item = &'a ScannedBlock>,
    start: Cycle,
) -> Result<Reclaim> {
    let mut out = Reclaim {
        recycled: Vec::new(),
        retired: 0,
        erased: 0,
        deferred: Vec::new(),
        done: start,
    };
    for blk in dead {
        if blk.failed {
            out.retired += 1;
            continue;
        }
        if blk.programmed == 0 {
            out.recycled.push((blk.idx, blk.erase_count));
            continue;
        }
        // The volatile role kind is lost with power; the durable marker
        // is the OOB tag each checkpoint page carries.
        if blk
            .entries
            .iter()
            .any(|(_, m)| m.tag == BlockKind::Checkpoint)
        {
            out.deferred.push(blk.idx);
            continue;
        }
        let rep = device.erase(start, blk.addr)?;
        out.done = out.done.max(rep.done);
        out.erased += 1;
        if rep.failed {
            out.retired += 1;
        } else {
            let wear = device
                .block(blk.addr)
                .map(|b| b.erase_count())
                .unwrap_or(blk.erase_count + 1);
            out.recycled.push((blk.idx, wear));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zng_flash::{FlashGeometry, RegisterTopology};
    use zng_types::Freq;

    fn device() -> FlashDevice {
        FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::Private,
        )
        .unwrap()
    }

    #[test]
    fn scan_cost_is_per_page_for_a_single_block() {
        let mut d = device();
        let addr = d.geometry().block_for_index(0).unwrap();
        let mut t = Cycle(0);
        for lpn in 0..5u64 {
            t = d.program(t, addr, lpn).unwrap().done;
        }
        d.power_loss(t);
        let scan = scan_device(&d);
        assert_eq!(scan.pages_scanned, 5);
        assert_eq!(scan.base_cycles, Cycle(OOB_SCAN_CYCLES_PER_PAGE.0 * 5));
    }

    #[test]
    fn planes_scan_in_parallel_so_the_busiest_governs() {
        let mut d = device();
        let geo = *d.geometry();
        // Channel-first striping puts consecutive indices on different
        // channels: 7 pages on one plane, 2 on another -> the busiest
        // plane's chain sets the wall time.
        let a = geo.block_for_index(0).unwrap();
        let b = geo.block_for_index(1).unwrap();
        assert_ne!(a.channel, b.channel);
        let mut t = Cycle(0);
        for lpn in 0..7u64 {
            t = d.program(t, a, lpn).unwrap().done;
        }
        for lpn in 7..9u64 {
            t = d.program(t, b, lpn).unwrap().done;
        }
        d.power_loss(t);
        let scan = scan_device(&d);
        assert_eq!(scan.pages_scanned, 9);
        assert_eq!(scan.base_cycles, Cycle(OOB_SCAN_CYCLES_PER_PAGE.0 * 7));
    }

    #[test]
    fn preloaded_pages_cost_scan_time_like_programmed_ones() {
        let mut d = device();
        let addr = d.geometry().block_for_index(2).unwrap();
        for lpn in 0..4u64 {
            d.preload_page(addr, lpn).unwrap();
        }
        let scan = scan_device(&d);
        assert_eq!(scan.pages_scanned, 4);
        assert_eq!(scan.base_cycles, Cycle(OOB_SCAN_CYCLES_PER_PAGE.0 * 4));
    }

    #[test]
    fn corrupt_records_are_quarantined_not_resurrected() {
        let mut d = device();
        let geo = *d.geometry();
        let a = geo.block_for_index(0).unwrap();
        let b = geo.block_for_index(1).unwrap();
        // Two versions of lpn 7: the newer one silently corrupted.
        let r1 = d.program(Cycle(0), a, 7).unwrap();
        let r2 = d.program(r1.done, b, 7).unwrap();
        d.mark_page_corrupt(FlashAddr::new(b, r2.page)).unwrap();
        d.power_loss(r2.done + Cycle(10_000_000));
        let scan = scan_device(&d);
        assert_eq!(scan.corrupt, 1, "the corrupt record is quarantined");
        assert_eq!(scan.pages_scanned, 2);
        let winners = resolve_winners(&scan.blocks);
        let (_, addr) = winners.get(&7).copied().expect("intact copy survives");
        assert_eq!(addr.block, a, "rolls back to the newest intact copy");
    }

    #[test]
    fn parity_tagged_records_never_win_a_logical_page() {
        let mut d = device();
        let geo = *d.geometry();
        let data = geo.block_for_index(0).unwrap();
        let parity = geo.block_for_index(4).unwrap();
        let t = d.program(Cycle(0), data, 7).unwrap().done;
        d.block_mut(parity).unwrap().set_kind(BlockKind::Parity);
        // Newer stamp than the data copy: without the tag filter this
        // parity record would shadow lpn 7.
        d.program(t, parity, 7).unwrap();
        let scan = scan_device(&d);
        let winners = resolve_winners(&scan.blocks);
        let (_, addr) = winners.get(&7).copied().expect("data copy survives");
        assert_eq!(addr.block, data);
    }
}
