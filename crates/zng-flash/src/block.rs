//! Flash-block state machine: erase-before-write and in-order programming.

use zng_types::{Cycle, Error, Result};

/// What a block is currently used for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Erased and unused.
    #[default]
    Free,
    /// A physical data block (read-only sequential pages, DBMT-mapped).
    Data,
    /// A physical log block (over-provisioned, LPMT-remapped writes).
    Log,
    /// A RAIN parity block: holds per-stripe XOR pages, never user data.
    /// Recovery scans skip parity pages when resolving logical winners.
    Parity,
    /// A checkpoint/journal block: holds serialised mapping snapshots and
    /// write-ahead journal pages in a reserved key namespace, never user
    /// data. Like parity, checkpoint pages never win a logical page
    /// during recovery; unlike parity, their torn-page semantics are the
    /// recovery fast path's validity signal.
    Checkpoint,
}

/// Out-of-band (OOB) metadata written atomically with a page's data.
///
/// Real NAND reserves a spare area per page; ZnG's recovery story depends
/// on it: after a power loss the volatile mapping tables (DBMT / LBMT /
/// row-decoder LPMT) are gone and a full-device OOB scan is the only way
/// to rebuild them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobMeta {
    /// Logical page number the data belongs to.
    pub lpn: u64,
    /// Monotonic device-wide program stamp; duplicate LPNs found during a
    /// recovery scan are resolved in favour of the highest stamp.
    pub seq: u64,
    /// The role the owning block had when the page was programmed
    /// (data-vs-log tag), so the scan can rebuild DBMT vs LPMT entries.
    pub tag: BlockKind,
    /// When the array program completed. A power loss before this instant
    /// leaves the page torn.
    pub programmed_at: Cycle,
    /// Demand writes tear when power is cut mid-program; GC migrations
    /// and dataset preloads do not (the helper thread orders its erase
    /// after migration completion, so a cut mid-merge leaves the sources
    /// as the surviving copies instead — see DESIGN.md).
    pub demand: bool,
}

/// Per-page OOB state as seen by a recovery scan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum PageOob {
    /// Never successfully programmed with metadata: an erased slot, or
    /// garbage left by a failed (unverified) program.
    #[default]
    Blank,
    /// Programmed and verified; metadata readable.
    Written(OobMeta),
    /// A power loss interrupted the program: the page reads back as
    /// detectable garbage and must never be served.
    Torn,
}

/// One flash block: a fixed number of pages that must be programmed
/// strictly in order and can only be reused after a whole-block erase
/// (paper §II-B).
///
/// # Examples
///
/// ```
/// use zng_flash::{Block, BlockKind};
///
/// let mut b = Block::new(4);
/// b.set_kind(BlockKind::Data);
/// assert_eq!(b.program_next()?, 0);
/// assert_eq!(b.program_next()?, 1);
/// b.invalidate(0);
/// assert_eq!(b.valid_pages(), 1);
/// b.invalidate(1);
/// b.erase()?;
/// assert_eq!(b.kind(), BlockKind::Free);
/// # Ok::<(), zng_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pages: u32,
    kind: BlockKind,
    /// In-order program pointer: next free page index.
    next_page: u32,
    /// Validity bitmap, one bit per page.
    valid: Vec<u64>,
    valid_count: u32,
    erase_count: u32,
    /// Set when a program or erase on this block failed verification:
    /// the block must be retired once its live data has been migrated.
    failed: bool,
    /// Per-page out-of-band metadata, written atomically with each page.
    /// Not part of the timing model; recovery scans it to rebuild the
    /// volatile mapping tables and property tests use it to prove no
    /// acknowledged write is lost.
    oob: Vec<PageOob>,
    /// Silent-corruption bitmap, one bit per page: set when the page's
    /// payload was flipped *below* the ECC model (a miscorrection the
    /// sense reports as success). The simulator carries no payload bytes,
    /// so this flag *is* the corruption — "does the stored payload still
    /// match its OOB checksum". Survives power loss (the array is
    /// non-volatile) and clears on erase.
    corrupt: Vec<u64>,
    /// Read-disturb exposure: array senses against this block since its
    /// last erase. Disturb is accumulated charge drift on sibling pages,
    /// so it is physical state — it survives power loss and only an
    /// erase (fresh charge) resets it.
    disturb_reads: u64,
    /// When the first page after the last erase finished programming:
    /// the block's retention clock. Charge state, so it survives power
    /// loss and clears on erase.
    first_programmed: Option<Cycle>,
}

impl Block {
    /// Creates a free, erased block with `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(pages: u32) -> Block {
        assert!(pages > 0, "a block needs at least one page");
        Block {
            pages,
            kind: BlockKind::Free,
            next_page: 0,
            valid: vec![0; (pages as usize).div_ceil(64)],
            valid_count: 0,
            erase_count: 0,
            failed: false,
            oob: vec![PageOob::Blank; pages as usize],
            corrupt: vec![0; (pages as usize).div_ceil(64)],
            disturb_reads: 0,
            first_programmed: None,
        }
    }

    /// Records one read-disturb exposure: an array sense against any page
    /// of this block drifts the charge of its sibling pages. Cleared by
    /// [`Block::erase`] only.
    pub fn note_disturb_read(&mut self) {
        self.disturb_reads = self.disturb_reads.saturating_add(1);
    }

    /// Array senses against this block since its last erase.
    pub fn disturb_reads(&self) -> u64 {
        self.disturb_reads
    }

    /// When the first page after the last erase finished programming, if
    /// any — the block's retention clock for refresh decisions.
    pub fn first_programmed(&self) -> Option<Cycle> {
        self.first_programmed
    }

    /// Flags `page`'s payload as silently corrupted: its stored bits no
    /// longer match the checksum in its OOB record. No-op out of range.
    pub fn mark_corrupt(&mut self, page: u32) {
        if page < self.pages {
            self.corrupt[(page / 64) as usize] |= 1 << (page % 64);
        }
    }

    /// Whether `page`'s payload fails its end-to-end checksum. Only an
    /// integrity-verifying reader notices — the sense itself succeeds.
    pub fn is_corrupt(&self, page: u32) -> bool {
        page < self.pages && self.corrupt[(page / 64) as usize] & (1 << (page % 64)) != 0
    }

    /// Programs the next in-order page; returns its index.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FlashProtocol`] when the block is full — callers
    /// must erase (after GC) before reusing it.
    pub fn program_next(&mut self) -> Result<u32> {
        if self.next_page >= self.pages {
            return Err(Error::FlashProtocol(format!(
                "block is full ({} pages programmed); erase before reuse",
                self.pages
            )));
        }
        let page = self.next_page;
        self.next_page += 1;
        self.valid[(page / 64) as usize] |= 1 << (page % 64);
        self.valid_count += 1;
        Ok(page)
    }

    /// Marks `page` invalid (superseded by a newer version elsewhere).
    ///
    /// Invalidating an unprogrammed or already-invalid page is a no-op.
    pub fn invalidate(&mut self, page: u32) {
        if page >= self.pages {
            return;
        }
        let (w, b) = ((page / 64) as usize, page % 64);
        if self.valid[w] & (1 << b) != 0 {
            self.valid[w] &= !(1 << b);
            self.valid_count -= 1;
        }
    }

    /// Whether `page` has been programmed and not superseded.
    pub fn is_valid(&self, page: u32) -> bool {
        page < self.pages && self.valid[(page / 64) as usize] & (1 << (page % 64)) != 0
    }

    /// Whether `page` has been programmed (valid or stale).
    pub fn is_programmed(&self, page: u32) -> bool {
        page < self.next_page
    }

    /// Erases the block, returning it to [`BlockKind::Free`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::FlashProtocol`] if valid pages remain: GC must
    /// migrate them first (erasing live data is a simulator-logic bug a
    /// caller can trigger, so it is an error, not a panic).
    pub fn erase(&mut self) -> Result<()> {
        if self.valid_count > 0 {
            return Err(Error::FlashProtocol(format!(
                "erasing block with {} valid pages",
                self.valid_count
            )));
        }
        self.kind = BlockKind::Free;
        self.next_page = 0;
        self.valid.iter_mut().for_each(|w| *w = 0);
        self.oob.iter_mut().for_each(|s| *s = PageOob::Blank);
        self.corrupt.iter_mut().for_each(|w| *w = 0);
        self.disturb_reads = 0;
        self.first_programmed = None;
        self.erase_count += 1;
        Ok(())
    }

    /// Marks the block failed (a program or erase did not verify). The
    /// flag is sticky — it survives erases — so the FTL retires the
    /// block instead of returning it to the free pool.
    pub fn mark_failed(&mut self) {
        self.failed = true;
    }

    /// Whether a program/erase on this block has ever failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Records the full out-of-band record for `page` (ignored out of
    /// range). Written "atomically with the page": the device calls this
    /// from the same completion that verifies the program.
    pub fn record_oob(&mut self, page: u32, meta: OobMeta) {
        if let Some(s) = self.oob.get_mut(page as usize) {
            *s = PageOob::Written(meta);
            if self.first_programmed.is_none() {
                self.first_programmed = Some(meta.programmed_at);
            }
        }
    }

    /// The OOB state of `page` ([`PageOob::Blank`] out of range).
    pub fn oob(&self, page: u32) -> PageOob {
        self.oob.get(page as usize).copied().unwrap_or_default()
    }

    /// Whether `page` was torn by a power loss mid-program.
    pub fn is_torn(&self, page: u32) -> bool {
        matches!(self.oob(page), PageOob::Torn)
    }

    /// The `(key, sequence)` of the last successful program of `page`.
    pub fn stamp(&self, page: u32) -> Option<(u64, u64)> {
        match self.oob(page) {
            PageOob::Written(m) => Some((m.lpn, m.seq)),
            _ => None,
        }
    }

    /// Cuts power over this block at `now`.
    ///
    /// The flash array itself is non-volatile — programmed pages, OOB
    /// records, wear counters and the sticky failed flag all survive —
    /// but two things change:
    ///
    /// * any **demand** program still in flight (`programmed_at > now`)
    ///   is torn: its page becomes detectable garbage — unless its
    ///   sequence is covered by `fenced_seq`, the device-wide erase
    ///   barrier (an erase is only issued after the programs whose
    ///   invalidations justified it have verified, so every program
    ///   sequenced before the last erase has completed);
    /// * the **validity bitmap and block role are dropped** — they are
    ///   FTL bookkeeping mirrored here for the model's convenience, not
    ///   media state. Recovery rebuilds both from the OOB scan.
    ///
    /// Returns the number of pages torn.
    pub fn power_loss(&mut self, now: Cycle, fenced_seq: u64) -> u32 {
        let mut torn = 0;
        for slot in self.oob.iter_mut().take(self.next_page as usize) {
            if let PageOob::Written(m) = slot {
                if m.demand && m.programmed_at > now && m.seq > fenced_seq {
                    *slot = PageOob::Torn;
                    torn += 1;
                }
            }
        }
        self.kind = BlockKind::Free;
        self.valid.iter_mut().for_each(|w| *w = 0);
        self.valid_count = 0;
        torn
    }

    /// Re-marks a programmed page valid during recovery (the scan decided
    /// this copy is the winner for its LPN). No-op out of range, on
    /// unprogrammed pages, or when already valid.
    pub fn restore_valid(&mut self, page: u32) {
        if page >= self.next_page || self.is_valid(page) {
            return;
        }
        self.valid[(page / 64) as usize] |= 1 << (page % 64);
        self.valid_count += 1;
    }

    /// Sets the block's role (done by the FTL when allocating).
    pub fn set_kind(&mut self, kind: BlockKind) {
        self.kind = kind;
    }

    /// Current role.
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// Number of valid pages.
    pub fn valid_pages(&self) -> u32 {
        self.valid_count
    }

    /// Number of programmed pages (valid + stale).
    pub fn programmed_pages(&self) -> u32 {
        self.next_page
    }

    /// Remaining free (unprogrammed) pages.
    pub fn free_pages(&self) -> u32 {
        self.pages - self.next_page
    }

    /// Whether every page has been programmed.
    pub fn is_full(&self) -> bool {
        self.next_page == self.pages
    }

    /// Lifetime erase count (wear-levelling input).
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Total pages in the block.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Iterates indices of currently valid pages.
    pub fn valid_page_indices(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.next_page).filter(move |&p| self.is_valid(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_in_order() {
        let mut b = Block::new(3);
        assert_eq!(b.program_next().unwrap(), 0);
        assert_eq!(b.program_next().unwrap(), 1);
        assert_eq!(b.program_next().unwrap(), 2);
        assert!(b.is_full());
        assert!(matches!(b.program_next(), Err(Error::FlashProtocol(_))));
    }

    #[test]
    fn validity_tracking() {
        let mut b = Block::new(128);
        for _ in 0..100 {
            b.program_next().unwrap();
        }
        assert_eq!(b.valid_pages(), 100);
        b.invalidate(5);
        b.invalidate(64); // second bitmap word
        b.invalidate(5); // double-invalidate is a no-op
        b.invalidate(1_000); // out of range is a no-op
        assert_eq!(b.valid_pages(), 98);
        assert!(!b.is_valid(5));
        assert!(b.is_programmed(5));
        assert!(b.is_valid(6));
        assert!(!b.is_valid(100)); // programmed? no
        assert!(!b.is_programmed(100));
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let mut b = Block::new(2);
        b.set_kind(BlockKind::Log);
        b.program_next().unwrap();
        assert!(b.erase().is_err());
        b.invalidate(0);
        b.erase().unwrap();
        assert_eq!(b.kind(), BlockKind::Free);
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.free_pages(), 2);
        // Reusable after erase.
        assert_eq!(b.program_next().unwrap(), 0);
    }

    #[test]
    fn valid_page_indices_iterates_survivors() {
        let mut b = Block::new(8);
        for _ in 0..5 {
            b.program_next().unwrap();
        }
        b.invalidate(1);
        b.invalidate(3);
        let live: Vec<u32> = b.valid_page_indices().collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pages_rejected() {
        let _ = Block::new(0);
    }

    #[test]
    fn failed_flag_is_sticky_across_erase() {
        let mut b = Block::new(2);
        assert!(!b.is_failed());
        b.program_next().unwrap();
        b.mark_failed();
        b.invalidate(0);
        b.erase().unwrap();
        assert!(b.is_failed(), "failure survives erase");
    }

    #[test]
    fn power_loss_tears_inflight_demand_programs_only() {
        let mut b = Block::new(4);
        b.set_kind(BlockKind::Log);
        for _ in 0..3 {
            b.program_next().unwrap();
        }
        let meta = |at: u64, demand: bool| OobMeta {
            lpn: 7,
            seq: 1,
            tag: BlockKind::Log,
            programmed_at: Cycle(at),
            demand,
        };
        b.record_oob(0, meta(50, true)); // completed before the cut
        b.record_oob(1, meta(500, true)); // in flight: tears
        b.record_oob(2, meta(500, false)); // migration in flight: survives
        let torn = b.power_loss(Cycle(100), 0);
        assert_eq!(torn, 1);
        assert!(!b.is_torn(0) && b.is_torn(1) && !b.is_torn(2));
        // Volatile per-block bookkeeping is dropped…
        assert_eq!(b.kind(), BlockKind::Free);
        assert_eq!(b.valid_pages(), 0);
        // …but the array contents survive.
        assert_eq!(b.programmed_pages(), 3);
        assert_eq!(b.stamp(0), Some((7, 1)));
        assert_eq!(b.stamp(1), None, "torn pages lose their metadata");
    }

    #[test]
    fn restore_valid_rebuilds_bitmap_after_power_loss() {
        let mut b = Block::new(4);
        b.program_next().unwrap();
        b.program_next().unwrap();
        b.power_loss(Cycle::ZERO, 0);
        assert_eq!(b.valid_pages(), 0);
        b.restore_valid(1);
        b.restore_valid(1); // idempotent
        b.restore_valid(3); // unprogrammed: no-op
        assert_eq!(b.valid_pages(), 1);
        assert!(b.is_valid(1) && !b.is_valid(0));
    }

    #[test]
    fn corruption_survives_power_loss_and_clears_on_erase() {
        let mut b = Block::new(4);
        b.program_next().unwrap();
        b.program_next().unwrap();
        assert!(!b.is_corrupt(0));
        b.mark_corrupt(0);
        b.mark_corrupt(99); // out of range: no-op
        assert!(b.is_corrupt(0) && !b.is_corrupt(1));
        // The array is non-volatile: corruption survives the cut.
        b.power_loss(Cycle::ZERO, 0);
        assert!(b.is_corrupt(0));
        // A fresh erase gives the cells new, clean charge.
        b.erase().unwrap();
        assert!(!b.is_corrupt(0));
    }

    #[test]
    fn erase_clears_torn_state() {
        let mut b = Block::new(2);
        b.program_next().unwrap();
        b.record_oob(
            0,
            OobMeta {
                lpn: 1,
                seq: 1,
                tag: BlockKind::Data,
                programmed_at: Cycle(10),
                demand: true,
            },
        );
        b.power_loss(Cycle::ZERO, 0);
        assert!(b.is_torn(0));
        b.erase().unwrap();
        assert_eq!(b.oob(0), PageOob::Blank);
    }

    #[test]
    fn disturb_reads_survive_power_loss_and_clear_on_erase() {
        let mut b = Block::new(2);
        b.program_next().unwrap();
        assert_eq!(b.disturb_reads(), 0);
        b.note_disturb_read();
        b.note_disturb_read();
        assert_eq!(b.disturb_reads(), 2);
        // Disturb is charge drift — physical state that survives a cut.
        b.power_loss(Cycle::ZERO, 0);
        assert_eq!(b.disturb_reads(), 2);
        // A fresh erase re-charges the cells.
        b.erase().unwrap();
        assert_eq!(b.disturb_reads(), 0);
    }

    #[test]
    fn first_programmed_stamps_retention_clock() {
        let mut b = Block::new(3);
        assert_eq!(b.first_programmed(), None);
        b.program_next().unwrap();
        let meta = |at: u64| OobMeta {
            lpn: 1,
            seq: 1,
            tag: BlockKind::Data,
            programmed_at: Cycle(at),
            demand: true,
        };
        b.record_oob(0, meta(100));
        assert_eq!(b.first_programmed(), Some(Cycle(100)));
        // Later programs never move the retention clock backwards.
        b.program_next().unwrap();
        b.record_oob(1, meta(900));
        assert_eq!(b.first_programmed(), Some(Cycle(100)));
        // Survives power loss, clears on erase.
        b.power_loss(Cycle(2_000), 0);
        assert_eq!(b.first_programmed(), Some(Cycle(100)));
        b.erase().unwrap();
        assert_eq!(b.first_programmed(), None);
    }

    #[test]
    fn stamps_track_last_program_and_clear_on_erase() {
        let mut b = Block::new(4);
        b.program_next().unwrap();
        assert_eq!(b.stamp(0), None);
        let meta = |seq| OobMeta {
            lpn: 77,
            seq,
            tag: BlockKind::Free,
            programmed_at: Cycle::ZERO,
            demand: false,
        };
        b.record_oob(0, meta(1));
        b.record_oob(0, meta(2)); // re-stamp supersedes
        assert_eq!(b.stamp(0), Some((77, 2)));
        b.record_oob(99, meta(1)); // out of range: no-op
        assert_eq!(b.stamp(99), None);
        b.invalidate(0);
        b.erase().unwrap();
        assert_eq!(b.stamp(0), None, "erase clears stamps");
    }
}
