//! RAIN: redundant arrays of independent NAND (data redundancy &
//! self-healing).
//!
//! The geometry invariant behind the layout: the allocator's
//! [`zng_flash::FlashGeometry::block_for_index`] stripes channel-first, so
//! the `C` consecutive indices `[k*C, (k+1)*C)` (`C` = channels) share
//! identical die/plane/block coordinates across all `C` channels — a
//! natural **superblock**. Page `p` of every member forms **stripe**
//! `(k, p)`, protected by one XOR parity page.
//!
//! One member per superblock is reserved for parity, rotating with the
//! superblock number (`index % C == (index / C) % C`) so parity traffic
//! spreads over channels and a single die failure takes at most one
//! member from every stripe. Parity accumulates in the GPU helper
//! thread's SRAM while stripes are open and is flushed to the reserved
//! block once every data member is full; the SRAM accumulator stays
//! authoritative — the flash copy only adds a member the reconstruction
//! fan-out may have to sense.
//!
//! Reads that stay uncorrectable through the whole retry ladder (or hit a
//! dead die) are **reconstructed**: the surviving members of the stripe
//! are sensed in parallel across their channels and XOR-combined in SRAM.
//! Because the simulator carries no payload bytes, reconstruction is a
//! timing + bookkeeping model: correctness is proven through mapping and
//! OOB-stamp identity by the redundancy property suite.

use std::collections::BTreeSet;

use zng_flash::{BlockKind, FlashDevice, PageOob};
use zng_types::{BlockAddr, Cycle, Error, FlashAddr, Result};

use crate::checkpoint::{self, CheckpointState};
use crate::GC_READ_ATTEMPTS;

/// Cost of XOR-combining a stripe's surviving members in the helper
/// thread's SRAM after the last fan-out read lands. The combine runs at
/// SRAM bandwidth over one 4 KB page — small next to the 3 µs sense.
pub const RAIN_XOR_CYCLES: Cycle = Cycle(200);

/// Logical-key namespace for parity pages, far above any workload LPN.
/// Parity OOB records carry these keys (plus the [`BlockKind::Parity`]
/// tag) so crash-recovery scans can never mistake parity for user data.
pub(crate) const PARITY_KEY_BASE: u64 = 1 << 62;

/// Redundancy policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RainConfig {
    /// Retry-ladder depth at or above which a patrol-scrubbed page is
    /// rewritten to fresh cells (reads that needed reconstruction are
    /// always rewritten).
    pub scrub_threshold: u32,
}

impl Default for RainConfig {
    fn default() -> RainConfig {
        RainConfig { scrub_threshold: 2 }
    }
}

/// A snapshot of the redundancy subsystem's event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RainCounters {
    /// Pages rebuilt from surviving stripe members on the read path.
    pub reconstructions: u64,
    /// Member senses issued by those reconstructions.
    pub reconstruction_reads: u64,
    /// Parity pages flushed from SRAM to reserved parity blocks.
    pub parity_pages: u64,
    /// Pages the patrol scrubber sensed.
    pub scrub_scanned: u64,
    /// Scrubbed pages rewritten to fresh cells.
    pub scrub_rewrites: u64,
    /// Scrub steps whose media time overran the pacing budget (the
    /// foreground stall was capped at the budget).
    pub scrub_overruns: u64,
    /// Pages re-created onto spare blocks by a post-failure rebuild.
    pub rebuild_pages: u64,
    /// Reconstructions whose home die was dead (degraded-mode reads).
    pub degraded_reads: u64,
    /// Blocks fenced out of service because their die died.
    pub fenced_blocks: u64,
}

/// How the allocator chokepoint should treat a freshly allocated index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Claim {
    /// A plain data/log block: the FTL keeps it.
    Keep,
    /// The superblock's reserved parity member: RAIN claimed it.
    Parity,
    /// The block sits on a dead die: retire it and allocate again.
    Fenced,
}

/// Per-FTL redundancy state: stripe bookkeeping, the patrol-scrub cursor
/// and the self-healing counters.
#[derive(Debug, Clone)]
pub struct RainState {
    channels: u64,
    pages_per_block: u64,
    page_bytes: usize,
    config: RainConfig,
    /// Superblocks whose reserved parity member has been claimed out of
    /// the allocator (its kind is set to [`BlockKind::Parity`]).
    parity_claimed: BTreeSet<u64>,
    /// Superblocks whose parity block has been flushed to flash.
    parity_flushed: BTreeSet<u64>,
    /// Patrol position as a device-global page slot
    /// (`block_index * pages_per_block + page`).
    scrub_cursor: u64,
    pub(crate) reconstructions: u64,
    pub(crate) reconstruction_reads: u64,
    pub(crate) parity_pages: u64,
    pub(crate) scrub_scanned: u64,
    pub(crate) scrub_rewrites: u64,
    pub(crate) scrub_overruns: u64,
    pub(crate) rebuild_pages: u64,
    pub(crate) degraded_reads: u64,
    pub(crate) fenced_blocks: u64,
}

impl RainState {
    /// Creates redundancy state for `device`'s geometry. With fewer than
    /// two channels no stripe can exist: the state degenerates to plain
    /// bookkeeping (no parity reservation, reconstruction always fails).
    pub fn new(device: &FlashDevice, config: RainConfig) -> RainState {
        let g = device.geometry();
        RainState {
            channels: g.channels as u64,
            pages_per_block: g.pages_per_block as u64,
            page_bytes: g.page_bytes,
            config,
            parity_claimed: BTreeSet::new(),
            parity_flushed: BTreeSet::new(),
            scrub_cursor: 0,
            reconstructions: 0,
            reconstruction_reads: 0,
            parity_pages: 0,
            scrub_scanned: 0,
            scrub_rewrites: 0,
            scrub_overruns: 0,
            rebuild_pages: 0,
            degraded_reads: 0,
            fenced_blocks: 0,
        }
    }

    /// The installed policy.
    pub fn config(&self) -> RainConfig {
        self.config
    }

    /// Current event counters.
    pub fn counters(&self) -> RainCounters {
        RainCounters {
            reconstructions: self.reconstructions,
            reconstruction_reads: self.reconstruction_reads,
            parity_pages: self.parity_pages,
            scrub_scanned: self.scrub_scanned,
            scrub_rewrites: self.scrub_rewrites,
            scrub_overruns: self.scrub_overruns,
            rebuild_pages: self.rebuild_pages,
            degraded_reads: self.degraded_reads,
            fenced_blocks: self.fenced_blocks,
        }
    }

    /// Whether `idx` is its superblock's reserved parity member. The
    /// reservation rotates with the superblock number so parity load
    /// spreads across channels.
    pub fn is_parity_index(&self, idx: u64) -> bool {
        self.channels >= 2 && idx % self.channels == (idx / self.channels) % self.channels
    }

    /// The parity member index of superblock `sb`.
    fn parity_index_of(&self, sb: u64) -> u64 {
        sb * self.channels + sb % self.channels
    }

    /// Classifies a freshly allocated block index for the FTL's single
    /// allocation chokepoint: parity-reserved indices are claimed here
    /// (their block kind becomes [`BlockKind::Parity`]), dead-die indices
    /// are fenced, everything else is the FTL's to keep.
    pub(crate) fn classify(&mut self, device: &mut FlashDevice, idx: u64) -> Result<Claim> {
        let addr = device.geometry().block_for_index(idx)?;
        if device.die_is_dead(addr.channel, addr.die) {
            self.fenced_blocks += 1;
            return Ok(Claim::Fenced);
        }
        if self.is_parity_index(idx) {
            device.block_mut(addr)?.set_kind(BlockKind::Parity);
            self.parity_claimed.insert(idx / self.channels);
            return Ok(Claim::Parity);
        }
        Ok(Claim::Keep)
    }

    /// Notes a verified demand/migration program into `block`, flushing
    /// the superblock's parity once every data member is full.
    pub(crate) fn note_program(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        block: BlockAddr,
    ) -> Result<()> {
        self.maybe_flush_parity(device, block, Some(now))
    }

    /// Notes a zero-cost preload into `block`; a completed superblock's
    /// parity logically pre-resided too, so it flushes as a preload.
    pub(crate) fn note_preload(
        &mut self,
        device: &mut FlashDevice,
        block: BlockAddr,
    ) -> Result<()> {
        self.maybe_flush_parity(device, block, None)
    }

    fn maybe_flush_parity(
        &mut self,
        device: &mut FlashDevice,
        block: BlockAddr,
        now: Option<Cycle>,
    ) -> Result<()> {
        if self.channels < 2 {
            return Ok(());
        }
        let geo = *device.geometry();
        let sb = geo.index_for_block(block) / self.channels;
        if !self.parity_claimed.contains(&sb) || self.parity_flushed.contains(&sb) {
            return Ok(());
        }
        let parity_idx = self.parity_index_of(sb);
        // The stripe set closes only once every data member is full and
        // healthy; a dead or burned member keeps parity in SRAM for good.
        for j in sb * self.channels..(sb + 1) * self.channels {
            if j == parity_idx {
                continue;
            }
            let a = geo.block_for_index(j)?;
            if device.die_is_dead(a.channel, a.die) {
                return Ok(());
            }
            match device.block(a) {
                Some(b) if b.is_full() && !b.is_failed() => {}
                _ => return Ok(()),
            }
        }
        let paddr = geo.block_for_index(parity_idx)?;
        if device.die_is_dead(paddr.channel, paddr.die) {
            return Ok(());
        }
        self.parity_flushed.insert(sb);
        let mut t = now;
        for page in 0..self.pages_per_block {
            let key = PARITY_KEY_BASE + sb * self.pages_per_block + page;
            match &mut t {
                Some(t) => {
                    let rep = device.program_migrate(*t, paddr, key)?;
                    if rep.failed {
                        // A burned parity block is left partial; the SRAM
                        // accumulator still covers its stripes.
                        break;
                    }
                    *t = rep.done;
                }
                None => {
                    device.preload_page(paddr, key)?;
                }
            }
            self.parity_pages += 1;
        }
        Ok(())
    }

    /// Reconstructs the page at `addr` from its surviving stripe members:
    /// every programmed member page is sensed (fan-out in parallel across
    /// channels, each with the bounded retry ladder) and the results are
    /// XOR-combined in helper-thread SRAM. Returns the combine's
    /// completion time. Member senses journal what they miscorrect into
    /// `journal` (see [`checkpoint::sense`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UncorrectableRead`] when a second stripe member is
    /// unreadable (a dead die or an exhausted retry ladder): single-parity
    /// RAIN tolerates exactly one lost member per stripe.
    pub(crate) fn reconstruct(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        _transfer_bytes: usize,
        mut journal: Option<&mut CheckpointState>,
    ) -> Result<Cycle> {
        let lost = Error::UncorrectableRead {
            block: addr.block.block as u64,
            page: addr.page,
            retries: GC_READ_ATTEMPTS,
        };
        if self.channels < 2 {
            return Err(lost);
        }
        let geo = *device.geometry();
        let idx = geo.index_for_block(addr.block);
        let sb = idx / self.channels;
        let mut done = now;
        let mut reads = 0u64;
        for j in sb * self.channels..(sb + 1) * self.channels {
            if j == idx {
                continue;
            }
            let maddr = geo.block_for_index(j)?;
            if device.die_is_dead(maddr.channel, maddr.die) {
                // Two dead members in one stripe: beyond single parity.
                return Err(lost);
            }
            let member = FlashAddr::new(maddr, addr.page);
            let readable = device
                .block(maddr)
                .is_some_and(|b| addr.page < b.programmed_pages() && !b.is_torn(addr.page));
            if !readable {
                // Never programmed (or torn): an all-zero contribution,
                // folded in for free.
                continue;
            }
            let key = device
                .page_stamp(member)
                .map(|(k, _)| k)
                .unwrap_or(PARITY_KEY_BASE + sb * self.pages_per_block + addr.page as u64);
            let mut landed = None;
            for _ in 0..GC_READ_ATTEMPTS {
                match checkpoint::sense(
                    journal.as_deref_mut(),
                    device,
                    now,
                    member,
                    key,
                    self.page_bytes,
                ) {
                    Ok(t) => {
                        landed = Some(t);
                        break;
                    }
                    Err(Error::UncorrectableRead { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            let Some(t) = landed else {
                return Err(lost);
            };
            if device.page_is_corrupt(member) {
                // A silently corrupted member poisons the XOR combine:
                // single parity cannot tell which contribution is wrong,
                // so the reconstruction must not be served as clean data.
                return Err(Error::IntegrityViolation { addr });
            }
            reads += 1;
            done = done.max(t);
        }
        self.reconstructions += 1;
        self.reconstruction_reads += reads;
        if device.die_is_dead(addr.block.channel, addr.block.die) {
            self.degraded_reads += 1;
        }
        Ok(done + RAIN_XOR_CYCLES)
    }

    /// Advances the patrol cursor to the next live (programmed, valid,
    /// non-parity) page and returns its location and logical page number,
    /// or `None` when the walk window found nothing to scrub. The walk is
    /// bounded to one superblock's worth of page slots per step, hopping
    /// whole blocks when they are untouched, parity, or failed.
    pub(crate) fn scrub_scan(&mut self, device: &FlashDevice) -> Option<(FlashAddr, u64)> {
        let geo = device.geometry();
        let total = geo.total_blocks() as u64 * self.pages_per_block;
        if total == 0 {
            return None;
        }
        let limit = (self.channels * self.pages_per_block).min(total);
        for _ in 0..limit {
            let slot = self.scrub_cursor % total;
            let idx = slot / self.pages_per_block;
            let page = (slot % self.pages_per_block) as u32;
            let next_block = ((idx + 1) * self.pages_per_block) % total;
            let Ok(baddr) = geo.block_for_index(idx) else {
                self.scrub_cursor = next_block;
                continue;
            };
            if device.die_is_dead(baddr.channel, baddr.die) {
                self.scrub_cursor = next_block;
                continue;
            }
            let Some(b) = device.block(baddr) else {
                self.scrub_cursor = next_block;
                continue;
            };
            if b.kind() == BlockKind::Parity
                || b.kind() == BlockKind::Checkpoint
                || b.is_failed()
                || page >= b.programmed_pages()
            {
                self.scrub_cursor = next_block;
                continue;
            }
            self.scrub_cursor = (slot + 1) % total;
            if !b.is_valid(page) || b.is_torn(page) {
                continue;
            }
            let PageOob::Written(m) = b.oob(page) else {
                continue;
            };
            return Some((FlashAddr::new(baddr, page), m.lpn));
        }
        None
    }

    /// Resets stripe bookkeeping after a crash recovery: parity lived in
    /// SRAM (lost with power) and every parity-tagged block is reclaimed
    /// by the recovery scan, so stripes restart empty. Counters and the
    /// policy survive; the patrol restarts from slot zero for determinism.
    pub(crate) fn reset_after_recovery(&mut self) {
        self.parity_claimed.clear();
        self.parity_flushed.clear();
        self.scrub_cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zng_flash::{FlashGeometry, RegisterTopology};
    use zng_types::{
        ids::{ChannelId, DieId},
        Freq,
    };

    fn device() -> FlashDevice {
        FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .unwrap()
    }

    #[test]
    fn parity_member_rotates_with_the_superblock() {
        let d = device();
        let r = RainState::new(&d, RainConfig::default());
        // tiny geometry: 4 channels. Superblock k reserves member k % 4.
        assert!(r.is_parity_index(0)); // sb 0 -> member 0
        assert!(r.is_parity_index(5)); // sb 1 -> member 1
        assert!(r.is_parity_index(10)); // sb 2 -> member 2
        assert!(r.is_parity_index(15)); // sb 3 -> member 3
        assert!(r.is_parity_index(16)); // sb 4 wraps back to member 0
        assert!(!r.is_parity_index(1));
        assert!(!r.is_parity_index(4));
        let per_sb: Vec<u64> = (0..8)
            .map(|sb| {
                (sb * 4..(sb + 1) * 4)
                    .filter(|&i| r.is_parity_index(i))
                    .count() as u64
            })
            .collect();
        assert_eq!(
            per_sb,
            vec![1; 8],
            "exactly one parity member per superblock"
        );
    }

    #[test]
    fn classify_claims_parity_and_fences_dead_dies() {
        let mut d = device();
        let mut r = RainState::new(&d, RainConfig::default());
        assert_eq!(r.classify(&mut d, 0).unwrap(), Claim::Parity);
        let addr = d.geometry().block_for_index(0).unwrap();
        assert_eq!(d.block(addr).unwrap().kind(), BlockKind::Parity);
        assert_eq!(r.classify(&mut d, 1).unwrap(), Claim::Keep);
        d.fail_die(ChannelId(2), DieId(0));
        // Index 2 decodes to channel 2, die 0 in the tiny geometry.
        assert_eq!(r.classify(&mut d, 2).unwrap(), Claim::Fenced);
        assert_eq!(r.counters().fenced_blocks, 1);
    }

    #[test]
    fn reconstruction_fans_out_over_surviving_members() {
        let mut d = device();
        let mut r = RainState::new(&d, RainConfig::default());
        let geo = *d.geometry();
        // Superblock 1: members 4..8, parity member 5. Program page 0 of
        // the two data members besides index 4.
        for idx in [6u64, 7] {
            let a = geo.block_for_index(idx).unwrap();
            d.program(Cycle(0), a, 100 + idx).unwrap();
        }
        let lost = geo.block_for_index(4).unwrap();
        let t = r
            .reconstruct(Cycle(1_000_000), &mut d, FlashAddr::new(lost, 0), 128, None)
            .unwrap();
        assert!(t > Cycle(1_000_000) + RAIN_XOR_CYCLES);
        let c = r.counters();
        assert_eq!(c.reconstructions, 1);
        assert_eq!(c.reconstruction_reads, 2, "two programmed survivors sensed");
        assert_eq!(c.degraded_reads, 0, "no die died here");
    }

    #[test]
    fn reconstruction_fails_with_two_lost_members() {
        let mut d = device();
        let mut r = RainState::new(&d, RainConfig::default());
        let geo = *d.geometry();
        d.fail_die(ChannelId(2), DieId(1)); // member 6 of superblock 1
        let lost = geo.block_for_index(4).unwrap();
        assert!(matches!(
            r.reconstruct(Cycle(0), &mut d, FlashAddr::new(lost, 0), 128, None),
            Err(Error::UncorrectableRead { .. })
        ));
    }

    #[test]
    fn scrub_scan_skips_parity_and_stale_pages() {
        let mut d = device();
        let mut r = RainState::new(&d, RainConfig::default());
        let geo = *d.geometry();
        // Claim index 0 as parity and program a page into it.
        assert_eq!(r.classify(&mut d, 0).unwrap(), Claim::Parity);
        let parity = geo.block_for_index(0).unwrap();
        d.program_migrate(Cycle(0), parity, PARITY_KEY_BASE)
            .unwrap();
        // A live data page on index 1 and a stale one behind it.
        let data = geo.block_for_index(1).unwrap();
        let rep = d.program(Cycle(0), data, 7).unwrap();
        let stale = d.program(Cycle(0), data, 7).unwrap();
        d.invalidate(FlashAddr::new(data, rep.page));
        let (addr, lpn) = r.scrub_scan(&d).expect("a live page exists");
        assert_eq!(lpn, 7);
        assert_eq!(addr, FlashAddr::new(data, stale.page), "stale copy skipped");
    }

    #[test]
    fn scrub_cursor_wraps_deterministically() {
        let mut d = device();
        let mut r = RainState::new(&d, RainConfig::default());
        let geo = *d.geometry();
        let data = geo.block_for_index(1).unwrap();
        d.program(Cycle(0), data, 9).unwrap();
        let first = r.scrub_scan(&d).expect("found the page");
        // Keep scanning: after a full wrap the same page comes back.
        let mut again = None;
        for _ in 0..geo.total_blocks() {
            if let Some(hit) = r.scrub_scan(&d) {
                again = Some(hit);
                break;
            }
        }
        assert_eq!(Some(first), again);
    }
}
