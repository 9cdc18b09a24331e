//! Endurance management: background refresh, static wear levelling and
//! graceful end-of-life capacity degradation.
//!
//! Flash blocks age in two ways the demand path never repairs on its own:
//!
//! * **Read disturb** — every array sense of a block weakly stresses its
//!   sibling pages; the charge accumulates until the next erase. The
//!   media layer counts senses per block
//!   ([`zng_flash::Block::disturb_reads`]) and amplifies RBER/SDC
//!   probabilities accordingly when endurance tracking is on.
//! * **Retention** — charge leaks from programmed cells over time. Each
//!   block carries a first-programmed stamp
//!   ([`zng_flash::Block::first_programmed`]) so its oldest data's age is
//!   queryable.
//!
//! The **refresh scheduler** walks the device between demand requests
//! (driven by the platform's patrol ticker) and rewrites any block whose
//! disturb count or retention age crossed its threshold: verified reads,
//! re-program to fresh cells, remap, erase — which resets both clocks.
//! The **static wear leveler** watches the device wear spread (max/mean
//! erase fraction) and, when it exceeds the configured ratio, migrates
//! cold valid data *into* the most-worn free blocks so the freed cold
//! blocks rejoin the hot allocation pool. Both piggyback on the GC pacing
//! contract: the media work always completes, but the foreground stall
//! per step is capped at the stall budget.
//!
//! At end of life the spare pool runs dry. Without endurance management
//! the FTL surfaces the hard [`zng_types::Error::DeviceWornOut`] cliff;
//! with it, the write is refused with
//! [`zng_types::Error::CapacityDegraded`] instead — the advertised
//! capacity steps down to what is currently mapped, the refused write is
//! never acknowledged, and every previously acknowledged page stays
//! readable (reads allocate nothing).

use zng_flash::{BlockKind, FlashDevice};
use zng_types::{BlockAddr, Cycle, Error};

/// Blocks examined per refresh step before the walk yields. Bounds the
/// foreground cost of a step on an idle (no-candidate) device.
pub const REFRESH_SCAN_BLOCKS_PER_STEP: u64 = 64;

/// Endurance policy knobs for the FTL-side scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshPolicy {
    /// Disturb-read count at or above which a block is refreshed
    /// (0 disables disturb-driven refresh).
    pub disturb_threshold: u64,
    /// Retention age in cycles (now minus the block's first-programmed
    /// stamp) at or above which a block is refreshed (0 disables
    /// retention-driven refresh).
    pub retention_threshold: u64,
    /// Device wear spread (max/mean erase fraction) above which the
    /// static wear leveler migrates one cold block per step into the
    /// most-worn spare (0.0 disables static levelling).
    pub wear_spread: f64,
}

impl Default for RefreshPolicy {
    fn default() -> RefreshPolicy {
        RefreshPolicy {
            disturb_threshold: 8_192,
            retention_threshold: 2_000_000_000,
            wear_spread: 4.0,
        }
    }
}

/// Why a block was selected for refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshReason {
    /// Its accumulated disturb-read count crossed the threshold.
    Disturb,
    /// Its oldest data's retention age crossed the threshold.
    Retention,
}

/// A snapshot of the endurance subsystem's event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnduranceCounters {
    /// Blocks rewritten by the refresh scheduler.
    pub refreshes: u64,
    /// Of those, blocks refreshed for read disturb.
    pub disturb_refreshes: u64,
    /// Of those, blocks refreshed for retention age.
    pub retention_refreshes: u64,
    /// Pages moved by refresh rewrites.
    pub refreshed_pages: u64,
    /// Cold blocks migrated into worn spares by the static leveler.
    pub level_migrations: u64,
    /// Pages moved by those migrations.
    pub leveled_pages: u64,
    /// Refresh steps whose media time overran the pacing budget (the
    /// foreground stall was capped at the budget).
    pub refresh_overruns: u64,
    /// Times the advertised capacity stepped down at end of life.
    pub capacity_steps: u64,
}

/// Per-FTL endurance state: the policy, the refresh walk cursor, the
/// event counters and the advertised-capacity floor.
#[derive(Debug, Clone)]
pub(crate) struct EnduranceState {
    pub(crate) policy: RefreshPolicy,
    pub(crate) counters: EnduranceCounters,
    /// Refresh walk position as a device-global block index.
    cursor: u64,
    /// Advertised capacity in logical pages after the last end-of-life
    /// step; `None` until the first step (full capacity).
    advertised_pages: Option<u64>,
}

impl EnduranceState {
    pub(crate) fn new(policy: RefreshPolicy) -> EnduranceState {
        EnduranceState {
            policy,
            counters: EnduranceCounters::default(),
            cursor: 0,
            advertised_pages: None,
        }
    }

    /// Advances the refresh cursor over up to
    /// [`REFRESH_SCAN_BLOCKS_PER_STEP`] blocks and returns the first one
    /// whose disturb count or retention age crossed its threshold.
    ///
    /// Parity, failed, dead-die, untouched and fully-stale blocks are
    /// skipped: there is nothing (or nothing live) to preserve, and a
    /// stale block's clocks reset at its upcoming erase anyway.
    pub(crate) fn scan_candidate(
        &mut self,
        device: &FlashDevice,
        now: Cycle,
    ) -> Option<(BlockAddr, RefreshReason)> {
        let geo = device.geometry();
        let total = geo.total_blocks() as u64;
        if total == 0 {
            return None;
        }
        let limit = REFRESH_SCAN_BLOCKS_PER_STEP.min(total);
        for _ in 0..limit {
            let idx = self.cursor % total;
            self.cursor = (idx + 1) % total;
            let Ok(addr) = geo.block_for_index(idx) else {
                continue;
            };
            if device.die_is_dead(addr.channel, addr.die) {
                continue;
            }
            let Some(b) = device.block(addr) else {
                continue;
            };
            if b.kind() == BlockKind::Parity
                || b.kind() == BlockKind::Checkpoint
                || b.is_failed()
                || b.programmed_pages() == 0
                || b.valid_pages() == 0
            {
                continue;
            }
            if self.policy.disturb_threshold > 0
                && b.disturb_reads() >= self.policy.disturb_threshold
            {
                return Some((addr, RefreshReason::Disturb));
            }
            if self.policy.retention_threshold > 0 {
                if let Some(fp) = b.first_programmed() {
                    if now.raw().saturating_sub(fp.raw()) >= self.policy.retention_threshold {
                        return Some((addr, RefreshReason::Retention));
                    }
                }
            }
        }
        None
    }

    /// Whether the device wear spread warrants a static-levelling
    /// migration this step.
    pub(crate) fn wants_levelling(&self, device: &FlashDevice) -> bool {
        self.policy.wear_spread > 0.0 && device.endurance().wear_spread() > self.policy.wear_spread
    }

    /// Charges one refresh to the counters.
    pub(crate) fn note_refresh(&mut self, reason: RefreshReason, pages: u64) {
        self.counters.refreshes += 1;
        self.counters.refreshed_pages += pages;
        match reason {
            RefreshReason::Disturb => self.counters.disturb_refreshes += 1,
            RefreshReason::Retention => self.counters.retention_refreshes += 1,
        }
    }

    /// Charges one static-levelling migration to the counters.
    pub(crate) fn note_levelling(&mut self, pages: u64) {
        self.counters.level_migrations += 1;
        self.counters.leveled_pages += pages;
    }

    /// Restarts the refresh walk from block zero after a crash recovery,
    /// for determinism (mirroring the patrol scrubber). The policy, the
    /// counters and the advertised-capacity floor survive: they describe
    /// the device, not the lost volatile mapping state.
    pub(crate) fn reset_after_recovery(&mut self) {
        self.cursor = 0;
    }

    /// Converts an end-of-life allocator failure into the graceful
    /// capacity-degradation error: the advertised capacity steps down to
    /// `mapped_pages` (counted once per shrink) and the caller surfaces
    /// [`Error::CapacityDegraded`] instead of the hard cliff. Any other
    /// error passes through untouched.
    pub(crate) fn degrade(&mut self, e: Error, mapped_pages: u64) -> Error {
        if !matches!(e, Error::DeviceWornOut { .. }) {
            return e;
        }
        match self.advertised_pages {
            Some(adv) if adv <= mapped_pages => {}
            _ => {
                self.advertised_pages = Some(mapped_pages);
                self.counters.capacity_steps += 1;
            }
        }
        Error::CapacityDegraded {
            remaining_pages: mapped_pages,
        }
    }
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
            RegisterTopology::NiF,
        )
        .unwrap()
    }

    #[test]
    fn scan_finds_disturbed_and_aged_blocks() {
        let mut d = device();
        d.set_endurance_tracking(Some(1));
        let geo = *d.geometry();
        let a = geo.block_for_index(3).unwrap();
        d.program(Cycle(0), a, 7).unwrap();
        d.program(Cycle(0), a, 8).unwrap();
        let mut st = EnduranceState::new(RefreshPolicy {
            disturb_threshold: 4,
            retention_threshold: 1_000_000,
            wear_spread: 0.0,
        });
        // Young and undisturbed: nothing to do.
        assert_eq!(st.scan_candidate(&d, Cycle(10)), None);
        // Cross the disturb threshold via repeated array senses:
        // alternating pages defeat the plane's sense latch and distinct
        // lookup keys defeat the register cache, so every read senses.
        for i in 0..8u64 {
            let _ = d.read(
                Cycle(1_000_000_000),
                zng_types::FlashAddr::new(a, (i % 2) as u32),
                1_000 + i,
                128,
            );
        }
        st.cursor = 0;
        assert_eq!(
            st.scan_candidate(&d, Cycle(10)),
            Some((a, RefreshReason::Disturb))
        );
        // With disturb disabled, the same block trips on retention age.
        let mut st = EnduranceState::new(RefreshPolicy {
            disturb_threshold: 0,
            retention_threshold: 1_000_000,
            wear_spread: 0.0,
        });
        assert_eq!(
            st.scan_candidate(&d, Cycle(2_000_000)),
            Some((a, RefreshReason::Retention))
        );
    }

    #[test]
    fn scan_skips_stale_failed_and_parity_blocks() {
        let mut d = device();
        d.set_endurance_tracking(Some(1));
        let geo = *d.geometry();
        let a = geo.block_for_index(5).unwrap();
        let rep = d.program(Cycle(0), a, 9).unwrap();
        d.invalidate(zng_types::FlashAddr::new(a, rep.page));
        let mut st = EnduranceState::new(RefreshPolicy {
            disturb_threshold: 0,
            retention_threshold: 1,
            wear_spread: 0.0,
        });
        // The only programmed block is fully stale: nothing to refresh.
        for _ in 0..(geo.total_blocks() as u64 / REFRESH_SCAN_BLOCKS_PER_STEP + 2) {
            assert_eq!(st.scan_candidate(&d, Cycle(1_000_000_000)), None);
        }
    }

    #[test]
    fn degrade_steps_capacity_once_per_shrink() {
        let mut st = EnduranceState::new(RefreshPolicy::default());
        let worn = Error::DeviceWornOut { retired_blocks: 9 };
        match st.degrade(worn.clone(), 640) {
            Error::CapacityDegraded { remaining_pages } => assert_eq!(remaining_pages, 640),
            other => panic!("expected CapacityDegraded, got {other:?}"),
        }
        assert_eq!(st.counters.capacity_steps, 1);
        // Refusing again at the same capacity is not a new step.
        st.degrade(worn.clone(), 640);
        assert_eq!(st.counters.capacity_steps, 1);
        // A larger mapped count later (more preloads) is not a shrink.
        st.degrade(worn, 700);
        assert_eq!(st.counters.capacity_steps, 1);
        // Other errors pass through untouched.
        match st.degrade(Error::OutOfSpace, 640) {
            Error::OutOfSpace => {}
            other => panic!("expected OutOfSpace, got {other:?}"),
        }
    }
}
