//! Predictive die-health monitoring, suspect quarantine and pre-emptive
//! evacuation.
//!
//! A die rarely fails out of nowhere: its raw bit error rate creeps up
//! first, surfacing as deeper read-retry ladders, program verification
//! failures and the odd uncorrectable sense. The media layer rolls those
//! signals up per die ([`zng_flash::DieHealth`]); this module turns them
//! into action *before* the die dies:
//!
//! * **Scoring** — each maintenance tick folds the per-die telemetry
//!   delta into a health score (retry-depth EWMA, windowed program/erase
//!   failure fractions, uncorrectable fraction). A die whose score
//!   crosses the suspect threshold — after at least
//!   [`HealthPolicy::window`] lifetime observations, so cold dies are
//!   never flagged on noise — is **quarantined**.
//! * **Quarantine** — the allocation chokepoints stop placing new blocks
//!   on a quarantined die (candidate blocks are *parked*, not retired:
//!   quarantine is reversible), and reads that still target it get an
//!   elevated retry budget ([`QUARANTINE_EXTRA_READ_ATTEMPTS`]).
//! * **Evacuation** — when enabled, the maintenance tick migrates live
//!   data off suspects onto healthy spares, one victim per step, reusing
//!   the same crash-safe migration machinery as refresh and dead-die
//!   rebuild (journalled, checkpoint-aware, corrupt flags move along and
//!   are never laundered). Foreground stalls are capped by the GC pacing
//!   contract; the media work always completes.
//! * **Rehabilitation** — a suspect that stays clean for
//!   [`REHAB_CLEAN_TICKS`] consecutive observed ticks was a false
//!   positive: it leaves quarantine and its parked blocks rejoin the
//!   allocation pool.
//!
//! When the die finally dies (the degrading-die fault mode latches it
//! dead), the monitor notices on its next tick and runs the existing
//! fence + rebuild machinery. A completed evacuation means the death
//! costs nothing: no live page remains on the die, so no read ever hits
//! dead silicon.

use zng_flash::DieHealth;

use std::collections::{BTreeMap, BTreeSet};

/// Extra read-retry attempts granted to reads that target a quarantined
/// die, on top of the normal ladder: the die is noisy but its data may
/// still be recoverable with patience, and every sense that succeeds is
/// one fewer stripe reconstruction.
pub const QUARANTINE_EXTRA_READ_ATTEMPTS: u32 = 4;

/// Consecutive clean observed ticks after which a suspect is
/// rehabilitated back into service. Ticks without read observations are
/// neutral: they neither count toward nor reset the streak.
pub const REHAB_CLEAN_TICKS: u32 = 4;

/// Health policy knobs for the FTL-side monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Minimum lifetime observations (reads + programs) of a die before
    /// it is scored; below this the sample is too small to accuse.
    pub window: u64,
    /// Health score in `[0, 1]` above which a die becomes a suspect.
    pub suspect_threshold: f64,
    /// Pre-emptively migrate live data off suspects onto healthy spares.
    pub evacuate: bool,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            window: 64,
            suspect_threshold: 0.15,
            evacuate: true,
        }
    }
}

/// A snapshot of the health subsystem's event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Dies flagged as suspects (each flagging counts, including a
    /// re-flag after rehabilitation).
    pub suspects_flagged: u64,
    /// Pages migrated off suspect dies by pre-emptive evacuation.
    pub pages_evacuated: u64,
    /// Suspect dies fully drained of live data.
    pub evacuations_completed: u64,
    /// Suspects cleared as false positives and returned to service.
    pub rehabilitations: u64,
    /// Evacuation steps whose media time overran the pacing budget (the
    /// foreground stall was capped at the budget).
    pub evacuation_overruns: u64,
    /// Dead dies the monitor noticed and fenced.
    pub dead_dies_fenced: u64,
}

/// Per-die tracking: the last telemetry snapshot (for windowed deltas)
/// and the clean streak while under suspicion.
#[derive(Debug, Clone, Copy, Default)]
struct DieTrack {
    last: DieHealth,
    clean_ticks: u32,
}

/// Per-FTL health state: policy, counters, per-die tracks, the
/// quarantine set and the parked-block ledger.
#[derive(Debug, Clone)]
pub(crate) struct HealthState {
    pub(crate) policy: HealthPolicy,
    pub(crate) counters: HealthCounters,
    tracks: BTreeMap<(u16, u16), DieTrack>,
    /// Quarantined dies: no new allocations, elevated read retries.
    suspects: BTreeSet<(u16, u16)>,
    /// Suspects whose evacuation has completed (no live data remains).
    evacuated: BTreeSet<(u16, u16)>,
    /// Allocator indices parked because their block sits on a
    /// quarantined die; released back on rehabilitation.
    parked: BTreeMap<u64, (u16, u16)>,
    /// Dead dies already fenced by the monitor (fence + rebuild run
    /// once per death, not once per tick).
    fenced_dead: BTreeSet<(u16, u16)>,
}

impl HealthState {
    pub(crate) fn new(policy: HealthPolicy) -> HealthState {
        HealthState {
            policy,
            counters: HealthCounters::default(),
            tracks: BTreeMap::new(),
            suspects: BTreeSet::new(),
            evacuated: BTreeSet::new(),
            parked: BTreeMap::new(),
            fenced_dead: BTreeSet::new(),
        }
    }

    /// Whether `(channel, die)` is currently quarantined.
    pub(crate) fn is_quarantined(&self, key: (u16, u16)) -> bool {
        self.suspects.contains(&key)
    }

    /// The quarantined dies, sorted (deterministic reporting order).
    pub(crate) fn quarantined(&self) -> Vec<(u16, u16)> {
        self.suspects.iter().copied().collect()
    }

    /// Health score of one die from its lifetime snapshot and the delta
    /// since the previous tick: the self-decaying retry-depth EWMA plus
    /// windowed program/erase-failure and uncorrectable fractions.
    fn score(cur: &DieHealth, delta: &DieHealth) -> f64 {
        let max = zng_flash::MAX_READ_RETRIES as f64;
        let ewma = (cur.retry_ewma / max).min(1.0);
        let pf = if delta.programs + delta.program_failures > 0 {
            delta.program_failures as f64 / (delta.programs + delta.program_failures) as f64
        } else {
            0.0
        };
        let ef = if delta.erases + delta.erase_failures > 0 {
            delta.erase_failures as f64 / (delta.erases + delta.erase_failures) as f64
        } else {
            0.0
        };
        let unc = if delta.reads > 0 {
            (delta.uncorrectable_reads as f64 / delta.reads as f64).min(1.0)
        } else {
            0.0
        };
        0.5 * ewma + 0.3 * pf.max(ef) + 0.2 * unc
    }

    /// One scoring pass over the per-die telemetry: flags new suspects,
    /// advances clean streaks, and returns the dies rehabilitated this
    /// tick (the caller releases their parked blocks).
    pub(crate) fn observe(
        &mut self,
        dies: &[((u16, u16), DieHealth)],
        dead: &[(u16, u16)],
    ) -> Vec<(u16, u16)> {
        let mut rehabbed = Vec::new();
        for &(key, cur) in dies {
            let track = self.tracks.entry(key).or_default();
            let last = track.last;
            let delta = DieHealth {
                reads: cur.reads.saturating_sub(last.reads),
                retry_steps: cur.retry_steps.saturating_sub(last.retry_steps),
                retry_ewma: cur.retry_ewma,
                uncorrectable_reads: cur
                    .uncorrectable_reads
                    .saturating_sub(last.uncorrectable_reads),
                programs: cur.programs.saturating_sub(last.programs),
                program_failures: cur.program_failures.saturating_sub(last.program_failures),
                erases: cur.erases.saturating_sub(last.erases),
                erase_failures: cur.erase_failures.saturating_sub(last.erase_failures),
                disturb_reads: cur.disturb_reads.saturating_sub(last.disturb_reads),
            };
            track.last = cur;
            if dead.contains(&key) {
                continue; // past suspicion: the death path owns it now
            }
            let score = HealthState::score(&cur, &delta);
            if self.suspects.contains(&key) {
                let dirty = delta.program_failures > 0
                    || delta.erase_failures > 0
                    || delta.uncorrectable_reads > 0
                    || score >= self.policy.suspect_threshold / 2.0;
                if dirty {
                    track.clean_ticks = 0;
                } else if delta.reads > 0 {
                    // Observed and clean; silence alone proves nothing.
                    track.clean_ticks += 1;
                    if track.clean_ticks >= REHAB_CLEAN_TICKS {
                        track.clean_ticks = 0;
                        self.suspects.remove(&key);
                        self.evacuated.remove(&key);
                        self.counters.rehabilitations += 1;
                        rehabbed.push(key);
                    }
                }
            } else if cur.reads + cur.programs >= self.policy.window
                && score > self.policy.suspect_threshold
            {
                self.suspects.insert(key);
                track.clean_ticks = 0;
                self.counters.suspects_flagged += 1;
            }
        }
        rehabbed
    }

    /// Parks an allocator index skipped because its block sits on a
    /// quarantined die.
    pub(crate) fn park(&mut self, idx: u64, key: (u16, u16)) {
        self.parked.insert(idx, key);
    }

    /// Drains the indices parked for `key`, in ascending order, for
    /// release back into the allocation pool.
    pub(crate) fn unpark(&mut self, key: (u16, u16)) -> Vec<u64> {
        let idxs: Vec<u64> = self
            .parked
            .iter()
            .filter(|(_, &k)| k == key)
            .map(|(&i, _)| i)
            .collect();
        for i in &idxs {
            self.parked.remove(i);
        }
        idxs
    }

    /// Notes a die's death the first time the monitor sees it; returns
    /// whether the fence + rebuild machinery should run for it.
    pub(crate) fn note_dead(&mut self, key: (u16, u16)) -> bool {
        if !self.fenced_dead.insert(key) {
            return false;
        }
        self.suspects.remove(&key);
        self.counters.dead_dies_fenced += 1;
        true
    }

    /// Charges evacuated pages to the counters.
    pub(crate) fn note_evacuated(&mut self, pages: u64) {
        self.counters.pages_evacuated += pages;
    }

    /// Marks a suspect's evacuation complete (counted once per die).
    pub(crate) fn mark_evacuated(&mut self, key: (u16, u16)) {
        if self.suspects.contains(&key) && self.evacuated.insert(key) {
            self.counters.evacuations_completed += 1;
        }
    }

    /// Whether `key`'s evacuation already completed.
    #[cfg(test)]
    pub(crate) fn is_evacuated(&self, key: (u16, u16)) -> bool {
        self.evacuated.contains(&key)
    }

    /// Clears the parked-block ledger after a crash recovery: the
    /// allocator was rebuilt from the media scan, so parked indices no
    /// longer exist in it (an allocated-but-never-programmed block looks
    /// untouched to the scan). Quarantine verdicts, tracks and counters
    /// survive — they describe the silicon, not the lost mapping state.
    pub(crate) fn reset_after_recovery(&mut self) {
        self.parked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(reads: u64, ewma: f64, programs: u64, failures: u64) -> DieHealth {
        DieHealth {
            reads,
            retry_steps: (reads as f64 * ewma) as u64,
            retry_ewma: ewma,
            uncorrectable_reads: 0,
            programs,
            program_failures: failures,
            erases: 0,
            erase_failures: 0,
            disturb_reads: 0,
        }
    }

    #[test]
    fn cold_dies_are_never_flagged_inside_the_window() {
        let mut st = HealthState::new(HealthPolicy {
            window: 100,
            suspect_threshold: 0.1,
            ..HealthPolicy::default()
        });
        // Terrible score but only 10 observations: too few to accuse.
        let dies = [((0, 0), noisy(5, 4.0, 5, 5))];
        assert!(st.observe(&dies, &[]).is_empty());
        assert!(!st.is_quarantined((0, 0)));
        assert_eq!(st.counters.suspects_flagged, 0);
    }

    #[test]
    fn noisy_die_is_flagged_and_healthy_sibling_is_not() {
        let mut st = HealthState::new(HealthPolicy {
            window: 64,
            suspect_threshold: 0.15,
            ..HealthPolicy::default()
        });
        let dies = [
            ((0, 0), noisy(200, 2.0, 100, 30)),
            ((0, 1), noisy(200, 0.01, 100, 0)),
        ];
        st.observe(&dies, &[]);
        assert!(st.is_quarantined((0, 0)));
        assert!(!st.is_quarantined((0, 1)));
        assert_eq!(st.counters.suspects_flagged, 1);
        assert_eq!(st.quarantined(), vec![(0, 0)]);
    }

    #[test]
    fn dead_dies_leave_suspicion_and_fence_once() {
        let mut st = HealthState::new(HealthPolicy::default());
        let dies = [((1, 2), noisy(200, 3.0, 100, 60))];
        st.observe(&dies, &[]);
        assert!(st.is_quarantined((1, 2)));
        assert!(st.note_dead((1, 2)));
        assert!(!st.is_quarantined((1, 2)));
        assert!(!st.note_dead((1, 2)), "fence runs once per death");
        assert_eq!(st.counters.dead_dies_fenced, 1);
        // A dead die is never re-flagged, however bad its telemetry.
        st.observe(&dies, &[(1, 2)]);
        assert!(!st.is_quarantined((1, 2)));
    }

    #[test]
    fn clean_streak_rehabilitates_and_releases_parked_blocks() {
        let mut st = HealthState::new(HealthPolicy {
            window: 64,
            suspect_threshold: 0.15,
            ..HealthPolicy::default()
        });
        let mut cur = noisy(200, 2.0, 100, 30);
        st.observe(&[((0, 0), cur)], &[]);
        assert!(st.is_quarantined((0, 0)));
        st.park(7, (0, 0));
        st.park(3, (0, 0));
        st.park(9, (4, 4));
        // The EWMA decays and the deltas stay failure-free: clean ticks.
        cur.retry_ewma = 0.01;
        for tick in 0..REHAB_CLEAN_TICKS {
            assert!(
                st.is_quarantined((0, 0)),
                "still quarantined before tick {tick}"
            );
            cur.reads += 10;
            st.observe(&[((0, 0), cur)], &[]);
        }
        assert!(!st.is_quarantined((0, 0)));
        assert_eq!(st.counters.rehabilitations, 1);
        assert_eq!(st.unpark((0, 0)), vec![3, 7]);
        assert_eq!(st.unpark((0, 0)), Vec::<u64>::new());
        // Another die's parked blocks are untouched.
        assert_eq!(st.unpark((4, 4)), vec![9]);
    }

    #[test]
    fn unobserved_ticks_neither_advance_nor_reset_the_streak() {
        let mut st = HealthState::new(HealthPolicy {
            window: 64,
            suspect_threshold: 0.15,
            ..HealthPolicy::default()
        });
        let mut cur = noisy(200, 2.0, 100, 30);
        st.observe(&[((0, 0), cur)], &[]);
        cur.retry_ewma = 0.01;
        cur.reads += 10;
        st.observe(&[((0, 0), cur)], &[]); // one clean observed tick
        for _ in 0..20 {
            st.observe(&[((0, 0), cur)], &[]); // no new reads: neutral
        }
        assert!(st.is_quarantined((0, 0)), "silence must not rehabilitate");
        for _ in 0..REHAB_CLEAN_TICKS {
            cur.reads += 10;
            st.observe(&[((0, 0), cur)], &[]);
        }
        assert!(!st.is_quarantined((0, 0)));
    }

    #[test]
    fn evacuation_completion_counts_once() {
        let mut st = HealthState::new(HealthPolicy::default());
        st.observe(&[((0, 0), noisy(200, 3.0, 100, 60))], &[]);
        st.note_evacuated(24);
        st.mark_evacuated((0, 0));
        st.mark_evacuated((0, 0));
        st.mark_evacuated((5, 5)); // not a suspect: no completion
        assert!(st.is_evacuated((0, 0)));
        assert_eq!(st.counters.pages_evacuated, 24);
        assert_eq!(st.counters.evacuations_completed, 1);
    }
}
