//! GC pacing: bounding how long a log-block merge may stall foreground
//! traffic.
//!
//! A full log-block merge can take hundreds of microseconds; without
//! pacing the victim application is blocked for the whole merge (ZnG's
//! baseline behaviour, paper §V-A / Fig. 17). Under overload control the
//! FTL instead publishes a *blocking deadline* alongside every merge: the
//! victim is stalled no longer than the configured budget, and the runner
//! additionally enforces a *credit* — the number of foreground events one
//! merge may stall — so end-of-life fault profiles (whose merges re-drive
//! and restart) degrade gracefully instead of collapsing. Merges that
//! outlive their deadline are counted as deadline misses; the media work
//! itself always completes (plane reservations are unaffected), only the
//! foreground stall is capped.
//!
//! The background maintenance steps (scrub, refresh, checkpoint, health)
//! share the same contract: the FTL core stores one [`GcPacing`] and
//! every paced stall goes through one function, `pace`.

use zng_types::Cycle;

/// Pacing policy for log-block merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPacing {
    /// Longest foreground stall one merge may impose. A merge finishing
    /// later than `started + stall_budget` is a deadline miss and blocks
    /// only up to the deadline.
    pub stall_budget: Cycle,
}

impl GcPacing {
    /// The blocking deadline for a merge that started at `started`.
    pub fn deadline(&self, started: Cycle) -> Cycle {
        started + self.stall_budget
    }
}

/// The foreground stall of work that ran from `started` to `done`: the
/// whole of it without a `contract`, else capped at the contract's
/// deadline, in which case `overruns` counts one more overrun.
pub(crate) fn pace(
    contract: Option<GcPacing>,
    started: Cycle,
    done: Cycle,
    overruns: &mut u64,
) -> Cycle {
    match contract {
        Some(p) if done > p.deadline(started) => {
            *overruns += 1;
            p.deadline(started)
        }
        _ => done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_start_plus_budget() {
        let p = GcPacing {
            stall_budget: Cycle(10_000),
        };
        assert_eq!(p.deadline(Cycle(500)), Cycle(10_500));
    }

    #[test]
    fn pace_caps_the_stall_and_counts_overruns() {
        let p = Some(GcPacing {
            stall_budget: Cycle(1_000),
        });
        let mut overruns = 0;
        assert_eq!(pace(p, Cycle(0), Cycle(500), &mut overruns), Cycle(500));
        assert_eq!(pace(p, Cycle(0), Cycle(1_000), &mut overruns), Cycle(1_000));
        assert_eq!(overruns, 0, "work inside the budget is no overrun");
        assert_eq!(pace(p, Cycle(0), Cycle(5_000), &mut overruns), Cycle(1_000));
        assert_eq!(pace(p, Cycle(0), Cycle(9_000), &mut overruns), Cycle(1_000));
        assert_eq!(overruns, 2);
        // Without a contract the stall is the whole step.
        assert_eq!(
            pace(None, Cycle(0), Cycle(9_000), &mut overruns),
            Cycle(9_000)
        );
        assert_eq!(overruns, 2);
    }
}
