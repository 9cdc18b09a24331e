//! Checkpoint capture and fast-path recovery property tests.
//!
//! A checkpoint's media image and the recovery fast path both trust one
//! *rescan set*: the blocks open at the capture, the checkpoint blocks
//! written since, and every block the journal names `Touched`. A block
//! whose media changes outside that set leaves a stale image behind.
//!
//! Over arbitrary demand traffic (reads and writes) on both FTLs, this
//! lane varies the fault profile, silent-corruption injection on reads,
//! RAIN redundancy with patrol scrub, endurance management (refresh and
//! static levelling), the checkpoint cadence, a small journal cap (the
//! overflow fallback), epochs aborted by media failures, a die failure
//! and the crash point, and checks:
//!
//! 1. every checkpoint capture equals a full-device OOB scan and every
//!    fast-path recovery rebuilds the image a full scan of the same
//!    media would: `zng-ftl`'s debug assertions compare both on every
//!    call, and this lane runs them in test builds;
//! 2. the checkpointed recovery, fast path or fallback, rebuilds exactly
//!    the mapping, free pool and report totals that a checkpoint-less
//!    full-scan recovery of the same crashed media rebuilds.

use proptest::prelude::*;
use zng_flash::{FaultConfig, FlashDevice, FlashGeometry, RegisterTopology, SdcConfig};
use zng_ftl::{
    CheckpointConfig, Ftl, PageMapFtl, RainConfig, RecoveryReport, RefreshPolicy, WriteMode, ZngFtl,
};
use zng_types::{ChannelId, Cycle, DieId, Error, Freq};

/// One generated scenario.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    profile: u8,
    seed: u64,
    sdc: bool,
    rain: bool,
    endurance: bool,
    every: usize,
    journal_cap: u64,
    fail_die_at: Option<usize>,
    crash_at: usize,
    settle: bool,
}

/// Silent-corruption rate per sensed read: high enough that a short
/// run miscorrects closed blocks between checkpoints.
const SDC_RATE: f64 = 0.2;

fn device(s: &Scenario) -> FlashDevice {
    let mut d = FlashDevice::zng_config(
        FlashGeometry::tiny(),
        Freq::default(),
        RegisterTopology::NiF,
    )
    .unwrap();
    let cfg = match s.profile {
        0 => FaultConfig::none(),
        1 => FaultConfig::nominal().with_seed(s.seed),
        _ => FaultConfig::end_of_life().with_seed(s.seed),
    };
    d.set_fault_config(&cfg);
    if s.sdc {
        d.set_integrity_config(&SdcConfig {
            rate: SDC_RATE,
            sdc_at: None,
            seed: s.seed,
        });
    }
    d
}

/// Errors a step may legitimately end with under injected faults; the
/// lane is about the images, not about these paths.
fn tolerated(e: &Error) -> bool {
    matches!(
        e,
        Error::UncorrectableRead { .. }
            | Error::IntegrityViolation { .. }
            | Error::FlashProtocol(_)
            | Error::DeviceWornOut { .. }
            | Error::OutOfSpace
            | Error::CapacityDegraded { .. }
    )
}

/// Whether `e` means the device has no room left for more traffic.
fn exhausted(e: &Error) -> bool {
    matches!(
        e,
        Error::DeviceWornOut { .. } | Error::OutOfSpace | Error::CapacityDegraded { .. }
    )
}

/// Folds a step's outcome into the clock: `Ok(Some(t))` continues at
/// `t`, `Ok(None)` stops the traffic, an untolerated error fails.
fn step(t: Cycle, r: zng_types::Result<Cycle>, what: &str) -> Result<Option<Cycle>, TestCaseError> {
    match r {
        Ok(done) => Ok(Some(t.max(done))),
        Err(e) if exhausted(&e) => Ok(None),
        Err(e) if tolerated(&e) => Ok(Some(t)),
        Err(e) => Err(TestCaseError::fail(format!("{what} failed: {e}"))),
    }
}

/// Drives `ops` (`(is_read, key)`) up to the crash point with every
/// configured subsystem stepping between requests, cuts power, and
/// compares the checkpointed recovery with a full-scan twin. Returns the
/// checkpointed recovery's report and the silent corruptions injected.
fn check<F: Ftl + Clone>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    s: Scenario,
    ops: &[(bool, u64)],
) -> Result<(RecoveryReport, u64), TestCaseError> {
    let mut d = device(&s);
    let mut f = new_ftl(&d);
    if s.rain {
        f.set_redundancy(&d, Some(RainConfig::default()));
    }
    f.set_integrity(s.sdc);
    if s.endurance {
        // Levelling triggers on a small spread, so merges and erases
        // make it pick victims throughout the run.
        f.set_endurance(Some(RefreshPolicy {
            disturb_threshold: 32,
            retention_threshold: 0,
            wear_spread: 1.2,
        }));
    }
    f.set_checkpointing(Some(CheckpointConfig {
        journal_cap: s.journal_cap,
    }));

    let mut t = Cycle::ZERO;
    let crash_at = s.crash_at.min(ops.len());
    for (i, &(is_read, key)) in ops[..crash_at].iter().enumerate() {
        if s.rain && s.fail_die_at == Some(i) {
            d.fail_die(ChannelId(1), DieId(0));
            let Some(next) = step(t, f.fence_dead_die(t, &mut d), "fence")? else {
                break;
            };
            let rebuilt = f.rebuild_dead_die(next, &mut d).map(|(done, _)| done);
            let Some(next) = step(next, rebuilt, "rebuild")? else {
                break;
            };
            t = next;
        }
        let r = if is_read {
            f.read(t, &mut d, key, 128)
        } else {
            f.write(t, &mut d, key).map(|w| w.done)
        };
        let Some(next) = step(t, r, if is_read { "read" } else { "write" })? else {
            break;
        };
        t = next;
        if s.rain {
            let Some(next) = step(t, f.scrub_step(t, &mut d), "scrub")? else {
                break;
            };
            t = next;
        }
        if s.endurance {
            let Some(next) = step(t, f.refresh_step(t, &mut d), "refresh")? else {
                break;
            };
            t = next;
        }
        if (i + 1) % s.every == 0 {
            t = t.max(f.checkpoint_step(t, &mut d));
        }
    }

    let t_cut = if s.settle { t + Cycle(10_000_000) } else { t };
    let mut d_full = d.clone();
    let mut f_full = f.clone();
    d.power_loss(t_cut);
    let report = f
        .recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;
    prop_assert!(
        report.fast_path || report.fallback,
        "a checkpointed recovery must report its path: {report:?}"
    );

    f_full.set_checkpointing(None);
    d_full.power_loss(t_cut);
    let full = f_full
        .recover(t_cut, &mut d_full)
        .map_err(|e| TestCaseError::fail(format!("full-scan recovery failed: {e}")))?;
    prop_assert!(!full.fast_path && !full.fallback);
    prop_assert_eq!(report.torn_discarded, full.torn_discarded);
    prop_assert_eq!(report.corrupt_quarantined, full.corrupt_quarantined);
    prop_assert_eq!(report.stale_dropped, full.stale_dropped);
    prop_assert_eq!(report.blocks_erased, full.blocks_erased);
    prop_assert_eq!(f.free_blocks(), f_full.free_blocks());
    for &(_, key) in ops {
        prop_assert_eq!(
            f.locate(key),
            f_full.locate(key),
            "checkpointed recovery diverged from the full scan for key {}",
            key
        );
    }
    Ok((report, d.stats().silent_corruptions()))
}

/// A `ZngFtl` constructor with two data blocks per log block.
fn zng(d: &FlashDevice) -> ZngFtl {
    ZngFtl::new(d, 2, WriteMode::Direct)
}

/// Builds a scenario from the generated knobs.
#[allow(clippy::too_many_arguments)]
fn scenario(
    profile: u8,
    seed: u64,
    flags: (bool, bool, bool, bool),
    every: usize,
    cap_sel: usize,
    fail_die_at: usize,
    crash_at: usize,
) -> Scenario {
    let (sdc, rain, endurance, settle) = flags;
    Scenario {
        profile,
        seed,
        sdc,
        rain,
        endurance,
        every,
        // 0 is unbounded; 6 and 24 overflow within one epoch.
        journal_cap: [0u64, 6, 24, 512][cap_sel],
        fail_die_at: (fail_die_at < 160).then_some(fail_die_at),
        crash_at,
        settle,
    }
}

/// Three reads to every write: reads are what miscorrect pages in
/// closed blocks.
fn reads_and_writes(ops: &[(u8, u64)]) -> Vec<(bool, u64)> {
    ops.iter().map(|&(kind, key)| (kind > 0, key)).collect()
}

proptest! {
    /// ZnG FTL: every capture and fast-path recovery matches a full scan.
    #[test]
    fn zng_captures_and_recoveries_match_full_scan(
        profile in 0u8..3,
        seed in 0u64..64,
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        every in 2usize..24,
        cap_sel in 0usize..4,
        fail_die_at in 0usize..320,
        crash_at in 0usize..160,
        ops in prop::collection::vec((0u8..4, 0u64..64), 1..160),
    ) {
        let s = scenario(profile, seed, flags, every, cap_sel, fail_die_at, crash_at);
        check(zng, s, &reads_and_writes(&ops))?;
    }

    /// Page-map FTL: same invariants.
    #[test]
    fn pagemap_captures_and_recoveries_match_full_scan(
        profile in 0u8..3,
        seed in 0u64..64,
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        every in 2usize..24,
        cap_sel in 0usize..4,
        fail_die_at in 0usize..320,
        crash_at in 0usize..160,
        ops in prop::collection::vec((0u8..4, 0u64..128), 1..160),
    ) {
        let s = scenario(profile, seed, flags, every, cap_sel, fail_die_at, crash_at);
        check(PageMapFtl::new, s, &reads_and_writes(&ops))?;
    }
}

/// Silent corruption on reads between checkpoints, with the fast path
/// taken: the case the rescan set once missed. A write prefix leaves
/// closed blocks behind; the reads that follow miscorrect pages in them,
/// and integrity verification detects and heals each one.
#[test]
fn read_miscorrections_in_closed_blocks_keep_the_fast_path_exact() {
    let mut exercised = 0;
    for seed in 0..4 {
        for rain in [false, true] {
            let s = Scenario {
                profile: 0,
                seed,
                sdc: true,
                rain,
                endurance: false,
                every: 50,
                journal_cap: 0,
                fail_die_at: None,
                crash_at: usize::MAX,
                settle: true,
            };
            // ZnG: group 0 takes the writes, group 1's data block is
            // only ever read.
            let ops: Vec<(bool, u64)> = (0..16u64)
                .map(|k| (false, k))
                .chain((0..120u64).map(|i| (true, 32 + i % 16)))
                .collect();
            let (report, corruptions) = check(zng, s, &ops).unwrap();
            exercised += usize::from(report.fast_path && corruptions > 0);
            // Page map: four sealed blocks, then reads of the first.
            let ops: Vec<(bool, u64)> = (0..64u64)
                .map(|k| (false, k))
                .chain((0..120u64).map(|i| (true, i % 16)))
                .collect();
            let (report, corruptions) = check(PageMapFtl::new, s, &ops).unwrap();
            exercised += usize::from(report.fast_path && corruptions > 0);
        }
    }
    assert!(
        exercised > 0,
        "no case miscorrected a page and took the fast path"
    );
}
