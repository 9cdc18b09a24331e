//! Crash-consistency property tests (the PR's headline invariant).
//!
//! For an arbitrary workload, an arbitrary crash point, and any fault
//! profile, on both FTLs:
//!
//! 1. **Durability**: every write whose array program had completed by
//!    the cut is readable after recovery with contents no older than the
//!    last completed version (OOB lpn matches, stamp did not roll back).
//! 2. **No torn page served**: the post-recovery read path never
//!    surfaces a torn page.
//! 3. **Idempotence**: cutting power again straight after recovery and
//!    recovering a second time reproduces the exact same mapping state.
//! 4. **Determinism**: recovering two clones of the same crashed device
//!    yields identical reports and mappings.
//!
//! Durability is judged from the device's own out-of-band metadata at
//! the instant of the cut: a version with `programmed_at <= T_cut` (or a
//! non-demand GC/preload copy) is durable. The erase barrier can make
//! *more* versions durable than this lower bound, never fewer, so the
//! assertion `recovered seq >= durable seq` stays sound.

use std::collections::HashMap;

use proptest::prelude::*;
use zng_flash::{FaultConfig, FaultProfile, FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl, PageMapFtl, WriteMode, ZngFtl};
use zng_types::{Cycle, Error, Freq};

fn device(profile: u8, seed: u64, degrading: bool) -> FlashDevice {
    let mut d = FlashDevice::zng_config(
        FlashGeometry::tiny(),
        Freq::default(),
        RegisterTopology::NiF,
    )
    .unwrap();
    let mut cfg = match profile {
        0 => FaultConfig::none(),
        1 => FaultConfig::nominal().with_seed(seed),
        _ => FaultConfig::end_of_life().with_seed(seed),
    };
    if degrading {
        // A long, shallow ramp: the die gets noisy enough to be flagged
        // while writes run, but never actually dies within test time.
        cfg = cfg.with_degrading(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset: 0,
            death: 200_000_000,
        });
    }
    d.set_fault_config(&cfg);
    d
}

/// The lower-bound durable version of each logical page at cut time
/// `t_cut`: the highest-stamped OOB entry whose program had completed
/// (or that was written by GC/preload, which never tears).
fn durable_versions(d: &FlashDevice, t_cut: Cycle) -> HashMap<u64, u64> {
    let geo = *d.geometry();
    let mut durable: HashMap<u64, u64> = HashMap::new();
    for idx in 0..geo.total_blocks() as u64 {
        let block = geo.block_for_index(idx).unwrap();
        for page in 0..geo.pages_per_block as u32 {
            let addr = zng_types::FlashAddr { block, page };
            if let Some(m) = d.page_oob(addr) {
                // Parity and checkpoint pages carry namespace keys, not
                // logical pages — they are never durability obligations.
                let meta = m.tag == zng_flash::BlockKind::Parity
                    || m.tag == zng_flash::BlockKind::Checkpoint;
                if !meta && (!m.demand || m.programmed_at <= t_cut) {
                    let e = durable.entry(m.lpn).or_insert(0);
                    *e = (*e).max(m.seq);
                }
            }
        }
    }
    durable
}

/// A `ZngFtl` constructor with two data blocks per log block.
fn zng(mode: WriteMode) -> impl Fn(&FlashDevice) -> ZngFtl {
    move |d| ZngFtl::new(d, 2, mode)
}

/// Runs the full crash scenario and checks all four invariants.
///
/// With `ckpt: Some((every, cap))` the FTL checkpoints every `every`
/// writes under journal cap `cap`, so the cut can land mid-epoch,
/// mid-journal, or right after a commit — and a fifth invariant applies:
/// the checkpointed recovery (fast path or fallback alike) must rebuild
/// exactly the mapping a checkpoint-less full scan of the same crashed
/// media rebuilds.
#[allow(
    clippy::too_many_lines,
    clippy::too_many_arguments,
    clippy::fn_params_excessive_bools
)]
fn check_crash<F: Ftl + Clone>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    crash_at: usize,
    settle: bool,
    ckpt: Option<(usize, u64)>,
    health: bool,
) -> Result<(), TestCaseError> {
    let mut d = device(profile, seed, health);
    let mut f = new_ftl(&d);
    if let Some((_, cap)) = ckpt {
        f.set_checkpointing(Some(zng_ftl::CheckpointConfig { journal_cap: cap }));
    }
    if health {
        // A hair-trigger threshold: the degrading die is quarantined on
        // its first telemetry blip and its evacuation runs between
        // writes, so the cut can land with an evacuation in flight.
        f.set_health(Some(zng_ftl::HealthPolicy {
            window: 4,
            suspect_threshold: 0.0005,
            evacuate: true,
        }));
    }

    // Phase 1: drive writes up to the crash point.
    let crash_at = crash_at.min(writes.len());
    let mut t = Cycle::ZERO;
    for (i, &lpn) in writes[..crash_at].iter().enumerate() {
        match f.write(t, &mut d, lpn) {
            Ok(w) => t = w.done,
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) => {}
            // A redrive-exhausted write on the degrading die was never
            // acked, so it creates no durability obligation.
            Err(Error::FlashProtocol { .. }) if health => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
        if let Some((every, _)) = ckpt {
            if (i + 1) % every == 0 {
                t = f.checkpoint_step(t, &mut d);
            }
        }
        if health {
            t = f
                .health_step(t, &mut d)
                .map_err(|e| TestCaseError::fail(format!("health step failed: {e}")))?;
        }
    }
    // A "settled" cut waits out every background program; an immediate
    // cut catches them mid-flight and exercises the torn-page paths.
    let t_cut = if settle { t + Cycle(10_000_000) } else { t };

    // Phase 2: the cut. Judge durability from the media itself, then
    // drop all volatile state.
    let mut d2 = d.clone();
    let mut f2 = f.clone();
    d.power_loss(t_cut);
    let durable = durable_versions(&d, t_cut);
    let report = f
        .recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;

    // Invariant 1+2: every durable version is mapped, not rolled back,
    // and readable without ever serving a torn page.
    let t_after = t_cut + report.scan_cycles + Cycle(1);
    for (&lpn, &seq) in &durable {
        let addr = f.locate(lpn);
        prop_assert!(
            addr.is_some(),
            "durable lpn {lpn} (seq {seq}) lost its mapping"
        );
        let addr = addr.unwrap();
        prop_assert!(!d.page_is_torn(addr), "lpn {lpn} mapped to a torn page");
        let stamp = d.page_stamp(addr);
        prop_assert!(stamp.is_some(), "lpn {lpn} mapped to unstamped media");
        let (key, got) = stamp.unwrap();
        prop_assert_eq!(key, lpn, "lpn {} resolves to foreign data", lpn);
        prop_assert!(
            got >= seq,
            "lpn {lpn} rolled back past a durable version ({got} < {seq})"
        );
        match f.read(t_after, &mut d, lpn, 128) {
            Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
            Err(Error::TornPage { .. }) => {
                return Err(TestCaseError::fail(format!("torn page served for {lpn}")))
            }
            Err(e) => return Err(TestCaseError::fail(format!("read failed: {e}"))),
        }
    }

    // Invariant 3: a second cut immediately after recovery (a crash
    // during/just after recovery) recovers to the same mapping state.
    let mut d_again = d.clone();
    let mut f_again = f.clone();
    d_again.power_loss(t_after);
    f_again
        .recover(t_after, &mut d_again)
        .map_err(|e| TestCaseError::fail(format!("re-recovery failed: {e}")))?;
    prop_assert_eq!(f.free_blocks(), f_again.free_blocks());
    for &lpn in writes {
        prop_assert_eq!(
            f.locate(lpn),
            f_again.locate(lpn),
            "recovery is not idempotent for lpn {}",
            lpn
        );
    }

    // Invariant 4: recovery of an identical crashed clone is
    // deterministic — same report, same mappings.
    let mut d3 = d2.clone();
    let mut f3 = f2.clone();
    d2.power_loss(t_cut);
    let report2 = f2
        .recover(t_cut, &mut d2)
        .map_err(|e| TestCaseError::fail(format!("clone recovery failed: {e}")))?;
    prop_assert_eq!(report.pages_scanned, report2.pages_scanned);
    prop_assert_eq!(report.torn_discarded, report2.torn_discarded);
    prop_assert_eq!(report.stale_dropped, report2.stale_dropped);
    prop_assert_eq!(report.blocks_erased, report2.blocks_erased);
    prop_assert_eq!(report.scan_cycles, report2.scan_cycles);
    for &lpn in writes {
        prop_assert_eq!(f.locate(lpn), f2.locate(lpn));
    }

    // Invariant 5 (checkpointing only): whether the recovery took the
    // journal fast path or fell back, it must rebuild exactly the state
    // a checkpoint-less full scan of the same crashed media rebuilds.
    if ckpt.is_some() {
        prop_assert!(
            report.fast_path || report.fallback,
            "a checkpointed recovery must report its path: {report:?}"
        );
        f3.set_checkpointing(None);
        d3.power_loss(t_cut);
        let full = f3
            .recover(t_cut, &mut d3)
            .map_err(|e| TestCaseError::fail(format!("full-scan recovery failed: {e}")))?;
        prop_assert!(!full.fast_path && !full.fallback);
        prop_assert_eq!(f.free_blocks(), f3.free_blocks());
        for &lpn in writes {
            prop_assert_eq!(
                f.locate(lpn),
                f3.locate(lpn),
                "checkpointed recovery diverged from the full scan for lpn {}",
                lpn
            );
        }
    }
    Ok(())
}

proptest! {
    /// ZnG FTL, direct writes: durable data survives any crash point.
    #[test]
    fn zng_direct_survives_crashes(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..48, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
    ) {
        check_crash(zng(WriteMode::Direct), profile, seed, &writes, crash_at, settle, None, false)?;
    }

    /// ZnG FTL, buffered (register-grouped) writes: register-resident
    /// data is lost by design, but everything programmed stays durable.
    #[test]
    fn zng_buffered_survives_crashes(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..48, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
    ) {
        check_crash(zng(WriteMode::Buffered), profile, seed, &writes, crash_at, settle, None, false)?;
    }

    /// Conventional page-map FTL: same headline invariant.
    #[test]
    fn pagemap_survives_crashes(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..256, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
    ) {
        check_crash(PageMapFtl::new, profile, seed, &writes, crash_at, settle, None, false)?;
    }

    /// ZnG FTL with checkpointing: arbitrary cadences, journal caps and
    /// crash points (mid-epoch, mid-journal, straight after a commit)
    /// never lose durable data, and the recovery — fast path or fallback
    /// — is bit-identical to a checkpoint-less full scan.
    #[test]
    fn zng_checkpointed_crashes_match_full_scan(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..48, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
        every in 2usize..25,
        cap_sel in 0usize..4,
    ) {
        let cap = [0u64, 4, 16, 256][cap_sel];
        check_crash(
            zng(WriteMode::Direct), profile, seed, &writes, crash_at, settle,
            Some((every, cap)), false,
        )?;
    }

    /// Conventional page-map FTL with checkpointing: same invariants.
    #[test]
    fn pagemap_checkpointed_crashes_match_full_scan(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..256, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
        every in 2usize..25,
        cap_sel in 0usize..4,
    ) {
        let cap = [0u64, 4, 16, 256][cap_sel];
        check_crash(PageMapFtl::new, profile, seed, &writes, crash_at, settle, Some((every, cap)), false)?;
    }

    /// Chaos lane: every robustness subsystem at once — RAIN redundancy,
    /// verified reads, endurance management, bounded overload control and
    /// background checkpointing — under an arbitrary mid-run power cut.
    /// The run must recover (fast path or clean fallback), resume, and
    /// service exactly the work its crash-free twin services: no acked
    /// write is ever lost.
    #[test]
    fn chaos_combined_faults_lose_nothing(
        seed in 0u64..8,
        crash_at in 50u64..400,
        every in 16u64..64,
    ) {
        use zng::{
            CheckpointConfig, EnduranceConfig, HealthConfig, IntegrityConfig, PlatformKind,
            QosConfig, RedundancyConfig, SimConfig, Simulation,
        };
        use zng_workloads::{MultiApp, TraceParams};

        let p = TraceParams {
            total_warps: 4,
            mem_ops_per_warp: 120,
            footprint_pages: 64,
            seed,
        };
        let mix = MultiApp::from_names(&["betw", "back"], &p).unwrap();
        let mut cfg = SimConfig::tiny();
        cfg.fault = FaultConfig::nominal()
            .with_seed(seed)
            .with_degrading(zng_flash::DegradingDie {
                channel: 0,
                die: 0,
                onset: 100_000,
                death: 40_000_000,
            });
        cfg.qos = QosConfig::bounded(8);
        cfg.redundancy = RedundancyConfig::rain(0);
        cfg.integrity = IntegrityConfig {
            enabled: true,
            ..IntegrityConfig::off()
        };
        cfg.endurance = EnduranceConfig::on(0);
        cfg.checkpoint = CheckpointConfig::on(every);
        cfg.health = HealthConfig {
            enabled: true,
            every_ops: 7,
            window: 16,
            suspect_threshold: 0.02,
            evacuate: true,
        };
        cfg.crash_at = Some(crash_at);
        let crashed = Simulation::new(PlatformKind::Zng, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let cr = crashed.crash_recovery.expect("the cut must be reported");
        prop_assert!(
            cr.fast_path || cr.fallback,
            "a checkpointed recovery must report its path: {cr:?}"
        );
        let mut clean_cfg = cfg;
        clean_cfg.crash_at = None;
        let clean = Simulation::new(PlatformKind::Zng, &clean_cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        prop_assert_eq!(crashed.requests, clean.requests);
        prop_assert_eq!(crashed.instructions, clean.instructions);
    }

    /// ZnG FTL with a degrading die, a hair-trigger health monitor and
    /// checkpointing: the cut can land with a pre-emptive evacuation in
    /// flight, and the journal fast path must still rebuild exactly what
    /// a checkpoint-less full scan rebuilds — evacuation migrations are
    /// journalled like any other mapping change.
    #[test]
    fn zng_health_evacuation_crashes_match_full_scan(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..48, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
        every in 2usize..25,
    ) {
        check_crash(
            zng(WriteMode::Direct), profile, seed, &writes, crash_at, settle,
            Some((every, 256)), true,
        )?;
    }

    /// Conventional page-map FTL under the same degrading-die +
    /// evacuation + checkpointing chaos: same invariants.
    #[test]
    fn pagemap_health_evacuation_crashes_match_full_scan(
        profile in 0u8..3,
        seed in 0u64..50,
        writes in prop::collection::vec(0u64..256, 1..100),
        crash_at in 0usize..100,
        settle in any::<bool>(),
        every in 2usize..25,
    ) {
        check_crash(PageMapFtl::new, profile, seed, &writes, crash_at, settle, Some((every, 256)), true)?;
    }
}

/// `FaultProfile` is re-exported so CLI-level tooling can name profiles;
/// keep the parse path covered from the integration side too.
#[test]
fn fault_profiles_parse() {
    assert!(matches!(
        FaultProfile::parse("end-of-life"),
        Ok(FaultProfile::EndOfLife)
    ));
}
