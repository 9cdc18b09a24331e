//! Redundancy & self-healing property tests (the PR's headline
//! invariant).
//!
//! For an arbitrary workload, an arbitrary single die failed at an
//! arbitrary point in the write stream, on both FTLs:
//!
//! 1. **No acked write lost**: every write acknowledged before the
//!    failure stays readable afterwards — degraded reads reconstruct
//!    from the surviving stripe members, and the mapping still resolves
//!    to the acked version (OOB key matches, stamp never rolls back).
//! 2. **Rebuild restores**: after [`Ftl::rebuild_dead_die`], every
//!    logical page maps to a
//!    live die and reads stop touching the dead one.
//! 3. **Scrub pacing**: a patrol-scrub step never blocks the foreground
//!    past the configured stall budget, and scrubbing never loses data.
//! 4. **Determinism**: the whole degraded lifecycle (fail → fence →
//!    degraded writes → scrub → rebuild) on two clones of the same
//!    device produces identical timings, mappings and counters.
//! 5. **Redundancy off is inert**: with no redundancy installed the
//!    device never grows parity blocks, the run is bit-deterministic,
//!    and the FTL reports no redundancy state.
//!
//! The simulator carries no payload bytes, so "exact last-acked data"
//! is judged the same way the crash suite judges durability: through
//! mapping and OOB-stamp identity (`key == lpn`, `seq` monotone).

use std::collections::HashMap;

use proptest::prelude::*;
use zng_flash::{BlockKind, FaultConfig, FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl, GcPacing, PageMapFtl, RainConfig, RainCounters, WriteMode, ZngFtl};
use zng_types::{
    ids::{ChannelId, DieId},
    Cycle, Error, Freq,
};

fn device(profile: u8, seed: u64) -> FlashDevice {
    let mut d = FlashDevice::zng_config(
        FlashGeometry::tiny(),
        Freq::default(),
        RegisterTopology::NiF,
    )
    .unwrap();
    let cfg = match profile {
        0 => FaultConfig::none(),
        1 => FaultConfig::nominal().with_seed(seed),
        _ => FaultConfig::end_of_life().with_seed(seed),
    };
    d.set_fault_config(&cfg);
    d
}

/// A `ZngFtl` constructor with two data blocks per log block.
fn zng(mode: WriteMode) -> impl Fn(&FlashDevice) -> ZngFtl {
    move |d| ZngFtl::new(d, 2, mode)
}

/// `f` with RAIN redundancy installed under `rain`.
fn with_rain<F: Ftl>(mut f: F, d: &FlashDevice, rain: RainConfig) -> F {
    f.set_redundancy(d, Some(rain));
    f
}

/// The redundancy counters, when redundancy is installed.
fn counters(f: &impl Ftl) -> Option<RainCounters> {
    f.redundancy().map(|r| r.counters())
}

/// No logical page may ever resolve into a parity block: parity is
/// reconstruction input, never mappable data (a crash that interrupts
/// parity maintenance must not resurrect it as a winner).
fn assert_no_parity_mapped(
    f: &impl Ftl,
    d: &FlashDevice,
    lpns: impl Iterator<Item = u64>,
    what: &str,
) -> Result<(), TestCaseError> {
    for lpn in lpns {
        if let Some(addr) = f.locate(lpn) {
            if let Some(b) = d.block(addr.block) {
                prop_assert!(
                    b.kind() != BlockKind::Parity,
                    "{what}: lpn {lpn} maps into a parity block"
                );
            }
        }
    }
    Ok(())
}

/// Stamp snapshot (`lpn -> seq`) of every acked logical page, taken
/// through the FTL's own mapping. Pages whose mapping or stamp is
/// unavailable (register-resident data) are left out.
fn acked_stamps(f: &impl Ftl, d: &FlashDevice, acked: &HashMap<u64, u64>) -> HashMap<u64, u64> {
    acked
        .keys()
        .filter_map(|&lpn| {
            let addr = f.locate(lpn)?;
            let (key, seq) = d.page_stamp(addr)?;
            (key == lpn).then_some((lpn, seq))
        })
        .collect()
}

/// Asserts every baseline page still resolves to data no older than its
/// acked version and is readable end-to-end. `strict` (fault-free media)
/// forbids read errors outright; faulty media may legitimately lose a
/// second stripe member, so there only torn-page serving and protocol
/// errors are failures.
fn check_readable(
    f: &mut impl Ftl,
    d: &mut FlashDevice,
    now: Cycle,
    baseline: &HashMap<u64, u64>,
    strict: bool,
    what: &str,
) -> Result<(), TestCaseError> {
    for (&lpn, &seq) in baseline {
        let addr = f.locate(lpn);
        prop_assert!(addr.is_some(), "{what}: lpn {lpn} lost its mapping");
        let addr = addr.unwrap();
        let stamp = d.page_stamp(addr);
        prop_assert!(stamp.is_some(), "{what}: lpn {lpn} maps to unstamped media");
        let (key, got) = stamp.unwrap();
        prop_assert_eq!(key, lpn, "{}: lpn {} resolves to foreign data", what, lpn);
        prop_assert!(
            got >= seq,
            "{what}: lpn {lpn} rolled back past the acked version ({got} < {seq})"
        );
        match f.read(now, d, lpn, 128) {
            Ok(_) => {}
            Err(Error::UncorrectableRead { .. }) if !strict => {}
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "{what}: read of acked lpn {lpn} failed: {e}"
                )))
            }
        }
    }
    Ok(())
}

/// The full degraded lifecycle: write, fail one die mid-stream, keep
/// writing in degraded mode, verify, rebuild, verify again.
fn check_die_failure<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    fail_at: usize,
    ch: u16,
    die: u16,
) -> Result<(), TestCaseError> {
    let strict = profile == 0;
    let mut d = device(profile, seed);
    let mut f = with_rain(new_ftl(&d), &d, RainConfig::default());

    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut t = Cycle::ZERO;
    let fail_at = fail_at.min(writes.len());
    for &lpn in &writes[..fail_at] {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                *acked.entry(lpn).or_insert(0) += 1;
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
    }
    let baseline = acked_stamps(&f, &d, &acked);

    // The failure: one die dies at an arbitrary instant; the FTL fences
    // it and (for the ZnG FTL) relocates log blocks that would otherwise
    // hard-fail writes.
    d.fail_die(ChannelId(ch), DieId(die));
    match f.fence_dead_die(t, &mut d) {
        Ok(done) => t = done,
        Err(Error::UncorrectableRead { .. }) if !strict => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("fence failed: {e}"))),
    }

    // Degraded-mode operation: the remaining writes must still land (the
    // allocator fences dead blocks, so only media faults may fail them).
    for &lpn in &writes[fail_at..] {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                *acked.entry(lpn).or_insert(0) += 1;
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) if !strict => {}
            Err(e) => return Err(TestCaseError::fail(format!("degraded write failed: {e}"))),
        }
    }

    // Invariant 1: nothing acked before the failure was lost, and the
    // degraded writes are visible too.
    let baseline = {
        let mut b = baseline;
        for (lpn, seq) in acked_stamps(&f, &d, &acked) {
            let e = b.entry(lpn).or_insert(seq);
            *e = (*e).max(seq);
        }
        b
    };
    check_readable(&mut f, &mut d, t + Cycle(1), &baseline, strict, "degraded")?;

    // Invariant 2: a rebuild re-creates the lost blocks on spares; all
    // mappings move off the dead die and reads stop touching it.
    let (done, _pages) = match f.rebuild_dead_die(t, &mut d) {
        Ok(r) => r,
        Err(Error::UncorrectableRead { .. }) if !strict => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("rebuild failed: {e}"))),
    };
    t = done + Cycle(1);
    for &lpn in baseline.keys() {
        if let Some(addr) = f.locate(lpn) {
            prop_assert!(
                !d.die_is_dead(addr.block.channel, addr.block.die),
                "lpn {lpn} still maps to the dead die after rebuild"
            );
        }
    }
    let rebuilt = acked_stamps(&f, &d, &acked);
    check_readable(&mut f, &mut d, t, &rebuilt, strict, "rebuilt")?;
    if strict {
        let dead_before = d.dead_die_reads();
        for &lpn in baseline.keys() {
            f.read(t, &mut d, lpn, 128)
                .map_err(|e| TestCaseError::fail(format!("post-rebuild read failed: {e}")))?;
        }
        prop_assert_eq!(
            d.dead_die_reads(),
            dead_before,
            "reads still touch the dead die after rebuild"
        );
    }
    Ok(())
}

/// Patrol scrub under a pacing contract: the foreground stall never
/// exceeds the budget and no scrubbed (possibly rewritten) page loses
/// its acked version.
fn check_scrub<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    steps: usize,
    threshold: u32,
    budget: u64,
) -> Result<(), TestCaseError> {
    let strict = profile == 0;
    let mut d = device(profile, seed);
    let rain = RainConfig {
        scrub_threshold: threshold,
    };
    let mut f = with_rain(new_ftl(&d), &d, rain);
    f.set_pacing(Some(GcPacing {
        stall_budget: Cycle(budget),
    }));

    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut t = Cycle::ZERO;
    for &lpn in writes {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                *acked.entry(lpn).or_insert(0) += 1;
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
    }
    let baseline = acked_stamps(&f, &d, &acked);

    let before = counters(&f).expect("redundancy installed");
    for _ in 0..steps {
        let horizon = match f.scrub_step(t, &mut d) {
            Ok(h) => h,
            Err(Error::UncorrectableRead { .. }) if !strict => continue,
            Err(e) => return Err(TestCaseError::fail(format!("scrub step failed: {e}"))),
        };
        // Invariant 3: the step blocks the foreground no longer than the
        // stall budget, whatever its media time was.
        prop_assert!(
            horizon <= t + Cycle(budget),
            "scrub stalled past its budget: {:?} > {:?} + {budget}",
            horizon,
            t
        );
        t = horizon.max(t) + Cycle(1);
    }
    let after = counters(&f).expect("redundancy installed");
    prop_assert!(
        after.scrub_scanned >= before.scrub_scanned,
        "scrub counter went backwards"
    );

    // Scrub rewrites must never lose data (they relocate, re-stamp, and
    // only then invalidate).
    check_readable(&mut f, &mut d, t, &baseline, strict, "scrubbed")
}

/// Two clones of the same device driven through the identical
/// fail/fence/scrub/rebuild sequence must agree bit-for-bit.
fn check_determinism<F: Ftl + Clone>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    fail_at: usize,
    scrub_steps: usize,
) -> Result<(), TestCaseError> {
    let run = |d: &mut FlashDevice, f: &mut F| -> zng_types::Result<Vec<Cycle>> {
        let mut trace = Vec::new();
        let mut t = Cycle::ZERO;
        let fail_at = fail_at.min(writes.len());
        for (i, &lpn) in writes.iter().enumerate() {
            if i == fail_at {
                d.fail_die(ChannelId(1), DieId(0));
                t = f.fence_dead_die(t, d)?;
                trace.push(t);
            }
            match f.write(t, d, lpn) {
                Ok(w) => t = w.done,
                Err(Error::DeviceWornOut { .. }) => break,
                Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => return Err(e),
            }
            trace.push(t);
        }
        for _ in 0..scrub_steps {
            match f.scrub_step(t, d) {
                Ok(h) => t = h.max(t) + Cycle(1),
                Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => return Err(e),
            }
            trace.push(t);
        }
        let (done, pages) = f.rebuild_dead_die(t, d)?;
        trace.push(done);
        trace.push(Cycle(pages));
        Ok(trace)
    };

    let mut d1 = device(profile, seed);
    let mut f1 = with_rain(new_ftl(&d1), &d1, RainConfig::default());
    let mut d2 = d1.clone();
    let mut f2 = f1.clone();

    let t1 = run(&mut d1, &mut f1);
    let t2 = run(&mut d2, &mut f2);
    match (t1, t2) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a, b, "degraded lifecycle timings diverged");
            prop_assert_eq!(counters(&f1), counters(&f2), "counters diverged");
            for &lpn in writes {
                prop_assert_eq!(f1.locate(lpn), f2.locate(lpn), "mapping diverged");
            }
            prop_assert_eq!(
                d1.dead_die_reads(),
                d2.dead_die_reads(),
                "dead-die read accounting diverged"
            );
            let h1 = d1.stats().retry_depth_histogram();
            let h2 = d2.stats().retry_depth_histogram();
            prop_assert_eq!(h1, h2, "retry-depth histograms diverged");
        }
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string(), "clones failed differently");
        }
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "only one clone failed: {a:?} vs {b:?}"
            )))
        }
    }
    Ok(())
}

/// With redundancy off the write path must be exactly the old one: no
/// parity blocks, no redundancy state, and bit-identical repeat runs.
fn check_off_is_inert<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
) -> Result<(), TestCaseError> {
    let run = |writes: &[u64]| -> (Vec<Cycle>, FlashDevice, F) {
        let mut d = device(profile, seed);
        let mut f = new_ftl(&d);
        let mut trace = Vec::new();
        let mut t = Cycle::ZERO;
        for &lpn in writes {
            match f.write(t, &mut d, lpn) {
                Ok(w) => t = w.done,
                Err(Error::DeviceWornOut { .. }) => break,
                Err(_) => {}
            }
            trace.push(t);
        }
        (trace, d, f)
    };
    let (trace1, d1, f1) = run(writes);
    let (trace2, d2, _f2) = run(writes);
    prop_assert_eq!(trace1, trace2, "redundancy-off run is not deterministic");
    prop_assert!(f1.redundancy().is_none(), "redundancy state grew unasked");
    let geo = *d1.geometry();
    for idx in 0..geo.total_blocks() as u64 {
        let addr = geo.block_for_index(idx).expect("valid index");
        if let Some(b) = d1.block(addr) {
            prop_assert!(
                b.kind() != BlockKind::Parity,
                "parity block allocated with redundancy off"
            );
        }
    }
    let h1 = d1.stats().retry_depth_histogram();
    let h2 = d2.stats().retry_depth_histogram();
    prop_assert_eq!(h1, h2, "stats diverged between identical runs");
    prop_assert_eq!(d1.stats().total_programs(), d2.stats().total_programs());
    Ok(())
}

/// A power cut in the middle of a patrol-scrub step: the interrupted
/// relocations must tear away cleanly — after OOB-scan recovery every
/// settled write is still readable at no older a version, and no stale
/// parity is resurrected as data.
fn check_crash_mid_scrub<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    threshold: u32,
    cut_pct: u64,
) -> Result<(), TestCaseError> {
    let strict = profile == 0;
    let mut d = device(profile, seed);
    let rain = RainConfig {
        scrub_threshold: threshold,
    };
    let mut f = with_rain(new_ftl(&d), &d, rain);

    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut t = Cycle::ZERO;
    for &lpn in writes {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                *acked.entry(lpn).or_insert(0) += 1;
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
    }
    // Settle the background programs: every acked write is durable, so
    // the cut below can only interrupt the scrub's own relocations.
    t += Cycle(10_000_000);
    let baseline = acked_stamps(&f, &d, &acked);

    let horizon = match f.scrub_step(t, &mut d) {
        Ok(h) => h,
        Err(Error::UncorrectableRead { .. }) if !strict => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("scrub step failed: {e}"))),
    };
    let span = horizon.raw().saturating_sub(t.raw());
    let t_cut = Cycle(t.raw() + span * cut_pct.min(99) / 100);
    d.power_loss(t_cut);
    let report = f
        .recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;
    let t_after = t_cut + report.scan_cycles + Cycle(1);

    check_readable(&mut f, &mut d, t_after, &baseline, strict, "mid-scrub cut")?;
    assert_no_parity_mapped(&f, &d, baseline.keys().copied(), "mid-scrub cut")
}

/// A power cut in the middle of a dead-die rebuild: half-recreated
/// spare copies tear away, the originals (reconstructable from the
/// surviving members) win again, and no parity block is mapped as data.
fn check_crash_mid_rebuild<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    fail_at: usize,
    cut_pct: u64,
) -> Result<(), TestCaseError> {
    let strict = profile == 0;
    let mut d = device(profile, seed);
    let mut f = with_rain(new_ftl(&d), &d, RainConfig::default());

    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut t = Cycle::ZERO;
    let fail_at = fail_at.min(writes.len());
    for &lpn in &writes[..fail_at] {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                *acked.entry(lpn).or_insert(0) += 1;
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
    }
    d.fail_die(ChannelId(1), DieId(0));
    match f.fence_dead_die(t, &mut d) {
        Ok(done) => t = done,
        Err(Error::UncorrectableRead { .. }) if !strict => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("fence failed: {e}"))),
    }
    // Settle, snapshot the durable state, then interrupt the rebuild.
    t += Cycle(10_000_000);
    let baseline = acked_stamps(&f, &d, &acked);
    // Pages still sitting on the dead die when the power cut lands are
    // the double-fault window of single-parity RAIN: the crash wipes the
    // open stripes, so nothing can reconstruct them afterwards. Their
    // loss is tolerated; everything on healthy media must survive.
    let on_dead_die: std::collections::HashSet<u64> = baseline
        .keys()
        .copied()
        .filter(|&lpn| {
            f.locate(lpn)
                .is_some_and(|a| d.die_is_dead(a.block.channel, a.block.die))
        })
        .collect();
    let (done, _pages) = match f.rebuild_dead_die(t, &mut d) {
        Ok(r) => r,
        Err(Error::UncorrectableRead { .. }) if !strict => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("rebuild failed: {e}"))),
    };
    let span = done.raw().saturating_sub(t.raw());
    let t_cut = Cycle(t.raw() + span * cut_pct.min(99) / 100);
    d.power_loss(t_cut);
    let report = f
        .recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;
    let t_after = t_cut + report.scan_cycles + Cycle(1);

    for (&lpn, &seq) in &baseline {
        let Some(addr) = f.locate(lpn) else {
            prop_assert!(
                on_dead_die.contains(&lpn),
                "mid-rebuild cut: lpn {lpn} on healthy media lost its mapping"
            );
            continue;
        };
        let stamp = d.page_stamp(addr);
        prop_assert!(
            stamp.is_some(),
            "mid-rebuild cut: lpn {lpn} maps to unstamped media"
        );
        let (key, got) = stamp.unwrap();
        prop_assert_eq!(
            key,
            lpn,
            "mid-rebuild cut: lpn {} resolves to foreign data",
            lpn
        );
        prop_assert!(
            got >= seq,
            "mid-rebuild cut: lpn {lpn} rolled back past the acked version ({got} < {seq})"
        );
        match f.read(t_after, &mut d, lpn, 128) {
            Ok(_) => {}
            Err(Error::UncorrectableRead { .. }) if !strict => {}
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "mid-rebuild cut: read of acked lpn {lpn} failed: {e}"
                )))
            }
        }
    }
    assert_no_parity_mapped(&f, &d, baseline.keys().copied(), "mid-rebuild cut")
}

proptest! {
    /// ZnG FTL, direct writes: a single die failure at any point loses
    /// no acked write; rebuild moves everything off the dead die.
    #[test]
    fn zng_survives_die_failure(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..60),
        fail_at in 0usize..60,
        ch in 0u16..4,
        die in 0u16..2,
    ) {
        check_die_failure(zng(WriteMode::Direct), profile, seed, &writes, fail_at, ch, die)?;
    }

    /// Conventional page-map FTL: same single-die-failure guarantee.
    #[test]
    fn pagemap_survives_die_failure(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..192, 1..60),
        fail_at in 0usize..60,
        ch in 0u16..4,
        die in 0u16..2,
    ) {
        check_die_failure(PageMapFtl::new, profile, seed, &writes, fail_at, ch, die)?;
    }

    /// ZnG FTL: patrol scrub respects the pacing budget and loses
    /// nothing, for arbitrary thresholds and budgets.
    #[test]
    fn zng_scrub_respects_pacing(
        profile in 0u8..2,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..48),
        steps in 1usize..24,
        threshold in 0u32..4,
        budget in 1_000u64..80_000,
    ) {
        check_scrub(zng(WriteMode::Direct), profile, seed, &writes, steps, threshold, budget)?;
    }

    /// Page-map FTL: same scrub pacing contract.
    #[test]
    fn pagemap_scrub_respects_pacing(
        profile in 0u8..2,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..192, 1..48),
        steps in 1usize..24,
        threshold in 0u32..4,
        budget in 1_000u64..80_000,
    ) {
        check_scrub(PageMapFtl::new, profile, seed, &writes, steps, threshold, budget)?;
    }

    /// The degraded lifecycle is bit-deterministic on both FTLs (the
    /// buffered ZnG mode included) under every fault profile.
    #[test]
    fn degraded_lifecycle_is_deterministic(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..48),
        fail_at in 0usize..48,
        scrub_steps in 0usize..8,
        flavor in 0u8..3,
    ) {
        match flavor {
            0 => check_determinism(zng(WriteMode::Direct), profile, seed, &writes, fail_at, scrub_steps)?,
            1 => check_determinism(zng(WriteMode::Buffered), profile, seed, &writes, fail_at, scrub_steps)?,
            _ => check_determinism(PageMapFtl::new, profile, seed, &writes, fail_at, scrub_steps)?,
        }
    }

    /// A crash in the middle of a patrol-scrub step loses no acked
    /// write and never resurrects a parity block as mapped data.
    #[test]
    fn zng_crash_mid_scrub_loses_nothing(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..48),
        threshold in 0u32..4,
        cut_pct in 0u64..100,
        flavor in 0u8..2,
    ) {
        let mode = match flavor {
            0 => WriteMode::Direct,
            _ => WriteMode::Buffered,
        };
        check_crash_mid_scrub(zng(mode), profile, seed, &writes, threshold, cut_pct)?;
    }

    /// Page-map FTL: same mid-scrub crash contract.
    #[test]
    fn pagemap_crash_mid_scrub_loses_nothing(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..192, 1..48),
        threshold in 0u32..4,
        cut_pct in 0u64..100,
    ) {
        check_crash_mid_scrub(PageMapFtl::new, profile, seed, &writes, threshold, cut_pct)?;
    }

    /// A crash in the middle of a dead-die rebuild: the half-built
    /// spare copies tear away and every acked write stays readable.
    #[test]
    fn zng_crash_mid_rebuild_loses_nothing(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..48),
        fail_at in 0usize..48,
        cut_pct in 0u64..100,
    ) {
        check_crash_mid_rebuild(zng(WriteMode::Direct), profile, seed, &writes, fail_at, cut_pct)?;
    }

    /// Page-map FTL: same mid-rebuild crash contract.
    #[test]
    fn pagemap_crash_mid_rebuild_loses_nothing(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..192, 1..48),
        fail_at in 0usize..48,
        cut_pct in 0u64..100,
    ) {
        check_crash_mid_rebuild(PageMapFtl::new, profile, seed, &writes, fail_at, cut_pct)?;
    }

    /// Redundancy off = the previous write path, bit for bit.
    #[test]
    fn redundancy_off_is_inert(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..60),
        flavor in 0u8..3,
    ) {
        match flavor {
            0 => check_off_is_inert(zng(WriteMode::Direct), profile, seed, &writes)?,
            1 => check_off_is_inert(zng(WriteMode::Buffered), profile, seed, &writes)?,
            _ => check_off_is_inert(PageMapFtl::new, profile, seed, &writes)?,
        }
    }
}
