//! Endurance-management property tests (the PR's headline invariant).
//!
//! For an arbitrary workload, an arbitrary refresh cadence and policy,
//! any fault profile, RAIN on or off, and an arbitrary crash point, on
//! both FTLs:
//!
//! 1. **No acked write is ever lost to maintenance.** Background
//!    refresh, static-levelling migrations and end-of-life capacity
//!    steps never unmap a logical page or roll its media copy back past
//!    the newest version observed on media while powered.
//! 2. **No stale copy is ever served.** After every maintenance burst —
//!    and after an OOB-scan recovery cutting power mid-maintenance —
//!    each page resolves to its own data (OOB key matches) at a stamp
//!    no older than the recorded one; in-flight refresh programs lose
//!    stamp-ordered winner resolution to newer demand copies exactly
//!    like GC programs.
//! 3. **Determinism.** The same scenario replayed yields identical
//!    endurance counters and mappings.
//! 4. **Off is inert.** Explicitly installing the disabled policy is
//!    bit-identical — same per-op completion times, same mappings, same
//!    media wear — to never mentioning endurance at all.
//!
//! Static levelling's effectiveness (wear spread provably shrinking
//! under hot/cold skew) is asserted deterministically at the bottom.

use std::collections::HashMap;

use proptest::prelude::*;
use zng_flash::{FaultConfig, FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl, PageMapFtl, RainConfig, RefreshPolicy, WriteMode, ZngFtl};
use zng_types::{Cycle, Error, Freq};

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

/// The lower-bound durable version of each logical page at cut time
/// `t_cut`: the highest-stamped OOB entry whose program had completed,
/// or that was written by a non-demand copy (GC, refresh or levelling
/// migration — none of which tear).
fn durable_versions(d: &FlashDevice, t_cut: Cycle) -> HashMap<u64, u64> {
    let geo = *d.geometry();
    let mut durable: HashMap<u64, u64> = HashMap::new();
    for idx in 0..geo.total_blocks() as u64 {
        let block = geo.block_for_index(idx).unwrap();
        for page in 0..geo.pages_per_block as u32 {
            let addr = zng_types::FlashAddr { block, page };
            if let Some(m) = d.page_oob(addr) {
                // RAIN parity pages carry synthetic high-bit stripe keys,
                // not logical pages.
                if m.lpn >= (1 << 62) {
                    continue;
                }
                if !m.demand || m.programmed_at <= t_cut {
                    let e = durable.entry(m.lpn).or_insert(0);
                    *e = (*e).max(m.seq);
                }
            }
        }
    }
    durable
}

/// Asserts invariants 1+2 while powered: every tracked page still
/// resolves to its own data at a stamp no older than the recorded one,
/// and reads stay serviceable.
fn check_no_stale(
    f: &mut impl Ftl,
    d: &mut FlashDevice,
    t: Cycle,
    latest: &HashMap<u64, u64>,
) -> Result<Cycle, TestCaseError> {
    let mut t = t;
    for (&lpn, &seq) in latest {
        let addr = f.locate(lpn);
        prop_assert!(addr.is_some(), "maintenance unmapped acked lpn {lpn}");
        let addr = addr.unwrap();
        let stamp = d.page_stamp(addr);
        prop_assert!(stamp.is_some(), "acked lpn {lpn} maps to unstamped media");
        let (key, got) = stamp.unwrap();
        prop_assert_eq!(key, lpn, "lpn {} resolves to foreign data", lpn);
        prop_assert!(
            got >= seq,
            "maintenance rolled lpn {lpn} back to a stale copy ({got} < {seq})"
        );
        match f.read(t, d, lpn, 128) {
            Ok(done) => t = done,
            Err(Error::UncorrectableRead { .. } | Error::CapacityDegraded { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("read of {lpn} failed: {e}"))),
        }
    }
    Ok(t)
}

/// Drives writes with interleaved read-disturb hammering and refresh
/// steps, checks the no-loss/no-stale invariants while powered, cuts
/// power at an arbitrary point (possibly mid-maintenance), recovers,
/// re-checks against the media's own durable versions, and replays the
/// whole scenario for determinism.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn check_endurance<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    refresh_every: usize,
    crash_at: usize,
    settle: bool,
    rain: bool,
    policy: RefreshPolicy,
) -> Result<(), TestCaseError> {
    let build = |d: &FlashDevice| {
        let mut f = new_ftl(d);
        if rain {
            f.set_redundancy(d, Some(RainConfig::default()));
        }
        f.set_endurance(Some(policy));
        f
    };
    let run = |d: &mut FlashDevice,
               f: &mut F,
               crash_at: usize|
     -> Result<(Cycle, HashMap<u64, u64>), TestCaseError> {
        let mut t = Cycle::ZERO;
        // The newest media stamp observed per lpn while powered; a lower
        // bound that maintenance must never roll back past.
        let mut latest: HashMap<u64, u64> = HashMap::new();
        for (i, &lpn) in writes[..crash_at.min(writes.len())].iter().enumerate() {
            match f.write(t, d, lpn) {
                Ok(w) => t = w.done,
                Err(Error::CapacityDegraded { .. }) => {}
                Err(Error::UncorrectableRead { .. }) => {}
                Err(Error::DeviceWornOut { .. }) => {
                    return Err(TestCaseError::fail(
                        "endurance mode must degrade the cliff away",
                    ))
                }
                Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
            }
            if let Some(addr) = f.locate(lpn) {
                if let Some((key, seq)) = d.page_stamp(addr) {
                    if key == lpn {
                        let e = latest.entry(lpn).or_insert(0);
                        *e = (*e).max(seq);
                    }
                }
            }
            // Re-reads accumulate read disturb on the mapped blocks.
            if i % 3 == 0 {
                match f.read(t, d, lpn, 128) {
                    Ok(done) => t = done,
                    Err(Error::UncorrectableRead { .. } | Error::CapacityDegraded { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("read failed: {e}"))),
                }
            }
            if i % refresh_every == 0 {
                t = f
                    .refresh_step(t, d)
                    .map_err(|e| TestCaseError::fail(format!("refresh step failed: {e}")))?;
            }
        }
        Ok((t, latest))
    };

    let mut d = device(profile, seed);
    d.set_endurance_tracking(Some(1));
    let mut f = build(&d);
    let (t, latest) = run(&mut d, &mut f, crash_at)?;

    // Invariants 1+2 while powered, after all maintenance bursts.
    let t = check_no_stale(&mut f, &mut d, t, &latest)?;

    // The cut — possibly right on the heels of a refresh/migration whose
    // background programs are still in flight when `settle` is false.
    let t_cut = if settle { t + Cycle(10_000_000) } else { t };
    d.power_loss(t_cut);
    let durable = durable_versions(&d, t_cut);
    let report = f
        .recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;

    // Invariants 1+2 across the crash, judged from the media itself:
    // every durable version is mapped, its winner never a quarantined or
    // stale maintenance copy.
    let mut t_after = t_cut + report.scan_cycles + Cycle(1);
    for (&lpn, &seq) in &durable {
        let addr = f.locate(lpn);
        prop_assert!(
            addr.is_some(),
            "durable lpn {lpn} (seq {seq}) lost its mapping across a maintenance crash"
        );
        let addr = addr.unwrap();
        prop_assert!(!d.page_is_torn(addr), "lpn {lpn} mapped to a torn page");
        let stamp = d.page_stamp(addr);
        prop_assert!(stamp.is_some(), "lpn {lpn} mapped to unstamped media");
        let (key, got) = stamp.unwrap();
        prop_assert_eq!(key, lpn, "lpn {} resolves to foreign data", lpn);
        prop_assert!(
            got >= seq,
            "recovery rolled lpn {lpn} back past a durable version ({got} < {seq})"
        );
        match f.read(t_after, &mut d, lpn, 128) {
            Ok(done) => t_after = done,
            Err(Error::UncorrectableRead { .. } | Error::CapacityDegraded { .. }) => {}
            Err(Error::TornPage { .. }) => {
                return Err(TestCaseError::fail(format!("torn page served for {lpn}")))
            }
            Err(e) => return Err(TestCaseError::fail(format!("read failed: {e}"))),
        }
    }

    // State to check determinism against, captured before any further
    // maintenance mutates it.
    let counters_at_recovery = f.endurance_counters();
    let recovered: Vec<_> = writes.iter().map(|&l| (l, f.locate(l))).collect();

    // Invariant 3: the whole scenario replays deterministically — same
    // observed stamps, same endurance counters, same recovered mappings.
    let mut d2 = device(profile, seed);
    d2.set_endurance_tracking(Some(1));
    let mut f2 = build(&d2);
    let (_, latest2) = run(&mut d2, &mut f2, crash_at)?;
    prop_assert_eq!(&latest, &latest2, "replay observed different media stamps");
    d2.power_loss(t_cut);
    let report2 = f2
        .recover(t_cut, &mut d2)
        .map_err(|e| TestCaseError::fail(format!("replay recovery failed: {e}")))?;
    prop_assert_eq!(report.pages_scanned, report2.pages_scanned);
    prop_assert_eq!(report.torn_discarded, report2.torn_discarded);
    prop_assert_eq!(
        counters_at_recovery,
        f2.endurance_counters(),
        "endurance counters diverged on replay"
    );
    for &(lpn, addr) in &recovered {
        prop_assert_eq!(
            addr,
            f2.locate(lpn),
            "recovered mapping diverged for {}",
            lpn
        );
    }

    // Maintenance keeps running after recovery without disturbing the
    // recovered state's invariants.
    for _ in 0..4 {
        t_after = f
            .refresh_step(t_after, &mut d)
            .map_err(|e| TestCaseError::fail(format!("post-recovery refresh failed: {e}")))?;
    }
    let _ = t_after;
    for (&lpn, &seq) in &durable {
        let addr = f.locate(lpn);
        prop_assert!(addr.is_some(), "post-recovery maintenance unmapped {lpn}");
        let (key, got) = d.page_stamp(addr.unwrap()).unwrap_or((lpn, seq));
        prop_assert_eq!(key, lpn);
        prop_assert!(got >= seq);
    }
    Ok(())
}

/// Decodes three selector draws into a refresh policy, covering each
/// trigger disabled, aggressive and lax.
fn policy_of(disturb_sel: u8, retention_sel: u8, spread_sel: u8) -> RefreshPolicy {
    RefreshPolicy {
        disturb_threshold: [0, 4, 24][disturb_sel as usize % 3],
        retention_threshold: [0, 500_000, 5_000_000][retention_sel as usize % 3],
        wear_spread: [0.0, 1.2, 4.0][spread_sel as usize % 3],
    }
}

proptest! {
    /// ZnG FTL, direct writes: maintenance never loses or staleness-
    /// corrupts acked data, across crashes, on any fault profile.
    #[test]
    fn zng_direct_maintenance_is_safe(
        profile in 0u8..3,
        seed in 0u64..20,
        writes in prop::collection::vec(0u64..48, 1..70),
        refresh_every in 1usize..6,
        crash_at in 0usize..70,
        settle in any::<bool>(),
        rain in any::<bool>(),
        knobs in (0u8..3, 0u8..3, 0u8..3),
    ) {
        check_endurance(zng(WriteMode::Direct), profile, seed, &writes, refresh_every,
            crash_at, settle, rain, policy_of(knobs.0, knobs.1, knobs.2))?;
    }

    /// ZnG FTL, buffered (register-grouped) writes: same contract.
    #[test]
    fn zng_buffered_maintenance_is_safe(
        profile in 0u8..3,
        seed in 0u64..20,
        writes in prop::collection::vec(0u64..48, 1..70),
        refresh_every in 1usize..6,
        crash_at in 0usize..70,
        settle in any::<bool>(),
        rain in any::<bool>(),
        knobs in (0u8..3, 0u8..3, 0u8..3),
    ) {
        check_endurance(zng(WriteMode::Buffered), profile, seed, &writes, refresh_every,
            crash_at, settle, rain, policy_of(knobs.0, knobs.1, knobs.2))?;
    }

    /// Conventional page-map FTL: same contract.
    #[test]
    fn pagemap_maintenance_is_safe(
        profile in 0u8..3,
        seed in 0u64..20,
        writes in prop::collection::vec(0u64..256, 1..70),
        refresh_every in 1usize..6,
        crash_at in 0usize..70,
        settle in any::<bool>(),
        rain in any::<bool>(),
        knobs in (0u8..3, 0u8..3, 0u8..3),
    ) {
        check_endurance(PageMapFtl::new, profile, seed, &writes, refresh_every,
            crash_at, settle, rain, policy_of(knobs.0, knobs.1, knobs.2))?;
    }

    /// Endurance off is inert: explicitly installing the disabled state
    /// is bit-identical to never mentioning it — same per-op times, same
    /// mappings, same wear.
    #[test]
    fn endurance_off_is_inert(
        profile in 0u8..3,
        seed in 0u64..20,
        writes in prop::collection::vec(0u64..48, 1..70),
    ) {
        type RunTrace = (Vec<u64>, Vec<Option<zng_types::FlashAddr>>, u64);
        let run = |install: bool| -> Result<RunTrace, TestCaseError> {
            let mut d = device(profile, seed);
            let mut f = ZngFtl::new(&d, 2, WriteMode::Direct);
            if install {
                d.set_endurance_tracking(None);
                f.set_endurance(None);
            }
            let mut t = Cycle::ZERO;
            let mut times = Vec::new();
            for &lpn in &writes {
                match f.write(t, &mut d, lpn) {
                    Ok(r) => t = r.done,
                    Err(Error::DeviceWornOut { .. }) => break,
                    Err(Error::UncorrectableRead { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
                }
                times.push(t.raw());
                match f.read(t, &mut d, lpn, 128) {
                    Ok(done) => t = done,
                    Err(Error::UncorrectableRead { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("read failed: {e}"))),
                }
                times.push(t.raw());
            }
            let maps = writes.iter().map(|&l| f.locate(l)).collect();
            let e = d.endurance();
            Ok((times, maps, e.total_erases))
        };
        let a = run(false)?;
        let b = run(true)?;
        prop_assert_eq!(a.0, b.0, "disabled endurance changed op timing");
        prop_assert_eq!(a.1, b.1, "disabled endurance changed mappings");
        prop_assert_eq!(a.2, b.2, "disabled endurance changed media wear");
    }
}

/// Static wear levelling provably reduces the wear spread under hot/cold
/// skew: half the device holds cold data written once, the rest churns.
/// With levelling on, cold blocks are migrated into worn spares and
/// their low-wear cells rejoin the hot pool.
#[test]
fn static_levelling_reduces_wear_spread_under_skew() {
    let churn = |endurance: bool| -> (f64, u64) {
        let mut g = FlashGeometry::tiny();
        g.blocks_per_plane = 2;
        g.pages_per_block = 8;
        let mut d = FlashDevice::zng_config(g, Freq::default(), RegisterTopology::NiF).unwrap();
        let mut f = ZngFtl::new(&d, 1, WriteMode::Direct);
        if endurance {
            f.set_endurance(Some(RefreshPolicy {
                disturb_threshold: 0,
                retention_threshold: 0,
                wear_spread: 1.5,
            }));
        }
        let mut t = Cycle::ZERO;
        for vbn in 1..=16u64 {
            for p in 0..8u64 {
                t = f.write(t, &mut d, vbn * 8 + p).unwrap().done;
            }
            t = f.gc_group(t, &mut d, vbn).unwrap().done;
        }
        for i in 0..3_000u64 {
            t = f.write(t, &mut d, i % 8).unwrap().done;
            if endurance && i % 16 == 0 {
                t = f.refresh_step(t, &mut d).unwrap();
            }
        }
        // Every cold page still reads back after the migrations.
        for vbn in 1..=16u64 {
            for p in 0..8u64 {
                t = f.read(t, &mut d, vbn * 8 + p, 128).unwrap();
            }
        }
        (
            d.endurance().wear_spread(),
            f.endurance_counters().unwrap_or_default().level_migrations,
        )
    };
    let (spread_off, migs_off) = churn(false);
    let (spread_on, migs_on) = churn(true);
    assert_eq!(migs_off, 0);
    assert!(migs_on > 0, "the skew must trip the static leveler");
    assert!(
        spread_on < spread_off,
        "levelling must reduce the wear spread ({spread_on:.2} vs {spread_off:.2})"
    );
}

/// The same skew on the page-map FTL: its leveler relocates cold sealed
/// blocks directly.
#[test]
fn pagemap_levelling_reduces_wear_spread_under_skew() {
    let churn = |endurance: bool| -> (f64, u64) {
        let mut g = FlashGeometry::tiny();
        g.blocks_per_plane = 2;
        g.pages_per_block = 8;
        let mut d = FlashDevice::zng_config(g, Freq::default(), RegisterTopology::NiF).unwrap();
        let mut f = PageMapFtl::new(&d);
        if endurance {
            f.set_endurance(Some(RefreshPolicy {
                disturb_threshold: 0,
                retention_threshold: 0,
                wear_spread: 1.5,
            }));
        }
        let mut t = Cycle::ZERO;
        for lpn in 8..136u64 {
            t = f.write(t, &mut d, lpn).unwrap().done;
        }
        for i in 0..3_000u64 {
            t = f.write(t, &mut d, i % 8).unwrap().done;
            if endurance && i % 16 == 0 {
                t = f.refresh_step(t, &mut d).unwrap();
            }
        }
        for lpn in 8..136u64 {
            t = f.read(t, &mut d, lpn, 128).unwrap();
        }
        (
            d.endurance().wear_spread(),
            f.endurance_counters().unwrap_or_default().level_migrations,
        )
    };
    let (spread_off, _) = churn(false);
    let (spread_on, migs_on) = churn(true);
    assert!(migs_on > 0, "the skew must trip the static leveler");
    assert!(
        spread_on < spread_off,
        "levelling must reduce the wear spread ({spread_on:.2} vs {spread_off:.2})"
    );
}
