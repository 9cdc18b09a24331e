//! Predictive-health property tests (the PR's headline invariants).
//!
//! A die that is slowly dying gets flagged by the health monitor,
//! quarantined, and pre-emptively evacuated while the workload runs.
//! Three things must hold on both FTLs, under any fault profile, with
//! RAIN on or off, and across arbitrary crash points:
//!
//! 1. **No acked write lost**: quarantine fencing and evacuation
//!    migrations never drop or misdirect a mapping — every acknowledged
//!    write is still mapped to its own data after a power cut and
//!    recovery, even when the cut lands mid-evacuation.
//! 2. **Evacuation beats the failure**: once the monitor reports the
//!    evacuation complete, the die can drop dead outright and not a
//!    single read touches it again.
//! 3. **Monitoring is inert on healthy hardware**: with no degrading
//!    die and no faults, the monitor flags nothing, moves nothing, and
//!    the mapping state is identical to a twin that never ran it.

use std::collections::HashSet;

use proptest::prelude::*;
use zng_flash::{DegradingDie, FaultConfig, FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl, HealthCounters, HealthPolicy, PageMapFtl, RainConfig, WriteMode, ZngFtl};
use zng_types::{Cycle, Error, Freq};

/// A hair-trigger policy: the degrading die is flagged on its first
/// telemetry blip and evacuated immediately, so even short generated
/// workloads exercise quarantine and migration.
fn hair_trigger() -> HealthPolicy {
    HealthPolicy {
        window: 4,
        suspect_threshold: 0.0005,
        evacuate: true,
    }
}

fn device(profile: u8, seed: u64, degrading: Option<DegradingDie>) -> FlashDevice {
    let mut d = FlashDevice::zng_config(
        FlashGeometry::tiny(),
        Freq::default(),
        RegisterTopology::NiF,
    )
    .unwrap();
    // The seed also feeds the degrading die's RNG stream, so even the
    // fault-free profile varies across cases.
    let mut cfg = match profile {
        0 => FaultConfig::none().with_seed(seed),
        1 => FaultConfig::nominal().with_seed(seed),
        _ => FaultConfig::end_of_life().with_seed(seed),
    };
    if let Some(dd) = degrading {
        cfg = cfg.with_degrading(dd);
    }
    d.set_fault_config(&cfg);
    d
}

/// The ZnG FTL with two data blocks per log block and direct writes.
fn zng(d: &FlashDevice) -> ZngFtl {
    ZngFtl::new(d, 2, WriteMode::Direct)
}

/// `f` with RAIN redundancy installed when `rain`.
fn with_rain<F: Ftl>(mut f: F, d: &FlashDevice, rain: bool) -> F {
    if rain {
        f.set_redundancy(d, Some(RainConfig::default()));
    }
    f
}

/// The health counters (all zero with health monitoring off).
fn counters(f: &impl Ftl) -> HealthCounters {
    f.health_counters().unwrap_or_default()
}

/// Invariant 1: a degrading die, a hair-trigger monitor, and a power
/// cut at an arbitrary point (including mid-evacuation) never lose an
/// acknowledged write — after recovery every acked logical page is
/// still mapped to its own data, never to a torn page or foreign key.
fn check_no_acked_write_lost<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    profile: u8,
    seed: u64,
    writes: &[u64],
    crash_at: usize,
    rain: bool,
) -> Result<(), TestCaseError> {
    // A long, shallow ramp: noisy enough to trip the hair trigger, but
    // the die never actually dies within test time.
    let dd = DegradingDie {
        channel: 0,
        die: 0,
        onset: 0,
        death: 200_000_000,
    };
    let mut d = device(profile, seed, Some(dd));
    let mut f = with_rain(new_ftl(&d), &d, rain);
    f.set_health(Some(hair_trigger()));

    let crash_at = crash_at.min(writes.len());
    let mut t = Cycle::ZERO;
    let mut acked: HashSet<u64> = HashSet::new();
    for &lpn in &writes[..crash_at] {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                acked.insert(lpn);
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. }) => {}
            // A redrive-exhausted write on the noisy die was never
            // acked, so it creates no durability obligation.
            Err(Error::FlashProtocol { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
        t = f
            .health_step(t, &mut d)
            .map_err(|e| TestCaseError::fail(format!("health step failed: {e}")))?;
    }

    // A settled cut: every acked program has completed, so every acked
    // write is a durability obligation.
    let t_cut = t + Cycle(10_000_000);
    d.power_loss(t_cut);
    f.recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;

    let t_after = t_cut + Cycle(1);
    for &lpn in &acked {
        let addr = f.locate(lpn);
        prop_assert!(addr.is_some(), "acked lpn {lpn} lost its mapping");
        let addr = addr.unwrap();
        prop_assert!(
            !d.page_is_torn(addr),
            "acked lpn {lpn} mapped to a torn page"
        );
        let stamp = d.page_stamp(addr);
        prop_assert!(stamp.is_some(), "acked lpn {lpn} mapped to unstamped media");
        let (key, _) = stamp.unwrap();
        prop_assert_eq!(key, lpn, "acked lpn {} resolves to foreign data", lpn);
        match f.read(t_after, &mut d, lpn, 128) {
            // Media errors under injected fault profiles are allowed;
            // serving a torn page or losing the mapping is not.
            Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
            Err(Error::TornPage { .. }) => {
                return Err(TestCaseError::fail(format!("torn page served for {lpn}")))
            }
            Err(e) => return Err(TestCaseError::fail(format!("read failed: {e}"))),
        }
    }
    Ok(())
}

/// Invariant 2: once the monitor reports the evacuation complete, the
/// die can drop dead outright and no read ever touches it again.
fn check_evacuation_beats_death<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    seed: u64,
    writes: &[u64],
) -> Result<HealthCounters, TestCaseError> {
    const DEATH: u64 = 80_000_000;

    // Dry run on a healthy twin to find the die the allocator loads
    // most: degrading *that* die guarantees the evacuation has real
    // work (the RAIN layout shifts data placement, so a fixed victim
    // could end up holding only parity).
    let (victim_ch, victim_die) = {
        let mut d = device(0, seed, None);
        let mut f = with_rain(new_ftl(&d), &d, true);
        let mut t = Cycle::ZERO;
        let mut per_die = std::collections::BTreeMap::new();
        for &lpn in writes {
            if let Ok(w) = f.write(t, &mut d, lpn) {
                t = w.done;
            }
        }
        for &lpn in writes {
            if let Some(a) = f.locate(lpn) {
                let key = (a.block.channel.index() as u16, a.block.die.index() as u16);
                *per_die.entry(key).or_insert(0u32) += 1;
            }
        }
        per_die
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .map_or((0, 0), |(k, _)| k)
    };
    let dd = DegradingDie {
        channel: victim_ch,
        die: victim_die,
        onset: 0,
        death: DEATH,
    };
    // Fault-free background: the degrading die is the only telemetry
    // source, so the hair trigger quarantines it and nothing else.
    // (Organic fault profiles are lane 1's concern; under end-of-life
    // noise a hair trigger would quarantine every die on the device.)
    let mut d = device(0, seed, Some(dd));
    let mut f = with_rain(new_ftl(&d), &d, true);
    f.set_health(Some(hair_trigger()));

    let mut t = Cycle::ZERO;
    let mut acked: Vec<u64> = Vec::new();
    for &lpn in writes {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                acked.push(lpn);
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. } | Error::FlashProtocol { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
        t = f
            .health_step(t, &mut d)
            .map_err(|e| TestCaseError::fail(format!("health step failed: {e}")))?;
    }

    // Burn-in: keep a small filler write set churning (programs sense
    // the array and evict register-cached pages — a purely
    // register-resident working set would never produce telemetry) and
    // re-read the working set as the die degrades. Severity ramps
    // towards 1, so the die's programs start failing and its reads burn
    // retries; the monitor flags it and the evacuation runs — all well
    // before the death cycle.
    let on_suspect_die = |f: &F, lpn: u64| {
        f.locate(lpn).is_some_and(|a| {
            a.block.channel.index() as u16 == dd.channel && a.block.die.index() as u16 == dd.die
        })
    };
    // The filler lives far above both lanes' lpn domains: its group
    // merges must never relocate the acked working set, or the victim
    // die drains organically and the evacuation has nothing to prove.
    let filler: Vec<u64> = (512..520).collect();
    for &lpn in &filler {
        if !acked.contains(&lpn) {
            acked.push(lpn);
        }
    }
    let mut rounds = 0u32;
    'burn_in: while counters(&f).evacuations_completed == 0 {
        rounds += 1;
        prop_assert!(
            rounds < 512 && t.raw() < DEATH,
            "evacuation never completed before death: {:?}",
            counters(&f)
        );
        for &lpn in &filler {
            match f.write(t, &mut d, lpn) {
                Ok(w) => t = w.done,
                Err(Error::DeviceWornOut { .. }) => break 'burn_in,
                Err(Error::UncorrectableRead { .. } | Error::FlashProtocol { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("burn-in write failed: {e}"))),
            }
        }
        for &lpn in &acked {
            match f.read(t, &mut d, lpn, 128) {
                Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("burn-in read failed: {e}"))),
            }
        }
        t = f
            .health_step(t, &mut d)
            .map_err(|e| TestCaseError::fail(format!("health step failed: {e}")))?;
        // A floor on the clock so severity keeps ramping even when the
        // filler writes are absorbed cheaply.
        t += Cycle(DEATH / 256);
        // A die that holds no data and was never flagged has nothing to
        // evacuate — the post-death check below is then vacuous.
        if counters(&f).suspects_flagged == 0
            && rounds >= 16
            && !acked.iter().any(|&lpn| on_suspect_die(&f, lpn))
        {
            break;
        }
    }
    prop_assert_eq!(d.dead_die_reads(), 0);

    // Kill the die: jump the clock past its death and read back the
    // whole acked working set. Every read must be served from live
    // silicon — the device-level dead-die read counter stays at zero.
    let t_dead = Cycle(DEATH + 1_000_000);
    for &lpn in &acked {
        match f.read(t_dead, &mut d, lpn, 128) {
            Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("post-death read failed: {e}"))),
        }
    }
    prop_assert_eq!(
        d.dead_die_reads(),
        0,
        "a completed evacuation must leave nothing on the dead die"
    );
    Ok(counters(&f))
}

/// Invariant 3: on a healthy, fault-free device the monitor flags
/// nothing, moves nothing, and leaves the mapping state identical to a
/// twin that never ran it.
fn check_inert_on_healthy_device<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    seed: u64,
    writes: &[u64],
) -> Result<(), TestCaseError> {
    let mut d_mon = device(0, seed, None);
    let mut d_off = device(0, seed, None);
    let mut f_mon = new_ftl(&d_mon);
    let mut f_off = new_ftl(&d_off);
    f_mon.set_health(Some(HealthPolicy::default()));

    let (mut t_mon, mut t_off) = (Cycle::ZERO, Cycle::ZERO);
    for &lpn in writes {
        t_mon = f_mon
            .write(t_mon, &mut d_mon, lpn)
            .map(|w| w.done)
            .map_err(|e| TestCaseError::fail(format!("monitored write failed: {e}")))?;
        t_mon = f_mon
            .health_step(t_mon, &mut d_mon)
            .map_err(|e| TestCaseError::fail(format!("health step failed: {e}")))?;
        t_off = f_off
            .write(t_off, &mut d_off, lpn)
            .map(|w| w.done)
            .map_err(|e| TestCaseError::fail(format!("plain write failed: {e}")))?;
    }

    let c = counters(&f_mon);
    prop_assert_eq!(c.suspects_flagged, 0, "healthy die flagged: {:?}", c);
    prop_assert_eq!(c.pages_evacuated, 0, "healthy die evacuated: {:?}", c);
    prop_assert_eq!(c.dead_dies_fenced, 0);
    prop_assert_eq!(f_mon.free_blocks(), f_off.free_blocks());
    for &lpn in writes {
        prop_assert_eq!(
            f_mon.locate(lpn),
            f_off.locate(lpn),
            "monitoring a healthy device moved lpn {}",
            lpn
        );
    }
    Ok(())
}

proptest! {
    /// ZnG FTL: no acked write lost (degrading die × RAIN on/off ×
    /// fault profiles × arbitrary crash points).
    #[test]
    fn zng_health_no_acked_write_lost(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..80),
        crash_at in 0usize..80,
        rain in any::<bool>(),
    ) {
        check_no_acked_write_lost(zng, profile, seed, &writes, crash_at, rain)?;
    }

    /// Conventional page-map FTL: same headline invariant.
    #[test]
    fn pagemap_health_no_acked_write_lost(
        profile in 0u8..3,
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..256, 1..80),
        crash_at in 0usize..80,
        rain in any::<bool>(),
    ) {
        check_no_acked_write_lost(PageMapFtl::new, profile, seed, &writes, crash_at, rain)?;
    }

    /// ZnG FTL: a completed evacuation leaves nothing behind — the die
    /// dies and the dead-die read counter stays at zero.
    #[test]
    fn zng_completed_evacuation_beats_die_death(
        seed in 0u64..30,
        writes in prop::collection::vec(0u64..48, 4..60),
    ) {
        check_evacuation_beats_death(zng, seed, &writes)?;
    }

    /// Conventional page-map FTL: same invariant.
    #[test]
    fn pagemap_completed_evacuation_beats_die_death(
        seed in 0u64..30,
        writes in prop::collection::vec(0u64..256, 4..60),
    ) {
        check_evacuation_beats_death(PageMapFtl::new, seed, &writes)?;
    }

    /// ZnG FTL: monitoring healthy hardware is free of side effects.
    #[test]
    fn zng_health_inert_on_healthy_device(
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..48, 1..80),
    ) {
        check_inert_on_healthy_device(zng, seed, &writes)?;
    }

    /// Conventional page-map FTL: same inertness guarantee.
    #[test]
    fn pagemap_health_inert_on_healthy_device(
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..256, 1..80),
    ) {
        check_inert_on_healthy_device(PageMapFtl::new, seed, &writes)?;
    }
}

/// The evacuation lane must not pass vacuously: a working set that
/// blankets the footprint puts data on the degrading die, and the run
/// must report a flagged suspect and a completed evacuation.
#[test]
fn evacuation_lane_exercises_the_machinery() {
    let writes: Vec<u64> = (0..48).collect();
    for (ftl, c) in [
        ("zng", check_evacuation_beats_death(zng, 0, &writes)),
        (
            "pagemap",
            check_evacuation_beats_death(PageMapFtl::new, 0, &writes),
        ),
    ] {
        let c = c.unwrap();
        assert!(c.suspects_flagged >= 1, "{ftl}: {c:?}");
        assert!(c.evacuations_completed >= 1, "{ftl}: {c:?}");
        assert!(c.pages_evacuated >= 1, "{ftl}: {c:?}");
    }
}
