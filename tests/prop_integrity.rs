//! End-to-end data-integrity property tests (the PR's headline
//! invariant).
//!
//! For an arbitrary workload, arbitrary silent-corruption points, any
//! fault profile, redundancy on or off, and an arbitrary crash point, on
//! both FTLs:
//!
//! 1. **No corrupted payload is ever served as a successful read.** A
//!    read of a corrupt page either heals it (RAIN reconstruction, after
//!    which the mapped copy is clean) or fails loudly with
//!    [`Error::IntegrityViolation`]. On the media-only page-map FTL this
//!    is asserted after *every* read; on the ZnG FTL, whose flash
//!    registers legitimately serve still-buffered (uncorrupted) data, it
//!    is asserted for every post-crash read, when no register copies
//!    remain.
//! 2. **Recovery quarantines, never resurrects.** After an OOB-scan
//!    recovery, no logical page maps to a corrupt media copy.
//! 3. **Determinism.** The same scenario replayed yields identical
//!    integrity counters and mappings.
//!
//! Corruption is injected with the deterministic `mark_page_corrupt`
//! hook (the organic paths — wear/retention SDC streams and `--sdc-at` —
//! are covered by unit tests in `zng-flash` and the runner).

use proptest::prelude::*;
use zng_flash::{FaultConfig, FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl, PageMapFtl, RainConfig, WriteMode, ZngFtl};
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

/// One read, with the full outcome contract applied: success, a loud
/// integrity violation, or an organic media error — never a quiet serve
/// of a corrupt copy (asserted via the post-read mapping when the read
/// cannot have been satisfied by a register).
fn checked_read(
    f: &mut impl Ftl,
    d: &mut FlashDevice,
    t: Cycle,
    lpn: u64,
    media_only: bool,
) -> Result<Cycle, TestCaseError> {
    match f.read(t, d, lpn, 128) {
        Ok(done) => {
            if media_only {
                if let Some(addr) = f.locate(lpn) {
                    prop_assert!(
                        !d.page_is_corrupt(addr),
                        "lpn {lpn} read Ok but still maps to corrupt media"
                    );
                }
            }
            Ok(done)
        }
        Err(
            Error::IntegrityViolation { .. }
            | Error::UncorrectableRead { .. }
            | Error::DeviceWornOut { .. },
        ) => Ok(t),
        Err(e) => Err(TestCaseError::fail(format!("read of {lpn} failed: {e}"))),
    }
}

/// Drives writes with interleaved corruption injection and verified
/// reads, cuts power at an arbitrary point, recovers, and checks the
/// quarantine + no-corrupt-serve invariants on every logical page.
/// `media_only` says that every read of the FTL senses the media (no
/// flash register serves it), as on the page-map FTL.
#[allow(clippy::too_many_arguments)]
fn check_integrity<F: Ftl>(
    new_ftl: impl Fn(&FlashDevice) -> F,
    media_only: bool,
    profile: u8,
    seed: u64,
    writes: &[u64],
    corrupt_every: usize,
    crash_at: usize,
    rain: bool,
) -> Result<(), TestCaseError> {
    let build = |d: &FlashDevice| {
        let mut f = new_ftl(d);
        if rain {
            f.set_redundancy(d, Some(RainConfig::default()));
        }
        f.set_integrity(true);
        f
    };
    let mut d = device(profile, seed);
    let mut f = build(&d);

    // Phase 1: writes up to the crash point; every `corrupt_every`-th
    // write's media copy is silently corrupted, then read back through
    // the verified read path.
    let crash_at = crash_at.min(writes.len());
    let mut t = Cycle::ZERO;
    for (i, &lpn) in writes[..crash_at].iter().enumerate() {
        match f.write(t, &mut d, lpn) {
            Ok(w) => t = w.done,
            Err(Error::DeviceWornOut { .. }) => break,
            // A write can fail loudly too: the RMW fetch of a corrupt
            // old copy refuses to fold unverifiable data forward.
            Err(Error::UncorrectableRead { .. } | Error::IntegrityViolation { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
        }
        if i % corrupt_every == 0 {
            if let Some(addr) = f.locate(lpn) {
                if d.page_oob(addr).is_some() {
                    let _ = d.mark_page_corrupt(addr);
                }
            }
            t = checked_read(&mut f, &mut d, t, lpn, media_only)?;
        }
    }

    // Phase 2: the cut. Wait out background programs so durability is
    // not at issue (prop_crash covers torn pages), then recover.
    let t_cut = t + Cycle(10_000_000);
    d.power_loss(t_cut);
    let report = f
        .recover(t_cut, &mut d)
        .map_err(|e| TestCaseError::fail(format!("recovery failed: {e}")))?;

    // Invariant 2: the scan never resurrects a corrupt copy as a
    // winner. On the page-map FTL every mapping is a resolved winner, so
    // no logical page may map to corrupt media. The ZnG FTL's DBMT maps
    // data blocks positionally — a corrupt data page stays *reachable*
    // (it has no older copy to roll back to) but is excluded from the
    // restored-valid set and contained by the verified read path, which
    // phase 3 exercises.
    if media_only {
        for &lpn in writes {
            if let Some(addr) = f.locate(lpn) {
                prop_assert!(
                    !d.page_is_corrupt(addr),
                    "recovery resurrected corrupt media for lpn {lpn}"
                );
            }
        }
    }
    // Mappings and counters as recovery left them, before phase-3 reads
    // fault in fresh pages and bump the detection counts.
    let recovered: Vec<_> = writes.iter().map(|&l| (l, f.locate(l))).collect();
    let counters_at_recovery = f.integrity_counters();

    // Phase 3: with the registers gone, every read is a media read — the
    // sharpest form of invariant 1, on both FTLs.
    let mut t = t_cut + report.scan_cycles + Cycle(1);
    for &lpn in writes {
        t = checked_read(&mut f, &mut d, t, lpn, true)?;
    }

    // Invariant 3: the whole scenario replays deterministically.
    let mut d2 = device(profile, seed);
    let mut f2 = build(&d2);
    let mut t2 = Cycle::ZERO;
    for (i, &lpn) in writes[..crash_at].iter().enumerate() {
        match f2.write(t2, &mut d2, lpn) {
            Ok(w) => t2 = w.done,
            Err(Error::DeviceWornOut { .. }) => break,
            Err(Error::UncorrectableRead { .. } | Error::IntegrityViolation { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("replay write failed: {e}"))),
        }
        if i % corrupt_every == 0 {
            if let Some(addr) = f2.locate(lpn) {
                if d2.page_oob(addr).is_some() {
                    let _ = d2.mark_page_corrupt(addr);
                }
            }
            t2 = checked_read(&mut f2, &mut d2, t2, lpn, media_only)?;
        }
    }
    let t2_cut = t2 + Cycle(10_000_000);
    d2.power_loss(t2_cut);
    let report2 = f2
        .recover(t2_cut, &mut d2)
        .map_err(|e| TestCaseError::fail(format!("replay recovery failed: {e}")))?;
    prop_assert_eq!(report.corrupt_quarantined, report2.corrupt_quarantined);
    prop_assert_eq!(counters_at_recovery, f2.integrity_counters());
    for (lpn, addr) in recovered {
        prop_assert_eq!(
            addr,
            f2.locate(lpn),
            "recovery mapping diverged for lpn {}",
            lpn
        );
    }
    Ok(())
}

proptest! {
    /// ZnG FTL, direct writes, no redundancy: corrupt reads fail loudly.
    #[test]
    fn zng_direct_never_serves_corruption(
        profile in 0u8..3,
        seed in 0u64..25,
        writes in prop::collection::vec(0u64..48, 1..80),
        corrupt_every in 1usize..6,
        crash_at in 0usize..80,
    ) {
        check_integrity(zng(WriteMode::Direct), false, profile, seed, &writes,
            corrupt_every, crash_at, false)?;
    }

    /// ZnG FTL, direct writes, RAIN on: corrupt reads reconstruct.
    #[test]
    fn zng_direct_with_rain_never_serves_corruption(
        profile in 0u8..3,
        seed in 0u64..25,
        writes in prop::collection::vec(0u64..48, 1..80),
        corrupt_every in 1usize..6,
        crash_at in 0usize..80,
    ) {
        check_integrity(zng(WriteMode::Direct), false, profile, seed, &writes,
            corrupt_every, crash_at, true)?;
    }

    /// ZnG FTL, buffered (register-grouped) writes, both policies.
    #[test]
    fn zng_buffered_never_serves_corruption(
        profile in 0u8..3,
        seed in 0u64..25,
        writes in prop::collection::vec(0u64..48, 1..80),
        corrupt_every in 1usize..6,
        crash_at in 0usize..80,
        rain in any::<bool>(),
    ) {
        check_integrity(zng(WriteMode::Buffered), false, profile, seed, &writes,
            corrupt_every, crash_at, rain)?;
    }

    /// Conventional page-map FTL: the invariant holds on every read.
    #[test]
    fn pagemap_never_serves_corruption(
        profile in 0u8..3,
        seed in 0u64..25,
        writes in prop::collection::vec(0u64..256, 1..80),
        corrupt_every in 1usize..6,
        crash_at in 0usize..80,
        rain in any::<bool>(),
    ) {
        check_integrity(PageMapFtl::new, true, profile, seed, &writes,
            corrupt_every, crash_at, rain)?;
    }
}

/// Integrity off is the control: the same corrupt page is served
/// without complaint (silent corruption really is silent below the
/// verification layer), which is exactly why the verified path exists.
#[test]
fn integrity_off_serves_corruption_silently() {
    let mut d = device(0, 0);
    let mut f = PageMapFtl::new(&d);
    let mut t = f.write(Cycle::ZERO, &mut d, 7).unwrap().done;
    let addr = f.locate(7).unwrap();
    d.mark_page_corrupt(addr).unwrap();
    t = f.read(t, &mut d, 7, 128).expect("unverified read serves");
    assert!(d.page_is_corrupt(addr), "nothing healed it");
    // Flipping verification on turns the same read into a loud failure.
    f.set_integrity(true);
    match f.read(t, &mut d, 7, 128) {
        Err(Error::IntegrityViolation { .. }) => {}
        other => panic!("expected IntegrityViolation, got {other:?}"),
    }
}
