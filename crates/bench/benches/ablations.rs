//! Ablations from the paper's discussion (§VI) and design choices
//! DESIGN.md calls out:
//!
//! * **Media** — ZnG built on Z-NAND vs. TLC V-NAND (17×/6× slower
//!   read/program): the paper's premise that the *new* flash is what
//!   makes the architecture viable.
//! * **Wear levelling** — the helper thread's least-erased-first policy
//!   vs. FIFO recycling, measured by wear evenness under churn.
//! * **Lifetime** — projected Z-NAND lifetime from the measured erase
//!   rate (paper §VI: register merging keeps the device alive for
//!   years).

use zng::Table;
use zng_bench::{quick, report};
use zng_flash::{
    DegradingDie, FaultConfig, FlashDevice, FlashGeometry, FlashTiming, RegisterTopology,
    DISTURB_READS_PER_CYCLE,
};
use zng_ftl::{
    CheckpointConfig, Ftl, HealthPolicy, PageMapFtl, RainConfig, RefreshPolicy, WearPolicy,
    WriteMode, ZngFtl,
};
use zng_types::{
    ids::{ChannelId, DieId},
    Cycle, Error, Freq,
};

fn main() {
    media_ablation();
    wear_ablation();
    redundancy_ablation();
    integrity_ablation();
    lifetime_ablation();
    recovery_ablation();
    health_ablation();
}

/// Streams a read-heavy page workload through a ZnG-style device built
/// on each medium and compares sustained latency.
fn media_ablation() {
    let mut t = Table::new(vec![
        "medium".into(),
        "read us".into(),
        "program us".into(),
        "stream time (ms)".into(),
        "vs Z-NAND".into(),
    ]);
    let mut results = Vec::new();
    for timing in [FlashTiming::znand(), FlashTiming::vnand_tlc()] {
        let freq = Freq::default();
        let geometry = FlashGeometry::tiny();
        let net = zng_flash::FlashNetwork::mesh(geometry.channels, 8.0, Cycle(2));
        let mut dev =
            FlashDevice::new(geometry, timing, freq, net, RegisterTopology::NiF).expect("device");
        let mut ftl = ZngFtl::new(&dev, 1, WriteMode::Buffered);
        // 64 concurrent reader chains over a page-sequential region.
        let streams = 64usize;
        let mut chains = vec![Cycle::ZERO; streams];
        let pages = if quick() { 2_000u64 } else { 8_000 };
        for i in 0..pages {
            let s = (i % streams as u64) as usize;
            let vpn = (s as u64) * 500 + i / streams as u64;
            chains[s] = ftl
                .read(chains[s], &mut dev, vpn, 4096)
                .expect("stream read");
        }
        let end = chains.iter().max().copied().unwrap_or(Cycle(1));
        results.push((timing, end));
    }
    let z_end = results[0].1;
    for (timing, end) in &results {
        t.row(vec![
            timing.name.into(),
            format!("{:.0}", timing.read.0 / 1_000.0),
            format!("{:.0}", timing.program.0 / 1_000.0),
            format!("{:.2}", end.raw() as f64 / 1.2e6),
            format!("{:.1}x", end.raw() as f64 / z_end.raw() as f64),
        ]);
    }
    assert!(
        results[1].1.raw() as f64 / z_end.raw() as f64 > 5.0,
        "V-NAND must be many times slower than Z-NAND on the read stream"
    );
    report(
        "ablation_media",
        "ZnG on Z-NAND vs TLC V-NAND",
        &t,
        "Z-NAND's 17x faster reads are what make direct GPU-flash access viable (paper SII-B)",
    );
}

/// Write churn under both recycling policies; compares wear evenness and
/// worst-block wear.
fn wear_ablation() {
    let mut t = Table::new(vec![
        "policy".into(),
        "GCs".into(),
        "total erases".into(),
        "worst block".into(),
        "evenness".into(),
        "projected lifetime (rel)".into(),
    ]);
    let mut worst = Vec::new();
    for (label, policy) in [
        ("least-erased (wear levelling)", WearPolicy::LeastErased),
        ("LIFO (none)", WearPolicy::Lifo),
    ] {
        // A deliberately tiny device so recycling cycles many times.
        let mut geometry = FlashGeometry::tiny();
        geometry.blocks_per_plane = 2;
        geometry.pages_per_block = 8;
        let mut dev = FlashDevice::zng_config(geometry, Freq::default(), RegisterTopology::NiF)
            .expect("device");
        let mut ftl = ZngFtl::with_wear_policy(&dev, 1, WriteMode::Direct, policy);
        let mut now = Cycle::ZERO;
        let writes = if quick() { 2_000u64 } else { 6_000 };
        // Skewed churn: one hot page plus a rotating cold set, so blocks
        // are reclaimed at different rates and the policies diverge.
        for i in 0..writes {
            let vpn = if i % 4 == 0 { (i / 4) % 24 } else { 0 };
            let r = ftl.write(now, &mut dev, vpn).expect("write");
            now = r.done.max(now + Cycle(1));
        }
        let e = dev.endurance();
        worst.push(e.max_block_erases);
        // Lifetime scales inversely with the worst block's wear rate.
        t.row(vec![
            label.into(),
            ftl.gcs().to_string(),
            e.total_erases.to_string(),
            e.max_block_erases.to_string(),
            format!("{:.2}", e.evenness()),
            format!("{:.2}", 1.0 / e.worst_wear_fraction().max(1e-12) / 1e5),
        ]);
    }
    assert!(
        worst[0] <= worst[1],
        "wear levelling must not worsen the worst block ({} vs {})",
        worst[0],
        worst[1]
    );
    report(
        "ablation_wear",
        "Wear-levelling policy under write churn",
        &t,
        "the helper thread's wear levelling spreads erases, extending Z-NAND lifetime (paper SVI)",
    );
}

/// Redundancy overhead: the same read stream with RAIN off, RAIN on
/// (healthy), and RAIN degraded by a dead die, plus the patrol
/// scrubber's media cost — the numbers behind EXPERIMENTS.md
/// "Redundancy & self-healing overhead".
fn redundancy_ablation() {
    let vpns = if quick() { 128u64 } else { 512 };

    // One sequential read chain over the footprint; the chained `now`
    // makes the end time the sum of every read's latency.
    let read_pass = |ftl: &mut ZngFtl, dev: &mut FlashDevice, start: Cycle| -> Cycle {
        let mut t = start;
        for vpn in 0..vpns {
            t = ftl.read(t, dev, vpn, 4096).expect("stream read");
        }
        t
    };
    let device = || {
        FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .expect("device")
    };

    // Redundancy off: the baseline read stream.
    let mut dev0 = device();
    let mut off = ZngFtl::new(&dev0, 1, WriteMode::Direct);
    let t_off = read_pass(&mut off, &mut dev0, Cycle::ZERO);

    // RAIN on, healthy media: reads never touch parity.
    let mut dev = device();
    let mut rain = ZngFtl::new(&dev, 1, WriteMode::Direct);
    rain.set_redundancy(&dev, Some(RainConfig::default()));
    let t_healthy = read_pass(&mut rain, &mut dev, Cycle::ZERO);
    assert_eq!(
        t_healthy.raw(),
        t_off.raw(),
        "healthy RAIN reads must cost exactly the baseline"
    );

    // Kill one die and stream again: every page whose block sits on the
    // dead die is reconstructed from its surviving stripe members.
    dev.fail_die(ChannelId(1), DieId(0));
    let t0 = rain.fence_dead_die(t_healthy, &mut dev).expect("fence");
    let t_degraded = read_pass(&mut rain, &mut dev, t0);
    let c = rain.redundancy().expect("installed").counters();
    assert!(
        c.reconstructions > 0,
        "the dead die must force reconstructions"
    );
    let healthy_cycles = t_healthy.raw();
    let degraded_cycles = t_degraded.raw() - t0.raw();
    let extra_per_recon =
        (degraded_cycles.saturating_sub(healthy_cycles)) as f64 / c.reconstructions as f64;

    // Patrol scrub on healthy media (unpaced, so the horizon is the true
    // media time): cycles per page scanned.
    let mut dev2 = device();
    let mut scrubbed = ZngFtl::new(&dev2, 1, WriteMode::Direct);
    scrubbed.set_redundancy(&dev2, Some(RainConfig::default()));
    let t1 = read_pass(&mut scrubbed, &mut dev2, Cycle::ZERO);
    let steps = if quick() { 32 } else { 128 };
    let mut now = t1;
    let mut scrub_cycles = 0u64;
    for _ in 0..steps {
        let h = scrubbed.scrub_step(now, &mut dev2).expect("scrub step");
        scrub_cycles += h.raw() - now.raw();
        now = h + Cycle(1);
    }
    let scanned = scrubbed
        .redundancy()
        .expect("installed")
        .counters()
        .scrub_scanned;
    assert!(scanned > 0, "the patrol must scan live pages");

    let ms = |cycles: u64| cycles as f64 / 1.2e6;
    let mut t = Table::new(vec![
        "config".into(),
        "read stream (ms)".into(),
        "vs off".into(),
        "reconstructions".into(),
        "extra cyc/recon".into(),
    ]);
    t.row(vec![
        "redundancy off".into(),
        format!("{:.3}", ms(t_off.raw())),
        "1.00x".into(),
        "0".into(),
        "-".into(),
    ]);
    t.row(vec![
        "RAIN healthy".into(),
        format!("{:.3}", ms(t_healthy.raw())),
        format!("{:.2}x", t_healthy.raw() as f64 / t_off.raw() as f64),
        "0".into(),
        "-".into(),
    ]);
    t.row(vec![
        "RAIN degraded (1 die dead)".into(),
        format!("{:.3}", ms(degraded_cycles)),
        format!("{:.2}x", degraded_cycles as f64 / t_off.raw() as f64),
        c.reconstructions.to_string(),
        format!("{extra_per_recon:.0}"),
    ]);
    t.row(vec![
        format!("patrol scrub ({scanned} pages)"),
        format!("{:.3}", ms(scrub_cycles)),
        format!(
            "+{:.1}% of baseline",
            100.0 * scrub_cycles as f64 / t_off.raw() as f64
        ),
        "0".into(),
        format!("{:.0} cyc/page", scrub_cycles as f64 / scanned as f64),
    ]);
    report(
        "ablation_redundancy",
        "RAIN reconstruction & patrol-scrub overhead",
        &t,
        "device-level redundancy beneath the FTL: healthy reads free, degraded reads pay a \
         bounded stripe fan-out, scrub paced in the background (GNStor-style RAIN)",
    );
}

/// End-to-end integrity overhead: the same read stream unverified,
/// verified on clean media, and verified with silent corruption healed
/// through RAIN — the numbers behind EXPERIMENTS.md "End-to-end data
/// integrity overhead".
fn integrity_ablation() {
    let vpns = if quick() { 128u64 } else { 512 };

    let read_pass = |ftl: &mut ZngFtl, dev: &mut FlashDevice, start: Cycle| -> Cycle {
        let mut t = start;
        for vpn in 0..vpns {
            t = ftl.read(t, dev, vpn, 4096).expect("stream read");
        }
        t
    };
    let device = || {
        FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .expect("device")
    };

    // Verification off: the baseline read stream.
    let mut dev0 = device();
    let mut off = ZngFtl::new(&dev0, 1, WriteMode::Direct);
    let t_off = read_pass(&mut off, &mut dev0, Cycle::ZERO);

    // Verification on, clean media: the OOB checksum rides the page the
    // read already sensed, so verified reads must cost the baseline.
    let mut dev1 = device();
    let mut clean = ZngFtl::new(&dev1, 1, WriteMode::Direct);
    clean.set_integrity(true);
    let t_clean = read_pass(&mut clean, &mut dev1, Cycle::ZERO);
    assert_eq!(
        t_clean.raw(),
        t_off.raw(),
        "verified reads on clean media must cost exactly the baseline"
    );

    // Verification on, RAIN on, and a slice of the footprint silently
    // corrupted: each hit pays one charged re-read plus the stripe
    // reconstruction, then heals in place (a second pass is clean).
    // The footprint is *written* first so every page belongs to a
    // stripe (preloaded pages have no parity to reconstruct from), and
    // the heal pass is measured against this device's own clean
    // verified pass.
    let mut dev2 = device();
    let mut healed = ZngFtl::new(&dev2, 1, WriteMode::Direct);
    healed.set_redundancy(&dev2, Some(RainConfig::default()));
    healed.set_integrity(true);
    let mut tw = Cycle::ZERO;
    for vpn in 0..vpns {
        tw = healed.write(tw, &mut dev2, vpn).expect("stream write").done;
    }
    let warm = read_pass(&mut healed, &mut dev2, tw);
    let warm_cycles = warm.raw() - tw.raw();
    // Consecutive vpns sit at distinct page offsets of one block, so
    // each corrupt page is the only bad member of its stripe (two in
    // one stripe is beyond single parity, by design); capping at one
    // block's worth of pages keeps the offsets distinct.
    let corrupted = (vpns / 16).min(16);
    for vpn in 0..corrupted {
        let addr = healed.locate(vpn).expect("mapped after the warm pass");
        dev2.mark_page_corrupt(addr).expect("mark corrupt");
    }
    let t_heal = read_pass(&mut healed, &mut dev2, warm);
    let c = healed.integrity_counters();
    assert_eq!(c.detected, corrupted, "every corrupt page must be caught");
    assert_eq!(c.reconstructed, corrupted, "every hit must heal");
    let heal_cycles = t_heal.raw() - warm.raw();
    let extra_per_heal = heal_cycles.saturating_sub(warm_cycles) as f64 / corrupted.max(1) as f64;
    let t_second = read_pass(&mut healed, &mut dev2, t_heal);
    assert_eq!(
        healed.integrity_counters().detected,
        corrupted,
        "healed pages must read clean on the second pass"
    );
    let second_cycles = t_second.raw() - t_heal.raw();

    let ms = |cycles: u64| cycles as f64 / 1.2e6;
    let mut t = Table::new(vec![
        "config".into(),
        "read stream (ms)".into(),
        "vs clean".into(),
        "detected".into(),
        "extra cyc/heal".into(),
    ]);
    t.row(vec![
        "integrity off".into(),
        format!("{:.3}", ms(t_off.raw())),
        "1.00x".into(),
        "0".into(),
        "-".into(),
    ]);
    t.row(vec![
        "verified, clean media".into(),
        format!("{:.3}", ms(t_clean.raw())),
        format!("{:.2}x", t_clean.raw() as f64 / t_off.raw() as f64),
        "0".into(),
        "-".into(),
    ]);
    t.row(vec![
        format!("verified, {corrupted} pages corrupt (RAIN heal)"),
        format!("{:.3}", ms(heal_cycles)),
        format!("{:.2}x", heal_cycles as f64 / warm_cycles as f64),
        c.detected.to_string(),
        format!("{extra_per_heal:.0}"),
    ]);
    t.row(vec![
        "second pass (healed in place)".into(),
        format!("{:.3}", ms(second_cycles)),
        format!("{:.2}x", second_cycles as f64 / warm_cycles as f64),
        "0".into(),
        "-".into(),
    ]);
    report(
        "ablation_integrity",
        "End-to-end verified-read & heal overhead",
        &t,
        "verified reads are free on clean media; a caught silent flip pays one re-read plus \
         the stripe reconstruction and then heals in place (end-to-end checksum discipline)",
    );
}

/// Lifetime management: hot/cold skewed churn with the endurance
/// subsystem off vs on (static wear levelling), plus sustained
/// end-of-life churn showing the wear-out cliff degrading into a
/// capacity step — the numbers behind EXPERIMENTS.md
/// "Endurance & lifetime management".
fn lifetime_ablation() {
    // A deliberately tiny device so recycling cycles many times.
    let geometry = || {
        let mut g = FlashGeometry::tiny();
        g.blocks_per_plane = 2;
        g.pages_per_block = 8;
        g
    };
    let writes = if quick() { 2_000u64 } else { 6_000 };

    // Hot/cold skew: half the device holds cold data written once and
    // folded into data blocks, then churn on a single hot group.
    // Without intervention the cold blocks never recycle and the wear
    // spread (max/mean erase fraction) grows.
    let churn = |endurance: bool| {
        let mut dev = FlashDevice::zng_config(geometry(), Freq::default(), RegisterTopology::NiF)
            .expect("device");
        let mut ftl = ZngFtl::new(&dev, 1, WriteMode::Direct);
        if endurance {
            dev.set_endurance_tracking(Some(DISTURB_READS_PER_CYCLE));
            ftl.set_endurance(Some(RefreshPolicy {
                disturb_threshold: 0,
                retention_threshold: 0,
                wear_spread: 1.5,
            }));
        }
        let mut now = Cycle::ZERO;
        for vbn in 1..=16u64 {
            for p in 0..8u64 {
                let r = ftl.write(now, &mut dev, vbn * 8 + p).expect("cold write");
                now = r.done.max(now + Cycle(1));
            }
            // Fold the group into its data block; a full log would
            // otherwise pin one block per cold group on this tiny device.
            let merged = ftl.gc_group(now, &mut dev, vbn).expect("cold merge").done;
            now = merged.max(now + Cycle(1));
        }
        for i in 0..writes {
            let r = ftl.write(now, &mut dev, i % 8).expect("hot write");
            now = r.done.max(now + Cycle(1));
            if endurance && i % 16 == 0 {
                let h = ftl.refresh_step(now, &mut dev).expect("refresh step");
                now = h.max(now + Cycle(1));
            }
        }
        let c = ftl.endurance_counters().unwrap_or_default();
        (dev.endurance(), c)
    };
    let (rep_off, _) = churn(false);
    let (rep_on, c_on) = churn(true);
    assert!(
        c_on.level_migrations > 0,
        "the skew must trip the static leveler"
    );
    assert!(
        rep_on.wear_spread() < rep_off.wear_spread(),
        "static levelling must reduce the wear spread ({:.2} vs {:.2})",
        rep_on.wear_spread(),
        rep_off.wear_spread()
    );

    // End of life: accelerated wear faults until the spare pool runs
    // dry. With endurance on, the hard DeviceWornOut cliff becomes a
    // CapacityDegraded refusal and already-acked data stays readable.
    let mut dev = FlashDevice::zng_config(geometry(), Freq::default(), RegisterTopology::NiF)
        .expect("device");
    dev.set_fault_config(&FaultConfig::end_of_life());
    let mut ftl = ZngFtl::new(&dev, 1, WriteMode::Direct);
    ftl.set_endurance(Some(RefreshPolicy {
        disturb_threshold: 0,
        retention_threshold: 0,
        wear_spread: 0.0,
    }));
    let mut now = Cycle::ZERO;
    let mut remaining = None;
    for i in 0..400_000u64 {
        match ftl.write(now, &mut dev, i % 16) {
            Ok(r) => now = r.done.max(now + Cycle(1)),
            Err(Error::CapacityDegraded { remaining_pages }) => {
                remaining = Some(remaining_pages);
                break;
            }
            Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => panic!("endurance mode must degrade gracefully, got {e}"),
        }
    }
    let remaining = remaining.expect("sustained EOL churn must exhaust the pool");
    let c_eol = ftl.endurance_counters().expect("endurance installed");
    let rep_eol = dev.endurance();

    let mut t = Table::new(vec![
        "config".into(),
        "wear spread".into(),
        "worst wear".into(),
        "refreshes".into(),
        "level migs".into(),
        "capacity steps".into(),
    ]);
    t.row(vec![
        "spread reduction".into(),
        format!("{:.2}", rep_off.wear_spread() / rep_on.wear_spread()),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "endurance off".into(),
        format!("{:.2}", rep_off.wear_spread()),
        format!("{:.4}", rep_off.worst_wear_fraction()),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "refresh + static levelling".into(),
        format!("{:.2}", rep_on.wear_spread()),
        format!("{:.4}", rep_on.worst_wear_fraction()),
        c_on.refreshes.to_string(),
        c_on.level_migrations.to_string(),
        c_on.capacity_steps.to_string(),
    ]);
    t.row(vec![
        format!("end of life ({remaining} pages left)"),
        format!("{:.2}", rep_eol.wear_spread()),
        format!("{:.4}", rep_eol.worst_wear_fraction()),
        c_eol.refreshes.to_string(),
        c_eol.level_migrations.to_string(),
        c_eol.capacity_steps.to_string(),
    ]);
    assert!(c_eol.capacity_steps >= 1, "the cliff must become a step");
    report(
        "ablation_lifetime",
        "Endurance management: levelling, refresh & graceful EOL",
        &t,
        "static levelling pulls cold data into worn blocks to flatten the wear spread, and \
         the end-of-life cliff becomes a graceful capacity step (paper SVI lifetime)",
    );
}

/// Crash-recovery time: the full-device OOB scan vs the checkpoint +
/// journal fast path, at increasing device fill — the numbers behind
/// DESIGN.md §9 "Bounded-time recovery". The full scan grows linearly
/// with the busiest plane's programmed pages; the fast path loads the
/// checkpoint (channel-parallel) and re-scans only the handful of blocks
/// touched since, so the gap widens with fill.
fn recovery_ablation() {
    let mut t = Table::new(vec![
        "fill".into(),
        "full scan cycles".into(),
        "fast path cycles".into(),
        "speedup".into(),
        "blocks rescanned".into(),
        "journal replayed".into(),
    ]);
    let fills: &[f64] = if quick() {
        &[0.3, 0.85]
    } else {
        &[0.3, 0.6, 0.85]
    };
    // A tall device so the scan has something to be linear in.
    let mut geometry = FlashGeometry::tiny();
    geometry.blocks_per_plane = 2_048;
    let capacity = geometry.total_blocks() as u64 * geometry.pages_per_block as u64;
    let mut high_fill_speedup = 0.0;
    let mut rows = Vec::new();
    for &fill in fills {
        let mut dev = FlashDevice::zng_config(geometry, Freq::default(), RegisterTopology::Private)
            .expect("device");
        let mut ftl = PageMapFtl::new(&dev);
        ftl.set_checkpointing(Some(CheckpointConfig { journal_cap: 0 }));
        // Sequential fill to the target level, then checkpoint, then a
        // short tail of post-checkpoint writes the journal must cover.
        let pages = (capacity as f64 * fill) as u64;
        let mut now = Cycle::ZERO;
        for lpn in 0..pages {
            now = ftl.write(now, &mut dev, lpn).expect("fill write").done;
        }
        now = ftl.checkpoint_step(now, &mut dev);
        for lpn in 0..64 {
            now = ftl.write(now, &mut dev, lpn).expect("tail write").done;
        }
        // Cut power on two identical twins: one recovers through the
        // checkpoint, the other is stripped and must scan everything.
        dev.power_loss(now);
        let mut dev_full = dev.clone();
        let mut ftl_full = ftl.clone();
        ftl_full.set_checkpointing(None);
        let fast = ftl.recover(now, &mut dev).expect("fast recovery");
        assert!(fast.fast_path, "the fast path must engage: {fast:?}");
        let full = ftl_full.recover(now, &mut dev_full).expect("full recovery");
        assert!(!full.fast_path && !full.fallback);
        let speedup = full.scan_cycles.raw() as f64 / fast.scan_cycles.raw().max(1) as f64;
        high_fill_speedup = speedup;
        rows.push(vec![
            format!("{:.0}%", fill * 100.0),
            full.scan_cycles.raw().to_string(),
            fast.scan_cycles.raw().to_string(),
            format!("{speedup:.1}x"),
            fast.blocks_rescanned.to_string(),
            fast.journal_replayed.to_string(),
        ]);
    }
    assert!(
        high_fill_speedup >= 5.0,
        "at high fill the fast path must beat the full scan by >= 5x, got {high_fill_speedup:.1}x"
    );
    // Leading summary row so the exported headline is the fast-path
    // speedup ratio at the highest fill, not a raw cycle count.
    let high_fill = fills.last().copied().unwrap_or(0.0);
    t.row(vec![
        format!("fast-path speedup ({:.0}% fill)", high_fill * 100.0),
        format!("{high_fill_speedup:.1}"),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    for r in rows {
        t.row(r);
    }
    report(
        "ablation_recovery",
        "Crash recovery: full OOB scan vs checkpoint fast path",
        &t,
        "checkpoint + journal bound recovery to the touched set; the full scan grows with \
         device fill while the fast path stays near-constant (DESIGN.md S9)",
    );
}

/// Predictive health: the same slowly-dying die under the same churn,
/// with the monitor off vs on — the numbers behind DESIGN.md §10. With
/// the monitor off, every post-death read of data stranded on the die
/// pays a dead-die sense plus a RAIN stripe reconstruction; with
/// quarantine and pre-emptive evacuation on, the data has already moved
/// to live silicon by the time the die dies.
fn health_ablation() {
    const DEATH: u64 = 80_000_000;
    let footprint = if quick() { 32u64 } else { 48 };
    let rounds = if quick() { 280u32 } else { 320 };
    let working: Vec<u64> = (0..footprint).collect();
    // Group-disjoint filler: its programs keep the plane registers
    // churning (a register-resident page is read at the pins and never
    // senses the array) without ever merging the working set's groups.
    let filler: Vec<u64> = (512..520).collect();

    // Dry run on a healthy twin to find the die the allocator loads
    // most — the RAIN layout shifts placement, so a hard-coded victim
    // could end up holding only parity.
    let (victim_ch, victim_die) = {
        let mut dev = FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .expect("device");
        let mut ftl = ZngFtl::new(&dev, 2, WriteMode::Direct);
        ftl.set_redundancy(&dev, Some(RainConfig::default()));
        let mut t = Cycle::ZERO;
        let mut per_die = std::collections::BTreeMap::new();
        for &lpn in &working {
            t = ftl.write(t, &mut dev, lpn).expect("dry-run write").done;
        }
        for &lpn in &working {
            if let Some(a) = ftl.locate(lpn) {
                let key = (a.block.channel.index() as u16, a.block.die.index() as u16);
                *per_die.entry(key).or_insert(0u32) += 1;
            }
        }
        per_die
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .map_or((0, 0), |(k, _)| k)
    };

    let run = |health: bool| {
        let mut dev = FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .expect("device");
        dev.set_fault_config(&FaultConfig::none().with_degrading(DegradingDie {
            channel: victim_ch,
            die: victim_die,
            onset: 0,
            death: DEATH,
        }));
        let mut ftl = ZngFtl::new(&dev, 2, WriteMode::Direct);
        ftl.set_redundancy(&dev, Some(RainConfig::default()));
        if health {
            ftl.set_health(Some(HealthPolicy {
                window: 16,
                suspect_threshold: 0.02,
                evacuate: true,
            }));
        }
        let mut t = Cycle::ZERO;
        let step = |ftl: &mut ZngFtl, dev: &mut FlashDevice, t: Cycle, lpn, write: bool| {
            let r = if write {
                ftl.write(t, dev, lpn).map(|r| r.done)
            } else {
                ftl.read(t, dev, lpn, 4096)
            };
            match r {
                Ok(done) => done,
                // The dying die's own media errors are the point of the
                // exercise; anything else is a harness bug.
                Err(Error::UncorrectableRead { .. } | Error::FlashProtocol { .. }) => t,
                Err(e) => panic!("churn {} failed: {e}", if write { "write" } else { "read" }),
            }
        };
        for &lpn in &working {
            t = step(&mut ftl, &mut dev, t, lpn, true);
        }
        // Steady churn with a clock floor per round, so the run rides
        // the die's whole decline and keeps reading well past its death.
        for _ in 0..rounds {
            for &lpn in &filler {
                t = step(&mut ftl, &mut dev, t, lpn, true);
            }
            for &lpn in &working {
                t = step(&mut ftl, &mut dev, t, lpn, false);
            }
            if health {
                t = ftl.health_step(t, &mut dev).expect("health step");
            }
            t += Cycle(DEATH / 256);
        }
        let recon = ftl
            .redundancy()
            .expect("RAIN installed")
            .counters()
            .reconstructions;
        (
            dev.dead_die_reads(),
            recon,
            ftl.health_counters().unwrap_or_default(),
        )
    };
    let (off_dead, off_recon, _) = run(false);
    let (on_dead, on_recon, c_on) = run(true);

    assert!(
        off_dead > 0 && off_recon > 0,
        "without the monitor the dead die must be read and reconstructed \
         ({off_dead} dead-die reads, {off_recon} reconstructions)"
    );
    assert!(
        c_on.suspects_flagged >= 1 && c_on.evacuations_completed >= 1,
        "the monitor must flag and evacuate the dying die: {c_on:?}"
    );
    assert!(
        2 * on_dead <= off_dead,
        "health must cut dead-die reads at least 2x ({on_dead} vs {off_dead})"
    );
    assert!(
        2 * on_recon <= off_recon,
        "health must cut RAIN reconstructions at least 2x ({on_recon} vs {off_recon})"
    );

    let mut t = Table::new(vec![
        "config".into(),
        "dead-die reads".into(),
        "RAIN reconstructions".into(),
        "suspects".into(),
        "pages evacuated".into(),
        "evacuations done".into(),
    ]);
    t.row(vec![
        "dead-die read reduction".into(),
        format!("{:.1}", off_dead as f64 / on_dead.max(1) as f64),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(vec![
        "health off".into(),
        off_dead.to_string(),
        off_recon.to_string(),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    t.row(vec![
        "health on (quarantine + evacuate)".into(),
        on_dead.to_string(),
        on_recon.to_string(),
        c_on.suspects_flagged.to_string(),
        c_on.pages_evacuated.to_string(),
        c_on.evacuations_completed.to_string(),
    ]);
    report(
        "ablation_health",
        "Predictive health: dead-die traffic with and without evacuation",
        &t,
        "the monitor flags the degrading die early and evacuates it before death, so reads \
         never touch dead silicon or pay the stripe reconstruction fan-out (DESIGN.md S10)",
    );
}
