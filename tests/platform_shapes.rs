//! Cross-crate integration tests: the relative platform behaviours the
//! paper's evaluation depends on must hold end-to-end.
//!
//! These use reduced trace volumes so the whole file runs in seconds; the
//! benches regenerate the full figures.

use zng::{Experiment, PlatformKind, SimConfig, TraceParams};

fn light() -> Experiment {
    Experiment::standard().with_params(TraceParams {
        total_warps: 64,
        mem_ops_per_warp: 300,
        footprint_pages: 1024,
        seed: 42,
    })
}

#[test]
fn ideal_dominates_every_platform() {
    let mut exp = light();
    let ideal = exp.run(PlatformKind::Ideal, &["betw", "back"]).unwrap();
    for kind in PlatformKind::PAPER_PLATFORMS {
        let r = exp.run(kind, &["betw", "back"]).unwrap();
        assert!(
            ideal.ipc > r.ipc,
            "Ideal must dominate {kind}: {} vs {}",
            ideal.ipc,
            r.ipc
        );
    }
}

#[test]
fn zng_beats_hybridgpu_and_hetero() {
    // The paper's headline direction: full ZnG >> HybridGPU > Hetero.
    let mut exp = light();
    let zng = exp.run(PlatformKind::Zng, &["betw", "back"]).unwrap();
    let hybrid = exp.run(PlatformKind::HybridGpu, &["betw", "back"]).unwrap();
    let hetero = exp.run(PlatformKind::Hetero, &["betw", "back"]).unwrap();
    assert!(zng.ipc > 2.0 * hybrid.ipc, "{} vs {}", zng.ipc, hybrid.ipc);
    assert!(hybrid.ipc > hetero.ipc, "{} vs {}", hybrid.ipc, hetero.ipc);
}

#[test]
fn optimizations_stack_up() {
    // base <= rdopt-ish, wropt > base, full ZnG >= wropt (paper Fig. 10).
    let mut exp = light();
    let base = exp.run(PlatformKind::ZngBase, &["betw", "back"]).unwrap();
    let wropt = exp.run(PlatformKind::ZngWropt, &["betw", "back"]).unwrap();
    let full = exp.run(PlatformKind::Zng, &["betw", "back"]).unwrap();
    assert!(wropt.ipc > base.ipc, "{} vs {}", wropt.ipc, base.ipc);
    assert!(full.ipc > wropt.ipc, "{} vs {}", full.ipc, wropt.ipc);
}

#[test]
fn rdopt_raises_l2_hit_rate() {
    let mut exp = light();
    let wropt = exp.run(PlatformKind::ZngWropt, &["betw"]).unwrap();
    let full = exp.run(PlatformKind::Zng, &["betw"]).unwrap();
    assert!(
        full.l2_hit_rate > wropt.l2_hit_rate + 0.1,
        "STT-MRAM + prefetch must lift L2 hits: {} vs {}",
        full.l2_hit_rate,
        wropt.l2_hit_rate
    );
    assert!(
        full.flash_reads_per_page < wropt.flash_reads_per_page,
        "page buffering must cut flash re-reads"
    );
}

#[test]
fn wropt_eliminates_demand_programs_for_read_heavy_apps() {
    let mut exp = light();
    let base = exp.run(PlatformKind::ZngBase, &["betw"]).unwrap();
    let wropt = exp.run(PlatformKind::ZngWropt, &["betw"]).unwrap();
    assert!(
        wropt.flash_programs_per_page < base.flash_programs_per_page,
        "register merging must reduce write redundancy: {} vs {}",
        wropt.flash_programs_per_page,
        base.flash_programs_per_page
    );
}

#[test]
fn runs_are_deterministic_across_instances() {
    let mut a = light();
    let mut b = light();
    let ra = a.run(PlatformKind::Zng, &["bfs1", "gaus"]).unwrap();
    let rb = b.run(PlatformKind::Zng, &["bfs1", "gaus"]).unwrap();
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.instructions, rb.instructions);
    assert_eq!(ra.requests, rb.requests);
    assert_eq!(ra.gcs, rb.gcs);
}

#[test]
fn seed_changes_the_run_but_not_the_shape() {
    let mut a = light().with_seed(1);
    let mut b = light().with_seed(2);
    let ra = a.run(PlatformKind::Zng, &["betw"]).unwrap();
    let rb = b.run(PlatformKind::Zng, &["betw"]).unwrap();
    assert_ne!(ra.cycles, rb.cycles, "different seeds, different runs");
    let ratio = ra.ipc / rb.ipc;
    assert!(
        (0.5..2.0).contains(&ratio),
        "seed must not change the performance regime: {ratio}"
    );
}

#[test]
fn gc_blocks_only_the_victim_app() {
    let mut exp = light();
    exp.config_mut().flash.registers_per_plane = 4;
    exp.config_mut().group_size = 2;
    let params = TraceParams {
        total_warps: 64,
        mem_ops_per_warp: 500,
        footprint_pages: 4096,
        seed: 42,
    };
    let mut exp = exp.with_params(params);
    let r = exp.run(PlatformKind::Zng, &["betw", "back"]).unwrap();
    assert!(r.gcs > 0, "this configuration must GC");
    // betw (app 0) completes long before back (app 1) drags through GC.
    let betw_done = r.per_app_cycles[&0];
    let back_done = r.per_app_cycles[&1];
    assert!(
        back_done.raw() > betw_done.raw() * 2,
        "GC tail must belong to back: {betw_done:?} vs {back_done:?}"
    );
}

#[test]
fn free_gc_counterfactual_is_faster() {
    let params = TraceParams {
        total_warps: 64,
        mem_ops_per_warp: 500,
        footprint_pages: 4096,
        seed: 42,
    };
    let mut exp = Experiment::standard().with_params(params);
    exp.config_mut().flash.registers_per_plane = 4;
    exp.config_mut().group_size = 2;
    let with_gc = exp.run(PlatformKind::Zng, &["betw", "back"]).unwrap();
    exp.config_mut().free_gc = true;
    let without = exp.run(PlatformKind::Zng, &["betw", "back"]).unwrap();
    assert!(with_gc.gcs > 0);
    assert!(without.cycles < with_gc.cycles);
    assert_eq!(without.instructions, with_gc.instructions);
}

#[test]
fn invalid_configurations_are_rejected() {
    let mut cfg = SimConfig::scaled();
    cfg.flash.channels = 0;
    assert!(zng::Simulation::new(PlatformKind::Zng, &cfg).is_err());
    let mut cfg = SimConfig::scaled();
    cfg.gpu.l2_banks = 0;
    assert!(zng::Simulation::new(PlatformKind::Ideal, &cfg).is_err());
}

#[test]
fn request_accounting_is_consistent() {
    let mut exp = light();
    let r = exp.run(PlatformKind::Optane, &["bfs2", "FDT"]).unwrap();
    assert_eq!(
        r.per_app_requests.values().sum::<u64>(),
        r.requests,
        "per-app requests must partition the total"
    );
    assert_eq!(r.per_app_instructions.values().sum::<u64>(), r.instructions);
    let series_total: u64 = r
        .per_app_series
        .values()
        .flat_map(|s| s.iter().map(|(_, n)| n))
        .sum();
    assert_eq!(series_total, r.requests);
}
