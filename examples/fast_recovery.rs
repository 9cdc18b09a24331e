//! Bounded-time crash recovery: the same power cut recovered twice —
//! once through the full out-of-band scan, once through the mapping
//! checkpoint + delta journal fast path — with the recovery reports
//! side by side.
//!
//! With `--checkpoint` on, a background writer periodically serialises
//! the mapping state into reserved checkpoint blocks and journals every
//! map mutation in between. Recovery then loads the newest *verified*
//! checkpoint, replays the journal tail and re-scans only the blocks
//! touched since — instead of sensing every programmed page's OOB area
//! on the device. Any verification failure (torn or aborted checkpoint,
//! journal overflow, dead die) falls back to the full scan: the fast
//! path can only save time, never change the outcome.
//!
//! ```text
//! cargo run --release --example fast_recovery
//! ```

use zng::{CheckpointConfig, Experiment, PlatformKind, SimConfig, Table, TraceParams};

fn main() -> zng::Result<()> {
    let mix = ["back"];
    let crash_at = 5_500;
    // Enough writes that sealed cold blocks dominate the device: the
    // fast path re-scans only what moved since the last checkpoint.
    let params = TraceParams {
        total_warps: 8,
        mem_ops_per_warp: 800,
        footprint_pages: 512,
        seed: 7,
    };

    // Twin A: the crash recovered through the full OOB scan.
    let mut full_cfg = SimConfig::tiny();
    full_cfg.crash_at = Some(crash_at);
    let full = Experiment::quick()
        .with_config(full_cfg)
        .with_params(params)
        .run(PlatformKind::ZngBase, &mix)?;
    let full_cr = full.crash_recovery.expect("the cut fires mid-run");

    // Twin B: same run, but a checkpoint writer ticks every 100
    // completed requests, so recovery takes the fast path.
    let mut fast_cfg = SimConfig::tiny();
    fast_cfg.checkpoint = CheckpointConfig::on(100);
    fast_cfg.crash_at = Some(crash_at);
    let fast = Experiment::quick()
        .with_config(fast_cfg)
        .with_params(params)
        .run(PlatformKind::ZngBase, &mix)?;
    let fast_cr = fast.crash_recovery.expect("the cut fires mid-run");
    let ck = fast.checkpoint.expect("checkpointing was on");

    assert!(
        fast_cr.fast_path && !fast_cr.fallback,
        "the checkpointed twin must restore through the fast path: {fast_cr:?}"
    );
    assert!(
        fast_cr.scan_cycles < full_cr.scan_cycles,
        "the fast path must beat the full scan ({} vs {} cycles)",
        fast_cr.scan_cycles.raw(),
        full_cr.scan_cycles.raw(),
    );

    let mut t = Table::new(vec![
        "recovery metric".into(),
        "full scan".into(),
        "checkpointed".into(),
    ]);
    t.row(vec![
        "path taken".into(),
        full_cr.path().into(),
        fast_cr.path().into(),
    ]);
    t.row(vec![
        "pages scanned".into(),
        full_cr.pages_scanned.to_string(),
        fast_cr.pages_scanned.to_string(),
    ]);
    t.row(vec![
        "journal records replayed".into(),
        full_cr.journal_replayed.to_string(),
        fast_cr.journal_replayed.to_string(),
    ]);
    t.row(vec![
        "blocks rescanned".into(),
        full_cr.blocks_rescanned.to_string(),
        fast_cr.blocks_rescanned.to_string(),
    ]);
    t.row(vec![
        "scan cycles".into(),
        full_cr.scan_cycles.raw().to_string(),
        fast_cr.scan_cycles.raw().to_string(),
    ]);
    t.row(vec![
        "scan cycles saved".into(),
        "-".into(),
        fast_cr.cycles_saved.raw().to_string(),
    ]);
    t.print(&format!(
        "power cut after {crash_at} requests on ZnG-base ({})",
        mix.join("-")
    ));

    println!();
    println!(
        "checkpoint writer: {} ticks, {} checkpoints ({} pages), \
         {} journal records ({} pages), {} overflows, {} aborted",
        ck.checkpoint_ticks,
        ck.checkpoints,
        ck.checkpoint_pages,
        ck.journal_records,
        ck.journal_pages,
        ck.journal_overflows,
        ck.aborted,
    );
    println!(
        "both twins completed {} requests across the cut; the restore \
         itself ran {:.1}x faster through the checkpoint",
        fast.requests,
        full_cr.scan_cycles.raw() as f64 / fast_cr.scan_cycles.raw().max(1) as f64,
    );
    Ok(())
}
