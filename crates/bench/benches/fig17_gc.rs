//! Fig. 17: garbage-collection impact on the `betw-back` mix.
//!
//! 17a — per-app performance with and without GC cost (paper: back
//! −73 %, betw +5 %). 17b — per-app memory-request time series showing
//! back's requests collapsing to zero once GC starts.

use zng::{Experiment, PlatformKind, Table, TimeSeries, TraceParams};
use zng_bench::{quick, report};

fn main() {
    let params = if quick() {
        TraceParams {
            total_warps: 64,
            mem_ops_per_warp: 500,
            footprint_pages: 4096,
            seed: 42,
        }
    } else {
        TraceParams {
            total_warps: 128,
            mem_ops_per_warp: 900,
            footprint_pages: 4096,
            seed: 42,
        }
    };
    let mut exp = Experiment::standard().with_params(params);
    // Fewer registers per plane: the write set overflows them and the
    // log blocks fill, so GC actually fires at simulation scale.
    exp.config_mut().flash.registers_per_plane = if quick() { 4 } else { 8 };
    exp.config_mut().group_size = 2;

    let with_gc = exp.run(PlatformKind::Zng, &["betw", "back"]).expect("run");
    exp.config_mut().free_gc = true;
    let no_gc = exp.run(PlatformKind::Zng, &["betw", "back"]).expect("run");

    let mut t = Table::new(vec![
        "app".into(),
        "IPC no-GC".into(),
        "IPC with-GC".into(),
        "impact".into(),
    ]);
    let mut impacts = Vec::new();
    for (app, name) in [(0u16, "betw"), (1u16, "back")] {
        let a = no_gc.app_ipc(app);
        let b = with_gc.app_ipc(app);
        impacts.push(b / a - 1.0);
        t.row(vec![
            name.into(),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{:+.0}%", (b / a - 1.0) * 100.0),
        ]);
    }
    t.row(vec![
        "GCs".into(),
        with_gc.gcs.to_string(),
        String::new(),
        String::new(),
    ]);
    assert!(with_gc.gcs > 0, "GC must fire in this configuration");
    assert!(
        impacts[1] < -0.3,
        "GC must hurt the write app substantially"
    );
    assert!(
        impacts[0] > impacts[1],
        "the read app must be hurt far less than the write app"
    );
    report(
        "fig17a",
        "GC impact on per-app performance",
        &t,
        "back -73%; betw +5% (freed L2 space)",
    );

    // ---- 17b: time series ----
    let mut t = Table::new(vec![
        "t (us)".into(),
        "betw reqs/10us".into(),
        "back reqs/10us".into(),
    ]);
    let empty = TimeSeries::new(with_gc.series_interval);
    let betw = with_gc.per_app_series.get(&0).unwrap_or(&empty);
    let back = with_gc.per_app_series.get(&1).unwrap_or(&empty);
    // The paper's Fig. 17b window covers the first ~1.3 ms around the
    // first GC; show the equivalent window (the long GC tail is silent).
    let first_gc_bucket = with_gc
        .gc_events
        .first()
        .map(|(s, _)| (s.raw() / with_gc.series_interval.raw()) as usize)
        .unwrap_or(40);
    let buckets = (first_gc_bucket * 3).clamp(20, betw.len().max(back.len()));
    let step = (buckets / 20).max(1);
    for i in (0..buckets).step_by(step) {
        t.row(vec![
            format!("{}", i as u64 * with_gc.series_interval.raw() / 1200),
            betw.get(i).to_string(),
            back.get(i).to_string(),
        ]);
    }
    let gc_windows: Vec<(u64, u64)> = with_gc
        .gc_events
        .iter()
        .map(|(s, e)| (s.raw() / 1200, e.raw() / 1200))
        .collect();
    println!("GC windows (us): {gc_windows:?}");
    report(
        "fig17b",
        "Per-app memory requests over time",
        &t,
        "back's requests drop to ~0 once GC starts (paper: from 1108us)",
    );
}
