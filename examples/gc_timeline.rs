//! Garbage-collection timeline (the paper's Fig. 17): run `betw-back` on
//! full ZnG with and without GC cost, report per-app performance impact,
//! and print the per-app memory-request time series around the GC events.
//!
//! ```text
//! cargo run --release --example gc_timeline
//! ```

use zng::{Experiment, PlatformKind, Table, TimeSeries, TraceParams};

fn main() -> zng::Result<()> {
    // A write-hot configuration so the log blocks fill and GC fires:
    // fewer flash registers (less merging) and a larger write region.
    let params = TraceParams {
        total_warps: 128,
        mem_ops_per_warp: 900,
        footprint_pages: 4096,
        seed: 42,
    };
    let mut exp = Experiment::standard().with_params(params);
    exp.config_mut().flash.registers_per_plane = 8;
    exp.config_mut().group_size = 2;

    let with_gc = exp.run(PlatformKind::Zng, &["betw", "back"])?;
    exp.config_mut().free_gc = true;
    let no_gc = exp.run(PlatformKind::Zng, &["betw", "back"])?;
    exp.config_mut().free_gc = false;

    let mut t = Table::new(vec![
        "app".into(),
        "IPC no-GC".into(),
        "IPC with-GC".into(),
        "impact".into(),
    ]);
    for (app, name) in [(0u16, "betw"), (1u16, "back")] {
        let a = no_gc.app_ipc(app);
        let b = with_gc.app_ipc(app);
        t.row(vec![
            name.into(),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{:+.0}%", (b / a - 1.0) * 100.0),
        ]);
    }
    t.print("GC impact on per-app performance (Fig. 17a)");

    println!(
        "\ngarbage collections: {}  (events: {:?} us)",
        with_gc.gcs,
        with_gc
            .gc_events
            .iter()
            .map(|(s, e)| (s.raw() / 1200, e.raw() / 1200))
            .collect::<Vec<_>>()
    );

    // Fig. 17b: requests per 10 us bucket, per app.
    let mut ts = Table::new(vec![
        "t (us)".into(),
        "betw reqs".into(),
        "back reqs".into(),
    ]);
    let empty = TimeSeries::new(with_gc.series_interval);
    let betw = with_gc.per_app_series.get(&0).unwrap_or(&empty);
    let back = with_gc.per_app_series.get(&1).unwrap_or(&empty);
    let buckets = betw.len().max(back.len());
    let step = (buckets / 24).max(1);
    for i in (0..buckets).step_by(step) {
        ts.row(vec![
            format!("{}", i as u64 * with_gc.series_interval.raw() / 1200),
            betw.get(i).to_string(),
            back.get(i).to_string(),
        ]);
    }
    ts.print("Memory requests over time (Fig. 17b)");
    Ok(())
}
