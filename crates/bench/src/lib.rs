//! Shared helpers for the figure/table benches.
//!
//! Every bench binary regenerates one table or figure of the paper and
//! prints it as an aligned text table; a JSON record is also written to
//! `target/zng-results/<id>.json` so `EXPERIMENTS.md` can be refreshed
//! from machine-readable output.
//!
//! Set `ZNG_QUICK=1` to run all benches with reduced trace volume
//! (useful for smoke-testing the harness; the printed shapes are noisier).

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use zng::{Table, TraceParams};

/// Process-lifetime stopwatch: armed by the first call to any parameter
/// helper (the first line of every bench `main`), read by [`report`] so
/// each bench's JSON record carries its own wall-clock cost. The number
/// is metadata for `BENCH.json` — never a golden value.
static BENCH_START: OnceLock<Instant> = OnceLock::new();

fn arm_stopwatch() {
    BENCH_START.get_or_init(Instant::now);
}

/// Seconds since the bench process armed the stopwatch (0.0 if no
/// parameter helper ran, e.g. in unit tests).
pub fn bench_wall_seconds() -> f64 {
    BENCH_START
        .get()
        .map(|t| t.elapsed().as_secs_f64())
        .unwrap_or(0.0)
}

/// The standard per-figure trace volume (reuse ≈ the paper's Fig. 5
/// characterisation).
pub fn params_standard() -> TraceParams {
    arm_stopwatch();
    if quick() {
        TraceParams {
            total_warps: 64,
            mem_ops_per_warp: 300,
            footprint_pages: 1024,
            seed: 42,
        }
    } else {
        TraceParams {
            total_warps: 128,
            mem_ops_per_warp: 1300,
            footprint_pages: 4096,
            seed: 42,
        }
    }
}

/// A lighter volume for many-point sweeps (threshold/scalability grids).
pub fn params_light() -> TraceParams {
    arm_stopwatch();
    if quick() {
        TraceParams {
            total_warps: 32,
            mem_ops_per_warp: 200,
            footprint_pages: 512,
            seed: 42,
        }
    } else {
        TraceParams {
            total_warps: 128,
            mem_ops_per_warp: 650,
            footprint_pages: 2048,
            seed: 42,
        }
    }
}

/// Whether `ZNG_QUICK=1` smoke-test mode is on.
pub fn quick() -> bool {
    arm_stopwatch();
    std::env::var_os("ZNG_QUICK").is_some()
}

/// Prints the table under the figure's title and saves a JSON record.
pub fn report(id: &str, title: &str, table: &Table, paper_expectation: &str) {
    table.print(&format!("{id}: {title}"));
    println!("paper: {paper_expectation}");
    save_json(id, title, table, paper_expectation);
}

fn save_json(id: &str, title: &str, table: &Table, paper: &str) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let (headline_label, headline) = match table.headline() {
        Some((label, value)) => (zng_json::Value::from(label), zng_json::Value::from(value)),
        None => (zng_json::Value::Null, zng_json::Value::Null),
    };
    let record = zng_json::Value::object(vec![
        ("id", zng_json::Value::from(id)),
        ("title", zng_json::Value::from(title)),
        ("paper_expectation", zng_json::Value::from(paper)),
        ("rendered", zng_json::Value::from(table.render())),
        ("quick_mode", zng_json::Value::from(quick())),
        ("headline_label", headline_label),
        ("headline", headline),
        ("wall_seconds", zng_json::Value::from(bench_wall_seconds())),
    ]);
    let _ = fs::write(dir.join(format!("{id}.json")), record.to_string_pretty());
}

/// Directory where benches drop their JSON records
/// (`<workspace>/target/zng-results`).
pub fn results_dir() -> PathBuf {
    // Cargo runs bench binaries with cwd = the package directory
    // (crates/bench), so anchor on the manifest and walk up to the
    // workspace root.
    let mut dir = if let Some(t) = std::env::var_os("CARGO_TARGET_DIR") {
        PathBuf::from(t)
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("target")
    };
    dir.push("zng-results");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_are_sane() {
        let p = params_standard();
        assert!(p.total_warps > 0 && p.footprint_pages > 0);
        let l = params_light();
        assert!(l.mem_ops_per_warp <= p.mem_ops_per_warp);
    }

    #[test]
    fn results_dir_is_under_target() {
        let dir = results_dir();
        assert!(dir.ends_with("zng-results"));
        match std::env::var_os("CARGO_TARGET_DIR") {
            Some(target) => assert!(dir.starts_with(target)),
            None => assert!(dir.to_string_lossy().contains("target")),
        }
    }
}
