//! Consolidates per-bench JSON records into one `BENCH.json`.
//!
//! Each bench binary drops a record in `target/zng-results/<id>.json`
//! (see [`zng_bench::report`]); this tool folds them into a single
//! repo-root summary mapping bench id to its headline metric, so CI and
//! reviewers can diff one file instead of a results directory.
//!
//! Usage: `consolidate [OUTPUT]` (default `BENCH.json`, resolved against
//! the current directory — `scripts/bench.sh` runs it from the repo root).

use std::fs;
use std::process::ExitCode;

use zng_json::Value;

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH.json".to_string());
    let dir = zng_bench::results_dir();
    let entries = match fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "consolidate: cannot read {} ({e}); run `cargo bench` first",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!(
            "consolidate: no *.json records in {}; run `cargo bench` first",
            dir.display()
        );
        return ExitCode::FAILURE;
    }

    let mut benches = Vec::new();
    let mut quick = false;
    let mut total_wall = 0.0f64;
    for path in &paths {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("consolidate: skipping {} ({e})", path.display());
                continue;
            }
        };
        let record = match Value::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("consolidate: skipping {} ({e})", path.display());
                continue;
            }
        };
        let id = record["id"]
            .as_str()
            .map(str::to_string)
            .or_else(|| path.file_stem().map(|s| s.to_string_lossy().into_owned()))
            .unwrap_or_default();
        quick |= record["quick_mode"].as_bool().unwrap_or(false);
        let mut entry = vec![("title", record["title"].clone())];
        // A table with no numeric cell (a configuration listing) has no
        // headline to track: it is marked non-metric instead.
        if record["headline"].as_f64().is_none() {
            entry.push(("metric", Value::from(false)));
        } else {
            entry.push(("headline_label", record["headline_label"].clone()));
            entry.push(("headline", record["headline"].clone()));
        }
        // Per-bench wall-clock metadata (from the bench process's own
        // stopwatch): tracked so harness speedups show up in one diff,
        // but kept out of the headline values.
        let wall = record["wall_seconds"].as_f64().unwrap_or(0.0);
        total_wall += wall;
        entry.push(("wall_seconds", Value::from(wall)));
        benches.push((id, Value::object(entry)));
    }

    let summary = Value::object(vec![
        ("schema", Value::from("zng-bench-summary/v1")),
        ("quick_mode", Value::from(quick)),
        ("bench_count", Value::from(benches.len() as u64)),
        ("total_wall_seconds", Value::from(total_wall)),
        ("benches", Value::Object(benches.into_iter().collect())),
    ]);
    let mut text = summary.to_string_pretty();
    text.push('\n');
    if let Err(e) = fs::write(&out_path, text) {
        eprintln!("consolidate: cannot write {out_path} ({e})");
        return ExitCode::FAILURE;
    }
    println!("consolidate: wrote {out_path}");
    ExitCode::SUCCESS
}
