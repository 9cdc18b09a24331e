//! Smoke and drift test: every workload at a reduced volume through the
//! same code path, checked against the repository's `BENCHMARK.json`.

use std::path::Path;
use std::time::Duration;

use zng_json::Value;

use super::*;

/// The repository root: the nearest ancestor of the building package
/// (zng-bench or the benchmark's own package) that holds
/// `BENCHMARK.json`.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .expect("BENCHMARK.json above the package")
}

fn declared() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("readable");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// The settings of `manifest`'s `[profile.release]` table, comments
/// and blank lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("readable manifest");
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn own_package_builds_with_the_root_release_profile() {
    let root = repo_root();
    let dir = declared()["paths"][0].as_str().expect("path").to_string();
    let ours = release_profile(&root.join(dir).join("Cargo.toml"));
    assert!(!ours.is_empty());
    assert_eq!(ours, release_profile(&root.join("Cargo.toml")));
}

/// `(name, unit)` of each entry of the declared metric list `key`.
fn declared_metrics(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Asserts that `outcome` passed every check and prints exactly the
/// `declared` metrics, each once, with the declared unit.
fn assert_matches(w: &Workload, outcome: &Outcome, declared: &[(String, String)]) {
    assert_eq!(outcome.failed, 0, "{}: {:?}", w.name, outcome.first_failure);
    let printed: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(&printed, declared, "{}", w.name);

    let line = Value::parse(&result_line(outcome).to_string_compact()).expect("result line");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line["correct"].as_bool(), Some(true));
    assert_eq!(
        line["metrics"].as_object().map(<[_]>::len),
        Some(declared.len())
    );
}

#[test]
fn declared_workloads_and_run_length_match_the_binary() {
    let doc = declared();
    let declared: Vec<(&str, &str)> = doc["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| {
            (
                w["name"].as_str().expect("name"),
                w["why"].as_str().expect("why"),
            )
        })
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, ours);
    assert_eq!(doc["run_seconds"].as_u64(), Some(DEFAULT_SECONDS));
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let doc = declared();
    let end_to_end = declared_metrics(&doc, "end_to_end");
    let per_layer = declared_metrics(&doc, "per_layer");
    for w in &WORKLOADS {
        let small = w.reduced();
        let timed = measure::timed(&small, 7, Duration::ZERO);
        assert_matches(&small, &timed, &end_to_end);

        let (traced, spans) = measure::traced(&small, 7, Duration::ZERO);
        assert_matches(&small, &traced, &per_layer);
        // The replay translates every request the run's coalescer made.
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert_eq!(
            value("gpu.mmu_calls"),
            value("workloads.sectors"),
            "{}",
            w.name
        );
        let trace = Value::parse(&spans.to_chrome_json().to_string_compact()).expect("trace");
        let events = trace["traceEvents"].as_array().expect("traceEvents");
        for name in ["runner.run", "gpu.coalesce", "gpu.l2", "backend.access"] {
            assert!(
                events.iter().any(|e| e["name"].as_str() == Some(name)),
                "{}: no {name} span",
                w.name
            );
        }
        assert!(events
            .iter()
            .all(|e| e["ph"].as_str() == Some("X") && e["dur"].as_f64().is_some_and(|d| d >= 0.0)));
    }
}

#[test]
fn lower_half_mean_keeps_the_smaller_half_and_the_middle() {
    assert_eq!(measure::lower_half_mean(&[9.0, 1.0, 3.0, 2.0, 100.0]), 2.0);
    assert_eq!(measure::lower_half_mean(&[4.0, 8.0, 2.0, 6.0]), 3.0);
    assert_eq!(measure::lower_half_mean(&[7.0]), 7.0);
}

#[test]
fn usage_errors_are_rejected() {
    let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(args(&[]).is_err());
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--workload", "maint", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "maint", "--seed"]).is_err());
    let ok = args(&["--workload", "maint", "--seed", "9", "--trace", "1"]).expect("valid");
    assert_eq!((ok.workload.name, ok.seed, ok.trace), ("maint", 9, true));
}
