//! `benchmark` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload graph-read --seed 42 [--seconds 25] [--trace 0|1]
//! ```
//!
//! The same sources are the `benchmark` bin of zng-bench, so
//! `cargo run --release -p zng-bench --bin benchmark -- …` runs it too
//! and `cargo test -p zng-bench` runs its smoke and drift test.
//!
//! One invocation runs one workload for about `--seconds` (a timed one
//! starts with an untimed warm-up repetition), checks every
//! repetition's output, and prints each metric by name with its unit.
//! The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` (the default) reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and
//! writes the spans to `benchmark-trace/<workload>-<seed>.json`. Timed
//! invocations never trace.
//!
//! Exit codes follow `zng-cli`: 2 for usage errors, 1 when a repetition
//! fails a check or errors, 0 otherwise.

mod calibrate;
mod checks;
mod measure;
mod replay;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use zng_json::Value;

use measure::Outcome;
use workloads::{Workload, WORKLOADS};

/// `--seconds` when the flag is absent; the same as `run_seconds` in
/// the repository's `BENCHMARK.json`, which is what the benchmark
/// format passes as `--seconds` on every run.
const DEFAULT_SECONDS: u64 = 25;

/// Where a traced invocation writes its spans, relative to the
/// working directory.
const TRACE_DIR: &str = "benchmark-trace";

const USAGE: &str = "usage: benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(msg) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("error: {msg}\n\n{USAGE}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        let (outcome, spans) = measure::traced(w, args.seed, budget);
        let path = PathBuf::from(TRACE_DIR).join(format!("{}-{}.json", w.name, args.seed));
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json().to_string_compact()));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace: {}", path.display());
        outcome
    } else {
        measure::timed(w, args.seed, budget)
    };
    report(w, args.seed, &outcome);
    match &outcome.first_failure {
        None => ExitCode::SUCCESS,
        Some(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Prints every metric by name and unit, then the result line.
fn report(w: &Workload, seed: u64, outcome: &Outcome) {
    println!("workload {} (seed {seed}): {}", w.name, w.why);
    println!(
        "{} repetitions, {} failed; host times summarise the passing ones",
        outcome.attempted, outcome.failed
    );
    for (name, values) in &outcome.samples {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "  {name} samples (s, n={}): {}",
            values.len(),
            shown.join(" ")
        );
    }
    for m in &outcome.metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(outcome).to_string_compact());
}

/// The final JSON object.
fn result_line(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let v = Value::object(vec![
                ("value", Value::from(m.value)),
                ("unit", Value::from(m.unit)),
            ]);
            (m.name, v)
        })
        .collect();
    Value::object(vec![
        ("correct", Value::from(outcome.failed == 0)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", Value::object(metrics)),
    ])
}

#[cfg(test)]
mod tests;
