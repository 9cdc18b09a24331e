//! Golden-determinism gate: default-config runs' JSON output is pinned
//! byte-for-byte against checked-in golden files — the ZnG platform
//! with and without opt-in features, and the HybridGPU and Hetero
//! baselines under working sets that make their page buffers evict, and
//! a four-app co-run on ZnG and on HybridGPU under bounded admission
//! control.
//!
//! Two guarantees ride on this:
//!
//! 1. **Determinism** — the same command run twice produces identical
//!    bytes (no hidden clock, RNG or hash-order dependence).
//! 2. **Integrity-off is inert** — the opt-in data-integrity subsystem
//!    (and every other opt-in feature) leaves the default output
//!    untouched. A change that perturbs these bytes is either a real
//!    behaviour change (regenerate the goldens deliberately, in the
//!    same commit, with an explanation) or an accidental leak of an
//!    opt-in feature into the default path (fix the leak).
//!
//! Regenerate with:
//!
//! ```text
//! cargo build --release
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json > tests/golden/run_default.json
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json --faults end-of-life > tests/golden/run_eol.json
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --json --checkpoint --checkpoint-every 25 \
//!     --crash-at 100 > tests/golden/run_checkpoint.json
//! ./target/release/zng-cli run -p hybrid -w betw,back --warps 64 --ops 400 \
//!     --footprint 16384 --json > tests/golden/run_hybrid.json
//! ./target/release/zng-cli run -p hetero -w betw,back --warps 32 --ops 200 \
//!     --footprint 4096 --json > tests/golden/run_hetero.json
//! ./target/release/zng-cli run -p hetero -w betw,back --warps 16 --ops 100 \
//!     --footprint 1024 --crash-at 500 --json > tests/golden/run_crash_hetero.json
//! ./target/release/zng-cli run -p zng -w back,gaus,FDT,gram --warps 32 \
//!     --ops 60 --footprint 16384 --qos --json > tests/golden/run_qos.json
//! ./target/release/zng-cli run -p hybrid -w back,gaus,FDT,gram --warps 32 \
//!     --ops 60 --footprint 16384 --qos --json > tests/golden/run_qos_hybrid.json
//! ./target/release/zng-cli run -p zng -w betw,back --warps 16 --ops 40 \
//!     --footprint 64 --qos --redundancy --scrub-every 64 --integrity \
//!     --endurance --refresh-every 64 --checkpoint --checkpoint-every 25 \
//!     --health 64 --crash-at 300 > tests/golden/table_all.txt
//! ./target/release/zng-cli run -p zng -w betw --warps 8 --ops 40 \
//!     --footprint 128 --crash-at 100 > tests/golden/table_crash.txt
//! ZNG_BLESS=1 cargo test --test golden perf_table_matches_golden
//! ```
//!
//! The `table_*.txt` goldens pin `zng-cli run`'s table output (no
//! `--json`): every row label, its order and each value's format.

use std::path::Path;
use std::process::Command;

const RUN_ARGS: &[&str] = &[
    "run",
    "-p",
    "zng",
    "-w",
    "betw",
    "--warps",
    "8",
    "--ops",
    "40",
    "--footprint",
    "128",
    "--json",
];

fn run_cli(extra: &[&str]) -> Vec<u8> {
    cli(&[RUN_ARGS, extra].concat())
}

/// The default golden command without `--json`: the table output.
fn table_cli(extra: &[&str]) -> Vec<u8> {
    let (json, args) = RUN_ARGS.split_last().expect("RUN_ARGS is not empty");
    assert_eq!(*json, "--json");
    cli(&[args, extra].concat())
}

fn cli(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_zng-cli"))
        .args(args)
        .output()
        .expect("spawn zng-cli");
    assert!(
        out.status.success(),
        "golden run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_bytes_match(got: &[u8], want: &[u8], what: &str) {
    if got != want {
        panic!(
            "{what} drifted from its golden file.\n\
             If the change is intentional, regenerate the goldens (see \
             tests/golden.rs header) in the same commit.\n\
             --- golden ---\n{}\n--- got ---\n{}",
            String::from_utf8_lossy(want),
            String::from_utf8_lossy(got),
        );
    }
}

#[test]
fn default_run_matches_golden_and_is_deterministic() {
    let first = run_cli(&[]);
    let second = run_cli(&[]);
    assert_eq!(
        first, second,
        "two identical invocations produced different bytes"
    );
    assert_bytes_match(&first, &golden("run_default.json"), "default run");
}

/// `--perf` telemetry must be additive: the run's simulated results are
/// byte-identical to the default golden, with only the (inherently
/// nondeterministic, therefore never-golden) `perf_*` keys appended.
#[test]
fn perf_flag_adds_only_perf_keys() {
    let text = String::from_utf8(run_cli(&["--perf"])).expect("utf8 json");
    assert!(
        text.contains("\"perf_events\"") && text.contains("\"perf_events_per_sec\""),
        "--perf attaches throughput telemetry"
    );
    let mut kept: Vec<String> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"perf_"))
        .map(str::to_string)
        .collect();
    // The perf keys are the object's last fields, so dropping them
    // leaves a dangling comma on the previous field's line.
    let last_field = kept.len().saturating_sub(2);
    if let Some(line) = kept.get_mut(last_field) {
        if let Some(stripped) = line.strip_suffix(',') {
            *line = stripped.to_string();
        }
    }
    let mut rebuilt = kept.join("\n");
    rebuilt.push('\n');
    assert_bytes_match(
        rebuilt.as_bytes(),
        &golden("run_default.json"),
        "--perf run minus perf keys",
    );
}

#[test]
fn end_of_life_run_matches_golden() {
    let got = run_cli(&["--faults", "end-of-life"]);
    assert_bytes_match(&got, &golden("run_eol.json"), "end-of-life run");
}

/// Pins the checkpointed crash-recovery output: the writer's counters,
/// the crash report's fast-path fields (the golden has
/// `crash_fast_path: true` — a fast path that silently stops engaging
/// here is a regression, not noise) and the recovered run's results.
#[test]
fn checkpointed_crash_run_matches_golden() {
    let got = run_cli(&[
        "--checkpoint",
        "--checkpoint-every",
        "25",
        "--crash-at",
        "100",
    ]);
    assert_bytes_match(
        &got,
        &golden("run_checkpoint.json"),
        "checkpointed crash run",
    );
}

/// Pins the HybridGPU baseline, whose SSD module serves every request
/// through its DRAM page buffer. The footprint far exceeds the buffer,
/// so the run evicts thousands of pages and writes hundreds of dirty
/// ones back: the buffer's victim order is in these bytes.
#[test]
fn hybrid_run_matches_golden() {
    let args = "run -p hybrid -w betw,back --warps 64 --ops 400 --footprint 16384 --json";
    let got = cli(&args.split(' ').collect::<Vec<_>>());
    assert_bytes_match(&got, &golden("run_hybrid.json"), "HybridGPU run");
}

/// Pins the Hetero baseline, whose GPU-memory residency tracker is a
/// page buffer smaller than the footprint, so page faults evict.
#[test]
fn hetero_run_matches_golden() {
    let args = "run -p hetero -w betw,back --warps 32 --ops 200 --footprint 4096 --json";
    let got = cli(&args.split(' ').collect::<Vec<_>>());
    assert_bytes_match(&got, &golden("run_hetero.json"), "Hetero run");
}

/// Pins a power cut on the Hetero baseline: `PageMapFtl`'s OOB-scan
/// recovery (pages scanned, scan cycles) and the recovered run's
/// results.
#[test]
fn hetero_crash_run_matches_golden() {
    let args =
        "run -p hetero -w betw,back --warps 16 --ops 100 --footprint 1024 --crash-at 500 --json";
    let got = cli(&args.split(' ').collect::<Vec<_>>());
    assert_bytes_match(&got, &golden("run_crash_hetero.json"), "Hetero crash run");
}

/// Pins a four-app ZnG co-run under the bounded QoS policy: admission
/// rejections and retries, GC pacing and tens of thousands of fairness
/// throttles, each of which re-queues a warp one backoff quantum later,
/// so the event queue's same-cycle order is in these bytes.
#[test]
fn qos_run_matches_golden() {
    let args =
        "run -p zng -w back,gaus,FDT,gram --warps 32 --ops 60 --footprint 16384 --qos --json";
    let got = cli(&args.split(' ').collect::<Vec<_>>());
    assert_bytes_match(&got, &golden("run_qos.json"), "bounded-QoS run");
}

/// The same four-app co-run on HybridGPU under the bounded QoS policy:
/// the SSD module's submission queue admits at most `queue_depth`
/// requests, so its rejections, retries and peak occupancy are in these
/// bytes.
#[test]
fn qos_hybrid_run_matches_golden() {
    let args =
        "run -p hybrid -w back,gaus,FDT,gram --warps 32 --ops 60 --footprint 16384 --qos --json";
    let got = cli(&args.split(' ').collect::<Vec<_>>());
    assert_bytes_match(
        &got,
        &golden("run_qos_hybrid.json"),
        "bounded-QoS HybridGPU run",
    );
}

/// The bounded-QoS golden command with `--perf`: its event counters are
/// deterministic (only the wall-clock keys are not), so they are pinned
/// here. The fairness gate's re-queues show up in `perf_events` and
/// `perf_blocked_events`, so an event loop that counts them in bulk
/// must arrive at exactly these numbers.
#[test]
fn qos_run_perf_counters_are_pinned() {
    let args = "run -p zng -w back,gaus,FDT,gram --warps 32 --ops 60 --footprint 16384 --qos \
                --json --perf";
    let got = cli(&args.split_whitespace().collect::<Vec<_>>());
    let v = zng_json::Value::parse(&String::from_utf8(got).expect("utf8 json")).expect("json");
    let counter = |key: &str| v[key].as_u64().unwrap_or_else(|| panic!("{key} missing"));
    for (key, want) in [
        ("perf_events", 39_591),
        ("perf_blocked_events", 24_103),
        ("perf_compute_events", 7_680),
        ("perf_mem_events", 7_680),
        ("perf_skipped_events", 128),
        ("perf_maintenance_events", 0),
        ("perf_peak_queue_depth", 128),
    ] {
        assert_eq!(counter(key), want, "{key}");
    }
}

/// The paced-maintenance perf run on HybridGPU: a GC stall budget,
/// every maintenance step on a short cadence and a degrading die. Its
/// event counters are deterministic, so they are pinned here as
/// measured; the many blocked events are GC and maintenance holds.
#[test]
fn paced_hybrid_perf_counters_are_pinned() {
    let args = "run -p hybrid -w back,gaus --warps 16 --ops 200 --footprint 256 \
                --gc-stall-budget 200 --redundancy --scrub-every 64 --endurance \
                --refresh-every 64 --disturb-threshold 50 --checkpoint --checkpoint-every 128 \
                --health 64 --evacuate --health-window 16 --suspect-threshold 0.02 \
                --degrading-die 0:0:100000:90000000 --json --perf";
    let got = cli(&args.split_whitespace().collect::<Vec<_>>());
    let v = zng_json::Value::parse(&String::from_utf8(got).expect("utf8 json")).expect("json");
    let counter = |key: &str| v[key].as_u64().unwrap_or_else(|| panic!("{key} missing"));
    for (key, want) in [
        ("perf_events", 642_502),
        ("perf_blocked_events", 629_670),
        ("perf_compute_events", 6_400),
        ("perf_mem_events", 6_400),
        ("perf_skipped_events", 32),
        ("perf_maintenance_events", 548),
        ("perf_peak_queue_depth", 32),
    ] {
        assert_eq!(counter(key), want, "{key}");
    }
}

/// The default golden command with `--perf`: no hold, throttle or
/// maintenance step, so every event is a compute or memory op or a
/// retired warp's last wake-up.
#[test]
fn default_run_perf_counters_are_pinned() {
    let got = run_cli(&["--perf"]);
    let v = zng_json::Value::parse(&String::from_utf8(got).expect("utf8 json")).expect("json");
    let counter = |key: &str| v[key].as_u64().unwrap_or_else(|| panic!("{key} missing"));
    for (key, want) in [
        ("perf_events", 648),
        ("perf_blocked_events", 0),
        ("perf_compute_events", 320),
        ("perf_mem_events", 320),
        ("perf_skipped_events", 8),
        ("perf_maintenance_events", 0),
        ("perf_peak_queue_depth", 8),
    ] {
        assert_eq!(counter(key), want, "{key}");
    }
}

/// Every subsystem's table rows at once: QoS (with the per-app latency
/// rows), redundancy, a crash that takes the checkpoint fast path with
/// the integrity- and checkpoint-gated recovery rows, integrity,
/// endurance, checkpoint and health with its per-die rows.
#[test]
fn full_table_matches_golden() {
    let args = "run -p zng -w betw,back --warps 16 --ops 40 --footprint 64 --qos --redundancy \
                --scrub-every 64 --integrity --endurance --refresh-every 64 --checkpoint \
                --checkpoint-every 25 --health 64 --crash-at 300";
    let args: Vec<&str> = args.split_whitespace().collect();
    let first = cli(&args);
    assert_eq!(
        first,
        cli(&args),
        "two identical runs printed different tables"
    );
    assert_bytes_match(&first, &golden("table_all.txt"), "every-subsystem table");
}

/// A crash with integrity and checkpointing off: the recovery rows
/// those two subsystems gate are absent.
#[test]
fn crash_table_matches_golden() {
    let got = table_cli(&["--crash-at", "100"]);
    assert_bytes_match(&got, &golden("table_crash.txt"), "crash table");
}

/// The default golden command's table with `--perf`. The wall-clock
/// rows are masked, and since their widths set the value column's,
/// trailing padding and the rule's length are ignored.
#[test]
fn perf_table_matches_golden() {
    let text = String::from_utf8(table_cli(&["--perf"])).expect("utf8 table");
    let mut got = String::new();
    for line in text.lines().map(str::trim_end) {
        let line = if !line.is_empty() && line.chars().all(|c| c == '-') {
            "-"
        } else {
            line
        };
        if ["sim wall seconds", "sim events/sec"]
            .iter()
            .any(|label| line.starts_with(label))
        {
            let value_at = line.rfind(' ').map_or(0, |i| i + 1);
            got.push_str(&line[..value_at]);
            got.push_str("<masked>");
        } else {
            got.push_str(line);
        }
        got.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table_perf.txt");
    if std::env::var_os("ZNG_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    assert_bytes_match(got.as_bytes(), &golden("table_perf.txt"), "--perf table");
}

/// Fairness-gate configurations the CLI cannot express: unequal
/// per-app weights and backoff quanta of 1, 7 and 64 cycles (the quantum
/// is how far ahead a throttled warp is re-queued). Each case runs the
/// four-app mix of `qos_run_matches_golden` through the library API; the
/// golden holds one RunResult per case, keyed by case name.
///
/// Regenerate with `ZNG_BLESS=1 cargo test --test golden
/// qos_library_runs_match_golden`.
#[test]
fn qos_library_runs_match_golden() {
    use zng::{Experiment, PlatformKind, QosConfig, TraceParams};
    use zng_json::Value;

    let cases: [(&str, [u32; 4], u64); 4] = [
        ("weights_3121_base_64", [3, 1, 2, 1], 64),
        ("weights_3121_base_7", [3, 1, 2, 1], 7),
        ("weights_3121_base_1", [3, 1, 2, 1], 1),
        ("equal_weights_base_7", [1, 1, 1, 1], 7),
    ];
    let runs = cases
        .iter()
        .map(|&(name, weights, base)| {
            let mut qos = QosConfig::bounded(16);
            qos.fair_weights[..4].copy_from_slice(&weights);
            qos.backoff_base = zng::Cycle(base);
            let mut exp = Experiment::standard().with_params(TraceParams {
                total_warps: 32,
                mem_ops_per_warp: 60,
                footprint_pages: 16_384,
                seed: 42,
            });
            exp.config_mut().qos = qos;
            let r = exp
                .run(PlatformKind::Zng, &["back", "gaus", "FDT", "gram"])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, r.to_json_value())
        })
        .collect();
    let mut got = Value::object(runs).to_string_pretty();
    got.push('\n');
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_qos_library.json");
    if std::env::var_os("ZNG_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    assert_bytes_match(
        got.as_bytes(),
        &golden("run_qos_library.json"),
        "library bounded-QoS runs",
    );
}

/// The FTL maintenance stack on both FTLs: health evacuation, refresh,
/// static wear levelling, patrol scrub with an integrity heal, checkpoints and a crash, and a
/// die failure with its rebuild. No CLI golden reaches these paths, so
/// each case runs through the library on `SimConfig::tiny()` and the
/// golden holds one RunResult per case, keyed by case name. Each case
/// also asserts that its subsystem really did work.
///
/// A die death never shares a case with silent corruption or a
/// degrading die: a stripe with two bad members is a real double fault
/// and ends the run with an error.
///
/// Regenerate with `ZNG_BLESS=1 cargo test --test golden
/// maint_library_runs_match_golden`.
#[test]
fn maint_library_runs_match_golden() {
    use zng::{
        CheckpointConfig, DegradingDie, EnduranceConfig, Experiment, FaultConfig, HealthConfig,
        IntegrityConfig, PlatformKind, RedundancyConfig, RunResult, SimConfig, TraceParams,
    };
    use zng_json::Value;

    type Check = fn(&RunResult) -> bool;
    let health = || {
        let mut cfg = SimConfig::tiny();
        cfg.fault = FaultConfig::none().with_degrading(DegradingDie {
            channel: 0,
            die: 0,
            onset: 200_000,
            death: 14_000_000,
        });
        cfg.redundancy = RedundancyConfig::rain(0);
        cfg.health = HealthConfig::on(3);
        cfg.health.window = 16;
        cfg.health.suspect_threshold = 0.02;
        cfg.health.evacuate = true;
        cfg
    };
    let refresh = || {
        let mut cfg = SimConfig::tiny();
        cfg.endurance = EnduranceConfig::on(16);
        cfg.endurance.disturb_threshold = 200;
        cfg.endurance.wear_spread = 0.0;
        cfg
    };
    // Only ZnG-base churns its log blocks fast enough for a small run
    // to recycle blocks, which levelling needs as destinations.
    let level = || {
        let mut cfg = SimConfig::tiny();
        cfg.endurance = EnduranceConfig::on(16);
        cfg.endurance.wear_spread = 1.5;
        cfg
    };
    let scrub = || {
        let mut cfg = SimConfig::tiny();
        cfg.fault = FaultConfig::nominal();
        cfg.redundancy = RedundancyConfig::rain(2);
        cfg.redundancy.scrub_threshold = 1;
        cfg.integrity = IntegrityConfig::with_shot(20);
        cfg.checkpoint = CheckpointConfig::on(25);
        cfg.crash_at = Some(300);
        cfg
    };
    let die_fail = || {
        let mut cfg = SimConfig::tiny();
        cfg.redundancy = RedundancyConfig::rain(0);
        cfg.redundancy.die_fail_at = Some(300);
        cfg.redundancy.die_fail = (1, 0);
        cfg
    };
    let evacuated: Check = |r| r.health.as_ref().is_some_and(|h| h.pages_evacuated > 0);
    let refreshed: Check = |r| r.endurance.as_ref().is_some_and(|e| e.refreshes > 0);
    let levelled: Check = |r| r.endurance.as_ref().is_some_and(|e| e.level_migrations > 0);
    let scrubbed: Check = |r| {
        r.redundancy.as_ref().is_some_and(|d| d.scrub_rewrites > 0)
            && r.integrity.as_ref().is_some_and(|i| i.reconstructed > 0)
            && r.checkpoint.as_ref().is_some_and(|c| c.checkpoints > 0)
            && r.crash_recovery.is_some()
    };
    let rebuilt: Check = |r| r.redundancy.as_ref().is_some_and(|d| d.rebuild_pages > 0);

    let light = TraceParams {
        total_warps: 8,
        mem_ops_per_warp: 2_000,
        footprint_pages: 256,
        seed: 9,
    };
    let faulted = TraceParams {
        total_warps: 16,
        mem_ops_per_warp: 120,
        footprint_pages: 1_024,
        seed: 42,
    };
    let churn = TraceParams {
        total_warps: 16,
        mem_ops_per_warp: 12,
        footprint_pages: 64,
        seed: 9,
    };
    let small = TraceParams {
        total_warps: 8,
        mem_ops_per_warp: 60,
        footprint_pages: 256,
        seed: 42,
    };
    let health_mix: &[&str] = &["betw"];
    let refresh_mix: &[&str] = &["betw", "back"];
    let write_mix: &[&str] = &["back", "gaus"];
    let cases = [
        ("health_zng_base", PlatformKind::ZngBase),
        ("health_zng", PlatformKind::Zng),
        ("health_hybrid", PlatformKind::HybridGpu),
        ("refresh_zng", PlatformKind::Zng),
        ("refresh_hybrid", PlatformKind::HybridGpu),
        ("level_zng_base", PlatformKind::ZngBase),
        ("scrub_zng", PlatformKind::Zng),
        ("scrub_hybrid", PlatformKind::HybridGpu),
        ("die_fail_zng", PlatformKind::Zng),
        ("die_fail_hybrid", PlatformKind::HybridGpu),
    ];
    let runs = cases
        .into_iter()
        .map(|(name, platform)| {
            let (cfg, params, mix, worked) = match name.split('_').next() {
                Some("health") => (health(), light, health_mix, evacuated),
                Some("refresh") => (refresh(), light, refresh_mix, refreshed),
                Some("level") => (level(), churn, write_mix, levelled),
                Some("scrub") => (scrub(), small, write_mix, scrubbed),
                _ => (die_fail(), faulted, write_mix, rebuilt),
            };
            let r = Experiment::quick()
                .with_config(cfg)
                .with_params(params)
                .run(platform, mix)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(worked(&r), "{name}: the subsystem under test did no work");
            (name, r.to_json_value())
        })
        .collect();
    let mut got = Value::object(runs).to_string_pretty();
    got.push('\n');
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_maint_library.json");
    if std::env::var_os("ZNG_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    assert_bytes_match(
        got.as_bytes(),
        &golden("run_maint_library.json"),
        "library maintenance runs",
    );
}

/// The mix every `paced_maint_library_runs_match_golden` case runs.
const PACED_MIX: &[&str] = &["back", "gaus"];
/// A short run of [`PACED_MIX`].
const PACED_LIGHT: zng::TraceParams = zng::TraceParams {
    total_warps: 8,
    mem_ops_per_warp: 16,
    footprint_pages: 512,
    seed: 42,
};
/// A run of [`PACED_MIX`] long enough to merge log blocks.
const PACED_CHURN: zng::TraceParams = zng::TraceParams {
    total_warps: 16,
    mem_ops_per_warp: 120,
    footprint_pages: 512,
    seed: 42,
};

/// `SimConfig::tiny()` with a GC stall budget, so every merge is paced.
fn paced_config() -> zng::SimConfig {
    let mut cfg = zng::SimConfig::tiny();
    cfg.qos.gc_stall_budget = Some(zng::Cycle(200));
    cfg
}

/// A crash on the same request count as a checkpoint and a scrub tick.
fn crash_on_tick_config() -> zng::SimConfig {
    let mut cfg = zng::SimConfig::tiny();
    cfg.redundancy = zng::RedundancyConfig::rain(50);
    cfg.checkpoint = zng::CheckpointConfig::on(50);
    cfg.crash_at = Some(50);
    cfg
}

/// Two `paced_maint_library_runs_match_golden` cases with `perf` on,
/// their event counters pinned as measured: `paced_gc_zng_base` runs out
/// of GC credit 22 times, so it takes the credit hold's early release,
/// and `crash_on_tick_zng` holds every app for the crash's recovery scan.
#[test]
fn paced_library_perf_counters_are_pinned() {
    use zng::{Experiment, PlatformKind};

    // events, blocked, compute, mem, skipped, maintenance, peak depth
    let cases = [
        (
            "paced_gc_zng_base",
            PlatformKind::ZngBase,
            paced_config(),
            PACED_CHURN,
            [7_712, 0, 3_840, 3_840, 32, 0, 32],
        ),
        (
            "crash_on_tick_zng",
            PlatformKind::Zng,
            crash_on_tick_config(),
            PACED_LIGHT,
            [640, 112, 256, 256, 16, 17, 16],
        ),
    ];
    for (name, platform, mut cfg, params, want) in cases {
        cfg.perf = true;
        let r = Experiment::quick()
            .with_config(cfg)
            .with_params(params)
            .run(platform, PACED_MIX)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let p = r.perf.expect("perf requested");
        let got = [
            p.events,
            p.blocked_events,
            p.compute_events,
            p.mem_events,
            p.skipped_events,
            p.maintenance_events,
            p.peak_queue_depth,
        ];
        assert_eq!(got, want, "{name}");
    }
}

/// The maintenance paths under a pacing contract, on flashless
/// platforms, and in poll order. No other golden reaches these: every
/// `*_overruns` key of `run_maint_library.json` is 0, both QoS goldens
/// report no paced GC, and no golden runs a subsystem on a platform
/// without flash. Each case runs through the library on
/// `SimConfig::tiny()` and asserts its target counter is non-zero:
///
/// - `paced_all_{zng,hybrid}`: a GC stall budget with scrub, refresh,
///   checkpoint and health on, so each step's foreground stall is
///   capped and counted as an overrun;
/// - `paced_gc_zng_base`: log-block merges under the same budget, each
///   a paced GC and (at this budget) a deadline miss;
/// - `all_optane`: every subsystem plus a crash and a die failure on a
///   platform with no flash, which still reports its tick counts;
/// - `crash_on_tick_zng`: a crash on the same request count as a
///   checkpoint and a scrub tick. The crash is polled first, so recovery
///   finds no checkpoint yet and falls back to the full scan.
///
/// Regenerate with `ZNG_BLESS=1 cargo test --test golden
/// paced_maint_library_runs_match_golden`.
#[test]
fn paced_maint_library_runs_match_golden() {
    use zng::{
        CheckpointConfig, DegradingDie, EnduranceConfig, Experiment, FaultConfig, HealthConfig,
        PlatformKind, RedundancyConfig, RunResult, SimConfig, TraceParams,
    };
    use zng_json::Value;

    type Check = fn(&RunResult) -> bool;
    let all_on = || {
        let mut cfg = paced_config();
        // A small page buffer sends HybridGPU's reads to the flash.
        cfg.buffer_pages = 8;
        cfg.fault = FaultConfig::none().with_degrading(DegradingDie {
            channel: 0,
            die: 0,
            onset: 100_000,
            death: 90_000_000,
        });
        cfg.redundancy = RedundancyConfig::rain(8);
        cfg.endurance = EnduranceConfig::on(8);
        cfg.endurance.disturb_threshold = 10;
        cfg.endurance.wear_spread = 0.0;
        cfg.checkpoint = CheckpointConfig::on(16);
        cfg.health = HealthConfig::on(8);
        cfg.health.window = 16;
        cfg.health.suspect_threshold = 0.02;
        cfg.health.evacuate = true;
        cfg
    };
    let optane = || {
        let mut cfg = all_on();
        cfg.crash_at = Some(100);
        cfg.redundancy.die_fail_at = Some(200);
        cfg
    };
    let overran: Check = |r| {
        r.redundancy.as_ref().is_some_and(|d| d.scrub_overruns > 0)
            && r.checkpoint.as_ref().is_some_and(|c| c.overruns > 0)
            && (r.endurance.as_ref().is_some_and(|e| e.refresh_overruns > 0)
                || r.health.as_ref().is_some_and(|h| h.evacuation_overruns > 0))
    };
    let paced_gc: Check = |r| {
        r.qos
            .as_ref()
            .is_some_and(|q| q.paced_gcs > 0 && q.gc_deadline_misses > 0)
    };
    let ticked: Check = |r| {
        r.redundancy.as_ref().is_some_and(|d| d.scrub_ticks > 0)
            && r.endurance.as_ref().is_some_and(|e| e.refresh_ticks > 0)
            && r.checkpoint
                .as_ref()
                .is_some_and(|c| c.checkpoint_ticks > 0)
            && r.health.as_ref().is_some_and(|h| h.health_ticks > 0)
            && r.crash_recovery.is_some()
    };
    let crash_first: Check = |r| {
        r.redundancy.as_ref().is_some_and(|d| d.scrub_ticks > 0)
            && r.checkpoint
                .as_ref()
                .is_some_and(|c| c.checkpoint_ticks > 0)
            && r.crash_recovery
                .as_ref()
                .is_some_and(|c| c.fallback && !c.fast_path)
    };

    let cases: [(&str, PlatformKind, SimConfig, TraceParams, Check); 5] = [
        (
            "paced_all_zng",
            PlatformKind::Zng,
            all_on(),
            PACED_LIGHT,
            overran,
        ),
        (
            "paced_all_hybrid",
            PlatformKind::HybridGpu,
            all_on(),
            PACED_LIGHT,
            overran,
        ),
        (
            "paced_gc_zng_base",
            PlatformKind::ZngBase,
            paced_config(),
            PACED_CHURN,
            paced_gc,
        ),
        (
            "all_optane",
            PlatformKind::Optane,
            optane(),
            PACED_LIGHT,
            ticked,
        ),
        (
            "crash_on_tick_zng",
            PlatformKind::Zng,
            crash_on_tick_config(),
            PACED_LIGHT,
            crash_first,
        ),
    ];
    let runs = cases
        .into_iter()
        .map(|(name, platform, cfg, params, worked)| {
            let r = Experiment::quick()
                .with_config(cfg)
                .with_params(params)
                .run(platform, PACED_MIX)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(worked(&r), "{name}: the path under test did no work");
            (name, r.to_json_value())
        })
        .collect();
    let mut got = Value::object(runs).to_string_pretty();
    got.push('\n');
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_maint_paced_library.json");
    if std::env::var_os("ZNG_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    assert_bytes_match(
        got.as_bytes(),
        &golden("run_maint_paced_library.json"),
        "library paced maintenance runs",
    );
}

/// Full ZnG's thrashing redirection (paper §III-C) in Fig. 13's regime:
/// NiF-grouped registers with two per plane, so the register pools
/// thrash, overflow writes pin dirty L2 lines and later drain back to
/// the registers. No other golden redirects a write. Both cases run the
/// `bfs3-FDT` mix through the library on `SimConfig::tiny()`:
///
/// - `redirect_short`: the smallest run found that redirects and drains;
/// - `redirect_long`: five times the ops, so lines that are already
///   pinned are pinned again.
///
/// In both, GC invalidates pinned lines of the pages it merges.
///
/// Regenerate with `ZNG_BLESS=1 cargo test --test golden
/// redirection_library_runs_match_golden`.
#[test]
fn redirection_library_runs_match_golden() {
    use zng::{Experiment, PlatformKind, RegisterTopology, SimConfig, TraceParams};
    use zng_json::Value;

    let runs = [("redirect_short", 60), ("redirect_long", 300)]
        .into_iter()
        .map(|(name, ops)| {
            let mut cfg = SimConfig::tiny();
            cfg.flash.registers_per_plane = 2;
            cfg.register_topology = RegisterTopology::NiF;
            let r = Experiment::quick()
                .with_config(cfg)
                .with_params(TraceParams {
                    total_warps: 32,
                    mem_ops_per_warp: ops,
                    footprint_pages: 256,
                    seed: 42,
                })
                .run(PlatformKind::Zng, &["bfs3", "FDT"])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(r.redirected_writes > 0, "{name}: no write was redirected");
            (name, r.to_json_value())
        })
        .collect();
    let mut got = Value::object(runs).to_string_pretty();
    got.push('\n');
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_redirect_library.json");
    if std::env::var_os("ZNG_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    assert_bytes_match(
        got.as_bytes(),
        &golden("run_redirect_library.json"),
        "library redirection runs",
    );
}
