//! End-to-end tests of the `zng-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zng-cli"))
}

#[test]
fn list_shows_platforms_and_workloads() {
    let out = cli().arg("list").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "hetero",
        "hybridgpu",
        "optane",
        "zng",
        "ideal",
        "betw",
        "gram",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn run_prints_metrics_table() {
    let out = cli()
        .args([
            "run",
            "-p",
            "ideal",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IPC"));
    assert!(text.contains("Ideal"));
}

#[test]
fn run_json_is_parseable() {
    let out = cli()
        .args([
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
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let v = zng_json::Value::parse(&text).expect("valid JSON RunResult");
    assert!(v["ipc"].as_f64().unwrap() > 0.0);
    assert_eq!(v["platform"], "Zng");
}

#[test]
fn traces_roundtrip_through_disk() {
    let path = std::env::temp_dir().join("zng_cli_traces_test.json");
    let out = cli()
        .args([
            "traces",
            "-w",
            "bfs1",
            "--out",
            path.to_str().unwrap(),
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bundle = zng_workloads::TraceBundle::load(&path).expect("load");
    assert_eq!(bundle.workload, "bfs1");
    assert_eq!(bundle.traces.len(), 4);
    let _ = std::fs::remove_file(&path);
}

/// A bundle at the CLI's default volume (128 warps × 650 ops, about
/// 7 MB of JSON) loads back op for op. Parsing used to re-validate the
/// rest of the document at every string character, which made loading
/// a bundle of this size take minutes.
#[test]
fn default_volume_traces_roundtrip() {
    let path = std::env::temp_dir().join("zng_cli_traces_default_test.json");
    let out = cli()
        .args(["traces", "-w", "betw", "--out", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bundle = zng_workloads::TraceBundle::load(&path).expect("load");
    let _ = std::fs::remove_file(&path);
    let params = zng_workloads::TraceParams {
        total_warps: 128,
        mem_ops_per_warp: 650,
        footprint_pages: 2048,
        seed: 42,
    };
    let spec = zng_workloads::by_name("betw").unwrap();
    let want = zng_workloads::generate(&spec, zng_types::AppId(0), &params);
    assert_eq!((bundle.workload.as_str(), bundle.seed), ("betw", 42));
    assert_eq!(bundle.traces.len(), want.len());
    for (got, want) in bundle.traces.iter().zip(&want) {
        assert_eq!(got.ops(), want.ops());
    }
}

#[test]
fn qos_flags_add_overload_metrics() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw,back",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--qos",
            "--queue-depth",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("qos rejected"), "{text}");
    assert!(text.contains("read p50/p95/p99"), "{text}");
    assert!(text.contains("app0 avg read lat"), "{text}");
}

/// A fairness window near `u64::MAX` used to wrap the gate's threshold
/// sum, throttling both apps of a level pair forever (a hang in release
/// builds, an overflow panic in debug ones). The window is effectively
/// infinite, so nothing may be throttled.
#[test]
fn huge_fair_window_never_throttles() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw,back",
            "--warps",
            "8",
            "--ops",
            "50",
            "--footprint",
            "256",
            "--fair-window",
            "18446744073709551615",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = zng_json::Value::parse(&String::from_utf8_lossy(&out.stdout)).expect("json");
    assert_eq!(v["qos_fairness_throttles"].as_u64(), Some(0));
}

#[test]
fn default_run_has_no_qos_rows() {
    let out = cli()
        .args([
            "run",
            "-p",
            "ideal",
            "-w",
            "betw",
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("qos"), "default output must be QoS-free");
}

#[test]
fn unknown_flags_name_the_flag_and_list_valid_ones() {
    let out = cli()
        .args(["run", "-p", "zng", "-w", "betw", "--bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "unknown flag must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`--bogus`"), "names the flag: {err}");
    assert!(err.contains("for `run`"), "names the subcommand: {err}");
    assert!(err.contains("--queue-depth"), "lists valid flags: {err}");

    // `--platform` is a run flag, not a sweep flag.
    let out = cli()
        .args(["sweep", "-w", "betw", "--platform", "zng"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("`--platform`") && err.contains("for `sweep`"),
        "{err}"
    );
}

#[test]
fn bad_arguments_fail_with_usage() {
    for args in [
        vec!["run"], // missing everything
        vec!["run", "-p", "bogus", "-w", "betw"],
        vec!["run", "-p", "zng", "-w", "nope"],
        vec!["frobnicate"],
    ] {
        let out = cli().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "no usage in stderr: {err}");
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage errors exit 2: {args:?}\n{err}"
        );
    }
}

#[test]
fn simulation_errors_exit_one_without_usage() {
    // A 1-cycle watchdog budget trips immediately: a simulation error,
    // not a usage error, so exit 1 and no usage dump.
    let out = cli()
        .args([
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
            "--watchdog",
            "1",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "simulation errors exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stalled"), "names the stall: {err}");
    assert!(
        !err.contains("usage:"),
        "no usage text for sim errors: {err}"
    );
}

#[test]
fn integrity_violation_exits_one() {
    // A silent-corruption shot with no redundancy to reconstruct from is
    // unrecoverable: the read fails loudly and the process exits 1.
    let out = cli()
        .args([
            "run",
            "-p",
            "zng-base",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--integrity",
            "--sdc-at",
            "5",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "integrity violations exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("integrity"), "names the violation: {err}");
}

/// Read-time silent corruption between checkpoints, then a power cut:
/// every miscorrected block is journalled, so the fast-path image equals
/// a full scan (a debug build asserts it) and the run ends with a result
/// or a named error, never a panic.
#[test]
fn read_corruption_between_checkpoints_then_a_crash_does_not_panic() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "back,gaus",
            "--faults",
            "nominal",
            "--redundancy",
            "--sdc-rate",
            "0.1",
            "--checkpoint",
            "--checkpoint-every",
            "1024",
            "--crash-at",
            "8000",
            "--warps",
            "32",
            "--ops",
            "400",
        ])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(0 | 1)) && !err.contains("panicked"),
        "exit {:?}: {err}",
        out.status.code()
    );
}

/// A silent corruption plus a dead die in the same stripe is a real
/// double fault: the die-failure rebuild cannot reconstruct the page,
/// and the error reaches the CLI as exit 1 on both page-map platforms.
#[test]
fn double_fault_rebuild_exits_one() {
    for platform in ["hybrid", "hetero"] {
        let out = cli()
            .args([
                "run",
                "-p",
                platform,
                "-w",
                "back,gaus",
                "--warps",
                "16",
                "--ops",
                "120",
                "--footprint",
                "1024",
                "--redundancy",
                "--sdc-at",
                "50",
                "--die-fail-at",
                "600",
                "--die-fail",
                "1:0",
            ])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{platform}: double faults exit 1"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("integrity violation at ch1/d0/p0/b0/pg3"),
            "{platform}: names the unrecoverable page: {err}"
        );
    }
}

#[test]
fn integrity_flags_add_counters_and_heal_with_redundancy() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng-base",
            "-w",
            "betw",
            "--warps",
            "8",
            "--ops",
            "40",
            "--footprint",
            "128",
            "--integrity",
            "--sdc-at",
            "5",
            "--redundancy",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let v = zng_json::Value::parse(&text).expect("valid JSON RunResult");
    assert!(v["integrity_detected"].as_f64().unwrap() >= 1.0);
    assert!(v["integrity_reconstructed"].as_f64().unwrap() >= 1.0);
    assert_eq!(v["integrity_poisoned_lines"].as_f64().unwrap(), 0.0);
}

#[test]
fn health_flags_add_monitor_metrics() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng-base",
            "-w",
            "back",
            "--warps",
            "8",
            "--ops",
            "200",
            "--footprint",
            "128",
            "--health",
            "3",
            "--health-window",
            "16",
            "--suspect-threshold",
            "0.02",
            "--evacuate",
            "--degrading-die",
            "0:0:200000:14000000",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let v = zng_json::Value::parse(&text).expect("valid JSON RunResult");
    assert!(v["health_ticks"].as_f64().unwrap() > 0.0);
    assert!(v["health_suspects_flagged"].as_f64().unwrap() >= 1.0);
    assert!(v["health_pages_evacuated"].as_f64().unwrap() >= 1.0);
    assert!(
        text.contains("per_die_health"),
        "per-die rollups present:\n{text}"
    );
}

#[test]
fn health_usage_errors_exit_two_and_name_the_flag() {
    // Each health flag that wants a value must say so, name itself, and
    // exit with the usage code.
    for flag in ["--health", "--health-window", "--suspect-threshold"] {
        let out = cli()
            .args(["run", "-p", "zng", "-w", "betw", flag])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag} without a value");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "names `{flag}`: {err}");
        assert!(err.contains("requires a value"), "{err}");
    }
    // A malformed die spec is a usage error too.
    let out = cli()
        .args(["run", "-p", "zng", "-w", "betw", "--degrading-die", "0:0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--degrading-die") && err.contains("ch:die:onset:death"),
        "{err}"
    );
    // And so is a non-numeric threshold.
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--suspect-threshold",
            "hot",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`hot` is not a number"), "{err}");
}

#[test]
fn default_run_has_no_health_rows() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("health") && !text.contains("quarantine") && !text.contains("evacuat"),
        "default output must be health-free:\n{text}"
    );
}

#[test]
fn default_run_has_no_integrity_rows() {
    let out = cli()
        .args([
            "run",
            "-p",
            "zng",
            "-w",
            "betw",
            "--warps",
            "4",
            "--ops",
            "20",
            "--footprint",
            "64",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        !text.contains("integrity") && !text.contains("poisoned"),
        "default output must be integrity-free:\n{text}"
    );
}

#[test]
fn zero_queue_depth_is_a_named_configuration_error() {
    // An empty queue of depth 0 would already be full: the run is
    // refused as an invalid configuration on both bounded platforms.
    for platform in ["zng", "hybrid"] {
        let out = cli()
            .args([
                "run",
                "-p",
                platform,
                "-w",
                "back",
                "--warps",
                "8",
                "--ops",
                "60",
                "--footprint",
                "64",
                "--qos",
                "--queue-depth",
                "0",
            ])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{platform}: exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("invalid configuration for qos.queue_depth"),
            "{platform}: {err}"
        );
    }
}

#[test]
fn out_of_range_numbers_are_usage_errors() {
    // Each value parses as a number but overflows its field's type; it
    // must be refused with the flag and the value named, not wrapped.
    for (flags, value) in [
        (vec!["--link-fail", "65536"], "65536"),
        (vec!["--qos", "--retry-budget", "4294967296"], "4294967296"),
        (vec!["--die-fail", "0:65536"], "65536"),
        (vec!["--scrub-threshold", "4294967296"], "4294967296"),
        (vec!["--degrading-die", "65536:0:100:200"], "65536"),
    ] {
        let out = cli()
            .args(["run", "-p", "zng", "-w", "betw"])
            .args(&flags)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flags:?}: usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        let flag = flags[flags.len() - 2];
        assert!(
            err.contains(flag) && err.contains(&format!("`{value}`")),
            "{flags:?}: {err}"
        );
    }
}

#[test]
fn zero_trace_counts_are_usage_errors() {
    // A run with no warps, no ops or no pages has nothing to generate:
    // every subcommand that builds traces refuses the zero by flag name.
    let out_file = std::env::temp_dir().join("zng_cli_zero_counts.json");
    let out_file = out_file.to_str().unwrap();
    let subcommands: [&[&str]; 3] = [
        &["run", "-p", "zng", "-w", "betw"],
        &["sweep", "-w", "betw"],
        &["traces", "-w", "betw", "--out", out_file],
    ];
    for args in subcommands {
        for flag in ["--warps", "--ops", "--footprint"] {
            let out = cli().args(args).args([flag, "0"]).output().expect("spawn");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} {flag} 0: {err}");
            assert!(
                err.contains(&format!("{flag} must be at least 1")) && !err.contains("panicked"),
                "{args:?} {flag} 0: {err}"
            );
        }
    }
    assert!(!std::path::Path::new(out_file).exists());
}
