//! `zng-cli` — run ZnG simulations from the command line.
//!
//! ```text
//! zng-cli list                              # platforms and workloads
//! zng-cli run --platform zng --workloads betw,back
//! zng-cli run -p optane -w bfs1,gaus --warps 64 --ops 300 --json
//! zng-cli sweep --workloads betw,back       # every platform, one table
//! ```

use std::process::ExitCode;

use zng::{
    table2, CheckpointConfig, Cycle, DegradingDie, EnduranceConfig, Experiment, FaultProfile,
    HealthConfig, IntegrityConfig, PlatformKind, QosConfig, RedundancyConfig, RunResult, Table,
    TraceParams,
};
use zng_types::ids::AppId;
use zng_workloads::{by_name, generate, TraceBundle};

/// Exit-code contract: usage errors (bad flags, missing arguments)
/// exit 2 and print the usage text; simulation errors (integrity
/// violations, device wear-out, watchdog stalls, I/O) exit 1 with the
/// error alone on stderr; success exits 0.
enum CliError {
    Usage(String),
    Sim(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Sim(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  zng-cli list
  zng-cli run    --platform <name> --workloads <a,b,..> [options]
  zng-cli sweep  --workloads <a,b,..> [options]
  zng-cli traces --workloads <name> --out <file.json> [options]

options:
  -p, --platform   hetero|hybridgpu|optane|zng-base|zng-rdopt|zng-wropt|zng|ideal
  -w, --workloads  comma-separated Table II names (co-run as one mix)
      --warps      warps per application        (default 128)
      --ops        memory ops per warp          (default 650)
      --footprint  footprint in 4 KiB pages     (default 2048)
      --seed       RNG seed                     (default 42)
      --faults     fault profile: none|nominal|end-of-life (default none)
      --crash-at   cut power after N completed requests, recover, resume
      --qos        enable the bounded overload-control preset
      --queue-depth    per-channel in-flight bound       (implies --qos)
      --retry-budget   backoff retries per rejected request (default 8)
      --gc-stall-budget  max cycles one GC may stall its victim
      --gc-credits     foreground stalls per GC before early release
      --fair-window    per-app fair-share window in requests
      --redundancy     enable RAIN parity + reconstruction-on-read
      --scrub-every    patrol-scrub step every N requests (implies --redundancy)
      --scrub-threshold  retry depth that triggers a scrub rewrite (default 2)
      --die-fail-at    kill one die after N requests (implies --redundancy)
      --die-fail       which die dies, as ch:die    (default 0:0)
      --link-fail      sever channel N's mesh link  (implies --redundancy)
      --integrity      verify per-page OOB checksums on every read
      --sdc-rate       silent-corruption probability per read at
                       end-of-life wear, 0..1     (implies --integrity)
      --sdc-at         silently corrupt the Nth page program/preload
                       (implies --integrity)
      --endurance      enable lifetime management: wear tracking,
                       graceful end-of-life capacity degradation
      --refresh-every  refresh-scheduler step every N requests
                       (implies --endurance)
      --disturb-threshold   array senses before a block is refreshed
                            (implies --endurance)
      --retention-threshold cycles of retention age before a refresh
                            (implies --endurance)
      --wear-spread    max/mean wear ratio that triggers static
                       levelling, >= 1 or 0=off (implies --endurance)
      --checkpoint     checkpoint the mapping tables in the background
                       so crash recovery takes the journal fast path
      --checkpoint-every  checkpoint cadence in completed requests
                          (default 512, implies --checkpoint)
      --journal-cap    max delta-journal records between checkpoints,
                       0=unbounded (implies --checkpoint)
      --health         predictive die-health monitoring: score the
                       per-die telemetry every N completed requests and
                       quarantine suspect dies
      --health-window  minimum per-die observations before a die is
                       scored (implies --health)
      --suspect-threshold  health score in (0,1] that flags a suspect
                           (implies --health)
      --evacuate       pre-emptively migrate live data off suspect dies
                       (implies --health)
      --degrading-die  inject one die degrading toward death, as
                       ch:die:onset:death (cycles)
      --watchdog       abort with exit 1 when no request completes
                       within N cycles
      --perf       report simulator throughput (wall time, events/sec,
                   peak queue depth, per-kind event counts)
      --json       emit the full RunResult as JSON";

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("platforms:");
            for p in PlatformKind::PAPER_PLATFORMS {
                println!("  {}", p.to_string().to_lowercase());
            }
            println!("  ideal");
            println!("\nworkloads (Table II):");
            for w in table2() {
                println!(
                    "  {:<6} {:?}, read ratio {:.2}, {} kernels",
                    w.name, w.suite, w.read_ratio, w.kernels
                );
            }
            Ok(())
        }
        Some("run") => {
            let mut opts = Opts::parse(&args[1..], "run", RUN_FLAGS).map_err(CliError::Usage)?;
            let platform = opts
                .platform
                .ok_or_else(|| CliError::Usage("run requires --platform".into()))?;
            let r = opts
                .exp
                .run(platform, &refs(&opts.workloads))
                .map_err(|e| CliError::Sim(e.to_string()))?;
            if opts.json {
                println!("{}", r.to_json_value().to_string_pretty());
            } else {
                print_result(&r);
            }
            Ok(())
        }
        Some("sweep") => {
            let mut opts =
                Opts::parse(&args[1..], "sweep", &[SHARED_FLAGS]).map_err(CliError::Usage)?;
            let mut t = Table::new(vec![
                "platform".into(),
                "IPC".into(),
                "L2 hit".into(),
                "flash GB/s".into(),
                "GCs".into(),
                "sim us".into(),
            ]);
            let mut platforms = PlatformKind::PAPER_PLATFORMS.to_vec();
            platforms.push(PlatformKind::Ideal);
            // One worker thread per platform: the runs are independent,
            // and results come back in listed order so the table is
            // identical to the sequential sweep.
            let results = opts
                .exp
                .run_platforms(&platforms, &refs(&opts.workloads))
                .map_err(|e| CliError::Sim(e.to_string()))?;
            for (p, r) in platforms.iter().zip(&results) {
                t.row(vec![
                    p.to_string(),
                    format!("{:.4}", r.ipc),
                    format!("{:.2}", r.l2_hit_rate),
                    format!("{:.2}", r.flash_array_gbps),
                    r.gcs.to_string(),
                    format!("{:.0}", r.simulated_us()),
                ]);
            }
            t.print(&format!("sweep: {}", opts.workloads.join("-")));
            Ok(())
        }
        Some("traces") => {
            let mut out: Option<String> = None;
            let mut rest = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    out = Some(
                        it.next()
                            .cloned()
                            .ok_or_else(|| CliError::Usage("--out requires a value".into()))?,
                    );
                } else {
                    rest.push(a.clone());
                }
            }
            let opts = Opts::parse(&rest, "traces", &[TRACES_FLAGS]).map_err(CliError::Usage)?;
            let out = out.ok_or_else(|| CliError::Usage("traces requires --out <file>".into()))?;
            let name = opts
                .workloads
                .first()
                .ok_or_else(|| CliError::Usage("--workloads is required".into()))?;
            let spec = by_name(name).map_err(|e| CliError::Usage(e.to_string()))?;
            let params = opts.exp.params();
            let traces = generate(&spec, AppId(0), params);
            let bundle = TraceBundle::new(name, params.seed, traces);
            bundle
                .save(std::path::Path::new(&out))
                .map_err(|e| CliError::Sim(e.to_string()))?;
            println!(
                "wrote {} warps ({} memory ops) of `{name}` to {out}",
                bundle.traces.len(),
                bundle.mem_ops()
            );
            Ok(())
        }
        _ => Err(CliError::Usage(
            "expected a subcommand: list | run | sweep | traces".into(),
        )),
    }
}

/// Flags `run` and `sweep` both accept; `run` adds the platform and
/// `--json`. The lists name every valid flag in unknown-flag errors.
const SHARED_FLAGS: &[&str] = &[
    "-w",
    "--workloads",
    "--warps",
    "--ops",
    "--footprint",
    "--seed",
    "--faults",
    "--crash-at",
    "--qos",
    "--queue-depth",
    "--retry-budget",
    "--gc-stall-budget",
    "--gc-credits",
    "--fair-window",
    "--redundancy",
    "--scrub-every",
    "--scrub-threshold",
    "--die-fail-at",
    "--die-fail",
    "--link-fail",
    "--integrity",
    "--sdc-rate",
    "--sdc-at",
    "--endurance",
    "--refresh-every",
    "--disturb-threshold",
    "--retention-threshold",
    "--wear-spread",
    "--checkpoint",
    "--checkpoint-every",
    "--journal-cap",
    "--health",
    "--health-window",
    "--suspect-threshold",
    "--evacuate",
    "--degrading-die",
    "--watchdog",
    "--perf",
];
const RUN_FLAGS: &[&[&str]] = &[&["-p", "--platform"], SHARED_FLAGS, &["--json"]];
const TRACES_FLAGS: &[&str] = &[
    "-w",
    "--workloads",
    "--warps",
    "--ops",
    "--footprint",
    "--seed",
    "--out",
];

/// Queue depth installed by a bare `--qos` (no `--queue-depth`).
const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Checkpoint cadence installed by a bare `--checkpoint` (no
/// `--checkpoint-every`).
const DEFAULT_CHECKPOINT_EVERY: u64 = 512;

/// Monitor cadence installed by a health flag that implies `--health`.
const DEFAULT_HEALTH_EVERY: u64 = 256;

struct Opts {
    platform: Option<PlatformKind>,
    workloads: Vec<String>,
    /// The standard experiment with the flags' trace parameters and
    /// configuration written in.
    exp: Experiment,
    json: bool,
}

impl Opts {
    fn parse(args: &[String], subcommand: &str, allowed: &[&[&str]]) -> Result<Opts, String> {
        let allowed = allowed.concat();
        let mut platform = None;
        let mut workloads = Vec::new();
        let mut json = false;
        let mut params = TraceParams {
            total_warps: 128,
            mem_ops_per_warp: 650,
            footprint_pages: 2048,
            seed: 42,
        };
        let mut exp = Experiment::standard();
        let cfg = exp.config_mut();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a.starts_with('-') && !allowed.contains(&a.as_str()) {
                return Err(format!(
                    "unknown flag `{a}` for `{subcommand}` — valid flags: {}",
                    allowed.join(", ")
                ));
            }
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            // Each subsystem's flags build on its preset, which the first
            // of them installs.
            let flag = a.as_str();
            match flag {
                "-p" | "--platform" => platform = Some(parse_platform(&value("--platform")?)?),
                "-w" | "--workloads" => {
                    workloads = value("--workloads")?
                        .split(',')
                        .map(str::to_string)
                        .collect();
                }
                "--warps" | "--ops" | "--footprint" => {
                    let n = parse_num(flag, &value(flag)?)?;
                    if n == 0 {
                        return Err(format!("{flag} must be at least 1"));
                    }
                    match flag {
                        "--warps" => params.total_warps = n,
                        "--ops" => params.mem_ops_per_warp = n,
                        _ => params.footprint_pages = n,
                    }
                }
                "--seed" => params.seed = parse_num(flag, &value(flag)?)?,
                "--faults" => {
                    cfg.fault.profile =
                        FaultProfile::parse(&value(flag)?).map_err(|e| e.to_string())?;
                }
                "--crash-at" => cfg.crash_at = Some(parse_num(flag, &value(flag)?)?),
                "--qos" | "--queue-depth" | "--retry-budget" | "--gc-stall-budget"
                | "--gc-credits" | "--fair-window" => {
                    if cfg.qos.is_unbounded() {
                        cfg.qos = QosConfig::bounded(DEFAULT_QUEUE_DEPTH);
                    }
                    let q = &mut cfg.qos;
                    match flag {
                        "--queue-depth" => q.queue_depth = Some(parse_num(flag, &value(flag)?)?),
                        "--retry-budget" => q.retry_budget = parse_num(flag, &value(flag)?)?,
                        "--gc-stall-budget" => {
                            q.gc_stall_budget = Some(Cycle(parse_num(flag, &value(flag)?)?));
                        }
                        "--gc-credits" => q.gc_credit_writes = parse_num(flag, &value(flag)?)?,
                        "--fair-window" => q.fair_window = parse_num(flag, &value(flag)?)?,
                        _ => {}
                    }
                }
                "--redundancy" | "--scrub-every" | "--scrub-threshold" | "--die-fail-at"
                | "--die-fail" | "--link-fail" => {
                    if !cfg.redundancy.enabled {
                        cfg.redundancy = RedundancyConfig::rain(0);
                    }
                    let r = &mut cfg.redundancy;
                    match flag {
                        "--scrub-every" => r.scrub_every_ops = parse_num(flag, &value(flag)?)?,
                        "--scrub-threshold" => {
                            r.scrub_threshold = parse_num(flag, &value(flag)?)?;
                        }
                        "--die-fail-at" => r.die_fail_at = Some(parse_num(flag, &value(flag)?)?),
                        "--die-fail" => {
                            let spec = value(flag)?;
                            let (ch, die) = spec
                                .split_once(':')
                                .ok_or_else(|| format!("--die-fail wants ch:die, got `{spec}`"))?;
                            r.die_fail = (parse_num(flag, ch)?, parse_num(flag, die)?);
                        }
                        "--link-fail" => r.link_fail = Some(parse_num(flag, &value(flag)?)?),
                        _ => {}
                    }
                }
                "--integrity" | "--sdc-rate" | "--sdc-at" => {
                    if !cfg.integrity.enabled {
                        cfg.integrity = IntegrityConfig {
                            enabled: true,
                            ..IntegrityConfig::off()
                        };
                    }
                    let i = &mut cfg.integrity;
                    match flag {
                        "--sdc-rate" => i.sdc_rate = parse_float(&value(flag)?)?,
                        "--sdc-at" => i.sdc_at = Some(parse_num(flag, &value(flag)?)?),
                        _ => {}
                    }
                }
                "--endurance"
                | "--refresh-every"
                | "--disturb-threshold"
                | "--retention-threshold"
                | "--wear-spread" => {
                    if !cfg.endurance.enabled {
                        cfg.endurance = EnduranceConfig::on(0);
                    }
                    let e = &mut cfg.endurance;
                    match flag {
                        "--refresh-every" => e.refresh_every_ops = parse_num(flag, &value(flag)?)?,
                        "--disturb-threshold" => {
                            e.disturb_threshold = parse_num(flag, &value(flag)?)?;
                        }
                        "--retention-threshold" => {
                            e.retention_threshold = parse_num(flag, &value(flag)?)?;
                        }
                        "--wear-spread" => e.wear_spread = parse_float(&value(flag)?)?,
                        _ => {}
                    }
                }
                "--checkpoint" | "--checkpoint-every" | "--journal-cap" => {
                    if !cfg.checkpoint.enabled {
                        cfg.checkpoint = CheckpointConfig::on(DEFAULT_CHECKPOINT_EVERY);
                    }
                    let c = &mut cfg.checkpoint;
                    match flag {
                        "--checkpoint-every" => c.every_ops = parse_num(flag, &value(flag)?)?,
                        "--journal-cap" => c.journal_cap = parse_num(flag, &value(flag)?)?,
                        _ => {}
                    }
                }
                "--health" | "--health-window" | "--suspect-threshold" | "--evacuate" => {
                    if !cfg.health.enabled {
                        cfg.health = HealthConfig::on(DEFAULT_HEALTH_EVERY);
                    }
                    let h = &mut cfg.health;
                    match flag {
                        "--health" => h.every_ops = parse_num(flag, &value(flag)?)?,
                        "--health-window" => h.window = parse_num(flag, &value(flag)?)?,
                        "--suspect-threshold" => h.suspect_threshold = parse_float(&value(flag)?)?,
                        _ => h.evacuate = true,
                    }
                }
                "--degrading-die" => {
                    let spec = value(flag)?;
                    let parts: Vec<&str> = spec.split(':').collect();
                    let [ch, die, onset, death] = parts.as_slice() else {
                        return Err(format!(
                            "--degrading-die wants ch:die:onset:death, got `{spec}`"
                        ));
                    };
                    cfg.fault.degrading = Some(DegradingDie {
                        channel: parse_num(flag, ch)?,
                        die: parse_num(flag, die)?,
                        onset: parse_num(flag, onset)?,
                        death: parse_num(flag, death)?,
                    });
                }
                "--watchdog" => cfg.watchdog = Some(parse_num(flag, &value(flag)?)?),
                "--perf" => cfg.perf = true,
                "--json" => json = true,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` for `{subcommand}` — valid flags: {}",
                        allowed.join(", ")
                    ))
                }
            }
        }
        // The fault and silent-corruption streams share the run's seed,
        // wherever `--seed` came in the flags.
        cfg.fault.seed = params.seed;
        if cfg.integrity.enabled {
            cfg.integrity.seed = params.seed;
        }
        if workloads.is_empty() {
            return Err("--workloads is required".into());
        }
        // Unknown workload names are usage errors, caught before any
        // simulation work starts.
        for w in &workloads {
            by_name(w).map_err(|e| e.to_string())?;
        }
        Ok(Opts {
            platform,
            workloads,
            exp: exp.with_params(params),
            json,
        })
    }
}

/// The workload names as the experiment API takes them.
fn refs(names: &[String]) -> Vec<&str> {
    names.iter().map(String::as_str).collect()
}

/// Parses `s`, the value given to `flag`, into the flag's field type. A
/// number the field cannot hold is refused, never wrapped.
fn parse_num<T: TryFrom<u64>>(flag: &str, s: &str) -> Result<T, String> {
    let n: u64 = s.parse().map_err(|_| format!("`{s}` is not a number"))?;
    T::try_from(n).map_err(|_| format!("`{s}` is out of range for {flag}"))
}

fn parse_float(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn parse_platform(s: &str) -> Result<PlatformKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "hetero" => PlatformKind::Hetero,
        "hybridgpu" | "hybrid" => PlatformKind::HybridGpu,
        "optane" => PlatformKind::Optane,
        "zng-base" | "base" => PlatformKind::ZngBase,
        "zng-rdopt" | "rdopt" => PlatformKind::ZngRdopt,
        "zng-wropt" | "wropt" => PlatformKind::ZngWropt,
        "zng" => PlatformKind::Zng,
        "ideal" => PlatformKind::Ideal,
        other => return Err(format!("unknown platform `{other}`")),
    })
}

fn print_result(r: &RunResult) {
    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    for (label, value) in r.table_rows() {
        t.row(vec![label, value]);
    }
    t.print("run result");
}
