//! Timed and traced invocations.
//!
//! Both are a closed loop with one client: repetitions run one after
//! another on one thread, each paying what one CLI invocation pays —
//! generate the mix, build a fresh `Simulation`, run it. Repetitions 0
//! and 1 run mix 0 of the seed, so the `deterministic` check always
//! compares, and repetition `r ≥ 1` runs mix `r − 1`: every later
//! repetition is a new input.

use std::time::{Duration, Instant};

use zng_platforms::{RunResult, Simulation};
use zng_workloads::MultiApp;

use crate::calibrate::{self, thread_cpu_s, Calibration};
use crate::checks::{check_rep, MixStats};
use crate::replay::{replay, ReplayReport, Step};
use crate::spans::Spans;
use crate::workloads::Workload;

/// Repetitions a timed invocation runs however short its budget: the
/// untimed warm-up and one timed repetition of the same mix.
const TIMED_MIN_REPS: u64 = 2;

/// The mix repetition `rep` runs.
fn mix_of(rep: u32) -> u32 {
    rep.saturating_sub(1)
}

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What an invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first failed check or error, by name.
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// The per-repetition samples behind the host metrics, by name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Runs `rep` until at least `min_reps` ran and another repetition
    /// as long as the last one would end past `budget`, counting failed
    /// repetitions.
    fn repeat(
        &mut self,
        budget: Duration,
        min_reps: u64,
        mut rep: impl FnMut(u32) -> Result<(), String>,
    ) {
        let start = Instant::now();
        let mut last = Duration::ZERO;
        while self.attempted < min_reps || start.elapsed() + last < budget {
            let t = Instant::now();
            if let Err(why) = rep(self.attempted as u32) {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
            last = t.elapsed();
            self.attempted += 1;
        }
    }
}

/// The median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// The mean of the lower half of a non-empty sample (the middle value
/// included when the length is odd). Other guests' load only ever adds
/// host time, and it comes in bursts shorter than a run, so the faster
/// half of a run's samples is the half it disturbed least; averaging
/// that half still averages the costs of several mixes.
pub fn lower_half_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[..v.len().div_ceil(2)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end metrics.
///
/// Repetition 0 is a warm-up: it is checked and sets `peak_rss_mib`
/// (the peak memory of one CLI-equivalent run), but it is not timed,
/// since its set-up page-faults the process's fresh heap.
///
/// Host times are thread CPU time, multiplied by [`calibrate::scale`] of
/// the [`lower_half_mean`] time of the [`Calibration`] runs made before
/// the first timed repetition and after each one.
/// `run_s` is the [`lower_half_mean`] of the repetitions' CPU times and
/// `sim_ips` the inverse of that of their CPU seconds per instruction:
/// the same statistic of both samples, so the scale describes the load
/// the kept repetitions ran under. Over nine sets of runs per workload
/// it gave a smaller interquartile range than a trimmed mean over a
/// median scale (`BASELINE.md`). `setup_s` is the median of its
/// samples, since set-up cost depends only on the volume, so the median
/// drops the first timed repetition, which still grows the heap.
pub fn timed(w: &Workload, seed: u64, budget: Duration) -> Outcome {
    let cfg = w.config();
    let mut out = Outcome::default();
    let (mut setup_s, mut run_s, mut s_per_instr) = (Vec::new(), Vec::new(), Vec::new());
    let mut calibration_s = Vec::new();
    let mut first_result = None;
    let mut first_rss = None;
    // Made after the warm-up, so its tables stay out of `peak_rss_mib`.
    let mut calibration = None;
    out.repeat(budget, TIMED_MIN_REPS, |rep| {
        if rep == 1 {
            first_rss = peak_rss_mib();
            calibration_s.push(calibration.get_or_insert_with(Calibration::new).run());
        }
        let t0 = thread_cpu_s();
        let mix =
            MultiApp::from_names(w.mix, &w.params(seed, mix_of(rep))).map_err(|e| e.to_string())?;
        let mut sim = Simulation::new(w.platform, &cfg).map_err(|e| e.to_string())?;
        let t1 = thread_cpu_s();
        let r = sim
            .run(&mix)
            .map_err(|e| format!("simulation failed: {e}"))?;
        let t2 = thread_cpu_s();
        drop(sim);
        let stats = MixStats::of(&mix);
        check_rep(
            w,
            &r,
            &stats,
            (mix_of(rep) == 0).then_some(&mut first_result),
        )?;
        if let Some(calibration) = calibration.as_mut() {
            calibration_s.push(calibration.run());
            setup_s.push(t1 - t0);
            run_s.push(t2 - t1);
            s_per_instr.push((t2 - t1) / r.instructions as f64);
        }
        Ok(())
    });
    if setup_s.is_empty() {
        return out;
    }
    let Some(rss) = first_rss else {
        out.failed += 1;
        out.first_failure
            .get_or_insert("cannot read VmHWM from /proc/self/status".into());
        return out;
    };
    let scale = calibrate::scale(lower_half_mean(&calibration_s));
    out.metrics = vec![
        metric("run_s", "s", lower_half_mean(&run_s) * scale),
        metric(
            "sim_ips",
            "instr/s",
            1.0 / (lower_half_mean(&s_per_instr) * scale),
        ),
        metric("setup_s", "s", median(&setup_s) * scale),
        metric("peak_rss_mib", "MiB", rss),
    ];
    out.samples = vec![
        ("run CPU", run_s),
        ("setup CPU", setup_s),
        ("calibration CPU", calibration_s),
    ];
    out
}

/// One traced repetition: its result, its mix and its host timings.
struct TracedRep {
    r: RunResult,
    stats: MixStats,
    gen_s: f64,
    new_s: f64,
    run_s: f64,
    replay_s: f64,
    replay: ReplayReport,
}

/// The per-layer metrics: simulated counters from the real run, host
/// costs from spans around the real calls and from the layer replay,
/// each a median over the repetitions. Returns the outcome and the
/// recorded spans.
pub fn traced(w: &Workload, seed: u64, budget: Duration) -> (Outcome, Spans) {
    let cfg = w.config();
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let mut reps = Vec::new();
    let mut first_result = None;
    out.repeat(budget, 1, |rep| {
        let root = spans.open("rep", None, rep);
        let s = spans.open("workloads.generate", Some(root), rep);
        let mix =
            MultiApp::from_names(w.mix, &w.params(seed, mix_of(rep))).map_err(|e| e.to_string())?;
        let gen_s = spans.close(s);
        let s = spans.open("platforms.new", Some(root), rep);
        let mut sim = Simulation::new(w.platform, &cfg).map_err(|e| e.to_string())?;
        let new_s = spans.close(s);
        let s = spans.open("runner.run", Some(root), rep);
        let r = sim
            .run(&mix)
            .map_err(|e| format!("simulation failed: {e}"))?;
        let run_s = spans.close(s);
        drop(sim);
        let s = spans.open("trace.replay", Some(root), rep);
        let replay = replay(w, &cfg, &mix, &mut spans, s, rep)
            .map_err(|e| format!("check `replay` failed: {e}"))?;
        let replay_s = spans.close(s);
        spans.close(root);
        let stats = MixStats::of(&mix);
        check_rep(
            w,
            &r,
            &stats,
            (mix_of(rep) == 0).then_some(&mut first_result),
        )?;
        reps.push(TracedRep {
            r,
            stats,
            gen_s,
            new_s,
            run_s,
            replay_s,
            replay,
        });
        Ok(())
    });
    if !reps.is_empty() {
        let per_rep: Vec<Vec<Metric>> = reps.iter().map(layer_metrics).collect();
        out.metrics = per_rep[0]
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values: Vec<f64> = per_rep.iter().map(|ms| ms[i].value).collect();
                metric(m.name, m.unit, median(&values))
            })
            .collect();
        out.samples = vec![
            ("runner.run_s", reps.iter().map(|t| t.run_s).collect()),
            ("trace.replay_s", reps.iter().map(|t| t.replay_s).collect()),
        ];
    }
    (out, spans)
}

/// Every per-layer metric of one traced repetition, named after the
/// module it measures.
fn layer_metrics(t: &TracedRep) -> Vec<Metric> {
    let (r, stats) = (&t.r, &t.stats);
    let p = r.perf.clone().unwrap_or_default();
    let q = r.qos.clone().unwrap_or_default();
    let rd = r.redundancy.unwrap_or_default();
    let en = r.endurance.unwrap_or_default();
    let ck = r.checkpoint.unwrap_or_default();
    let (scan, fast) = r
        .crash_recovery
        .map_or((0, false), |c| (c.scan_cycles.raw(), c.fast_path));
    let rp = &t.replay;
    let step = |s: Step| rp.steps[s as usize];
    let count = |v: u64| v as f64;
    vec![
        metric("sim.ipc", "instr/cycle", r.ipc),
        metric("sim.cycles", "cycles", count(r.cycles.raw())),
        metric("sim.read_lat_cyc", "cycles", r.avg_read_latency),
        metric("sim.write_lat_cyc", "cycles", r.avg_write_latency),
        metric("workloads.gen_s", "s", t.gen_s),
        metric("workloads.mem_ops", "count", count(stats.mem_ops)),
        metric("workloads.sectors", "count", count(stats.sectors)),
        metric("platforms.new_s", "s", t.new_s),
        metric("runner.run_s", "s", t.run_s),
        metric("runner.events", "count", count(p.events)),
        metric("runner.events_per_s", "1/s", p.events as f64 / t.run_s),
        metric(
            "runner.blocked_frac",
            "ratio",
            p.blocked_events as f64 / p.events.max(1) as f64,
        ),
        metric(
            "runner.maintenance_events",
            "count",
            count(p.maintenance_events),
        ),
        metric(
            "runner.peak_queue_depth",
            "count",
            count(p.peak_queue_depth),
        ),
        metric("gpu.l1_hit_rate", "ratio", r.l1_hit_rate),
        metric("gpu.l2_hit_rate", "ratio", r.l2_hit_rate),
        metric("gpu.tlb_hit_rate", "ratio", r.tlb_hit_rate),
        metric("gpu.predictor_accuracy", "ratio", r.predictor_accuracy),
        metric("gpu.redirected_writes", "count", count(r.redirected_writes)),
        metric("gpu.coalesce_ns", "ns", rp.coalesce.ns_per_call()),
        metric("gpu.coalesce_calls", "count", count(rp.coalesce.calls)),
        metric("gpu.mmu_ns", "ns", rp.mmu.ns_per_call()),
        metric("gpu.mmu_calls", "count", count(rp.mmu.calls)),
        metric("gpu.l1_ns", "ns", rp.l1.ns_per_call()),
        metric("gpu.l1_calls", "count", count(rp.l1.calls)),
        metric("gpu.icnt_ns", "ns", rp.icnt.ns_per_call()),
        metric("gpu.icnt_calls", "count", count(rp.icnt.calls)),
        metric("gpu.l2_ns", "ns", rp.l2.ns_per_call()),
        metric("gpu.l2_calls", "count", count(rp.l2.calls)),
        metric("backend.read_ns", "ns", rp.reads.ns_per_call()),
        metric("backend.write_ns", "ns", rp.writes.ns_per_call()),
        metric("backend.reads", "count", count(rp.reads.calls)),
        metric("backend.writes", "count", count(rp.writes.calls)),
        metric("backend.rejections", "count", count(rp.rejections)),
        metric("backend.kind_switches", "count", count(rp.kind_switches)),
        metric("ftl.gcs", "count", count(r.gcs)),
        metric(
            "ftl.gc_merge_cyc",
            "cycles",
            count(
                r.gc_events
                    .iter()
                    .map(|&(s, e)| e.saturating_since(s).raw())
                    .sum(),
            ),
        ),
        metric("ftl.scrub_rewrites", "count", count(rd.scrub_rewrites)),
        metric("ftl.refreshed_pages", "count", count(en.refreshed_pages)),
        metric("ftl.leveled_pages", "count", count(en.leveled_pages)),
        metric("ftl.checkpoint_pages", "count", count(ck.checkpoint_pages)),
        metric("ftl.journal_records", "count", count(ck.journal_records)),
        metric("ftl.recovery_scan_cyc", "cycles", count(scan)),
        metric("ftl.recovery_fast_path", "bool", f64::from(u8::from(fast))),
        metric(
            "ftl.scrub_step_ns",
            "ns",
            step(Step::Scrub).cost.ns_per_call(),
        ),
        metric(
            "ftl.refresh_step_ns",
            "ns",
            step(Step::Refresh).cost.ns_per_call(),
        ),
        metric(
            "ftl.checkpoint_step_ns",
            "ns",
            step(Step::Checkpoint).cost.ns_per_call(),
        ),
        metric(
            "ftl.health_step_ns",
            "ns",
            step(Step::Health).cost.ns_per_call(),
        ),
        metric("ftl.crash_recover_s", "s", rp.crash_recover_s),
        metric(
            "ftl.scrub_stall_cyc",
            "cycles",
            count(step(Step::Scrub).stall_cycles),
        ),
        metric(
            "ftl.refresh_stall_cyc",
            "cycles",
            count(step(Step::Refresh).stall_cycles),
        ),
        metric(
            "ftl.checkpoint_stall_cyc",
            "cycles",
            count(step(Step::Checkpoint).stall_cycles),
        ),
        metric(
            "ftl.health_stall_cyc",
            "cycles",
            count(step(Step::Health).stall_cycles),
        ),
        metric("flash.array_gbps", "GB/s", r.flash_array_gbps),
        metric("flash.reads_per_page", "reads/page", r.flash_reads_per_page),
        metric(
            "flash.programs_per_page",
            "programs/page",
            r.flash_programs_per_page,
        ),
        metric(
            "flash.register_migrations",
            "count",
            count(r.register_migrations),
        ),
        metric("flash.read_retries", "count", count(r.read_retries)),
        metric(
            "flash.uncorrectable_reads",
            "count",
            count(r.uncorrectable_reads),
        ),
        metric("qos.rejected", "count", count(q.rejected)),
        metric("qos.retried", "count", count(q.retried)),
        metric(
            "qos.fairness_throttles",
            "count",
            count(q.fairness_throttles),
        ),
        metric("qos.max_service_lag", "requests", count(q.max_service_lag)),
        metric(
            "qos.gc_deadline_misses",
            "count",
            count(q.gc_deadline_misses),
        ),
        metric("qos.read_p50_cyc", "cycles", count(q.read_p50)),
        metric("qos.read_p99_cyc", "cycles", count(q.read_p99)),
        metric("qos.write_p50_cyc", "cycles", count(q.write_p50)),
        metric("qos.write_p99_cyc", "cycles", count(q.write_p99)),
        metric("trace.replay_s", "s", t.replay_s),
        metric("trace.replay_over_run", "ratio", t.replay_s / t.run_s),
    ]
}
