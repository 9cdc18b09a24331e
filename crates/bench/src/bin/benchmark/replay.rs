//! The layer replay: the traced invocation's per-layer host costs.
//!
//! It pushes the mix the runner just simulated through the public
//! layer APIs one stage at a time, in the runner's order: coalescer →
//! MMU → L1 → interconnect → L2 → backend. One span covers each whole
//! stage, so no per-call timer distorts the cheap calls. Each request
//! carries its cycle from stage to stage.
//!
//! The replay does not interleave stages the way the event loop does:
//! warps never wait for memory, so queues in the later stages grow
//! longer than in a real run. Per-call costs are representative;
//! per-stage totals are not.

use std::time::Instant;

use zng_gpu::{Interconnect, L2Cache, L2Technology, Mmu, Sm, WarpOp};
use zng_platforms::{Backend, SimConfig};
use zng_sim::{CrashSwitch, PatrolTicker};
use zng_types::{
    ids::{AppId, SmId},
    AccessKind, Cycle, Error, Result,
};
use zng_workloads::MultiApp;

use crate::spans::{SpanId, Spans};
use crate::workloads::Workload;

/// Calls made by one stage and the host time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub calls: u64,
    pub seconds: f64,
}

impl Cost {
    /// Mean host nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.calls as f64
        }
    }
}

/// The maintenance steps the runner takes at request-count cadences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Scrub,
    Refresh,
    Checkpoint,
    Health,
}

impl Step {
    pub const ALL: [Step; 4] = [Step::Scrub, Step::Refresh, Step::Checkpoint, Step::Health];

    fn span_name(self) -> &'static str {
        match self {
            Step::Scrub => "ftl.scrub_step",
            Step::Refresh => "ftl.refresh_step",
            Step::Checkpoint => "ftl.checkpoint_step",
            Step::Health => "ftl.health_step",
        }
    }

    fn call(self, backend: &mut Backend, now: Cycle) -> Result<Cycle> {
        match self {
            Step::Scrub => backend.scrub_step(now),
            Step::Refresh => backend.refresh_step(now),
            Step::Checkpoint => Ok(backend.checkpoint_step(now)),
            Step::Health => backend.health_step(now),
        }
    }
}

/// One maintenance step kind's calls, host time and simulated stall.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCost {
    pub cost: Cost,
    /// Sum of `horizon − now` over the calls, in cycles.
    pub stall_cycles: u64,
}

/// Everything one replay measured.
#[derive(Debug, Default)]
pub struct ReplayReport {
    pub coalesce: Cost,
    pub mmu: Cost,
    pub l1: Cost,
    pub icnt: Cost,
    pub l2: Cost,
    pub reads: Cost,
    pub writes: Cost,
    /// `Backpressure` rejections, each retried at its `retry_at`.
    pub rejections: u64,
    /// Times the backend stage started charging reads or writes anew:
    /// where the call kind changes and after each maintenance step. Each
    /// adds one clock read to the read and write times.
    pub kind_switches: u64,
    /// Indexed by [`Step`].
    pub steps: [StepCost; 4],
    pub crash_recover_s: f64,
}

/// One coalesced request on its way down the stages.
struct Req {
    sector: u64,
    /// The cycle the previous stage returned.
    t: Cycle,
    warp: u32,
    app: u16,
    write: bool,
    /// Served by L1 or L2; later stages skip it.
    served: bool,
}

/// The GPU-side components, built as `Simulation::new` builds them.
struct Gpu {
    sms: Vec<Sm>,
    mmu: Mmu,
    l2: L2Cache,
    icnt: Interconnect,
}

impl Gpu {
    fn new(w: &Workload, cfg: &SimConfig) -> Gpu {
        let mut gpu_cfg = cfg.gpu;
        let rdopt = w.platform.has_rdopt();
        if rdopt {
            gpu_cfg.l2_tech = L2Technology::SttMram;
            gpu_cfg.l2_sets_per_bank *= L2Technology::SttMram.capacity_factor();
        }
        let mut l2 = L2Cache::new(&gpu_cfg);
        l2.set_read_only(rdopt);
        Gpu {
            sms: (0..gpu_cfg.sms)
                .map(|i| Sm::new(SmId(i as u16), &gpu_cfg))
                .collect(),
            // The runner's walk latency and crossbar geometry.
            mmu: Mmu::new(gpu_cfg.tlb_entries, gpu_cfg.walker_threads, Cycle(200)),
            l2,
            icnt: Interconnect::new(gpu_cfg.l2_banks, 32.0, Cycle(20)),
        }
    }
}

/// Runs `call` on every request inside one span; returns the stage's
/// cost, counting the calls that `call` reports as made.
fn stage(
    spans: &mut Spans,
    name: &'static str,
    parent: SpanId,
    rep: u32,
    reqs: &mut [Req],
    mut call: impl FnMut(&mut Req) -> Result<bool>,
) -> Result<Cost> {
    let span = spans.open(name, Some(parent), rep);
    let mut calls = 0;
    for r in reqs.iter_mut() {
        if call(r)? {
            calls += 1;
        }
    }
    Ok(Cost {
        calls,
        seconds: spans.close(span),
    })
}

/// Replays `mix` for workload `w`; spans nest under `parent`.
pub fn replay(
    w: &Workload,
    cfg: &SimConfig,
    mix: &MultiApp,
    spans: &mut Spans,
    parent: SpanId,
    rep: u32,
) -> Result<ReplayReport> {
    let mut gpu = Gpu::new(w, cfg);
    let mut backend = Backend::new(w.platform, cfg, cfg.gpu.freq)?;
    let mut report = ReplayReport::default();

    // As in the runner, each op expands into a reused scratch buffer.
    // The request records the later stages use are built outside any
    // span.
    let span = spans.open("gpu.coalesce", Some(parent), rep);
    let mut scratch = Vec::with_capacity(32);
    for op in mix
        .apps
        .iter()
        .flat_map(|(_, _, traces)| traces)
        .flat_map(|t| t.ops())
    {
        if let WarpOp::Mem { base, pattern, .. } = *op {
            scratch.clear();
            pattern.sectors_into(base.raw(), &mut scratch);
            report.coalesce.calls += 1;
        }
    }
    report.coalesce.seconds = spans.close(span);

    let mut reqs = requests(mix);
    let sms = gpu.sms.len() as u32;
    report.mmu = stage(spans, "gpu.mmu", parent, rep, &mut reqs, |r| {
        r.t = gpu.mmu.translate(r.t, r.sector >> 12)?;
        Ok(true)
    })?;
    report.l1 = stage(spans, "gpu.l1", parent, rep, &mut reqs, |r| {
        let sm = &mut gpu.sms[(r.warp % sms) as usize];
        let (hit, t) = sm.l1_access(r.t, r.sector, r.write);
        r.t = t;
        if r.write {
            sm.l1_invalidate(r.sector);
        } else if hit {
            r.served = true;
        } else {
            sm.l1_fill(r.sector, AppId(r.app));
        }
        Ok(true)
    })?;
    report.icnt = stage(spans, "gpu.icnt", parent, rep, &mut reqs, |r| {
        if r.served {
            return Ok(false);
        }
        r.t = gpu.icnt.transfer(r.t, gpu.l2.bank_of(r.sector), 128);
        Ok(true)
    })?;
    report.l2 = stage(spans, "gpu.l2", parent, rep, &mut reqs, |r| {
        if r.served {
            return Ok(false);
        }
        if r.write {
            gpu.l2.invalidate(r.sector);
        } else {
            let acc = gpu.l2.access(r.t, r.sector, false);
            r.t = acc.done;
            if acc.hit {
                r.served = true;
            } else {
                gpu.l2.fill_line(acc.done, r.sector, false, AppId(r.app));
            }
        }
        Ok(true)
    })?;
    backend_stage(w, cfg, &mut backend, &reqs, spans, parent, rep, &mut report)?;
    Ok(report)
}

/// The mix's requests in issue order: each warp issues its ops
/// back to back with no memory stalls, and requests sort by that issue
/// cycle (warp order breaks ties, as in the event queue).
fn requests(mix: &MultiApp) -> Vec<Req> {
    let mut reqs = Vec::new();
    let mut scratch = Vec::with_capacity(32);
    let mut warp = 0u32;
    for (_, app, traces) in &mix.apps {
        for trace in traces {
            let mut clock = 0u64;
            for op in trace.ops() {
                match *op {
                    WarpOp::Compute(n) => clock += u64::from(n),
                    WarpOp::Mem {
                        base,
                        kind,
                        pattern,
                        ..
                    } => {
                        scratch.clear();
                        pattern.sectors_into(base.raw(), &mut scratch);
                        reqs.extend(scratch.iter().map(|&sector| Req {
                            sector,
                            t: Cycle(clock),
                            warp,
                            app: app.raw(),
                            write: kind == AccessKind::Write,
                            served: false,
                        }));
                        clock += 1;
                    }
                }
            }
            warp += 1;
        }
    }
    reqs.sort_by_key(|r| r.t);
    reqs
}

/// The backend stage, with the runner's maintenance cadences keyed to
/// completed requests. As in the runner, a step (or crash recovery)
/// holds every later request until its horizon. Reads and writes share
/// the stage's span; their host time is split by timestamps taken only
/// where the call kind changes, and the maintenance steps are timed per
/// call.
#[allow(clippy::too_many_arguments)]
fn backend_stage(
    w: &Workload,
    cfg: &SimConfig,
    backend: &mut Backend,
    reqs: &[Req],
    spans: &mut Spans,
    parent: SpanId,
    rep: u32,
    report: &mut ReplayReport,
) -> Result<()> {
    let span = spans.open("backend.access", Some(parent), rep);
    let mut crash = w
        .crash_at
        .map_or_else(CrashSwitch::disarmed, CrashSwitch::at_ops);
    let cadence = |on: bool, every: u64| PatrolTicker::every_ops(if on { every } else { 0 });
    let mut tickers = [
        cadence(cfg.redundancy.enabled, cfg.redundancy.scrub_every_ops),
        cadence(cfg.endurance.enabled, cfg.endurance.refresh_every_ops),
        cadence(cfg.checkpoint.enabled, cfg.checkpoint.every_ops),
        cadence(cfg.health.enabled, cfg.health.every_ops),
    ];

    let mut split = Split {
        kind: None,
        mark: Instant::now(),
    };
    let mut hold = Cycle::ZERO;
    for (done, r) in reqs.iter().enumerate() {
        let done = done as u64;
        let now = r.t.max(hold);
        if crash.poll(done) {
            split.switch(report, None);
            let s = spans.open("ftl.crash_recover", Some(span), rep);
            let scan = backend
                .crash_recover(now)?
                .map_or(Cycle::ZERO, |rr| rr.scan_cycles);
            report.crash_recover_s += spans.close(s);
            hold = hold.max(now + scan);
            split.switch(report, None);
        }
        for step in Step::ALL {
            if tickers[step as usize].poll(done) {
                split.switch(report, None);
                let s = spans.open(step.span_name(), Some(span), rep);
                let horizon = step.call(backend, now)?;
                let c = &mut report.steps[step as usize];
                c.cost.seconds += spans.close(s);
                c.cost.calls += 1;
                c.stall_cycles += horizon.saturating_since(now).raw();
                hold = hold.max(horizon);
                split.switch(report, None);
            }
        }
        if r.served {
            continue;
        }
        if split.kind != Some(r.write) {
            split.switch(report, Some(r.write));
            report.kind_switches += 1;
        }
        let vpn = r.sector >> 12;
        let mut t = r.t.max(hold);
        loop {
            let outcome = if r.write {
                backend.write(t, r.sector, vpn).map(|_| ())
            } else {
                backend.read(t, r.sector, vpn, 128).map(|_| ())
            };
            match outcome {
                Err(Error::Backpressure { retry_at }) => {
                    report.rejections += 1;
                    t = retry_at;
                }
                // An end-of-life device refuses the program; the runner
                // counts it and moves on.
                Ok(()) | Err(Error::CapacityDegraded { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        if r.write {
            report.writes.calls += 1;
        } else {
            report.reads.calls += 1;
        }
    }
    split.switch(report, None);
    spans.close(span);
    Ok(())
}

/// Splits the backend stage's host time between reads and writes.
struct Split {
    /// The call kind being charged (`Some(true)` for writes).
    kind: Option<bool>,
    mark: Instant,
}

impl Split {
    /// Charges the time since the last switch to the open kind, then
    /// opens `next`.
    fn switch(&mut self, report: &mut ReplayReport, next: Option<bool>) {
        let now = Instant::now();
        let secs = now.duration_since(self.mark).as_secs_f64();
        match self.kind {
            Some(true) => report.writes.seconds += secs,
            Some(false) => report.reads.seconds += secs,
            None => {}
        }
        self.kind = next;
        self.mark = now;
    }
}
