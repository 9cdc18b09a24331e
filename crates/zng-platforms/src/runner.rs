//! The event-driven simulation runner.
//!
//! Warps are trace-driven: compute segments occupy their SM's issue port;
//! memory ops expand through the coalescer and block the warp until every
//! 128 B request completes. The memory path is
//! TLB/MMU → L1D (+MSHR) → interconnect → shared L2 → platform backend,
//! with the ZnG read path adding the PC predictor / access monitor and
//! the write path adding register buffering, thrashing redirection and
//! helper-thread GC blocking (paper Figs. 10–17).

use std::collections::BTreeMap;
use std::time::Instant;

use fxhash::FxHashMap;
use zng_ftl::{GcReport, WriteResult};
use zng_gpu::{
    AccessMonitor, GpuConfig, Interconnect, L2Cache, L2Technology, Mmu, Mshr, Predictor,
    PrefetchPolicy, Sm, Warp, WarpOp,
};
use zng_sim::{CrashSwitch, PatrolTicker, Percentiles, TimeSeries};
use zng_types::{
    ids::{AppId, Pc, SmId, WarpId},
    AccessKind, Cycle, Error, Result,
};
use zng_workloads::{generator::app_of, MultiApp};

use crate::backend::Backend;
use crate::config::{PlatformKind, SimConfig};
use crate::lane::WarpQueue;
use crate::metrics::{
    CheckpointSummary, CrashRecoverySummary, DieBreakdown, EnduranceSummary, HealthSummary,
    IntegritySummary, PerfSummary, QosSummary, RedundancySummary, RunResult,
};
use crate::qos::FairShare;

/// Time-series bucket width for Fig. 17b (10 µs at 1.2 GHz).
const SERIES_INTERVAL: Cycle = Cycle(12_000);
/// In redirection mode, 1 in `REDIRECT_PROBE` writes bypasses the pinned
/// L2 and probes the registers so the thrashing verdict can clear.
const REDIRECT_PROBE: u64 = 8;
/// "A few L2 cache space" (paper §III-C): at most this many lines may be
/// pinned for redirected dirty data.
const REDIRECT_CAP: usize = 4096;
/// Redirected lines drained back to the registers per drain opportunity.
const DRAIN_CHUNK: usize = 256;

/// A device-wide maintenance step the runner polls between requests,
/// listed in poll order: a crash comes first, so no step runs on state
/// the power cut is about to lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    /// Power cut and recovery (`crash_at`).
    Crash,
    /// Die failure and fencing (`die_fail_at`).
    DieFailure,
    /// One patrol-scrub step.
    Scrub,
    /// One refresh-scheduler step.
    Refresh,
    /// One background checkpoint write.
    Checkpoint,
    /// One predictive-health tick.
    Health,
}

/// When a [`Task`] fires, keyed to completed requests.
#[derive(Debug)]
enum Trigger {
    /// Once, at a request count.
    Once(CrashSwitch),
    /// Every `n` requests.
    Every(PatrolTicker),
}

impl Trigger {
    fn poll(&mut self, requests: u64) -> bool {
        match self {
            Trigger::Once(s) => s.poll(requests),
            Trigger::Every(t) => t.poll(requests),
        }
    }

    fn ticks(&self) -> u64 {
        match self {
            Trigger::Once(s) => u64::from(s.fired()),
            Trigger::Every(t) => t.ticks(),
        }
    }
}

/// A hold on one app's memory requests.
#[derive(Debug, Default)]
struct Hold {
    /// The app's memory requests wait until this cycle.
    until: Cycle,
    /// Foreground stalls left before a paced GC releases the app early
    /// (`None`: the hold always runs in full).
    credit: Option<u64>,
}

/// One 128 B request of a warp's memory op.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// The issuing warp's SM.
    sm: usize,
    sector: u64,
    vpn: u64,
    kind: AccessKind,
    app: AppId,
    /// The memory op's program counter (the prefetch predictor's key).
    pc: Pc,
    warp: WarpId,
}

/// What one [`Simulation::run`] keeps between events.
#[derive(Debug)]
struct RunState<'m> {
    mix: &'m MultiApp,
    /// The mix's warps, each borrowing its trace from `mix`.
    warps: Vec<Warp<'m>>,
    /// The event queue, with the fairness gate's retry lane beside it.
    queue: WarpQueue,
    /// The fairness gate, built only when a fairness window is configured
    /// (`None` keeps the event loop bit-identical to the pre-QoS runner).
    fair: Option<FairShare>,
    /// Each serviced request is tallied once, as a latency `(sum, n)`
    /// per app and access kind; the result's latency means and per-app
    /// request counts all derive from it. Indexed by app id.
    tally: Vec<[(u64, u64); 2]>,
    /// The Fig. 17b request series, indexed by app id; apps of the mix
    /// have one, and only they issue requests.
    series: Vec<Option<TimeSeries>>,
    /// Exact latency percentiles by access kind: they store every sample,
    /// so they are kept only when a bounded QoS policy reports them.
    pct: [Option<Percentiles>; 2],
    /// Requests serviced so far.
    requests: u64,
    /// The latest op completion: the run's cycle count.
    last_cycle: Cycle,
    /// Watchdog mark: the newest request completion. Completions are
    /// recorded ahead of event pop time, so a healthy run never trips; a
    /// run that stops retiring requests while the clock runs on aborts.
    last_progress: Cycle,
    /// Poll mark: the request count at the last maintenance poll.
    polled: u64,
    /// The power cut and its recovery, once `crash_at` fired.
    crash: Option<CrashRecoverySummary>,
    /// The event counters; `wall_seconds` and `events_per_sec` are filled
    /// in when the run ends, and only when telemetry was requested.
    perf: PerfSummary,
    wall_start: Instant,
    /// Scratch for the coalescer's output: a warp op touches at most 32
    /// sectors.
    sectors: Vec<u64>,
}

impl<'m> RunState<'m> {
    /// The state before the first event: every warp queued at cycle 0.
    fn new(mix: &'m MultiApp, warps: Vec<Warp<'m>>, cfg: &SimConfig, retry_lane: bool) -> Self {
        let fair = (cfg.qos.fair_window > 0).then(|| {
            let mut warps_per_app: BTreeMap<u16, u64> = BTreeMap::new();
            for w in &warps {
                *warps_per_app.entry(w.app().raw()).or_insert(0) += 1;
            }
            FairShare::new(&warps_per_app)
        });
        // The gate's throttle retries get their own phase-slot lane.
        let mut queue = WarpQueue::new(
            warps.iter().map(|w| w.app().raw()).collect(),
            cfg.qos.backoff_base,
            retry_lane && fair.is_some(),
        );
        for i in 0..warps.len() {
            queue.schedule(Cycle::ZERO, Cycle::ZERO, i);
        }
        let app_slots = mix
            .apps
            .iter()
            .map(|(_, app, _)| app.index() + 1)
            .max()
            .unwrap_or(0);
        let mut series = vec![None; app_slots];
        for (_, app, _) in &mix.apps {
            series[app.index()] = Some(TimeSeries::new(SERIES_INTERVAL));
        }
        RunState {
            mix,
            queue,
            fair,
            tally: vec![[(0, 0); 2]; app_slots],
            series,
            pct: std::array::from_fn(|_| (!cfg.qos.is_unbounded()).then(Percentiles::new)),
            requests: 0,
            last_cycle: Cycle::ZERO,
            last_progress: Cycle::ZERO,
            // No poll has run: the first one always does.
            polled: u64::MAX,
            crash: None,
            perf: PerfSummary::default(),
            wall_start: Instant::now(),
            sectors: Vec::with_capacity(32),
            warps,
        }
    }

    /// The mean latency of `kind` over every app.
    fn mean(&self, kind: AccessKind) -> f64 {
        let (sum, n) = self
            .tally
            .iter()
            .map(|t| t[kind as usize])
            .fold((0, 0), |(s, n), (ds, dn)| (s + ds, n + dn));
        sum as f64 / n.max(1) as f64
    }

    /// The mean latency of `kind` per app with at least one sample.
    fn per_app_mean(&self, kind: AccessKind) -> BTreeMap<u16, f64> {
        (0u16..)
            .zip(&self.tally)
            .map(|(a, t)| (a, t[kind as usize]))
            .filter(|&(_, (_, n))| n > 0)
            .map(|(a, (sum, n))| (a, sum as f64 / n as f64))
            .collect()
    }

    /// The `q` quantile of `kind`'s latencies (0 when they are not kept).
    fn percentile(&mut self, kind: AccessKind, q: f64) -> u64 {
        self.pct[kind as usize]
            .as_mut()
            .map_or(0, |p| p.percentile(q))
    }

    /// Records a request of `app` issued at `issued` and done at `done`.
    fn complete(&mut self, app: AppId, kind: AccessKind, issued: Cycle, done: Cycle) {
        let lat = done.saturating_since(issued).raw();
        let e = &mut self.tally[app.index()][kind as usize];
        e.0 += lat;
        e.1 += 1;
        if let Some(p) = self.pct[kind as usize].as_mut() {
            p.record(lat);
        }
        if let Some(f) = self.fair.as_mut() {
            f.record(app.raw());
        }
        self.requests += 1;
        self.last_progress = self.last_progress.max(done);
        if let Some(s) = self.series[app.index()].as_mut() {
            s.record(issued, 1);
        }
    }
}

/// One platform instance ready to run workloads.
#[derive(Debug)]
pub struct Simulation {
    kind: PlatformKind,
    /// The configuration the platform was built from.
    cfg: SimConfig,
    sms: Vec<Sm>,
    mmu: Mmu,
    l2: L2Cache,
    icnt: Interconnect,
    backend: Backend,
    predictor: Predictor,
    monitor: AccessMonitor,
    page_mshr: Mshr,
    /// Per-app holds on memory requests (GC of the app's blocks, or
    /// device-wide maintenance), keyed by app id.
    holds: FxHashMap<u16, Hold>,
    redirected_writes: u64,
    write_probe: u64,
    thrash_mode: bool,
    /// The configured maintenance steps, in poll order, each with its
    /// trigger.
    tasks: Vec<(Task, Trigger)>,
    /// The QoS fields the runner counts itself; the rest are read when
    /// the run ends, as are those of the next two.
    qos: QosSummary,
    integrity: IntegritySummary,
    endurance: EnduranceSummary,
    /// Queue the fairness gate's throttle retries in the phase-slot lane
    /// (always on; tests turn it off to compare against the plain event
    /// queue).
    retry_lane: bool,
    /// Whether [`Simulation::run`] was called: a simulation runs once.
    ran: bool,
}

impl Simulation {
    /// Builds a platform simulation.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(kind: PlatformKind, cfg: &SimConfig) -> Result<Simulation> {
        cfg.validate()?;
        // rdopt platforms swap the L2 for the 4x STT-MRAM, read-only.
        let mut gpu_cfg: GpuConfig = cfg.gpu;
        if kind.has_rdopt() {
            gpu_cfg.l2_tech = L2Technology::SttMram;
            gpu_cfg.l2_sets_per_bank *= L2Technology::SttMram.capacity_factor();
        }
        let mut l2 = L2Cache::new(&gpu_cfg);
        if kind.has_rdopt() {
            l2.set_read_only(true);
        }
        let (hi, lo) = cfg.monitor_thresholds;
        let mut backend = Backend::new(kind, cfg, cfg.gpu.freq)?;
        if let Some(ch) = cfg.redundancy.link_fail {
            // A severed link is a boot-time condition: every transfer on
            // that channel detours for the whole run.
            backend.fail_link(ch);
        }
        // Only configured steps join the list: validation rejects a
        // cadence whose subsystem is off.
        let once =
            |task, at: Option<u64>| at.map(|n| (task, Trigger::Once(CrashSwitch::at_ops(n))));
        let every =
            |task, n: u64| (n > 0).then(|| (task, Trigger::Every(PatrolTicker::every_ops(n))));
        let tasks = [
            once(Task::Crash, cfg.crash_at),
            once(Task::DieFailure, cfg.redundancy.die_fail_at),
            every(Task::Scrub, cfg.redundancy.scrub_every_ops),
            every(Task::Refresh, cfg.endurance.refresh_every_ops),
            every(Task::Checkpoint, cfg.checkpoint.every_ops),
            every(Task::Health, cfg.health.every_ops),
        ]
        .into_iter()
        .flatten()
        .collect();
        Ok(Simulation {
            kind,
            cfg: *cfg,
            sms: (0..gpu_cfg.sms)
                .map(|i| Sm::new(SmId(i as u16), &gpu_cfg))
                .collect(),
            mmu: Mmu::new(gpu_cfg.tlb_entries, gpu_cfg.walker_threads, Cycle(200)),
            l2,
            icnt: Interconnect::new(gpu_cfg.l2_banks, 32.0, Cycle(20)),
            backend,
            predictor: Predictor::new(),
            monitor: AccessMonitor::new(hi, lo),
            page_mshr: Mshr::new(256),
            holds: FxHashMap::default(),
            redirected_writes: 0,
            write_probe: 0,
            thrash_mode: false,
            tasks,
            qos: QosSummary::default(),
            integrity: IntegritySummary::default(),
            endurance: EnduranceSummary::default(),
            retry_lane: true,
            ran: false,
        })
    }

    /// Runs `mix` to completion and returns the metrics.
    ///
    /// # Errors
    ///
    /// Propagates backend/FTL errors (e.g. flash out of space), and
    /// returns [`Error::AlreadyRan`] if this simulation ran before.
    pub fn run(&mut self, mix: &MultiApp) -> Result<RunResult> {
        if std::mem::replace(&mut self.ran, true) {
            return Err(Error::AlreadyRan);
        }
        let mut warps: Vec<Warp> = Vec::new();
        for (_, app, traces) in &mix.apps {
            for trace in traces {
                let id = WarpId(warps.len() as u32);
                warps.push(Warp::new(id, *app, trace));
            }
        }
        let mut state = RunState::new(mix, warps, &self.cfg, self.retry_lane);
        let mut batch = Vec::with_capacity(state.warps.len());
        while let Some(now) = state.queue.next_time() {
            state.perf.peak_queue_depth = state.perf.peak_queue_depth.max(state.queue.len() as u64);
            if self.skip_closed_retries(&mut state, now)? {
                continue;
            }
            // Same-cycle batch drain: pull every event sharing the front
            // timestamp with one `pop_round` into a reusable scratch
            // buffer instead of round-tripping the queue per event.
            // Events scheduled mid-batch at the same cycle come after
            // everything already drained, so the next `pop_round` picks
            // them up in exactly the one-at-a-time total order.
            batch.clear();
            state.queue.pop_round(now, &mut batch);
            for &idx in &batch {
                self.step(&mut state, now, idx)?;
            }
        }

        // Post-failure rebuild: with the foreground traffic drained, the
        // helper threads re-create every page stranded on dead dies onto
        // healthy spare blocks (maintenance time, not charged to the
        // run's cycle count).
        if self.ticks(Task::DieFailure) > 0 {
            self.backend.rebuild_dead_die(state.last_cycle)?;
        }
        Ok(self.summarize(state))
    }

    /// Bulk skip: a round of nothing but throttle retries whose gates are
    /// all still closed would only re-queue each warp where it was and
    /// count one event, one blocked event and one throttle apiece.
    /// Nothing those rounds read can change while they are passed over:
    /// no request completes, so no poll fires and no gate opens, and no
    /// app with retries is held (a hold only ends, and its warps wait in
    /// the main queue). Returns whether rounds were skipped.
    fn skip_closed_retries(&mut self, state: &mut RunState, now: Cycle) -> Result<bool> {
        if !state.queue.only_retries_at(now) {
            return Ok(false);
        }
        // The round's first event would check the watchdog and poll
        // maintenance before anything else; do both now, so the skip
        // sees the state that event would.
        self.poll(state, now)?;
        let Some(f) = state.fair.as_mut() else {
            return Ok(false);
        };
        let (holds, qos) = (&self.holds, &self.cfg.qos);
        if !state.queue.all_retry_apps(|app| {
            holds.get(&app).is_none_or(|h| h.until <= now)
                && f.still_closed(app, qos, qos.fair_window)
        }) {
            return Ok(false);
        }
        // The watchdog trips on the first cycle more than its budget past
        // the last progress.
        let progress = state.last_progress.raw();
        let horizon = self.cfg.watchdog.map_or(Cycle(u64::MAX), |b| {
            Cycle(progress.saturating_add(b).saturating_add(1))
        });
        let skipped = state.queue.skip_retries(horizon);
        state.perf.events += skipped;
        state.perf.blocked_events += skipped;
        f.add_throttles(skipped);
        Ok(skipped > 0)
    }

    /// One event: warp `idx` wakes at `now`. After the watchdog check and
    /// the maintenance poll, a memory op of a held or throttled app is
    /// deferred; any other op issues, and the warp wakes again when it
    /// completes.
    fn step(&mut self, state: &mut RunState, now: Cycle, idx: usize) -> Result<()> {
        state.perf.events += 1;
        self.poll(state, now)?;
        let warp = &state.warps[idx];
        let Some(op) = warp.current_op() else {
            state.perf.skipped_events += 1;
            return Ok(());
        };
        let app = warp.app();
        let is_mem = matches!(op, WarpOp::Mem { .. });
        // During a GC of this app's blocks the MMU holds its memory
        // requests (paper SV-D): the warp re-tries once the helper thread
        // finishes. Blocking at the event level (rather than deferring
        // the request to a future timestamp) keeps shared resources
        // causally reserved.
        if let Some(hold) = self.holds.get_mut(&app.raw()) {
            if hold.until > now && is_mem {
                // GC pacing credit: every stalled foreground event burns
                // one of the merge's credits; when they run out the
                // victim is released early rather than waiting for the
                // whole merge (a hold without credit always waits in
                // full).
                if hold.credit == Some(0) {
                    self.holds.remove(&app.raw());
                    self.qos.gc_credit_exhausted += 1;
                } else {
                    if let Some(credit) = hold.credit.as_mut() {
                        *credit -= 1;
                    }
                    state.perf.blocked_events += 1;
                    state.queue.schedule(now, hold.until, idx);
                    return Ok(());
                }
            }
        }
        // Fair-share gate: a memory op from an app that has run more than
        // a window ahead of the furthest-behind active app is deferred
        // one backoff quantum, bounding any app's service lag
        // (starvation freedom).
        if let Some(f) = state.fair.as_mut() {
            if is_mem && f.should_throttle(app.raw(), &self.cfg.qos, self.cfg.qos.fair_window) {
                state.perf.blocked_events += 1;
                state.queue.retry(now, idx);
                return Ok(());
            }
        }
        let sm = idx % self.sms.len();
        let done = match op {
            WarpOp::Compute(n) => {
                state.perf.compute_events += 1;
                self.sms[sm].issue(now, n)
            }
            WarpOp::Mem {
                base,
                kind,
                pattern,
                pc,
            } => {
                state.perf.mem_events += 1;
                let issued = self.sms[sm].issue(now, 1);
                let id = warp.id();
                let mut sectors = std::mem::take(&mut state.sectors);
                sectors.clear();
                pattern.sectors_into(base.raw(), &mut sectors);
                // Start loading every sector's L2 set now: the misses
                // overlap the MMU, L1 and MSHR work that comes first.
                for &sector in &sectors {
                    self.l2.prefetch(sector);
                }
                let mut done = issued;
                for &sector in &sectors {
                    let req = Request {
                        sm,
                        sector,
                        vpn: sector >> 12,
                        kind,
                        app,
                        pc,
                        warp: id,
                    };
                    let t = self.service(issued, req)?;
                    state.complete(app, kind, issued, t);
                    done = done.max(t);
                }
                state.sectors = sectors;
                done
            }
        };
        let warp = &mut state.warps[idx];
        warp.retire_op();
        if warp.is_done() {
            if let Some(f) = state.fair.as_mut() {
                f.warp_done(app.raw());
            }
        }
        warp.ready_at = done;
        state.last_cycle = state.last_cycle.max(done);
        state.queue.schedule(now, done, idx);
        Ok(())
    }

    /// Assembles the finished run's result from its state and the
    /// platform's counters.
    fn summarize(&self, mut state: RunState) -> RunResult {
        let instructions: u64 = state.warps.iter().map(|w| w.instructions_done()).sum();
        let mut per_app_instructions: BTreeMap<u16, u64> = BTreeMap::new();
        let mut per_app_cycles: BTreeMap<u16, Cycle> = BTreeMap::new();
        for w in &state.warps {
            *per_app_instructions.entry(w.app().raw()).or_insert(0) += w.instructions_done();
            let c = per_app_cycles.entry(w.app().raw()).or_insert(Cycle::ZERO);
            *c = (*c).max(w.ready_at);
        }
        let cycles = state.last_cycle.max(Cycle(1));

        // Every flash counter is read through the backend's flash view;
        // platforms without flash report zeros (and enabled subsystems
        // still report their tick counts).
        let (ftl, device) = self.backend.flash().unzip();
        let stats = device.map(|d| d.stats());
        let zng = self.backend.zng_ftl();

        let qos = (!self.cfg.qos.is_unbounded()).then(|| QosSummary {
            rejected: self.backend.qos_rejections(),
            mshr_stalls: self.sms.iter().map(|s| s.mshr().full_stalls()).sum::<u64>()
                + self.page_mshr.full_stalls(),
            gc_deadline_misses: zng.map_or(0, |f| f.gc_deadline_misses()),
            paced_gcs: zng.map_or(0, |f| f.paced_gcs()),
            fairness_throttles: state.fair.as_ref().map_or(0, FairShare::throttles),
            max_service_lag: state.fair.as_ref().map_or(0, FairShare::max_lag),
            max_queue_occupancy: self.backend.qos_max_occupancy(),
            read_p50: state.percentile(AccessKind::Read, 0.50),
            read_p95: state.percentile(AccessKind::Read, 0.95),
            read_p99: state.percentile(AccessKind::Read, 0.99),
            write_p50: state.percentile(AccessKind::Write, 0.50),
            write_p95: state.percentile(AccessKind::Write, 0.95),
            write_p99: state.percentile(AccessKind::Write, 0.99),
            ..self.qos.clone()
        });
        RunResult {
            platform: self.kind,
            workload: state.mix.name.clone(),
            cycles,
            instructions,
            requests: state.requests,
            ipc: instructions as f64 / cycles.raw() as f64,
            flash_array_gbps: stats.map_or(0.0, |s| s.array_gbps(cycles, self.cfg.gpu.freq)),
            flash_reads_per_page: stats.map_or(0.0, |s| s.mean_reads_per_page()),
            flash_programs_per_page: stats.map_or(0.0, |s| s.mean_programs_per_page()),
            l1_hit_rate: self.sms.iter().map(|s| s.l1_hit_rate()).sum::<f64>()
                / self.sms.len() as f64,
            l2_hit_rate: self.l2.hit_rate(),
            tlb_hit_rate: self.mmu.tlb().hit_rate(),
            predictor_accuracy: self.predictor.accuracy(),
            gcs: ftl.map_or(0, |f| f.gcs()),
            register_migrations: device.map_or(0, |d| d.total_migrations()),
            redirected_writes: self.redirected_writes,
            avg_read_latency: state.mean(AccessKind::Read),
            avg_write_latency: state.mean(AccessKind::Write),
            per_app_read_latency: state.per_app_mean(AccessKind::Read),
            per_app_write_latency: state.per_app_mean(AccessKind::Write),
            per_app_instructions,
            per_app_cycles,
            // Apps of the mix (those with a series), reads plus writes.
            per_app_requests: (0u16..)
                .zip(&state.series)
                .zip(&state.tally)
                .filter(|((_, s), _)| s.is_some())
                .map(|((a, _), t)| (a, t[0].1 + t[1].1))
                .collect(),
            per_app_series: (0u16..)
                .zip(state.series)
                .filter_map(|(a, s)| s.map(|s| (a, s)))
                .collect(),
            series_interval: SERIES_INTERVAL,
            gc_events: zng.map(|f| f.gc_events().to_vec()).unwrap_or_default(),
            read_retries: stats.map_or(0, |s| s.read_retries()),
            uncorrectable_reads: stats.map_or(0, |s| s.uncorrectable_reads()),
            program_failures: stats.map_or(0, |s| s.program_failures()),
            erase_failures: stats.map_or(0, |s| s.erase_failures()),
            blocks_retired: ftl.map_or(0, |f| f.blocks_retired()),
            write_redrives: ftl.map_or(0, |f| f.write_redrives()),
            crash_recovery: state.crash,
            qos,
            redundancy: self.cfg.redundancy.enabled.then(|| {
                let c = ftl
                    .and_then(|f| f.redundancy())
                    .map(|r| r.counters())
                    .unwrap_or_default();
                RedundancySummary {
                    reconstructions: c.reconstructions,
                    reconstruction_reads: c.reconstruction_reads,
                    parity_pages: c.parity_pages,
                    scrub_scanned: c.scrub_scanned,
                    scrub_rewrites: c.scrub_rewrites,
                    scrub_overruns: c.scrub_overruns,
                    scrub_ticks: self.ticks(Task::Scrub),
                    rebuild_pages: c.rebuild_pages,
                    degraded_reads: c.degraded_reads,
                    fenced_blocks: c.fenced_blocks,
                    dead_die_reads: device.map_or(0, |d| d.dead_die_reads()),
                    rerouted_transfers: device.map_or(0, |d| d.network().rerouted()),
                    retry_depth_histogram: stats
                        .map(|s| s.retry_depth_histogram())
                        .unwrap_or_default(),
                }
            }),
            integrity: self.cfg.integrity.enabled.then(|| {
                let c = ftl
                    .filter(|f| f.integrity_enabled())
                    .map(|f| f.integrity_counters())
                    .unwrap_or_default();
                IntegritySummary {
                    silent_corruptions: stats.map_or(0, |s| s.silent_corruptions()),
                    detected: c.detected,
                    rereads: c.rereads,
                    reconstructed: c.reconstructed,
                    quarantined: c.quarantined,
                    ..self.integrity
                }
            }),
            endurance: self.cfg.endurance.enabled.then(|| {
                let c = ftl.and_then(|f| f.endurance_counters()).unwrap_or_default();
                let rep = device.map(|d| d.endurance());
                EnduranceSummary {
                    refresh_ticks: self.ticks(Task::Refresh),
                    refreshes: c.refreshes,
                    disturb_refreshes: c.disturb_refreshes,
                    retention_refreshes: c.retention_refreshes,
                    refreshed_pages: c.refreshed_pages,
                    level_migrations: c.level_migrations,
                    leveled_pages: c.leveled_pages,
                    refresh_overruns: c.refresh_overruns,
                    capacity_steps: c.capacity_steps,
                    disturb_reads: stats.map_or(0, |s| s.disturb_reads()),
                    disturb_triggered_errors: stats.map_or(0, |s| s.disturb_triggered_errors()),
                    wear_max: rep.map(|r| r.worst_wear_fraction()).unwrap_or(0.0),
                    wear_mean: rep.map(|r| r.mean_wear_fraction()).unwrap_or(0.0),
                    wear_min: rep.map(|r| r.min_wear_fraction()).unwrap_or(0.0),
                    wear_spread: rep.map(|r| r.wear_spread()).unwrap_or(1.0),
                    ..self.endurance
                }
            }),
            checkpoint: self.cfg.checkpoint.enabled.then(|| {
                let c = ftl
                    .and_then(|f| f.checkpoint_counters())
                    .unwrap_or_default();
                CheckpointSummary {
                    checkpoint_ticks: self.ticks(Task::Checkpoint),
                    checkpoints: c.checkpoints,
                    checkpoint_pages: c.checkpoint_pages,
                    journal_records: c.journal_records,
                    journal_pages: c.journal_pages,
                    overruns: c.overruns,
                    journal_overflows: c.journal_overflows,
                    aborted: c.aborted,
                }
            }),
            health: self.cfg.health.enabled.then(|| {
                let c = ftl.and_then(|f| f.health_counters()).unwrap_or_default();
                let per_die = stats
                    .map(|s| {
                        s.die_health_sorted()
                            .iter()
                            .map(|&((channel, die), h)| DieBreakdown {
                                channel,
                                die,
                                reads: h.reads,
                                retry_steps: h.retry_steps,
                                uncorrectable_reads: h.uncorrectable_reads,
                                programs: h.programs,
                                program_failures: h.program_failures,
                                erases: h.erases,
                                erase_failures: h.erase_failures,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                HealthSummary {
                    health_ticks: self.ticks(Task::Health),
                    suspects_flagged: c.suspects_flagged,
                    pages_evacuated: c.pages_evacuated,
                    evacuations_completed: c.evacuations_completed,
                    rehabilitations: c.rehabilitations,
                    evacuation_overruns: c.evacuation_overruns,
                    dead_dies_fenced: c.dead_dies_fenced,
                    quarantined: ftl.map(|f| f.quarantined_dies()).unwrap_or_default(),
                    per_die,
                }
            }),
            perf: self.cfg.perf.then(|| {
                let wall = state.wall_start.elapsed().as_secs_f64();
                PerfSummary {
                    wall_seconds: wall,
                    events_per_sec: state.perf.events as f64 / wall.max(1e-9),
                    ..state.perf
                }
            }),
        }
    }

    /// How often `task` has fired (0 when it is not configured).
    fn ticks(&self, task: Task) -> u64 {
        self.tasks
            .iter()
            .find(|(t, _)| *t == task)
            .map_or(0, |(_, trigger)| trigger.ticks())
    }

    /// The step each event takes first (and a bulk skip in its place):
    /// the watchdog check, then the maintenance poll. The poll runs each
    /// task that fires, in order, counting it as a maintenance event.
    /// Every step is device-wide, so all apps are held until the step
    /// lets the foreground resume. Triggers fire only when the request
    /// count crosses a threshold, so the poll is skipped while the count
    /// equals the one at the last poll.
    fn poll(&mut self, state: &mut RunState, now: Cycle) -> Result<()> {
        Self::watchdog_check(self.cfg.watchdog, now, state.last_progress)?;
        if state.requests == state.polled {
            return Ok(());
        }
        state.polled = state.requests;
        for i in 0..self.tasks.len() {
            let (task, trigger) = &mut self.tasks[i];
            if trigger.poll(state.requests) {
                let task = *task;
                state.perf.maintenance_events += 1;
                let resume = self.run_task(task, now, state)?;
                for (_, app, _) in &state.mix.apps {
                    self.hold(*app, resume, None);
                }
            }
        }
        Ok(())
    }

    /// Runs one maintenance step of `state`'s run at `now`; returns when
    /// the foreground may resume. The background
    /// steps' media work always completes, but their stall is capped by
    /// the pacing contract when one is set.
    fn run_task(&mut self, task: Task, now: Cycle, state: &mut RunState) -> Result<Cycle> {
        match task {
            // Power cut: the storage side loses its volatile state and
            // recovers from the OOB scan; the GPU side reboots with cold
            // caches. Apps are held until the recovery scan finishes.
            Task::Crash => {
                let report = self.backend.crash_recover(now)?;
                self.power_cut_gpu();
                let r = report.unwrap_or_default();
                state.crash = Some(CrashRecoverySummary {
                    at_requests: state.requests,
                    at_cycle: now,
                    pages_scanned: r.pages_scanned,
                    torn_discarded: r.torn_discarded,
                    stale_dropped: r.stale_dropped,
                    blocks_erased: r.blocks_erased,
                    scan_cycles: r.scan_cycles,
                    corrupt_quarantined: r.corrupt_quarantined,
                    fast_path: r.fast_path,
                    fallback: r.fallback,
                    journal_replayed: r.journal_replayed,
                    blocks_rescanned: r.blocks_rescanned,
                    cycles_saved: r.cycles_saved,
                });
                Ok(now + r.scan_cycles)
            }
            // Die failure: the FTL fences the dead die's blocks,
            // relocating live log pages around it; afterwards reads
            // reconstruct from surviving stripe members.
            Task::DieFailure => {
                let (ch, die) = self.cfg.redundancy.die_fail;
                self.backend.fail_die(now, ch, die)
            }
            // One bounded patrol-scrub step.
            Task::Scrub => self.backend.scrub_step(now),
            // One endurance-scheduler step: threshold scan → block
            // refresh, or one static-levelling migration.
            Task::Refresh => self.backend.refresh_step(now),
            // One mapping snapshot into the checkpoint namespace.
            Task::Checkpoint => Ok(self.backend.checkpoint_step(now)),
            // One monitor tick: score the per-die telemetry, fence
            // freshly dead dies, evacuate one victim block off a suspect
            // (when evacuation is on) and rehabilitate false positives.
            Task::Health => self.backend.health_step(now),
        }
    }

    /// Holds `app`'s memory requests until at least `until`; a `credit`
    /// (a paced GC's) replaces the hold's stall credit.
    fn hold(&mut self, app: AppId, until: Cycle, credit: Option<u64>) {
        let hold = self.holds.entry(app.raw()).or_default();
        hold.until = hold.until.max(until);
        if credit.is_some() {
            hold.credit = credit;
        }
    }

    /// Drops every piece of volatile GPU state at a power cut: L2
    /// contents (pinned dirty lines included — redirected writes die
    /// with the SRAM), L1s, MSHRs, TLB and in-flight page fills.
    fn power_cut_gpu(&mut self) {
        self.l2.power_loss();
        self.thrash_mode = false;
        self.mmu.tlb_mut().flush_all();
        for sm in &mut self.sms {
            sm.power_loss();
        }
        self.page_mshr.clear();
    }

    /// Services one 128 B request; returns its completion time.
    fn service(&mut self, now: Cycle, req: Request) -> Result<Cycle> {
        let t = self.mmu.translate(now, req.vpn)?;
        match req.kind {
            AccessKind::Read => self.service_read(t, req),
            AccessKind::Write => self.service_write(t, req),
        }
    }

    fn service_read(&mut self, now: Cycle, req: Request) -> Result<Cycle> {
        let (sm, sector, vpn, app) = (req.sm, req.sector, req.vpn, req.app);
        let (l1_hit, t) = self.sms[sm].l1_access(now, sector, false);
        if l1_hit {
            return Ok(t);
        }
        if let Some(done) = self.sms[sm].mshr_mut().inflight(t, sector) {
            return Ok(done);
        }
        // Bounded mode: a full MSHR file is a structural hazard. Instead
        // of displacing an in-flight fill (the unbounded approximation),
        // the warp backs off until the earliest fill frees a slot — one
        // bounded retry, surfaced as an `mshr_stalls` count.
        let t = if self.cfg.qos.queue_depth.is_some() {
            self.sms[sm].mshr_mut().full_until(t, sector).unwrap_or(t)
        } else {
            t
        };
        if self.kind.has_rdopt() {
            self.predictor.observe(req.pc, req.warp, vpn);
        }
        let bank = self.l2.bank_of(sector);
        let t = self.icnt.transfer(t, bank, 128);
        // A whole-page fill may already be in flight.
        if let Some(done) = self.page_mshr.inflight(t, vpn) {
            self.sms[sm].l1_fill(sector, app);
            return Ok(done);
        }
        let acc = self.l2.access(t, sector, false);
        if acc.hit {
            self.sms[sm].l1_fill(sector, app);
            return Ok(acc.done);
        }
        // L2 miss: fetch from the backend.
        let (bytes, prefetch) = self.read_granule(req.pc);
        let data_at = match self.retrying(acc.done, |b, t| b.read(t, sector, vpn, bytes)) {
            Ok(t) => t,
            Err(e @ Error::IntegrityViolation { .. }) => {
                // Poison containment: the unverifiable data still lands
                // in the L2 but the line is poisoned — it can never turn
                // dirty or be written back, and any dependent warp faults
                // deterministically instead of consuming it.
                let (ev, _) = self.l2.fill_line(acc.done, sector, false, app);
                if let Some(ev) = ev {
                    self.monitor.on_eviction(ev.prefetch, ev.accessed);
                }
                self.l2.poison_line(sector);
                self.integrity.poisoned_lines += 1;
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        // Fill the demand line, plus the prefetch window from page base.
        let (ev, _) = self.l2.fill_line(data_at, sector, false, app);
        if let Some(e) = ev {
            self.monitor.on_eviction(e.prefetch, e.accessed);
        }
        if prefetch && bytes > 128 {
            let page_base = sector & !(self.cfg.flash.page_bytes as u64 - 1);
            let monitor = &mut self.monitor;
            self.l2
                .fill_span(data_at, page_base, bytes, true, app, |e| {
                    monitor.on_eviction(e.prefetch, e.accessed)
                });
            self.page_mshr.register(vpn, data_at);
        }
        self.sms[sm].mshr_mut().register(sector, data_at);
        self.sms[sm].l1_fill(sector, app);
        Ok(data_at)
    }

    fn service_write(&mut self, now: Cycle, req: Request) -> Result<Cycle> {
        let (sm, sector, vpn, app) = (req.sm, req.sector, req.vpn, req.app);
        // Write-through, no L1 allocation.
        let (_, t) = self.sms[sm].l1_access(now, sector, true);
        let bank = self.l2.bank_of(sector);
        let mut t = self.icnt.transfer(t, bank, 128);

        // Thrashing redirection (full ZnG): absorb the write in pinned L2.
        if self.kind.has_redirection() && self.thrash_mode {
            if self.l2.pinned() < REDIRECT_CAP {
                self.write_probe += 1;
                if !self.write_probe.is_multiple_of(REDIRECT_PROBE) {
                    let (ev, done) = self.l2.fill_line(t, sector, false, app);
                    if let Some(e) = ev {
                        self.monitor.on_eviction(e.prefetch, e.accessed);
                    }
                    if self.l2.pin_dirty(sector) {
                        self.redirected_writes += 1;
                        return Ok(done);
                    }
                    // The set was fully pinned: fall through to the
                    // registers, gracefully. Bounded mode pays (and
                    // counts) one backoff quantum for the failed pin.
                    if !self.cfg.qos.is_unbounded() {
                        self.qos.pinned_overflow_stalls += 1;
                        t += self.cfg.qos.backoff_delay(0);
                    }
                }
            } else if !self.cfg.qos.is_unbounded() {
                // The pinned region is at its cap: same graceful
                // degradation to the register path.
                self.qos.pinned_overflow_stalls += 1;
                t += self.cfg.qos.backoff_delay(0);
            }
        }

        // The L2 copy of this line is now stale.
        self.l2.invalidate(sector);
        self.sms[sm].l1_invalidate(sector);
        let w = self.write_line(t, sector, vpn)?;
        self.thrash_mode = self.kind.has_redirection() && w.thrashing;
        if !w.thrashing && self.l2.pinned() > 0 {
            self.drain_pinned(w.done)?;
        }
        if let Some(gc) = w.gc {
            self.handle_gc(&gc);
        }
        Ok(w.done)
    }

    /// Flushes redirected dirty lines back to the registers once
    /// thrashing subsides (asynchronously; does not gate the warp).
    ///
    /// The write-backs are issued concurrently at `now` — they contend
    /// naturally on the shared flash resources. Chaining them serially
    /// would reserve far-future link/plane slots and falsely stall every
    /// later demand access.
    fn drain_pinned(&mut self, now: Cycle) -> Result<()> {
        for line in self.l2.unpin_up_to(DRAIN_CHUNK) {
            if let Some(gc) = self.write_line(now, line, line >> 12)?.gc {
                self.handle_gc(&gc);
            }
        }
        Ok(())
    }

    /// Writes one line to the backend at `now`. Graceful end of life: a
    /// capacity-degraded device refuses the program but the workload
    /// keeps running — the refusal is counted and the write completes at
    /// `now` without touching the media.
    fn write_line(&mut self, now: Cycle, sector: u64, vpn: u64) -> Result<WriteResult> {
        match self.retrying(now, |b, t| b.write(t, sector, vpn)) {
            Err(Error::CapacityDegraded { .. }) => {
                self.endurance.writes_refused += 1;
                Ok(WriteResult {
                    done: now,
                    ..WriteResult::default()
                })
            }
            other => other,
        }
    }

    /// The no-forward-progress watchdog: fails with [`Error::Stalled`]
    /// when the event clock has advanced more than `budget` cycles past
    /// the newest request completion. `None` disables the check.
    fn watchdog_check(budget: Option<u64>, now: Cycle, last_progress: Cycle) -> Result<()> {
        match budget {
            Some(b) if now.raw().saturating_sub(last_progress.raw()) > b => Err(Error::Stalled {
                cycle: now,
                last_progress,
            }),
            _ => Ok(()),
        }
    }

    /// Issues a backend read or write at `now`, absorbing
    /// [`Error::Backpressure`]: a bounded exponential backoff (at most
    /// `retry_budget` re-issues), then one forced wait at the rejecting
    /// queue's hinted `retry_at`, which is guaranteed to admit in the
    /// sequential model. Rejections happen before any FTL state changes,
    /// so a re-issue is idempotent. Time strictly advances on every retry
    /// (the backoff base is validated positive and `retry_at > t` by
    /// construction), so the loop terminates. Unbounded configurations
    /// never see a rejection, so this is a pass-through.
    fn retrying<T>(
        &mut self,
        now: Cycle,
        mut op: impl FnMut(&mut Backend, Cycle) -> Result<T>,
    ) -> Result<T> {
        let mut t = now;
        let mut attempt = 0u32;
        loop {
            let retry_at = match op(&mut self.backend, t) {
                Err(Error::Backpressure { retry_at }) => retry_at,
                other => return other,
            };
            if attempt < self.cfg.qos.retry_budget {
                self.qos.retried += 1;
                t += self.cfg.qos.backoff_delay(attempt);
            } else {
                if attempt == self.cfg.qos.retry_budget {
                    self.qos.retry_budget_exhausted += 1;
                }
                t = t.max(retry_at);
            }
            attempt += 1;
        }
    }

    /// Applies a GC report: block the victim app's requests until the
    /// merge's *blocking* horizon (the full merge, or its pacing deadline
    /// when a stall budget is configured), flush the merged pages from
    /// the caches, and invalidate their translations (paper §V-D).
    fn handle_gc(&mut self, gc: &GcReport) {
        let Some(&vpn0) = gc.flushed_vpns.first() else {
            return;
        };
        // A paced merge arms its credit: each foreground event the victim
        // stalls on burns one (see the run loop).
        let credit = self
            .cfg
            .qos
            .gc_stall_budget
            .map(|_| self.cfg.qos.gc_credit_writes);
        self.hold(app_of(vpn0 << 12), gc.blocking_done, credit);
        for &vpn in &gc.flushed_vpns {
            self.mmu.tlb_mut().invalidate(vpn);
            self.page_mshr.cancel(vpn);
            for s in 0..(self.cfg.flash.page_bytes / self.l2.line_bytes()) as u64 {
                let sector = (vpn << 12) + s * self.l2.line_bytes() as u64;
                if self.l2.invalidate(sector).is_some() {
                    for sm in &mut self.sms {
                        sm.l1_invalidate(sector);
                    }
                }
            }
        }
    }

    /// Decides how many bytes an L2 read miss fetches (Fig. 16b).
    fn read_granule(&self, pc: Pc) -> (usize, bool) {
        if !self.kind.has_rdopt() {
            return (128, false);
        }
        match self.cfg.prefetch_policy {
            PrefetchPolicy::None => (128, false),
            PrefetchPolicy::Fixed(n) => (n.max(128), n > 128),
            _ if !self.predictor.should_prefetch(pc) => (128, false),
            PrefetchPolicy::Predicted4K => (self.cfg.flash.page_bytes, true),
            PrefetchPolicy::Dynamic => (self.monitor.granularity(), true),
        }
    }

    /// The backend (for post-run inspection).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RedundancyConfig;
    use crate::qos::QosConfig;
    use zng_workloads::{MultiApp, TraceParams};

    fn run(kind: PlatformKind) -> RunResult {
        let cfg = SimConfig::tiny();
        let mut sim = Simulation::new(kind, &cfg).unwrap();
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        sim.run(&mix).unwrap()
    }

    proptest::proptest! {
        /// The phase-slot lane and its bulk skip change how throttle
        /// retries are queued and counted, never what a run computes:
        /// with random weights, backoff quanta, windows, queue depths, GC
        /// credits, watchdog budgets and crash points, a run with the
        /// lane gives the same result (simulation error included) and the
        /// same event counters as a run through the plain event queue.
        #[test]
        fn retry_lane_matches_the_plain_event_queue(
            weights in (1u32..4, 1u32..4, 1u32..4, 1u32..4),
            gate in (0usize..6, 1u64..48, 2usize..12),
            limits in (0u64..400, 0u64..6, 0u64..800, 0u64..1_000),
            platform in 0usize..3,
        ) {
            let (base, window, depth) = gate;
            let (watchdog, credits, crash_at, seed) = limits;
            let mut cfg = SimConfig::tiny();
            cfg.perf = true;
            // Odd depths leave queues and GC stalls unbounded, so a GC
            // holds its victim for the whole merge while the other apps
            // spin on the gate: long stretches of pure retries, where the
            // watchdog can trip. Those runs use the longer quanta to keep
            // the plain queue's spinning short.
            let bounded = depth % 2 == 0;
            cfg.qos = if bounded {
                QosConfig::bounded(depth)
            } else {
                QosConfig::unbounded()
            };
            cfg.qos.fair_weights[..4].copy_from_slice(&[weights.0, weights.1, weights.2, weights.3]);
            let base = if bounded { base } else { 3 + base % 3 };
            cfg.qos.backoff_base = Cycle([1, 2, 3, 7, 16, 64][base]);
            cfg.qos.fair_window = window;
            cfg.qos.gc_credit_writes = credits;
            // Half the runs have a watchdog, from budgets that trip in
            // the first few cycles to ones that trip mid-stall or never.
            cfg.watchdog = (watchdog < 200).then_some(watchdog * 50);
            cfg.crash_at = (crash_at < 400).then_some(crash_at);
            let kind = [PlatformKind::Zng, PlatformKind::ZngBase, PlatformKind::HybridGpu][platform];
            let params = TraceParams {
                total_warps: 4,
                mem_ops_per_warp: 8,
                footprint_pages: 128,
                seed,
            };
            let mix = MultiApp::from_names(&["back", "gaus", "FDT", "gram"], &params).unwrap();
            let run = |lane: bool| {
                let mut sim = Simulation::new(kind, &cfg).unwrap();
                sim.retry_lane = lane;
                sim.run(&mix)
                    .map(|mut r| {
                        let p = r.perf.as_mut().expect("perf requested");
                        p.wall_seconds = 0.0;
                        p.events_per_sec = 0.0;
                        r.to_json_value().to_string_compact()
                    })
                    .map_err(|e| e.to_string())
            };
            proptest::prop_assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn all_platforms_complete_a_small_run() {
        for kind in PlatformKind::PAPER_PLATFORMS {
            let r = run(kind);
            assert!(r.instructions > 0, "{kind}");
            assert!(r.cycles > Cycle::ZERO, "{kind}");
            assert!(r.ipc > 0.0, "{kind}");
        }
        let r = run(PlatformKind::Ideal);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn ideal_beats_zng_base() {
        let ideal = run(PlatformKind::Ideal);
        let base = run(PlatformKind::ZngBase);
        assert!(
            ideal.ipc > base.ipc * 2.0,
            "ideal {} vs base {}",
            ideal.ipc,
            base.ipc
        );
    }

    #[test]
    fn determinism() {
        let a = run(PlatformKind::Zng);
        let b = run(PlatformKind::Zng);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn a_simulation_runs_once() {
        let cfg = SimConfig::tiny();
        let mix = MultiApp::from_names(&["back", "gaus"], &TraceParams::tiny()).unwrap();
        let fresh = || Simulation::new(PlatformKind::Zng, &cfg).unwrap();
        let mut sim = fresh();
        let first = sim.run(&mix).unwrap().to_json_value().to_string();
        let other = fresh().run(&mix).unwrap().to_json_value().to_string();
        assert_eq!(first, other, "the first run is an ordinary run");
        assert!(matches!(sim.run(&mix), Err(Error::AlreadyRan)));
    }

    #[test]
    fn request_count_matches_per_app_sum() {
        let r = run(PlatformKind::Zng);
        let sum: u64 = r.per_app_requests.values().sum();
        assert_eq!(sum, r.requests);
        let series_sum: u64 = r
            .per_app_series
            .values()
            .flat_map(|s| s.iter().map(|(_, n)| n))
            .sum();
        assert_eq!(series_sum, r.requests);
    }

    #[test]
    fn series_storage_follows_requests_not_cycles() {
        use crate::config::{CheckpointConfig, EnduranceConfig};
        // Checkpoint and refresh work stretches the run's clock and
        // leaves long gaps between requests, so most buckets are empty.
        let mut cfg = SimConfig::tiny();
        cfg.endurance = EnduranceConfig::on(25);
        cfg.checkpoint = CheckpointConfig::on(25);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let r = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let stored: usize = r.per_app_series.values().map(TimeSeries::stored).sum();
        let len: usize = r.per_app_series.values().map(TimeSeries::len).sum();
        assert!(
            len as u64 > 4 * r.requests,
            "{len} buckets, {} requests",
            r.requests
        );
        assert!(
            stored as u64 <= r.requests,
            "{stored} entries for {} requests",
            r.requests
        );
        // The JSON tree holds the same entries, not one per bucket.
        let json = r.to_json_value();
        for (app, ts) in &r.per_app_series {
            let entry = json["per_app_series"][app.to_string().as_str()]
                .as_sparse()
                .expect("sparse series");
            assert_eq!((entry.len(), entry.stored()), (ts.len(), ts.stored()));
        }
    }

    #[test]
    fn write_mix_triggers_flash_programs_on_base() {
        let cfg = SimConfig::tiny();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let r = sim.run(&mix).unwrap();
        assert!(r.flash_programs_per_page > 0.0, "{r:?}");
    }

    #[test]
    fn none_profile_keeps_fault_counters_at_zero() {
        let r = run(PlatformKind::ZngBase);
        assert_eq!(r.read_retries, 0);
        assert_eq!(r.uncorrectable_reads, 0);
        assert_eq!(r.program_failures, 0);
        assert_eq!(r.erase_failures, 0);
        assert_eq!(r.blocks_retired, 0);
        assert_eq!(r.write_redrives, 0);
    }

    #[test]
    fn eol_faults_are_counted_and_survivable() {
        let mut cfg = SimConfig::tiny();
        cfg.fault = zng_flash::FaultConfig::end_of_life();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let r = sim.run(&mix).unwrap();
        assert!(r.ipc > 0.0);
        assert!(r.read_retries > 0, "EOL reads must hit the retry ladder");
    }

    #[test]
    fn eol_sustained_writes_wear_out_gracefully() {
        let mut cfg = SimConfig::tiny();
        cfg.fault = zng_flash::FaultConfig::end_of_life();
        // Shrink the pool so sustained writes exhaust it within the run.
        cfg.flash.blocks_per_plane = 8;
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let mix = MultiApp::from_names(
            &["back"],
            &TraceParams {
                total_warps: 4,
                mem_ops_per_warp: 4_000,
                footprint_pages: 32,
                seed: 9,
            },
        )
        .unwrap();
        match sim.run(&mix) {
            Err(zng_types::Error::DeviceWornOut { retired_blocks }) => {
                assert!(retired_blocks > 0);
            }
            Err(e) => panic!("expected graceful wear-out, got: {e}"),
            Ok(r) => panic!(
                "run should exhaust the tiny spare pool (retired {})",
                r.blocks_retired
            ),
        }
    }

    #[test]
    fn crash_at_recovers_and_finishes_the_run() {
        let mut cfg = SimConfig::tiny();
        cfg.crash_at = Some(50);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let crashed = Simulation::new(PlatformKind::Zng, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let clean = Simulation::new(PlatformKind::Zng, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        let summary = crashed.crash_recovery.expect("crash must be reported");
        assert!(summary.at_requests >= 50);
        assert!(summary.at_cycle > Cycle::ZERO);
        assert_eq!(
            crashed.requests, clean.requests,
            "every request still serviced across the cut"
        );
        assert!(
            crashed.cycles >= clean.cycles,
            "recovery can only add time: {} vs {}",
            crashed.cycles,
            clean.cycles
        );
    }

    #[test]
    fn disarmed_crash_reports_nothing() {
        let r = run(PlatformKind::Zng);
        assert!(r.crash_recovery.is_none());
    }

    #[test]
    fn crash_on_flashless_platform_is_a_cold_reboot() {
        let mut cfg = SimConfig::tiny();
        cfg.crash_at = Some(20);
        let mut sim = Simulation::new(PlatformKind::Ideal, &cfg).unwrap();
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let r = sim.run(&mix).unwrap();
        let summary = r.crash_recovery.expect("cut still recorded");
        assert_eq!(summary.pages_scanned, 0, "no flash, nothing to scan");
        assert!(r.instructions > 0);
    }

    #[test]
    fn default_run_reports_no_qos_summary() {
        let r = run(PlatformKind::Zng);
        assert!(r.qos.is_none(), "unbounded default must not report QoS");
        // Per-app latency breakdowns are always collected.
        assert!(!r.per_app_read_latency.is_empty());
        let app_mean =
            r.per_app_read_latency.values().sum::<f64>() / r.per_app_read_latency.len() as f64;
        assert!(app_mean > 0.0);
    }

    #[test]
    fn bounded_qos_run_completes_and_reports() {
        let mut cfg = SimConfig::tiny();
        cfg.qos = crate::qos::QosConfig::bounded(2);
        let mix = MultiApp::from_names(&["betw", "back"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::Zng, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        assert!(r.instructions > 0);
        let q = r.qos.expect("bounded policy must report a summary");
        assert!(q.rejected > 0, "depth-2 queues must refuse bursts: {q:?}");
        assert!(q.retried > 0, "rejections must be retried: {q:?}");
        assert!(
            q.read_p99 >= q.read_p95 && q.read_p95 >= q.read_p50,
            "{q:?}"
        );
        // Retries are bounded: each request performs at most
        // retry_budget backoffs plus one forced wait.
        let per_request_cap = (cfg.qos.retry_budget as u64 + 1) * r.requests;
        assert!(q.retried + q.retry_budget_exhausted <= per_request_cap);
    }

    #[test]
    fn bounded_qos_run_is_deterministic() {
        let mut cfg = SimConfig::tiny();
        cfg.qos = crate::qos::QosConfig::bounded(2);
        let mix = MultiApp::from_names(&["betw", "back"], &TraceParams::tiny()).unwrap();
        let a = Simulation::new(PlatformKind::Zng, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let b = Simulation::new(PlatformKind::Zng, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.qos, b.qos);
    }

    #[test]
    fn default_run_reports_no_redundancy_summary() {
        let r = run(PlatformKind::Zng);
        assert!(r.redundancy.is_none(), "off by default, no summary");
    }

    #[test]
    fn patrol_scrub_runs_on_cadence() {
        let mut cfg = SimConfig::tiny();
        cfg.redundancy = RedundancyConfig::rain(20);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::Zng, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let rd = r.redundancy.expect("enabled policy must report");
        assert!(rd.scrub_ticks > 0, "{rd:?}");
        assert!(rd.scrub_scanned > 0, "{rd:?}");
        assert!(
            rd.retry_depth_histogram.iter().sum::<u64>() > 0,
            "every read lands in a depth bucket: {rd:?}"
        );
    }

    #[test]
    fn die_failure_mid_run_completes_and_rebuilds() {
        let mut cfg = SimConfig::tiny();
        cfg.redundancy = RedundancyConfig::rain(0);
        cfg.redundancy.die_fail_at = Some(60);
        cfg.redundancy.die_fail = (1, 0);
        // Read-heavy mix: preloaded data blocks stay on the dead die
        // (writes would relocate them into log blocks on their own), so
        // the end-of-run rebuild has stranded pages to re-create.
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        assert!(r.instructions > 0);
        let rd = r.redundancy.expect("enabled policy must report");
        assert!(rd.fenced_blocks > 0, "dead die's blocks fenced: {rd:?}");
        assert!(rd.rebuild_pages > 0, "stranded pages rebuilt: {rd:?}");
    }

    #[test]
    fn die_failure_run_is_deterministic() {
        let mut cfg = SimConfig::tiny();
        cfg.redundancy = RedundancyConfig::rain(25);
        cfg.redundancy.die_fail_at = Some(40);
        cfg.redundancy.die_fail = (2, 1);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let a = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let b = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.redundancy, b.redundancy);
    }

    #[test]
    fn severed_link_reroutes_transfers() {
        let mut cfg = SimConfig::tiny();
        cfg.redundancy = RedundancyConfig::rain(0);
        cfg.redundancy.link_fail = Some(1);
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::Zng, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let rd = r.redundancy.expect("enabled policy must report");
        assert!(rd.rerouted_transfers > 0, "{rd:?}");
    }

    #[test]
    fn watchdog_check_trips_only_beyond_budget() {
        assert!(Simulation::watchdog_check(None, Cycle(u64::MAX), Cycle::ZERO).is_ok());
        // Exactly at the budget is still progress.
        assert!(Simulation::watchdog_check(Some(100), Cycle(600), Cycle(500)).is_ok());
        match Simulation::watchdog_check(Some(100), Cycle(601), Cycle(500)) {
            Err(Error::Stalled {
                cycle,
                last_progress,
            }) => {
                assert_eq!(cycle, Cycle(601));
                assert_eq!(last_progress, Cycle(500));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        // Saturating arithmetic: progress recorded ahead of the clock
        // (a request completing in the future) never underflows.
        assert!(Simulation::watchdog_check(Some(0), Cycle(10), Cycle(500)).is_ok());
    }

    #[test]
    fn generous_watchdog_run_matches_default() {
        let mut cfg = SimConfig::tiny();
        cfg.watchdog = Some(u64::MAX);
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let watched = Simulation::new(PlatformKind::Zng, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let plain = Simulation::new(PlatformKind::Zng, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(watched.cycles, plain.cycles);
        assert_eq!(watched.requests, plain.requests);
        assert_eq!(watched.instructions, plain.instructions);
    }

    #[test]
    fn tiny_watchdog_budget_trips_stalled() {
        // A 1-cycle budget trips as soon as the clock advances before the
        // first request completes — the loud-abort path, end to end.
        let mut cfg = SimConfig::tiny();
        cfg.watchdog = Some(1);
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::Zng, &cfg).unwrap();
        match sim.run(&mix) {
            Err(Error::Stalled {
                cycle,
                last_progress,
            }) => {
                assert!(cycle > last_progress);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn default_run_reports_no_integrity_summary() {
        let r = run(PlatformKind::Zng);
        assert!(r.integrity.is_none(), "off by default, no summary");
    }

    #[test]
    fn integrity_shot_without_redundancy_fails_loudly_and_poisons() {
        use crate::config::IntegrityConfig;
        let mut cfg = SimConfig::tiny();
        cfg.integrity = IntegrityConfig::with_shot(5);
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        match sim.run(&mix) {
            Err(Error::IntegrityViolation { .. }) => {}
            other => panic!("expected an integrity violation, got {other:?}"),
        }
        // The fetched line was contained: poisoned in the L2, never dirty.
        assert_eq!(sim.integrity.poisoned_lines, 1);
        assert_eq!(sim.l2.poisoned(), 1);
    }

    #[test]
    fn integrity_shot_with_redundancy_heals_and_completes() {
        use crate::config::IntegrityConfig;
        let mut cfg = SimConfig::tiny();
        cfg.integrity = IntegrityConfig::with_shot(5);
        cfg.redundancy = RedundancyConfig::rain(0);
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let i = r.integrity.expect("integrity summary must be present");
        assert!(i.silent_corruptions >= 1, "{i:?}");
        assert!(i.detected >= 1, "{i:?}");
        assert!(i.reconstructed >= 1, "{i:?}");
        assert_eq!(i.poisoned_lines, 0, "healed reads never poison: {i:?}");
        // The clean twin finishes with the same request count.
        let clean = Simulation::new(PlatformKind::ZngBase, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(r.requests, clean.requests);
    }

    #[test]
    fn integrity_run_is_deterministic() {
        use crate::config::IntegrityConfig;
        let mut cfg = SimConfig::tiny();
        cfg.integrity = IntegrityConfig::with_shot(5);
        cfg.redundancy = RedundancyConfig::rain(0);
        let mix = MultiApp::from_names(&["betw"], &TraceParams::tiny()).unwrap();
        let a = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let b = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.integrity, b.integrity);
    }

    #[test]
    fn default_run_reports_no_endurance_summary() {
        let r = run(PlatformKind::Zng);
        assert!(r.endurance.is_none(), "off by default, no summary");
    }

    #[test]
    fn endurance_run_reports_wear_and_refresh_activity() {
        use crate::config::EnduranceConfig;
        let mut cfg = SimConfig::tiny();
        cfg.endurance = EnduranceConfig::on(25);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let e = r.endurance.expect("enabled policy must report");
        assert!(e.refresh_ticks > 0, "{e:?}");
        assert!(e.disturb_reads > 0, "array senses charge disturb: {e:?}");
        assert!(e.wear_spread >= 1.0, "{e:?}");
        assert_eq!(e.capacity_steps, 0, "healthy device never degrades");
    }

    #[test]
    fn endurance_run_is_deterministic() {
        use crate::config::EnduranceConfig;
        let mut cfg = SimConfig::tiny();
        cfg.endurance = EnduranceConfig::on(25);
        cfg.fault = zng_flash::FaultConfig::end_of_life();
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let a = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let b = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.endurance, b.endurance);
    }

    #[test]
    fn endurance_degrades_capacity_instead_of_wearing_out() {
        // The twin of `eol_sustained_writes_wear_out_gracefully`: same
        // churn, but with endurance on the run completes — writes are
        // refused in capacity-degraded read-only mode instead of the
        // whole simulation dying on the DeviceWornOut cliff.
        let mut cfg = SimConfig::tiny();
        cfg.fault = zng_flash::FaultConfig::end_of_life();
        cfg.flash.blocks_per_plane = 8;
        cfg.endurance.enabled = true;
        let mix = MultiApp::from_names(
            &["back"],
            &TraceParams {
                total_warps: 4,
                mem_ops_per_warp: 4_000,
                footprint_pages: 32,
                seed: 9,
            },
        )
        .unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let e = r.endurance.expect("enabled policy must report");
        assert!(e.capacity_steps >= 1, "the pool was exhausted: {e:?}");
        assert!(e.writes_refused > 0, "later writes were refused: {e:?}");
        assert!(r.blocks_retired > 0);
    }

    #[test]
    fn default_run_reports_no_checkpoint_summary() {
        let r = run(PlatformKind::Zng);
        assert!(r.checkpoint.is_none(), "off by default, no summary");
    }

    #[test]
    fn checkpoint_run_reports_writer_activity() {
        use crate::config::CheckpointConfig;
        let mut cfg = SimConfig::tiny();
        cfg.checkpoint = CheckpointConfig::on(25);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let c = r.checkpoint.expect("enabled policy must report");
        assert!(c.checkpoint_ticks > 0, "{c:?}");
        assert!(c.checkpoints > 0, "{c:?}");
        assert!(c.checkpoint_pages > 0, "{c:?}");
        assert_eq!(c.aborted, 0, "healthy media never aborts: {c:?}");
    }

    #[test]
    fn checkpoint_off_is_byte_identical_to_default() {
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let plain = Simulation::new(PlatformKind::ZngBase, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        let off = Simulation::new(PlatformKind::ZngBase, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(
            plain.to_json_value().to_string(),
            off.to_json_value().to_string()
        );
    }

    /// Collecting throughput telemetry must not perturb the simulation:
    /// a `perf: true` run's results, with the telemetry detached, are
    /// byte-identical to a default run's.
    #[test]
    fn perf_telemetry_does_not_perturb_results() {
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let plain = Simulation::new(PlatformKind::Zng, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        let mut cfg = SimConfig::tiny();
        cfg.perf = true;
        let mut measured = Simulation::new(PlatformKind::Zng, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let p = measured.perf.take().expect("telemetry attached");
        assert!(p.events > 0 && p.peak_queue_depth > 0);
        assert_eq!(
            p.events,
            p.compute_events + p.mem_events + p.blocked_events + p.skipped_events,
            "every event is exactly one of compute/mem/blocked/skipped"
        );
        assert_eq!(
            plain.to_json_value().to_string(),
            measured.to_json_value().to_string(),
            "telemetry collection changed simulated results"
        );
    }

    #[test]
    fn crash_with_checkpoint_takes_the_fast_path() {
        use crate::config::CheckpointConfig;
        let mut cfg = SimConfig::tiny();
        cfg.checkpoint = CheckpointConfig::on(100);
        cfg.crash_at = Some(5_500);
        // Enough writes that sealed cold blocks dominate the device: the
        // fast path rescans only what moved since the last checkpoint.
        let params = TraceParams {
            total_warps: 8,
            mem_ops_per_warp: 800,
            footprint_pages: 512,
            seed: 7,
        };
        let mix = MultiApp::from_names(&["back"], &params).unwrap();
        let crashed = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let summary = crashed.crash_recovery.expect("crash must be reported");
        assert!(summary.fast_path, "{summary:?}");
        assert!(!summary.fallback, "{summary:?}");
        assert!(
            summary.cycles_saved > Cycle::ZERO,
            "the fast path must beat the full scan: {summary:?}"
        );
        // The crash-free twin still services every request.
        let mut clean_cfg = SimConfig::tiny();
        clean_cfg.checkpoint = CheckpointConfig::on(20);
        let clean = Simulation::new(PlatformKind::ZngBase, &clean_cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(crashed.requests, clean.requests);
    }

    #[test]
    fn checkpoint_run_is_deterministic() {
        use crate::config::CheckpointConfig;
        let mut cfg = SimConfig::tiny();
        cfg.checkpoint = CheckpointConfig::on(25);
        cfg.crash_at = Some(100);
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let a = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let b = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.checkpoint, b.checkpoint);
        assert_eq!(a.crash_recovery, b.crash_recovery);
    }

    #[test]
    fn default_run_reports_no_health_summary() {
        let r = run(PlatformKind::Zng);
        assert!(r.health.is_none(), "off by default, no summary");
    }

    #[test]
    fn health_monitor_evacuates_a_degrading_die_end_to_end() {
        use crate::config::HealthConfig;
        // A die degrades over the first ~14M cycles of a ~22M-cycle
        // write-heavy run, then dies. The monitor must flag it while it
        // is merely noisy, fence new writes away, drain its live pages
        // and finish the run without a single read landing on the corpse.
        let mut cfg = SimConfig::tiny();
        cfg.health = HealthConfig::on(3);
        cfg.health.window = 16;
        cfg.health.suspect_threshold = 0.02;
        cfg.health.evacuate = true;
        cfg.fault = zng_flash::FaultConfig::none().with_degrading(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset: 200_000,
            death: 14_000_000,
        });
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let mut sim = Simulation::new(PlatformKind::ZngBase, &cfg).unwrap();
        let r = sim.run(&mix).unwrap();
        let h = r.health.expect("enabled monitor must report");
        assert!(h.health_ticks > 0, "{h:?}");
        assert!(h.suspects_flagged >= 1, "{h:?}");
        assert!(h.pages_evacuated > 0, "{h:?}");
        assert!(h.evacuations_completed >= 1, "{h:?}");
        assert_eq!(h.dead_dies_fenced, 1, "the die died mid-run: {h:?}");
        assert!(!h.per_die.is_empty(), "telemetry rollups present: {h:?}");
        assert_eq!(
            sim.backend().flash().map_or(0, |(_, d)| d.dead_die_reads()),
            0,
            "evacuation finished before death, no read hit dead silicon"
        );
    }

    #[test]
    fn health_run_is_deterministic() {
        use crate::config::HealthConfig;
        let mut cfg = SimConfig::tiny();
        cfg.health = HealthConfig::on(3);
        cfg.health.window = 16;
        cfg.health.suspect_threshold = 0.02;
        cfg.health.evacuate = true;
        cfg.fault = zng_flash::FaultConfig::none().with_degrading(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset: 200_000,
            death: 14_000_000,
        });
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let a = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        let b = Simulation::new(PlatformKind::ZngBase, &cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.health, b.health);
    }

    #[test]
    fn health_off_is_byte_identical_to_default() {
        let mix = MultiApp::from_names(&["back"], &TraceParams::tiny()).unwrap();
        let plain = Simulation::new(PlatformKind::ZngBase, &SimConfig::tiny())
            .unwrap()
            .run(&mix)
            .unwrap();
        let mut off_cfg = SimConfig::tiny();
        off_cfg.health = crate::config::HealthConfig::off();
        let off = Simulation::new(PlatformKind::ZngBase, &off_cfg)
            .unwrap()
            .run(&mix)
            .unwrap();
        assert_eq!(
            plain.to_json_value().to_string(),
            off.to_json_value().to_string()
        );
    }

    #[test]
    fn rdopt_uses_prefetcher() {
        let cfg = SimConfig::tiny();
        let mut sim = Simulation::new(PlatformKind::ZngRdopt, &cfg).unwrap();
        let mix = MultiApp::from_names(
            &["betw"],
            &TraceParams {
                total_warps: 8,
                mem_ops_per_warp: 120,
                footprint_pages: 64,
                seed: 5,
            },
        )
        .unwrap();
        let r = sim.run(&mix).unwrap();
        assert!(
            r.predictor_accuracy > 0.0,
            "predictor must have made predictions: {r:?}"
        );
    }
}
