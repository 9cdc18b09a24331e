//! Per-run metrics: everything the paper's figures plot.

use std::collections::BTreeMap;

use zng_flash::RETRY_DEPTH_BUCKETS;
use zng_json::Value;
use zng_sim::TimeSeries;
use zng_types::Cycle;

use crate::config::PlatformKind;
use crate::qos::QosSummary;

/// What a mid-run power cut and recovery looked like (`--crash-at`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecoverySummary {
    /// Completed requests when the power cut fired.
    pub at_requests: u64,
    /// Simulation time of the cut.
    pub at_cycle: Cycle,
    /// Programmed pages whose OOB metadata was scanned.
    pub pages_scanned: u64,
    /// Torn (mid-program) pages discarded.
    pub torn_discarded: u64,
    /// Superseded page versions dropped during winner resolution.
    pub stale_dropped: u64,
    /// Dead blocks erased back into the free pool.
    pub blocks_erased: u64,
    /// Modelled cost of the recovery scan.
    pub scan_cycles: Cycle,
    /// Corrupt page copies quarantined by the scan (integrity mode).
    pub corrupt_quarantined: u64,
    /// The recovery took the checkpoint fast path (loaded the newest
    /// verified checkpoint, replayed the journal tail and rescanned only
    /// the blocks touched since).
    pub fast_path: bool,
    /// Checkpointing was on but the fast path was unusable (torn or
    /// aborted checkpoint, journal overflow or gap) and the recovery
    /// fell back to the full out-of-band scan.
    pub fallback: bool,
    /// Journal records replayed on the fast path.
    pub journal_replayed: u64,
    /// Blocks the fast path rescanned from the media (the rest came
    /// from the checkpoint image).
    pub blocks_rescanned: u64,
    /// Scan cycles the fast path saved versus the estimated full scan.
    pub cycles_saved: Cycle,
}

/// What the checkpoint writer did over the run (`--checkpoint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointSummary {
    /// Checkpoint steps the runner scheduled.
    pub checkpoint_ticks: u64,
    /// Checkpoints committed (payload chain + commit page verified).
    pub checkpoints: u64,
    /// Checkpoint payload/commit pages programmed.
    pub checkpoint_pages: u64,
    /// Delta-journal records appended between checkpoints.
    pub journal_records: u64,
    /// Journal pages programmed into the checkpoint namespace.
    pub journal_pages: u64,
    /// Checkpoint writes that outlived their pacing deadline.
    pub overruns: u64,
    /// Epochs whose journal outgrew the cap (fast path disabled until
    /// the next checkpoint).
    pub journal_overflows: u64,
    /// Checkpoint writes aborted by media failures or pool exhaustion
    /// (the previous epoch stayed in force).
    pub aborted: u64,
}

/// What the end-to-end integrity subsystem did (`--integrity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegritySummary {
    /// Pages the media silently corrupted below the ECC model.
    pub silent_corruptions: u64,
    /// Checksum mismatches caught on the read path.
    pub detected: u64,
    /// Charged re-reads issued after a mismatch.
    pub rereads: u64,
    /// Corrupt pages rebuilt from RAIN parity.
    pub reconstructed: u64,
    /// Corrupt copies quarantined (scrub + recovery, never resurrected).
    pub quarantined: u64,
    /// L2 lines poisoned after an unrecoverable integrity violation.
    pub poisoned_lines: u64,
}

/// What the redundancy & self-healing subsystem did (`--redundancy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedundancySummary {
    /// Pages rebuilt from surviving stripe members on the read path.
    pub reconstructions: u64,
    /// Member senses issued by those reconstructions.
    pub reconstruction_reads: u64,
    /// Parity pages flushed from helper-thread SRAM to flash.
    pub parity_pages: u64,
    /// Pages the patrol scrubber sensed.
    pub scrub_scanned: u64,
    /// Scrubbed pages proactively rewritten to fresh cells.
    pub scrub_rewrites: u64,
    /// Scrub steps whose media time overran the pacing budget.
    pub scrub_overruns: u64,
    /// Patrol-scrub steps the runner scheduled.
    pub scrub_ticks: u64,
    /// Pages re-created onto spares by the post-failure rebuild.
    pub rebuild_pages: u64,
    /// Reconstructions forced by a dead home die (degraded mode).
    pub degraded_reads: u64,
    /// Blocks fenced out of service on dead dies.
    pub fenced_blocks: u64,
    /// Reads that targeted a dead die.
    pub dead_die_reads: u64,
    /// Transfers that detoured around a severed network link.
    pub rerouted_transfers: u64,
    /// Reads by retry-ladder depth (`[0]` = clean first sense; the last
    /// bucket also absorbs deeper retries).
    pub retry_depth_histogram: [u64; RETRY_DEPTH_BUCKETS],
}

/// What the device-lifetime endurance subsystem did (`--endurance`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnduranceSummary {
    /// Refresh-scheduler steps the runner scheduled.
    pub refresh_ticks: u64,
    /// Blocks rewritten to fresh cells by the refresh scheduler.
    pub refreshes: u64,
    /// Refreshes triggered by the read-disturb budget.
    pub disturb_refreshes: u64,
    /// Refreshes triggered by the retention-age budget.
    pub retention_refreshes: u64,
    /// Pages moved by those refreshes.
    pub refreshed_pages: u64,
    /// Static wear-levelling migrations (cold block → worn spare).
    pub level_migrations: u64,
    /// Pages moved by the static leveler.
    pub leveled_pages: u64,
    /// Refresh/levelling steps whose media time overran the pacing
    /// budget.
    pub refresh_overruns: u64,
    /// End-of-life capacity shrink steps taken instead of the hard
    /// worn-out cliff.
    pub capacity_steps: u64,
    /// Writes refused after capacity degraded (the device is read-only
    /// for new data; the workload keeps running).
    pub writes_refused: u64,
    /// Array senses charged against block disturb counters.
    pub disturb_reads: u64,
    /// Read errors attributable to accumulated disturb exposure.
    pub disturb_triggered_errors: u64,
    /// The worst-worn block's erase fraction (of the P/E limit).
    pub wear_max: f64,
    /// Mean erase fraction across every block.
    pub wear_mean: f64,
    /// The least-worn block's erase fraction.
    pub wear_min: f64,
    /// Wear spread (max/mean; 1.0 = perfectly even).
    pub wear_spread: f64,
}

/// One die's lifetime telemetry rollup (the health monitor's raw feed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DieBreakdown {
    /// Channel index of the die.
    pub channel: u16,
    /// Die index within the channel.
    pub die: u16,
    /// Array senses served by this die.
    pub reads: u64,
    /// Read-retry ladder steps burned by this die's senses.
    pub retry_steps: u64,
    /// Senses that stayed uncorrectable through the whole ladder.
    pub uncorrectable_reads: u64,
    /// Page programs attempted on this die.
    pub programs: u64,
    /// Programs that failed verification.
    pub program_failures: u64,
    /// Block erases completed on this die (the wear rollup).
    pub erases: u64,
    /// Erases that failed verification.
    pub erase_failures: u64,
}

/// What the predictive health monitor did (`--health`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthSummary {
    /// Monitor steps the runner scheduled.
    pub health_ticks: u64,
    /// Dies flagged as suspects (quarantined) over the run.
    pub suspects_flagged: u64,
    /// Live pages pre-emptively migrated off suspect dies.
    pub pages_evacuated: u64,
    /// Suspect dies fully drained of live data before dying.
    pub evacuations_completed: u64,
    /// Suspects whose telemetry recovered and were released.
    pub rehabilitations: u64,
    /// Evacuation steps whose media time overran the pacing budget.
    pub evacuation_overruns: u64,
    /// Dies that died under monitoring and were fenced by the monitor.
    pub dead_dies_fenced: u64,
    /// Dies still quarantined at the end of the run, sorted.
    pub quarantined: Vec<(u16, u16)>,
    /// Per-die telemetry rollups, sorted by (channel, die).
    pub per_die: Vec<DieBreakdown>,
}

/// Simulator-throughput telemetry (`--perf`): how fast the *simulator
/// itself* ran, not the simulated machine.
///
/// The wall-clock numbers are host-dependent and nondeterministic, so
/// they are only emitted when the flag is set — default output stays
/// byte-identical to builds without this machinery. The event counters
/// are deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfSummary {
    /// Host wall-clock spent inside the event loop, in seconds.
    pub wall_seconds: f64,
    /// Events popped from the queue (every scheduled wake-up).
    pub events: u64,
    /// Events per host second (`events / wall_seconds`) — the headline
    /// sim-throughput number.
    pub events_per_sec: f64,
    /// Largest pending-event population the queue ever held.
    pub peak_queue_depth: u64,
    /// Events that issued a compute segment.
    pub compute_events: u64,
    /// Events that issued a memory op (coalesced request batch).
    pub mem_events: u64,
    /// Events deferred because their app was blocked (GC / maintenance)
    /// or throttled by the fairness gate.
    pub blocked_events: u64,
    /// Maintenance steps taken at event boundaries (crash recovery, die
    /// fencing, scrub, refresh, checkpoint, health ticks).
    pub maintenance_events: u64,
    /// Events for warps that had already retired (no-op wake-ups).
    pub skipped_events: u64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which platform ran.
    pub platform: PlatformKind,
    /// The workload or mix name.
    pub workload: String,
    /// Total simulated cycles until the last warp retired.
    pub cycles: Cycle,
    /// Warp instructions retired across all SMs.
    pub instructions: u64,
    /// Coalesced 128 B memory requests issued.
    pub requests: u64,
    /// Instructions per cycle (Fig. 10's metric).
    pub ipc: f64,
    /// Flash-array bandwidth in GB/s (Fig. 11); 0 for flash-less
    /// platforms.
    pub flash_array_gbps: f64,
    /// Mean flash-array reads per distinct page (Fig. 12).
    pub flash_reads_per_page: f64,
    /// Mean flash-array programs per distinct page (Fig. 13).
    pub flash_programs_per_page: f64,
    /// L1D hit rate (mean over SMs).
    pub l1_hit_rate: f64,
    /// Shared L2 hit rate.
    pub l2_hit_rate: f64,
    /// TLB hit rate.
    pub tlb_hit_rate: f64,
    /// Prefetch-predictor accuracy (Fig. 15b); 0 when prefetch is off.
    pub predictor_accuracy: f64,
    /// Garbage collections performed.
    pub gcs: u64,
    /// Cross-plane register migrations (Fig. 14 accounting).
    pub register_migrations: u64,
    /// Writes redirected into pinned L2 space.
    pub redirected_writes: u64,
    /// Mean read-request completion latency in cycles (issue → data).
    pub avg_read_latency: f64,
    /// Mean write-request completion latency in cycles.
    pub avg_write_latency: f64,
    /// Per-app mean read latency in cycles (QoS isolation accounting).
    pub per_app_read_latency: BTreeMap<u16, f64>,
    /// Per-app mean write latency in cycles.
    pub per_app_write_latency: BTreeMap<u16, f64>,
    /// Per-app instructions (Fig. 17a per-app performance).
    pub per_app_instructions: BTreeMap<u16, u64>,
    /// Per-app completion time (when the app's last warp retired).
    pub per_app_cycles: BTreeMap<u16, Cycle>,
    /// Per-app memory requests.
    pub per_app_requests: BTreeMap<u16, u64>,
    /// Per-app request time series (Fig. 17b), bucketed by
    /// `series_interval`.
    pub per_app_series: BTreeMap<u16, TimeSeries>,
    /// Time-series bucket width.
    pub series_interval: Cycle,
    /// (start, end) of each garbage collection.
    pub gc_events: Vec<(Cycle, Cycle)>,
    /// Read-retry steps taken by the flash planes (fault injection).
    pub read_retries: u64,
    /// Reads that exhausted the retry ladder (ECC-uncorrectable).
    pub uncorrectable_reads: u64,
    /// Page programs that failed verification.
    pub program_failures: u64,
    /// Block erases that failed verification.
    pub erase_failures: u64,
    /// Blocks the FTL permanently retired.
    pub blocks_retired: u64,
    /// Writes the FTL re-drove after program failures.
    pub write_redrives: u64,
    /// Present only when `--crash-at` fired: the power cut and the
    /// recovery scan that followed. `None` runs emit byte-identical
    /// output to builds without the crash machinery.
    pub crash_recovery: Option<CrashRecoverySummary>,
    /// Present only when a non-default (bounded) QoS policy ran:
    /// rejection/retry/pacing/fairness counters and exact latency
    /// percentiles. `None` runs emit byte-identical output to builds
    /// without the overload-control machinery.
    pub qos: Option<QosSummary>,
    /// Present only when `--redundancy` ran: RAIN, scrub, rebuild and
    /// degraded-mode counters. `None` runs emit byte-identical output to
    /// builds without the redundancy machinery.
    pub redundancy: Option<RedundancySummary>,
    /// Present only when `--integrity` ran: silent-corruption,
    /// verification and poison-containment counters. `None` runs emit
    /// byte-identical output to builds without the integrity machinery.
    pub integrity: Option<IntegritySummary>,
    /// Present only when `--endurance` ran: refresh, static-levelling,
    /// capacity-step and wear-histogram counters. `None` runs emit
    /// byte-identical output to builds without the endurance machinery.
    pub endurance: Option<EnduranceSummary>,
    /// Present only when `--checkpoint` ran: checkpoint-writer and
    /// delta-journal counters. `None` runs emit byte-identical output to
    /// builds without the checkpoint machinery.
    pub checkpoint: Option<CheckpointSummary>,
    /// Present only when `--health` ran: suspect-die quarantine,
    /// evacuation and rehabilitation counters plus per-die telemetry
    /// rollups. `None` runs emit byte-identical output to builds without
    /// the health machinery.
    pub health: Option<HealthSummary>,
    /// Present only when `--perf` ran: simulator-throughput telemetry
    /// (wall time, events/sec, queue depth). `None` runs emit
    /// byte-identical output — the wall-clock numbers are
    /// nondeterministic by nature and must never leak into golden
    /// output.
    pub perf: Option<PerfSummary>,
}

impl RunResult {
    /// Per-app IPC over the app's own lifetime (launch → its last warp's
    /// retirement), so one app's long tail does not dilute another's
    /// throughput.
    pub fn app_ipc(&self, app: u16) -> f64 {
        let cycles = self
            .per_app_cycles
            .get(&app)
            .copied()
            .unwrap_or(self.cycles)
            .max(Cycle(1));
        self.per_app_instructions
            .get(&app)
            .map(|&i| i as f64 / cycles.raw() as f64)
            .unwrap_or(0.0)
    }

    /// Simulated wall-clock in microseconds at 1.2 GHz.
    pub fn simulated_us(&self) -> f64 {
        self.cycles.raw() as f64 / 1_200.0
    }

    /// The result as a JSON document (what `zng-cli --json` prints).
    ///
    /// Newtype wrappers flatten to their raw numbers, the platform to its
    /// variant name, and per-app maps to objects keyed by the decimal
    /// app id.
    pub fn to_json_value(&self) -> Value {
        fn app_map<T: Clone + Into<Value>>(m: &BTreeMap<u16, T>) -> Value {
            Value::object(
                m.iter()
                    .map(|(k, v)| (k.to_string(), v.clone().into()))
                    .collect(),
            )
        }
        let mut fields = vec![
            ("platform", Value::from(format!("{:?}", self.platform))),
            ("workload", Value::from(self.workload.as_str())),
            ("cycles", Value::from(self.cycles.raw())),
            ("instructions", Value::from(self.instructions)),
            ("requests", Value::from(self.requests)),
            ("ipc", Value::from(self.ipc)),
            ("flash_array_gbps", Value::from(self.flash_array_gbps)),
            (
                "flash_reads_per_page",
                Value::from(self.flash_reads_per_page),
            ),
            (
                "flash_programs_per_page",
                Value::from(self.flash_programs_per_page),
            ),
            ("l1_hit_rate", Value::from(self.l1_hit_rate)),
            ("l2_hit_rate", Value::from(self.l2_hit_rate)),
            ("tlb_hit_rate", Value::from(self.tlb_hit_rate)),
            ("predictor_accuracy", Value::from(self.predictor_accuracy)),
            ("gcs", Value::from(self.gcs)),
            ("register_migrations", Value::from(self.register_migrations)),
            ("redirected_writes", Value::from(self.redirected_writes)),
            ("avg_read_latency", Value::from(self.avg_read_latency)),
            ("avg_write_latency", Value::from(self.avg_write_latency)),
            ("per_app_instructions", app_map(&self.per_app_instructions)),
            (
                "per_app_cycles",
                Value::object(
                    self.per_app_cycles
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::from(v.raw())))
                        .collect(),
                ),
            ),
            ("per_app_requests", app_map(&self.per_app_requests)),
            (
                "per_app_series",
                Value::object(
                    self.per_app_series
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Value::Array(v.dense().map(Value::from).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            ("series_interval", Value::from(self.series_interval.raw())),
            ("read_retries", Value::from(self.read_retries)),
            ("uncorrectable_reads", Value::from(self.uncorrectable_reads)),
            ("program_failures", Value::from(self.program_failures)),
            ("erase_failures", Value::from(self.erase_failures)),
            ("blocks_retired", Value::from(self.blocks_retired)),
            ("write_redrives", Value::from(self.write_redrives)),
            (
                "gc_events",
                Value::Array(
                    self.gc_events
                        .iter()
                        .map(|&(s, e)| {
                            Value::Array(vec![Value::from(s.raw()), Value::from(e.raw())])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(q) = &self.qos {
            fields.push(("qos_rejected", Value::from(q.rejected)));
            fields.push(("qos_retried", Value::from(q.retried)));
            fields.push((
                "qos_retry_budget_exhausted",
                Value::from(q.retry_budget_exhausted),
            ));
            fields.push(("qos_mshr_stalls", Value::from(q.mshr_stalls)));
            fields.push((
                "qos_pinned_overflow_stalls",
                Value::from(q.pinned_overflow_stalls),
            ));
            fields.push(("qos_gc_deadline_misses", Value::from(q.gc_deadline_misses)));
            fields.push(("qos_paced_gcs", Value::from(q.paced_gcs)));
            fields.push((
                "qos_gc_credit_exhausted",
                Value::from(q.gc_credit_exhausted),
            ));
            fields.push(("qos_fairness_throttles", Value::from(q.fairness_throttles)));
            fields.push(("qos_max_service_lag", Value::from(q.max_service_lag)));
            fields.push((
                "qos_max_queue_occupancy",
                Value::from(q.max_queue_occupancy),
            ));
            fields.push(("qos_read_p50", Value::from(q.read_p50)));
            fields.push(("qos_read_p95", Value::from(q.read_p95)));
            fields.push(("qos_read_p99", Value::from(q.read_p99)));
            fields.push(("qos_write_p50", Value::from(q.write_p50)));
            fields.push(("qos_write_p95", Value::from(q.write_p95)));
            fields.push(("qos_write_p99", Value::from(q.write_p99)));
            // Per-app latency breakdowns ride with the QoS summary so the
            // default output stays byte-stable across versions.
            fields.push(("per_app_read_latency", app_map(&self.per_app_read_latency)));
            fields.push((
                "per_app_write_latency",
                app_map(&self.per_app_write_latency),
            ));
        }
        if let Some(cr) = &self.crash_recovery {
            fields.push(("crash_at_requests", Value::from(cr.at_requests)));
            fields.push(("crash_at_cycle", Value::from(cr.at_cycle.raw())));
            fields.push(("crash_pages_scanned", Value::from(cr.pages_scanned)));
            fields.push(("crash_torn_discarded", Value::from(cr.torn_discarded)));
            fields.push(("crash_stale_dropped", Value::from(cr.stale_dropped)));
            fields.push(("crash_blocks_erased", Value::from(cr.blocks_erased)));
            fields.push(("crash_scan_cycles", Value::from(cr.scan_cycles.raw())));
            // Gated on the integrity summary so integrity-off crash runs
            // stay byte-identical to builds without this machinery.
            if self.integrity.is_some() {
                fields.push((
                    "crash_corrupt_quarantined",
                    Value::from(cr.corrupt_quarantined),
                ));
            }
            // Fast-path accounting rides with the checkpoint summary so
            // checkpoint-off crash runs stay byte-identical too.
            if self.checkpoint.is_some() {
                fields.push(("crash_fast_path", Value::from(cr.fast_path)));
                fields.push(("crash_fallback", Value::from(cr.fallback)));
                fields.push(("crash_journal_replayed", Value::from(cr.journal_replayed)));
                fields.push(("crash_blocks_rescanned", Value::from(cr.blocks_rescanned)));
                fields.push(("crash_cycles_saved", Value::from(cr.cycles_saved.raw())));
            }
        }
        if let Some(rd) = &self.redundancy {
            fields.push(("rain_reconstructions", Value::from(rd.reconstructions)));
            fields.push((
                "rain_reconstruction_reads",
                Value::from(rd.reconstruction_reads),
            ));
            fields.push(("rain_parity_pages", Value::from(rd.parity_pages)));
            fields.push(("scrub_ticks", Value::from(rd.scrub_ticks)));
            fields.push(("scrub_scanned", Value::from(rd.scrub_scanned)));
            fields.push(("scrub_rewrites", Value::from(rd.scrub_rewrites)));
            fields.push(("scrub_overruns", Value::from(rd.scrub_overruns)));
            fields.push(("rebuild_pages", Value::from(rd.rebuild_pages)));
            fields.push(("degraded_reads", Value::from(rd.degraded_reads)));
            fields.push(("fenced_blocks", Value::from(rd.fenced_blocks)));
            fields.push(("dead_die_reads", Value::from(rd.dead_die_reads)));
            fields.push(("rerouted_transfers", Value::from(rd.rerouted_transfers)));
            fields.push((
                "retry_depth_histogram",
                Value::from(rd.retry_depth_histogram.to_vec()),
            ));
        }
        if let Some(i) = &self.integrity {
            fields.push((
                "integrity_silent_corruptions",
                Value::from(i.silent_corruptions),
            ));
            fields.push(("integrity_detected", Value::from(i.detected)));
            fields.push(("integrity_rereads", Value::from(i.rereads)));
            fields.push(("integrity_reconstructed", Value::from(i.reconstructed)));
            fields.push(("integrity_quarantined", Value::from(i.quarantined)));
            fields.push(("integrity_poisoned_lines", Value::from(i.poisoned_lines)));
        }
        if let Some(e) = &self.endurance {
            fields.push(("endurance_refresh_ticks", Value::from(e.refresh_ticks)));
            fields.push(("endurance_refreshes", Value::from(e.refreshes)));
            fields.push((
                "endurance_disturb_refreshes",
                Value::from(e.disturb_refreshes),
            ));
            fields.push((
                "endurance_retention_refreshes",
                Value::from(e.retention_refreshes),
            ));
            fields.push(("endurance_refreshed_pages", Value::from(e.refreshed_pages)));
            fields.push((
                "endurance_level_migrations",
                Value::from(e.level_migrations),
            ));
            fields.push(("endurance_leveled_pages", Value::from(e.leveled_pages)));
            fields.push((
                "endurance_refresh_overruns",
                Value::from(e.refresh_overruns),
            ));
            fields.push(("endurance_capacity_steps", Value::from(e.capacity_steps)));
            fields.push(("endurance_writes_refused", Value::from(e.writes_refused)));
            fields.push(("endurance_disturb_reads", Value::from(e.disturb_reads)));
            fields.push((
                "endurance_disturb_errors",
                Value::from(e.disturb_triggered_errors),
            ));
            fields.push(("wear_max_fraction", Value::from(e.wear_max)));
            fields.push(("wear_mean_fraction", Value::from(e.wear_mean)));
            fields.push(("wear_min_fraction", Value::from(e.wear_min)));
            fields.push(("wear_spread", Value::from(e.wear_spread)));
        }
        if let Some(c) = &self.checkpoint {
            fields.push(("checkpoint_ticks", Value::from(c.checkpoint_ticks)));
            fields.push(("checkpoints", Value::from(c.checkpoints)));
            fields.push(("checkpoint_pages", Value::from(c.checkpoint_pages)));
            fields.push(("journal_records", Value::from(c.journal_records)));
            fields.push(("journal_pages", Value::from(c.journal_pages)));
            fields.push(("checkpoint_overruns", Value::from(c.overruns)));
            fields.push(("journal_overflows", Value::from(c.journal_overflows)));
            fields.push(("checkpoints_aborted", Value::from(c.aborted)));
        }
        if let Some(h) = &self.health {
            fields.push(("health_ticks", Value::from(h.health_ticks)));
            fields.push(("health_suspects_flagged", Value::from(h.suspects_flagged)));
            fields.push(("health_pages_evacuated", Value::from(h.pages_evacuated)));
            fields.push((
                "health_evacuations_completed",
                Value::from(h.evacuations_completed),
            ));
            fields.push(("health_rehabilitations", Value::from(h.rehabilitations)));
            fields.push((
                "health_evacuation_overruns",
                Value::from(h.evacuation_overruns),
            ));
            fields.push(("health_dead_dies_fenced", Value::from(h.dead_dies_fenced)));
            fields.push((
                "health_quarantined",
                Value::Array(
                    h.quarantined
                        .iter()
                        .map(|&(c, d)| Value::from(format!("{c}:{d}")))
                        .collect(),
                ),
            ));
            fields.push((
                "per_die_health",
                Value::object(
                    h.per_die
                        .iter()
                        .map(|d| {
                            (
                                format!("{}:{}", d.channel, d.die),
                                Value::object(vec![
                                    ("reads".to_string(), Value::from(d.reads)),
                                    ("retry_steps".to_string(), Value::from(d.retry_steps)),
                                    (
                                        "uncorrectable_reads".to_string(),
                                        Value::from(d.uncorrectable_reads),
                                    ),
                                    ("programs".to_string(), Value::from(d.programs)),
                                    (
                                        "program_failures".to_string(),
                                        Value::from(d.program_failures),
                                    ),
                                    ("erases".to_string(), Value::from(d.erases)),
                                    ("erase_failures".to_string(), Value::from(d.erase_failures)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(p) = &self.perf {
            fields.push(("perf_wall_seconds", Value::from(p.wall_seconds)));
            fields.push(("perf_events", Value::from(p.events)));
            fields.push(("perf_events_per_sec", Value::from(p.events_per_sec)));
            fields.push(("perf_peak_queue_depth", Value::from(p.peak_queue_depth)));
            fields.push(("perf_compute_events", Value::from(p.compute_events)));
            fields.push(("perf_mem_events", Value::from(p.mem_events)));
            fields.push(("perf_blocked_events", Value::from(p.blocked_events)));
            fields.push(("perf_maintenance_events", Value::from(p.maintenance_events)));
            fields.push(("perf_skipped_events", Value::from(p.skipped_events)));
        }
        Value::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            platform: PlatformKind::Zng,
            workload: "betw-back".into(),
            cycles: Cycle(1_200_000),
            instructions: 600_000,
            requests: 10_000,
            ipc: 0.5,
            flash_array_gbps: 10.0,
            flash_reads_per_page: 3.0,
            flash_programs_per_page: 1.5,
            l1_hit_rate: 0.4,
            l2_hit_rate: 0.8,
            tlb_hit_rate: 0.99,
            predictor_accuracy: 0.93,
            gcs: 1,
            register_migrations: 5,
            redirected_writes: 7,
            avg_read_latency: 500.0,
            avg_write_latency: 900.0,
            per_app_read_latency: [(0, 450.0), (1, 580.0)].into(),
            per_app_write_latency: [(0, 850.0), (1, 990.0)].into(),
            per_app_instructions: [(0, 400_000), (1, 200_000)].into(),
            per_app_cycles: [(0, Cycle(1_200_000)), (1, Cycle(1_200_000))].into(),
            per_app_requests: [(0, 6_000), (1, 4_000)].into(),
            per_app_series: BTreeMap::new(),
            series_interval: Cycle(12_000),
            gc_events: vec![(Cycle(100), Cycle(200))],
            read_retries: 3,
            uncorrectable_reads: 0,
            program_failures: 1,
            erase_failures: 0,
            blocks_retired: 1,
            write_redrives: 2,
            crash_recovery: None,
            qos: None,
            redundancy: None,
            integrity: None,
            endurance: None,
            checkpoint: None,
            health: None,
            perf: None,
        }
    }

    #[test]
    fn app_ipc_partitions_total() {
        let r = result();
        let sum = r.app_ipc(0) + r.app_ipc(1);
        assert!((sum - r.ipc).abs() < 1e-12);
        assert_eq!(r.app_ipc(9), 0.0);
    }

    #[test]
    fn series_serialise_densely() {
        let mut r = result();
        let mut busy = TimeSeries::new(r.series_interval);
        busy.record(Cycle(100_000 * 12_000 + 5), 3);
        busy.record(Cycle(7), 2);
        r.per_app_series = [(0, busy), (1, TimeSeries::new(r.series_interval))].into();
        let json = r.to_json_value();
        let series = json.get("per_app_series").unwrap();
        let dense = series.get("0").and_then(Value::as_array).unwrap();
        assert_eq!(dense.len(), 100_001);
        assert_eq!(dense[0].as_u64(), Some(2));
        assert_eq!(dense[100_000].as_u64(), Some(3));
        assert!(dense[1..100_000].iter().all(|v| v.as_u64() == Some(0)));
        assert_eq!(series.get("1").and_then(Value::as_array), Some(&[][..]));
        // `series_interval` stays right after the series.
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let at = keys.iter().position(|&k| k == "per_app_series").unwrap();
        assert_eq!(
            keys[at - 1..=at + 2],
            [
                "per_app_requests",
                "per_app_series",
                "series_interval",
                "read_retries"
            ]
        );
        assert_eq!(
            json.get("series_interval").and_then(Value::as_u64),
            Some(12_000)
        );
    }

    #[test]
    fn simulated_time_conversion() {
        let r = result();
        assert!((r.simulated_us() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn crash_keys_only_when_a_crash_happened() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(!clean.contains("crash_"), "no crash keys in a clean run");
        r.crash_recovery = Some(CrashRecoverySummary {
            at_requests: 100,
            at_cycle: Cycle(500_000),
            pages_scanned: 64,
            torn_discarded: 2,
            stale_dropped: 5,
            blocks_erased: 3,
            scan_cycles: Cycle(28_800),
            corrupt_quarantined: 1,
            fast_path: true,
            fallback: false,
            journal_replayed: 12,
            blocks_rescanned: 4,
            cycles_saved: Cycle(90_000),
        });
        let crashed = r.to_json_value().to_string();
        assert!(crashed.contains("\"crash_at_requests\":100"));
        assert!(crashed.contains("\"crash_torn_discarded\":2"));
        assert!(crashed.contains("\"crash_scan_cycles\":28800"));
        assert!(
            !crashed.contains("crash_corrupt_quarantined"),
            "quarantine key rides with the integrity summary, not the crash"
        );
        assert!(
            !crashed.contains("crash_fast_path"),
            "fast-path keys ride with the checkpoint summary, not the crash"
        );
        r.integrity = Some(IntegritySummary::default());
        let with_integrity = r.to_json_value().to_string();
        assert!(with_integrity.contains("\"crash_corrupt_quarantined\":1"));
        r.checkpoint = Some(CheckpointSummary::default());
        let with_ckpt = r.to_json_value().to_string();
        assert!(with_ckpt.contains("\"crash_fast_path\":true"));
        assert!(with_ckpt.contains("\"crash_fallback\":false"));
        assert!(with_ckpt.contains("\"crash_journal_replayed\":12"));
        assert!(with_ckpt.contains("\"crash_cycles_saved\":90000"));
    }

    #[test]
    fn checkpoint_keys_only_when_the_subsystem_ran() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(
            !clean.contains("checkpoint") && !clean.contains("journal"),
            "no checkpoint keys in a default run"
        );
        r.checkpoint = Some(CheckpointSummary {
            checkpoint_ticks: 8,
            checkpoints: 7,
            checkpoint_pages: 21,
            journal_records: 300,
            journal_pages: 4,
            overruns: 1,
            journal_overflows: 0,
            aborted: 0,
        });
        let on = r.to_json_value().to_string();
        assert!(on.contains("\"checkpoint_ticks\":8"));
        assert!(on.contains("\"checkpoints\":7"));
        assert!(on.contains("\"checkpoint_pages\":21"));
        assert!(on.contains("\"journal_records\":300"));
        assert!(on.contains("\"checkpoint_overruns\":1"));
        assert!(on.contains("\"checkpoints_aborted\":0"));
    }

    #[test]
    fn integrity_keys_only_when_verification_ran() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(
            !clean.contains("integrity_"),
            "no integrity keys in a default run"
        );
        r.integrity = Some(IntegritySummary {
            silent_corruptions: 3,
            detected: 3,
            rereads: 3,
            reconstructed: 2,
            quarantined: 2,
            poisoned_lines: 1,
        });
        let verified = r.to_json_value().to_string();
        assert!(verified.contains("\"integrity_silent_corruptions\":3"));
        assert!(verified.contains("\"integrity_detected\":3"));
        assert!(verified.contains("\"integrity_reconstructed\":2"));
        assert!(verified.contains("\"integrity_poisoned_lines\":1"));
    }

    #[test]
    fn qos_keys_only_when_a_bounded_policy_ran() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(!clean.contains("qos_"), "no QoS keys in a default run");
        assert!(!clean.contains("per_app_read_latency"));
        r.qos = Some(QosSummary {
            rejected: 12,
            retried: 9,
            read_p99: 7_777,
            ..QosSummary::default()
        });
        let bounded = r.to_json_value().to_string();
        assert!(bounded.contains("\"qos_rejected\":12"));
        assert!(bounded.contains("\"qos_retried\":9"));
        assert!(bounded.contains("\"qos_read_p99\":7777"));
        assert!(bounded.contains("\"per_app_read_latency\""));
        assert!(bounded.contains("\"per_app_write_latency\""));
    }

    #[test]
    fn endurance_keys_only_when_the_subsystem_ran() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(
            !clean.contains("endurance_") && !clean.contains("wear_"),
            "no endurance keys in a default run"
        );
        r.endurance = Some(EnduranceSummary {
            refresh_ticks: 10,
            refreshes: 4,
            disturb_refreshes: 3,
            retention_refreshes: 1,
            refreshed_pages: 64,
            level_migrations: 2,
            leveled_pages: 32,
            capacity_steps: 1,
            writes_refused: 7,
            wear_spread: 1.5,
            ..EnduranceSummary::default()
        });
        let on = r.to_json_value().to_string();
        assert!(on.contains("\"endurance_refresh_ticks\":10"));
        assert!(on.contains("\"endurance_refreshes\":4"));
        assert!(on.contains("\"endurance_disturb_refreshes\":3"));
        assert!(on.contains("\"endurance_level_migrations\":2"));
        assert!(on.contains("\"endurance_capacity_steps\":1"));
        assert!(on.contains("\"endurance_writes_refused\":7"));
        assert!(on.contains("\"wear_spread\":1.5"));
    }

    #[test]
    fn health_keys_only_when_the_monitor_ran() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(
            !clean.contains("health") && !clean.contains("per_die"),
            "no health keys in a default run"
        );
        r.health = Some(HealthSummary {
            health_ticks: 12,
            suspects_flagged: 1,
            pages_evacuated: 40,
            evacuations_completed: 1,
            rehabilitations: 0,
            evacuation_overruns: 2,
            dead_dies_fenced: 1,
            quarantined: vec![(0, 1)],
            per_die: vec![DieBreakdown {
                channel: 0,
                die: 1,
                reads: 900,
                retry_steps: 33,
                programs: 120,
                erases: 4,
                ..DieBreakdown::default()
            }],
        });
        let on = r.to_json_value().to_string();
        assert!(on.contains("\"health_ticks\":12"));
        assert!(on.contains("\"health_suspects_flagged\":1"));
        assert!(on.contains("\"health_pages_evacuated\":40"));
        assert!(on.contains("\"health_evacuations_completed\":1"));
        assert!(on.contains("\"health_quarantined\":[\"0:1\"]"));
        assert!(on.contains("\"per_die_health\""));
        assert!(on.contains("\"retry_steps\":33"));
        assert!(on.contains("\"erases\":4"));
    }

    #[test]
    fn perf_keys_only_when_telemetry_requested() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(!clean.contains("perf_"), "no perf keys in a default run");
        r.perf = Some(PerfSummary {
            wall_seconds: 0.5,
            events: 1_000,
            events_per_sec: 2_000.0,
            peak_queue_depth: 64,
            compute_events: 600,
            mem_events: 300,
            blocked_events: 50,
            maintenance_events: 10,
            skipped_events: 40,
        });
        let on = r.to_json_value().to_string();
        assert!(on.contains("\"perf_events\":1000"));
        assert!(on.contains("\"perf_events_per_sec\":2000"));
        assert!(on.contains("\"perf_peak_queue_depth\":64"));
        assert!(on.contains("\"perf_compute_events\":600"));
        assert!(on.contains("\"perf_skipped_events\":40"));
    }

    #[test]
    fn redundancy_keys_only_when_rain_ran() {
        let mut r = result();
        let clean = r.to_json_value().to_string();
        assert!(!clean.contains("rain_"), "no RAIN keys in a default run");
        assert!(!clean.contains("scrub_"));
        assert!(!clean.contains("retry_depth_histogram"));
        let mut hist = [0u64; RETRY_DEPTH_BUCKETS];
        hist[0] = 40;
        hist[2] = 3;
        r.redundancy = Some(RedundancySummary {
            reconstructions: 4,
            scrub_rewrites: 2,
            degraded_reads: 4,
            retry_depth_histogram: hist,
            ..RedundancySummary::default()
        });
        let rain = r.to_json_value().to_string();
        assert!(rain.contains("\"rain_reconstructions\":4"));
        assert!(rain.contains("\"scrub_rewrites\":2"));
        assert!(rain.contains("\"degraded_reads\":4"));
        assert!(rain.contains("\"retry_depth_histogram\":[40,0,3,0,0]"));
    }
}
