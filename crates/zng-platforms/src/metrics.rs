//! Per-run metrics: everything the paper's figures plot.

use std::collections::BTreeMap;

use zng_flash::RETRY_DEPTH_BUCKETS;
use zng_json::{SparseU64, Value};
use zng_sim::TimeSeries;
use zng_types::Cycle;

use crate::config::PlatformKind;

/// How a summary field reads as a JSON value and as a table cell, unless
/// its declaration gives the cell a formatter.
trait Field {
    fn json(&self) -> Value;
    fn cell(&self) -> String;
}

macro_rules! plain_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn json(&self) -> Value {
                Value::from(*self)
            }
            fn cell(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
plain_field!(u64, bool, f64);

impl Field for Cycle {
    fn json(&self) -> Value {
        Value::from(self.raw())
    }
    fn cell(&self) -> String {
        self.raw().to_string()
    }
}

impl<const N: usize> Field for [u64; N] {
    fn json(&self) -> Value {
        Value::from(self.to_vec())
    }
    fn cell(&self) -> String {
        self.map(|n| n.to_string()).join("/")
    }
}

/// Dies as `ch:die`.
impl Field for Vec<(u16, u16)> {
    fn json(&self) -> Value {
        let dies: Vec<String> = self.iter().map(|(c, d)| format!("{c}:{d}")).collect();
        Value::from(dies)
    }
    fn cell(&self) -> String {
        let dies: Vec<String> = self.iter().map(|(c, d)| format!("{c}:{d}")).collect();
        if dies.is_empty() {
            "none".into()
        } else {
            dies.join(",")
        }
    }
}

/// A run summary's output: its JSON entries and its table rows.
trait Summary {
    fn json_fields(&self, out: &mut Vec<(&'static str, Value)>);
    fn table_rows(&self, out: &mut Vec<(String, String)>);
}

/// A summary that did not run writes nothing.
impl<S: Summary> Summary for Option<S> {
    fn json_fields(&self, out: &mut Vec<(&'static str, Value)>) {
        if let Some(s) = self {
            s.json_fields(out);
        }
    }
    fn table_rows(&self, out: &mut Vec<(String, String)>) {
        if let Some(s) = self {
            s.table_rows(out);
        }
    }
}

/// Declares a run summary once: one line per field gives its name, type,
/// JSON key and table label. It generates the struct and the summary's
/// JSON entries and table rows, each in declaration order.
///
/// ```text
/// field: Type;                                  // no output: written by hand
/// field: Type => "json_key";                    // JSON only
/// field: Type => "json_key", "table label";     // JSON and a table row
/// field: Type => "json_key", "label" |s| cell;  // the row's cell from `s: &Self`
/// ```
///
/// Values and cells come from [`Field`]; a formatter builds composite
/// `a/b` cells (from fields declared without a label) and fixed-precision
/// floats.
macro_rules! summary {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty $(=> $key:literal $(, $label:literal $(|$s:ident| $cell:expr)?)?)?;
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl Summary for $name {
            fn json_fields(&self, out: &mut Vec<(&'static str, Value)>) {
                $($(out.push(($key, Field::json(&self.$field)));)?)*
            }

            fn table_rows(&self, out: &mut Vec<(String, String)>) {
                $($($(
                    let cell = summary!(@cell self, $field $(, $s $cell)?);
                    out.push(($label.into(), cell));
                )?)?)*
            }
        }
    };
    (@cell $this:expr, $field:ident) => {
        Field::cell(&$this.$field)
    };
    (@cell $this:expr, $field:ident, $s:ident $cell:expr) => {{
        let $s = $this;
        $cell
    }};
}

summary! {
    /// Aggregated overload-control observations for one run. Present in
    /// `RunResult` only when a non-default (bounded)
    /// [`QosConfig`](crate::QosConfig) ran, so default output stays
    /// byte-identical.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct QosSummary {
        /// Admissions refused across flash channels, network links and the
        /// SSD-module dispatcher.
        rejected: u64 => "qos_rejected", "qos rejected";
        /// Backoff retries the runner performed after rejections.
        retried: u64 => "qos_retried", "qos retried";
        /// Requests whose retry budget ran out (they then waited for the
        /// queue's hinted `retry_at` instead of backing off again).
        retry_budget_exhausted: u64 => "qos_retry_budget_exhausted", "qos budget exhausted";
        /// MSHR-full structural hazards resolved by bounded backoff.
        mshr_stalls: u64 => "qos_mshr_stalls", "qos MSHR stalls";
        /// Pinned-L2 overflow events degraded gracefully to register writes.
        pinned_overflow_stalls: u64 => "qos_pinned_overflow_stalls", "qos pinned overflows";
        /// Log-block merges that overran their blocking deadline.
        gc_deadline_misses: u64 => "qos_gc_deadline_misses", "qos GC deadline misses";
        /// Log-block merges that ran under pacing.
        paced_gcs: u64 => "qos_paced_gcs", "qos paced GCs";
        /// Merges whose stall credit ran out, releasing the victim app early.
        gc_credit_exhausted: u64 => "qos_gc_credit_exhausted", "qos GC credits exhausted";
        /// Warp-issue throttles taken by the fairness gate.
        fairness_throttles: u64 => "qos_fairness_throttles", "qos fairness throttles";
        /// Largest weighted service lead observed between apps.
        max_service_lag: u64 => "qos_max_service_lag", "qos max service lag";
        /// Largest in-flight population admitted to any bounded queue.
        max_queue_occupancy: u64 => "qos_max_queue_occupancy", "qos max queue occupancy";
        /// Exact read-latency percentiles (cycles) across all sectors.
        read_p50: u64 => "qos_read_p50", "read p50/p95/p99"
            |s| format!("{}/{}/{}", s.read_p50, s.read_p95, s.read_p99);
        /// 95th percentile read latency (cycles).
        read_p95: u64 => "qos_read_p95";
        /// 99th percentile read latency (cycles).
        read_p99: u64 => "qos_read_p99";
        /// Exact write-latency percentiles (cycles) across all sectors.
        write_p50: u64 => "qos_write_p50", "write p50/p95/p99"
            |s| format!("{}/{}/{}", s.write_p50, s.write_p95, s.write_p99);
        /// 95th percentile write latency (cycles).
        write_p95: u64 => "qos_write_p95";
        /// 99th percentile write latency (cycles).
        write_p99: u64 => "qos_write_p99";
    }
}

summary! {
    /// What a mid-run power cut and recovery looked like (`--crash-at`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CrashRecoverySummary {
        /// Completed requests when the power cut fired.
        at_requests: u64 => "crash_at_requests", "crash at request";
        /// Simulation time of the cut.
        at_cycle: Cycle => "crash_at_cycle", "crash at cycle";
        /// Programmed pages whose OOB metadata was scanned.
        pages_scanned: u64 => "crash_pages_scanned", "recovery pages scanned";
        /// Torn (mid-program) pages discarded.
        torn_discarded: u64 => "crash_torn_discarded", "recovery torn discarded";
        /// Superseded page versions dropped during winner resolution.
        stale_dropped: u64 => "crash_stale_dropped", "recovery stale dropped";
        /// Dead blocks erased back into the free pool.
        blocks_erased: u64 => "crash_blocks_erased", "recovery blocks erased";
        /// Modelled cost of the recovery scan.
        scan_cycles: Cycle => "crash_scan_cycles", "recovery scan cycles";
        // The rest is written by `RunResult`, and only beside the
        // integrity or checkpoint summary.
        /// Corrupt page copies quarantined by the scan (integrity mode).
        corrupt_quarantined: u64;
        /// The recovery took the checkpoint fast path (loaded the newest
        /// verified checkpoint, replayed the journal tail and rescanned only
        /// the blocks touched since).
        fast_path: bool;
        /// Checkpointing was on but the fast path was unusable (torn or
        /// aborted checkpoint, journal overflow or gap) and the recovery
        /// fell back to the full out-of-band scan.
        fallback: bool;
        /// Journal records replayed on the fast path.
        journal_replayed: u64;
        /// Blocks the fast path rescanned from the media (the rest came
        /// from the checkpoint image).
        blocks_rescanned: u64;
        /// Scan cycles the fast path saved versus the estimated full scan.
        cycles_saved: Cycle;
    }
}

impl CrashRecoverySummary {
    /// The recovery path taken, as a table cell.
    pub fn path(&self) -> &'static str {
        if self.fast_path {
            "fast (checkpoint+journal)"
        } else if self.fallback {
            "fallback (full scan)"
        } else {
            "full scan"
        }
    }
}

summary! {
    /// What the checkpoint writer did over the run (`--checkpoint`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CheckpointSummary {
        /// Checkpoint steps the runner scheduled.
        checkpoint_ticks: u64 => "checkpoint_ticks", "checkpoint ticks/taken"
            |s| format!("{}/{}", s.checkpoint_ticks, s.checkpoints);
        /// Checkpoints committed (payload chain + commit page verified).
        checkpoints: u64 => "checkpoints";
        /// Checkpoint payload/commit pages programmed.
        checkpoint_pages: u64 => "checkpoint_pages", "checkpoint pages";
        /// Delta-journal records appended between checkpoints.
        journal_records: u64 => "journal_records", "journal records/pages"
            |s| format!("{}/{}", s.journal_records, s.journal_pages);
        /// Journal pages programmed into the checkpoint namespace.
        journal_pages: u64 => "journal_pages";
        /// Checkpoint writes that outlived their pacing deadline.
        overruns: u64 => "checkpoint_overruns", "checkpoint overruns";
        /// Epochs whose journal outgrew the cap (fast path disabled until
        /// the next checkpoint).
        journal_overflows: u64 => "journal_overflows", "journal overflows";
        /// Checkpoint writes aborted by media failures or pool exhaustion
        /// (the previous epoch stayed in force).
        aborted: u64 => "checkpoints_aborted", "checkpoints aborted";
    }
}

summary! {
    /// What the end-to-end integrity subsystem did (`--integrity`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct IntegritySummary {
        /// Pages the media silently corrupted below the ECC model.
        silent_corruptions: u64 => "integrity_silent_corruptions", "silent corruptions";
        /// Checksum mismatches caught on the read path.
        detected: u64 => "integrity_detected", "integrity detected";
        /// Charged re-reads issued after a mismatch.
        rereads: u64 => "integrity_rereads", "integrity re-reads";
        /// Corrupt pages rebuilt from RAIN parity.
        reconstructed: u64 => "integrity_reconstructed", "integrity reconstructed";
        /// Corrupt copies quarantined (scrub + recovery, never resurrected).
        quarantined: u64 => "integrity_quarantined", "integrity quarantined";
        /// L2 lines poisoned after an unrecoverable integrity violation.
        poisoned_lines: u64 => "integrity_poisoned_lines", "poisoned L2 lines";
    }
}

summary! {
    /// What the redundancy & self-healing subsystem did (`--redundancy`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct RedundancySummary {
        /// Pages rebuilt from surviving stripe members on the read path.
        reconstructions: u64 => "rain_reconstructions", "rain reconstructions";
        /// Member senses issued by those reconstructions.
        reconstruction_reads: u64 => "rain_reconstruction_reads", "rain member reads";
        /// Parity pages flushed from helper-thread SRAM to flash.
        parity_pages: u64 => "rain_parity_pages", "rain parity pages";
        /// Patrol-scrub steps the runner scheduled.
        scrub_ticks: u64 => "scrub_ticks", "scrub ticks/scanned"
            |s| format!("{}/{}", s.scrub_ticks, s.scrub_scanned);
        /// Pages the patrol scrubber sensed.
        scrub_scanned: u64 => "scrub_scanned";
        /// Scrubbed pages proactively rewritten to fresh cells.
        scrub_rewrites: u64 => "scrub_rewrites", "scrub rewrites";
        /// Scrub steps whose media time overran the pacing budget.
        scrub_overruns: u64 => "scrub_overruns", "scrub overruns";
        /// Pages re-created onto spares by the post-failure rebuild.
        rebuild_pages: u64 => "rebuild_pages", "rebuild pages";
        /// Reconstructions forced by a dead home die (degraded mode).
        degraded_reads: u64 => "degraded_reads", "degraded reads";
        /// Blocks fenced out of service on dead dies.
        fenced_blocks: u64 => "fenced_blocks", "fenced blocks";
        /// Reads that targeted a dead die.
        dead_die_reads: u64 => "dead_die_reads", "dead-die reads";
        /// Transfers that detoured around a severed network link.
        rerouted_transfers: u64 => "rerouted_transfers", "rerouted transfers";
        /// Reads by retry-ladder depth (`[0]` = clean first sense; the last
        /// bucket also absorbs deeper retries).
        retry_depth_histogram: [u64; RETRY_DEPTH_BUCKETS]
            => "retry_depth_histogram", "retry depth 0..4+";
    }
}

summary! {
    /// What the device-lifetime endurance subsystem did (`--endurance`).
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct EnduranceSummary {
        /// Refresh-scheduler steps the runner scheduled.
        refresh_ticks: u64 => "endurance_refresh_ticks", "refresh ticks/refreshes"
            |s| format!("{}/{}", s.refresh_ticks, s.refreshes);
        /// Blocks rewritten to fresh cells by the refresh scheduler.
        refreshes: u64 => "endurance_refreshes";
        /// Refreshes triggered by the read-disturb budget.
        disturb_refreshes: u64 => "endurance_disturb_refreshes", "refresh disturb/retention"
            |s| format!("{}/{}", s.disturb_refreshes, s.retention_refreshes);
        /// Refreshes triggered by the retention-age budget.
        retention_refreshes: u64 => "endurance_retention_refreshes";
        /// Pages moved by those refreshes.
        refreshed_pages: u64 => "endurance_refreshed_pages", "refreshed pages";
        /// Static wear-levelling migrations (cold block → worn spare).
        level_migrations: u64 => "endurance_level_migrations", "level migrations";
        /// Pages moved by the static leveler.
        leveled_pages: u64 => "endurance_leveled_pages", "leveled pages";
        /// Refresh/levelling steps whose media time overran the pacing
        /// budget.
        refresh_overruns: u64 => "endurance_refresh_overruns", "refresh overruns";
        /// End-of-life capacity shrink steps taken instead of the hard
        /// worn-out cliff.
        capacity_steps: u64 => "endurance_capacity_steps", "capacity steps";
        /// Writes refused after capacity degraded (the device is read-only
        /// for new data; the workload keeps running).
        writes_refused: u64 => "endurance_writes_refused", "writes refused";
        /// Array senses charged against block disturb counters.
        disturb_reads: u64 => "endurance_disturb_reads", "disturb reads";
        /// Read errors attributable to accumulated disturb exposure.
        disturb_triggered_errors: u64 => "endurance_disturb_errors", "disturb-triggered errors";
        /// The worst-worn block's erase fraction (of the P/E limit).
        wear_max: f64 => "wear_max_fraction", "wear min/mean/max"
            |s| format!("{:.6}/{:.6}/{:.6}", s.wear_min, s.wear_mean, s.wear_max);
        /// Mean erase fraction across every block.
        wear_mean: f64 => "wear_mean_fraction";
        /// The least-worn block's erase fraction.
        wear_min: f64 => "wear_min_fraction";
        /// Wear spread (max/mean; 1.0 = perfectly even).
        wear_spread: f64 => "wear_spread", "wear spread" |s| format!("{:.2}", s.wear_spread);
    }
}

summary! {
    /// One die's lifetime telemetry rollup (the health monitor's raw feed).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct DieBreakdown {
        /// Channel index of the die.
        channel: u16;
        /// Die index within the channel.
        die: u16;
        /// Array senses served by this die.
        reads: u64 => "reads", "rd/retry/unc" |s| format!(
            "{}/{}/{} pgm {} (fail {}) erase {} (fail {})",
            s.reads, s.retry_steps, s.uncorrectable_reads, s.programs, s.program_failures,
            s.erases, s.erase_failures
        );
        /// Read-retry ladder steps burned by this die's senses.
        retry_steps: u64 => "retry_steps";
        /// Senses that stayed uncorrectable through the whole ladder.
        uncorrectable_reads: u64 => "uncorrectable_reads";
        /// Page programs attempted on this die.
        programs: u64 => "programs";
        /// Programs that failed verification.
        program_failures: u64 => "program_failures";
        /// Block erases completed on this die (the wear rollup).
        erases: u64 => "erases";
        /// Erases that failed verification.
        erase_failures: u64 => "erase_failures";
    }
}

summary! {
    /// What the predictive health monitor did (`--health`).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct HealthSummary {
        /// Monitor steps the runner scheduled.
        health_ticks: u64 => "health_ticks", "health ticks";
        /// Dies flagged as suspects (quarantined) over the run.
        suspects_flagged: u64 => "health_suspects_flagged", "suspects flagged";
        /// Live pages pre-emptively migrated off suspect dies.
        pages_evacuated: u64 => "health_pages_evacuated", "pages evacuated";
        /// Suspect dies fully drained of live data before dying.
        evacuations_completed: u64 => "health_evacuations_completed", "evacuations completed";
        /// Suspects whose telemetry recovered and were released.
        rehabilitations: u64 => "health_rehabilitations", "rehabilitations";
        /// Evacuation steps whose media time overran the pacing budget.
        evacuation_overruns: u64 => "health_evacuation_overruns", "evacuation overruns";
        /// Dies that died under monitoring and were fenced by the monitor.
        dead_dies_fenced: u64 => "health_dead_dies_fenced", "dead dies fenced";
        /// Dies still quarantined at the end of the run, sorted.
        quarantined: Vec<(u16, u16)> => "health_quarantined", "quarantined dies";
        /// Per-die telemetry rollups, sorted by (channel, die).
        per_die: Vec<DieBreakdown>;
    }
}

summary! {
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
        wall_seconds: f64 => "perf_wall_seconds", "sim wall seconds"
            |s| format!("{:.3}", s.wall_seconds);
        /// Events popped from the queue (every scheduled wake-up).
        events: u64 => "perf_events", "sim events";
        /// Events per host second (`events / wall_seconds`) — the headline
        /// sim-throughput number.
        events_per_sec: f64 => "perf_events_per_sec", "sim events/sec"
            |s| format!("{:.0}", s.events_per_sec);
        /// Largest pending-event population the queue ever held.
        peak_queue_depth: u64 => "perf_peak_queue_depth", "sim peak queue depth";
        /// Events that issued a compute segment.
        compute_events: u64 => "perf_compute_events", "sim compute/mem events"
            |s| format!("{}/{}", s.compute_events, s.mem_events);
        /// Events that issued a memory op (coalesced request batch).
        mem_events: u64 => "perf_mem_events";
        /// Events deferred because their app was blocked (GC / maintenance)
        /// or throttled by the fairness gate.
        blocked_events: u64 => "perf_blocked_events", "sim blocked/maint/skipped"
            |s| format!("{}/{}/{}", s.blocked_events, s.maintenance_events, s.skipped_events);
        /// Maintenance steps taken at event boundaries (crash recovery, die
        /// fencing, scrub, refresh, checkpoint, health ticks).
        maintenance_events: u64 => "perf_maintenance_events";
        /// Events for warps that had already retired (no-op wake-ups).
        skipped_events: u64 => "perf_skipped_events";
    }
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
        fn app_map<T: Field>(m: &BTreeMap<u16, T>) -> Value {
            Value::object(m.iter().map(|(k, v)| (k.to_string(), v.json())).collect())
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
            ("per_app_cycles", app_map(&self.per_app_cycles)),
            ("per_app_requests", app_map(&self.per_app_requests)),
            (
                "per_app_series",
                Value::object(
                    self.per_app_series
                        .iter()
                        .map(|(k, v)| {
                            (
                                k.to_string(),
                                Value::Sparse(SparseU64::new(v.len(), v.buckets())),
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
            q.json_fields(&mut fields);
            // Per-app latency breakdowns ride with the QoS summary so the
            // default output stays byte-stable across versions.
            fields.push(("per_app_read_latency", app_map(&self.per_app_read_latency)));
            fields.push((
                "per_app_write_latency",
                app_map(&self.per_app_write_latency),
            ));
        }
        if let Some(cr) = &self.crash_recovery {
            cr.json_fields(&mut fields);
            // Gated on the integrity summary so integrity-off crash runs
            // stay byte-identical to builds without this machinery.
            if self.integrity.is_some() {
                fields.push(("crash_corrupt_quarantined", cr.corrupt_quarantined.json()));
            }
            // Fast-path accounting rides with the checkpoint summary so
            // checkpoint-off crash runs stay byte-identical too.
            if self.checkpoint.is_some() {
                fields.push(("crash_fast_path", cr.fast_path.json()));
                fields.push(("crash_fallback", cr.fallback.json()));
                fields.push(("crash_journal_replayed", cr.journal_replayed.json()));
                fields.push(("crash_blocks_rescanned", cr.blocks_rescanned.json()));
                fields.push(("crash_cycles_saved", cr.cycles_saved.json()));
            }
        }
        self.redundancy.json_fields(&mut fields);
        self.integrity.json_fields(&mut fields);
        self.endurance.json_fields(&mut fields);
        self.checkpoint.json_fields(&mut fields);
        if let Some(h) = &self.health {
            h.json_fields(&mut fields);
            let per_die = h.per_die.iter().map(|d| {
                let mut counters = Vec::new();
                d.json_fields(&mut counters);
                (format!("{}:{}", d.channel, d.die), Value::object(counters))
            });
            fields.push(("per_die_health", Value::object(per_die.collect())));
        }
        self.perf.json_fields(&mut fields);
        Value::object(fields)
    }

    /// The result as `(metric, value)` rows (what `zng-cli run` prints):
    /// the headline metrics, then each summary that ran.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = [
            ("platform", self.platform.to_string()),
            ("workload", self.workload.clone()),
            ("IPC", format!("{:.4}", self.ipc)),
            ("instructions", self.instructions.to_string()),
            ("requests", self.requests.to_string()),
            ("cycles", self.cycles.raw().to_string()),
            ("simulated us", format!("{:.0}", self.simulated_us())),
            ("L1 hit", format!("{:.3}", self.l1_hit_rate)),
            ("L2 hit", format!("{:.3}", self.l2_hit_rate)),
            ("TLB hit", format!("{:.3}", self.tlb_hit_rate)),
            ("flash array GB/s", format!("{:.2}", self.flash_array_gbps)),
            (
                "flash reads/page",
                format!("{:.2}", self.flash_reads_per_page),
            ),
            (
                "flash programs/page",
                format!("{:.2}", self.flash_programs_per_page),
            ),
            (
                "predictor accuracy",
                format!("{:.3}", self.predictor_accuracy),
            ),
            ("GCs", self.gcs.to_string()),
            ("register migrations", self.register_migrations.to_string()),
            ("read retries", self.read_retries.to_string()),
            ("uncorrectable reads", self.uncorrectable_reads.to_string()),
            ("program failures", self.program_failures.to_string()),
            ("erase failures", self.erase_failures.to_string()),
            ("blocks retired", self.blocks_retired.to_string()),
            ("write re-drives", self.write_redrives.to_string()),
        ]
        .into_iter()
        .map(|(label, value)| (label.to_string(), value))
        .collect();
        if let Some(q) = &self.qos {
            q.table_rows(&mut rows);
            for (app, lat) in &self.per_app_read_latency {
                rows.push((format!("app{app} avg read lat"), format!("{lat:.0}")));
            }
            for (app, lat) in &self.per_app_write_latency {
                rows.push((format!("app{app} avg write lat"), format!("{lat:.0}")));
            }
        }
        self.redundancy.table_rows(&mut rows);
        if let Some(cr) = &self.crash_recovery {
            cr.table_rows(&mut rows);
            if self.integrity.is_some() {
                let quarantined = cr.corrupt_quarantined.cell();
                rows.push(("recovery corrupt quarantined".into(), quarantined));
            }
            if self.checkpoint.is_some() {
                rows.push(("recovery path".into(), cr.path().into()));
                rows.push((
                    "journal records replayed".into(),
                    cr.journal_replayed.cell(),
                ));
                rows.push(("blocks rescanned".into(), cr.blocks_rescanned.cell()));
                rows.push(("scan cycles saved".into(), cr.cycles_saved.cell()));
            }
        }
        self.integrity.table_rows(&mut rows);
        self.endurance.table_rows(&mut rows);
        self.checkpoint.table_rows(&mut rows);
        self.perf.table_rows(&mut rows);
        if let Some(h) = &self.health {
            h.table_rows(&mut rows);
            for d in &h.per_die {
                let mut die = Vec::new();
                d.table_rows(&mut die);
                let at = format!("die {}:{}", d.channel, d.die);
                rows.extend(
                    die.into_iter()
                        .map(|(label, v)| (format!("{at} {label}"), v)),
                );
            }
        }
        rows
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

    fn crash() -> CrashRecoverySummary {
        CrashRecoverySummary {
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
        }
    }

    /// Every summary is declared on its own, so nothing else stops two of
    /// them from claiming the same JSON key or table label.
    #[test]
    fn keys_and_labels_are_unique_with_every_summary_on() {
        let die = |channel, die| DieBreakdown {
            channel,
            die,
            ..DieBreakdown::default()
        };
        let r = RunResult {
            crash_recovery: Some(crash()),
            qos: Some(QosSummary::default()),
            redundancy: Some(RedundancySummary::default()),
            integrity: Some(IntegritySummary::default()),
            endurance: Some(EnduranceSummary::default()),
            checkpoint: Some(CheckpointSummary::default()),
            health: Some(HealthSummary {
                per_die: vec![die(0, 1), die(2, 0)],
                ..HealthSummary::default()
            }),
            perf: Some(PerfSummary::default()),
            ..result()
        };
        let json = r.to_json_value();
        let object = json.as_object().unwrap();
        let keys: Vec<&str> = object.iter().map(|(k, _)| k.as_str()).collect();
        let rows = r.table_rows();
        let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        for (what, names) in [("JSON key", keys), ("table label", labels)] {
            let mut seen = std::collections::BTreeSet::new();
            for name in &names {
                assert!(seen.insert(name), "{what} `{name}` is emitted twice");
            }
        }
        // Every summary, and each gated or hand-written part, is present.
        for key in [
            "qos_rejected",
            "per_app_write_latency",
            "crash_at_requests",
            "crash_corrupt_quarantined",
            "crash_cycles_saved",
            "rain_reconstructions",
            "integrity_detected",
            "wear_spread",
            "checkpoints_aborted",
            "health_quarantined",
            "per_die_health",
            "perf_skipped_events",
        ] {
            assert!(json.get(key).is_some(), "{key} missing");
        }
        for label in [
            "app1 avg write lat",
            "recovery corrupt quarantined",
            "scan cycles saved",
            "die 2:0 rd/retry/unc",
        ] {
            assert!(rows.iter().any(|(l, _)| l == label), "{label} missing");
        }
    }

    #[test]
    fn recovery_path_names_the_fallback() {
        let mut cr = crash();
        assert_eq!(cr.path(), "fast (checkpoint+journal)");
        cr.fast_path = false;
        assert_eq!(cr.path(), "full scan");
        cr.fallback = true;
        assert_eq!(cr.path(), "fallback (full scan)");
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
        let series = &json["per_app_series"];
        // The text is the dense array, every empty bucket included.
        let zeros = "0,".repeat(99_999);
        assert_eq!(
            series.to_string_compact(),
            format!(r#"{{"0":[2,{zeros}3],"1":[]}}"#)
        );
        assert_eq!(series["0"][0].as_u64(), Some(2));
        assert_eq!(series["0"][1].as_u64(), Some(0));
        assert_eq!(series["0"][99_999].as_u64(), Some(0));
        assert_eq!(series["0"][100_000].as_u64(), Some(3));
        assert_eq!(series["0"][100_001], Value::Null);
        assert_eq!(series["1"][0], Value::Null);
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
        r.crash_recovery = Some(crash());
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
