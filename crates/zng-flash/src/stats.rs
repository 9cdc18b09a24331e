//! Device-level flash statistics behind Figures 5b/5c, 11, 12 and 13.

use fxhash::FxHashMap;
use zng_types::{Cycle, Freq};

use crate::fault::MAX_READ_RETRIES;

/// Buckets in the read-retry depth histogram: one per possible depth of a
/// *successful* sense (0 retries through [`MAX_READ_RETRIES`] retries).
/// Reads that exhaust the ladder are counted by
/// [`FlashStats::uncorrectable_reads`] instead.
pub const RETRY_DEPTH_BUCKETS: usize = MAX_READ_RETRIES as usize + 1;

/// Smoothing factor for the per-die retry-depth EWMA: each sense folds
/// its ladder depth in with weight 1/16, so the average tracks the last
/// few dozen senses — fast enough to catch a degrading die inside its
/// window, slow enough to ride out single noisy reads.
pub const RETRY_EWMA_ALPHA: f64 = 1.0 / 16.0;

/// Per-die health telemetry: the SMART-style rollup a predictive health
/// monitor scores. Collected unconditionally (pure counters — no timing
/// or RNG effect), surfaced only when the health subsystem asks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DieHealth {
    /// Array senses served by this die.
    pub reads: u64,
    /// Total read-retry ladder steps burned by this die's senses.
    pub retry_steps: u64,
    /// Exponentially weighted moving average of retry depth per sense
    /// (see [`RETRY_EWMA_ALPHA`]).
    pub retry_ewma: f64,
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
    /// Senses charged against disturb counters on this die.
    pub disturb_reads: u64,
}

/// Per-logical-page access accounting plus aggregate byte counters.
///
/// * **read re-access** (Fig. 5b / Fig. 12) — average number of array
///   reads per distinct logical page; buffering (L2, registers) reduces
///   it.
/// * **write redundancy** (Fig. 5c / Fig. 13) — average number of array
///   programs per distinct logical page; register merging reduces it.
/// * **array bandwidth** (Fig. 11) — bytes sensed/programmed over time.
///
/// The per-page maps are on the device's hottest path (one update per
/// array sense/program); they use the deterministic Fx hasher, and all
/// consumers are either order-independent aggregates (sums, lens) or
/// explicitly sorted ([`FlashStats::die_health_sorted`]).
#[derive(Debug, Clone, Default)]
pub struct FlashStats {
    page_reads: FxHashMap<u64, u32>,
    page_programs: FxHashMap<u64, u32>,
    bytes_read: u64,
    bytes_programmed: u64,
    read_retries: u64,
    retry_depth: [u64; RETRY_DEPTH_BUCKETS],
    uncorrectable_reads: u64,
    program_failures: u64,
    erase_failures: u64,
    power_losses: u64,
    pages_torn: u64,
    silent_corruptions: u64,
    disturb_reads: u64,
    disturb_triggered_errors: u64,
    die_health: FxHashMap<(u16, u16), DieHealth>,
}

impl FlashStats {
    /// Creates empty statistics.
    pub fn new() -> FlashStats {
        FlashStats::default()
    }

    /// Records one array read of logical page `key` moving `bytes`.
    pub fn record_read(&mut self, key: u64, bytes: usize) {
        *self.page_reads.entry(key).or_insert(0) += 1;
        self.bytes_read += bytes as u64;
    }

    /// Records one array program of logical page `key` moving `bytes`.
    pub fn record_program(&mut self, key: u64, bytes: usize) {
        *self.page_programs.entry(key).or_insert(0) += 1;
        self.bytes_programmed += bytes as u64;
    }

    /// Records a GC-migration program: it consumes array bandwidth but is
    /// not *demand* write redundancy (the paper's Fig. 13 metric counts
    /// how often the same page is written by the workload).
    pub fn record_migration_program(&mut self, bytes: usize) {
        self.bytes_programmed += bytes as u64;
    }

    /// Records `n` read-retry ladder steps taken by one *successful*
    /// sense: `n` total steps are tallied and the sense lands in depth
    /// bucket `n` of the retry-depth histogram.
    pub fn record_read_retries(&mut self, n: u64) {
        self.read_retries += n;
        let bucket = (n as usize).min(RETRY_DEPTH_BUCKETS - 1);
        self.retry_depth[bucket] += 1;
    }

    /// Records a read that stayed uncorrectable through the whole retry
    /// ladder.
    pub fn record_uncorrectable_read(&mut self) {
        self.uncorrectable_reads += 1;
    }

    /// Records a program that failed verification.
    pub fn record_program_failure(&mut self) {
        self.program_failures += 1;
    }

    /// Records an erase that failed verification.
    pub fn record_erase_failure(&mut self) {
        self.erase_failures += 1;
    }

    /// Records a device-wide power loss that tore `pages_torn` pages.
    pub fn record_power_loss(&mut self, pages_torn: u64) {
        self.power_losses += 1;
        self.pages_torn += pages_torn;
    }

    /// Records a silent corruption: ECC reported success but the payload
    /// it delivered (or stored) is wrong. Invisible to the device; only
    /// the FTL's end-to-end checksum can catch it.
    pub fn record_silent_corruption(&mut self) {
        self.silent_corruptions += 1;
    }

    /// Records one read-disturb exposure: an array sense charged against
    /// a block's disturb counter (endurance tracking enabled only).
    pub fn record_disturb_read(&mut self) {
        self.disturb_reads += 1;
    }

    /// Records a read-error draw (retry step or miscorrection) that only
    /// failed because read-disturb amplification raised the block's error
    /// probability past what wear + retention alone justify.
    pub fn record_disturb_triggered_error(&mut self) {
        self.disturb_triggered_errors += 1;
    }

    /// Records one successful sense on a die: `retry_steps` ladder steps
    /// taken, folded into the die's retry-depth EWMA.
    pub fn record_die_read(&mut self, channel: u16, die: u16, retry_steps: u64) {
        let h = self.die_health.entry((channel, die)).or_default();
        h.reads += 1;
        h.retry_steps += retry_steps;
        h.retry_ewma += RETRY_EWMA_ALPHA * (retry_steps as f64 - h.retry_ewma);
    }

    /// Records an uncorrectable sense on a die: the whole ladder burned
    /// with nothing to show (the EWMA saturates toward the ladder depth).
    pub fn record_die_uncorrectable(&mut self, channel: u16, die: u16) {
        let h = self.die_health.entry((channel, die)).or_default();
        h.reads += 1;
        h.retry_steps += MAX_READ_RETRIES as u64;
        h.uncorrectable_reads += 1;
        h.retry_ewma += RETRY_EWMA_ALPHA * (MAX_READ_RETRIES as f64 - h.retry_ewma);
    }

    /// Records a page program attempted on a die and whether it failed
    /// verification.
    pub fn record_die_program(&mut self, channel: u16, die: u16, failed: bool) {
        let h = self.die_health.entry((channel, die)).or_default();
        h.programs += 1;
        h.program_failures += failed as u64;
    }

    /// Records a block erase attempted on a die and whether it failed
    /// verification (successful erases are the die's wear rollup).
    pub fn record_die_erase(&mut self, channel: u16, die: u16, failed: bool) {
        let h = self.die_health.entry((channel, die)).or_default();
        h.erases += !failed as u64;
        h.erase_failures += failed as u64;
    }

    /// Records a disturb-charged sense against a die.
    pub fn record_die_disturb(&mut self, channel: u16, die: u16) {
        self.die_health
            .entry((channel, die))
            .or_default()
            .disturb_reads += 1;
    }

    /// Health telemetry for one die (zeros if it never saw traffic).
    pub fn die_health(&self, channel: u16, die: u16) -> DieHealth {
        self.die_health
            .get(&(channel, die))
            .copied()
            .unwrap_or_default()
    }

    /// Every die with recorded telemetry, sorted by `(channel, die)` for
    /// deterministic output.
    pub fn die_health_sorted(&self) -> Vec<((u16, u16), DieHealth)> {
        let mut v: Vec<_> = self.die_health.iter().map(|(&k, &h)| (k, h)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Total read-retry ladder steps across all senses.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Read-retry depth histogram: `[d]` counts the successful senses
    /// that needed exactly `d` ladder steps. Deep-but-successful reads
    /// are the patrol scrubber's input signal — a page repeatedly landing
    /// in the high buckets is drifting toward uncorrectable.
    pub fn retry_depth_histogram(&self) -> [u64; RETRY_DEPTH_BUCKETS] {
        self.retry_depth
    }

    /// Reads declared ECC-uncorrectable after exhausting the ladder.
    pub fn uncorrectable_reads(&self) -> u64 {
        self.uncorrectable_reads
    }

    /// Programs that failed verification.
    pub fn program_failures(&self) -> u64 {
        self.program_failures
    }

    /// Erases that failed verification.
    pub fn erase_failures(&self) -> u64 {
        self.erase_failures
    }

    /// Power losses injected over the device's lifetime.
    pub fn power_losses(&self) -> u64 {
        self.power_losses
    }

    /// Pages torn by power losses over the device's lifetime.
    pub fn pages_torn(&self) -> u64 {
        self.pages_torn
    }

    /// Pages silently corrupted (ECC miscorrections) over the device's
    /// lifetime.
    pub fn silent_corruptions(&self) -> u64 {
        self.silent_corruptions
    }

    /// Array senses charged against per-block disturb counters.
    pub fn disturb_reads(&self) -> u64 {
        self.disturb_reads
    }

    /// Read errors attributable to disturb amplification alone.
    pub fn disturb_triggered_errors(&self) -> u64 {
        self.disturb_triggered_errors
    }

    /// Average array reads per distinct page (paper's "read re-access").
    pub fn mean_reads_per_page(&self) -> f64 {
        if self.page_reads.is_empty() {
            return 0.0;
        }
        let total: u64 = self.page_reads.values().map(|&c| c as u64).sum();
        total as f64 / self.page_reads.len() as f64
    }

    /// Average array programs per distinct page ("write redundancy").
    pub fn mean_programs_per_page(&self) -> f64 {
        if self.page_programs.is_empty() {
            return 0.0;
        }
        let total: u64 = self.page_programs.values().map(|&c| c as u64).sum();
        total as f64 / self.page_programs.len() as f64
    }

    /// Total array reads.
    pub fn total_reads(&self) -> u64 {
        self.page_reads.values().map(|&c| c as u64).sum()
    }

    /// Total array programs.
    pub fn total_programs(&self) -> u64 {
        self.page_programs.values().map(|&c| c as u64).sum()
    }

    /// Bytes sensed from flash arrays.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Bytes programmed into flash arrays.
    pub fn bytes_programmed(&self) -> u64 {
        self.bytes_programmed
    }

    /// Flash-array bandwidth achieved over the window `[0, now]` in GB/s
    /// (the Fig. 11 metric).
    pub fn array_gbps(&self, now: Cycle, freq: Freq) -> f64 {
        if now == Cycle::ZERO {
            return 0.0;
        }
        let secs = now.raw() as f64 / freq.hz();
        (self.bytes_read + self.bytes_programmed) as f64 / 1e9 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = FlashStats::new();
        assert_eq!(s.mean_reads_per_page(), 0.0);
        assert_eq!(s.mean_programs_per_page(), 0.0);
        assert_eq!(s.array_gbps(Cycle::ZERO, Freq::default()), 0.0);
    }

    #[test]
    fn reaccess_is_mean_reads_per_distinct_page() {
        let mut s = FlashStats::new();
        for _ in 0..10 {
            s.record_read(1, 4096);
        }
        s.record_read(2, 4096);
        s.record_read(3, 4096);
        // 12 reads over 3 pages = 4.0 mean.
        assert!((s.mean_reads_per_page() - 4.0).abs() < 1e-12);
        assert_eq!(s.total_reads(), 12);
        assert_eq!(s.bytes_read(), 12 * 4096);
    }

    #[test]
    fn write_redundancy_counts_programs() {
        let mut s = FlashStats::new();
        for _ in 0..5 {
            s.record_program(7, 4096);
        }
        assert!((s.mean_programs_per_page() - 5.0).abs() < 1e-12);
        assert_eq!(s.total_programs(), 5);
    }

    #[test]
    fn bandwidth_math() {
        let mut s = FlashStats::new();
        s.record_read(1, 1_000_000_000); // 1 GB
        let f = Freq::ghz(1.0);
        // 1 GB in 1e9 cycles at 1 GHz = 1 second -> 1 GB/s.
        assert!((s.array_gbps(Cycle(1_000_000_000), f) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disturb_counters_accumulate() {
        let mut s = FlashStats::new();
        assert_eq!(s.disturb_reads(), 0);
        assert_eq!(s.disturb_triggered_errors(), 0);
        s.record_disturb_read();
        s.record_disturb_read();
        s.record_disturb_triggered_error();
        assert_eq!(s.disturb_reads(), 2);
        assert_eq!(s.disturb_triggered_errors(), 1);
    }

    #[test]
    fn die_health_tracks_per_die_counters_and_ewma() {
        let mut s = FlashStats::new();
        assert_eq!(s.die_health(0, 0), DieHealth::default());
        s.record_die_read(0, 0, 0);
        s.record_die_read(0, 0, 4);
        s.record_die_uncorrectable(0, 0);
        s.record_die_program(0, 0, false);
        s.record_die_program(0, 0, true);
        s.record_die_erase(0, 0, false);
        s.record_die_erase(0, 0, true);
        s.record_die_disturb(0, 0);
        s.record_die_read(1, 3, 0);
        let h = s.die_health(0, 0);
        assert_eq!(h.reads, 3);
        assert_eq!(h.retry_steps, 4 + MAX_READ_RETRIES as u64);
        assert_eq!(h.uncorrectable_reads, 1);
        assert_eq!(h.programs, 2);
        assert_eq!(h.program_failures, 1);
        assert_eq!(h.erases, 1);
        assert_eq!(h.erase_failures, 1);
        assert_eq!(h.disturb_reads, 1);
        assert!(h.retry_ewma > 0.0, "retries must move the EWMA");
        // Quiet dies stay untracked; sorted view is deterministic.
        let sorted = s.die_health_sorted();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted[0].0, (0, 0));
        assert_eq!(sorted[1].0, (1, 3));
    }

    #[test]
    fn die_retry_ewma_converges_toward_sustained_depth() {
        let mut s = FlashStats::new();
        for _ in 0..200 {
            s.record_die_read(2, 1, 3);
        }
        let h = s.die_health(2, 1);
        assert!((h.retry_ewma - 3.0).abs() < 1e-3, "ewma {}", h.retry_ewma);
    }

    #[test]
    fn retry_depth_histogram_buckets_by_depth() {
        let mut s = FlashStats::new();
        s.record_read_retries(0);
        s.record_read_retries(0);
        s.record_read_retries(2);
        s.record_read_retries(99); // clamps into the deepest bucket
        let h = s.retry_depth_histogram();
        assert_eq!(h[0], 2);
        assert_eq!(h[2], 1);
        assert_eq!(h[RETRY_DEPTH_BUCKETS - 1], 1);
        assert_eq!(s.read_retries(), 101);
    }
}
