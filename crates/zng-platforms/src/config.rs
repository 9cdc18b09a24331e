//! Platform selection and simulation-wide configuration.

use zng_flash::{FaultConfig, FlashGeometry, RegisterTopology};
use zng_gpu::{GpuConfig, PrefetchPolicy};
use zng_ssd::PageBuffer;
use zng_types::{Error, Result};

use crate::qos::QosConfig;

/// Which GPU-SSD platform to simulate (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    /// Discrete GPU + SSD over PCIe, host-serviced page faults.
    Hetero,
    /// FlashGPU/HybridGPU: SSD module embedded in the GPU.
    HybridGpu,
    /// GPU DRAM replaced by Optane DC PMM behind six controllers.
    Optane,
    /// ZnG without read/write optimisations.
    ZngBase,
    /// ZnG-base + STT-MRAM L2 and dynamic read prefetch.
    ZngRdopt,
    /// ZnG-base + grouped flash registers (HW-NiF write buffering).
    ZngWropt,
    /// Full ZnG: rdopt + wropt + thrashing redirection into pinned L2.
    Zng,
    /// Unbounded GDDR5 holding the entire dataset (Fig. 15a reference).
    Ideal,
}

impl PlatformKind {
    /// The seven paper platforms in Fig. 10 order.
    pub const PAPER_PLATFORMS: [PlatformKind; 7] = [
        PlatformKind::Hetero,
        PlatformKind::HybridGpu,
        PlatformKind::Optane,
        PlatformKind::ZngBase,
        PlatformKind::ZngRdopt,
        PlatformKind::ZngWropt,
        PlatformKind::Zng,
    ];

    /// Whether this platform has a Z-NAND backbone (Fig. 11 applies).
    pub fn has_flash(self) -> bool {
        !matches!(self, PlatformKind::Optane | PlatformKind::Ideal)
    }

    /// Whether the ZnG read optimisation (STT-MRAM + prefetch) is on.
    pub fn has_rdopt(self) -> bool {
        matches!(self, PlatformKind::ZngRdopt | PlatformKind::Zng)
    }

    /// Whether the ZnG write optimisation (register grouping) is on.
    pub fn has_wropt(self) -> bool {
        matches!(self, PlatformKind::ZngWropt | PlatformKind::Zng)
    }

    /// Whether thrashing redirection into pinned L2 is on.
    pub fn has_redirection(self) -> bool {
        matches!(self, PlatformKind::Zng)
    }
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlatformKind::Hetero => "Hetero",
            PlatformKind::HybridGpu => "HybridGPU",
            PlatformKind::Optane => "Optane",
            PlatformKind::ZngBase => "ZnG-base",
            PlatformKind::ZngRdopt => "ZnG-rdopt",
            PlatformKind::ZngWropt => "ZnG-wropt",
            PlatformKind::Zng => "ZnG",
            PlatformKind::Ideal => "Ideal",
        };
        f.write_str(s)
    }
}

/// Simulation-wide configuration.
///
/// The default flash geometry is a *scaled* device (same 16 channels and
/// timing as Table I, fewer dies/blocks/pages) so whole-figure sweeps run
/// in seconds; `FlashGeometry::table1()` remains available for full-size
/// experiments. DESIGN.md §7 records this deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// GPU structure (L2 technology is overridden per platform).
    pub gpu: GpuConfig,
    /// Flash geometry.
    pub flash: FlashGeometry,
    /// Register interconnect for wropt platforms (Fig. 14 sweeps this).
    pub register_topology: RegisterTopology,
    /// Prefetch policy for rdopt platforms (Fig. 16b sweeps this).
    pub prefetch_policy: PrefetchPolicy,
    /// Access-monitor thresholds (high, low); Fig. 16a sweeps these.
    pub monitor_thresholds: (f64, f64),
    /// Data blocks sharing one log block (ZnG FTL).
    pub group_size: u64,
    /// HybridGPU internal DRAM buffer capacity in pages.
    pub buffer_pages: usize,
    /// Hetero's on-board GPU memory capacity in pages (page faults beyond
    /// this working set go to the SSD through the host).
    pub hetero_gpu_mem_pages: usize,
    /// When true, garbage collection completes instantly and without
    /// blocking (the "no-GC" counterfactual of Fig. 17a).
    pub free_gc: bool,
    /// Fault injection applied to the flash media (RBER model,
    /// read-retry, block retirement). Defaults to no faults.
    pub fault: FaultConfig,
    /// When `Some(n)`, cut power after the `n`-th completed request:
    /// all volatile state (mapping tables, flash registers, write
    /// buffers, pinned L2 lines) is dropped, the FTL recovers from the
    /// out-of-band scan, and the run resumes. `None` (default) never
    /// crashes and leaves results byte-identical to a crash-free build.
    pub crash_at: Option<u64>,
    /// Overload-control and QoS policy (bounded queues, backpressure
    /// retries, GC pacing, fair-share isolation). The default
    /// ([`QosConfig::unbounded`]) disables every mechanism and keeps
    /// output byte-identical to the unbounded simulator.
    pub qos: QosConfig,
    /// Redundancy & self-healing policy (RAIN parity, patrol scrub,
    /// die/link failure injection). The default
    /// ([`RedundancyConfig::off`]) disables everything and keeps output
    /// byte-identical to a redundancy-free build.
    pub redundancy: RedundancyConfig,
    /// End-to-end data integrity: silent-corruption injection below the
    /// ECC model, payload verification on every host/GPU-facing read, and
    /// poison containment in the caches. The default
    /// ([`IntegrityConfig::off`]) draws no randomness and keeps output
    /// byte-identical to an integrity-free build.
    pub integrity: IntegrityConfig,
    /// Device-lifetime endurance management: read-disturb and
    /// retention-age tracking in the media, a paced background refresh
    /// scheduler, static wear levelling, and graceful end-of-life
    /// capacity degradation. The default ([`EnduranceConfig::off`])
    /// tracks nothing, draws no randomness and keeps output
    /// byte-identical to an endurance-free build.
    pub endurance: EnduranceConfig,
    /// Bounded-time crash recovery: a background checkpoint writer that
    /// snapshots the FTL mapping into reserved checkpoint blocks, a
    /// write-ahead delta journal between checkpoints, and a verified
    /// fast-path restore that rescans only the blocks touched since the
    /// last checkpoint. The default ([`CheckpointConfig::off`]) writes
    /// nothing and keeps output byte-identical to a checkpoint-free
    /// build.
    pub checkpoint: CheckpointConfig,
    /// Predictive die-health monitoring: per-die telemetry scoring on a
    /// background tick, suspect-die quarantine (allocation fencing plus
    /// elevated read-retry budgets), optional pre-emptive evacuation of
    /// live data off suspects, and rehabilitation of false positives.
    /// The default ([`HealthConfig::off`]) monitors nothing and keeps
    /// output byte-identical to a health-free build.
    pub health: HealthConfig,
    /// Runner watchdog: when `Some(budget)`, a simulation that makes no
    /// forward progress (no request completes) within `budget` cycles
    /// fails with [`zng_types::Error::Stalled`] instead of spinning.
    /// `None` (the default) never trips.
    pub watchdog: Option<u64>,
    /// Simulator-throughput telemetry: when true, the runner records
    /// wall-clock time, event counts and peak queue depth and attaches a
    /// [`crate::PerfSummary`] to the result. Off (the default) attaches
    /// nothing, so emitted JSON stays byte-identical — the wall-clock
    /// numbers are inherently nondeterministic and must never reach a
    /// golden file.
    pub perf: bool,
}

/// Predictive health policy: a monitor tick that scores every die's
/// rolled-up telemetry (read-retry EWMA, program/erase verification
/// failures, uncorrectable senses), quarantines dies whose score crosses
/// the suspect threshold, optionally evacuates their live data onto
/// healthy spares before the die dies, and rehabilitates suspects whose
/// telemetry comes back clean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Master switch. Off (the default) installs no monitor, scores
    /// nothing and keeps runs byte-identical to a health-free build.
    pub enabled: bool,
    /// Monitor cadence: one health tick every `n` completed requests.
    /// `0` with `enabled` is rejected — a monitor that never ticks would
    /// silently never flag anything.
    pub every_ops: u64,
    /// Minimum lifetime observations (reads + programs) of a die before
    /// it can be accused; below this the sample is noise.
    pub window: u64,
    /// Health score in `(0, 1]` above which a die is quarantined.
    pub suspect_threshold: f64,
    /// Pre-emptively migrate live data off quarantined dies onto
    /// healthy spares (one victim block per tick, GC-paced).
    pub evacuate: bool,
}

impl HealthConfig {
    /// Everything off — the byte-identical default.
    pub fn off() -> HealthConfig {
        HealthConfig {
            enabled: false,
            every_ops: 0,
            window: 0,
            suspect_threshold: 0.0,
            evacuate: false,
        }
    }

    /// Monitoring on with the FTL's default window and threshold and no
    /// evacuation; pass the tick cadence in completed requests.
    pub fn on(every_ops: u64) -> HealthConfig {
        let d = zng_ftl::HealthPolicy::default();
        HealthConfig {
            enabled: true,
            every_ops,
            window: d.window,
            suspect_threshold: d.suspect_threshold,
            evacuate: false,
        }
    }

    /// The FTL-side policy.
    pub fn ftl(&self) -> zng_ftl::HealthPolicy {
        zng_ftl::HealthPolicy {
            window: self.window,
            suspect_threshold: self.suspect_threshold,
            evacuate: self.evacuate,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects monitor knobs without `enabled` (they would silently do
    /// nothing), an enabled monitor without a cadence or observation
    /// window, and suspect thresholds outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        let invalid = |why: &str| Error::InvalidConfig {
            what: "health".into(),
            why: why.into(),
        };
        if !self.enabled {
            if self.every_ops != 0
                || self.window != 0
                || self.suspect_threshold != 0.0
                || self.evacuate
            {
                return Err(invalid(
                    "window, threshold and evacuation knobs require health monitoring to be enabled",
                ));
            }
            return Ok(());
        }
        if self.every_ops == 0 {
            return Err(invalid(
                "an enabled health monitor needs a non-zero cadence",
            ));
        }
        if self.window == 0 {
            return Err(invalid(
                "a zero observation window would accuse dies on no evidence",
            ));
        }
        if !(self.suspect_threshold > 0.0 && self.suspect_threshold <= 1.0) {
            return Err(invalid("suspect threshold must be within (0, 1]"));
        }
        Ok(())
    }
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig::off()
    }
}

/// Bounded-time crash-recovery policy: mapping checkpoints into a
/// reserved flash namespace, a write-ahead delta journal appended on
/// every mapping mutation between checkpoints, and a fast-path restore
/// that loads the newest verified checkpoint, replays the journal tail
/// and rescans only the blocks programmed since — falling back to the
/// full out-of-band scan on any torn, corrupt or missing checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Master switch. Off (the default) programs no checkpoint pages,
    /// appends no journal and keeps runs byte-identical to a
    /// checkpoint-free build.
    pub enabled: bool,
    /// Checkpoint cadence: one background checkpoint write every `n`
    /// completed requests. `0` with `enabled` is rejected — a checkpoint
    /// subsystem that never checkpoints would silently journal forever.
    pub every_ops: u64,
    /// Journal records retained between checkpoints before the epoch is
    /// declared overflowed (its fast path falls back to the full scan
    /// until the next checkpoint). `0` means unbounded.
    pub journal_cap: u64,
}

impl CheckpointConfig {
    /// Everything off — the byte-identical default.
    pub fn off() -> CheckpointConfig {
        CheckpointConfig {
            enabled: false,
            every_ops: 0,
            journal_cap: 0,
        }
    }

    /// Checkpointing on with an unbounded journal; pass the cadence in
    /// completed requests per checkpoint.
    pub fn on(every_ops: u64) -> CheckpointConfig {
        CheckpointConfig {
            enabled: true,
            every_ops,
            journal_cap: 0,
        }
    }

    /// The FTL-side policy.
    pub fn ftl(&self) -> zng_ftl::CheckpointConfig {
        zng_ftl::CheckpointConfig {
            journal_cap: self.journal_cap,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects cadence/journal knobs without `enabled` (they would
    /// silently do nothing) and an enabled subsystem without a cadence
    /// (it would journal forever and never bound recovery).
    pub fn validate(&self) -> Result<()> {
        let invalid = |why: &str| Error::InvalidConfig {
            what: "checkpoint".into(),
            why: why.into(),
        };
        if !self.enabled {
            if self.every_ops != 0 || self.journal_cap != 0 {
                return Err(invalid(
                    "cadence and journal knobs require checkpointing to be enabled",
                ));
            }
            return Ok(());
        }
        if self.every_ops == 0 {
            return Err(invalid(
                "an enabled checkpoint subsystem needs a non-zero cadence",
            ));
        }
        Ok(())
    }
}

impl Default for CheckpointConfig {
    fn default() -> CheckpointConfig {
        CheckpointConfig::off()
    }
}

/// Device-lifetime endurance policy: per-block read-disturb counters and
/// retention ages in the flash media, a background refresh scheduler
/// paced by the GC stall-budget contract, static wear levelling that
/// migrates cold data off low-wear blocks, and stepwise capacity
/// degradation at end of life instead of the hard
/// [`zng_types::Error::DeviceWornOut`] cliff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceConfig {
    /// Master switch. Off (the default) installs no tracking, runs no
    /// refresh and keeps runs byte-identical to an endurance-free build.
    pub enabled: bool,
    /// Refresh cadence: one scheduler step every `n` completed requests.
    /// `0` disables the background scheduler (wear tracking and graceful
    /// capacity degradation still apply).
    pub refresh_every_ops: u64,
    /// Read-disturb budget: a block whose accumulated array senses reach
    /// this count is rewritten to fresh cells. `0` disables the trigger.
    pub disturb_threshold: u64,
    /// Retention budget in device cycles: a block whose oldest data has
    /// sat unprogrammed this long is rewritten. `0` disables the trigger.
    pub retention_threshold: u64,
    /// Static-levelling trigger: when the device's wear spread (max/mean
    /// erase fraction) exceeds this ratio, cold data migrates off
    /// low-wear blocks. `0.0` disables levelling.
    pub wear_spread: f64,
}

impl EnduranceConfig {
    /// Everything off — the byte-identical default.
    pub fn off() -> EnduranceConfig {
        EnduranceConfig {
            enabled: false,
            refresh_every_ops: 0,
            disturb_threshold: 0,
            retention_threshold: 0,
            wear_spread: 0.0,
        }
    }

    /// Endurance on with the scheduler's default thresholds; pass the
    /// refresh cadence (`0` = tracking and graceful EOL only).
    pub fn on(refresh_every_ops: u64) -> EnduranceConfig {
        let d = zng_ftl::RefreshPolicy::default();
        EnduranceConfig {
            enabled: true,
            refresh_every_ops,
            disturb_threshold: d.disturb_threshold,
            retention_threshold: d.retention_threshold,
            wear_spread: d.wear_spread,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects refresh/levelling knobs without `enabled` (they would
    /// silently do nothing) and wear-spread ratios below 1 (max/mean
    /// erase fraction can never be smaller than one).
    pub fn validate(&self) -> Result<()> {
        let invalid = |why: &str| Error::InvalidConfig {
            what: "endurance".into(),
            why: why.into(),
        };
        if !self.enabled {
            if self.refresh_every_ops != 0
                || self.disturb_threshold != 0
                || self.retention_threshold != 0
                || self.wear_spread != 0.0
            {
                return Err(invalid(
                    "refresh and levelling knobs require endurance to be enabled",
                ));
            }
            return Ok(());
        }
        if self.wear_spread.is_nan() || (self.wear_spread != 0.0 && self.wear_spread < 1.0) {
            return Err(invalid(
                "wear-spread trigger is a max/mean ratio: use 0 to disable or a value >= 1",
            ));
        }
        Ok(())
    }
}

impl Default for EnduranceConfig {
    fn default() -> EnduranceConfig {
        EnduranceConfig::off()
    }
}

/// End-to-end data-integrity policy: silent-corruption injection in the
/// flash arrays (miscorrections below the ECC model), per-page payload
/// checksums verified on every host/GPU-facing read, and poisoning of
/// cache lines fed by data that failed verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Master switch for *verification*. Off (the default) computes no
    /// checksums and keeps runs byte-identical to an integrity-free
    /// build.
    pub enabled: bool,
    /// Base probability that a successful array sense returns silently
    /// miscorrected data, scaled up by wear and retention age. `0.0`
    /// (the default) disables the stochastic stream — zero RNG draws.
    pub sdc_rate: f64,
    /// When `Some(n)`, the page stamped with device program sequence `n`
    /// is deterministically written corrupted — a zero-RNG single-shot
    /// for reproducible experiments.
    pub sdc_at: Option<u64>,
    /// Seed for the per-plane SDC streams (salted so they never overlap
    /// the RBER fault streams).
    pub seed: u64,
}

impl IntegrityConfig {
    /// Everything off — the byte-identical default.
    pub fn off() -> IntegrityConfig {
        IntegrityConfig {
            enabled: false,
            sdc_rate: 0.0,
            sdc_at: None,
            seed: 42,
        }
    }

    /// Verification on with one deterministic corrupted program.
    pub fn with_shot(sdc_at: u64) -> IntegrityConfig {
        IntegrityConfig {
            enabled: true,
            sdc_at: Some(sdc_at),
            ..IntegrityConfig::off()
        }
    }

    /// The device-side injection knobs in `zng-flash` vocabulary.
    pub fn sdc(&self) -> zng_flash::SdcConfig {
        zng_flash::SdcConfig {
            rate: self.sdc_rate,
            sdc_at: self.sdc_at,
            seed: self.seed,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Rejects injection without `enabled` (silent corruption that
    /// nothing verifies would be an undetectable foot-gun) and rates
    /// outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        let invalid = |why: &str| Error::InvalidConfig {
            what: "integrity".into(),
            why: why.into(),
        };
        if !self.enabled && (self.sdc_rate != 0.0 || self.sdc_at.is_some()) {
            return Err(invalid(
                "silent-corruption injection requires integrity verification to be enabled",
            ));
        }
        if !(0.0..=1.0).contains(&self.sdc_rate) || self.sdc_rate.is_nan() {
            return Err(invalid("sdc rate must be within [0, 1]"));
        }
        Ok(())
    }
}

impl Default for IntegrityConfig {
    fn default() -> IntegrityConfig {
        IntegrityConfig::off()
    }
}

/// Redundancy & self-healing policy: RAIN stripe parity across channels,
/// reconstruction-on-read, background patrol scrub, and die/link failure
/// injection with degraded-mode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundancyConfig {
    /// Master switch. Off (the default) adds no parity bookkeeping, no
    /// scrub and no failure hooks — runs are byte-identical to a build
    /// without the subsystem.
    pub enabled: bool,
    /// Patrol-scrub cadence: one scrub step every `n` completed
    /// requests. `0` disables the patrol (reconstruction-on-read still
    /// works).
    pub scrub_every_ops: u64,
    /// Read-retry depth at or above which the scrubber proactively
    /// rewrites a page.
    pub scrub_threshold: u32,
    /// When `Some(n)`, kill one die after the `n`-th completed request:
    /// its blocks are fenced, reads reconstruct from the surviving
    /// stripe members, and the run ends with a rebuild onto spares.
    pub die_fail_at: Option<u64>,
    /// Which die dies: `(channel, die-within-channel)`.
    pub die_fail: (u16, u16),
    /// When `Some(ch)`, sever channel `ch`'s mesh link at the start of
    /// the run; its transfers detour through a neighbour.
    pub link_fail: Option<u16>,
}

impl RedundancyConfig {
    /// Everything off — the byte-identical default.
    pub fn off() -> RedundancyConfig {
        RedundancyConfig {
            enabled: false,
            scrub_every_ops: 0,
            scrub_threshold: 2,
            die_fail_at: None,
            die_fail: (0, 0),
            link_fail: None,
        }
    }

    /// RAIN on with the default scrub threshold and no injected
    /// failures; pass the patrol cadence (`0` = no patrol).
    pub fn rain(scrub_every_ops: u64) -> RedundancyConfig {
        RedundancyConfig {
            enabled: true,
            scrub_every_ops,
            ..RedundancyConfig::off()
        }
    }

    /// Validates against the flash geometry.
    ///
    /// # Errors
    ///
    /// Rejects failure injection or scrubbing without `enabled`, parity
    /// on a single-channel device, and out-of-range die/link targets.
    pub fn validate(&self, flash: &FlashGeometry) -> Result<()> {
        let invalid = |what: &str, why: &str| Error::InvalidConfig {
            what: what.into(),
            why: why.into(),
        };
        if !self.enabled {
            if self.die_fail_at.is_some() || self.link_fail.is_some() || self.scrub_every_ops != 0 {
                return Err(invalid(
                    "redundancy",
                    "die/link failure and patrol scrub require redundancy to be enabled",
                ));
            }
            return Ok(());
        }
        if flash.channels < 2 {
            return Err(invalid(
                "redundancy",
                "RAIN parity needs at least two channels to stripe across",
            ));
        }
        let dies = flash.packages_per_channel * flash.dies_per_package;
        if self.die_fail_at.is_some()
            && (self.die_fail.0 as usize >= flash.channels || self.die_fail.1 as usize >= dies)
        {
            return Err(invalid("die_fail", "die-fail target outside the geometry"));
        }
        if let Some(ch) = self.link_fail {
            if ch as usize >= flash.channels {
                return Err(invalid(
                    "link_fail",
                    "link-fail channel outside the geometry",
                ));
            }
        }
        Ok(())
    }
}

impl Default for RedundancyConfig {
    fn default() -> RedundancyConfig {
        RedundancyConfig::off()
    }
}

impl SimConfig {
    /// The default scaled configuration used by the benches.
    pub fn scaled() -> SimConfig {
        // Scaled device: same channels/timing as Table I, fewer
        // dies/blocks/pages so figure sweeps run in seconds. The register
        // count per plane is doubled to keep the *per-package* register
        // capacity proportional to the (scaled) hot write set, matching
        // the full-size device's ratio.
        let flash = FlashGeometry {
            channels: 16,
            packages_per_channel: 1,
            dies_per_package: 4,
            planes_per_die: 4,
            blocks_per_plane: 128,
            pages_per_block: 64,
            page_bytes: 4096,
            registers_per_plane: 16,
            io_ports_per_package: 2,
        };
        SimConfig {
            gpu: GpuConfig::table1(),
            flash,
            register_topology: RegisterTopology::NiF,
            prefetch_policy: PrefetchPolicy::Dynamic,
            monitor_thresholds: (0.3, 0.05),
            // One log block per data block: the scaled device has OP
            // headroom, and coarser sharing makes log blocks fill (and GC
            // fire) after a few thousand writes — far earlier than the
            // paper's full-size device would. GC studies explicitly set
            // group_size = 2 and fewer registers to exercise the path.
            group_size: 1,
            buffer_pages: 4096,
            hetero_gpu_mem_pages: 1024,
            free_gc: false,
            fault: FaultConfig::none(),
            crash_at: None,
            qos: QosConfig::unbounded(),
            redundancy: RedundancyConfig::off(),
            integrity: IntegrityConfig::off(),
            endurance: EnduranceConfig::off(),
            checkpoint: CheckpointConfig::off(),
            health: HealthConfig::off(),
            watchdog: None,
            perf: false,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> SimConfig {
        let mut cfg = SimConfig::scaled();
        cfg.gpu = GpuConfig::tiny();
        cfg.flash = FlashGeometry::tiny();
        cfg.buffer_pages = 64;
        cfg.hetero_gpu_mem_pages = 32;
        cfg
    }

    /// Validates the combined configuration.
    ///
    /// # Errors
    ///
    /// Propagates GPU/flash validation errors.
    pub fn validate(&self) -> Result<()> {
        self.gpu.validate()?;
        self.flash.validate()?;
        self.qos.validate()?;
        self.redundancy.validate(&self.flash)?;
        self.integrity.validate()?;
        self.endurance.validate()?;
        self.checkpoint.validate()?;
        self.health.validate()?;
        if let Some(d) = self.fault.degrading {
            d.validate()?;
            let dies = self.flash.packages_per_channel * self.flash.dies_per_package;
            if d.channel as usize >= self.flash.channels || d.die as usize >= dies {
                return Err(Error::InvalidConfig {
                    what: "degrading die".into(),
                    why: "degrading-die target outside the geometry".into(),
                });
            }
        }
        if self.watchdog == Some(0) {
            return Err(Error::InvalidConfig {
                what: "watchdog".into(),
                why: "a zero-cycle progress budget would trip immediately".into(),
            });
        }
        for (what, pages) in [
            ("buffer_pages", self.buffer_pages),
            ("hetero_gpu_mem_pages", self.hetero_gpu_mem_pages),
        ] {
            if pages == 0 || pages > PageBuffer::MAX_CAPACITY {
                return Err(Error::InvalidConfig {
                    what: what.into(),
                    why: format!(
                        "a page buffer holds 1..={} pages, got {pages}",
                        PageBuffer::MAX_CAPACITY
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_flags() {
        assert!(PlatformKind::Zng.has_rdopt());
        assert!(PlatformKind::Zng.has_wropt());
        assert!(PlatformKind::Zng.has_redirection());
        assert!(PlatformKind::ZngRdopt.has_rdopt());
        assert!(!PlatformKind::ZngRdopt.has_wropt());
        assert!(PlatformKind::ZngWropt.has_wropt());
        assert!(!PlatformKind::ZngWropt.has_redirection());
        assert!(!PlatformKind::Optane.has_flash());
        assert!(PlatformKind::HybridGpu.has_flash());
        assert!(!PlatformKind::Ideal.has_flash());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(PlatformKind::ZngBase.to_string(), "ZnG-base");
        assert_eq!(PlatformKind::HybridGpu.to_string(), "HybridGPU");
    }

    #[test]
    fn seven_paper_platforms() {
        assert_eq!(PlatformKind::PAPER_PLATFORMS.len(), 7);
    }

    #[test]
    fn configs_validate() {
        SimConfig::scaled().validate().unwrap();
        SimConfig::tiny().validate().unwrap();
        let mut bad = SimConfig::tiny();
        bad.flash.channels = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn redundancy_validation_rules() {
        let mut cfg = SimConfig::tiny();
        cfg.redundancy = RedundancyConfig::rain(100);
        cfg.validate().unwrap();

        // Failure injection without the master switch is rejected.
        let mut orphan = SimConfig::tiny();
        orphan.redundancy.die_fail_at = Some(5);
        assert!(orphan.validate().is_err());

        // Parity needs at least two channels.
        let mut narrow = SimConfig::tiny();
        narrow.redundancy = RedundancyConfig::rain(0);
        narrow.flash.channels = 1;
        assert!(narrow.validate().is_err());

        // Die/link targets must exist.
        let mut off_die = SimConfig::tiny();
        off_die.redundancy = RedundancyConfig::rain(0);
        off_die.redundancy.die_fail_at = Some(1);
        off_die.redundancy.die_fail = (99, 0);
        assert!(off_die.validate().is_err());
        let mut off_link = SimConfig::tiny();
        off_link.redundancy = RedundancyConfig::rain(0);
        off_link.redundancy.link_fail = Some(99);
        assert!(off_link.validate().is_err());
    }

    #[test]
    fn integrity_validation_rules() {
        let mut cfg = SimConfig::tiny();
        cfg.integrity = IntegrityConfig {
            enabled: true,
            sdc_rate: 1e-4,
            ..IntegrityConfig::off()
        };
        cfg.validate().unwrap();
        cfg.integrity = IntegrityConfig::with_shot(7);
        cfg.validate().unwrap();

        // Injection without verification is rejected.
        let mut orphan = SimConfig::tiny();
        orphan.integrity.sdc_rate = 1e-4;
        assert!(orphan.validate().is_err());
        let mut shot = SimConfig::tiny();
        shot.integrity.sdc_at = Some(3);
        assert!(shot.validate().is_err());

        // The rate is a probability.
        let mut hot = SimConfig::tiny();
        hot.integrity = IntegrityConfig {
            enabled: true,
            sdc_rate: 1.5,
            ..IntegrityConfig::off()
        };
        assert!(hot.validate().is_err());
    }

    #[test]
    fn endurance_validation_rules() {
        let mut cfg = SimConfig::tiny();
        cfg.endurance = EnduranceConfig::on(64);
        cfg.validate().unwrap();
        cfg.endurance.refresh_every_ops = 0;
        cfg.validate().unwrap();

        // Orphan knobs without the master switch are rejected.
        let mut orphan = SimConfig::tiny();
        orphan.endurance.refresh_every_ops = 64;
        assert!(orphan.validate().is_err());
        let mut orphan = SimConfig::tiny();
        orphan.endurance.disturb_threshold = 100;
        assert!(orphan.validate().is_err());
        let mut orphan = SimConfig::tiny();
        orphan.endurance.wear_spread = 2.0;
        assert!(orphan.validate().is_err());

        // The levelling trigger is a max/mean ratio.
        let mut low = SimConfig::tiny();
        low.endurance = EnduranceConfig::on(0);
        low.endurance.wear_spread = 0.5;
        assert!(low.validate().is_err());
        low.endurance.wear_spread = 0.0;
        low.validate().unwrap();
    }

    #[test]
    fn checkpoint_validation_rules() {
        let mut cfg = SimConfig::tiny();
        cfg.checkpoint = CheckpointConfig::on(64);
        cfg.validate().unwrap();
        cfg.checkpoint.journal_cap = 256;
        cfg.validate().unwrap();

        // Orphan knobs without the master switch are rejected.
        let mut orphan = SimConfig::tiny();
        orphan.checkpoint.every_ops = 64;
        assert!(orphan.validate().is_err());
        let mut orphan = SimConfig::tiny();
        orphan.checkpoint.journal_cap = 256;
        assert!(orphan.validate().is_err());

        // Enabled checkpointing needs a cadence.
        let mut idle = SimConfig::tiny();
        idle.checkpoint.enabled = true;
        assert!(idle.validate().is_err());
    }

    #[test]
    fn health_validation_rules() {
        let mut cfg = SimConfig::tiny();
        cfg.health = HealthConfig::on(64);
        cfg.validate().unwrap();
        cfg.health.evacuate = true;
        cfg.validate().unwrap();

        // Orphan knobs without the master switch are rejected.
        let mut orphan = SimConfig::tiny();
        orphan.health.window = 64;
        assert!(orphan.validate().is_err());
        let mut orphan = SimConfig::tiny();
        orphan.health.evacuate = true;
        assert!(orphan.validate().is_err());
        let mut orphan = SimConfig::tiny();
        orphan.health.suspect_threshold = 0.2;
        assert!(orphan.validate().is_err());

        // An enabled monitor needs a cadence, a window and a sane
        // threshold.
        let mut idle = SimConfig::tiny();
        idle.health = HealthConfig::on(0);
        assert!(idle.validate().is_err());
        let mut blind = SimConfig::tiny();
        blind.health = HealthConfig::on(64);
        blind.health.window = 0;
        assert!(blind.validate().is_err());
        let mut hot = SimConfig::tiny();
        hot.health = HealthConfig::on(64);
        hot.health.suspect_threshold = 1.5;
        assert!(hot.validate().is_err());
    }

    #[test]
    fn degrading_die_target_is_geometry_checked() {
        let mut cfg = SimConfig::tiny();
        cfg.fault = FaultConfig::none().with_degrading(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset: 100,
            death: 200,
        });
        cfg.validate().unwrap();
        cfg.fault.degrading = Some(zng_flash::DegradingDie {
            channel: 99,
            die: 0,
            onset: 100,
            death: 200,
        });
        assert!(cfg.validate().is_err());
        cfg.fault.degrading = Some(zng_flash::DegradingDie {
            channel: 0,
            die: 0,
            onset: 200,
            death: 200,
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn watchdog_rejects_zero_budget() {
        let mut cfg = SimConfig::tiny();
        cfg.watchdog = Some(0);
        assert!(cfg.validate().is_err());
        cfg.watchdog = Some(1_000_000);
        cfg.validate().unwrap();
    }
}
