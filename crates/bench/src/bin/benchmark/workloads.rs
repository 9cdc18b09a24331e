//! The five benchmark workloads.
//!
//! Each one is a Table II mix on one of the paper's platforms, sized so
//! a repetition takes a few host seconds. The seed reaches only
//! [`TraceParams::seed`]; the simulator sees nothing but the generated
//! mix and the fixed configuration below.
//!
//! A run's repetitions run different mixes derived from its seed. How
//! much host work a mix costs depends on its seed (the interquartile
//! range of single mixes' host time is 0.09–0.17 of the median; see
//! `BASELINE.md`), so a run that measured one mix would report that
//! mix, not the workload.

use zng_flash::FaultConfig;
use zng_platforms::{
    CheckpointConfig, EnduranceConfig, HealthConfig, IntegrityConfig, PlatformKind, QosConfig,
    RedundancyConfig, SimConfig,
};
use zng_workloads::TraceParams;

/// Maintenance cadence of `maint`, in completed requests.
const MAINT_EVERY: u64 = 4096;
/// Checkpoint cadence of `maint`, in completed requests.
const MAINT_CHECKPOINT_EVERY: u64 = 16_384;
/// Queue depth of `qos-overload` (the CLI's bare `--qos` preset).
const QOS_DEPTH: usize = 16;
/// Trace seeds per run seed: mix `m` of run seed `s` has trace seed
/// `s × MIXES_PER_SEED + m`, so no two run seeds share one.
const MIXES_PER_SEED: u64 = 1 << 16;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub platform: PlatformKind,
    pub mix: &'static [&'static str],
    /// Warps per application.
    pub warps: usize,
    /// Memory operations per warp.
    pub ops: usize,
    /// Footprint per application, in 4 KiB pages.
    pub footprint: usize,
    /// Power cut after this many completed requests (`maint` only).
    pub crash_at: Option<u64>,
    kind: Extra,
}

/// The configuration a workload adds to [`SimConfig::scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Extra {
    None,
    Maintenance,
    Qos,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "graph-read",
        why: "read-heavy graph mix that mostly fits in L2: host time goes to the GPU model and the flash read path, the FTL is idle",
        platform: PlatformKind::Zng,
        mix: &["betw", "bfs2", "pr", "gc1"],
        warps: 256,
        ops: 1500,
        footprint: 2048,
        crash_at: None,
        kind: Extra::None,
    },
    Workload {
        name: "sci-write",
        why: "write-heavy scientific mix far larger than L2: ZngFtl log/merge GC and flash register programs do the work",
        platform: PlatformKind::Zng,
        mix: &["back", "gaus", "FDT", "gram"],
        warps: 256,
        ops: 1250,
        footprint: 16_384,
        crash_at: None,
        kind: Extra::None,
    },
    Workload {
        name: "hybrid-ssd",
        why: "the prior-work HybridGPU baseline: the same flash through the SSD module (dispatcher, engine, DRAM buffer) and PageMapFtl",
        platform: PlatformKind::HybridGpu,
        mix: &["betw", "back"],
        warps: 256,
        ops: 1000,
        footprint: 16_384,
        crash_at: None,
        kind: Extra::None,
    },
    Workload {
        name: "maint",
        why: "write mix with nominal faults, scrub, integrity, refresh, checkpoints, health and a crash: the maintenance stack and fast-path recovery",
        platform: PlatformKind::Zng,
        mix: &["back", "gaus", "FDT", "gram"],
        warps: 256,
        ops: 750,
        footprint: 8192,
        crash_at: Some(500_000),
        kind: Extra::Maintenance,
    },
    Workload {
        name: "qos-overload",
        why: "the write mix under bounded admission control: backpressure and retry, the fairness gate and bounded MSHRs",
        platform: PlatformKind::Zng,
        mix: &["back", "gaus", "FDT", "gram"],
        warps: 128,
        ops: 250,
        footprint: 16_384,
        crash_at: None,
        kind: Extra::Qos,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Trace parameters of mix `mix` of a run with seed `seed`.
    pub fn params(&self, seed: u64, mix: u32) -> TraceParams {
        TraceParams {
            total_warps: self.warps,
            mem_ops_per_warp: self.ops,
            footprint_pages: self.footprint,
            seed: seed
                .wrapping_mul(MIXES_PER_SEED)
                .wrapping_add(u64::from(mix) % MIXES_PER_SEED),
        }
    }

    /// The simulator configuration: the CLI's default scaled platform
    /// plus this workload's subsystems, with wall-clock telemetry on.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::scaled();
        cfg.perf = true;
        cfg.crash_at = self.crash_at;
        match self.kind {
            Extra::None => {}
            Extra::Maintenance => {
                cfg.fault = FaultConfig::nominal();
                cfg.redundancy = RedundancyConfig::rain(MAINT_EVERY);
                cfg.integrity = IntegrityConfig {
                    enabled: true,
                    ..IntegrityConfig::off()
                };
                cfg.endurance = EnduranceConfig::on(MAINT_EVERY);
                cfg.checkpoint = CheckpointConfig::on(MAINT_CHECKPOINT_EVERY);
                cfg.health = HealthConfig::on(MAINT_EVERY);
            }
            Extra::Qos => cfg.qos = QosConfig::bounded(QOS_DEPTH),
        }
        cfg
    }

    /// Whether the maintenance checks apply.
    pub fn is_maintenance(&self) -> bool {
        self.kind == Extra::Maintenance
    }

    /// A copy at a fortieth of the volume (an eighth of the warps, a
    /// fifth of the ops), for the smoke test. The crash point moves to a
    /// twentieth, so `maint` still crashes after its first checkpoint
    /// (16 384 requests) and before its ~33 000 requests end.
    #[cfg(test)]
    pub fn reduced(&self) -> Workload {
        Workload {
            warps: self.warps / 8,
            ops: self.ops / 5,
            crash_at: self.crash_at.map(|c| c / 20),
            ..self.clone()
        }
    }
}
