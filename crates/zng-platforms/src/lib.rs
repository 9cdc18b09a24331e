//! The seven GPU-SSD platforms of the paper (§V-A) plus the `Ideal`
//! baseline, and the event-driven simulation runner.
//!
//! | Platform | Paper id | Memory backend |
//! |---|---|---|
//! | [`PlatformKind::Hetero`] | (1) | discrete GPU + NVMe SSD over PCIe, host-serviced page faults |
//! | [`PlatformKind::HybridGpu`] | (2) | embedded SSD module (dispatcher + engine + DRAM buffer + ONFI bus) |
//! | [`PlatformKind::Optane`] | (3) | six Optane DC PMM controllers |
//! | [`PlatformKind::ZngBase`] | (4) | direct flash controllers, no read/write optimisation |
//! | [`PlatformKind::ZngRdopt`] | (5) | + STT-MRAM L2 with dynamic prefetch |
//! | [`PlatformKind::ZngWropt`] | (6) | + grouped flash registers (HW-NiF) |
//! | [`PlatformKind::Zng`] | (7) | both optimisations + thrashing redirection |
//! | [`PlatformKind::Ideal`] | — | unbounded GDDR5 holding the whole dataset |
//!
//! Drive a run with [`Simulation::new`] + [`Simulation::run`]; the
//! [`RunResult`] carries every metric the paper's figures plot.

#![deny(unsafe_code)]

pub mod backend;
pub mod config;
mod lane;
pub mod metrics;
pub mod qos;
pub mod runner;

pub use backend::Backend;
pub use config::{
    CheckpointConfig, EnduranceConfig, HealthConfig, IntegrityConfig, PlatformKind,
    RedundancyConfig, SimConfig,
};
pub use metrics::{
    CheckpointSummary, CrashRecoverySummary, DieBreakdown, EnduranceSummary, HealthSummary,
    IntegritySummary, PerfSummary, QosSummary, RedundancySummary, RunResult,
};
pub use qos::{FairShare, QosConfig, MAX_QOS_APPS};
pub use runner::Simulation;
