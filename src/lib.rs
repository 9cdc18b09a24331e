//! # ZnG — a reproduction of the ISCA 2020 paper
//! *"ZnG: Architecting GPU Multi-Processors with New Flash for Scalable
//! Data Analysis"* (Jie Zhang and Myoungsoo Jung).
//!
//! ZnG replaces all GPU on-board DRAM with ultra-low-latency Z-NAND
//! flash, attaches the flash controllers directly to the GPU
//! interconnect, moves the FTL into the MMU/TLB and the flash row
//! decoders (zero-overhead translation), and buffers reads in a 24 MB
//! STT-MRAM L2 and writes in grouped flash registers. This crate is the
//! facade over a full simulator of that system and all its baselines.
//!
//! ## Quick start
//!
//! ```
//! use zng::{Experiment, PlatformKind};
//!
//! let mut exp = Experiment::quick();
//! let result = exp.run(PlatformKind::Zng, &["betw", "back"])?;
//! println!("ZnG IPC = {:.3}", result.ipc);
//! # Ok::<(), zng_types::Error>(())
//! ```
//!
//! ## Crate map
//!
//! * [`zng_types`] — addresses, time, ids, requests.
//! * [`zng_sim`] — event queue, contention resources, statistics.
//! * [`zng_mem`] — GDDR5 / DDR4 / LPDDR4 / Optane / PCIe models.
//! * [`zng_flash`] — the Z-NAND device: planes, registers, row-decoder
//!   CAM, bus/mesh networks, SWnet/FCnet/NiF register interconnects.
//! * [`zng_ftl`] — page-map FTL + SSD engine; ZnG zero-overhead FTL + GC.
//! * [`zng_ssd`] — HybridGPU's embedded SSD module, discrete NVMe SSD.
//! * [`zng_gpu`] — SMs, warps, coalescer, caches, TLB/MMU, prefetcher.
//! * [`zng_workloads`] — Table II specs and trace synthesis.
//! * [`zng_platforms`] — the seven platforms + Ideal, and the runner.

#![deny(unsafe_code)]

pub mod experiment;
pub mod report;

pub use experiment::{geomean, Experiment};
pub use report::Table;
pub use zng_flash::DegradingDie;
pub use zng_flash::{FaultConfig, FaultProfile, RegisterTopology};
pub use zng_gpu::PrefetchPolicy;
pub use zng_platforms::{
    Backend, CheckpointConfig, CheckpointSummary, CrashRecoverySummary, DieBreakdown,
    EnduranceConfig, EnduranceSummary, FairShare, HealthConfig, HealthSummary, IntegrityConfig,
    IntegritySummary, PlatformKind, QosConfig, QosSummary, RedundancyConfig, RedundancySummary,
    RunResult, SimConfig, Simulation, MAX_QOS_APPS,
};
pub use zng_sim::TimeSeries;
pub use zng_types::{Cycle, Error, Result};
pub use zng_workloads::{
    by_name, mixes, standard_mix_names, table2, trace_stats, Class, MultiApp, Suite, TraceParams,
    WorkloadSpec,
};
