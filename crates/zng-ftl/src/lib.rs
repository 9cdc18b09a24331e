//! Flash translation layers for the ZnG simulator.
//!
//! Two FTLs, matching the paper's two worlds:
//!
//! * [`PageMapFtl`] — the classic page-level FTL executed by an embedded
//!   [`SsdEngine`] inside a conventional SSD (the Hetero and HybridGPU
//!   platforms). Every request pays engine processing cost; the engine's
//!   2–5 low-power cores are the 67 %-of-latency bottleneck of
//!   Fig. 4d.
//! * [`ZngFtl`] — the paper's zero-overhead FTL (§IV-A): a block-granular
//!   **DBMT** resolved for free by the GPU MMU/TLB, per-log-block
//!   **LPMT**s living in programmable row decoders, an **LBMT** mapping
//!   data-block groups to over-provisioned log blocks, and a GPU
//!   helper-thread **garbage collector** with wear levelling.

#![deny(unsafe_code)]

/// Backstop on write re-drives after repeated program failures. Failed
/// programs burn slots and eventually exhaust the free pool into
/// [`zng_types::Error::DeviceWornOut`]; this bound only catches a broken
/// fault model looping forever.
pub(crate) const MAX_WRITE_REDRIVES: u32 = 64;

/// Read-retry attempts a GC migration read gets before the collector
/// gives up and propagates the uncorrectable read.
pub(crate) const GC_READ_ATTEMPTS: u32 = 4;

pub mod allocator;
pub mod checkpoint;
pub mod densemap;
pub mod engine;
pub mod health;
pub mod integrity;
mod maint;
pub mod pacing;
pub mod pagemap;
pub mod rain;
pub mod recovery;
pub mod refresh;
pub mod zngftl;

pub use allocator::{BlockAllocator, WearPolicy};
pub use densemap::DenseMap;

pub use checkpoint::{
    CheckpointConfig, CheckpointCounters, CKPT_ENTRIES_PER_PAGE, CKPT_LOAD_CYCLES_PER_PAGE,
    JOURNAL_RECORDS_PER_PAGE, JOURNAL_REPLAY_CYCLES_PER_RECORD,
};
pub use engine::SsdEngine;
pub use health::{HealthCounters, HealthPolicy, QUARANTINE_EXTRA_READ_ATTEMPTS, REHAB_CLEAN_TICKS};
pub use integrity::IntegrityCounters;
pub use maint::{Ftl, WriteResult};
pub use pacing::GcPacing;
pub use pagemap::PageMapFtl;
pub use rain::{RainConfig, RainCounters, RainState, RAIN_XOR_CYCLES};
pub use recovery::{RecoveryReport, OOB_SCAN_CYCLES_PER_PAGE};
pub use refresh::{EnduranceCounters, RefreshPolicy, RefreshReason, REFRESH_SCAN_BLOCKS_PER_STEP};
pub use zngftl::{GcReport, WriteMode, ZngFtl};
