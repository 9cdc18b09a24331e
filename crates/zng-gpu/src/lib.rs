//! GPU microarchitecture model for the ZnG simulator.
//!
//! Rebuilds the MacSim-level structures the paper's evaluation rests on
//! (Table I, GTX580-like, with a GV100-sized L2):
//!
//! * [`GpuConfig`] — all structural parameters in one place.
//! * [`SetAssocCache`] — the generic set-associative core used by L1D,
//!   L2 banks and the TLB, extended with the paper's *prefetch* and
//!   *accessed* tag bits, per-app tags (GC flush) and pinned lines
//!   (dirty-write redirection).
//! * [`Mshr`] — miss-status holding registers that merge outstanding
//!   misses at page or line granularity.
//! * [`Tlb`] / [`Mmu`] — address translation with a 32-thread page-table
//!   walker and a page-walk cache; in ZnG the MMU also resolves the DBMT
//!   (so flash translation is free for reads).
//! * [`L2Cache`] — 6 banks, SRAM (6 MB, 1-cycle) or STT-MRAM
//!   (24 MB, 1-cycle read / 5-cycle write), optional read-only mode.
//! * [`Predictor`] / [`AccessMonitor`] — the PC-based spatial-locality
//!   predictor and the dynamic prefetch-granularity monitor (§IV-B).
//! * [`Coalescer`] — merges a warp's 32 thread accesses into 128 B
//!   requests.
//! * [`Warp`] / [`Sm`] — trace-driven warps issuing through an SM's
//!   serialized issue port.
//! * [`Interconnect`] — the GPU crossbar between SMs and L2 banks.

#![deny(unsafe_code)]

pub mod cache;
pub mod coalesce;
pub mod config;
pub mod icnt;
pub mod l2;
pub mod mmu;
pub mod mshr;
pub mod prefetch;
pub mod sm;
pub mod warp;

pub use cache::{CacheGeometry, EvictedLine, SetAssocCache};
pub use coalesce::Coalescer;
pub use config::{GpuConfig, L2Technology};
pub use icnt::Interconnect;
pub use l2::L2Cache;
pub use mmu::{Mmu, Tlb};
pub use mshr::Mshr;
pub use prefetch::{AccessMonitor, Predictor, PrefetchPolicy};
pub use sm::Sm;
pub use warp::{AccessPattern, PatternShape, Warp, WarpOp, WarpTrace};
