//! Z-NAND flash device model for the ZnG simulator.
//!
//! This crate rebuilds the SSD *media* layer the paper gets from
//! SimpleSSD, plus the ZnG-specific hardware the paper adds:
//!
//! * [`FlashGeometry`] — Table I topology: 16 channels × 1 package ×
//!   8 dies × 8 planes, 1024 blocks/plane, 384 pages/block, 4 KB pages.
//! * [`FlashTiming`] — Z-NAND SLC timing (3 µs read, 100 µs program) and
//!   the TLC V-NAND reference point.
//! * [`Plane`]/[`Block`] — state machines enforcing the flash protocol:
//!   erase-before-write and strictly in-order page programming.
//! * [`RegisterCache`] — per-package flash registers, optionally grouped
//!   into a fully-associative write cache (paper §III-C), with a
//!   thrashing checker.
//! * [`RowDecoder`] — the programmable row decoder holding a log block's
//!   LPMT as a CAM (paper §IV-A).
//! * [`FlashNetwork`] — ONFI bus vs. 8 B mesh flash network.
//! * [`RegisterTopology`] — Baseline / SWnet / HW-FCnet / HW-NiF register
//!   interconnects (paper §IV-C, Fig. 14).
//! * [`FlashDevice`] — the facade tying packages, network and statistics
//!   together; platforms drive this.

#![deny(unsafe_code)]

pub mod block;
pub mod decoder;
pub mod device;
pub mod fault;
pub mod geometry;
pub mod network;
pub mod package;
pub mod plane;
pub mod registers;
pub mod stats;
pub mod timing;

pub use block::{Block, BlockKind, OobMeta, PageOob};
pub use decoder::{RowDecoder, CAM_SEARCH_CYCLES};
pub use device::{EnduranceReport, FlashDevice, PageKey, PowerLossReport};
pub use fault::{
    DegradeState, DegradingDie, FaultConfig, FaultParams, FaultProfile, PlaneFaults, PlaneSdc,
    SdcConfig, DISTURB_READS_PER_CYCLE, MAX_READ_RETRIES, SDC_RETENTION_DOUBLING_CYCLES,
};
pub use geometry::FlashGeometry;
pub use network::{FlashNetwork, NetworkTopology};
pub use package::{FlashPackage, RegisterTopology};
pub use plane::{EraseReport, Plane, ProgramReport, ReadReport};
pub use registers::{RegisterCache, WriteOutcome};
pub use stats::{DieHealth, FlashStats, RETRY_DEPTH_BUCKETS, RETRY_EWMA_ALPHA};
pub use timing::{FlashCycles, FlashTiming};
