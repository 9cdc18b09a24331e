//! Conventional SSD assemblies for the ZnG simulator's baselines.
//!
//! * [`PageBuffer`] — the fully-associative internal DRAM page cache of a
//!   conventional SSD (read/write buffer hiding Z-NAND latency).
//! * [`SsdModule`] — HybridGPU's embedded SSD: a *single* request
//!   dispatcher, an embedded-core SSD engine, a one-package DRAM buffer
//!   and a bus-networked Z-NAND backbone. Each of these is one of the
//!   bottleneck bars of the paper's Fig. 1b.
//! * [`NvmeSsd`] — the discrete SSD of the Hetero platform, serving 4 KB
//!   page faults with NVMe command overheads.

#![deny(unsafe_code)]

pub mod buffer;
pub mod module;
pub mod nvme;

pub use buffer::{BufferAccess, PageBuffer};
pub use module::SsdModule;
pub use nvme::NvmeSsd;
