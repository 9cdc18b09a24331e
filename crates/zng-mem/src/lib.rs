//! Memory-device timing models for the ZnG simulator.
//!
//! This crate provides the *non-flash* memory substrates the paper
//! evaluates against:
//!
//! * [`MemSubsystem`] — a controller-interleaved latency/bandwidth model
//!   with presets for GDDR5 (the GTX580-like GPU memory), desktop DDR4,
//!   mobile LPDDR4, Optane DC PMM (Table I timings) and HybridGPU's
//!   single-package internal DRAM buffer.
//! * [`devices`] — static density / power / peak-throughput data behind
//!   the paper's Figures 3a, 3b and 4c.
//! * [`PcieLink`] — the host interconnect used by the discrete
//!   GPU-SSD (`Hetero`) platform.

#![deny(unsafe_code)]

pub mod devices;
pub mod pcie;
pub mod subsystem;

pub use devices::{DeviceClass, DeviceInfo};
pub use pcie::PcieLink;
pub use subsystem::{MemSubsystem, MemTiming};
