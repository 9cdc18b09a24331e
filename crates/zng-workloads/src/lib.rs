//! Workload specifications and synthetic trace generation.
//!
//! The paper evaluates 16 GPU applications (Table II) from GraphBIG,
//! Rodinia and PolyBench, characterised in Fig. 5: graph-analysis
//! footprints re-read each flash page ~42× and write-intensive kernels
//! re-write pages ~65×. We cannot replay the authors' binaries, so
//! [`generate`] synthesises per-warp traces whose *statistics* (read
//! ratio, page reuse, spatial locality, write redundancy) match that
//! characterisation — see `DESIGN.md` §2 for the substitution argument.

#![deny(unsafe_code)]

pub mod generator;
pub mod io;
pub mod multiapp;
pub mod stats;
pub mod table2;

pub use generator::{generate, TraceParams};
pub use io::{TraceBundle, TRACE_FORMAT_VERSION};
pub use multiapp::{mixes, standard_mix_names, MultiApp};
pub use stats::{trace_stats, TraceStats};
pub use table2::{by_name, table2, Class, Suite, WorkloadSpec};
