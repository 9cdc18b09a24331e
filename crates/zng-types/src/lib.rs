//! Common vocabulary types for the ZnG simulator.
//!
//! This crate defines the newtypes shared by every other crate in the
//! workspace: simulation time ([`Cycle`], [`Nanos`], [`Freq`]), data
//! sizes ([`size`]), virtual and flash-physical addresses ([`VirtAddr`],
//! [`FlashAddr`], [`BlockAddr`], see [`addr`]), hardware and software
//! identifiers ([`ids`]), the kind of a memory access ([`AccessKind`])
//! and the crate-wide error type ([`Error`]).
//!
//! The FTLs key every logical page by a raw `u64` page number; a flash
//! page is a [`FlashAddr`] (channel/die/plane/block/page).
//!
//! # Examples
//!
//! ```
//! use zng_types::{BlockAddr, Cycle, FlashAddr, ids::{ChannelId, DieId, PlaneId}};
//!
//! let t = Cycle(100) + Cycle(20);
//! assert_eq!(t, Cycle(120));
//! let block = BlockAddr::new(ChannelId(0), DieId(1), PlaneId(2), 3);
//! assert_eq!(block.page(4), FlashAddr::new(block, 4));
//! ```

#![deny(unsafe_code)]

pub mod addr;
pub mod error;
pub mod ids;
pub mod request;
pub mod size;
pub mod time;

pub use addr::{BlockAddr, FlashAddr, VirtAddr};
pub use error::Error;
pub use ids::{AppId, BankId, ChannelId, DieId, Pc, PlaneId, SmId, WarpId};
pub use request::AccessKind;
pub use size::CACHE_LINE;
pub use time::{Cycle, Freq, Nanos};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;
