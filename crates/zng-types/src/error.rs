//! The workspace-wide error type.

use std::error::Error as StdError;
use std::fmt;

use crate::addr::FlashAddr;
use crate::time::Cycle;

/// Errors surfaced by the ZnG simulator's public API.
///
/// Simulation-internal invariant violations are bugs and panic instead;
/// `Error` covers conditions a caller can trigger through configuration or
/// workload input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value is out of range or inconsistent.
    InvalidConfig {
        /// Which parameter was rejected.
        what: String,
        /// Why it was rejected.
        why: String,
    },
    /// An address fell outside the configured device capacity.
    AddressOutOfRange {
        /// The raw offending address.
        addr: u64,
        /// The capacity it exceeded, in bytes.
        capacity: u64,
    },
    /// Flash protocol violation: programming a page out of order or
    /// overwriting without an erase (erase-before-write rule).
    FlashProtocol(String),
    /// The device ran out of free blocks and garbage collection could not
    /// reclaim space.
    OutOfSpace,
    /// A workload name was not recognised.
    UnknownWorkload(String),
    /// A page read stayed uncorrectable after exhausting the read-retry
    /// ladder (raw bit errors exceeded the ECC budget on every attempt).
    UncorrectableRead {
        /// Physical block index within the plane.
        block: u64,
        /// Page offset within the block.
        page: u32,
        /// Retry attempts performed before giving up.
        retries: u32,
    },
    /// The device wore out: so many blocks were retired that the FTL has
    /// no spare capacity left to remap around failures.
    DeviceWornOut {
        /// Blocks retired over the device's lifetime.
        retired_blocks: u64,
    },
    /// A bounded queue refused admission: the component is saturated and
    /// the caller should retry no earlier than `retry_at`.
    ///
    /// Only surfaced when overload control is enabled (a finite queue
    /// depth was configured); unbounded mode never rejects.
    Backpressure {
        /// Earliest cycle at which a queue slot is guaranteed free,
        /// assuming no competing arrivals in between.
        retry_at: Cycle,
    },
    /// A read hit a page whose program was interrupted by a power loss.
    /// Torn pages are detectable (their out-of-band metadata fails
    /// verification) and must be discarded by recovery, never served.
    TornPage {
        /// Physical block index within the plane.
        block: u64,
        /// Page offset within the block.
        page: u32,
    },
    /// A page's payload failed its end-to-end checksum after every
    /// recovery avenue (re-read, stripe reconstruction) was exhausted:
    /// the ECC engine silently miscorrected the data and the integrity
    /// layer refused to serve it.
    IntegrityViolation {
        /// The page that failed.
        addr: FlashAddr,
    },
    /// The device's advertised capacity shrank: end-of-life block
    /// retirement exhausted the spare pool, and the endurance subsystem
    /// stepped the advertised capacity down instead of failing the whole
    /// device. The refused write was never acknowledged; all previously
    /// acknowledged data stays readable.
    ///
    /// Only surfaced when graceful end-of-life degradation is enabled
    /// (`EnduranceConfig`); the default path keeps the hard
    /// [`Error::DeviceWornOut`] cliff.
    CapacityDegraded {
        /// Logical pages still mapped and serviceable after the step.
        remaining_pages: u64,
    },
    /// The simulation made no forward progress for longer than the
    /// configured watchdog budget (for example a retry/backoff livelock);
    /// aborted rather than spinning forever.
    Stalled {
        /// The cycle at which the watchdog fired.
        cycle: Cycle,
        /// The last cycle at which a request completed.
        last_progress: Cycle,
    },
    /// A simulation was asked to run a second time. A run leaves its
    /// caches, holds, backend and counters behind, so a second run would
    /// start warm and report its counts on top of the first's; build a
    /// new simulation for each run.
    AlreadyRan,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig { what, why } => {
                write!(f, "invalid configuration for {what}: {why}")
            }
            Error::AddressOutOfRange { addr, capacity } => {
                write!(
                    f,
                    "address {addr:#x} out of range (capacity {capacity} bytes)"
                )
            }
            Error::FlashProtocol(msg) => write!(f, "flash protocol violation: {msg}"),
            Error::OutOfSpace => write!(f, "flash device out of space"),
            Error::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
            Error::UncorrectableRead {
                block,
                page,
                retries,
            } => write!(
                f,
                "uncorrectable read at block {block} page {page} after {retries} retries"
            ),
            Error::DeviceWornOut { retired_blocks } => write!(
                f,
                "flash device worn out ({retired_blocks} blocks retired, spare pool exhausted)"
            ),
            Error::Backpressure { retry_at } => write!(
                f,
                "backpressure: queue full, retry at cycle {}",
                retry_at.raw()
            ),
            Error::TornPage { block, page } => write!(
                f,
                "torn page at block {block} page {page} (program interrupted by power loss)"
            ),
            Error::IntegrityViolation { addr } => write!(
                f,
                "integrity violation at {addr} (payload checksum mismatch, ECC miscorrection)"
            ),
            Error::CapacityDegraded { remaining_pages } => write!(
                f,
                "device capacity degraded: write refused, {remaining_pages} mapped pages remain \
                 serviceable"
            ),
            Error::Stalled {
                cycle,
                last_progress,
            } => write!(
                f,
                "simulation stalled: no forward progress since cycle {} (watchdog fired at {})",
                last_progress.raw(),
                cycle.raw()
            ),
            Error::AlreadyRan => write!(
                f,
                "simulation already ran: build a new simulation for each run"
            ),
        }
    }
}

impl StdError for Error {}

impl Error {
    /// Convenience constructor for [`Error::InvalidConfig`].
    pub fn invalid_config(what: impl Into<String>, why: impl Into<String>) -> Error {
        Error::InvalidConfig {
            what: what.into(),
            why: why.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BlockAddr;
    use crate::ids::{ChannelId, DieId, PlaneId};

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = Error::invalid_config("l2.size", "must be a multiple of the line size");
        assert_eq!(
            e.to_string(),
            "invalid configuration for l2.size: must be a multiple of the line size"
        );
        let e = Error::AddressOutOfRange {
            addr: 0x100,
            capacity: 64,
        };
        assert!(e.to_string().contains("0x100"));
        assert_eq!(Error::OutOfSpace.to_string(), "flash device out of space");
        assert!(Error::UnknownWorkload("bogus".into())
            .to_string()
            .contains("bogus"));
        let e = Error::UncorrectableRead {
            block: 7,
            page: 3,
            retries: 4,
        };
        assert_eq!(
            e.to_string(),
            "uncorrectable read at block 7 page 3 after 4 retries"
        );
        let e = Error::DeviceWornOut { retired_blocks: 12 };
        assert!(e.to_string().contains("12 blocks retired"));
        let e = Error::Backpressure {
            retry_at: Cycle(4096),
        };
        assert_eq!(
            e.to_string(),
            "backpressure: queue full, retry at cycle 4096"
        );
        let e = Error::IntegrityViolation {
            addr: BlockAddr::new(ChannelId(1), DieId(0), PlaneId(2), 5).page(2),
        };
        assert_eq!(
            e.to_string(),
            "integrity violation at ch1/d0/p2/b5/pg2 (payload checksum mismatch, ECC miscorrection)"
        );
        let e = Error::CapacityDegraded {
            remaining_pages: 640,
        };
        assert_eq!(
            e.to_string(),
            "device capacity degraded: write refused, 640 mapped pages remain serviceable"
        );
        let e = Error::Stalled {
            cycle: Cycle(9000),
            last_progress: Cycle(1000),
        };
        assert_eq!(
            e.to_string(),
            "simulation stalled: no forward progress since cycle 1000 (watchdog fired at 9000)"
        );
        assert_eq!(
            Error::AlreadyRan.to_string(),
            "simulation already ran: build a new simulation for each run"
        );
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(Error::OutOfSpace);
        assert!(e.source().is_none());
        let e: Box<dyn std::error::Error> = Box::new(Error::DeviceWornOut { retired_blocks: 1 });
        assert!(e.source().is_none());
    }
}
