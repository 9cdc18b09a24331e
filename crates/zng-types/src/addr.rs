//! Address-space newtypes.
//!
//! A request travels through three address spaces (paper §IV-A):
//!
//! * [`VirtAddr`] — per-application virtual address.
//! * [`LogicalAddr`] — global memory (logical) address after the MMU page
//!   table; caches are indexed by this (or, in ZnG, directly by the flash
//!   physical address).
//! * [`FlashAddr`] / [`BlockAddr`] — Z-NAND physical location.
//!
//! Block-granular numbers mirror the DBMT entry fields: [`Vbn`] (virtual
//! block number), [`Lbn`] (logical block number), [`Pdbn`] (physical data
//! block number) and [`Plbn`] (physical log block number).

use std::fmt;

use crate::ids::{ChannelId, DieId, PlaneId};
use crate::size::CACHE_LINE;

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw address value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The page number containing this address, for pages of
            /// `page_size` bytes.
            #[inline]
            pub const fn page_number(self, page_size: u64) -> u64 {
                self.0 / page_size
            }

            /// The byte offset of this address within its page.
            #[inline]
            pub const fn page_offset(self, page_size: u64) -> u64 {
                self.0 % page_size
            }

            /// This address aligned down to its 128 B sector base.
            #[inline]
            pub const fn sector_base(self) -> $name {
                $name(self.0 - self.0 % CACHE_LINE as u64)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> $name {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }
    };
}

addr_newtype!(
    /// A virtual address in an application's address space.
    VirtAddr
);
addr_newtype!(
    /// A logical (global-memory) address produced by the MMU page table.
    LogicalAddr
);

macro_rules! block_number_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw block number.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> $name {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

block_number_newtype!(
    /// Virtual block number: the block-granular index of a data block in an
    /// application's virtual address space (a DBMT key).
    Vbn
);
block_number_newtype!(
    /// Logical block number: global-memory block index (a DBMT field).
    Lbn
);
block_number_newtype!(
    /// Physical data block number: the Z-NAND block holding the read-only
    /// sequential pages of a data block.
    Pdbn
);
block_number_newtype!(
    /// Physical log block number: the over-provisioned Z-NAND block holding
    /// logged (written) pages, remapped by the row-decoder LPMT.
    Plbn
);

/// The physical location of a Z-NAND flash *block*.
///
/// # Examples
///
/// ```
/// use zng_types::{BlockAddr, ids::{ChannelId, DieId, PlaneId}};
/// let b = BlockAddr::new(ChannelId(3), DieId(1), PlaneId(7), 42);
/// assert_eq!(b.block, 42);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// The flash channel (one package per channel in Table I).
    pub channel: ChannelId,
    /// The die within the package.
    pub die: DieId,
    /// The plane within the die.
    pub plane: PlaneId,
    /// The block index within the plane.
    pub block: u32,
}

impl BlockAddr {
    /// Creates a block address from its coordinates.
    pub const fn new(channel: ChannelId, die: DieId, plane: PlaneId, block: u32) -> BlockAddr {
        BlockAddr {
            channel,
            die,
            plane,
            block,
        }
    }

    /// The page address `page` within this block.
    pub const fn page(self, page: u32) -> FlashAddr {
        FlashAddr { block: self, page }
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/d{}/p{}/b{}",
            self.channel.0, self.die.0, self.plane.0, self.block
        )
    }
}

/// The physical location of a Z-NAND flash *page*.
///
/// # Examples
///
/// ```
/// use zng_types::{BlockAddr, FlashAddr, ids::{ChannelId, DieId, PlaneId}};
/// let block = BlockAddr::new(ChannelId(0), DieId(0), PlaneId(1), 9);
/// let page: FlashAddr = block.page(17);
/// assert_eq!(page.block.plane, PlaneId(1));
/// assert_eq!(page.page, 17);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlashAddr {
    /// The containing block.
    pub block: BlockAddr,
    /// The page index within the block.
    pub page: u32,
}

impl FlashAddr {
    /// Creates a page address from block coordinates and a page index.
    pub const fn new(block: BlockAddr, page: u32) -> FlashAddr {
        FlashAddr { block, page }
    }
}

impl fmt::Display for FlashAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/pg{}", self.block, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_page_math() {
        let a = VirtAddr(4096 * 3 + 130);
        assert_eq!(a.page_number(4096), 3);
        assert_eq!(a.page_offset(4096), 130);
        assert_eq!(a.sector_base(), VirtAddr(4096 * 3 + 128));
    }

    #[test]
    fn sector_base_is_aligned() {
        for raw in [0u64, 1, 127, 128, 129, 4095, 4096] {
            let base = LogicalAddr(raw).sector_base();
            assert_eq!(base.raw() % 128, 0);
            assert!(base.raw() <= raw);
            assert!(raw - base.raw() < 128);
        }
    }

    #[test]
    fn block_addr_ordering_and_page() {
        let a = BlockAddr::new(ChannelId(0), DieId(0), PlaneId(0), 1);
        let b = BlockAddr::new(ChannelId(0), DieId(0), PlaneId(0), 2);
        assert!(a < b);
        let p = a.page(5);
        assert_eq!(p, FlashAddr::new(a, 5));
    }

    #[test]
    fn displays_are_informative() {
        let b = BlockAddr::new(ChannelId(2), DieId(3), PlaneId(4), 10);
        assert_eq!(b.to_string(), "ch2/d3/p4/b10");
        assert_eq!(b.page(7).to_string(), "ch2/d3/p4/b10/pg7");
        assert_eq!(Vbn(3).to_string(), "Vbn#3");
        assert!(VirtAddr(0x10).to_string().contains("0x10"));
    }

    #[test]
    fn newtype_conversions() {
        let v: VirtAddr = 42u64.into();
        assert_eq!(v.raw(), 42);
        let n: Pdbn = 7u32.into();
        assert_eq!(n.raw(), 7);
    }
}
