//! Address newtypes.
//!
//! * [`VirtAddr`] — a per-application virtual address, the base of a
//!   warp's memory access.
//! * [`FlashAddr`] / [`BlockAddr`] — a Z-NAND physical location.
//!
//! The FTLs key every logical page by a raw `u64` page number.

use std::fmt;

use crate::ids::{ChannelId, DieId, PlaneId};

/// A virtual address in an application's address space.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Returns the raw address value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> VirtAddr {
        VirtAddr(v)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

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
        assert!(VirtAddr(0x10).to_string().contains("0x10"));
    }

    #[test]
    fn newtype_conversions() {
        let v: VirtAddr = 42u64.into();
        assert_eq!(v.raw(), 42);
    }
}
