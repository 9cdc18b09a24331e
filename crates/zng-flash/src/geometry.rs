//! Flash topology (Table I) and address decomposition.

use zng_types::{
    ids::{ChannelId, DieId, PlaneId},
    BlockAddr, Error, Result,
};

/// The physical organisation of the Z-NAND array.
///
/// Defaults follow Table I of the paper: 16 channels with one package
/// each, 8 dies × 8 planes per package, 1024 blocks per plane,
/// 384 pages per block, 4 KB pages, 8 registers per plane and 2 I/O
/// ports per package.
///
/// # Examples
///
/// ```
/// use zng_flash::FlashGeometry;
/// let g = FlashGeometry::table1();
/// assert_eq!(g.total_planes(), 16 * 8 * 8);
/// // 16 * 8 * 8 * 1024 blocks * 384 pages * 4 KiB = 1.5 TiB.
/// assert_eq!(g.capacity_bytes(), 1_649_267_441_664);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Flash channels (each with its own controller in ZnG).
    pub channels: usize,
    /// Packages per channel (Table I: 1).
    pub packages_per_channel: usize,
    /// Dies per package.
    pub dies_per_package: usize,
    /// Planes per die.
    pub planes_per_die: usize,
    /// Blocks per plane.
    pub blocks_per_plane: usize,
    /// Pages per block.
    pub pages_per_block: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Flash registers per plane (paper §III-C: 8).
    pub registers_per_plane: usize,
    /// I/O ports per package (Table I: 2).
    pub io_ports_per_package: usize,
}

impl FlashGeometry {
    /// The paper's Table I configuration.
    pub fn table1() -> FlashGeometry {
        FlashGeometry {
            channels: 16,
            packages_per_channel: 1,
            dies_per_package: 8,
            planes_per_die: 8,
            blocks_per_plane: 1024,
            pages_per_block: 384,
            page_bytes: 4096,
            registers_per_plane: 8,
            io_ports_per_package: 2,
        }
    }

    /// A small geometry for unit tests and quick experiments: 4 channels,
    /// 2 dies × 2 planes, 64 blocks of 16 pages.
    pub fn tiny() -> FlashGeometry {
        FlashGeometry {
            channels: 4,
            packages_per_channel: 1,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 64,
            pages_per_block: 16,
            page_bytes: 4096,
            registers_per_plane: 4,
            io_ports_per_package: 2,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any dimension is zero.
    pub fn validate(&self) -> Result<()> {
        let dims = [
            ("channels", self.channels),
            ("packages_per_channel", self.packages_per_channel),
            ("dies_per_package", self.dies_per_package),
            ("planes_per_die", self.planes_per_die),
            ("blocks_per_plane", self.blocks_per_plane),
            ("pages_per_block", self.pages_per_block),
            ("page_bytes", self.page_bytes),
            ("registers_per_plane", self.registers_per_plane),
            ("io_ports_per_package", self.io_ports_per_package),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(Error::invalid_config(name, "must be non-zero"));
            }
        }
        Ok(())
    }

    /// Planes in the whole device.
    pub fn total_planes(&self) -> usize {
        self.channels * self.packages_per_channel * self.dies_per_package * self.planes_per_die
    }

    /// Planes in one package.
    pub fn planes_per_package(&self) -> usize {
        self.dies_per_package * self.planes_per_die
    }

    /// Blocks in the whole device.
    pub fn total_blocks(&self) -> usize {
        self.total_planes() * self.blocks_per_plane
    }

    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_blocks() as u64 * self.pages_per_block as u64 * self.page_bytes as u64
    }

    /// Maps a device-wide *block index* to its physical coordinates,
    /// striping consecutive indices across channels, then dies, then
    /// planes so that consecutive data blocks exploit maximum
    /// parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] when `index` exceeds
    /// [`FlashGeometry::total_blocks`].
    pub fn block_for_index(&self, index: u64) -> Result<BlockAddr> {
        if index >= self.total_blocks() as u64 {
            return Err(Error::AddressOutOfRange {
                addr: index,
                capacity: self.total_blocks() as u64,
            });
        }
        let channel = index % self.channels as u64;
        let rest = index / self.channels as u64;
        let die = rest % self.dies_per_package as u64;
        let rest = rest / self.dies_per_package as u64;
        let plane = rest % self.planes_per_die as u64;
        let block = rest / self.planes_per_die as u64;
        Ok(BlockAddr::new(
            ChannelId(channel as u16),
            DieId(die as u16),
            PlaneId(plane as u16),
            block as u32,
        ))
    }

    /// Inverse of [`FlashGeometry::block_for_index`].
    pub fn index_for_block(&self, addr: BlockAddr) -> u64 {
        let c = addr.channel.raw() as u64;
        let d = addr.die.raw() as u64;
        let p = addr.plane.raw() as u64;
        let b = addr.block as u64;
        ((b * self.planes_per_die as u64 + p) * self.dies_per_package as u64 + d)
            * self.channels as u64
            + c
    }
}

impl Default for FlashGeometry {
    fn default() -> FlashGeometry {
        FlashGeometry::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let g = FlashGeometry::table1();
        assert_eq!(g.channels, 16);
        assert_eq!(g.dies_per_package, 8);
        assert_eq!(g.planes_per_die, 8);
        assert_eq!(g.blocks_per_plane, 1024);
        assert_eq!(g.pages_per_block, 384);
        assert_eq!(g.registers_per_plane * g.planes_per_package(), 8 * 64);
        g.validate().unwrap();
    }

    #[test]
    fn consecutive_blocks_stripe_channels_first() {
        let g = FlashGeometry::table1();
        let b0 = g.block_for_index(0).unwrap();
        let b1 = g.block_for_index(1).unwrap();
        assert_eq!(b0.channel, ChannelId(0));
        assert_eq!(b1.channel, ChannelId(1));
        assert_eq!(b0.die, b1.die);
        // After all 16 channels, the die advances.
        let b16 = g.block_for_index(16).unwrap();
        assert_eq!(b16.channel, ChannelId(0));
        assert_eq!(b16.die, DieId(1));
    }

    #[test]
    fn block_index_roundtrip() {
        let g = FlashGeometry::tiny();
        for i in (0..g.total_blocks() as u64).step_by(7) {
            let addr = g.block_for_index(i).unwrap();
            assert_eq!(g.index_for_block(addr), i, "index {i}");
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let g = FlashGeometry::tiny();
        let too_big = g.total_blocks() as u64;
        assert!(matches!(
            g.block_for_index(too_big),
            Err(Error::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_dimension_rejected() {
        let mut g = FlashGeometry::tiny();
        g.planes_per_die = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn capacity_math() {
        let g = FlashGeometry::tiny();
        assert_eq!(g.capacity_bytes(), (4 * 2 * 2 * 64) as u64 * 16 * 4096);
    }
}
