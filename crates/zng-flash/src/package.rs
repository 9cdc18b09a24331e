//! A Z-NAND package: dies × planes, I/O ports and the register
//! interconnect (paper §IV-C).
//!
//! The package owns the timing composition of everything *inside* the
//! flash chip: array sensing/programming (per-plane), the two I/O ports,
//! and — for register-cache evictions whose holder plane differs from the
//! page's home plane — the register migration network: **SWnet** (data
//! leaves the package and re-enters through the flash network), **HW-FCnet**
//! (dedicated point-to-point wires) or **HW-NiF** (shared I/O bus + data
//! bus per plane, a local network between data registers).

use zng_sim::Resource;
use zng_types::{ids::ChannelId, Cycle, Result};

use crate::network::FlashNetwork;
use crate::plane::{EraseReport, Plane, ProgramReport, ReadReport};
use crate::registers::{Evicted, RegisterCache, WriteOutcome};
use crate::timing::FlashCycles;

/// How the flash registers of a package are interconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegisterTopology {
    /// Registers are private to their plane (the Fig. 13 "baseline").
    Private,
    /// Software grouping: remote evictions migrate through the flash
    /// network router (consumes flash-network bandwidth).
    SwNet,
    /// Fully-connected hardware network: free parallelism, unaffordable
    /// wiring cost.
    FcNet,
    /// Network-in-Flash: two buses per plane group plus a local
    /// data-register network; ~98 % of FCnet at low cost.
    NiF,
}

impl RegisterTopology {
    /// Whether registers across planes form one associative pool.
    pub fn is_grouped(self) -> bool {
        !matches!(self, RegisterTopology::Private)
    }
}

impl std::fmt::Display for RegisterTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegisterTopology::Private => "baseline",
            RegisterTopology::SwNet => "SWnet",
            RegisterTopology::FcNet => "HW-FCnet",
            RegisterTopology::NiF => "HW-NiF",
        };
        f.write_str(s)
    }
}

/// A buffered sector write's outcome at package level.
#[derive(Debug, Clone, Copy)]
pub struct BufferedWrite {
    /// When the sector has landed in a register (warp can retire).
    pub done: Cycle,
    /// A victim page that the caller's FTL must now program to flash.
    /// Any register-migration cost is already folded into
    /// `migration_done`.
    pub eviction: Option<PendingProgram>,
    /// The thrashing checker's verdict after this write.
    pub thrashing: bool,
}

/// An evicted register page awaiting an FTL-directed array program.
#[derive(Debug, Clone, Copy)]
pub struct PendingProgram {
    /// Logical page key held by the register.
    pub key: u64,
    /// Package-local home plane index.
    pub home_plane: usize,
    /// Earliest time the data is available at the home plane.
    pub ready_at: Cycle,
    /// Sector writes merged while resident (write-redundancy accounting).
    pub writes_merged: u64,
}

/// One flash package.
#[derive(Debug, Clone)]
pub struct FlashPackage {
    channel: ChannelId,
    dies: usize,
    planes_per_die: usize,
    page_bytes: usize,
    planes: Vec<Plane>,
    /// Two ONFI I/O ports, 8 B wide each (Table I).
    io_ports: Resource,
    io_bytes_per_cycle: f64,
    registers: RegisterCache,
    topology: RegisterTopology,
    /// NiF local network between data registers (parallel lanes).
    nif_lanes: Resource,
    migrations: u64,
}

impl FlashPackage {
    /// Builds a package for `channel` with the given dimensions, media
    /// timing, per-plane register count and register interconnect.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        channel: ChannelId,
        dies: usize,
        planes_per_die: usize,
        blocks_per_plane: u32,
        pages_per_block: u32,
        page_bytes: usize,
        registers_per_plane: usize,
        io_ports: usize,
        timing: FlashCycles,
        topology: RegisterTopology,
    ) -> FlashPackage {
        let plane_count = dies * planes_per_die;
        let registers = if topology.is_grouped() {
            RegisterCache::grouped(plane_count, registers_per_plane)
        } else {
            RegisterCache::private(plane_count, registers_per_plane)
        };
        FlashPackage {
            channel,
            dies,
            planes_per_die,
            page_bytes,
            planes: (0..plane_count)
                .map(|_| Plane::new(blocks_per_plane, pages_per_block, timing))
                .collect(),
            io_ports: Resource::new(io_ports),
            io_bytes_per_cycle: 8.0,
            registers,
            topology,
            // NiF allows several simultaneous local migrations.
            nif_lanes: Resource::new(4),
            migrations: 0,
        }
    }

    /// Package-local plane index for (die, plane).
    pub fn plane_index(&self, die: usize, plane: usize) -> usize {
        die * self.planes_per_die + plane
    }

    /// Immutable access to a plane by package-local index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn plane(&self, idx: usize) -> &Plane {
        &self.planes[idx]
    }

    /// Mutable access to a plane by package-local index.
    pub fn plane_mut(&mut self, idx: usize) -> &mut Plane {
        &mut self.planes[idx]
    }

    /// Number of planes in the package.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// Number of dies.
    pub fn dies(&self) -> usize {
        self.dies
    }

    /// The register interconnect in use.
    pub fn topology(&self) -> RegisterTopology {
        self.topology
    }

    /// The register cache (for inspection).
    pub fn registers(&self) -> &RegisterCache {
        &self.registers
    }

    fn io_transfer(&mut self, now: Cycle, bytes: usize) -> Cycle {
        let service = Cycle((bytes as f64 / self.io_bytes_per_cycle).ceil() as u64);
        self.io_ports.acquire(now, service)
    }

    /// Reads a page from the array of plane `idx` (or its cache register,
    /// if latched) and streams it out of an I/O port; the report's `done`
    /// is when the page is at the package pins.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (unprogrammed page, bad block index), or
    /// [`zng_types::Error::UncorrectableRead`] under fault injection.
    pub fn read_page_from_array(
        &mut self,
        now: Cycle,
        plane_idx: usize,
        block: u32,
        page: u32,
    ) -> Result<ReadReport> {
        let r = self.planes[plane_idx].read_page_traced(now, block, page)?;
        Ok(ReadReport {
            done: self.io_transfer(r.done, self.page_bytes),
            ..r
        })
    }

    /// Serves `bytes` of a register-resident page through an I/O port.
    pub fn read_from_register(&mut self, now: Cycle, bytes: usize) -> Cycle {
        self.io_transfer(now, bytes)
    }

    /// Whether a register currently holds logical page `key`.
    pub fn register_holds(&self, key: u64) -> bool {
        self.registers.contains(key)
    }

    /// Streams a full page in through an I/O port and programs it to the
    /// next in-order page of `block` on plane `idx`.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (full block).
    pub fn program_page(
        &mut self,
        now: Cycle,
        plane_idx: usize,
        block: u32,
    ) -> Result<ProgramReport> {
        let arrived = self.io_transfer(now, self.page_bytes);
        self.planes[plane_idx].program_next(arrived, block)
    }

    /// Programs a page whose data is already inside the package (register
    /// eviction write-back): no I/O port crossing.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (full block).
    pub fn program_page_internal(
        &mut self,
        now: Cycle,
        plane_idx: usize,
        block: u32,
    ) -> Result<ProgramReport> {
        self.planes[plane_idx].program_next(now, block)
    }

    /// Erases `block` on plane `idx`.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (valid pages remain).
    pub fn erase_block(&mut self, now: Cycle, plane_idx: usize, block: u32) -> Result<EraseReport> {
        self.planes[plane_idx].erase(now, block)
    }

    /// Accepts one 128 B sector write for logical page `key`, homed on
    /// plane `home_plane`, into the register cache.
    ///
    /// On eviction, the migration cost implied by the register topology is
    /// charged here; the returned [`PendingProgram`] tells the caller's
    /// FTL to program the victim (at `ready_at` or later).
    pub fn buffered_write(
        &mut self,
        now: Cycle,
        key: u64,
        home_plane: usize,
        sector_bytes: usize,
        net: &mut FlashNetwork,
    ) -> BufferedWrite {
        let landed = self.io_transfer(now, sector_bytes);
        let outcome: WriteOutcome = self.registers.write(key, home_plane);
        let eviction = outcome.evicted.map(|ev| {
            let ready_at = self.migration_cost(landed, &ev, net);
            PendingProgram {
                key: ev.key,
                home_plane: ev.home_plane,
                ready_at,
                writes_merged: ev.writes_merged,
            }
        });
        BufferedWrite {
            done: landed,
            eviction,
            thrashing: self.registers.is_thrashing(),
        }
    }

    /// Charges the register-to-home-plane migration for an eviction and
    /// returns when the data is ready at the home plane.
    fn migration_cost(&mut self, now: Cycle, ev: &Evicted, net: &mut FlashNetwork) -> Cycle {
        if ev.holder_plane == ev.home_plane {
            return now;
        }
        self.migrations += 1;
        match self.topology {
            RegisterTopology::Private => now, // unreachable: private never spills
            RegisterTopology::SwNet => {
                // Out through an I/O port to the controller's router buffer
                // and back in: two flash-network link reservations.
                let out = self.io_transfer(now, self.page_bytes);
                let back = net.migrate(out, self.channel, self.channel, self.page_bytes);
                self.io_transfer(back, self.page_bytes)
            }
            RegisterTopology::FcNet => {
                // Dedicated point-to-point wires: pure wire delay, no
                // shared resource (64 B/cycle effective width).
                now + Cycle((self.page_bytes / 64) as u64)
            }
            RegisterTopology::NiF => {
                // Register -> data register -> remote data register ->
                // remote register, over the 8 B local network lanes. Does
                // not touch the flash network.
                let service = Cycle((self.page_bytes as f64 / 8.0).ceil() as u64);
                self.nif_lanes.acquire(now, service)
            }
        }
    }

    /// Drops a stale register entry without write-back.
    pub fn discard_register(&mut self, key: u64) -> bool {
        self.registers.discard(key)
    }

    /// Cuts power to the package at `now`: the register write cache is
    /// dropped without write-back and every plane loses its volatile
    /// state (`fenced_seq` is the device-wide erase barrier, see
    /// [`crate::block::Block::power_loss`]). Returns
    /// `(pages_torn, register_pages_lost)`.
    pub fn power_loss(&mut self, now: Cycle, fenced_seq: u64) -> (u64, u64) {
        let dropped = self.registers.power_loss() as u64;
        let torn = self
            .planes
            .iter_mut()
            .map(|p| p.power_loss(now, fenced_seq))
            .sum::<u64>();
        (torn, dropped)
    }

    /// Cross-plane register migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::FlashTiming;
    use zng_types::Freq;

    fn pkg(topology: RegisterTopology) -> (FlashPackage, FlashNetwork) {
        let timing = FlashTiming::znand().to_cycles(Freq::default());
        (
            FlashPackage::new(ChannelId(0), 2, 2, 16, 8, 4096, 2, 2, timing, topology),
            FlashNetwork::mesh(1, 8.0, Cycle(2)),
        )
    }

    #[test]
    fn plane_indexing() {
        let (p, _) = pkg(RegisterTopology::NiF);
        assert_eq!(p.plane_index(0, 0), 0);
        assert_eq!(p.plane_index(1, 1), 3);
        assert_eq!(p.plane_count(), 4);
        assert_eq!(p.dies(), 2);
    }

    #[test]
    fn read_includes_sense_and_io() {
        let (mut p, _) = pkg(RegisterTopology::NiF);
        p.program_page(Cycle(0), 0, 0).unwrap();
        let r = p.read_page_from_array(Cycle(200_000), 0, 0, 0).unwrap();
        // 3600 sense + 512 io transfer.
        assert!(r.sensed);
        assert_eq!(r.done, Cycle(200_000 + 3_600 + 512));
        // A repeat read of the same page streams from the cache register.
        let r2 = p.read_page_from_array(r.done, 0, 0, 0).unwrap();
        assert!(!r2.sensed);
        assert!(r2.done - r.done < Cycle(3_600));
    }

    #[test]
    fn buffered_write_merges() {
        let (mut p, mut net) = pkg(RegisterTopology::NiF);
        let a = p.buffered_write(Cycle(0), 42, 0, 128, &mut net);
        assert!(a.eviction.is_none());
        let b = p.buffered_write(Cycle(0), 42, 0, 128, &mut net);
        assert!(b.eviction.is_none());
        assert_eq!(p.registers().hits(), 1);
    }

    #[test]
    fn eviction_emits_pending_program() {
        // 4 planes x 2 regs grouped = 8 entries; the 9th distinct page
        // evicts the LRU.
        let (mut p, mut net) = pkg(RegisterTopology::NiF);
        let mut evictions = 0;
        for k in 0..9u64 {
            let r = p.buffered_write(Cycle(0), k, 0, 128, &mut net);
            if let Some(pp) = r.eviction {
                evictions += 1;
                assert_eq!(pp.key, 0); // LRU order
                assert_eq!(pp.home_plane, 0);
            }
        }
        assert_eq!(evictions, 1);
    }

    /// Fills the 8-register pool with pages homed on plane 0 (keys 0 and 1
    /// land locally, the rest spill to remote planes), refreshes the two
    /// local entries, then inserts a fresh page so the LRU victim is
    /// remote-held and a migration is required.
    fn force_remote_eviction(p: &mut FlashPackage, net: &mut FlashNetwork) {
        for k in 0..8u64 {
            p.buffered_write(Cycle(0), k, 0, 128, net);
        }
        p.buffered_write(Cycle(0), 0, 0, 128, net);
        p.buffered_write(Cycle(0), 1, 0, 128, net);
        let r = p.buffered_write(Cycle(0), 100, 0, 128, net);
        let ev = r.eviction.expect("full cache must evict");
        assert_ne!(ev.home_plane, 1_000_000); // touched to keep ev used
    }

    #[test]
    fn swnet_migration_consumes_network() {
        let (mut p, mut net) = pkg(RegisterTopology::SwNet);
        force_remote_eviction(&mut p, &mut net);
        assert!(p.migrations() > 0);
        assert!(
            net.bytes_moved(ChannelId(0)) > 0,
            "SWnet must move pages through the flash network"
        );
    }

    #[test]
    fn fcnet_migration_is_cheap_and_off_network() {
        let (mut p, mut net) = pkg(RegisterTopology::FcNet);
        force_remote_eviction(&mut p, &mut net);
        assert_eq!(
            net.bytes_moved(ChannelId(0)),
            0,
            "FCnet never touches the flash network"
        );
        assert!(p.migrations() > 0);
    }

    #[test]
    fn internal_program_skips_io_port() {
        let (mut p, _) = pkg(RegisterTopology::NiF);
        let t_ext = p.program_page(Cycle(0), 0, 0).unwrap().done;
        let t_int = p.program_page_internal(Cycle(0), 1, 0).unwrap().done;
        assert!(t_int < t_ext);
    }
}
