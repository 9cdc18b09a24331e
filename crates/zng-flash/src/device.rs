//! The flash-device facade: packages + network + statistics.
//!
//! [`FlashDevice`] is what FTLs and platforms drive. It owns one package
//! per channel (Table I), the flash network, and the per-page statistics
//! behind Figures 11–13. Two canonical configurations:
//!
//! * [`FlashDevice::hybrid_config`] — ONFI bus network, private per-plane
//!   registers (the HybridGPU SSD module).
//! * [`FlashDevice::zng_config`] — 8 B mesh network, grouped registers
//!   with a selectable interconnect (ZnG).

use zng_sim::AdmissionQueue;
use zng_types::{
    ids::{ChannelId, DieId},
    BlockAddr, Cycle, Error, FlashAddr, Freq, Result,
};

use crate::block::{Block, OobMeta, PageOob};
use crate::fault::{
    DegradeState, DegradingDie, FaultConfig, PlaneFaults, PlaneSdc, SdcConfig,
    RETRY_STEP_EXTRA_CYCLES,
};
use crate::geometry::FlashGeometry;
use crate::network::FlashNetwork;
use crate::package::{BufferedWrite, FlashPackage, PendingProgram, RegisterTopology};
use crate::plane::{EraseReport, ProgramReport};
use crate::stats::FlashStats;
use crate::timing::{FlashCycles, FlashTiming};

/// Z-NAND program/erase endurance (paper §II-B).
pub const PE_LIMIT: u32 = 100_000;

/// A device-global logical page identity used for register lookups and
/// re-access/redundancy statistics.
pub type PageKey = u64;

/// Device-wide wear/endurance summary (paper §VI, Z-NAND lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnduranceReport {
    /// Erase operations across the whole device.
    pub total_erases: u64,
    /// Erases endured by the worst-worn block.
    pub max_block_erases: u32,
    /// Erases endured by the least-worn block (zero while any block has
    /// never been erased).
    pub min_block_erases: u32,
    /// Blocks erased at least once.
    pub worn_blocks: u64,
    /// Total blocks in the device geometry.
    pub total_blocks: u64,
    /// The media's program/erase endurance (Z-NAND: 100 000).
    pub pe_limit: u32,
}

impl EnduranceReport {
    /// Fraction of the worst block's endurance consumed (0.0-1.0).
    pub fn worst_wear_fraction(&self) -> f64 {
        self.max_block_erases as f64 / self.pe_limit as f64
    }

    /// Fraction of the least-worn block's endurance consumed (0.0-1.0).
    pub fn min_wear_fraction(&self) -> f64 {
        self.min_block_erases as f64 / self.pe_limit as f64
    }

    /// Mean erase fraction across *all* blocks (untouched ones included).
    pub fn mean_wear_fraction(&self) -> f64 {
        if self.total_blocks == 0 {
            return 0.0;
        }
        self.total_erases as f64 / self.total_blocks as f64 / self.pe_limit as f64
    }

    /// Wear spread: the worst block's erase fraction over the device
    /// mean (1.0 = perfectly even; the static wear leveler's trigger
    /// metric). Defined as 1.0 on an unworn device.
    pub fn wear_spread(&self) -> f64 {
        let mean = self.mean_wear_fraction();
        if mean <= 0.0 {
            return 1.0;
        }
        self.worst_wear_fraction() / mean
    }

    /// Wear-levelling quality: mean erases per worn block divided by the
    /// worst block's erases (1.0 = perfectly even).
    pub fn evenness(&self) -> f64 {
        if self.max_block_erases == 0 || self.worn_blocks == 0 {
            return 1.0;
        }
        (self.total_erases as f64 / self.worn_blocks as f64) / self.max_block_erases as f64
    }
}

/// Blocks per erase count, kept current by [`FlashDevice::erase`] so
/// [`FlashDevice::endurance`] reads its report instead of walking every
/// block. Erase counts only ever grow by one, so an erase moves one block
/// up one bucket.
#[derive(Debug, Clone)]
struct EraseHistogram {
    /// `blocks[e]` is how many blocks have been erased exactly `e` times;
    /// never-touched blocks count at zero. The last bucket is non-empty,
    /// so its index is the worst block's count.
    blocks: Vec<u64>,
    /// Erases across the device.
    total: u64,
    /// The first non-empty bucket: the least-worn block's count.
    min: usize,
}

impl EraseHistogram {
    fn new(total_blocks: u64) -> EraseHistogram {
        EraseHistogram {
            blocks: vec![total_blocks],
            total: 0,
            min: 0,
        }
    }

    /// Records that a block's erase count has just reached `erases`.
    fn record(&mut self, erases: u32) {
        let e = erases as usize;
        self.blocks[e - 1] -= 1;
        if e == self.blocks.len() {
            self.blocks.push(0);
        }
        self.blocks[e] += 1;
        self.total += 1;
        if self.blocks[self.min] == 0 {
            self.min = e;
        }
    }
}

/// What a sudden power loss destroyed (returned by
/// [`FlashDevice::power_loss`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLossReport {
    /// Demand programs that were in flight when power was cut; their
    /// pages are now detectably torn.
    pub pages_torn: u64,
    /// Pages that lived only in the volatile register write cache and
    /// were lost outright (never durable, never acknowledged as such).
    pub register_pages_lost: u64,
}

/// The assembled Z-NAND device.
#[derive(Debug, Clone)]
pub struct FlashDevice {
    geometry: FlashGeometry,
    cycles: FlashCycles,
    packages: Vec<FlashPackage>,
    network: FlashNetwork,
    stats: FlashStats,
    /// Monotonic program sequence, stamped onto successfully programmed
    /// pages for write-loss verification (pure metadata, no timing).
    program_seq: u64,
    /// Erase barrier: the program sequence at the most recent erase.
    /// The controller only issues an erase once the programs whose
    /// invalidations justified it have verified, so at a power loss every
    /// program sequenced at or before this watermark has completed.
    fenced_seq: u64,
    /// One finite request queue per channel controller. Unbounded (and
    /// untracked) by default; FTL demand traffic asks for admission here
    /// while GC/recovery traffic bypasses it, so reclamation can always
    /// make progress.
    admission: Vec<AdmissionQueue>,
    /// Dies that failed outright, as `(channel, die)` pairs. Every array
    /// access under a dead die errors; the package's registers and I/O
    /// ports survive (the failure domain is the die, not the chip).
    dead_dies: Vec<(u16, u16)>,
    /// Array reads refused because their die is dead.
    dead_die_reads: u64,
    /// Per-plane silent-corruption streams, indexed by the same
    /// device-global plane tag as the RBER streams. Empty (no RNG state
    /// at all) unless a non-zero SDC rate was configured.
    sdc: Vec<Option<PlaneSdc>>,
    /// One-shot deterministic corruption: the program whose sequence
    /// number equals this value lands silently corrupted.
    sdc_at: Option<u64>,
    /// Read-disturb tracking unit (senses per P/E-equivalent cycle of
    /// exposure); `None` disables endurance accounting entirely.
    disturb_unit: Option<u64>,
    /// Degrading-die fault state ([`FaultConfig::degrading`]): escalating
    /// read/program penalties through a cycle window, death at its end.
    /// `None` (the default) performs no draws at all.
    degrade: Option<DegradeState>,
    /// Erase-count distribution behind [`FlashDevice::endurance`].
    wear: EraseHistogram,
}

impl FlashDevice {
    /// Builds a device with an explicit network and register topology.
    pub fn new(
        geometry: FlashGeometry,
        timing: FlashTiming,
        freq: Freq,
        network: FlashNetwork,
        registers: RegisterTopology,
    ) -> Result<FlashDevice> {
        geometry.validate()?;
        let cycles = timing.to_cycles(freq);
        let packages = (0..geometry.channels)
            .map(|ch| {
                FlashPackage::new(
                    ChannelId(ch as u16),
                    geometry.dies_per_package,
                    geometry.planes_per_die,
                    geometry.blocks_per_plane as u32,
                    geometry.pages_per_block as u32,
                    geometry.page_bytes,
                    geometry.registers_per_plane,
                    geometry.io_ports_per_package,
                    cycles,
                    registers,
                )
            })
            .collect();
        let channels = geometry.channels;
        let wear = EraseHistogram::new(geometry.total_blocks() as u64);
        Ok(FlashDevice {
            geometry,
            cycles,
            packages,
            network,
            stats: FlashStats::new(),
            program_seq: 0,
            fenced_seq: 0,
            admission: vec![AdmissionQueue::new(); channels],
            dead_dies: Vec::new(),
            dead_die_reads: 0,
            sdc: Vec::new(),
            sdc_at: None,
            disturb_unit: None,
            degrade: None,
            wear,
        })
    }

    /// Enables (or disables, with `None`) read-disturb endurance
    /// tracking: every array sense charges its block's disturb counter
    /// and every `unit` senses amplify the block's effective RBER/SDC
    /// wear by one P/E cycle until the block is erased. Off by default;
    /// the off state performs no counter updates and leaves every fault
    /// draw bit-identical.
    pub fn set_endurance_tracking(&mut self, unit: Option<u64>) {
        self.disturb_unit = unit.map(|u| u.max(1));
        for pkg in &mut self.packages {
            for idx in 0..pkg.plane_count() {
                pkg.plane_mut(idx).set_disturb_unit(self.disturb_unit);
            }
        }
    }

    /// Whether read-disturb endurance tracking is enabled.
    pub fn endurance_tracking(&self) -> bool {
        self.disturb_unit.is_some()
    }

    /// `block`'s disturb exposure in P/E-equivalent cycles (zero when
    /// tracking is off).
    pub fn disturb_cycles(&self, block: BlockAddr) -> u64 {
        let plane_idx = self.plane_idx(block);
        self.packages[block.channel.index()]
            .plane(plane_idx)
            .disturb_cycles(block.block)
    }

    /// Fails the die at `(ch, die)`: from now on every array read,
    /// program or erase under it errors. The fault is permanent for the
    /// rest of the run; redundancy-aware FTLs fence the die's blocks and
    /// reconstruct its data from surviving stripe members. Idempotent.
    pub fn fail_die(&mut self, ch: ChannelId, die: DieId) {
        let key = (ch.index() as u16, die.index() as u16);
        if !self.dead_dies.contains(&key) {
            self.dead_dies.push(key);
        }
    }

    /// Whether the die at `(ch, die)` has failed.
    pub fn die_is_dead(&self, ch: ChannelId, die: DieId) -> bool {
        self.dead_dies
            .contains(&(ch.index() as u16, die.index() as u16))
    }

    /// The configured degrading die, if any.
    pub fn degrading_die(&self) -> Option<DegradingDie> {
        self.degrade.as_ref().map(|st| st.config())
    }

    /// Advances the degrading-die clock to `now`: once the configured
    /// death cycle is reached the die joins [`FlashDevice::dead_dies`]
    /// (reads behave exactly like an instant die failure). Called lazily
    /// by every timed array operation; maintenance loops may also call it
    /// so a quiet device still notices the death. Idempotent.
    pub fn degrade_tick(&mut self, now: Cycle) {
        let Some(st) = self.degrade.as_mut() else {
            return;
        };
        if st.tick(now.raw()) {
            let d = st.config();
            let key = (d.channel, d.die);
            if !self.dead_dies.contains(&key) {
                self.dead_dies.push(key);
            }
        }
    }

    /// Whether `(ch, die)` died by *degradation* rather than an instant
    /// `fail_die`. A degraded-dead die still accepts program/erase
    /// commands — they all fail verification (dead silicon verifies
    /// nothing) — so an FTL that never fenced it keeps limping along on
    /// its redrive machinery instead of hard-erroring.
    fn die_is_soft_dead(&self, ch: ChannelId, die: DieId) -> bool {
        self.degrade
            .as_ref()
            .is_some_and(|st| st.is_dead() && st.matches(ch.index() as u16, die.index() as u16))
    }

    /// Failed dies as `(channel, die)` pairs, in failure order.
    pub fn dead_dies(&self) -> &[(u16, u16)] {
        &self.dead_dies
    }

    /// Array reads refused because their die is dead (each one is a
    /// reconstruction opportunity for a redundant FTL).
    pub fn dead_die_reads(&self) -> u64 {
        self.dead_die_reads
    }

    /// Fails channel `ch`'s flash-network injection link; its traffic
    /// detours deterministically through the neighbouring channel (see
    /// [`FlashNetwork::fail_link`]).
    pub fn fail_link(&mut self, ch: ChannelId) {
        self.network.fail_link(ch);
    }

    fn check_die_alive(&self, block: BlockAddr) -> Result<()> {
        if self.die_is_dead(block.channel, block.die)
            && !self.die_is_soft_dead(block.channel, block.die)
        {
            return Err(Error::FlashProtocol(format!(
                "array access on dead die {}:{}",
                block.channel.index(),
                block.die.index()
            )));
        }
        Ok(())
    }

    /// Bounds every channel controller's request queue and the network's
    /// injection links (`None` = unbounded, the default). Only the
    /// explicit admission API ([`FlashDevice::try_admit`]) and
    /// [`FlashNetwork::try_transfer`] enforce the bound, so internal
    /// GC/recovery traffic keeps flowing under overload.
    pub fn set_queue_depth(&mut self, depth: Option<usize>) {
        for q in &mut self.admission {
            q.set_depth(depth);
        }
        self.network.set_queue_depth(depth);
    }

    /// Asks channel `ch`'s controller to admit one demand request at
    /// `now`. Fails with [`Error::Backpressure`] when the channel queue is
    /// full; no-op (always admitted) in unbounded mode.
    pub fn try_admit(&mut self, now: Cycle, ch: ChannelId) -> Result<()> {
        self.admission[ch.index()]
            .try_admit(now)
            .map_err(|retry_at| Error::Backpressure { retry_at })
    }

    /// Reports the completion time of the demand request most recently
    /// admitted on channel `ch` (releases its queue slot at `done`).
    pub fn note_inflight(&mut self, ch: ChannelId, done: Cycle) {
        self.admission[ch.index()].note_inflight(done);
    }

    /// Demand requests refused by channel admission plus injections
    /// refused by the network.
    pub fn qos_rejections(&self) -> u64 {
        self.admission.iter().map(|q| q.rejected()).sum::<u64>() + self.network.rejections()
    }

    /// Demand requests admitted under a bounded configuration.
    pub fn qos_admitted(&self) -> u64 {
        self.admission.iter().map(|q| q.admitted()).sum()
    }

    /// Largest in-flight population admitted on any channel queue or
    /// network link.
    pub fn qos_max_occupancy(&self) -> u64 {
        self.admission
            .iter()
            .map(|q| q.max_occupancy())
            .max()
            .unwrap_or(0)
            .max(self.network.max_link_occupancy())
    }

    /// Installs fault injection on every plane. Each plane gets its own
    /// RNG stream derived from `cfg.seed` and its device-global index, so
    /// runs are deterministic per seed; the `none` profile clears all
    /// fault state and performs no RNG draws at all.
    pub fn set_fault_config(&mut self, cfg: &FaultConfig) {
        let planes_per_package =
            (self.geometry.dies_per_package * self.geometry.planes_per_die) as u64;
        for (ch, pkg) in self.packages.iter_mut().enumerate() {
            for idx in 0..pkg.plane_count() {
                let tag = ch as u64 * planes_per_package + idx as u64;
                pkg.plane_mut(idx)
                    .set_faults(PlaneFaults::new(cfg, tag, PE_LIMIT as u64));
            }
        }
        self.degrade = DegradeState::new(cfg);
    }

    /// Installs silent-corruption (SDC) injection. A non-zero rate gives
    /// every plane its own RNG stream, seeded from `cfg.seed` and the
    /// device-global plane tag but salted so it never correlates with the
    /// RBER fault streams; a zero rate clears all SDC RNG state. The
    /// deterministic `sdc_at` one-shot needs no RNG either way.
    pub fn set_integrity_config(&mut self, cfg: &SdcConfig) {
        self.sdc_at = cfg.sdc_at;
        if cfg.rate > 0.0 {
            let planes_per_package = self.geometry.dies_per_package * self.geometry.planes_per_die;
            let total = self.geometry.channels * planes_per_package;
            self.sdc = (0..total)
                .map(|tag| PlaneSdc::new(cfg, tag as u64, PE_LIMIT as u64))
                .collect();
        } else {
            self.sdc = Vec::new();
        }
    }

    /// The HybridGPU-style device: 1 B ONFI bus, private registers.
    pub fn hybrid_config(geometry: FlashGeometry, freq: Freq) -> Result<FlashDevice> {
        geometry.validate()?;
        let timing = FlashTiming::znand();
        let net = FlashNetwork::bus(
            geometry.channels,
            timing.to_cycles(freq).channel_bytes_per_cycle,
        );
        FlashDevice::new(geometry, timing, freq, net, RegisterTopology::Private)
    }

    /// The ZnG device: 8 B mesh, grouped registers with interconnect
    /// `registers` (Table I: HW-NiF, 8 B width).
    pub fn zng_config(
        geometry: FlashGeometry,
        freq: Freq,
        registers: RegisterTopology,
    ) -> Result<FlashDevice> {
        geometry.validate()?;
        let net = FlashNetwork::mesh(geometry.channels, 8.0, Cycle(2));
        FlashDevice::new(geometry, FlashTiming::znand(), freq, net, registers)
    }

    fn plane_idx(&self, addr: BlockAddr) -> usize {
        self.packages[addr.channel.index()].plane_index(addr.die.index(), addr.plane.index())
    }

    /// Reads logical page `key` stored at `addr`, delivering
    /// `transfer_bytes` to the requesting controller.
    ///
    /// The whole 4 KB page is always sensed from the array (the
    /// granularity mismatch of §III-A); `transfer_bytes` controls how much
    /// crosses the flash network — 128 B for an unbuffered sector read,
    /// 4 KB when the L2 buffers the page (rdopt).
    ///
    /// If a flash register already holds `key` (a recently written page),
    /// the read is served from the register without an array access.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (unprogrammed page, bad address), or
    /// [`Error::UncorrectableRead`] when fault injection exhausts the
    /// read-retry ladder (transient: a later attempt may succeed).
    pub fn read(
        &mut self,
        now: Cycle,
        addr: FlashAddr,
        key: PageKey,
        transfer_bytes: usize,
    ) -> Result<Cycle> {
        self.degrade_tick(now);
        let ch = addr.block.channel;
        let die = addr.block.die.index() as u16;
        let pkg = &mut self.packages[ch.index()];
        if pkg.register_holds(key) {
            let at_pins = pkg.read_from_register(now, transfer_bytes);
            return Ok(self.network.transfer(at_pins, ch, transfer_bytes));
        }
        if self.die_is_dead(ch, addr.block.die) {
            // Surfaced as an uncorrectable read so the FTL's existing
            // retry/reconstruction machinery handles both failure classes
            // through one path; retries are pointless on dead silicon, so
            // the ladder depth is reported as zero.
            self.dead_die_reads += 1;
            self.stats.record_die_uncorrectable(ch.index() as u16, die);
            return Err(Error::UncorrectableRead {
                block: addr.block.block as u64,
                page: addr.page,
                retries: 0,
            });
        }
        let plane_idx = self.plane_idx(addr.block);
        let track = self.disturb_unit.is_some();
        let (pre_noted, pre_errors) = if track {
            let p = self.packages[ch.index()].plane(plane_idx);
            (p.disturb_noted(), p.disturb_errors())
        } else {
            (0, 0)
        };
        let pkg = &mut self.packages[ch.index()];
        let result = pkg.read_page_from_array(now, plane_idx, addr.block.block, addr.page);
        if track {
            let p = self.packages[ch.index()].plane(plane_idx);
            for _ in pre_noted..p.disturb_noted() {
                self.stats.record_disturb_read();
                self.stats.record_die_disturb(ch.index() as u16, die);
            }
            for _ in pre_errors..p.disturb_errors() {
                self.stats.record_disturb_triggered_error();
            }
        }
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                if matches!(e, Error::UncorrectableRead { .. }) {
                    self.stats.record_uncorrectable_read();
                    self.stats.record_die_uncorrectable(ch.index() as u16, die);
                }
                return Err(e);
            }
        };
        // Degrading-die penalty: a sense inside the window burns extra
        // retry-ladder steps (charged like organic retries), and can
        // exhaust the ladder outright.
        let mut extra = 0u32;
        if r.sensed {
            if let Some(st) = self.degrade.as_mut() {
                if !st.is_dead() && st.matches(ch.index() as u16, die) {
                    let (steps, exhausted) = st.read_penalty(now.raw());
                    extra = steps;
                    if exhausted {
                        // A failed sense never latches in the register.
                        self.packages[ch.index()].plane_mut(plane_idx).evict_latch();
                        self.stats.record_uncorrectable_read();
                        self.stats.record_die_uncorrectable(ch.index() as u16, die);
                        return Err(Error::UncorrectableRead {
                            block: addr.block.block as u64,
                            page: addr.page,
                            retries: extra,
                        });
                    }
                }
            }
        }
        let steps = r.retries as u64 + extra as u64;
        self.stats.record_read_retries(steps);
        let mut done = r.done;
        if r.sensed {
            self.stats.record_die_read(ch.index() as u16, die, steps);
            self.stats.record_read(key, self.geometry.page_bytes);
            self.maybe_miscorrect(now, addr);
            done += Cycle(extra as u64 * (self.cycles.read.raw() + RETRY_STEP_EXTRA_CYCLES));
        }
        Ok(self.network.transfer(done, ch, transfer_bytes))
    }

    /// Draws from the plane's SDC stream on a fresh array sense: with
    /// probability scaled by block wear and page retention age, the ECC
    /// engine miscorrects the payload and the page is silently corrupted
    /// from here on (the flag is in the array, so it persists across
    /// power loss until the block is erased). No-op — and no RNG draw —
    /// when SDC injection is off or the page is already corrupt.
    fn maybe_miscorrect(&mut self, now: Cycle, addr: FlashAddr) {
        if self.sdc.is_empty() {
            return;
        }
        let planes_per_package = self.geometry.dies_per_package * self.geometry.planes_per_die;
        let tag = addr.block.channel.index() * planes_per_package + self.plane_idx(addr.block);
        let (erase_count, age) = match self.block(addr.block) {
            Some(b) if !b.is_corrupt(addr.page) => {
                let age = match b.oob(addr.page) {
                    PageOob::Written(m) => now.raw().saturating_sub(m.programmed_at.raw()),
                    _ => now.raw(),
                };
                (b.erase_count() as u64, age)
            }
            _ => return,
        };
        let disturb = if self.disturb_unit.is_some() {
            self.packages[addr.block.channel.index()]
                .plane(self.plane_idx(addr.block))
                .disturb_cycles(addr.block.block)
        } else {
            0
        };
        let (hit, disturb_hit) = match self.sdc.get_mut(tag).and_then(|s| s.as_mut()) {
            Some(stream) => stream.miscorrects_disturbed(erase_count, age, disturb),
            None => return,
        };
        if disturb_hit {
            self.stats.record_disturb_triggered_error();
        }
        if hit {
            if let Ok(b) = self.block_mut(addr.block) {
                b.mark_corrupt(addr.page);
            }
            self.stats.record_silent_corruption();
        }
    }

    /// Serves `transfer_bytes` of logical page `key` from channel `ch`'s
    /// flash registers, if a register currently holds it.
    pub fn read_from_register_if_held(
        &mut self,
        now: Cycle,
        ch: ChannelId,
        key: PageKey,
        transfer_bytes: usize,
    ) -> Option<Cycle> {
        let pkg = &mut self.packages[ch.index()];
        if !pkg.register_holds(key) {
            return None;
        }
        let at_pins = pkg.read_from_register(now, transfer_bytes);
        Some(self.network.transfer(at_pins, ch, transfer_bytes))
    }

    /// Writes the OOB record of a successfully programmed page (stamp +
    /// LPN + block tag, atomically with the data) and bumps the sequence;
    /// failed programs count into the failure statistics instead.
    /// `demand` marks writes that tear if power is cut before
    /// `report.done`; GC migrations and preloads pass `false` (see
    /// [`OobMeta::demand`]).
    fn finish_program(
        &mut self,
        block: BlockAddr,
        key: PageKey,
        report: &ProgramReport,
        demand: bool,
    ) {
        self.stats.record_die_program(
            block.channel.index() as u16,
            block.die.index() as u16,
            report.failed,
        );
        if report.failed {
            self.stats.record_program_failure();
            return;
        }
        self.program_seq += 1;
        let seq = self.program_seq;
        let done = report.done;
        let sdc_hit = self.sdc_at == Some(seq);
        if let Ok(b) = self.block_mut(block) {
            let tag = b.kind();
            b.record_oob(
                report.page,
                OobMeta {
                    lpn: key,
                    seq,
                    tag,
                    programmed_at: done,
                    demand,
                },
            );
            if sdc_hit {
                b.mark_corrupt(report.page);
            }
        }
        if sdc_hit {
            self.stats.record_silent_corruption();
        }
    }

    /// Programs a full page of logical page `key` into the next in-order
    /// page of `block`, streaming the data across the network first.
    ///
    /// A report with [`ProgramReport::failed`] set means verification
    /// failed: the page holds garbage, the block is marked failed, and
    /// the FTL must re-drive the write into another block.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (full block).
    pub fn program(&mut self, now: Cycle, block: BlockAddr, key: PageKey) -> Result<ProgramReport> {
        self.degrade_tick(now);
        self.check_die_alive(block)?;
        let ch = block.channel;
        let arrived = self.network.transfer(now, ch, self.geometry.page_bytes);
        let plane_idx = self.plane_idx(block);
        let pkg = &mut self.packages[ch.index()];
        let report = pkg.program_page(arrived, plane_idx, block.block)?;
        let report = self.degrade_program(now, block, report);
        self.stats.record_program(key, self.geometry.page_bytes);
        self.finish_program(block, key, &report, true);
        Ok(report)
    }

    /// Applies the degrading-die program penalty: inside the window a
    /// program on the degrading die fails verification with probability
    /// equal to the severity; past death every program on it fails (dead
    /// silicon verifies nothing). The burned page and failed block end
    /// up exactly as an organically drawn failure would, so the FTL's
    /// redrive/retire machinery absorbs both identically.
    fn degrade_program(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        mut report: ProgramReport,
    ) -> ProgramReport {
        if report.failed {
            return report;
        }
        let Some(st) = self.degrade.as_mut() else {
            return report;
        };
        if !st.matches(block.channel.index() as u16, block.die.index() as u16) {
            return report;
        }
        if st.is_dead() || st.program_fails(now.raw()) {
            report.failed = true;
            if let Ok(b) = self.block_mut(block) {
                b.mark_failed();
                b.invalidate(report.page);
            }
        }
        report
    }

    /// Programs a page as part of a GC migration: same mechanics as
    /// [`FlashDevice::program`], but counted as migration traffic rather
    /// than demand write redundancy.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (full block).
    pub fn program_migrate(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        key: PageKey,
    ) -> Result<ProgramReport> {
        self.degrade_tick(now);
        self.check_die_alive(block)?;
        let ch = block.channel;
        let arrived = self.network.transfer(now, ch, self.geometry.page_bytes);
        let plane_idx = self.plane_idx(block);
        let pkg = &mut self.packages[ch.index()];
        let report = pkg.program_page(arrived, plane_idx, block.block)?;
        let report = self.degrade_program(now, block, report);
        self.stats
            .record_migration_program(self.geometry.page_bytes);
        self.finish_program(block, key, &report, false);
        Ok(report)
    }

    /// Programs a register-evicted page (data already inside the package).
    ///
    /// # Errors
    ///
    /// Flash protocol errors (full block).
    pub fn program_evicted(
        &mut self,
        now: Cycle,
        block: BlockAddr,
        key: PageKey,
    ) -> Result<ProgramReport> {
        self.degrade_tick(now);
        self.check_die_alive(block)?;
        let plane_idx = self.plane_idx(block);
        let pkg = &mut self.packages[block.channel.index()];
        let report = pkg.program_page_internal(now, plane_idx, block.block)?;
        let report = self.degrade_program(now, block, report);
        self.stats.record_program(key, self.geometry.page_bytes);
        self.finish_program(block, key, &report, true);
        Ok(report)
    }

    /// Installs logical page `lpn` into the next in-order page of `block`
    /// with a full OOB record, **outside** the timing model: this is how
    /// FTLs pre-load a dataset that logically resided on the device at
    /// kernel launch. The stamp sequence still advances so later demand
    /// writes of the same LPN outrank the preload during recovery.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (full block, bad address).
    pub fn preload_page(&mut self, block: BlockAddr, lpn: u64) -> Result<u32> {
        self.program_seq += 1;
        let seq = self.program_seq;
        let sdc_hit = self.sdc_at == Some(seq);
        let b = self.block_mut(block)?;
        let tag = b.kind();
        let page = b.program_next()?;
        b.record_oob(
            page,
            OobMeta {
                lpn,
                seq,
                tag,
                programmed_at: Cycle::ZERO,
                demand: false,
            },
        );
        if sdc_hit {
            b.mark_corrupt(page);
            self.stats.record_silent_corruption();
        }
        Ok(page)
    }

    /// Submits a 128 B sector write of `key` (homed at `home`) to the
    /// flash registers of the home package (wropt write path).
    pub fn buffered_write(&mut self, now: Cycle, key: PageKey, home: BlockAddr) -> BufferedWrite {
        let ch = home.channel;
        let arrived = self.network.transfer(now, ch, 128);
        let plane_idx = self.plane_idx(home);
        let pkg = &mut self.packages[ch.index()];
        pkg.buffered_write(arrived, key, plane_idx, 128, &mut self.network)
    }

    /// Erases `block`. A report with [`EraseReport::failed`] set means
    /// the block failed erase verification and must be retired.
    ///
    /// # Errors
    ///
    /// Flash protocol errors (valid pages remain).
    pub fn erase(&mut self, now: Cycle, block: BlockAddr) -> Result<EraseReport> {
        self.degrade_tick(now);
        self.check_die_alive(block)?;
        let plane_idx = self.plane_idx(block);
        // Erase barrier: all programs issued so far are ordered before
        // this erase (see the `fenced_seq` field).
        self.fenced_seq = self.program_seq;
        let mut report =
            self.packages[block.channel.index()].erase_block(now, plane_idx, block.block)?;
        // A failed erase still counts: the plane charged the wear.
        let erases = self
            .block(block)
            .expect("the plane has just erased this block")
            .erase_count();
        self.wear.record(erases);
        // Degrading-die erase penalty, mirroring the program penalty.
        if !report.failed {
            if let Some(st) = self.degrade.as_mut() {
                if st.matches(block.channel.index() as u16, block.die.index() as u16)
                    && (st.is_dead() || st.erase_fails(now.raw()))
                {
                    report.failed = true;
                    if let Ok(b) = self.block_mut(block) {
                        b.mark_failed();
                    }
                }
            }
        }
        if report.failed {
            self.stats.record_erase_failure();
        }
        self.stats.record_die_erase(
            block.channel.index() as u16,
            block.die.index() as u16,
            report.failed,
        );
        Ok(report)
    }

    /// The `(key, sequence)` stamped by the last successful program of
    /// the page at `addr` (verification metadata, no timing impact).
    pub fn page_stamp(&self, addr: FlashAddr) -> Option<(u64, u64)> {
        self.block(addr.block).and_then(|b| b.stamp(addr.page))
    }

    /// The full OOB record of the page at `addr`, if it was programmed
    /// with one and not torn.
    pub fn page_oob(&self, addr: FlashAddr) -> Option<OobMeta> {
        match self.block(addr.block).map(|b| b.oob(addr.page)) {
            Some(PageOob::Written(m)) => Some(m),
            _ => None,
        }
    }

    /// Whether the page at `addr` was torn by a power loss.
    pub fn page_is_torn(&self, addr: FlashAddr) -> bool {
        self.block(addr.block).is_some_and(|b| b.is_torn(addr.page))
    }

    /// Whether the page at `addr` holds a silently corrupted payload (its
    /// end-to-end checksum would fail even though ECC reported success).
    pub fn page_is_corrupt(&self, addr: FlashAddr) -> bool {
        self.block(addr.block)
            .is_some_and(|b| b.is_corrupt(addr.page))
    }

    /// Marks the page at `addr` silently corrupted (test/fault-injection
    /// aid; the organic paths are the SDC streams and `sdc_at`).
    ///
    /// # Errors
    ///
    /// Returns an address error for an invalid block index.
    pub fn mark_page_corrupt(&mut self, addr: FlashAddr) -> Result<()> {
        self.block_mut(addr.block)?.mark_corrupt(addr.page);
        self.stats.record_silent_corruption();
        Ok(())
    }

    /// Cuts power to the whole device at `now`.
    ///
    /// Everything volatile is lost: the register write caches of every
    /// package (unwritten pages are gone), the plane cache-register
    /// latches, and the per-block validity/role bookkeeping that mirrors
    /// FTL state. In-flight demand programs (`programmed_at > now`) are
    /// torn. Only the flash arrays — programmed pages, OOB records, wear
    /// counters, sticky failure flags — survive, which is exactly what an
    /// FTL `recover()` scan starts from.
    pub fn power_loss(&mut self, now: Cycle) -> PowerLossReport {
        let mut report = PowerLossReport {
            pages_torn: 0,
            register_pages_lost: 0,
        };
        for pkg in &mut self.packages {
            let (torn, dropped) = pkg.power_loss(now, self.fenced_seq);
            report.pages_torn += torn;
            report.register_pages_lost += dropped;
        }
        self.stats.record_power_loss(report.pages_torn);
        report
    }

    /// Marks a page stale (superseded by a newer program elsewhere).
    pub fn invalidate(&mut self, addr: FlashAddr) {
        let plane_idx = self.plane_idx(addr.block);
        if let Ok(b) = self.packages[addr.block.channel.index()]
            .plane_mut(plane_idx)
            .block_mut(addr.block.block)
        {
            b.invalidate(addr.page);
        }
    }

    /// Shared access to a block's state, if it was ever touched.
    pub fn block(&self, addr: BlockAddr) -> Option<&Block> {
        let plane_idx = self.plane_idx(addr);
        self.packages[addr.channel.index()]
            .plane(plane_idx)
            .block(addr.block)
    }

    /// Mutable access to a block's state (creates it erased).
    ///
    /// # Errors
    ///
    /// Returns an address error for an invalid block index.
    pub fn block_mut(&mut self, addr: BlockAddr) -> Result<&mut Block> {
        let plane_idx = self.plane_idx(addr);
        self.packages[addr.channel.index()]
            .plane_mut(plane_idx)
            .block_mut(addr.block)
    }

    /// Drains the registers of `channel`'s package (GC flush).
    pub fn flush_registers(&mut self, now: Cycle, channel: ChannelId) -> Vec<PendingProgram> {
        let pkg = &mut self.packages[channel.index()];
        pkg.flush_registers(now, &mut self.network)
    }

    /// Drops a stale register entry anywhere in the device.
    pub fn discard_register(&mut self, channel: ChannelId, key: PageKey) -> bool {
        self.packages[channel.index()].discard_register(key)
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Media timing in cycles.
    pub fn cycles(&self) -> FlashCycles {
        self.cycles
    }

    /// Access statistics.
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// The flash network (for utilization inspection).
    pub fn network(&self) -> &FlashNetwork {
        &self.network
    }

    /// One package by channel.
    pub fn package(&self, ch: ChannelId) -> &FlashPackage {
        &self.packages[ch.index()]
    }

    /// Cross-plane register migrations across all packages (Fig. 14
    /// accounting).
    pub fn total_migrations(&self) -> u64 {
        self.packages.iter().map(|p| p.migrations()).sum()
    }

    /// Resets statistics (not media state).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Endurance summary across every block ever touched (paper §VI's
    /// lifetime discussion): total erases, the worst-worn block, and how
    /// evenly wear is spread. O(1): read from the erase histogram that
    /// [`FlashDevice::erase`] maintains.
    pub fn endurance(&self) -> EnduranceReport {
        let total_blocks = self.geometry.total_blocks() as u64;
        EnduranceReport {
            total_erases: self.wear.total,
            max_block_erases: (self.wear.blocks.len() - 1) as u32,
            min_block_erases: self.wear.min as u32,
            worn_blocks: total_blocks - self.wear.blocks[0],
            total_blocks,
            pe_limit: PE_LIMIT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zng_types::ids::{DieId, PlaneId};

    fn device() -> FlashDevice {
        FlashDevice::zng_config(
            FlashGeometry::tiny(),
            Freq::default(),
            RegisterTopology::NiF,
        )
        .unwrap()
    }

    fn block0() -> BlockAddr {
        BlockAddr::new(ChannelId(0), DieId(0), PlaneId(0), 0)
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut d = device();
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        assert_eq!(r.page, 0);
        assert!(!r.failed);
        assert!(r.done >= Cycle(120_000));
        let t_read = d.read(r.done, block0().page(0), 1, 128).unwrap();
        assert!(t_read > r.done);
        assert_eq!(d.stats().total_reads(), 1);
        assert_eq!(d.stats().total_programs(), 1);
    }

    #[test]
    fn read_unprogrammed_page_fails() {
        let mut d = device();
        assert!(d.read(Cycle(0), block0().page(3), 9, 128).is_err());
    }

    #[test]
    fn register_hit_avoids_array_read() {
        let mut d = device();
        // Write key 77 into the registers of block0's home package.
        d.buffered_write(Cycle(0), 77, block0());
        let before = d.stats().total_reads();
        // Read it back: register-served, page need not even exist on
        // flash yet.
        let t = d.read(Cycle(0), block0().page(0), 77, 128).unwrap();
        assert!(t > Cycle(0));
        assert_eq!(d.stats().total_reads(), before, "no array read");
    }

    #[test]
    fn sector_vs_page_transfer_cost() {
        let mut d = device();
        d.program(Cycle(0), block0(), 1).unwrap();
        let t_sector = d.read(Cycle(1_000_000), block0().page(0), 1, 128).unwrap();
        let mut d2 = device();
        d2.program(Cycle(0), block0(), 1).unwrap();
        let t_page = d2
            .read(Cycle(1_000_000), block0().page(0), 1, 4096)
            .unwrap();
        assert!(t_page > t_sector, "4 KB network transfer costs more");
    }

    #[test]
    fn erase_requires_dead_pages() {
        let mut d = device();
        d.program(Cycle(0), block0(), 5).unwrap();
        assert!(d.erase(Cycle(0), block0()).is_err());
        d.invalidate(block0().page(0));
        assert!(d.erase(Cycle(0), block0()).is_ok());
    }

    #[test]
    fn buffered_write_eventually_evicts() {
        let mut d = device();
        // tiny geometry: 2x2 planes, 4 regs/plane = 16 registers/package.
        let mut evicted = 0;
        for k in 0..40u64 {
            let r = d.buffered_write(Cycle(0), k, block0());
            if r.eviction.is_some() {
                evicted += 1;
            }
        }
        assert!(evicted > 0);
    }

    #[test]
    fn register_if_held_serves_without_array() {
        let mut d = device();
        assert!(d
            .read_from_register_if_held(Cycle(0), ChannelId(0), 42, 128)
            .is_none());
        d.buffered_write(Cycle(0), 42, block0());
        let t = d
            .read_from_register_if_held(Cycle(10), ChannelId(0), 42, 128)
            .expect("register-held");
        assert!(t > Cycle(10));
        assert_eq!(d.stats().total_reads(), 0, "no array sense");
    }

    #[test]
    fn migration_programs_do_not_count_as_demand_redundancy() {
        let mut d = device();
        d.program(Cycle(0), block0(), 7).unwrap();
        let before_pages = d.stats().mean_programs_per_page();
        let b1 = BlockAddr::new(ChannelId(1), DieId(0), PlaneId(0), 0);
        d.program_migrate(Cycle(0), b1, 7).unwrap();
        assert_eq!(d.stats().mean_programs_per_page(), before_pages);
        assert!(d.stats().bytes_programmed() >= 2 * 4096);
    }

    #[test]
    fn stamps_record_successful_programs() {
        let mut d = device();
        let r1 = d.program(Cycle(0), block0(), 10).unwrap();
        let r2 = d.program(Cycle(0), block0(), 11).unwrap();
        let a1 = block0().page(r1.page);
        let a2 = block0().page(r2.page);
        let (k1, s1) = d.page_stamp(a1).unwrap();
        let (k2, s2) = d.page_stamp(a2).unwrap();
        assert_eq!((k1, k2), (10, 11));
        assert!(s2 > s1, "sequence is monotonic");
        assert!(d.page_stamp(block0().page(99)).is_none());
    }

    #[test]
    fn power_loss_tears_inflight_and_drops_registers() {
        let mut d = device();
        // A completed program (cut happens long after done).
        let r0 = d.program(Cycle(0), block0(), 10).unwrap();
        // An in-flight demand program: cut at its issue time.
        let r1 = d.program(r0.done, block0(), 11).unwrap();
        // A register-resident page that never reached the array.
        d.buffered_write(r0.done, 99, block0());
        let rep = d.power_loss(r0.done + Cycle(1));
        assert_eq!(rep.pages_torn, 1);
        assert_eq!(rep.register_pages_lost, 1);
        // The durable page survives with its OOB intact.
        let m = d.page_oob(block0().page(r0.page)).unwrap();
        assert_eq!(m.lpn, 10);
        assert!(d.page_is_torn(block0().page(r1.page)));
        assert!(d.page_oob(block0().page(r1.page)).is_none());
        // Torn pages are refused at the device level too.
        assert!(matches!(
            d.read(Cycle(10_000_000), block0().page(r1.page), 11, 128),
            Err(Error::TornPage { .. })
        ));
        assert_eq!(d.stats().power_losses(), 1);
        assert_eq!(d.stats().pages_torn(), 1);
    }

    #[test]
    fn erase_fences_earlier_programs_from_tearing() {
        let mut d = device();
        // An in-flight demand program (done far in the future)…
        let r = d.program(Cycle(0), block0(), 5).unwrap();
        assert!(r.done > Cycle(1));
        // …followed by an erase elsewhere: the controller only issues an
        // erase after the programs ordered before it have verified.
        let other = BlockAddr::new(ChannelId(1), DieId(0), PlaneId(0), 0);
        let rp = d.program(Cycle(0), other, 6).unwrap();
        d.invalidate(other.page(rp.page));
        d.erase(Cycle(0), other).unwrap();
        let rep = d.power_loss(Cycle(1));
        assert_eq!(rep.pages_torn, 0, "the erase barrier covers the program");
        assert!(d.page_oob(block0().page(r.page)).is_some());
    }

    #[test]
    fn preload_stamps_oob_outside_timing() {
        let mut d = device();
        let page = d.preload_page(block0(), 42).unwrap();
        let m = d.page_oob(block0().page(page)).unwrap();
        assert_eq!(m.lpn, 42);
        assert!(!m.demand);
        assert_eq!(m.programmed_at, Cycle::ZERO);
        assert_eq!(d.stats().total_programs(), 0, "no timing, no stats");
        // A later demand program outranks the preload.
        let r = d.program(Cycle(0), block0(), 42).unwrap();
        let m2 = d.page_oob(block0().page(r.page)).unwrap();
        assert!(m2.seq > m.seq);
    }

    #[test]
    fn fault_config_streams_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut d = device();
            d.set_fault_config(&crate::fault::FaultConfig::end_of_life().with_seed(seed));
            let mut log = Vec::new();
            for k in 0..32u64 {
                let r = d.program(Cycle(0), block0(), k);
                log.push(match r {
                    Ok(rep) => (rep.failed, rep.page),
                    Err(_) => (true, u32::MAX),
                });
            }
            (log, d.stats().program_failures())
        };
        assert_eq!(run(9), run(9), "same seed, same fault sequence");
    }

    #[test]
    fn none_profile_draws_nothing() {
        let mut d = device();
        d.set_fault_config(&crate::fault::FaultConfig::none());
        for k in 0..16u64 {
            assert!(!d.program(Cycle(0), block0(), k).unwrap().failed);
        }
        d.invalidate(block0().page(0));
        assert_eq!(d.stats().read_retries(), 0);
        assert_eq!(d.stats().program_failures(), 0);
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut g = FlashGeometry::tiny();
        g.channels = 0;
        assert!(FlashDevice::zng_config(g, Freq::default(), RegisterTopology::NiF).is_err());
    }

    #[test]
    fn dead_die_refuses_array_access_but_keeps_registers() {
        let mut d = device();
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        d.fail_die(ChannelId(0), DieId(0));
        assert!(d.die_is_dead(ChannelId(0), DieId(0)));
        assert!(!d.die_is_dead(ChannelId(0), DieId(1)));
        assert_eq!(d.dead_dies(), &[(0, 0)]);
        // Reads come back as uncorrectable with zero ladder depth.
        assert!(matches!(
            d.read(Cycle(1_000_000), block0().page(r.page), 1, 128),
            Err(Error::UncorrectableRead { retries: 0, .. })
        ));
        assert_eq!(d.dead_die_reads(), 1);
        // Programs and erases are refused outright.
        assert!(d.program(Cycle(0), block0(), 2).is_err());
        assert!(d.erase(Cycle(0), block0()).is_err());
        // The surviving die on the same channel still works.
        let b_live = BlockAddr::new(ChannelId(0), DieId(1), PlaneId(0), 0);
        let r2 = d.program(Cycle(0), b_live, 3).unwrap();
        assert!(d.read(r2.done, b_live.page(r2.page), 3, 128).is_ok());
        // Register-resident pages survive: the failure domain is the die.
        d.buffered_write(Cycle(0), 42, block0());
        assert!(d
            .read_from_register_if_held(Cycle(10), ChannelId(0), 42, 128)
            .is_some());
    }

    #[test]
    fn sdc_at_corrupts_exactly_one_program() {
        let mut d = device();
        d.set_integrity_config(&SdcConfig {
            rate: 0.0,
            sdc_at: Some(2),
            seed: 42,
        });
        let r1 = d.program(Cycle(0), block0(), 10).unwrap();
        let r2 = d.program(Cycle(0), block0(), 11).unwrap();
        let r3 = d.program(Cycle(0), block0(), 12).unwrap();
        assert!(!d.page_is_corrupt(block0().page(r1.page)));
        assert!(d.page_is_corrupt(block0().page(r2.page)));
        assert!(!d.page_is_corrupt(block0().page(r3.page)));
        assert_eq!(d.stats().silent_corruptions(), 1);
        // The corrupt read still "succeeds" at the device level — the
        // miscorrection is silent; detection is the FTL checksum's job.
        assert!(d
            .read(Cycle(10_000_000), block0().page(r2.page), 11, 128)
            .is_ok());
    }

    #[test]
    fn sdc_rate_streams_corrupt_reads_deterministically() {
        let run = |seed: u64| {
            let mut d = device();
            d.set_integrity_config(&SdcConfig {
                rate: 0.2,
                sdc_at: None,
                seed,
            });
            let r = d.program(Cycle(0), block0(), 1).unwrap();
            let addr = block0().page(r.page);
            let mut first_corrupt = None;
            for i in 0..64u64 {
                let now = Cycle(1_000_000 + i * 1_000_000);
                let _ = d.read(now, addr, 1, 128);
                if first_corrupt.is_none() && d.page_is_corrupt(addr) {
                    first_corrupt = Some(i);
                }
            }
            (first_corrupt, d.stats().silent_corruptions())
        };
        assert_eq!(run(7), run(7), "same seed, same corruption point");
        let (hit, n) = run(7);
        assert!(
            hit.is_some(),
            "20% per-sense rate must fire within 64 reads"
        );
        assert_eq!(n, 1, "an already-corrupt page draws no further");
    }

    #[test]
    fn integrity_off_keeps_no_sdc_state() {
        let mut d = device();
        d.set_integrity_config(&SdcConfig::off());
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        let addr = block0().page(r.page);
        for i in 0..16u64 {
            d.read(Cycle(1_000_000 + i), addr, 1, 128).unwrap();
        }
        assert!(!d.page_is_corrupt(addr));
        assert_eq!(d.stats().silent_corruptions(), 0);
    }

    #[test]
    fn mark_page_corrupt_clears_on_erase() {
        let mut d = device();
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        let addr = block0().page(r.page);
        d.mark_page_corrupt(addr).unwrap();
        assert!(d.page_is_corrupt(addr));
        // Corruption lives in the array: a power loss does not clear it.
        d.power_loss(Cycle(10_000_000));
        assert!(d.page_is_corrupt(addr));
        d.invalidate(addr);
        d.erase(Cycle(10_000_000), block0()).unwrap();
        assert!(!d.page_is_corrupt(addr));
    }

    #[test]
    fn endurance_tracking_charges_disturb_and_resets_on_erase() {
        let mut d = device();
        d.set_endurance_tracking(Some(4));
        assert!(d.endurance_tracking());
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        let addr = block0().page(r.page);
        for i in 0..8u64 {
            // Distinct cache-register keys are not in play here: evict
            // the latch by reading through the device repeatedly after a
            // program of another page would be complex; instead rely on
            // the first sense + register hits. Re-program to evict.
            let _ = d.read(Cycle(1_000_000 + i), addr, 1, 128);
            d.program(Cycle(1_000_000 + i), block0(), 100 + i).unwrap();
        }
        let b = d.block(block0()).unwrap();
        assert!(b.disturb_reads() > 0, "senses must charge the counter");
        assert!(d.stats().disturb_reads() > 0);
        assert_eq!(d.disturb_cycles(block0()), b.disturb_reads() / 4);
        // Erase restores the charge.
        for p in 0..b.programmed_pages() {
            d.invalidate(block0().page(p));
        }
        d.erase(Cycle(50_000_000), block0()).unwrap();
        assert_eq!(d.block(block0()).unwrap().disturb_reads(), 0);
        assert_eq!(d.disturb_cycles(block0()), 0);
    }

    #[test]
    fn endurance_tracking_off_is_inert() {
        let mut d = device();
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        for i in 0..8u64 {
            let _ = d.read(Cycle(1_000_000 + i), block0().page(r.page), 1, 128);
        }
        assert_eq!(d.stats().disturb_reads(), 0);
        assert_eq!(d.stats().disturb_triggered_errors(), 0);
        assert_eq!(d.block(block0()).unwrap().disturb_reads(), 0);
    }

    #[test]
    fn endurance_report_tracks_min_mean_and_spread() {
        let mut d = device();
        let fresh = d.endurance();
        assert_eq!(fresh.min_block_erases, 0);
        assert_eq!(fresh.mean_wear_fraction(), 0.0);
        assert_eq!(fresh.wear_spread(), 1.0, "unworn device is even");
        // Wear one block once.
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        d.invalidate(block0().page(r.page));
        d.erase(Cycle(0), block0()).unwrap();
        let e = d.endurance();
        assert_eq!(e.max_block_erases, 1);
        assert_eq!(e.min_block_erases, 0, "other blocks untouched");
        assert_eq!(e.total_blocks, d.geometry().total_blocks() as u64);
        assert!(e.mean_wear_fraction() > 0.0);
        assert!(
            e.wear_spread() > 1.0,
            "single worn block must show a spread"
        );
        assert!(e.min_wear_fraction() < e.worst_wear_fraction());
    }

    /// The walk `endurance` made before the erase histogram: every block
    /// of the geometry, untouched ones at zero erases.
    fn endurance_by_scan(d: &FlashDevice) -> EnduranceReport {
        let total_blocks = d.geometry().total_blocks() as u64;
        let (mut total, mut max, mut min, mut worn_blocks) = (0u64, 0u32, u32::MAX, 0u64);
        for idx in 0..total_blocks {
            let addr = d.geometry().block_for_index(idx).unwrap();
            let e = d.block(addr).map_or(0, Block::erase_count);
            min = min.min(e);
            if e > 0 {
                worn_blocks += 1;
                total += u64::from(e);
                max = max.max(e);
            }
        }
        EnduranceReport {
            total_erases: total,
            max_block_erases: max,
            min_block_erases: if min == u32::MAX { 0 } else { min },
            worn_blocks,
            total_blocks,
            pe_limit: PE_LIMIT,
        }
    }

    #[test]
    fn endurance_matches_a_full_scan_across_erase_sequences() {
        use rand::Rng;
        for seed in 0..6u64 {
            let mut d = device();
            // Odd seeds wear out: some erases fail verification, and
            // still count.
            if seed % 2 == 1 {
                d.set_fault_config(&FaultConfig::end_of_life().with_seed(seed));
            }
            let total = d.geometry().total_blocks() as u64;
            let mut rng = zng_sim::rng::seeded(seed);
            let mut refused = 0;
            for step in 0..600u64 {
                // Half the erases hit four hot blocks, so counts climb and
                // the least-worn block changes as the cold ones catch up.
                let idx = if rng.gen_bool(0.5) {
                    rng.gen_range(0..4)
                } else {
                    rng.gen_range(0..total)
                };
                let addr = d.geometry().block_for_index(idx).unwrap();
                if rng.gen_bool(0.2) {
                    // A live page makes the erase a protocol error, which
                    // must not count.
                    if d.program(Cycle(step), addr, step).is_ok_and(|r| !r.failed) {
                        refused += u64::from(d.erase(Cycle(step), addr).is_err());
                    }
                    let live = d.block(addr).map_or(0, |b| b.programmed_pages());
                    for page in 0..live {
                        d.invalidate(addr.page(page));
                    }
                }
                d.erase(Cycle(step), addr).unwrap();
                assert_eq!(
                    d.endurance(),
                    endurance_by_scan(&d),
                    "seed {seed} step {step}"
                );
            }
            assert!(refused > 0, "seed {seed}: no refused erase exercised");
            if seed % 2 == 1 {
                assert!(
                    d.stats().erase_failures() > 0,
                    "seed {seed}: no failed erase"
                );
            }
        }
        // Every block worn at least once moves the minimum off zero.
        let mut d = device();
        let total = d.geometry().total_blocks() as u64;
        for round in 0..3 {
            for idx in 0..total {
                let addr = d.geometry().block_for_index(idx).unwrap();
                d.erase(Cycle(round), addr).unwrap();
            }
            let e = d.endurance();
            assert_eq!(e, endurance_by_scan(&d));
            assert_eq!(
                (e.min_block_erases, e.max_block_erases),
                (round as u32 + 1, round as u32 + 1)
            );
        }
    }

    #[test]
    fn fail_die_is_idempotent() {
        let mut d = device();
        d.fail_die(ChannelId(1), DieId(0));
        d.fail_die(ChannelId(1), DieId(0));
        assert_eq!(d.dead_dies().len(), 1);
    }

    #[test]
    fn degrading_die_gets_noisy_then_dies_softly() {
        use crate::fault::DegradingDie;
        let mut d = device();
        d.set_fault_config(&FaultConfig::none().with_degrading(DegradingDie {
            channel: 0,
            die: 0,
            onset: 1_000_000,
            death: 100_000_000,
        }));
        assert!(d.degrading_die().is_some());
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        assert!(!r.failed, "pre-onset programs are clean");
        // Late in the window (severity ~0.95): reads burn retry steps and
        // programs routinely fail verification.
        let late = Cycle(95_000_000);
        let mut failures = 0u64;
        for k in 0..40u64 {
            match d.program(late, block0(), 10 + k) {
                Ok(rep) => failures += rep.failed as u64,
                Err(_) => break, // block filled by burned slots
            }
        }
        assert!(failures > 0, "late-window programs must fail sometimes");
        let h = d.stats().die_health(0, 0);
        assert!(h.program_failures > 0);
        assert!(
            h.programs > h.program_failures,
            "clean programs counted too"
        );
        let mut retried = 0u64;
        let mut t = late;
        for _ in 0..50 {
            d.discard_register(ChannelId(0), 1);
            // Evict the latch by sensing a different die, then re-sense.
            match d.read(t, block0().page(r.page), 1, 128) {
                Ok(done) => t = done + Cycle(1),
                Err(_) => t += Cycle(10_000),
            }
            let b_live = BlockAddr::new(ChannelId(0), DieId(1), PlaneId(0), 0);
            let _ = d.program(t, b_live, 999);
            let _ = d.read(t, b_live.page(0), 999, 128);
        }
        retried += d.stats().die_health(0, 0).retry_steps;
        assert!(retried > 0, "in-window reads must burn retry steps");
        // The healthy sibling die saw no degrade penalties.
        assert_eq!(d.stats().die_health(0, 1).program_failures, 0);
        // Death: the die joins dead_dies on the next timed op...
        let b_live = BlockAddr::new(ChannelId(0), DieId(1), PlaneId(0), 0);
        let _ = d.program(Cycle(100_000_000), b_live, 5);
        assert!(d.die_is_dead(ChannelId(0), DieId(0)));
        assert_eq!(d.dead_dies(), &[(0, 0)]);
        // ...reads behave exactly like an instant die failure...
        let before = d.dead_die_reads();
        assert!(matches!(
            d.read(Cycle(100_000_001), block0().page(r.page), 1, 128),
            Err(Error::UncorrectableRead { retries: 0, .. })
        ));
        assert_eq!(d.dead_die_reads(), before + 1);
        // ...but programs/erases still run and always fail verification
        // (soft death), so an unfenced FTL degrades instead of crashing.
        let b_fresh = BlockAddr::new(ChannelId(0), DieId(0), PlaneId(0), 1);
        let rep = d
            .program(Cycle(100_000_002), b_fresh, 77)
            .expect("soft-dead programs are accepted");
        assert!(rep.failed, "soft-dead programs always fail verification");
    }

    #[test]
    fn degrading_die_runs_are_deterministic_per_seed() {
        use crate::fault::DegradingDie;
        let run =
            || {
                let mut d = device();
                d.set_fault_config(&FaultConfig::none().with_seed(11).with_degrading(
                    DegradingDie {
                        channel: 0,
                        die: 0,
                        onset: 0,
                        death: 10_000_000,
                    },
                ));
                let mut log = Vec::new();
                for k in 0..24u64 {
                    let now = Cycle(k * 400_000);
                    match d.program(now, block0(), k) {
                        Ok(rep) => log.push((rep.failed, rep.page)),
                        Err(_) => log.push((true, u32::MAX)),
                    }
                }
                (log, d.stats().program_failures())
            };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_degrading_config_changes_nothing() {
        let mut d = device();
        d.set_fault_config(&FaultConfig::none());
        assert!(d.degrading_die().is_none());
        let r = d.program(Cycle(0), block0(), 1).unwrap();
        assert!(!r.failed);
        d.degrade_tick(Cycle(u64::MAX / 2));
        assert!(d.dead_dies().is_empty());
        assert!(d
            .read(Cycle(1_000_000), block0().page(r.page), 1, 128)
            .is_ok());
    }
}
