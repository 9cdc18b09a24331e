//! Platform-specific memory backends (the path below the shared L2).

use zng_flash::{FlashDevice, RegisterTopology, DISTURB_READS_PER_CYCLE};
use zng_ftl::{
    Ftl, GcPacing, RainConfig, RecoveryReport, RefreshPolicy, WriteMode, WriteResult, ZngFtl,
};
use zng_mem::{MemSubsystem, MemTiming, PcieLink};
use zng_ssd::{NvmeSsd, PageBuffer, SsdModule};
use zng_types::ids::{ChannelId, DieId};
use zng_types::{AccessKind, Cycle, Error, Freq, Result};

use crate::config::{PlatformKind, SimConfig};

/// The memory system below the GPU's shared L2.
#[derive(Debug)]
pub enum Backend {
    /// Unbounded GDDR5 (the paper's Ideal reference).
    Ideal {
        /// The GDDR5 subsystem.
        mem: MemSubsystem,
    },
    /// Discrete GPU + NVMe SSD over PCIe with host-serviced page faults.
    Hetero {
        /// On-board GDDR5.
        gddr5: MemSubsystem,
        /// Which 4 KB pages currently reside in GPU memory.
        resident: PageBuffer,
        /// The discrete SSD.
        ssd: NvmeSsd,
        /// The host link.
        pcie: PcieLink,
        /// Host DRAM used as the staging buffer (redundant copy).
        host_dram: MemSubsystem,
    },
    /// The embedded SSD module of HybridGPU.
    HybridGpu {
        /// The SSD module (dispatcher + engine + buffer + flash).
        ssd: SsdModule,
    },
    /// Optane DC PMM behind six memory controllers.
    Optane {
        /// The Optane subsystem.
        mem: MemSubsystem,
    },
    /// ZnG: flash controllers on the GPU interconnect + zero-overhead FTL.
    Zng {
        /// The Z-NAND device (mesh network, grouped registers).
        device: FlashDevice,
        /// The zero-overhead FTL.
        ftl: ZngFtl,
        /// Instant, non-blocking GC (the Fig. 17a counterfactual).
        free_gc: bool,
    },
}

impl Backend {
    /// Builds the backend for `kind` under `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(kind: PlatformKind, cfg: &SimConfig, freq: Freq) -> Result<Backend> {
        cfg.validate()?;
        let mut backend = match kind {
            PlatformKind::Ideal => Backend::Ideal {
                mem: MemSubsystem::new(MemTiming::gddr5(), freq),
            },
            PlatformKind::Hetero => Backend::Hetero {
                gddr5: MemSubsystem::new(MemTiming::gddr5(), freq),
                resident: PageBuffer::new(cfg.hetero_gpu_mem_pages),
                ssd: NvmeSsd::new(cfg.flash, freq)?,
                pcie: PcieLink::gen3_x16(freq),
                host_dram: MemSubsystem::new(MemTiming::ddr4(), freq),
            },
            PlatformKind::HybridGpu => Backend::HybridGpu {
                ssd: SsdModule::hybrid(cfg.flash, cfg.buffer_pages, freq)?,
            },
            PlatformKind::Optane => Backend::Optane {
                mem: MemSubsystem::new(MemTiming::optane(), freq),
            },
            PlatformKind::ZngBase
            | PlatformKind::ZngRdopt
            | PlatformKind::ZngWropt
            | PlatformKind::Zng => {
                let registers = if kind.has_wropt() {
                    cfg.register_topology
                } else {
                    RegisterTopology::Private
                };
                let device = FlashDevice::zng_config(cfg.flash, freq, registers)?;
                let mode = if kind.has_wropt() {
                    WriteMode::Buffered
                } else {
                    WriteMode::Direct
                };
                let ftl = ZngFtl::new(&device, cfg.group_size, mode);
                Backend::Zng {
                    device,
                    ftl,
                    free_gc: cfg.free_gc,
                }
            }
        };
        // Overload control: bound the one queue each platform consults
        // before a demand access (ZnG's channel controllers, HybridGPU's
        // SSD-module submission queue). Hetero's page-fault path mutates
        // residency before touching the SSD, so a rejected retry would
        // not be idempotent there; the bounded story covers the two
        // FTL-driven flash platforms.
        if cfg.qos.queue_depth.is_some() {
            match &mut backend {
                Backend::Zng { device, .. } => device.set_queue_depth(cfg.qos.queue_depth),
                Backend::HybridGpu { ssd } => ssd.set_queue_depth(cfg.qos.queue_depth),
                _ => {}
            }
        }
        if let Some((ftl, device)) = backend.flash_mut() {
            device.set_fault_config(&cfg.fault);
            // Every background step, and ZnG's log-block merges, inherit
            // the QoS GC stall budget, so maintenance and foreground
            // traffic share one pacing contract.
            ftl.set_pacing(
                cfg.qos
                    .gc_stall_budget
                    .map(|stall_budget| GcPacing { stall_budget }),
            );
            // Each subsystem is off by default: no parity, checksums,
            // counters or checkpoint pages, and byte-identical output.
            // Redundancy: RAIN parity + patrol scrub.
            if cfg.redundancy.enabled {
                let rain = RainConfig {
                    scrub_threshold: cfg.redundancy.scrub_threshold,
                };
                ftl.set_redundancy(device, Some(rain));
            }
            // End-to-end integrity: silent-corruption injection on the
            // media and payload verification in the FTL.
            if cfg.integrity.enabled {
                device.set_integrity_config(&cfg.integrity.sdc());
                ftl.set_integrity(true);
            }
            // Device-lifetime endurance: read-disturb/retention tracking
            // on the media and the refresh + static-levelling scheduler
            // in the FTL.
            if cfg.endurance.enabled {
                device.set_endurance_tracking(Some(DISTURB_READS_PER_CYCLE));
                ftl.set_endurance(Some(RefreshPolicy {
                    disturb_threshold: cfg.endurance.disturb_threshold,
                    retention_threshold: cfg.endurance.retention_threshold,
                    wear_spread: cfg.endurance.wear_spread,
                }));
            }
            // Bounded-time crash recovery: mapping checkpoints + delta
            // journal in a reserved flash namespace.
            if cfg.checkpoint.enabled {
                ftl.set_checkpointing(Some(cfg.checkpoint.ftl()));
            }
            // Predictive health: per-die telemetry scoring, suspect
            // quarantine and pre-emptive evacuation.
            if cfg.health.enabled {
                ftl.set_health(Some(cfg.health.ftl()));
            }
        }
        Ok(backend)
    }

    /// The flash FTL and its device, borrowed together, on the platforms
    /// that have flash; every maintenance step and subsystem control goes
    /// through this handle.
    fn flash_mut(&mut self) -> Option<(&mut dyn Ftl, &mut FlashDevice)> {
        match self {
            Backend::Zng { device, ftl, .. } => Some((ftl, device)),
            Backend::HybridGpu { ssd } => {
                let (ftl, device) = ssd.ftl_mut();
                Some((ftl, device))
            }
            Backend::Hetero { ssd, .. } => {
                let (ftl, device) = ssd.ftl_mut();
                Some((ftl, device))
            }
            Backend::Ideal { .. } | Backend::Optane { .. } => None,
        }
    }

    /// The flash FTL and its device, read-only, on the platforms that
    /// have flash: the view a run's flash counters are read through.
    pub fn flash(&self) -> Option<(&dyn Ftl, &FlashDevice)> {
        match self {
            Backend::Zng { device, ftl, .. } => Some((ftl, device)),
            Backend::HybridGpu { ssd } => Some((ssd.ftl(), ssd.device())),
            Backend::Hetero { ssd, .. } => Some((ssd.ftl(), ssd.device())),
            Backend::Ideal { .. } | Backend::Optane { .. } => None,
        }
    }

    /// Runs `step` on the flash FTL and its device; flashless platforms
    /// return `idle`.
    fn with_flash<T>(
        &mut self,
        idle: T,
        step: impl FnOnce(&mut dyn Ftl, &mut FlashDevice) -> T,
    ) -> T {
        match self.flash_mut() {
            Some((ftl, device)) => step(ftl, device),
            None => idle,
        }
    }

    /// Read-retry attempts the host/controller issues on top of the
    /// plane's own retry ladder before an uncorrectable read is surfaced
    /// to the workload.
    const HOST_READ_ATTEMPTS: u32 = 8;

    /// Reads `bytes` of the page `vpn` starting at `sector`; returns the
    /// data-arrival time at the L2.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash errors.
    pub fn read(&mut self, now: Cycle, sector: u64, vpn: u64, bytes: usize) -> Result<Cycle> {
        match self {
            Backend::Ideal { mem } => Ok(mem.access(now, sector, AccessKind::Read, bytes)),
            Backend::Optane { mem } => Ok(mem.access(now, sector, AccessKind::Read, bytes)),
            Backend::HybridGpu { ssd } => ssd.access_sector(now, vpn, AccessKind::Read),
            Backend::Hetero {
                gddr5,
                resident,
                ssd,
                pcie,
                host_dram,
            } => {
                let t = Self::hetero_ensure_resident(now, vpn, resident, ssd, pcie, host_dram)?;
                Ok(gddr5.access(t, sector, AccessKind::Read, bytes))
            }
            Backend::Zng { device, ftl, .. } => {
                // Host-level retry: an uncorrectable sense is transient,
                // so the controller re-issues the read a few times before
                // giving up on the request.
                let mut attempt = 0;
                loop {
                    match ftl.read(now, device, vpn, bytes) {
                        Ok(t) => return Ok(t),
                        Err(Error::UncorrectableRead { .. })
                            if attempt + 1 < Self::HOST_READ_ATTEMPTS =>
                        {
                            attempt += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Hetero page-fault path: host interrupt → SSD page read → host DRAM
    /// staging copy → PCIe DMA into GPU memory.
    fn hetero_ensure_resident(
        now: Cycle,
        vpn: u64,
        resident: &mut PageBuffer,
        ssd: &mut NvmeSsd,
        pcie: &mut PcieLink,
        host_dram: &mut MemSubsystem,
    ) -> Result<Cycle> {
        let lookup = resident.access(vpn, false);
        if lookup.hit {
            return Ok(now);
        }
        let fault = now + pcie.fault_software_overhead();
        let from_ssd = ssd.read_page(fault, vpn)?;
        // Redundant host-side copy (user/privilege switch): write then
        // read the staging buffer. These happen at future timestamps, so
        // they pay fixed latency rather than reserving a controller.
        let staged = host_dram.access_unqueued(from_ssd, AccessKind::Write, 4096);
        let staged = host_dram.access_unqueued(staged, AccessKind::Read, 4096);
        let landed = pcie.dma(staged, 4096);
        if let Some(dirty) = lookup.evicted_dirty {
            // Victim page written back asynchronously (does not gate this
            // fault): DMA up, then SSD program.
            let up = pcie.dma(landed, 4096);
            ssd.write_page(up, dirty)?;
        }
        Ok(landed)
    }

    /// Writes one 128 B sector of `vpn`.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash errors.
    pub fn write(&mut self, now: Cycle, sector: u64, vpn: u64) -> Result<WriteResult> {
        match self {
            Backend::Ideal { mem } => Ok(WriteResult {
                done: mem.access(now, sector, AccessKind::Write, 128),
                ..WriteResult::default()
            }),
            Backend::Optane { mem } => Ok(WriteResult {
                done: mem.access(now, sector, AccessKind::Write, 128),
                ..WriteResult::default()
            }),
            Backend::HybridGpu { ssd } => Ok(WriteResult {
                done: ssd.access_sector(now, vpn, AccessKind::Write)?,
                ..WriteResult::default()
            }),
            Backend::Hetero {
                gddr5,
                resident,
                ssd,
                pcie,
                host_dram,
            } => {
                let t = Self::hetero_ensure_resident(now, vpn, resident, ssd, pcie, host_dram)?;
                // Dirty the resident page.
                resident.access(vpn, true);
                Ok(WriteResult {
                    done: gddr5.access(t, sector, AccessKind::Write, 128),
                    ..WriteResult::default()
                })
            }
            Backend::Zng {
                device,
                ftl,
                free_gc,
            } => {
                let mut r = ftl.write(now, device, vpn)?;
                if *free_gc && r.gc.take().is_some() {
                    // Counterfactual: the GC was free and non-blocking.
                    r.done = now + Cycle(1);
                }
                Ok(r)
            }
        }
    }

    /// Power cut at `now` followed by FTL recovery.
    ///
    /// All volatile storage-side state is lost — mapping tables, flash
    /// register contents, write buffers, Hetero's residency tracking —
    /// and the FTL rebuilds its mapping from the device's out-of-band
    /// metadata. Returns `None` for platforms with no flash (their memory
    /// is modelled as simple DRAM/PMM with nothing to recover).
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the recovery scan's dead-block
    /// erases.
    pub fn crash_recover(&mut self, now: Cycle) -> Result<Option<RecoveryReport>> {
        match self {
            Backend::Zng { device, ftl, .. } => {
                device.power_loss(now);
                Ok(Some(ftl.recover(now, device)?))
            }
            Backend::HybridGpu { ssd } => Ok(Some(ssd.crash_recover(now)?)),
            Backend::Hetero { resident, ssd, .. } => {
                // GPU-resident dirty pages die with GDDR5; the residency
                // tracker restarts cold so every page re-faults.
                resident.power_loss();
                Ok(Some(ssd.crash_recover(now)?))
            }
            Backend::Ideal { .. } | Backend::Optane { .. } => Ok(None),
        }
    }

    /// The ZnG FTL, if this is a ZnG platform.
    pub fn zng_ftl(&self) -> Option<&ZngFtl> {
        match self {
            Backend::Zng { ftl, .. } => Some(ftl),
            _ => None,
        }
    }

    /// Admissions refused by the bounded queue the platform consults:
    /// ZnG's per-channel controller queues or HybridGPU's SSD-module
    /// submission queue. Zero on every other platform and without a
    /// bounded [`QosConfig`].
    ///
    /// [`QosConfig`]: crate::qos::QosConfig
    pub fn qos_rejections(&self) -> u64 {
        match self {
            Backend::Zng { device, .. } => device.qos_rejections(),
            Backend::HybridGpu { ssd } => ssd.qos_rejections(),
            _ => 0,
        }
    }

    /// Largest in-flight population admitted to any of those queues.
    pub fn qos_max_occupancy(&self) -> u64 {
        match self {
            Backend::Zng { device, .. } => device.qos_max_occupancy(),
            Backend::HybridGpu { ssd } => ssd.qos_max_occupancy(),
            _ => 0,
        }
    }

    /// Kills one die and fences its blocks out of the allocator; returns
    /// when the emergency relocations complete. A no-op (returns `now`)
    /// on flashless platforms.
    ///
    /// # Errors
    ///
    /// Propagates flash/FTL errors from the fencing relocations.
    pub fn fail_die(&mut self, now: Cycle, channel: u16, die: u16) -> Result<Cycle> {
        self.with_flash(Ok(now), |ftl, device| {
            device.fail_die(ChannelId(channel), DieId(die));
            ftl.fence_dead_die(now, device)
        })
    }

    /// Severs one flash network link; transfers detour around it.
    pub fn fail_link(&mut self, channel: u16) {
        self.with_flash((), |_, device| device.fail_link(ChannelId(channel)));
    }

    /// One patrol-scrub step on the flash FTL; returns the foreground
    /// stall horizon (capped by the pacing budget when one is set).
    ///
    /// # Errors
    ///
    /// Propagates flash/FTL errors.
    pub fn scrub_step(&mut self, now: Cycle) -> Result<Cycle> {
        self.with_flash(Ok(now), |ftl, device| ftl.scrub_step(now, device))
    }

    /// Re-creates every page stranded on dead dies onto healthy spare
    /// blocks; returns `(completion, pages rebuilt)`.
    ///
    /// # Errors
    ///
    /// Propagates flash/FTL errors from reconstruction and reprogramming.
    pub fn rebuild_dead_die(&mut self, now: Cycle) -> Result<(Cycle, u64)> {
        self.with_flash(Ok((now, 0)), |ftl, device| {
            ftl.rebuild_dead_die(now, device)
        })
    }

    /// One refresh-scheduler step on the flash FTL (threshold scan →
    /// block refresh, or a static-levelling migration); returns the
    /// foreground stall horizon (capped by the pacing budget when one is
    /// set). A no-op without endurance or on flashless platforms.
    ///
    /// # Errors
    ///
    /// Propagates flash/FTL errors.
    pub fn refresh_step(&mut self, now: Cycle) -> Result<Cycle> {
        self.with_flash(Ok(now), |ftl, device| ftl.refresh_step(now, device))
    }

    /// One background checkpoint write on the flash FTL: snapshot the
    /// mapping into checkpoint blocks and open a fresh journal epoch;
    /// returns the foreground stall horizon (capped by the pacing
    /// budget when one is set). A no-op without checkpointing or on
    /// flashless platforms.
    pub fn checkpoint_step(&mut self, now: Cycle) -> Cycle {
        self.with_flash(now, |ftl, device| ftl.checkpoint_step(now, device))
    }

    /// One predictive-health tick on the flash FTL: score the per-die
    /// telemetry, fence dies that died since the last tick, evacuate one
    /// victim block off a suspect die (when evacuation is on) and
    /// rehabilitate false positives; returns the foreground stall
    /// horizon (capped by the pacing budget when one is set). A no-op
    /// without a health policy or on flashless platforms.
    ///
    /// # Errors
    ///
    /// Propagates flash/FTL errors.
    pub fn health_step(&mut self, now: Cycle) -> Result<Cycle> {
        self.with_flash(Ok(now), |ftl, device| ftl.health_step(now, device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend(kind: PlatformKind) -> Backend {
        Backend::new(kind, &SimConfig::tiny(), Freq::default()).unwrap()
    }

    #[test]
    fn all_platforms_construct() {
        for kind in PlatformKind::PAPER_PLATFORMS {
            let _ = backend(kind);
        }
        let _ = backend(PlatformKind::Ideal);
    }

    /// A page-buffer capacity the buffer cannot hold is a named
    /// configuration error from `Backend::new`, never a panic.
    #[test]
    fn unusable_page_buffer_capacities_are_named_errors() {
        let mut capacities = vec![0];
        if let Some(too_big) = PageBuffer::MAX_CAPACITY.checked_add(1) {
            capacities.push(too_big);
        }
        for kind in [PlatformKind::HybridGpu, PlatformKind::Hetero] {
            for field in ["buffer_pages", "hetero_gpu_mem_pages"] {
                for &pages in &capacities {
                    let mut cfg = SimConfig::tiny();
                    match field {
                        "buffer_pages" => cfg.buffer_pages = pages,
                        _ => cfg.hetero_gpu_mem_pages = pages,
                    }
                    match Backend::new(kind, &cfg, Freq::default()) {
                        Err(Error::InvalidConfig { what, .. }) => assert_eq!(what, field),
                        Err(e) => panic!("{kind} {field}={pages}: unexpected error {e}"),
                        Ok(_) => panic!("{kind} {field}={pages}: accepted"),
                    }
                }
            }
        }
    }

    #[test]
    fn ideal_reads_are_fast() {
        let mut b = backend(PlatformKind::Ideal);
        let t = b.read(Cycle(0), 0, 0, 128).unwrap();
        assert!(t < Cycle(500), "{t}");
    }

    #[test]
    fn zng_base_read_pays_flash_sense() {
        let mut b = backend(PlatformKind::ZngBase);
        let t = b.read(Cycle(0), 0, 0, 128).unwrap();
        assert!(t > Cycle(3_600), "{t}");
        assert!(b.flash().unwrap().1.stats().total_reads() > 0);
    }

    #[test]
    fn hetero_first_touch_faults_then_hits() {
        let mut b = backend(PlatformKind::Hetero);
        let cold = b.read(Cycle(0), 0, 0, 128).unwrap();
        let warm = b.read(cold, 0, 0, 128).unwrap() - cold;
        assert!(cold > Cycle(10_000), "fault path is expensive: {cold}");
        assert!(warm < Cycle(1_000), "resident page is GDDR5-fast: {warm}");
    }

    #[test]
    fn wropt_writes_buffer_in_registers() {
        let mut b = backend(PlatformKind::Zng);
        let w = b.write(Cycle(0), 0, 0).unwrap();
        assert!(
            w.done < Cycle(10_000),
            "buffered write is fast: {:?}",
            w.done
        );
        // No program yet.
        assert_eq!(b.flash().unwrap().1.stats().total_programs(), 0);
    }

    #[test]
    fn base_writes_pay_read_modify_and_background_program() {
        let mut b = backend(PlatformKind::ZngBase);
        let w = b.write(Cycle(0), 0, 0).unwrap();
        // The warp sees the RMW fetch (page sense + staging), not the
        // 100 us program, which runs in the background on the plane.
        assert!(w.done > Cycle(3_600), "RMW fetch: {:?}", w.done);
        assert!(w.done < Cycle(120_000), "program is async: {:?}", w.done);
        assert!(b.flash().unwrap().1.stats().total_programs() > 0);
    }

    #[test]
    fn free_gc_suppresses_blocking() {
        let mut cfg = SimConfig::tiny();
        cfg.free_gc = true;
        let mut b = Backend::new(PlatformKind::ZngBase, &cfg, Freq::default()).unwrap();
        // tiny geometry: 16-page log blocks; hammer one page until GC.
        let mut t = Cycle(0);
        for _ in 0..40 {
            let w = b.write(t, 0, 0).unwrap();
            assert!(w.gc.is_none(), "free GC never surfaces");
            t = w.done;
        }
        assert!(b.flash().unwrap().0.gcs() > 0, "GC still ran internally");
    }

    #[test]
    fn crash_recover_covers_every_platform_kind() {
        for kind in PlatformKind::PAPER_PLATFORMS {
            let mut b = backend(kind);
            let mut t = Cycle(0);
            for vpn in 0..4 {
                t = b.write(t, vpn * 4096, vpn).unwrap().done;
            }
            let report = b.crash_recover(t + Cycle(10_000_000)).unwrap();
            assert_eq!(
                report.is_some(),
                kind.has_flash(),
                "{kind}: recovery report only for flash platforms"
            );
            // The backend stays serviceable after the cut.
            b.read(t + Cycle(20_000_000), 0, 0, 128).unwrap();
        }
    }

    #[test]
    fn bounded_zng_backend_rejects_bursts_with_backpressure() {
        let mut cfg = SimConfig::tiny();
        cfg.qos = crate::qos::QosConfig::bounded(1);
        for kind in [PlatformKind::ZngBase, PlatformKind::HybridGpu] {
            let mut b = Backend::new(kind, &cfg, Freq::default()).unwrap();
            let first = b.read(Cycle(0), 0, 0, 128).unwrap();
            // A same-cycle burst on the same queue exceeds the depth-1
            // bound.
            match b.read(Cycle(0), 0, 0, 128) {
                Err(Error::Backpressure { retry_at }) => {
                    assert!(retry_at > Cycle(0), "{kind}");
                    assert!(retry_at <= first, "{kind}");
                }
                other => panic!("{kind}: expected backpressure, got {other:?}"),
            }
            assert_eq!(b.qos_rejections(), 1, "{kind}");
            assert_eq!(b.qos_max_occupancy(), 1, "{kind}");
            // The hinted retry time admits (sequential model guarantee).
            let hinted = match b.read(Cycle(0), 0, 0, 128) {
                Err(Error::Backpressure { retry_at }) => retry_at,
                other => panic!("{kind}: still saturated, got {other:?}"),
            };
            b.read(hinted, 0, 0, 128).unwrap();
        }
    }

    #[test]
    fn default_qos_never_rejects_or_tracks() {
        for kind in [PlatformKind::ZngBase, PlatformKind::HybridGpu] {
            let mut b = backend(kind);
            for i in 0..32 {
                b.read(Cycle(0), i * 128, 0, 128).unwrap();
            }
            assert_eq!(b.qos_rejections(), 0, "{kind}");
            assert_eq!(
                b.qos_max_occupancy(),
                0,
                "{kind}: unbounded mode tracks nothing"
            );
        }
    }

    #[test]
    fn optane_write_slower_than_read() {
        let mut b = backend(PlatformKind::Optane);
        let r = b.read(Cycle(0), 0, 0, 128).unwrap();
        let w = b.write(Cycle(0), 4096, 1).unwrap().done;
        assert!(w > r);
    }
}
