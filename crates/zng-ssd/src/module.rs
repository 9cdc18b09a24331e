//! HybridGPU's embedded SSD module (paper Fig. 1a).
//!
//! The module sits between the GPU L2 and the Z-NAND backbone and stacks
//! four serial bottlenecks, each measurable in Fig. 1b:
//!
//! 1. a **single request dispatcher** that every memory request crosses;
//! 2. the **SSD engine** (embedded cores running the page-map FTL);
//! 3. the **one-package DRAM buffer** on a 32-bit bus;
//! 4. the **ONFI bus** flash network with private plane registers.

use zng_flash::{FlashDevice, FlashGeometry};
use zng_ftl::{Ftl, PageMapFtl, RecoveryReport, SsdEngine};
use zng_mem::{MemSubsystem, MemTiming};
use zng_sim::{AdmissionQueue, Resource};
use zng_types::{AccessKind, Cycle, Error, Freq, Nanos, Result};

use crate::buffer::PageBuffer;

/// The embedded SSD module of the HybridGPU platform.
#[derive(Debug, Clone)]
pub struct SsdModule {
    dispatcher: Resource,
    dispatch_cost: Cycle,
    /// NVMe-style submission-queue bound in front of the dispatcher.
    /// Unbounded (and untracked) by default.
    admission: AdmissionQueue,
    engine: SsdEngine,
    buffer: PageBuffer,
    buffer_dram: MemSubsystem,
    ftl: PageMapFtl,
    device: FlashDevice,
}

impl SsdModule {
    /// Builds the HybridGPU module: 25 ns dispatcher, commercial engine,
    /// `buffer_pages` of internal DRAM, bus-networked Z-NAND with the
    /// given geometry.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn hybrid(geometry: FlashGeometry, buffer_pages: usize, freq: Freq) -> Result<SsdModule> {
        let device = FlashDevice::hybrid_config(geometry, freq)?;
        let ftl = PageMapFtl::new(&device);
        Ok(SsdModule {
            dispatcher: Resource::new(1),
            dispatch_cost: Nanos(25.0).to_cycles(freq),
            admission: AdmissionQueue::new(),
            engine: SsdEngine::commercial(freq),
            buffer: PageBuffer::new(buffer_pages),
            buffer_dram: MemSubsystem::new(MemTiming::hybrid_buffer(), freq),
            ftl,
            device,
        })
    }

    fn page_bytes(&self) -> usize {
        self.device.geometry().page_bytes
    }

    /// Flushes a dirty buffer page to flash via the engine + FTL; returns
    /// completion time.
    fn writeback(&mut self, now: Cycle, ppn: u64) -> Result<Cycle> {
        let translated = self.engine.process(now);
        self.ftl
            .write(translated, &mut self.device, ppn)
            .map(|w| w.done)
    }

    /// Services one 128 B sector access (`vpn` is the 4 KB page number).
    ///
    /// Path: dispatcher → buffer lookup → (miss: engine + FTL + flash
    /// fill, possibly a dirty writeback) → buffer DRAM sector transfer.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash errors. Under a bounded queue configuration
    /// ([`SsdModule::set_queue_depth`]) a saturated module rejects with
    /// [`Error::Backpressure`] *before* any state changes — a rejected
    /// access can simply be retried later.
    pub fn access_sector(&mut self, now: Cycle, vpn: u64, kind: AccessKind) -> Result<Cycle> {
        self.admission
            .try_admit(now)
            .map_err(|retry_at| Error::Backpressure { retry_at })?;
        let dispatched = self.dispatcher.acquire(now, self.dispatch_cost);
        let lookup = self.buffer.access(vpn, kind.is_write());
        let mut ready = dispatched;
        if !lookup.hit {
            // Fill from flash: engine translation, then a whole-page read.
            let translated = self.engine.process(dispatched);
            let page_bytes = self.page_bytes();
            ready = self
                .ftl
                .read(translated, &mut self.device, vpn, page_bytes)?;
            // Fill the buffer DRAM with the page (future-time side
            // effect: fixed latency, no controller reservation).
            ready = self
                .buffer_dram
                .access_unqueued(ready, AccessKind::Write, page_bytes);
            if let Some(dirty) = lookup.evicted_dirty {
                // Write-back proceeds asynchronously on the flash side;
                // it occupies engine + flash resources but does not gate
                // this request.
                self.writeback(dispatched, dirty)?;
            }
        }
        // Serve the 128 B sector from buffer DRAM.
        let addr = vpn * self.page_bytes() as u64;
        let done = self.buffer_dram.access(ready, addr, kind, 128);
        self.admission.note_inflight(done);
        Ok(done)
    }

    /// Bounds the module's submission queue (`None` = unbounded, the
    /// default). This is HybridGPU's one bounded queue: the flash
    /// channels behind the engine are never bounded.
    pub fn set_queue_depth(&mut self, depth: Option<usize>) {
        self.admission.set_depth(depth);
    }

    /// Requests refused by the submission queue.
    pub fn qos_rejections(&self) -> u64 {
        self.admission.rejected()
    }

    /// Largest in-flight population admitted to the submission queue.
    pub fn qos_max_occupancy(&self) -> u64 {
        self.admission.max_occupancy()
    }

    /// Simulates a power cut at `now` followed by FTL recovery.
    ///
    /// All volatile state is lost first — buffered pages (dirty ones
    /// included, with no write-back), in-flight flash register contents,
    /// and the page-map tables — then the FTL rebuilds its mapping from
    /// the out-of-band metadata scan.
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the recovery scan's dead-block
    /// erases.
    pub fn crash_recover(&mut self, now: Cycle) -> Result<RecoveryReport> {
        self.buffer.power_loss();
        self.device.power_loss(now);
        self.ftl.recover(now, &mut self.device)
    }

    /// The Z-NAND backbone (for Fig. 11 statistics).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// The FTL and the flash device it manages, borrowed together: the
    /// handle maintenance, fault injection and subsystem setup go
    /// through.
    pub fn ftl_mut(&mut self) -> (&mut PageMapFtl, &mut FlashDevice) {
        (&mut self.ftl, &mut self.device)
    }

    /// The internal page buffer (for hit-rate inspection).
    pub fn buffer(&self) -> &PageBuffer {
        &self.buffer
    }

    /// The FTL (for GC statistics).
    pub fn ftl(&self) -> &PageMapFtl {
        &self.ftl
    }

    /// The SSD engine (for utilization inspection).
    pub fn engine(&self) -> &SsdEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> SsdModule {
        SsdModule::hybrid(FlashGeometry::tiny(), 32, Freq::default()).unwrap()
    }

    #[test]
    fn first_touch_pays_flash_latency() {
        let mut m = module();
        let t = m.access_sector(Cycle(0), 7, AccessKind::Read).unwrap();
        // Must include the 3 us sense (3600 cycles) plus engine and bus.
        assert!(t > Cycle(3_600), "{t}");
    }

    #[test]
    fn buffer_hits_are_fast() {
        let mut m = module();
        let t1 = m.access_sector(Cycle(0), 7, AccessKind::Read).unwrap();
        let t2 = m.access_sector(t1, 7, AccessKind::Read).unwrap();
        assert!(t2 - t1 < Cycle(1_500), "hit cost {}", t2 - t1);
        assert_eq!(m.buffer().hits(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut m = SsdModule::hybrid(FlashGeometry::tiny(), 1, Freq::default()).unwrap();
        let mut t = Cycle(0);
        t = m.access_sector(t, 1, AccessKind::Write).unwrap();
        t = m.access_sector(t, 2, AccessKind::Read).unwrap(); // evicts dirty 1
        let _ = t;
        assert_eq!(m.buffer().writebacks(), 1);
        assert!(m.device().stats().total_programs() > 0);
    }

    #[test]
    fn dispatcher_serializes_requests() {
        let mut m = module();
        // Warm the buffer so only the dispatcher + DRAM remain.
        let mut t = m.access_sector(Cycle(0), 3, AccessKind::Read).unwrap();
        let a = m.access_sector(t, 3, AccessKind::Read).unwrap();
        let b = m.access_sector(t, 3, AccessKind::Read).unwrap();
        assert!(b > a, "second same-cycle request queues at the dispatcher");
        t = b;
        let _ = t;
    }

    #[test]
    fn writes_dirty_the_buffer() {
        let mut m = module();
        m.access_sector(Cycle(0), 9, AccessKind::Write).unwrap();
        assert_eq!(m.buffer.flush_dirty(), vec![9]);
    }

    #[test]
    fn crash_recover_drops_buffer_and_rebuilds_map() {
        let mut m = module();
        let mut t = Cycle(0);
        for vpn in 0..4 {
            t = m.access_sector(t, vpn, AccessKind::Write).unwrap();
        }
        assert!(!m.buffer().is_empty());
        let report = m.crash_recover(t + Cycle(10_000_000)).unwrap();
        assert!(m.buffer().is_empty(), "DRAM buffer lost at the cut");
        assert!(report.pages_scanned > 0, "{report:?}");
        // Dirty buffered pages were never written to flash, so the
        // recovered map only knows pages the buffer happened to evict.
        let t2 = m
            .access_sector(t + Cycle(20_000_000), 0, AccessKind::Read)
            .unwrap();
        assert!(t2 > t, "module keeps servicing after recovery");
    }
}
