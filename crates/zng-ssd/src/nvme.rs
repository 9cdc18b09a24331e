//! The discrete NVMe SSD of the Hetero platform (paper Fig. 4b).
//!
//! Hetero keeps GPU and SSD as separate PCIe peripherals: a GPU page
//! fault is serviced by the *host*, which reads a 4 KB page from this
//! SSD, stages it in host DRAM, and DMAs it to the GPU. The NVMe command
//! path (doorbell, queue processing, completion interrupt) adds fixed
//! software/controller overhead on top of engine + flash time.

use zng_flash::{FlashDevice, FlashGeometry};
use zng_ftl::{Ftl, PageMapFtl, RecoveryReport, SsdEngine};
use zng_types::{Cycle, Freq, Nanos, Result};

/// A discrete NVMe SSD servicing page-granular I/O.
#[derive(Debug, Clone)]
pub struct NvmeSsd {
    engine: SsdEngine,
    ftl: PageMapFtl,
    device: FlashDevice,
    command_overhead: Cycle,
    reads: u64,
    writes: u64,
}

impl NvmeSsd {
    /// Builds the SSD with ~8 µs of NVMe command overhead per I/O.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn new(geometry: FlashGeometry, freq: Freq) -> Result<NvmeSsd> {
        let device = FlashDevice::hybrid_config(geometry, freq)?;
        let ftl = PageMapFtl::new(&device);
        Ok(NvmeSsd {
            engine: SsdEngine::commercial(freq),
            ftl,
            device,
            command_overhead: Nanos::from_micros(8.0).to_cycles(freq),
            reads: 0,
            writes: 0,
        })
    }

    /// Reads a 4 KB page (`ppn`); returns when the data is at the SSD's
    /// PCIe boundary.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash errors.
    pub fn read_page(&mut self, now: Cycle, ppn: u64) -> Result<Cycle> {
        self.reads += 1;
        let queued = now + self.command_overhead;
        let translated = self.engine.process(queued);
        let page_bytes = self.device.geometry().page_bytes;
        self.ftl.read(translated, &mut self.device, ppn, page_bytes)
    }

    /// Writes a 4 KB page (`ppn`); returns program-complete time.
    ///
    /// # Errors
    ///
    /// Propagates FTL/flash errors.
    pub fn write_page(&mut self, now: Cycle, ppn: u64) -> Result<Cycle> {
        self.writes += 1;
        let queued = now + self.command_overhead;
        let translated = self.engine.process(queued);
        self.ftl
            .write(translated, &mut self.device, ppn)
            .map(|w| w.done)
    }

    /// Simulates a power cut at `now` followed by FTL recovery: flash
    /// registers lose their in-flight contents, torn programs are marked,
    /// and the page map is rebuilt from the out-of-band scan.
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the recovery scan's dead-block
    /// erases.
    pub fn crash_recover(&mut self, now: Cycle) -> Result<RecoveryReport> {
        self.device.power_loss(now);
        self.ftl.recover(now, &mut self.device)
    }

    /// The flash backbone (for statistics).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// The page-level FTL, for statistics.
    pub fn ftl(&self) -> &PageMapFtl {
        &self.ftl
    }

    /// The FTL and the flash device it manages, borrowed together: the
    /// handle maintenance, fault injection and subsystem setup go
    /// through.
    pub fn ftl_mut(&mut self) -> (&mut PageMapFtl, &mut FlashDevice) {
        (&mut self.ftl, &mut self.device)
    }

    /// Page reads issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Page writes issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The fixed NVMe command overhead.
    pub fn command_overhead(&self) -> Cycle {
        self.command_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> NvmeSsd {
        NvmeSsd::new(FlashGeometry::tiny(), Freq::default()).unwrap()
    }

    #[test]
    fn read_includes_command_engine_and_flash() {
        let mut s = ssd();
        let t = s.read_page(Cycle(0), 3).unwrap();
        // 8us command (9600cy) + engine (600cy) + sense (3600cy) + bus.
        assert!(t > Cycle(9_600 + 3_600), "{t}");
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn write_includes_program_time() {
        let mut s = ssd();
        let t = s.write_page(Cycle(0), 3).unwrap();
        assert!(t > Cycle(120_000), "{t}");
        assert_eq!(s.writes(), 1);
    }

    #[test]
    fn command_overhead_is_configured() {
        let s = ssd();
        assert_eq!(s.command_overhead(), Cycle(9_600)); // 8us * 1.2GHz
    }

    #[test]
    fn crash_recover_preserves_completed_writes() {
        let mut s = ssd();
        let mut t = Cycle(0);
        for ppn in 0..6 {
            t = s.write_page(t, ppn).unwrap();
        }
        let report = s.crash_recover(t + Cycle(10_000_000)).unwrap();
        assert!(report.pages_scanned >= 6, "{report:?}");
        assert_eq!(report.torn_discarded, 0, "quiescent cut tears nothing");
        for ppn in 0..6 {
            s.read_page(t + Cycle(20_000_000), ppn)
                .expect("completed write readable after recovery");
        }
    }

    #[test]
    fn repeated_reads_still_pay_flash() {
        // The discrete SSD has no GPU-visible cache: every fault pays.
        let mut s = ssd();
        let t1 = s.read_page(Cycle(0), 3).unwrap();
        let t2 = s.read_page(t1, 3).unwrap();
        assert!(t2 - t1 > Cycle(9_600), "{}", t2 - t1);
    }
}
