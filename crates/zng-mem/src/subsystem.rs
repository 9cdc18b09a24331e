//! A controller-interleaved memory-subsystem model.

use zng_sim::Link;
use zng_types::{AccessKind, Cycle, Freq, Nanos};

/// Timing/bandwidth parameters of a memory subsystem.
///
/// Latencies are expressed in nanoseconds and converted to GPU cycles when
/// the subsystem is instantiated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemTiming {
    /// Device name for reports.
    pub name: &'static str,
    /// Read access latency (array access, excluding bus occupancy).
    pub read_latency: Nanos,
    /// Write access latency.
    pub write_latency: Nanos,
    /// Number of memory controllers (address-interleaved).
    pub controllers: usize,
    /// Peak bandwidth per controller in GB/s.
    pub gbps_per_controller: f64,
    /// Internal media access granularity in bytes: a smaller request
    /// still moves this much internally (Optane's 256 B XPLine). Zero
    /// means byte-granular.
    pub media_granularity: usize,
}

impl MemTiming {
    /// GTX580-like GPU GDDR5: 6 controllers on a 384-bit bus,
    /// ~192 GB/s aggregate (paper Fig. 1b / §II-A).
    pub fn gddr5() -> MemTiming {
        MemTiming {
            name: "GDDR5",
            media_granularity: 0,
            read_latency: Nanos(167.0),
            write_latency: Nanos(167.0),
            controllers: 6,
            gbps_per_controller: 32.0,
        }
    }

    /// Desktop DDR4-2400 dual channel (~38 GB/s).
    pub fn ddr4() -> MemTiming {
        MemTiming {
            name: "DDR4",
            media_granularity: 0,
            read_latency: Nanos(90.0),
            write_latency: Nanos(90.0),
            controllers: 2,
            gbps_per_controller: 19.2,
        }
    }

    /// Mobile LPDDR4 (~34 GB/s over 2 channels).
    pub fn lpddr4() -> MemTiming {
        MemTiming {
            name: "LPDDR4",
            media_granularity: 0,
            read_latency: Nanos(110.0),
            write_latency: Nanos(110.0),
            controllers: 2,
            gbps_per_controller: 17.0,
        }
    }

    /// Optane DC PMM behind six controllers (paper platform (3)):
    /// tRCD 190 ns + tCL 8.9 ns reads, tRP 763 ns writes (Table I),
    /// ~39 GB/s accumulated read bandwidth (paper §V-B).
    pub fn optane() -> MemTiming {
        MemTiming {
            name: "Optane",
            media_granularity: 256,
            read_latency: Nanos(190.0 + 8.9),
            write_latency: Nanos(763.0),
            controllers: 6,
            gbps_per_controller: 6.5,
        }
    }

    /// HybridGPU's single internal DRAM-buffer package on a 32-bit bus
    /// (paper §I: 96 % lower bandwidth than the GPU memory subsystem).
    pub fn hybrid_buffer() -> MemTiming {
        MemTiming {
            name: "DRAM-buffer",
            media_granularity: 0,
            read_latency: Nanos(167.0),
            write_latency: Nanos(167.0),
            controllers: 1,
            gbps_per_controller: 8.0,
        }
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.controllers as f64 * self.gbps_per_controller
    }
}

/// A memory subsystem: `n` address-interleaved controllers, each a
/// bandwidth-limited [`Link`], plus a fixed array-access latency.
///
/// # Examples
///
/// ```
/// use zng_mem::{MemSubsystem, MemTiming};
/// use zng_types::{AccessKind, Cycle, Freq};
///
/// let mut gddr5 = MemSubsystem::new(MemTiming::gddr5(), Freq::default());
/// let done = gddr5.access(Cycle(0), 0x1000, AccessKind::Read, 128);
/// assert!(done > Cycle(0));
/// ```
#[derive(Debug, Clone)]
pub struct MemSubsystem {
    timing: MemTiming,
    read_latency: Cycle,
    write_latency: Cycle,
    channels: Vec<Link>,
    bytes_read: u64,
    bytes_written: u64,
}

impl MemSubsystem {
    /// Instantiates the subsystem under GPU clock `freq`.
    pub fn new(timing: MemTiming, freq: Freq) -> MemSubsystem {
        let bytes_per_cycle = timing.gbps_per_controller * 1e9 / freq.hz();
        MemSubsystem {
            timing,
            read_latency: timing.read_latency.to_cycles(freq),
            write_latency: timing.write_latency.to_cycles(freq),
            channels: (0..timing.controllers)
                .map(|_| Link::new(bytes_per_cycle, Cycle::ZERO))
                .collect(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Performs one access of `bytes` at `addr`; returns completion time.
    ///
    /// The controller is chosen by interleaving 256 B address chunks, the
    /// standard GPU partition scheme.
    pub fn access(&mut self, now: Cycle, addr: u64, kind: AccessKind, bytes: usize) -> Cycle {
        let mc = ((addr / 256) % self.channels.len() as u64) as usize;
        // Media granularity: the device internally moves at least one
        // media line per access (Optane's 256 B XPLine), so small random
        // accesses consume disproportionate internal bandwidth.
        let moved = bytes.max(self.timing.media_granularity);
        let latency = match kind {
            AccessKind::Read => {
                self.bytes_read += bytes as u64;
                self.read_latency
            }
            AccessKind::Write => {
                self.bytes_written += bytes as u64;
                self.write_latency
            }
        };
        self.channels[mc].transfer(now, moved) + latency
    }

    /// Performs one access *without* reserving a controller: fixed array
    /// latency plus ideal transfer time.
    ///
    /// Use this for operations that happen at future timestamps relative
    /// to the simulation's event cursor (buffer fills, staging copies):
    /// reserving a serial controller out of time order would falsely
    /// queue every later-processed access behind them. Byte counters are
    /// still updated.
    pub fn access_unqueued(&mut self, now: Cycle, kind: AccessKind, bytes: usize) -> Cycle {
        let bytes_per_cycle = self.channels[0].bytes_per_cycle();
        let transfer = Cycle((bytes as f64 / bytes_per_cycle).ceil() as u64);
        let latency = match kind {
            AccessKind::Read => {
                self.bytes_read += bytes as u64;
                self.read_latency
            }
            AccessKind::Write => {
                self.bytes_written += bytes as u64;
                self.write_latency
            }
        };
        now + transfer + latency
    }

    /// The configured timing parameters.
    pub fn timing(&self) -> &MemTiming {
        &self.timing
    }

    /// Total bytes read since construction.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written since construction.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_aggregate_bandwidth() {
        assert!((MemTiming::gddr5().peak_gbps() - 192.0).abs() < 1e-9);
        assert!((MemTiming::optane().peak_gbps() - 39.0).abs() < 1e-9);
        assert!((MemTiming::hybrid_buffer().peak_gbps() - 8.0).abs() < 1e-9);
        // Paper Fig. 4c ordering: GPU DRAM > desktop > mobile > buffer.
        assert!(MemTiming::gddr5().peak_gbps() > MemTiming::ddr4().peak_gbps());
        assert!(MemTiming::ddr4().peak_gbps() > MemTiming::lpddr4().peak_gbps());
        assert!(MemTiming::lpddr4().peak_gbps() > MemTiming::hybrid_buffer().peak_gbps());
    }

    #[test]
    fn read_latency_applied() {
        let f = Freq::ghz(1.0);
        let mut m = MemSubsystem::new(MemTiming::gddr5(), f);
        let done = m.access(Cycle(0), 0, AccessKind::Read, 128);
        // 167 ns at 1 GHz = 167 cycles, plus >=1 cycle of bus occupancy.
        assert!(done >= Cycle(167));
        assert!(done <= Cycle(200));
        assert_eq!(m.bytes_read(), 128);
        assert_eq!(m.bytes_written(), 0);
    }

    #[test]
    fn optane_writes_slower_than_reads() {
        let f = Freq::default();
        let mut m = MemSubsystem::new(MemTiming::optane(), f);
        let r = m.access(Cycle(0), 0, AccessKind::Read, 128);
        let w = m.access(Cycle(0), 1 << 20, AccessKind::Write, 128);
        assert!(w > r, "tRP 763ns must exceed tRCD+tCL ~199ns: {r} vs {w}");
    }

    #[test]
    fn interleaving_spreads_load() {
        let f = Freq::default();
        let mut m = MemSubsystem::new(MemTiming::gddr5(), f);
        // Two accesses to different 256B chunks should overlap fully.
        let a = m.access(Cycle(0), 0, AccessKind::Read, 128);
        let b = m.access(Cycle(0), 256, AccessKind::Read, 128);
        assert_eq!(a, b);
        // Same chunk serializes on the channel occupancy.
        let c = m.access(Cycle(0), 0, AccessKind::Read, 128);
        assert!(c >= a);
    }

    #[test]
    fn single_buffer_channel_saturates() {
        let f = Freq::default();
        let mut buf = MemSubsystem::new(MemTiming::hybrid_buffer(), f);
        let mut gpu = MemSubsystem::new(MemTiming::gddr5(), f);
        let mut t_buf = Cycle::ZERO;
        let mut t_gpu = Cycle::ZERO;
        for i in 0..1000u64 {
            t_buf = t_buf.max(buf.access(Cycle(0), i * 128, AccessKind::Read, 128));
            t_gpu = t_gpu.max(gpu.access(Cycle(0), i * 128, AccessKind::Read, 128));
        }
        // The buffer should take far longer to stream the same bytes
        // (24x bandwidth gap).
        assert!(
            t_buf.raw() > t_gpu.raw() * 10,
            "buffer {t_buf} vs gpu {t_gpu}"
        );
    }

    #[test]
    fn optane_media_granularity_halves_small_access_bandwidth() {
        // 128 B requests internally move a 256 B XPLine: back-to-back
        // sector reads drain the controller twice as fast as the payload
        // suggests.
        let f = Freq::ghz(1.0);
        let mut opt = MemSubsystem::new(MemTiming::optane(), f);
        let mut ddr = MemSubsystem::new(MemTiming::ddr4(), f);
        let mut t_opt = Cycle::ZERO;
        let mut t_ddr = Cycle::ZERO;
        for _ in 0..1_000 {
            // Same controller every time: measure pure occupancy.
            t_opt = t_opt.max(opt.access(Cycle::ZERO, 0, AccessKind::Read, 128));
            t_ddr = t_ddr.max(ddr.access(Cycle::ZERO, 0, AccessKind::Read, 128));
        }
        // Optane occupancy per request ~ 256 B / 6.5 B/cy ~ 40cy;
        // DDR4 ~ 128 / 19.2 ~ 7cy. The ratio must exceed the pure
        // bandwidth ratio (x1.5) because of the 2x granularity factor.
        let per_opt = (t_opt.raw() - opt.timing().read_latency.to_cycles(f).raw()) as f64 / 1_000.0;
        let per_ddr = (t_ddr.raw() - ddr.timing().read_latency.to_cycles(f).raw()) as f64 / 1_000.0;
        assert!(per_opt / per_ddr > 4.0, "{per_opt} vs {per_ddr}");
    }

    #[test]
    fn unqueued_access_does_not_reserve_controllers() {
        let f = Freq::ghz(1.0);
        let mut m = MemSubsystem::new(MemTiming::ddr4(), f);
        // A far-future unqueued fill...
        let fill_done = m.access_unqueued(Cycle(1_000_000), AccessKind::Write, 4096);
        assert!(fill_done > Cycle(1_000_000));
        // ...must not delay an earlier-time demand access.
        let t = m.access(Cycle(0), 0, AccessKind::Read, 128);
        assert!(
            t < Cycle(1_000),
            "demand access poisoned by future fill: {t}"
        );
        assert_eq!(m.bytes_written(), 4096);
    }
}
