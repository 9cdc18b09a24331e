//! PCIe interconnect model for the discrete GPU-SSD (`Hetero`) platform.
//!
//! In the Hetero system (paper Fig. 4b) a page fault travels: GPU → host
//! interrupt → SSD read → host DRAM staging copy → PCIe DMA back to GPU
//! memory. The redundant host-side copy (user/privilege mode switches)
//! and the PCIe round trips dominate; this module models the link and the
//! fixed software overheads.

use zng_sim::Link;
use zng_types::{Cycle, Freq, Nanos};

/// A PCIe 3.0-style host link plus host-software fault overheads.
///
/// # Examples
///
/// ```
/// use zng_mem::PcieLink;
/// use zng_types::{Cycle, Freq};
///
/// let mut pcie = PcieLink::gen3_x16(Freq::default());
/// let done = pcie.dma(Cycle(0), 4096);
/// assert!(done > Cycle(0));
/// ```
#[derive(Debug, Clone)]
pub struct PcieLink {
    link: Link,
    /// One-way transaction latency.
    latency: Cycle,
    /// Host interrupt + driver + user/kernel switch cost per fault.
    fault_software_overhead: Cycle,
    transfers: u64,
}

impl PcieLink {
    /// PCIe 3.0 x16: ~15.75 GB/s effective, ~500 ns transaction latency.
    /// Page-fault software path (interrupt, driver, mode switches) is
    /// modelled at 5 µs, consistent with the paper's observation that
    /// fault servicing dominates Hetero latency.
    pub fn gen3_x16(freq: Freq) -> PcieLink {
        let bytes_per_cycle = 15.75e9 / freq.hz();
        PcieLink {
            link: Link::new(bytes_per_cycle, Cycle::ZERO),
            latency: Nanos(500.0).to_cycles(freq),
            fault_software_overhead: Nanos::from_micros(5.0).to_cycles(freq),
            transfers: 0,
        }
    }

    /// DMAs `bytes` across the link; returns arrival time of the last byte.
    pub fn dma(&mut self, now: Cycle, bytes: usize) -> Cycle {
        self.transfers += 1;
        self.link.transfer(now, bytes) + self.latency
    }

    /// The fixed host-software cost of servicing one page fault
    /// (interrupt delivery, driver, user/privilege switches).
    pub fn fault_software_overhead(&self) -> Cycle {
        self.fault_software_overhead
    }

    /// Total bytes DMAed.
    pub fn bytes_moved(&self) -> u64 {
        self.link.bytes_moved()
    }

    /// Number of DMA transactions issued.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_includes_latency_and_occupancy() {
        let f = Freq::ghz(1.0);
        let mut p = PcieLink::gen3_x16(f);
        // 500ns latency at 1 GHz = 500 cycles; 4 KB at 15.75 B/cy ~ 261 cy.
        let done = p.dma(Cycle(0), 4096);
        assert!(done > Cycle(500));
        assert!(done < Cycle(1_000));
        assert_eq!(p.bytes_moved(), 4096);
        assert_eq!(p.transfers(), 1);
    }

    #[test]
    fn back_to_back_dmas_serialize() {
        let f = Freq::default();
        let mut p = PcieLink::gen3_x16(f);
        let a = p.dma(Cycle(0), 1 << 20);
        let b = p.dma(Cycle(0), 1 << 20);
        assert!(b.raw() > a.raw() + (a.raw() / 2), "{a} {b}");
    }

    #[test]
    fn fault_overhead_is_microseconds() {
        let f = Freq::ghz(1.2);
        let p = PcieLink::gen3_x16(f);
        assert_eq!(p.fault_software_overhead(), Cycle(6_000)); // 5us * 1.2GHz
    }
}
