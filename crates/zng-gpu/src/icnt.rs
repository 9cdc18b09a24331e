//! The GPU interconnect between SMs, L2 banks and memory-side ports.
//!
//! A crossbar with one injection pipe per L2 bank: high bandwidth
//! (Table I-era GPUs move >700 GB/s internally) and a small fixed
//! traversal latency. In ZnG the flash controllers hang directly off this
//! network (paper §III-B), so flash-bound traffic crosses it too.

use zng_sim::Link;
use zng_types::{ids::BankId, Cycle};

/// The SM↔L2 crossbar.
///
/// # Examples
///
/// ```
/// use zng_gpu::Interconnect;
/// use zng_types::{ids::BankId, Cycle};
///
/// let mut icnt = Interconnect::new(6, 32.0, Cycle(20));
/// let done = icnt.transfer(Cycle(0), BankId(2), 128);
/// assert_eq!(done, Cycle(24)); // 128/32 occupancy + 20 latency
/// ```
#[derive(Debug, Clone)]
pub struct Interconnect {
    ports: Vec<Link>,
}

impl Interconnect {
    /// Creates a crossbar with `banks` ports of `bytes_per_cycle` each and
    /// the given traversal latency.
    pub fn new(banks: usize, bytes_per_cycle: f64, latency: Cycle) -> Interconnect {
        assert!(banks > 0, "interconnect needs at least one port");
        Interconnect {
            ports: (0..banks)
                .map(|_| Link::new(bytes_per_cycle, latency))
                .collect(),
        }
    }

    /// Moves `bytes` to/from bank `bank`; returns arrival time.
    pub fn transfer(&mut self, now: Cycle, bank: BankId, bytes: usize) -> Cycle {
        let idx = bank.index() % self.ports.len();
        self.ports[idx].transfer(now, bytes)
    }

    /// Number of ports (== L2 banks).
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.ports.iter().map(|p| p.bytes_moved()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_independent() {
        let mut i = Interconnect::new(2, 32.0, Cycle(10));
        let a = i.transfer(Cycle(0), BankId(0), 4096);
        let b = i.transfer(Cycle(0), BankId(1), 4096);
        assert_eq!(a, b);
        let c = i.transfer(Cycle(0), BankId(0), 4096);
        assert!(c > a);
    }

    #[test]
    fn bank_wraps_modulo_ports() {
        let mut i = Interconnect::new(2, 32.0, Cycle(0));
        i.transfer(Cycle(0), BankId(0), 128);
        let t = i.transfer(Cycle(0), BankId(2), 128); // same port as bank 0
        assert_eq!(t, Cycle(8));
        assert_eq!(i.bytes_moved(), 256);
    }
}
