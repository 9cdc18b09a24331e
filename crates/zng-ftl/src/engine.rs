//! The SSD engine: embedded cores executing FTL firmware.
//!
//! Commercial SSD controllers carry 2–5 low-power embedded cores
//! (paper §III-A). Every I/O request must be picked up, translated and
//! dispatched by one of them, which serializes the massive request stream
//! a GPU generates — the paper measures this at 67 % of HybridGPU's
//! memory access latency. [`SsdEngine`] models the cores as a small
//! server pool with a per-request firmware cost.

use zng_sim::Resource;
use zng_types::{Cycle, Freq, Nanos};

/// The embedded-core firmware execution model.
///
/// # Examples
///
/// ```
/// use zng_ftl::SsdEngine;
/// use zng_types::{Cycle, Freq};
///
/// let mut eng = SsdEngine::commercial(Freq::default());
/// let t1 = eng.process(Cycle(0));
/// let t2 = eng.process(Cycle(0));
/// assert!(t2 >= t1); // limited cores serialize
/// ```
#[derive(Debug, Clone)]
pub struct SsdEngine {
    cores: Resource,
    per_request: Cycle,
}

impl SsdEngine {
    /// A commercial controller: 3 embedded cores, ~500 ns of firmware
    /// work per request (queue pickup, FTL lookup, command build).
    pub fn commercial(freq: Freq) -> SsdEngine {
        SsdEngine::new(3, Nanos(500.0), freq)
    }

    /// A custom engine with `cores` cores and `per_request` firmware time.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, per_request: Nanos, freq: Freq) -> SsdEngine {
        SsdEngine {
            cores: Resource::new(cores),
            per_request: per_request.to_cycles(freq),
        }
    }

    /// Runs one request's firmware; returns when translation is done.
    pub fn process(&mut self, now: Cycle) -> Cycle {
        self.cores.acquire(now, self.per_request)
    }

    /// The firmware cost per request.
    pub fn per_request(&self) -> Cycle {
        self.per_request
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_cores_overlap_three_requests() {
        let mut e = SsdEngine::commercial(Freq::ghz(1.0));
        let a = e.process(Cycle(0));
        let b = e.process(Cycle(0));
        let c = e.process(Cycle(0));
        let d = e.process(Cycle(0));
        assert_eq!(a, Cycle(500));
        assert_eq!(b, Cycle(500));
        assert_eq!(c, Cycle(500));
        assert_eq!(d, Cycle(1000)); // fourth waits for a core
    }

    #[test]
    fn engine_throughput_is_bounded() {
        // 3 cores x 500ns => 6M requests/s. At 4 KB pages that is
        // ~24 GB/s of page traffic, but at 128 B sectors only ~0.77 GB/s:
        // exactly the paper's "engine cannot feed the GPU" argument.
        let f = Freq::ghz(1.0);
        let mut e = SsdEngine::commercial(f);
        let mut last = Cycle::ZERO;
        let n = 6_000;
        for _ in 0..n {
            last = e.process(Cycle(0));
        }
        // 6000 requests at 6 req/us => about 1 ms.
        let us = last.raw() as f64 / 1_000.0;
        assert!((us - 1_000.0).abs() < 10.0, "{us}");
    }

    #[test]
    fn custom_engine_parameters() {
        let mut e = SsdEngine::new(1, Nanos(100.0), Freq::ghz(1.0));
        assert_eq!(e.per_request(), Cycle(100));
        assert_eq!(e.process(Cycle(0)), Cycle(100));
        assert_eq!(e.process(Cycle(0)), Cycle(200), "one core serializes");
    }
}
