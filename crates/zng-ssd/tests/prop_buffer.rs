//! Property tests for the SSD page buffer, alone and mounted in the
//! NVMe SSD under end-of-life fault injection, plus a model-equivalence
//! lane against a scan-based reference LRU.

use std::collections::HashMap;

use proptest::prelude::*;
use zng_flash::{FaultConfig, FlashGeometry};
use zng_ssd::{BufferAccess, NvmeSsd, PageBuffer, SsdModule};
use zng_types::{AccessKind, Cycle, Error, Freq};

/// The reference model: a hash map of `ppn -> (last_use, dirty)` whose
/// victim is found by scanning for the smallest `(last_use, ppn)`.
/// Obviously LRU, and O(capacity) per miss — `PageBuffer` must make
/// exactly the same decisions in O(1).
struct RefBuffer {
    capacity: usize,
    pages: HashMap<u64, (u64, bool)>,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefBuffer {
    fn new(capacity: usize) -> RefBuffer {
        RefBuffer {
            capacity,
            pages: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn access(&mut self, ppn: u64, write: bool) -> BufferAccess {
        self.tick += 1;
        if let Some((last, dirty)) = self.pages.get_mut(&ppn) {
            *last = self.tick;
            *dirty |= write;
            self.hits += 1;
            return BufferAccess {
                hit: true,
                evicted_dirty: None,
            };
        }
        self.misses += 1;
        let mut evicted_dirty = None;
        if self.pages.len() >= self.capacity {
            let victim = self
                .pages
                .iter()
                .min_by_key(|(k, (last, _))| (*last, **k))
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                if let Some((_, true)) = self.pages.remove(&victim) {
                    self.writebacks += 1;
                    evicted_dirty = Some(victim);
                }
            }
        }
        self.pages.insert(ppn, (self.tick, write));
        BufferAccess {
            hit: false,
            evicted_dirty,
        }
    }

    fn flush_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, (_, d))| *d)
            .map(|(k, _)| *k)
            .collect();
        dirty.sort_unstable();
        self.writebacks += dirty.len() as u64;
        self.pages.clear();
        dirty
    }

    fn power_loss(&mut self) -> usize {
        let lost = self.pages.values().filter(|(_, d)| *d).count();
        self.pages.clear();
        lost
    }
}

proptest! {
    /// Any interleaving of accesses, residency probes, flushes and power
    /// cuts drives `PageBuffer` and the reference model to the same
    /// results and counters at every step. Op codes 0..=11 access, 12..=13
    /// probe, 14 flushes and 15 cuts power, so drains are rare enough for
    /// the buffer to fill and evict between them.
    #[test]
    fn buffer_matches_scan_reference_model(
        cap in 1usize..16,
        ops in prop::collection::vec((0u8..16, 0u64..64, any::<bool>()), 1..400),
    ) {
        let mut b = PageBuffer::new(cap);
        let mut r = RefBuffer::new(cap);
        for (step, &(op, ppn, write)) in ops.iter().enumerate() {
            match op {
                0..=11 => {
                    prop_assert_eq!(b.access(ppn, write), r.access(ppn, write), "step {}", step)
                }
                12..=13 => {
                    prop_assert_eq!(b.contains(ppn), r.pages.contains_key(&ppn), "step {}", step)
                }
                14 => prop_assert_eq!(b.flush_dirty(), r.flush_dirty(), "step {}", step),
                _ => prop_assert_eq!(b.power_loss(), r.power_loss(), "step {}", step),
            }
            prop_assert_eq!(b.len(), r.pages.len(), "step {}", step);
            prop_assert_eq!(b.hits(), r.hits, "step {}", step);
            prop_assert_eq!(b.misses(), r.misses, "step {}", step);
            prop_assert_eq!(b.writebacks(), r.writebacks, "step {}", step);
        }
    }

    #[test]
    fn buffer_never_exceeds_capacity_and_dirty_writebacks_conserve(
        cap in 1usize..16,
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..400),
    ) {
        let mut b = PageBuffer::new(cap);
        let mut dirty_in_flight = std::collections::HashSet::new();
        let mut writebacks = 0u64;
        for &(ppn, write) in &ops {
            let r = b.access(ppn, write);
            if write {
                dirty_in_flight.insert(ppn);
            }
            if let Some(victim) = r.evicted_dirty {
                prop_assert!(dirty_in_flight.remove(&victim), "clean page written back");
                writebacks += 1;
            }
            prop_assert!(b.len() <= cap);
        }
        let flushed = b.flush_dirty();
        for p in &flushed {
            prop_assert!(dirty_in_flight.remove(p));
        }
        prop_assert!(dirty_in_flight.is_empty(), "dirty pages lost");
        prop_assert_eq!(b.writebacks(), writebacks + flushed.len() as u64);
    }

    /// A power cut empties the buffer without any write-back, whatever
    /// state the access history left it in.
    #[test]
    fn power_loss_never_writes_back(
        cap in 1usize..16,
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..200),
    ) {
        let mut b = PageBuffer::new(cap);
        for &(ppn, write) in &ops {
            b.access(ppn, write);
        }
        let before = b.writebacks();
        let lost = b.power_loss();
        prop_assert!(lost <= cap, "cannot lose more dirty pages than fit");
        prop_assert!(b.is_empty());
        prop_assert_eq!(b.writebacks(), before, "power loss flushed nothing");
    }

    /// The HybridGPU module's buffer stays panic-free and within
    /// capacity under end-of-life fault injection, and a crash/recover
    /// cycle leaves the module serviceable.
    #[test]
    fn module_buffer_survives_end_of_life_faults(
        seed in 0u64..40,
        ops in prop::collection::vec((0u64..32, any::<bool>()), 1..80),
        crash_at in 0usize..80,
    ) {
        let mut m = SsdModule::hybrid(FlashGeometry::tiny(), 4, Freq::default()).unwrap();
        m.ftl_mut().1.set_fault_config(&FaultConfig::end_of_life().with_seed(seed));
        let crash_at = crash_at.min(ops.len());
        let mut t = Cycle::ZERO;
        let mut worn = false;
        for &(vpn, write) in &ops[..crash_at] {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            match m.access_sector(t, vpn, kind) {
                Ok(done) => t = done,
                Err(Error::DeviceWornOut { .. }) => { worn = true; break }
                Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("access failed: {e}"))),
            }
            prop_assert!(m.buffer().len() <= m.buffer().capacity());
        }
        if worn {
            return Ok(());
        }
        match m.crash_recover(t + Cycle(10_000_000)) {
            Ok(_) => {}
            Err(Error::DeviceWornOut { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("recovery failed: {e}"))),
        }
        prop_assert!(m.buffer().is_empty(), "buffer survived the cut");
        for &(vpn, _) in &ops[crash_at..] {
            match m.access_sector(t + Cycle(20_000_000), vpn, AccessKind::Read) {
                Ok(_) => {}
                Err(Error::DeviceWornOut { .. }) => break,
                Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("post-recovery: {e}"))),
            }
        }
    }

    /// The discrete NVMe SSD under end-of-life faults: completed writes
    /// stay readable across a quiescent crash/recover cycle.
    #[test]
    fn nvme_recovers_under_end_of_life_faults(
        seed in 0u64..40,
        writes in prop::collection::vec(0u64..64, 1..60),
    ) {
        let mut s = NvmeSsd::new(FlashGeometry::tiny(), Freq::default()).unwrap();
        s.ftl_mut().1.set_fault_config(&FaultConfig::end_of_life().with_seed(seed));
        let mut t = Cycle::ZERO;
        let mut acked = std::collections::BTreeSet::new();
        for &ppn in &writes {
            match s.write_page(t, ppn) {
                Ok(done) => { t = done; acked.insert(ppn); }
                Err(Error::DeviceWornOut { .. }) => break,
                Err(e) => return Err(TestCaseError::fail(format!("write failed: {e}"))),
            }
        }
        match s.crash_recover(t + Cycle(10_000_000)) {
            Ok(report) => {
                prop_assert_eq!(report.torn_discarded, 0, "quiescent cut tears nothing");
            }
            Err(Error::DeviceWornOut { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("recovery failed: {e}"))),
        }
        for &ppn in &acked {
            match s.read_page(t + Cycle(20_000_000), ppn) {
                Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
                Err(e) => return Err(TestCaseError::fail(format!("lost page {ppn}: {e}"))),
            }
        }
    }
}
