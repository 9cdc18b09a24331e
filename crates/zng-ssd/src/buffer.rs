//! The SSD-internal DRAM page buffer.
//!
//! A fully-associative LRU cache of flash pages with dirty tracking.
//! Residency is decided here; the *timing* of buffer DRAM accesses is
//! charged by the SSD module through its single-package
//! [`zng_mem::MemSubsystem`] (the 32-bit-bus bottleneck of Fig. 1b).

use fxhash::{FxBuildHasher, FxHashMap};

/// The result of a buffer lookup/insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferAccess {
    /// Whether the page was already resident.
    pub hit: bool,
    /// A dirty page pushed out to make room (must be flushed to flash).
    pub evicted_dirty: Option<u64>,
}

/// A fully-associative LRU page cache with dirty bits.
///
/// [`access`](PageBuffer::access) is O(1): resident pages live in a
/// fixed-capacity slot array threaded as a doubly linked recency list
/// (head = most recently used, tail = the next victim), and a hash map
/// finds a page's slot.
///
/// # Examples
///
/// ```
/// use zng_ssd::PageBuffer;
///
/// let mut buf = PageBuffer::new(2);
/// assert!(!buf.access(1, false).hit);
/// assert!(buf.access(1, true).hit); // now dirty
/// buf.access(2, false);
/// let third = buf.access(3, false); // evicts page 1 (LRU, dirty)
/// assert_eq!(third.evicted_dirty, Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct PageBuffer {
    capacity: usize,
    /// Resident pages, one per slot; slots are appended until the buffer
    /// is full and reused in place on eviction afterwards.
    slots: Vec<Slot>,
    /// ppn -> slot index. Pre-sized to `capacity` (residency is bounded)
    /// with the deterministic Fx hasher; it is only ever probed by key,
    /// and `flush_dirty` sorts, so iteration order never leaks.
    index: FxHashMap<u64, u32>,
    /// Most recently used slot ([`NIL`] when empty).
    head: u32,
    /// Least recently used slot — the next victim ([`NIL`] when empty).
    tail: u32,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// One resident page and its links in the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ppn: u64,
    dirty: bool,
    /// Next more recently used slot.
    prev: u32,
    /// Next less recently used slot.
    next: u32,
}

/// The null slot link.
const NIL: u32 = u32::MAX;

impl PageBuffer {
    /// The largest capacity a buffer can address: slot indices are `u32`
    /// and `u32::MAX` is the null link.
    pub const MAX_CAPACITY: usize = NIL as usize;

    /// Creates a buffer holding `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or above [`PageBuffer::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> PageBuffer {
        assert!(capacity > 0, "page buffer needs capacity");
        assert!(
            capacity <= PageBuffer::MAX_CAPACITY,
            "page buffer capacity exceeds the slot index range"
        );
        PageBuffer {
            capacity,
            slots: Vec::with_capacity(capacity),
            index: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Touches page `ppn`, marking it dirty if `write`. Inserts on miss,
    /// evicting the LRU page; a dirty eviction is reported for flushing.
    pub fn access(&mut self, ppn: u64, write: bool) -> BufferAccess {
        if let Some(&i) = self.index.get(&ppn) {
            self.slots[i as usize].dirty |= write;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            self.hits += 1;
            return BufferAccess {
                hit: true,
                evicted_dirty: None,
            };
        }
        self.misses += 1;
        let page = Slot {
            ppn,
            dirty: write,
            prev: NIL,
            next: NIL,
        };
        let mut evicted_dirty = None;
        let i = if self.slots.len() < self.capacity {
            self.slots.push(page);
            (self.slots.len() - 1) as u32
        } else {
            let i = self.tail;
            self.unlink(i);
            let victim = std::mem::replace(&mut self.slots[i as usize], page);
            self.index.remove(&victim.ppn);
            if victim.dirty {
                self.writebacks += 1;
                evicted_dirty = Some(victim.ppn);
            }
            i
        };
        self.index.insert(ppn, i);
        self.push_front(i);
        BufferAccess {
            hit: false,
            evicted_dirty,
        }
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links detached slot `i` in as the most recently used.
    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let slot = &mut self.slots[i as usize];
        slot.prev = NIL;
        slot.next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Drops every resident page.
    fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Whether `ppn` is resident.
    pub fn contains(&self, ppn: u64) -> bool {
        self.index.contains_key(&ppn)
    }

    /// Drains all dirty pages (flush on shutdown/GC), clearing the buffer.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut dirty: Vec<u64> = self
            .slots
            .iter()
            .filter(|s| s.dirty)
            .map(|s| s.ppn)
            .collect();
        dirty.sort_unstable();
        self.writebacks += dirty.len() as u64;
        self.clear();
        dirty
    }

    /// Power loss: every buffered page — dirty ones included — vanishes
    /// with **no** write-back (the buffer is DRAM). Returns the number of
    /// dirty pages lost; those writes were never durable and recovery
    /// must not resurrect them.
    pub fn power_loss(&mut self) -> usize {
        let lost = self.slots.iter().filter(|s| s.dirty).count();
        self.clear();
        lost
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions + flushes performed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Hit rate (0.0 if never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut b = PageBuffer::new(4);
        assert!(!b.access(1, false).hit);
        assert!(b.access(1, false).hit);
        assert_eq!(b.hits(), 1);
        assert_eq!(b.misses(), 1);
        assert!((b.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = PageBuffer::new(2);
        b.access(1, false);
        b.access(2, false);
        b.access(1, false); // 2 becomes LRU
        let r = b.access(3, false);
        assert!(!r.hit);
        assert!(!b.contains(2));
        assert!(b.contains(1) && b.contains(3));
    }

    #[test]
    fn clean_evictions_need_no_writeback() {
        let mut b = PageBuffer::new(1);
        b.access(1, false);
        let r = b.access(2, false);
        assert_eq!(r.evicted_dirty, None);
        assert_eq!(b.writebacks(), 0);
    }

    #[test]
    fn dirty_evictions_reported() {
        let mut b = PageBuffer::new(1);
        b.access(1, true);
        let r = b.access(2, false);
        assert_eq!(r.evicted_dirty, Some(1));
        assert_eq!(b.writebacks(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut b = PageBuffer::new(2);
        b.access(1, false);
        b.access(1, true); // dirties the clean page
        b.access(2, false);
        let r = b.access(3, false); // evicts 1
        assert_eq!(r.evicted_dirty, Some(1));
    }

    #[test]
    fn flush_dirty_returns_sorted_and_clears() {
        let mut b = PageBuffer::new(8);
        b.access(5, true);
        b.access(2, false);
        b.access(9, true);
        assert_eq!(b.flush_dirty(), vec![5, 9]);
        assert!(b.is_empty());
    }

    #[test]
    fn power_loss_drops_dirty_pages_without_writeback() {
        let mut b = PageBuffer::new(8);
        b.access(1, true);
        b.access(2, false);
        b.access(3, true);
        assert_eq!(b.power_loss(), 2, "two dirty pages lost");
        assert!(b.is_empty());
        assert_eq!(b.writebacks(), 0, "a power cut never writes back");
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = PageBuffer::new(0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "slot index range")]
    fn unaddressable_capacity_rejected() {
        let _ = PageBuffer::new(PageBuffer::MAX_CAPACITY + 1);
    }
}
