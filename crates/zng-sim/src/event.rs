//! A deterministic time-ordered event queue: a bitmap-indexed timing
//! wheel for the near future in front of a binary heap for the rest.
//!
//! Every pending event is ordered by `(time, schedule sequence)`, so
//! same-cycle events pop in the order they were scheduled. Two tiers
//! hold them:
//!
//! * **Near tier** — a timing wheel of 4 096 buckets of 16 cycles each,
//!   covering the 65 536-cycle window that starts at `base` (a bucket
//!   boundary). Each bucket is a singly linked list of slab nodes kept
//!   sorted by time. A new event carries the highest sequence number
//!   yet, so it goes after every node of its bucket not later than it;
//!   in the common case that is an O(1) append at the tail. One
//!   occupancy bit per bucket lets the next non-empty bucket be found
//!   with `trailing_zeros` over 64 words. Freed nodes are reused, so
//!   steady state allocates nothing.
//! * **Far tier** — a `BinaryHeap` for events outside the window:
//!   far-future stalls (GC, maintenance, crash-recovery blocking) and
//!   anything scheduled before `base`.
//!
//! The window starts at the bucket of the last event popped from the
//! wheel, so it slides forward with simulated time. When it moves, far
//! events that now fall inside it move into the wheel in heap order.
//! The buckets they land in were drained before the window moved, so
//! appending them keeps each bucket sorted by `(time, sequence)`. Far
//! events earlier than `base` are earlier than every wheel event and pop
//! straight from the heap; when the wheel runs dry the window jumps to
//! the earliest far event.
//!
//! The bucket tables stay at 32 KB so they stay in the host's caches.
//! Two alternatives were measured and rejected: a calendar queue that
//! found its buckets through an ordered map (slower than the plain
//! heap), and a per-cycle wheel with 512 KB of tables (faster on a
//! fairness-throttled mix, slower on the SSD-buffer baseline through
//! host cache misses).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use zng_types::Cycle;

/// log2 of [`BUCKET_CYCLES`].
const BUCKET_SHIFT: u32 = 4;
/// Cycles covered by one wheel bucket.
const BUCKET_CYCLES: u64 = 1 << BUCKET_SHIFT;
/// Buckets in the wheel.
const BUCKETS: usize = 4096;
/// Cycles covered by the wheel's window.
const SPAN: u64 = BUCKETS as u64 * BUCKET_CYCLES;
/// Occupancy-bitmap words.
const WORDS: usize = BUCKETS / 64;
/// The null slab index: end of a bucket list, or an empty bucket.
const NIL: u32 = u32::MAX;

/// A far-tier entry: ordered by time, then by schedule sequence.
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A wheel event in the slab. A free node holds `None` and links the
/// free list through `next`.
struct Node<E> {
    at: Cycle,
    next: u32,
    event: Option<E>,
}

/// One wheel bucket: the head and tail slab indices of its list.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A time-ordered event queue.
///
/// Events scheduled for the same cycle are delivered in the order they were
/// scheduled, which keeps simulations reproducible run-to-run. See the
/// [module docs](self) for the two-tier layout.
///
/// # Examples
///
/// ```
/// use zng_sim::EventQueue;
/// use zng_types::Cycle;
///
/// // Pre-size to the expected population so steady state never
/// // reallocates.
/// let mut q = EventQueue::with_capacity(8);
/// q.schedule(Cycle(20), "late");
/// q.schedule(Cycle(10), "early");
/// q.schedule(Cycle(10), "early2");
/// assert_eq!(q.peek(), Some((Cycle(10), &"early")));
/// assert_eq!(q.pop(), Some((Cycle(10), "early")));
/// assert_eq!(q.pop(), Some((Cycle(10), "early2")));
/// assert_eq!(q.pop(), Some((Cycle(20), "late")));
/// assert_eq!(q.pop(), None);
///
/// // Same-cycle events batch-drain in FIFO order into a reusable
/// // scratch buffer.
/// q.schedule(Cycle(5), "a");
/// q.schedule(Cycle(5), "b");
/// q.schedule(Cycle(6), "c");
/// let mut batch = Vec::new();
/// q.pop_at(Cycle(5), &mut batch);
/// assert_eq!(batch, vec!["a", "b"]);
/// assert_eq!(q.peek_time(), Some(Cycle(6)));
/// ```
pub struct EventQueue<E> {
    /// Start of the wheel's window, a multiple of [`BUCKET_CYCLES`].
    /// Wheel events lie in `[base, base + SPAN)`; far events outside it.
    base: u64,
    /// Bucket lists, indexed by `(time / BUCKET_CYCLES) % BUCKETS`.
    buckets: Box<[Bucket; BUCKETS]>,
    /// One bit per non-empty bucket.
    occupied: [u64; WORDS],
    /// Node storage for wheel events.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Events in the wheel.
    wheel_len: usize,
    /// Events outside the window.
    far: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            base: 0,
            buckets: Box::new([EMPTY; BUCKETS]),
            occupied: [0; WORDS],
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            wheel_len: 0,
            far: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Events the queue can hold without reallocating, whichever tier
    /// they land in.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity().min(self.far.capacity())
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.seq;
        self.seq += 1;
        if self.in_window(at) {
            self.insert(at, event);
        } else {
            self.far.push(Entry { at, seq, event });
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.far_is_next()? {
            return self.far.pop().map(|e| (e.at, e.event));
        }
        let slot = self.first_slot();
        let at = self.nodes[self.buckets[slot].head as usize].at;
        self.rebase(at);
        Some(self.pop_head(slot))
    }

    /// The earliest pending event without removing it.
    pub fn peek(&self) -> Option<(Cycle, &E)> {
        match self.far.peek() {
            Some(f) if self.wheel_len == 0 || f.at.raw() < self.base => Some((f.at, &f.event)),
            _ if self.wheel_len == 0 => None,
            _ => {
                let node = &self.nodes[self.buckets[self.first_slot()].head as usize];
                node.event.as_ref().map(|e| (node.at, e))
            }
        }
    }

    /// Drains every event scheduled exactly at `at` into `out`, in FIFO
    /// (schedule) order, provided `at` is the earliest pending time;
    /// otherwise drains nothing. Later events are not disturbed.
    ///
    /// `out` is appended to, not cleared — pass a reusable scratch
    /// buffer and `clear()` it between batches to keep the event loop
    /// allocation-free. Events scheduled *during* batch processing at
    /// the same cycle carry higher sequence numbers than everything
    /// already queued, so draining the next batch with another
    /// `pop_at` call preserves exactly the one-at-a-time total order.
    pub fn pop_at(&mut self, at: Cycle, out: &mut Vec<E>) {
        let Some(far_next) = self.far_is_next() else {
            return;
        };
        if far_next {
            while self.far.peek().is_some_and(|e| e.at == at) {
                out.extend(self.far.pop().map(|e| e.event));
            }
            return;
        }
        // Every event at `at` shares one bucket, and the bucket is
        // sorted, so they are the run at its head.
        let slot = self.first_slot();
        if self.nodes[self.buckets[slot].head as usize].at != at {
            return;
        }
        self.rebase(at);
        loop {
            out.push(self.pop_head(slot).1);
            let head = self.buckets[slot].head;
            if head == NIL || self.nodes[head as usize].at != at {
                break;
            }
        }
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.peek().map(|(at, _)| at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `at` falls inside the wheel's window.
    fn in_window(&self, at: Cycle) -> bool {
        at.raw().wrapping_sub(self.base) < SPAN
    }

    /// Which tier holds the earliest event: `Some(true)` for the far
    /// heap, `Some(false)` for the wheel, `None` when the queue is
    /// empty. A dry wheel first jumps its window to the earliest far
    /// event, so a far answer always means an event before `base`.
    fn far_is_next(&mut self) -> Option<bool> {
        if self.wheel_len == 0 {
            let at = self.far.peek()?.at;
            self.rebase(at);
        }
        Some(self.far.peek().is_some_and(|f| f.at.raw() < self.base))
    }

    /// Moves the window to start at the bucket of `at` — the earliest
    /// wheel event, about to pop, or the earliest far event when the
    /// wheel is dry — and migrates the far events it now covers into the
    /// wheel. Every bucket that newly enters the window is empty, and
    /// far events arrive in `(time, sequence)` order, so each one
    /// appends at its bucket's tail. Callers guarantee no far event
    /// precedes the new base.
    fn rebase(&mut self, at: Cycle) {
        let base = at.raw() & !(BUCKET_CYCLES - 1);
        if base == self.base {
            return;
        }
        self.base = base;
        while self.far.peek().is_some_and(|f| self.in_window(f.at)) {
            if let Some(e) = self.far.pop() {
                self.insert(e.at, e.event);
            }
        }
    }

    /// Index of the first non-empty bucket at or after the window start.
    /// The wheel must not be empty.
    fn first_slot(&self) -> usize {
        let start = (self.base >> BUCKET_SHIFT) as usize % BUCKETS;
        let (w0, b0) = (start / 64, start % 64);
        let word = self.occupied[w0] & (!0u64 << b0);
        if word != 0 {
            return w0 * 64 + word.trailing_zeros() as usize;
        }
        // The window wraps around the table: scan the following words,
        // ending with the low bits of the starting word.
        (1..=WORDS)
            .map(|i| (w0 + i) % WORDS)
            .find_map(|w| {
                let word = self.occupied[w];
                (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
            })
            .expect("first_slot on an empty wheel")
    }

    /// Links a window event into its bucket after every node not later
    /// than it. The event must be the newest scheduled, or be migrating
    /// into a bucket that was empty when migration began.
    fn insert(&mut self, at: Cycle, event: E) {
        let node = Node {
            at,
            next: NIL,
            event: Some(event),
        };
        let n = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "event queue overflow");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.wheel_len += 1;
        let slot = (at.raw() >> BUCKET_SHIFT) as usize % BUCKETS;
        let Bucket { head, tail } = self.buckets[slot];
        if head == NIL {
            self.buckets[slot] = Bucket { head: n, tail: n };
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else if self.nodes[tail as usize].at <= at {
            self.nodes[tail as usize].next = n;
            self.buckets[slot].tail = n;
        } else if self.nodes[head as usize].at > at {
            self.nodes[n as usize].next = head;
            self.buckets[slot].head = n;
        } else {
            // Somewhere in the middle: the tail is later than `at`, so
            // the walk stops before running off the list.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if self.nodes[next as usize].at > at {
                    break;
                }
                prev = next;
            }
            self.nodes[n as usize].next = self.nodes[prev as usize].next;
            self.nodes[prev as usize].next = n;
        }
    }

    /// Unlinks and returns the head of the non-empty bucket `slot`.
    fn pop_head(&mut self, slot: usize) -> (Cycle, E) {
        let n = self.buckets[slot].head;
        let node = &mut self.nodes[n as usize];
        let (at, next) = (node.at, node.next);
        let event = node.event.take().expect("linked node holds an event");
        node.next = self.free;
        self.free = n;
        self.wheel_len -= 1;
        if next == NIL {
            self.buckets[slot] = EMPTY;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.buckets[slot].head = next;
        }
        (at, event)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 5);
        q.schedule(Cycle(1), 1);
        q.schedule(Cycle(3), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycle(9), ());
        q.schedule(Cycle(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle(9)));
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), "a");
        assert_eq!(q.pop(), Some((Cycle(10), "a")));
        q.schedule(Cycle(4), "b");
        q.schedule(Cycle(4), "c");
        assert_eq!(q.pop(), Some((Cycle(4), "b")));
        q.schedule(Cycle(3), "d");
        assert_eq!(q.pop(), Some((Cycle(3), "d")));
        assert_eq!(q.pop(), Some((Cycle(4), "c")));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(8), "x");
        q.schedule(Cycle(3), "y");
        assert_eq!(q.peek(), Some((Cycle(3), &"y")));
        assert_eq!(q.peek(), Some((Cycle(3), &"y")), "peek is idempotent");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycle(3), "y")));
        assert_eq!(q.peek(), Some((Cycle(8), &"x")));
    }

    #[test]
    fn same_cycle_batch_drain_matches_pop_order() {
        // The drained batch must be exactly what repeated pop() would
        // have delivered: FIFO within the cycle, later cycles untouched.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, e) in [(4, 0), (2, 1), (2, 2), (9, 3), (2, 4)] {
            a.schedule(Cycle(t), e);
            b.schedule(Cycle(t), e);
        }
        let mut batch = Vec::new();
        let t0 = a.peek_time().unwrap();
        a.pop_at(t0, &mut batch);
        assert_eq!(batch, vec![1, 2, 4]);
        assert_eq!(a.len(), 2);
        let popped: Vec<_> = (0..3).map(|_| b.pop().unwrap().1).collect();
        assert_eq!(batch, popped);
        // Draining a cycle with no events is a no-op.
        batch.clear();
        a.pop_at(Cycle(3), &mut batch);
        assert!(batch.is_empty());
        assert_eq!(a.peek_time(), Some(Cycle(4)));
    }

    #[test]
    fn batch_drain_with_mid_batch_schedules_preserves_total_order() {
        // Events scheduled while a same-cycle batch is being processed
        // land *after* the already-queued events of that cycle in both
        // regimes (their seq is higher), so batch + rescheduled batch
        // equals the pop-one-at-a-time order.
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), "a");
        q.schedule(Cycle(5), "b");
        let mut order = Vec::new();
        let mut batch = Vec::new();
        q.pop_at(Cycle(5), &mut batch);
        for e in batch.drain(..) {
            order.push(e);
            if e == "a" {
                // Processing "a" schedules more same-cycle work.
                q.schedule(Cycle(5), "a2");
            }
        }
        q.pop_at(Cycle(5), &mut batch);
        order.append(&mut batch);
        assert_eq!(order, vec!["a", "b", "a2"]);
    }

    #[test]
    fn fifo_ordering_survives_heap_growth() {
        // Push far past the initial capacity so both tiers reallocate:
        // times up to 180 000 cycles put about half the events past the
        // wheel's window, where heap sifts shuffle the backing array and
        // migration later moves them into buckets. FIFO within each
        // cycle must survive both.
        let mut q = EventQueue::with_capacity(4);
        let initial = q.capacity();
        for i in 0..10_000u32 {
            q.schedule(Cycle((i % 7) as u64 * 30_000), i);
        }
        assert!(q.capacity() > initial, "growth must have happened");
        let mut last: Option<(Cycle, u32)> = None;
        while let Some((t, e)) = q.pop() {
            if let Some((lt, le)) = last {
                assert!(t >= lt, "time order violated");
                if t == lt {
                    assert!(e > le, "FIFO violated within cycle {t:?}");
                }
            }
            last = Some((t, e));
        }
    }

    #[test]
    fn capacity_is_reusable_after_drain() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for round in 0..3u64 {
            for i in 0..64u32 {
                q.schedule(Cycle(round), i);
            }
            while q.pop().is_some() {}
            assert!(q.is_empty());
            assert_eq!(q.capacity(), cap, "drain must not shrink capacity");
        }
    }
}
