//! The runner's queue of pending warp events: the shared
//! [`EventQueue`] plus, while the fairness gate is on, a phase-slot lane
//! for events exactly one backoff quantum ahead.
//!
//! A warp the fairness gate throttles is re-queued `base` cycles later
//! (`base` = [`QosConfig::backoff_base`](crate::QosConfig)), and on a
//! heavily throttled mix most events are such re-queues that find the
//! gate still closed. The lane keeps them out of the event queue: a ring
//! of `base` FIFO slots, one per residue of the cycle modulo `base`.
//! *Every* event scheduled at `now + base` goes to the
//! lane, throttle or not, so pending lane events all lie in
//! `(now, now + base]` and each slot holds one cycle's events.
//!
//! **Order.** The event queue delivers same-cycle events in schedule
//! order. Each warp has at most one pending event, so the queue records
//! the cycle `s` at which each warp's main-queue event was scheduled.
//! At cycle `c`, lane events were all scheduled at `c − base`, while a
//! main-queue event was scheduled at some `s ≠ c − base` (else it would
//! be in the lane). So the first round at `c` is: main events with
//! `s < c − base`, then the slot's events in FIFO order, then the other
//! main events. Later rounds at `c` hold only zero-delay events, which
//! are never lane events.
//!
//! **Bulk skip.** A throttled warp whose gate is still closed is
//! re-queued into the slot it came from, so a slot holding only such
//! retries comes out of its cycle unchanged: processing it only adds to
//! counters. [`WarpQueue::skip_retries`] counts such slots in bulk; the
//! runner decides when every retry's gate is still closed.

use zng_sim::EventQueue;
use zng_types::Cycle;

/// Marks a lane entry as a throttle retry (the low bits hold the warp
/// index).
const RETRY: u32 = 1 << 31;

/// Pending warp events, in the event queue's `(time, schedule order)`.
#[derive(Debug)]
pub(crate) struct WarpQueue {
    main: EventQueue<usize>,
    /// How far ahead a throttled warp is re-queued.
    backoff: Cycle,
    lane: Option<Lane>,
}

/// The phase-slot lane and the per-warp bookkeeping its order needs.
///
/// Slots are numbered relative to the cursor: `cursor_slot` is the slot
/// of cycle `cursor`, and cycle `cursor + d` (`0 < d ≤ base`) has slot
/// `(cursor_slot + d) mod base`. Keeping that offset saves a division
/// per lookup.
#[derive(Debug)]
struct Lane {
    base: usize,
    /// Each slot's entries for its cycle, FIFO.
    slots: Vec<Vec<u32>>,
    /// One bit per non-empty slot.
    occupied: Vec<u64>,
    /// One bit per slot holding an entry that is not a throttle retry.
    fresh: Vec<u64>,
    /// Entries across all slots.
    len: usize,
    /// The last cycle processed: every lane event lies in
    /// `(cursor, cursor + base]`.
    cursor: u64,
    cursor_slot: usize,
    /// Cycle at which each warp's main-queue event was scheduled.
    sched_at: Vec<u64>,
    /// App id of each warp.
    warp_app: Vec<u16>,
    /// Throttle retries in the lane, per app id.
    retries: Vec<u32>,
}

impl WarpQueue {
    /// A queue for `warp_app.len()` warps (`warp_app[i]` is warp `i`'s app
    /// id) whose throttled warps are re-queued `backoff` cycles later;
    /// `lane` turns on the phase-slot lane for events that far ahead.
    /// `backoff` must be in `1..=`[`MAX_BACKOFF_BASE`](crate::qos::MAX_BACKOFF_BASE).
    pub(crate) fn new(warp_app: Vec<u16>, backoff: Cycle, lane: bool) -> WarpQueue {
        let warps = warp_app.len();
        let lane = lane.then(|| {
            assert!(
                warps < RETRY as usize,
                "{warps} warps: lane entries keep the warp index below the retry bit"
            );
            let base = backoff.raw() as usize;
            let words = base.div_ceil(64);
            let apps = warp_app.iter().max().map_or(0, |&a| a as usize + 1);
            Lane {
                base,
                slots: vec![Vec::new(); base],
                occupied: vec![0; words],
                fresh: vec![0; words],
                len: 0,
                cursor: 0,
                cursor_slot: 0,
                sched_at: vec![0; warps],
                warp_app,
                retries: vec![0; apps],
            }
        });
        WarpQueue {
            // Every warp has at most one pending event, so the queue never
            // outgrows the warp count: pre-sizing it keeps the loop
            // allocation-free.
            main: EventQueue::with_capacity(warps + 1),
            backoff,
            lane,
        }
    }

    /// Schedules warp `idx` for cycle `at`, from cycle `now`, the cycle
    /// being processed.
    pub(crate) fn schedule(&mut self, now: Cycle, at: Cycle, idx: usize) {
        if let Some(lane) = self.lane.as_mut() {
            if at.raw() == now.raw() + lane.base as u64 {
                lane.push(now.raw(), idx as u32);
                return;
            }
            lane.sched_at[idx] = now.raw();
        }
        self.main.schedule(at, idx);
    }

    /// Re-queues warp `idx`, throttled by the fairness gate at `now`, one
    /// backoff quantum later.
    pub(crate) fn retry(&mut self, now: Cycle, idx: usize) {
        match self.lane.as_mut() {
            Some(lane) => {
                lane.retries[lane.warp_app[idx] as usize] += 1;
                lane.push(now.raw(), idx as u32 | RETRY);
            }
            None => self.main.schedule(now + self.backoff, idx),
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.main.len() + self.lane.as_ref().map_or(0, |l| l.len)
    }

    /// The earliest pending event's cycle.
    pub(crate) fn next_time(&self) -> Option<Cycle> {
        let main = self.main.peek_time();
        match self.lane.as_ref().and_then(Lane::next) {
            Some((t, _)) if main.is_none_or(|m| t < m.raw()) => Some(Cycle(t)),
            _ => main,
        }
    }

    /// Drains the next round of events at `now`, the earliest pending
    /// cycle, into `out` in delivery order.
    pub(crate) fn pop_round(&mut self, now: Cycle, out: &mut Vec<usize>) {
        let start = out.len();
        self.main.pop_at(now, out);
        let Some(lane) = self.lane.as_mut() else {
            return;
        };
        match lane.next() {
            Some((t, slot)) if t == now.raw() => {
                // Main events scheduled before `now - base` come first;
                // the main batch is in schedule order, so they are a
                // prefix.
                let base = lane.base as u64;
                let split = start + out[start..].partition_point(|&i| lane.sched_at[i] + base < t);
                let mid = out.len();
                lane.drain(slot, out);
                out[split..].rotate_left(mid - split);
                lane.cursor = t;
                lane.cursor_slot = slot;
            }
            _ => lane.advance(now.raw()),
        }
    }

    /// Whether the round at `now`, the earliest pending cycle, would be
    /// one lane slot holding nothing but throttle retries, with main
    /// events still pending later.
    pub(crate) fn only_retries_at(&self, now: Cycle) -> bool {
        let Some(lane) = self.lane.as_ref() else {
            return false;
        };
        self.main.peek_time().is_some_and(|m| m > now)
            && lane.next().is_some_and(|(t, slot)| {
                t == now.raw() && lane.fresh[slot / 64] & (1 << (slot % 64)) == 0
            })
    }

    /// Whether `closed` holds for every app with throttle retries in the
    /// lane.
    pub(crate) fn all_retry_apps(&self, mut closed: impl FnMut(u16) -> bool) -> bool {
        self.lane.as_ref().is_none_or(|l| {
            (0u16..)
                .zip(&l.retries)
                .all(|(app, &n)| n == 0 || closed(app))
        })
    }

    /// Passes over the lane rounds from the earliest pending cycle up to
    /// (not including) the first of: the next main event, the first lane
    /// slot holding an entry that is not a throttle retry, and `horizon`.
    /// The caller vouches that every retry's gate stays closed over that
    /// span, so each retry is re-queued into the slot it left, in the
    /// same order, once per `base` cycles. Returns the events passed
    /// over.
    pub(crate) fn skip_retries(&mut self, horizon: Cycle) -> u64 {
        let (Some(lane), Some(main_next)) = (self.lane.as_mut(), self.main.peek_time()) else {
            return 0;
        };
        let Some((first, _)) = lane.next() else {
            return 0;
        };
        let mut end = main_next.raw().min(horizon.raw());
        if let Some(d) = lane.first_set(&lane.fresh) {
            end = end.min(lane.cursor + d as u64);
        }
        if end <= first {
            return 0;
        }
        // Every retry recurs once per `base` cycles: whole periods count
        // each entry once, the remainder counts the slots it covers.
        let span = end - 1 - lane.cursor;
        let base = lane.base as u64;
        let (periods, rest) = (span / base, (span % base) as usize);
        let mut events = periods * lane.len as u64;
        lane.for_each_occupied(rest, |slot| events += lane.slots[slot].len() as u64);
        lane.advance(end - 1);
        events
    }
}

impl Lane {
    /// The slot `d` cycles after the cursor (`d < 2 * base`).
    fn slot_after(&self, d: usize) -> usize {
        let s = self.cursor_slot + d;
        if s >= self.base {
            s - self.base
        } else {
            s
        }
    }

    /// Moves the cursor to `to`, no later than the next lane event.
    fn advance(&mut self, to: u64) {
        let d = to - self.cursor;
        let d = if d < self.base as u64 {
            d as usize
        } else {
            (d % self.base as u64) as usize
        };
        self.cursor_slot = self.slot_after(d);
        self.cursor = to;
    }

    /// Appends an entry for cycle `now + base`, from `now`, the cycle
    /// being processed: its slot is the cursor's.
    fn push(&mut self, now: u64, entry: u32) {
        debug_assert_eq!(now, self.cursor, "lane events come from the current cycle");
        let slot = self.cursor_slot;
        self.slots[slot].push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        if entry & RETRY == 0 {
            self.fresh[slot / 64] |= 1 << (slot % 64);
        }
        self.len += 1;
    }

    /// Moves every entry of `slot` to `out`.
    fn drain(&mut self, slot: usize, out: &mut Vec<usize>) {
        self.len -= self.slots[slot].len();
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.fresh[slot / 64] &= !(1 << (slot % 64));
        for entry in self.slots[slot].drain(..) {
            let idx = (entry & !RETRY) as usize;
            if entry & RETRY != 0 {
                self.retries[self.warp_app[idx] as usize] -= 1;
            }
            out.push(idx);
        }
    }

    /// The cycle and slot of the first non-empty slot after the cursor.
    fn next(&self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        let d = self.first_set(&self.occupied)?;
        Some((self.cursor + d as u64, self.slot_after(d)))
    }

    /// How many cycles after the cursor (1..=base) the first slot with
    /// its bit set in `bits` comes.
    fn first_set(&self, bits: &[u64]) -> Option<usize> {
        let start = self.slot_after(1);
        let (w0, b0) = (start / 64, start % 64);
        let here = bits[w0] & (!0u64 << b0);
        let slot = if here != 0 {
            w0 * 64 + here.trailing_zeros() as usize
        } else {
            // Wrap around the ring: the following words, ending with the
            // low bits of the starting word.
            let words = bits.len();
            (w0 + 1..words)
                .chain(0..=w0)
                .find(|&w| bits[w] != 0)
                .map(|w| w * 64 + bits[w].trailing_zeros() as usize)?
        };
        Some(if slot >= start {
            slot - start + 1
        } else {
            slot + self.base - start + 1
        })
    }

    /// Calls `f` for each non-empty slot among the `count` (< base) slots
    /// after the cursor.
    fn for_each_occupied(&self, count: usize, mut f: impl FnMut(usize)) {
        let start = self.slot_after(1);
        let end = start + count;
        let mut visit = |from: usize, to: usize| {
            for w in from / 64..to.div_ceil(64) {
                let lo = if w == from / 64 { from % 64 } else { 0 };
                let hi = if w == to / 64 { to % 64 } else { 64 };
                let mask = (!0u64 << lo) & if hi == 64 { !0 } else { (1u64 << hi) - 1 };
                let mut word = self.occupied[w] & mask;
                while word != 0 {
                    f(w * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                }
            }
        };
        if end <= self.base {
            visit(start, end);
        } else {
            visit(start, self.base);
            visit(0, end - self.base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stream for the random schedules.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    proptest::proptest! {
        /// A random schedule re-queues every popped warp: zero-delay,
        /// exactly one quantum ahead (fresh or as a throttle retry), one
        /// cycle either side of that, anywhere within three quanta, or
        /// beyond the event queue's wheel. Round by round, the queue
        /// delivers exactly what a plain `EventQueue` fed the same
        /// schedule delivers. Now and then a round of pure retries is
        /// passed over with `skip_retries` up to a random horizon; the
        /// plain queue then processes those rounds one by one, re-queuing
        /// each retry a quantum later, and every one it processes must be
        /// a retry round before the horizon, with the same event count.
        #[test]
        fn lane_delivers_in_event_queue_order(
            base in 1u64..200,
            warps in 1usize..48,
            seed in 1u64..u64::MAX,
            rounds in 50usize..1_500,
        ) {
            let mut rng = Rng(seed);
            let apps = (0..warps).map(|i| (i % 3) as u16).collect();
            let mut lane = WarpQueue::new(apps, Cycle(base), true);
            let mut plain: EventQueue<usize> = EventQueue::new();
            let mut retry = vec![false; warps];
            for i in 0..warps {
                let at = Cycle(rng.below(3));
                lane.schedule(Cycle::ZERO, at, i);
                plain.schedule(at, i);
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for round in 0.. {
                let Some(now) = lane.next_time() else { break };
                proptest::prop_assert_eq!(Some(now), plain.peek_time());
                proptest::prop_assert_eq!(lane.len(), plain.len());
                if lane.only_retries_at(now) && rng.below(3) == 0 {
                    let horizon = Cycle(now.raw() + 1 + rng.below(4 * base));
                    let mut left = lane.skip_retries(horizon);
                    proptest::prop_assert!(left > 0);
                    while left > 0 {
                        let t = plain.peek_time().expect("skipped events are pending");
                        proptest::prop_assert!(t < horizon);
                        want.clear();
                        plain.pop_at(t, &mut want);
                        left = left.checked_sub(want.len() as u64).expect("no overshoot");
                        for &i in &want {
                            proptest::prop_assert!(retry[i], "skipped a fresh event");
                            plain.schedule(t + Cycle(base), i);
                        }
                    }
                    continue;
                }
                got.clear();
                want.clear();
                lane.pop_round(now, &mut got);
                plain.pop_at(now, &mut want);
                proptest::prop_assert_eq!(&got, &want);
                if round > rounds {
                    // Drain without re-scheduling.
                    continue;
                }
                for &i in &got {
                    retry[i] = false;
                    let at = match rng.below(12) {
                        0 => now,
                        1..=3 => now + Cycle(base),
                        4..=7 => {
                            retry[i] = true;
                            lane.retry(now, i);
                            plain.schedule(now + Cycle(base), i);
                            continue;
                        }
                        8 => Cycle(now.raw() + base - 1),
                        9 => now + Cycle(base + 1),
                        10 => now + Cycle(1 + rng.below(3 * base)),
                        _ => now + Cycle(70_000 + rng.below(base)),
                    };
                    lane.schedule(now, at, i);
                    plain.schedule(at, i);
                }
            }
            proptest::prop_assert!(plain.is_empty());
        }
    }

    #[test]
    fn retry_without_a_lane_uses_the_event_queue() {
        let mut q = WarpQueue::new(vec![0, 1], Cycle(64), false);
        q.schedule(Cycle::ZERO, Cycle::ZERO, 0);
        q.schedule(Cycle::ZERO, Cycle::ZERO, 1);
        let mut batch = Vec::new();
        q.pop_round(Cycle::ZERO, &mut batch);
        assert_eq!(batch, vec![0, 1]);
        q.retry(Cycle::ZERO, 1);
        q.schedule(Cycle::ZERO, Cycle(64), 0);
        assert!(!q.only_retries_at(Cycle(64)));
        assert_eq!(q.skip_retries(Cycle(u64::MAX)), 0);
        batch.clear();
        q.pop_round(Cycle(64), &mut batch);
        assert_eq!(batch, vec![1, 0]);
    }
}
