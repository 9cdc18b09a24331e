//! Model-equivalence lane for `EventQueue`: after every step of an
//! arbitrary interleaving of `schedule`, `pop`, `pop_at`, `peek`,
//! `peek_time` and `len`, the queue must agree with a reference binary
//! heap ordered by `(time, schedule sequence)`.
//!
//! Schedule times are drawn relative to the last popped time, in
//! classes that reach every path of the two-tier queue: same-cycle
//! bursts, near deltas inside one wheel bucket and across buckets, the
//! window edge (65 535 / 65 536 / 65 537 cycles and their bucket
//! neighbours), far-future deltas of 2^20 cycles and more, and times
//! before the last pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::Rng;
use zng_sim::rng::seeded;
use zng_sim::EventQueue;
use zng_types::Cycle;

/// The reference: the queue's specified total order, spelled out. The
/// event payload is its schedule sequence number.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<(Reverse<u64>, Reverse<u64>)>,
    seq: u64,
}

impl Model {
    fn schedule(&mut self, at: u64) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push((Reverse(at), Reverse(seq)));
        seq
    }

    fn peek(&self) -> Option<(Cycle, u64)> {
        self.heap
            .peek()
            .map(|&(Reverse(at), Reverse(seq))| (Cycle(at), seq))
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        self.heap
            .pop()
            .map(|(Reverse(at), Reverse(seq))| (Cycle(at), seq))
    }

    fn pop_at(&mut self, at: Cycle, out: &mut Vec<u64>) {
        while self.peek().is_some_and(|(t, _)| t == at) {
            out.extend(self.pop().map(|(_, seq)| seq));
        }
    }
}

/// Both queues plus the simulated clock (the last popped time).
#[derive(Default)]
struct Lane {
    q: EventQueue<u64>,
    model: Model,
    now: u64,
}

impl Lane {
    fn schedule(&mut self, at: u64) {
        let seq = self.model.schedule(at);
        self.q.schedule(Cycle(at), seq);
    }

    /// A schedule time of class `kind` relative to the clock.
    fn time(&self, kind: u8, raw: u64) -> u64 {
        match kind % 8 {
            0 => self.now,
            1 => self.now + raw % 16,
            2 => self.now + raw % 4096,
            3 => self.now + 65_535 + raw % 3,
            4 => self.now + 65_520 + raw % 48,
            5 => self.now + (1 << 20) + raw % (1 << 22),
            6 => self.now.saturating_sub(1 + raw % 70_000),
            _ => self.now + raw % 200_000,
        }
    }

    /// Runs one operation and checks the queue against the model.
    fn step(&mut self, op: u8, kind: u8, raw: u64) -> Result<(), TestCaseError> {
        match op % 10 {
            0..=2 => {
                let at = self.time(kind, raw);
                self.schedule(at);
            }
            3 => {
                // A same-cycle burst.
                let at = self.time(kind, raw);
                for _ in 0..1 + raw % 6 {
                    self.schedule(at);
                }
            }
            4 | 5 => {
                let got = self.q.pop();
                prop_assert_eq!(got, self.model.pop());
                if let Some((t, _)) = got {
                    self.now = t.raw();
                }
            }
            6 | 7 => {
                // Drain the front cycle, as the runner does.
                if let Some(t) = self.model.peek().map(|(t, _)| t) {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    self.q.pop_at(t, &mut got);
                    self.model.pop_at(t, &mut want);
                    prop_assert_eq!(got, want);
                    self.now = t.raw();
                }
            }
            8 => {
                // pop_at a time that is probably not the front: it must
                // drain exactly what the model drains (usually nothing).
                let t = Cycle(self.time(kind, raw));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                self.q.pop_at(t, &mut got);
                self.model.pop_at(t, &mut want);
                prop_assert_eq!(got, want);
            }
            _ => {
                prop_assert_eq!(self.q.peek().map(|(t, &e)| (t, e)), self.model.peek());
            }
        }
        prop_assert_eq!(self.q.len(), self.model.heap.len());
        prop_assert_eq!(self.q.is_empty(), self.model.heap.is_empty());
        prop_assert_eq!(self.q.peek_time(), self.model.peek().map(|(t, _)| t));
        Ok(())
    }

    /// Empties both queues through `pop`, checking every event.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while !self.model.heap.is_empty() {
            self.step(4, 0, 0)?;
        }
        prop_assert_eq!(self.q.pop(), None);
        Ok(())
    }
}

proptest! {
    /// Arbitrary interleavings agree with the reference step by step.
    #[test]
    fn event_queue_matches_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u8..8, 0u64..1 << 30), 1..600),
    ) {
        let mut lane = Lane::default();
        for &(op, kind, raw) in &ops {
            lane.step(op, kind, raw)?;
        }
        lane.drain()?;
    }

    /// The same, with the clock starting far from zero so the window's
    /// position in the bucket table wraps around.
    #[test]
    fn event_queue_matches_reference_heap_at_late_start(
        start in 0u64..1 << 40,
        ops in prop::collection::vec((0u8..10, 0u8..8, 0u64..1 << 30), 1..600),
    ) {
        let mut lane = Lane::default();
        lane.schedule(start);
        lane.step(4, 0, 0)?;
        for &(op, kind, raw) in &ops {
            lane.step(op, kind, raw)?;
        }
        lane.drain()?;
    }
}

/// A long steady-state run shaped like the simulator's event loop: 1 024
/// pending events, each step drains the front cycle and reschedules
/// every drained event at a delta from a fixed mix, so the window slides
/// hundreds of times and the far tier migrates continually.
#[test]
fn hold_model_matches_reference_heap() {
    let mut rng = seeded(13);
    let mut lane = Lane::default();
    for _ in 0..1024 {
        lane.schedule(0);
    }
    let mut batch = Vec::new();
    for _ in 0..40_000 {
        let t = lane.q.peek_time().expect("hold model never empties");
        assert_eq!(Some(t), lane.model.peek().map(|(t, _)| t));
        let mut want = Vec::new();
        batch.clear();
        lane.q.pop_at(t, &mut batch);
        lane.model.pop_at(t, &mut want);
        assert_eq!(batch, want, "batch at {t:?}");
        lane.now = t.raw();
        for _ in 0..batch.len() {
            let kind = match rng.gen_range(0..100) {
                0..=59 => 2,
                60..=89 => 7,
                90..=95 => 3,
                96..=98 => 5,
                _ => 0,
            };
            let at = lane.time(kind, rng.gen());
            lane.schedule(at);
        }
        assert_eq!(lane.q.len(), lane.model.heap.len());
    }
}
