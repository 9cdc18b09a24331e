//! Trace-driven warps.
//!
//! A warp executes a linear trace of [`WarpOp`]s: compute segments
//! (counted instructions that occupy the SM's issue port) interleaved
//! with warp-wide memory operations (expanded by the coalescer into
//! 128 B requests). Traces are produced by `zng-workloads` to match the
//! paper's Table II / Fig. 5 statistics.

use std::fmt;
use std::sync::Arc;

use zng_types::{
    ids::{AppId, Pc, WarpId},
    AccessKind, Cycle, Error, Result, VirtAddr,
};

use crate::coalesce::Coalescer;

/// The shape of a warp-wide memory access, unpacked from an
/// [`AccessPattern`] for matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternShape {
    /// All 32 threads in one 128 B sector (unit-stride words).
    Sequential,
    /// Threads separated by a fixed byte stride (at most
    /// [`AccessPattern::MAX_STRIDE`]).
    Strided(u16),
    /// Irregular: `n` distinct sectors, each on its own page.
    Scatter(u8),
}

/// The shape of a warp-wide memory access, packed into two bytes: a
/// 2-bit shape tag above a 14-bit payload (the stride in bytes, or the
/// scatter's sector count). Warp traces hold millions of ops, so the
/// packing is what keeps a [`WarpOp`] at 16 bytes. Build one with
/// [`AccessPattern::sequential`], [`AccessPattern::strided`] or
/// [`AccessPattern::scatter`]; read it back with
/// [`AccessPattern::shape`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPattern(u16);

const TAG_SHIFT: u32 = 14;
const PAYLOAD_MASK: u16 = (1 << TAG_SHIFT) - 1;
const TAG_SEQUENTIAL: u16 = 0;
const TAG_STRIDED: u16 = 1;
const TAG_SCATTER: u16 = 2;

impl AccessPattern {
    /// The largest stride, in bytes, that [`AccessPattern::strided`]
    /// accepts: the 14-bit payload's maximum, 16 383 B. Any stride of
    /// 128 B or more already gives each thread its own sector.
    pub const MAX_STRIDE: u32 = PAYLOAD_MASK as u32;

    const fn pack(tag: u16, payload: u16) -> AccessPattern {
        AccessPattern(tag << TAG_SHIFT | payload)
    }

    /// All 32 threads in one 128 B sector.
    pub const fn sequential() -> AccessPattern {
        AccessPattern::pack(TAG_SEQUENTIAL, 0)
    }

    /// Threads `bytes` apart.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `bytes` exceeds
    /// [`AccessPattern::MAX_STRIDE`].
    pub fn strided(bytes: u32) -> Result<AccessPattern> {
        if bytes > AccessPattern::MAX_STRIDE {
            return Err(Error::invalid_config(
                "access pattern stride",
                format!(
                    "{bytes} B exceeds the {} B limit",
                    AccessPattern::MAX_STRIDE
                ),
            ));
        }
        Ok(AccessPattern::pack(TAG_STRIDED, bytes as u16))
    }

    /// `n` distinct sectors, each on its own page (`0` still touches one).
    pub const fn scatter(n: u8) -> AccessPattern {
        AccessPattern::pack(TAG_SCATTER, n as u16)
    }

    /// The unpacked shape.
    #[inline]
    pub const fn shape(self) -> PatternShape {
        let payload = self.0 & PAYLOAD_MASK;
        match self.0 >> TAG_SHIFT {
            TAG_SEQUENTIAL => PatternShape::Sequential,
            TAG_STRIDED => PatternShape::Strided(payload),
            // Only the constructors build patterns, so this is TAG_SCATTER.
            _ => PatternShape::Scatter(payload as u8),
        }
    }

    /// Expands the pattern into coalesced sector base addresses.
    pub fn sectors(self, base: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(4);
        self.sectors_into(base, &mut out);
        out
    }

    /// Allocation-free form of [`AccessPattern::sectors`]: appends the
    /// request bases to `out`. The simulator's event loop calls this once
    /// per warp memory op with a reusable scratch buffer.
    pub fn sectors_into(self, base: u64, out: &mut Vec<u64>) {
        match self.shape() {
            PatternShape::Sequential => out.push(base - base % 128),
            PatternShape::Strided(stride) => Coalescer::strided_into(base, u64::from(stride), out),
            PatternShape::Scatter(n) => Coalescer::scatter_into(base, n.max(1), out),
        }
    }
}

impl fmt::Debug for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.shape().fmt(f)
    }
}

/// One element of a warp trace.
///
/// 16 bytes: the address, a 4-byte PC, the 2-byte pattern and the 1-byte
/// kind, with the variant tag stored in the kind's unused values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// `n` arithmetic instructions (one issue slot each).
    Compute(u32),
    /// A warp-wide load/store.
    Mem {
        /// Base virtual address of the access.
        base: VirtAddr,
        /// Load or store.
        kind: AccessKind,
        /// Thread-address shape for the coalescer.
        pattern: AccessPattern,
        /// PC of the LD/ST instruction (predictor key).
        pc: Pc,
    },
}

const _: () = assert!(std::mem::size_of::<WarpOp>() == 16);

impl WarpOp {
    /// Instructions this op contributes to IPC (a memory op is one
    /// instruction).
    pub fn instructions(&self) -> u64 {
        match self {
            WarpOp::Compute(n) => *n as u64,
            WarpOp::Mem { .. } => 1,
        }
    }
}

/// An immutable warp trace.
///
/// Ops live behind an [`Arc`] so cloning a trace (each simulated warp
/// keeps its own handle) is a refcount bump, not a copy of the op list —
/// at large volumes the op lists dominate the simulator's memory.
/// `Arc<Vec<..>>` rather than `Arc<[..]>` so construction moves the
/// generator's buffer instead of copying it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpTrace {
    ops: Arc<Vec<WarpOp>>,
}

impl WarpTrace {
    /// Wraps a list of ops.
    pub fn new(ops: Vec<WarpOp>) -> WarpTrace {
        WarpTrace { ops: Arc::new(ops) }
    }

    /// The ops in order.
    pub fn ops(&self) -> &[WarpOp] {
        &self.ops
    }

    /// Total instructions in the trace.
    pub fn instructions(&self) -> u64 {
        self.ops.iter().map(WarpOp::instructions).sum()
    }

    /// Number of memory operations.
    pub fn mem_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, WarpOp::Mem { .. }))
            .count()
    }

    /// Fraction of memory ops that are reads (Table II's read ratio).
    pub fn read_ratio(&self) -> f64 {
        let (mut reads, mut total) = (0usize, 0usize);
        for op in self.ops.iter() {
            if let WarpOp::Mem { kind, .. } = op {
                total += 1;
                if kind.is_read() {
                    reads += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            reads as f64 / total as f64
        }
    }
}

impl FromIterator<WarpOp> for WarpTrace {
    fn from_iter<T: IntoIterator<Item = WarpOp>>(iter: T) -> WarpTrace {
        WarpTrace::new(iter.into_iter().collect())
    }
}

/// A warp's execution state.
#[derive(Debug, Clone)]
pub struct Warp {
    id: WarpId,
    app: AppId,
    trace: WarpTrace,
    cursor: usize,
    /// When the warp can next issue.
    pub ready_at: Cycle,
    instructions_done: u64,
}

impl Warp {
    /// Creates a warp over `trace`, ready at time zero.
    pub fn new(id: WarpId, app: AppId, trace: WarpTrace) -> Warp {
        Warp {
            id,
            app,
            trace,
            cursor: 0,
            ready_at: Cycle::ZERO,
            instructions_done: 0,
        }
    }

    /// The warp's id.
    pub fn id(&self) -> WarpId {
        self.id
    }

    /// The owning application.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The next op to execute, if the trace is not exhausted.
    pub fn current_op(&self) -> Option<WarpOp> {
        self.trace.ops().get(self.cursor).copied()
    }

    /// Retires the current op, crediting its instructions.
    ///
    /// # Panics
    ///
    /// Panics if the trace is already exhausted.
    pub fn retire_op(&mut self) {
        let op = self
            .current_op()
            .expect("retire_op called on a finished warp");
        self.instructions_done += op.instructions();
        self.cursor += 1;
    }

    /// Whether the trace is exhausted.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.trace.ops().len()
    }

    /// Instructions retired so far.
    pub fn instructions_done(&self) -> u64 {
        self.instructions_done
    }

    /// Remaining ops.
    pub fn remaining_ops(&self) -> usize {
        self.trace.ops().len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(base: u64, kind: AccessKind) -> WarpOp {
        WarpOp::Mem {
            base: VirtAddr(base),
            kind,
            pattern: AccessPattern::sequential(),
            pc: Pc(0),
        }
    }

    #[test]
    fn trace_statistics() {
        let t = WarpTrace::new(vec![
            WarpOp::Compute(10),
            mem(0, AccessKind::Read),
            mem(128, AccessKind::Read),
            mem(256, AccessKind::Write),
        ]);
        assert_eq!(t.instructions(), 13);
        assert_eq!(t.mem_ops(), 3);
        assert!((t.read_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_ratio_is_zero() {
        let t = WarpTrace::new(vec![WarpOp::Compute(5)]);
        assert_eq!(t.read_ratio(), 0.0);
        assert_eq!(t.mem_ops(), 0);
    }

    #[test]
    fn warp_lifecycle() {
        let t = WarpTrace::new(vec![WarpOp::Compute(3), mem(0, AccessKind::Read)]);
        let mut w = Warp::new(WarpId(1), AppId(0), t);
        assert!(!w.is_done());
        assert_eq!(w.remaining_ops(), 2);
        assert!(matches!(w.current_op(), Some(WarpOp::Compute(3))));
        w.retire_op();
        assert_eq!(w.instructions_done(), 3);
        w.retire_op();
        assert_eq!(w.instructions_done(), 4);
        assert!(w.is_done());
        assert_eq!(w.current_op(), None);
    }

    #[test]
    #[should_panic(expected = "finished warp")]
    fn retire_past_end_panics() {
        let mut w = Warp::new(WarpId(0), AppId(0), WarpTrace::default());
        w.retire_op();
    }

    #[test]
    fn pattern_expansion() {
        let strided = |b| AccessPattern::strided(b).unwrap();
        assert_eq!(AccessPattern::sequential().sectors(130), vec![128]);
        assert_eq!(strided(4).sectors(0).len(), 1);
        assert_eq!(strided(128).sectors(0).len(), 32);
        assert_eq!(AccessPattern::scatter(5).sectors(0).len(), 5);
        // Scatter(0) still touches one sector.
        assert_eq!(AccessPattern::scatter(0).sectors(0).len(), 1);
    }

    #[test]
    fn pattern_debug_reads_as_its_shape() {
        let strided = AccessPattern::strided(128).unwrap();
        assert_eq!(format!("{strided:?}"), "Strided(128)");
        assert_eq!(format!("{:?}", AccessPattern::scatter(2)), "Scatter(2)");
        assert_eq!(format!("{:?}", AccessPattern::sequential()), "Sequential");
    }

    #[test]
    fn trace_from_iterator() {
        let t: WarpTrace = (0..3).map(WarpOp::Compute).collect();
        assert_eq!(t.ops().len(), 3);
        assert_eq!(t.instructions(), 3);
    }
}
