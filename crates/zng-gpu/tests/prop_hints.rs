//! Host prefetch hints change nothing the model computes: a cache that
//! is hinted at random addresses between its operations returns the same
//! value from every operation, and ends with the same counts and
//! occupancy, as an unhinted twin. A warp, which carries its next op and
//! hints the trace one host line ahead, steps through a trace of any
//! length op by op.

use proptest::prelude::*;
use zng_gpu::{
    AccessPattern, CacheGeometry, GpuConfig, L2Cache, SetAssocCache, Warp, WarpOp, WarpTrace,
};
use zng_types::{
    ids::{AppId, Pc, WarpId},
    AccessKind, Cycle, VirtAddr,
};

const LINE: u64 = 128;
/// Four times the tiny L2's 128 lines, so fills evict and sets fill up
/// with pinned ways.
const LINES: u64 = 512;

/// One step: `(op, line, flag, hint)`. A `hint` below [`LINES`] is a
/// line hinted before the op; about half the steps draw none.
fn steps() -> impl Strategy<Value = Vec<(u8, u64, bool, u64)>> {
    prop::collection::vec(
        (0u8..12, 0u64..LINES, any::<bool>(), 0u64..2 * LINES),
        1..400,
    )
}

fn occupancy(c: &L2Cache) -> usize {
    (0..LINES).filter(|&l| c.probe(l * LINE)).count()
}

proptest! {
    #[test]
    fn hints_leave_a_set_assoc_cache_unchanged(steps in steps()) {
        let geo = CacheGeometry { sets: 8, ways: 4, line_bytes: 128 };
        let (mut plain, mut hinted) = (SetAssocCache::new(geo), SetAssocCache::new(geo));
        for (op, line, flag, hint) in steps {
            if hint < LINES {
                hinted.prefetch(hint * LINE);
            }
            let addr = line * LINE;
            let app = AppId(line as u16 % 3);
            match op {
                0..=3 => prop_assert_eq!(plain.fill(addr, flag, app), hinted.fill(addr, flag, app)),
                4..=6 => prop_assert_eq!(plain.lookup(addr, flag), hinted.lookup(addr, flag)),
                7..=8 => prop_assert_eq!(plain.pin_dirty(addr), hinted.pin_dirty(addr)),
                9 => {
                    let max = line as usize % 4;
                    prop_assert_eq!(plain.unpin_some(max), hinted.unpin_some(max));
                }
                _ => prop_assert_eq!(plain.invalidate(addr), hinted.invalidate(addr)),
            }
            prop_assert_eq!(plain.hits(), hinted.hits());
            prop_assert_eq!(plain.misses(), hinted.misses());
            prop_assert_eq!(plain.occupancy(), hinted.occupancy());
            prop_assert_eq!(plain.pinned(), hinted.pinned());
        }
    }

    #[test]
    fn hints_leave_an_l2_unchanged(steps in steps()) {
        let cfg = GpuConfig::tiny();
        let (mut plain, mut hinted) = (L2Cache::new(&cfg), L2Cache::new(&cfg));
        for (i, (op, line, flag, hint)) in steps.into_iter().enumerate() {
            if hint < LINES {
                hinted.prefetch(hint * LINE);
            }
            let (now, addr) = (Cycle(i as u64), line * LINE);
            let app = AppId(line as u16 % 3);
            match op {
                0..=2 => prop_assert_eq!(
                    plain.fill_line(now, addr, flag, app),
                    hinted.fill_line(now, addr, flag, app)
                ),
                3 => {
                    // Up to a 4 KiB page of lines from a page base.
                    let (base, bytes) = (addr & !4095, 128 << (line % 6));
                    let (mut plain_evicted, mut hinted_evicted) = (Vec::new(), Vec::new());
                    prop_assert_eq!(
                        plain.fill_span(now, base, bytes, flag, app, |e| plain_evicted.push(e)),
                        hinted.fill_span(now, base, bytes, flag, app, |e| hinted_evicted.push(e))
                    );
                    prop_assert_eq!(plain_evicted, hinted_evicted);
                }
                4..=6 => prop_assert_eq!(
                    plain.access(now, addr, flag),
                    hinted.access(now, addr, flag)
                ),
                7..=8 => prop_assert_eq!(plain.pin_dirty(addr), hinted.pin_dirty(addr)),
                9 => {
                    let max = line as usize % 4;
                    prop_assert_eq!(plain.unpin_up_to(max), hinted.unpin_up_to(max));
                }
                _ => prop_assert_eq!(plain.invalidate(addr), hinted.invalidate(addr)),
            }
            prop_assert_eq!(plain.hits(), hinted.hits());
            prop_assert_eq!(plain.misses(), hinted.misses());
            prop_assert_eq!(plain.fills(), hinted.fills());
            prop_assert_eq!(plain.prefetch_fills(), hinted.prefetch_fills());
            prop_assert_eq!(occupancy(&plain), occupancy(&hinted));
            prop_assert_eq!(plain.pinned(), hinted.pinned());
        }
    }
}

/// A warp op from a `(kind, n, line, read)` draw: a compute segment of
/// `n` instructions for kind 0, else a memory op of any shape.
fn warp_op((kind, n, line, read): (u8, u32, u64, bool)) -> WarpOp {
    if kind == 0 {
        return WarpOp::Compute(n);
    }
    WarpOp::Mem {
        base: VirtAddr(line * LINE),
        kind: if read {
            AccessKind::Read
        } else {
            AccessKind::Write
        },
        pattern: match n % 3 {
            0 => AccessPattern::sequential(),
            1 => AccessPattern::strided(n % 300).unwrap(),
            _ => AccessPattern::scatter(n as u8),
        },
        pc: Pc(n),
    }
}

proptest! {
    /// Every prefix of a random trace (length 0 included; shorter than,
    /// equal to, one past and far longer than the warp's one-host-line
    /// lookahead of four 16 B ops) steps through its ops in order: at
    /// every step the warp reports the op, whether it is done and the
    /// instructions retired so far, and it ends done with the trace's
    /// instruction count.
    #[test]
    fn traces_retire_to_the_end_with_the_lookahead(
        draws in prop::collection::vec((0u8..2, 0u32..1000, 0u64..1 << 20, any::<bool>()), 0..72),
    ) {
        let ops: Vec<WarpOp> = draws.into_iter().map(warp_op).collect();
        for len in 0..=ops.len() {
            let trace = WarpTrace::new(ops[..len].to_vec());
            let mut w = Warp::new(WarpId(0), AppId(0), &trace);
            let mut retired = 0;
            for op in &ops[..len] {
                prop_assert!(!w.is_done(), "length {}", len);
                prop_assert_eq!(w.current_op(), Some(*op), "length {}", len);
                prop_assert_eq!(w.instructions_done(), retired, "length {}", len);
                w.retire_op();
                retired += op.instructions();
            }
            prop_assert!(w.is_done(), "length {}", len);
            prop_assert_eq!(w.current_op(), None, "length {}", len);
            prop_assert_eq!(w.instructions_done(), trace.instructions(), "length {}", len);
        }
    }
}
