//! Host time that does not move with the machine's load.
//!
//! On a shared machine the simulator's speed drifts with other guests'
//! load, by up to 2.5× within minutes, and the drift reaches CPU time as
//! well as wall time: it slows the core and its caches, not only the
//! thread's share of them. [`Calibration`] is a fixed piece of host
//! work that slows with the machine. A timed run's CPU times are
//! multiplied by [`scale`]: [`CALIBRATION_S`] over the CPU time `c` of
//! the calibrations run between its repetitions, raised to
//! [`LOAD_ELASTICITY`]. That keeps the simulator's own cost, drops most
//! of the machine's drift, and reads in seconds.
//!
//! Work shaped otherwise tracked the simulator no better. Over 231
//! alternations per workload of one fixed mix with candidate pieces
//! (a `BTreeMap`, a `HashMap`, pointer chasing through 16 MiB, a
//! bytecode interpreter, an event-queue heap, string formatting, and
//! this calibration's four parts), the standard deviation of
//! log(simulator time / candidate time), averaged over the workloads,
//! was 0.12–0.17 for each piece alone and at least 0.103 for any sum of
//! two or three, against 0.106 for this calibration and 0.16 for the
//! simulator's time unscaled.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// About the CPU seconds the calibration takes on the machine
/// `BASELINE.md` names when that machine is quiet (medians of ten runs:
/// 0.099–0.106 s). A scaled time reads as the seconds the work would
/// take there.
pub const CALIBRATION_S: f64 = 0.10;

/// How much more steeply the simulator's CPU time moves with the
/// machine's load than the calibration's does: the slope of
/// log(simulator time) on log(calibration time). Fitted over 30 runs of
/// each workload on the machine `BASELINE.md` names, it was 1.10–1.43
/// by workload, and 1.01–1.34 over 20 later ones. Over the nine sets of
/// runs `BASELINE.md` records, the interquartile range of `run_s` was
/// above a third of its bound for 6 of 45 workload sets with 1.2,
/// against 12 with 1.0.
pub const LOAD_ELASTICITY: f64 = 1.2;

/// The factor that turns a run's CPU times into seconds on the quiet
/// baseline machine, given the CPU time `c` its calibrations took.
pub fn scale(c: f64) -> f64 {
    (CALIBRATION_S / c).powf(LOAD_ELASTICITY)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has used, user and system, in seconds. Unlike
/// wall time it leaves out time the thread waited for a CPU, in this
/// guest or (with steal-time accounting, as on KVM) in the host.
pub fn thread_cpu_s() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec`, and the clock
    // id is one Linux defines, so the call writes only `t`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Tables of 256 KiB, 4 MiB and 64 MiB, each with the steps that take
/// it about as long as the sort: the simulator's data lives at every
/// level of the cache hierarchy, and each level slows differently.
const TABLES: [(usize, u64); 3] = [(1 << 15, 800_000), (1 << 19, 400_000), (1 << 23, 320_000)];
/// Words the sort pass allocates and sorts (8 MiB).
const SORT_WORDS: usize = 1 << 20;
/// Pending entries in the heap, an event queue's size.
const HEAP_LEN: usize = 1024;

/// A fixed piece of host work shaped like the simulator's: random
/// updates of tables at each cache level feeding a binary heap, and an
/// allocate-and-sort pass. It calls no simulator code, so its time moves
/// with the machine and never with a change to the simulator.
pub struct Calibration {
    tables: Vec<Vec<u64>>,
}

impl Calibration {
    /// Allocates and touches the tables (68 MiB), outside any timing.
    pub fn new() -> Calibration {
        Calibration {
            tables: TABLES
                .iter()
                .map(|&(words, _)| (0..words as u64).collect())
                .collect(),
        }
    }

    /// Runs the work once and returns its CPU time in seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = thread_cpu_s();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap = BinaryHeap::with_capacity(HEAP_LEN + 1);
        for (table, &(words, steps)) in self.tables.iter_mut().zip(&TABLES) {
            for step in 0..steps {
                let slot = &mut table[next() as usize & (words - 1)];
                *slot = slot.wrapping_mul(31).wrapping_add(step);
                heap.push(Reverse(*slot >> 20));
                if heap.len() > HEAP_LEN {
                    heap.pop();
                }
            }
        }
        let mut words: Vec<u64> = (0..SORT_WORDS).map(|_| next()).collect();
        words.sort_unstable();
        black_box((&heap, &words));
        thread_cpu_s() - t0
    }
}
