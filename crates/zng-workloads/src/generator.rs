//! Synthetic trace generation parameterised by Table II.
//!
//! Each workload class maps to a generator:
//!
//! * **Graph** (GraphBIG) — per-warp sequential CSR-style scans (strong
//!   spatial locality the prefetcher can exploit) mixed with Zipf-reused
//!   scatter lookups (the page re-access of Fig. 5b), plus rare writes to
//!   a hot property region.
//! * **Scientific** (Rodinia/PolyBench) — strided array sweeps whose
//!   write phase repeatedly rewrites a small output region across kernel
//!   iterations (the write redundancy of Fig. 5c).
//!
//! All randomness comes from the per-run seed; the same
//! `(spec, app, params)` triple always yields the same traces.

use rand::Rng;
use zng_gpu::{AccessPattern, WarpOp, WarpTrace};
use zng_sim::rng::{derive_seed, seeded, Zipf};
use zng_types::{
    ids::{AppId, Pc},
    AccessKind, VirtAddr,
};

use crate::table2::{Class, WorkloadSpec};

/// Trace-synthesis knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Warps generated for the application (spread over SMs by the
    /// platform).
    pub total_warps: usize,
    /// Memory operations per warp.
    pub mem_ops_per_warp: usize,
    /// Footprint in 4 KB pages.
    pub footprint_pages: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for TraceParams {
    fn default() -> TraceParams {
        TraceParams {
            total_warps: 256,
            mem_ops_per_warp: 1300,
            footprint_pages: 4096,
            seed: 42,
        }
    }
}

impl TraceParams {
    /// A lighter configuration for unit tests.
    pub fn tiny() -> TraceParams {
        TraceParams {
            total_warps: 8,
            mem_ops_per_warp: 24,
            footprint_pages: 64,
            seed: 7,
        }
    }
}

/// Address-space base for an application (disjoint 16 GB windows).
pub fn app_base(app: AppId) -> u64 {
    (app.index() as u64) << 34
}

/// Generates one trace per warp for `spec` under `params`.
///
/// # Panics
///
/// Panics if `params` has zero warps, ops or footprint.
pub fn generate(spec: &WorkloadSpec, app: AppId, params: &TraceParams) -> Vec<WarpTrace> {
    assert!(
        params.total_warps > 0 && params.mem_ops_per_warp > 0 && params.footprint_pages > 0,
        "trace parameters must be non-zero"
    );
    // The Zipf CDF tables depend only on the footprint, not the warp:
    // build them once here instead of once per warp (their construction
    // is O(footprint) with a `powf` per entry, which dominated trace
    // generation at large warp counts).
    let zipfs = match spec.class {
        Class::Graph => Some(GraphZipfs::new(params)),
        Class::Scientific => None,
    };
    (0..params.total_warps)
        .map(|w| {
            let seed = derive_seed(params.seed, (app.index() as u64) << 32 | w as u64);
            match spec.class {
                Class::Graph => graph_warp(spec, app, w, params, seed, zipfs.as_ref().unwrap()),
                Class::Scientific => scientific_warp(spec, app, w, params, seed),
            }
        })
        .collect()
}

/// Warp-independent Zipf samplers for the graph generator.
struct GraphZipfs {
    scatter: Zipf,
    write: Zipf,
}

impl GraphZipfs {
    fn new(params: &TraceParams) -> GraphZipfs {
        let fp = params.footprint_pages as u64;
        let write_pages = (fp / 16).max(1);
        GraphZipfs {
            scatter: Zipf::new(fp as usize, 0.85),
            write: Zipf::new(write_pages as usize, 1.1),
        }
    }
}

/// PCs are small and shared across warps so the PC-indexed predictor can
/// learn per-instruction behaviour; one PC group per kernel.
fn pcs_for_kernel(kernel: u32) -> (Pc, Pc, Pc) {
    let base = 0x1000 + (kernel % 8) * 0x40;
    (Pc(base), Pc(base + 8), Pc(base + 16))
}

/// Table II's read ratio is a fraction of coalesced *requests*. A read op
/// expands to `sectors_per_read` requests on average while a write op is
/// one request, so the op-level read probability must be deflated:
/// solving `r = p*E / (p*E + (1-p))` for `p`.
fn op_read_probability(request_read_ratio: f64, sectors_per_read: f64) -> f64 {
    let r = request_read_ratio.clamp(0.0, 1.0);
    if r >= 1.0 {
        return 1.0;
    }
    (r / (sectors_per_read * (1.0 - r) + r)).clamp(0.0, 1.0)
}

fn graph_warp(
    spec: &WorkloadSpec,
    app: AppId,
    warp: usize,
    params: &TraceParams,
    seed: u64,
    zipfs: &GraphZipfs,
) -> WarpTrace {
    let mut rng = seeded(seed);
    let base = app_base(app);
    let fp = params.footprint_pages as u64;
    // First half: CSR/frontier arrays (scanned); whole range: vertex data
    // (scattered); property writes go to pages *spread across the whole
    // footprint* (property arrays interleave with graph structure), so
    // writes touch many data-block groups.
    let scan_pages = (fp / 2).max(1);
    // Graph property updates concentrate on a small hot set (active
    // frontier): the flash registers absorb it almost entirely, so a
    // read-intensive graph app causes no GC — as in the paper.
    let write_pages = (fp / 16).max(1);
    let write_stride = (fp / write_pages).max(1);
    let scatter_zipf = &zipfs.scatter;
    let write_zipf = &zipfs.write;
    // Reads average 0.8*1 + 0.2*2 = 1.2 sectors per op.
    let p_read = op_read_probability(spec.read_ratio, 1.2);

    // Each warp scans its own slice of the CSR region.
    let mut cursor = base + (warp as u64 * scan_pages / params.total_warps as u64) * 4096;
    let mut ops = Vec::with_capacity(params.mem_ops_per_warp * 2);
    // Real kernels run long enough for the PC-indexed predictor to warm;
    // keep at least 64 ops per kernel's PC group so short synthetic
    // traces do the same.
    let ops_per_kernel = (params.mem_ops_per_warp as u32 / spec.kernels.max(1)).max(64);

    for i in 0..params.mem_ops_per_warp {
        let kernel = i as u32 / ops_per_kernel;
        let (pc_seq, pc_scatter, pc_write) = pcs_for_kernel(kernel);
        ops.push(WarpOp::Compute(rng.gen_range(4..16)));
        let is_read = rng.gen_bool(p_read);
        if is_read {
            if rng.gen_bool(0.8) {
                // Sequential scan: next 128 B sector of the warp's slice.
                ops.push(WarpOp::Mem {
                    base: VirtAddr(cursor),
                    kind: AccessKind::Read,
                    pattern: AccessPattern::sequential(),
                    pc: pc_seq,
                });
                cursor += 128;
                // Wrap within the scan region.
                if cursor >= base + scan_pages * 4096 {
                    cursor = base;
                }
            } else {
                // Irregular neighbour lookup: Zipf-hot page. Vertex data
                // reuses a few hot *sectors* of each page (a vertex's
                // record), which is what gives graph workloads the page
                // re-access of Fig. 5b. The rank→page permutation keeps
                // hot vertices scattered over the address space (and thus
                // over flash planes), as in a real graph layout.
                let page = (scatter_zipf.sample(&mut rng) as u64 * 769) % fp;
                let sector = (page * 7 + rng.gen_range(0..2u64)) % 32;
                ops.push(WarpOp::Mem {
                    base: VirtAddr(base + page * 4096 + sector * 128),
                    kind: AccessKind::Read,
                    pattern: AccessPattern::scatter(2),
                    pc: pc_scatter,
                });
            }
        } else {
            // Property update: hot pages strided across the footprint.
            // A fixed sector per page lets repeat updates merge in the
            // same flash register.
            let slot = write_zipf.sample(&mut rng) as u64;
            let page = (slot * write_stride).min(fp - 1);
            let sector = (page * 5) % 32;
            ops.push(WarpOp::Mem {
                base: VirtAddr(base + page * 4096 + sector * 128),
                kind: AccessKind::Write,
                pattern: AccessPattern::sequential(),
                pc: pc_write,
            });
        }
    }
    WarpTrace::new(ops)
}

fn scientific_warp(
    spec: &WorkloadSpec,
    app: AppId,
    warp: usize,
    params: &TraceParams,
    seed: u64,
) -> WarpTrace {
    let mut rng = seeded(seed);
    let base = app_base(app);
    let fp = params.footprint_pages as u64;
    // Output arrays are a small fraction of the footprint (weight deltas,
    // pivot rows): a hot region the flash registers can mostly hold.
    let input_pages = (fp * 7 / 8).max(1);
    let output_pages = (fp - input_pages).max(1);

    // Warp sweeps its slice of the input; output is shared and rewritten
    // every kernel iteration (write redundancy).
    let slice = (input_pages / params.total_warps as u64).max(1);
    let in_base = base + (warp as u64 % params.total_warps as u64) * slice * 4096;
    let out_base = base + input_pages * 4096;
    let mut in_cursor = in_base;
    // Spread warp cursors evenly over the output region so the write
    // working set covers the whole region (and many log groups).
    let mut out_cursor = out_base + (warp as u64 * output_pages / params.total_warps as u64) * 4096;
    let mut ops = Vec::with_capacity(params.mem_ops_per_warp * 2);
    let ops_per_kernel = (params.mem_ops_per_warp as u32 / spec.kernels.max(1)).max(64);
    // Reads average 0.95*1 + 0.05*32 = 2.55 sectors per op.
    let p_read = op_read_probability(spec.read_ratio, 2.55);
    let column = AccessPattern::strided(128).expect("a 128 B stride fits the pattern payload");

    for i in 0..params.mem_ops_per_warp {
        let kernel = i as u32 / ops_per_kernel;
        let (pc_row, pc_col, pc_write) = pcs_for_kernel(kernel);
        ops.push(WarpOp::Compute(rng.gen_range(8..24)));
        let is_read = rng.gen_bool(p_read);
        if is_read {
            if rng.gen_bool(0.95) {
                // Row-major unit-stride sweep.
                ops.push(WarpOp::Mem {
                    base: VirtAddr(in_cursor),
                    kind: AccessKind::Read,
                    pattern: AccessPattern::sequential(),
                    pc: pc_row,
                });
                in_cursor += 128;
                if in_cursor >= in_base + slice * 4096 {
                    in_cursor = in_base;
                }
            } else {
                // Column access: 128 B-strided threads (32 sectors).
                ops.push(WarpOp::Mem {
                    base: VirtAddr(in_cursor),
                    kind: AccessKind::Read,
                    pattern: column,
                    pc: pc_col,
                });
            }
        } else {
            // Output rewrite: the cursor wraps the small output region,
            // revisiting pages across kernel iterations.
            ops.push(WarpOp::Mem {
                base: VirtAddr(out_cursor),
                kind: AccessKind::Write,
                pattern: AccessPattern::sequential(),
                pc: pc_write,
            });
            out_cursor += 128;
            if out_cursor >= out_base + output_pages * 4096 {
                out_cursor = out_base;
            }
        }
    }
    WarpTrace::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table2::by_name;

    #[test]
    fn deterministic_generation() {
        let spec = by_name("betw").unwrap();
        let p = TraceParams::tiny();
        let a = generate(&spec, AppId(0), &p);
        let b = generate(&spec, AppId(0), &p);
        assert_eq!(a, b);
    }

    #[test]
    fn warp_count_honoured() {
        let spec = by_name("bfs1").unwrap();
        let p = TraceParams::tiny();
        assert_eq!(generate(&spec, AppId(0), &p).len(), p.total_warps);
    }

    #[test]
    fn request_level_read_ratio_approximates_table2() {
        for name in ["betw", "back", "deg", "gaus"] {
            let spec = by_name(name).unwrap();
            let p = TraceParams {
                total_warps: 16,
                mem_ops_per_warp: 400,
                footprint_pages: 128,
                seed: 3,
            };
            let traces = generate(&spec, AppId(0), &p);
            let (mut r, mut t) = (0usize, 0usize);
            for trace in &traces {
                for op in trace.ops() {
                    if let WarpOp::Mem {
                        base,
                        kind,
                        pattern,
                        ..
                    } = op
                    {
                        let n = pattern.sectors(base.raw()).len();
                        t += n;
                        if kind.is_read() {
                            r += n;
                        }
                    }
                }
            }
            let ratio = r as f64 / t as f64;
            assert!(
                (ratio - spec.read_ratio).abs() < 0.07,
                "{name}: got {ratio}, want {}",
                spec.read_ratio
            );
        }
    }

    #[test]
    fn apps_have_disjoint_address_windows() {
        let spec = by_name("betw").unwrap();
        let p = TraceParams::tiny();
        let a0 = generate(&spec, AppId(0), &p);
        let a1 = generate(&spec, AppId(1), &p);
        let max0 = max_addr(&a0);
        let min1 = min_addr(&a1);
        assert!(max0 < min1, "app windows overlap: {max0:#x} vs {min1:#x}");
    }

    fn addrs(traces: &[WarpTrace]) -> impl Iterator<Item = u64> + '_ {
        traces
            .iter()
            .flat_map(|t| {
                t.ops().iter().filter_map(|op| match op {
                    WarpOp::Mem { base, pattern, .. } => {
                        Some(pattern.sectors(base.raw()).into_iter())
                    }
                    _ => None,
                })
            })
            .flatten()
    }

    fn max_addr(traces: &[WarpTrace]) -> u64 {
        addrs(traces).max().unwrap()
    }

    fn min_addr(traces: &[WarpTrace]) -> u64 {
        addrs(traces).min().unwrap()
    }

    #[test]
    fn footprint_is_bounded() {
        let spec = by_name("gc1").unwrap();
        let p = TraceParams::tiny();
        let traces = generate(&spec, AppId(0), &p);
        // Scatter can reach slightly past the last footprint page
        // (page-crossing spread); allow that headroom.
        let bound = (p.footprint_pages as u64 + 40) * 4096;
        assert!(max_addr(&traces) < bound);
    }

    #[test]
    fn deg_is_read_only() {
        let spec = by_name("deg").unwrap();
        let traces = generate(&spec, AppId(0), &TraceParams::tiny());
        for t in &traces {
            assert!((t.read_ratio() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_params_rejected() {
        let spec = by_name("betw").unwrap();
        let mut p = TraceParams::tiny();
        p.total_warps = 0;
        let _ = generate(&spec, AppId(0), &p);
    }
}
