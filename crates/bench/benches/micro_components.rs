//! Microbenchmarks for the simulator's hot components: event queue,
//! set-associative cache, MSHR file, server pool, coalescer, row-decoder
//! CAM, register cache, SSD page buffer, Zipf sampler and warp-trace
//! generation.
//!
//! Uses a self-contained timing harness (median of several timed rounds
//! after warmup) instead of an external bench framework, matching the
//! other `harness = false` bench binaries in this crate.

use std::hint::black_box;
use std::time::Instant;

use zng_flash::{RegisterCache, RowDecoder};
use zng_gpu::{CacheGeometry, Coalescer, Mshr, SetAssocCache};
use zng_sim::rng::{seeded, Zipf};
use zng_sim::{EventQueue, Resource};
use zng_ssd::PageBuffer;
use zng_types::{ids::AppId, Cycle};
use zng_workloads::{MultiApp, TraceParams};

/// Times `f` (median of `rounds` after warmup) and prints one line.
fn bench<T>(name: &str, rounds: usize, mut f: impl FnMut() -> T) {
    for _ in 0..3 {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    println!("{name:<32} {:>10.2} us/iter", samples[samples.len() / 2]);
}

fn main() {
    println!("micro_components: hot-path microbenchmarks\n");

    bench("event_queue_push_pop_1k", 50, || {
        let mut q = EventQueue::<u32>::new();
        for i in 0..1_000u32 {
            q.schedule(Cycle((i as u64 * 7919) % 4096), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        n
    });

    // The simulator's steady state: 1 024 pending warps, each step drains
    // the front cycle and reschedules every drained event. Deltas come
    // from a fixed mix: half compute-sized, three eighths flash-read-
    // sized, one eighth past the 65 536-cycle near window (GC and
    // maintenance stalls).
    const HOLD_DELTAS: [u64; 16] = [
        1, 2, 4, 4, 8, 12, 24, 40, 1_500, 3_000, 4_500, 6_000, 9_000, 20_000, 90_000, 1_048_576,
    ];
    bench("event_queue_hold_1k", 20, || {
        let mut q = EventQueue::<u32>::with_capacity(1_025);
        for i in 0..1_024u32 {
            q.schedule(Cycle::ZERO, i);
        }
        let mut batch = Vec::with_capacity(1_024);
        let mut k = 1u64;
        for _ in 0..20_000 {
            let now = q.peek_time().expect("the hold never empties");
            batch.clear();
            q.pop_at(now, &mut batch);
            for &e in &batch {
                k = k
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                q.schedule(now + Cycle(HOLD_DELTAS[(k >> 60) as usize]), e);
            }
        }
        q.peek_time()
    });

    let geo = CacheGeometry {
        sets: 1024,
        ways: 8,
        line_bytes: 128,
    };
    bench("l2_bank_lookup_fill_2k", 50, || {
        let mut cache = SetAssocCache::new(geo);
        for i in 0..2_000u64 {
            let addr = (i * 131) % (1 << 22);
            if !cache.lookup(addr, false) {
                cache.fill(addr, false, AppId(0));
            }
        }
        cache.occupancy()
    });

    // An SM's MSHR file kept full: 64 entries of 128 B-aligned sector
    // keys, each step one merge probe and one fill that displaces the
    // earliest-completing entry (the request path's miss pattern).
    bench("mshr_churn_64", 50, || {
        let mut mshr = Mshr::new(64);
        let mut merged = 0u32;
        for i in 0..20_000u64 {
            let key = ((i * 2_654_435_761) % 4_096) * 128;
            let now = Cycle(i * 4);
            if mshr.inflight(now, key).is_some() {
                merged += 1;
            }
            mshr.register(key, now + Cycle(200 + (i * 7) % 300));
        }
        merged
    });

    // The MMU's 32-thread page-table walker: walks of mixed lengths
    // arriving a few cycles apart, so the pool stays busy.
    const WALK_CYCLES: [u64; 8] = [40, 40, 80, 120, 40, 200, 80, 400];
    bench("resource_walker_32", 50, || {
        let mut walker = Resource::new(32);
        let mut last = Cycle::ZERO;
        for i in 0..20_000u64 {
            last = walker.acquire(Cycle(i * 3), Cycle(WALK_CYCLES[(i % 8) as usize]));
        }
        last
    });

    bench("coalesce_strided_warp", 200, || {
        let mut total = 0usize;
        for stride in [4u64, 32, 128] {
            total += Coalescer::strided(0x1000, stride).len();
        }
        total
    });

    let mut dec = RowDecoder::new(384);
    for k in 0..300u64 {
        dec.record(k).unwrap();
    }
    bench("row_decoder_cam_search", 200, || {
        let mut hits = 0;
        for k in 0..384u64 {
            if dec.lookup(k).is_some() {
                hits += 1;
            }
        }
        hits
    });

    bench("register_cache_write_stream_2k", 50, || {
        let mut regs = RegisterCache::grouped(64, 8);
        for k in 0..2_000u64 {
            regs.write(k % 700, (k % 64) as usize);
        }
        regs.len()
    });

    // HybridGPU's default buffer under a working set four times its size:
    // nearly every access misses and evicts.
    bench("page_buffer_miss_stream_4k", 10, || {
        let mut buf = PageBuffer::new(4096);
        let mut dirty = 0usize;
        for i in 0..20_000u64 {
            let ppn = (i * 1_031) % 16_384;
            if buf.access(ppn, i % 3 == 0).evicted_dirty.is_some() {
                dirty += 1;
            }
        }
        dirty
    });

    let z = Zipf::new(4096, 0.85);
    let mut rng = seeded(1);
    bench("zipf_sample_1k", 100, || {
        let mut acc = 0usize;
        for _ in 0..1_000 {
            acc += z.sample(&mut rng);
        }
        acc
    });

    // The repository benchmark's `graph-read` mix at its volume (4 apps ×
    // 256 warps × 1 500 memory ops, 3 072 000 trace ops): generation
    // time, which includes writing every op into the trace buffers.
    let params = TraceParams {
        total_warps: 256,
        mem_ops_per_warp: 1_500,
        footprint_pages: 2_048,
        seed: 42 << 16,
    };
    bench("trace_generate_mix", 10, || {
        MultiApp::from_names(&["betw", "bfs2", "pr", "gc1"], &params)
            .expect("Table II names")
            .total_warps()
    });
}
