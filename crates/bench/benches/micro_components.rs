//! Microbenchmarks for the simulator's hot components: event queue,
//! set-associative cache, coalescer, row-decoder CAM, register cache,
//! SSD page buffer and Zipf sampler.
//!
//! Uses a self-contained timing harness (median of several timed rounds
//! after warmup) instead of an external bench framework, matching the
//! other `harness = false` bench binaries in this crate.

use std::hint::black_box;
use std::time::Instant;

use zng_flash::{RegisterCache, RowDecoder};
use zng_gpu::{CacheGeometry, Coalescer, SetAssocCache};
use zng_sim::rng::{seeded, Zipf};
use zng_sim::EventQueue;
use zng_ssd::PageBuffer;
use zng_types::{ids::AppId, Cycle};

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
}
