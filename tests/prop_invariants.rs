//! Property-based tests on the core data structures' invariants.

use proptest::prelude::*;
use zng_flash::{Block, FlashGeometry, RegisterCache, RowDecoder};
use zng_gpu::{CacheGeometry, Coalescer, SetAssocCache};
use zng_sim::rng::{seeded, Zipf};
use zng_sim::{EventQueue, Resource};
use zng_types::{ids::AppId, Cycle};

proptest! {
    /// The event queue always pops in non-decreasing time order,
    /// FIFO within equal timestamps.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Cycle(t), i);
        }
        let mut last = (Cycle::ZERO, 0usize);
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            popped += 1;
            prop_assert!(t >= last.0, "time order violated");
            if t == last.0 && popped > 1 {
                prop_assert!(i > last.1, "FIFO within a timestamp violated");
            }
            last = (t, i);
        }
        prop_assert_eq!(popped, times.len());
    }

    /// A resource never starts a job before its arrival, never overlaps
    /// more jobs than it has servers, and conserves busy time.
    #[test]
    fn resource_completions_are_causal(
        ports in 1usize..4,
        jobs in prop::collection::vec((0u64..1000, 1u64..100), 1..100),
    ) {
        let mut r = Resource::new(ports);
        let mut total = 0u64;
        let mut max_done = 0u64;
        for &(at, service) in &jobs {
            let done = r.acquire(Cycle(at), Cycle(service));
            prop_assert!(done.raw() >= at + service);
            total += service;
            max_done = max_done.max(done.raw());
        }
        // Busy time is conserved: every reservation lies within
        // [0, max_done] and servers never overlap themselves, so the pool
        // cannot have served more than ports * max_done cycles of work.
        prop_assert!(
            (max_done as u128) * (ports as u128) >= total as u128,
            "served {total} cycles in {max_done} cycles on {ports} ports"
        );
    }

    /// Blocks obey erase-before-write: pages program strictly in order,
    /// valid count never exceeds programmed count, and erase resets.
    #[test]
    fn block_protocol_invariants(ops in prop::collection::vec(0u8..3, 1..300)) {
        let mut b = Block::new(16);
        let mut expected_next = 0u32;
        for op in ops {
            match op {
                0 => {
                    if let Ok(page) = b.program_next() {
                        prop_assert_eq!(page, expected_next);
                        expected_next += 1;
                    } else {
                        prop_assert!(b.is_full());
                    }
                }
                1 => {
                    b.invalidate(expected_next.saturating_sub(1));
                }
                _ => {
                    if b.valid_pages() == 0 && b.erase().is_ok() {
                        expected_next = 0;
                    }
                }
            }
            prop_assert!(b.valid_pages() <= b.programmed_pages());
            prop_assert!(b.programmed_pages() <= b.pages());
        }
    }

    /// The row-decoder CAM always resolves the *latest* mapping and
    /// never hands out the same log slot twice within an erase cycle.
    #[test]
    fn row_decoder_latest_wins(keys in prop::collection::vec(0u64..16, 1..64)) {
        let mut dec = RowDecoder::new(64);
        let mut slots = std::collections::HashSet::new();
        let mut latest = std::collections::HashMap::new();
        for &k in &keys {
            let slot = dec.record(k).unwrap();
            prop_assert!(slots.insert(slot), "slot reused");
            latest.insert(k, slot);
        }
        for (&k, &slot) in &latest {
            prop_assert_eq!(dec.lookup(k), Some(slot));
        }
        prop_assert_eq!(dec.live(), latest.len());
    }

    /// The register cache never exceeds its capacity, every eviction
    /// returns a page that was actually resident, and every page not
    /// evicted is still held.
    #[test]
    fn register_cache_capacity_invariant(
        writes in prop::collection::vec((0u64..64, 0usize..4), 1..400),
    ) {
        let mut rc = RegisterCache::grouped(4, 2);
        let mut resident = std::collections::HashSet::new();
        for &(key, plane) in &writes {
            let out = rc.write(key, plane);
            if let Some(ev) = out.evicted {
                prop_assert!(resident.remove(&ev.key), "evicted a non-resident page");
            }
            resident.insert(key);
            prop_assert!(rc.len() <= rc.capacity());
            prop_assert_eq!(rc.len(), resident.len());
        }
        for &key in &resident {
            prop_assert!(rc.contains(key), "lost a resident page");
        }
    }

    /// The coalescer emits unique, sector-aligned addresses covering
    /// every thread's sector.
    #[test]
    fn coalescer_covers_all_threads(base in 0u64..1_000_000, stride in 1u64..256) {
        let addrs = Coalescer::strided_addrs(base, stride);
        let sectors = Coalescer::coalesce(&addrs);
        let set: std::collections::HashSet<u64> = sectors.iter().copied().collect();
        prop_assert_eq!(set.len(), sectors.len(), "duplicates");
        for a in &addrs {
            prop_assert!(set.contains(&(a - a % 128)), "thread sector missing");
        }
        for s in &sectors {
            prop_assert_eq!(s % 128, 0);
        }
    }

    /// Cache fills never exceed capacity and lookups after a fill hit.
    #[test]
    fn cache_occupancy_bounded(addrs in prop::collection::vec(0u64..(1 << 16), 1..300)) {
        let geo = CacheGeometry { sets: 8, ways: 2, line_bytes: 128 };
        let mut c = SetAssocCache::new(geo);
        for &a in &addrs {
            c.fill(a, false, AppId(0));
            prop_assert!(c.probe(a), "just-filled line must be resident");
            prop_assert!(c.occupancy() <= geo.sets * geo.ways);
        }
    }

    /// Zipf sampling stays in range and is reproducible per seed.
    #[test]
    fn zipf_in_range_and_deterministic(n in 1usize..500, seed in 0u64..1000) {
        let z = Zipf::new(n, 0.8);
        let mut a = seeded(seed);
        let mut b = seeded(seed);
        for _ in 0..50 {
            let x = z.sample(&mut a);
            let y = z.sample(&mut b);
            prop_assert!(x < n);
            prop_assert_eq!(x, y);
        }
    }

    /// Flash geometry block index mapping is a bijection.
    #[test]
    fn geometry_block_index_bijection(idx in 0u64..1024) {
        let g = FlashGeometry::tiny();
        prop_assume!(idx < g.total_blocks() as u64);
        let addr = g.block_for_index(idx).unwrap();
        prop_assert_eq!(g.index_for_block(addr), idx);
        prop_assert!((addr.channel.index()) < g.channels);
        prop_assert!((addr.die.index()) < g.dies_per_package);
        prop_assert!((addr.plane.index()) < g.planes_per_die);
        prop_assert!((addr.block as usize) < g.blocks_per_plane);
    }
}

/// Promoted proptest regression — the seed in
/// `prop_invariants.proptest-regressions` shrinks to
/// `ports = 3, jobs = [(0, 1)]`: a single one-cycle job on an idle
/// multi-port pool. It once tripped the busy-time conservation bound in
/// `resource_completions_are_causal` (the bound compared against the
/// *first* completion instead of the latest, which a lone short job
/// exposes exactly). Pinned by name so the case keeps running even if
/// the seed file is ever pruned; the seed file stays checked in so
/// proptest replays it before generating novel cases.
#[test]
fn resource_busy_time_regression_single_short_job() {
    let mut r = Resource::new(3);
    let done = r.acquire(Cycle(0), Cycle(1));
    assert_eq!(done, Cycle(1), "an idle pool starts the job immediately");
    // ports * max_done >= total served work, even when most ports idle.
    assert!(done.raw() * 3 >= 1, "busy-time conservation violated");
}
