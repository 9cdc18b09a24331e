//! Integration tests for FTL/flash correctness across crates: mapping
//! consistency through writes and garbage collections, register-cache
//! semantics, and flash-protocol invariants at the device boundary.

use zng_flash::{FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl as _, PageMapFtl, WriteMode, ZngFtl};
use zng_types::{Cycle, Freq};

fn device() -> FlashDevice {
    FlashDevice::zng_config(
        FlashGeometry::tiny(),
        Freq::default(),
        RegisterTopology::NiF,
    )
    .unwrap()
}

#[test]
fn zng_ftl_survives_write_churn_with_many_gcs() {
    let mut d = device();
    let mut f = ZngFtl::new(&d, 2, WriteMode::Direct);
    let mut t = Cycle::ZERO;
    // Hammer a handful of pages far past the log capacity.
    for i in 0..400u64 {
        let vpn = i % 8;
        let r = f.write(t, &mut d, vpn).unwrap();
        t = r.done.max(t + Cycle(1));
    }
    assert!(f.gcs() > 3, "churn must trigger repeated GC: {}", f.gcs());
    // Every page is still readable afterwards.
    for vpn in 0..8u64 {
        f.read(t, &mut d, vpn, 128).unwrap();
    }
}

#[test]
fn zng_ftl_buffered_mode_defers_programs() {
    let mut d = device();
    let mut f = ZngFtl::new(&d, 2, WriteMode::Buffered);
    // Fewer writes than register capacity: no array program at all.
    for vpn in 0..8u64 {
        f.write(Cycle::ZERO, &mut d, vpn).unwrap();
    }
    assert_eq!(d.stats().total_programs(), 0);
    // Reads of buffered pages are register hits (no array read).
    let before = d.stats().total_reads();
    f.read(Cycle(100), &mut d, 3, 128).unwrap();
    assert_eq!(d.stats().total_reads(), before);
}

#[test]
fn pagemap_ftl_keeps_mapping_bijective_under_gc() {
    let mut d = FlashDevice::hybrid_config(FlashGeometry::tiny(), Freq::default()).unwrap();
    let mut f = PageMapFtl::new(&d);
    let mut t = Cycle::ZERO;
    for i in 0..30_000u64 {
        t = f.write(t, &mut d, i % 128).unwrap().done;
    }
    assert!(f.gcs() > 0);
    // All lpns map to distinct, valid flash pages.
    let mut seen = std::collections::HashSet::new();
    for lpn in 0..128u64 {
        let addr = f.locate(lpn).expect("mapped");
        assert!(seen.insert(addr), "two lpns map to {addr}");
        let block = d.block(addr.block).expect("block exists");
        assert!(block.is_valid(addr.page), "mapped page must be valid");
    }
}

#[test]
fn gc_report_is_self_consistent() {
    let mut d = device();
    let mut f = ZngFtl::new(&d, 2, WriteMode::Direct);
    let mut t = Cycle::ZERO;
    let mut reports = Vec::new();
    for i in 0..80u64 {
        let r = f.write(t, &mut d, i % 4).unwrap();
        t = r.done.max(t + Cycle(1));
        if let Some(gc) = r.gc {
            reports.push(gc);
        }
    }
    assert!(!reports.is_empty());
    for gc in &reports {
        assert!(gc.done >= gc.started);
        assert!(gc.erased_blocks >= 2, "data block(s) + log block");
        assert_eq!(
            gc.migrated_pages as usize,
            gc.flushed_vpns.len(),
            "every migrated page must be flushed from caches"
        );
        // Flushed vpns are unique.
        let set: std::collections::HashSet<_> = gc.flushed_vpns.iter().collect();
        assert_eq!(set.len(), gc.flushed_vpns.len());
    }
}

#[test]
fn device_wear_is_levelled_under_churn() {
    let mut d = device();
    let mut f = ZngFtl::new(&d, 1, WriteMode::Direct);
    let mut t = Cycle::ZERO;
    for i in 0..600u64 {
        let r = f.write(t, &mut d, i % 4).unwrap();
        t = r.done.max(t + Cycle(1));
    }
    assert!(f.gcs() >= 10);
    // The allocator recycles lowest-wear-first: after heavy churn no
    // block should have absorbed the entire erase budget alone.
    let g = *d.geometry();
    let mut max_wear = 0u32;
    let mut total_erases = 0u64;
    for idx in 0..g.total_blocks() as u64 {
        let addr = g.block_for_index(idx).unwrap();
        if let Some(b) = d.block(addr) {
            max_wear = max_wear.max(b.erase_count());
            total_erases += b.erase_count() as u64;
        }
    }
    assert!(total_erases > 0);
    assert!(
        (max_wear as u64) < total_erases,
        "wear must spread across blocks (max {max_wear}, total {total_erases})"
    );
}
