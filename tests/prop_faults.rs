//! Property tests for the fault-injection subsystem: under any injected
//! fault sequence, an acknowledged write is never lost and a read never
//! returns a version older than the last acknowledged one.
//!
//! The proof leans on the flash-layer *stamps*: every successful program
//! records `(page key, global program sequence)` on the physical page.
//! If the location an FTL resolves a page to carries that page's own key
//! at a sequence number no older than the one observed when the write
//! was acknowledged, then no failed program, re-drive, GC migration or
//! block retirement dropped or rolled back acknowledged data.

use std::collections::HashMap;

use proptest::prelude::*;
use zng_flash::{FaultConfig, FlashDevice, FlashGeometry, RegisterTopology};
use zng_ftl::{Ftl, PageMapFtl, WriteMode, ZngFtl};
use zng_types::{Cycle, Error, Freq};

fn device(cfg: &FaultConfig) -> FlashDevice {
    let mut d = FlashDevice::zng_config(
        FlashGeometry::tiny(),
        Freq::default(),
        RegisterTopology::NiF,
    )
    .unwrap();
    d.set_fault_config(cfg);
    d
}

fn fault_config(seed: u64, eol: bool) -> FaultConfig {
    if eol {
        FaultConfig::end_of_life().with_seed(seed)
    } else {
        FaultConfig::nominal().with_seed(seed)
    }
}

/// Drives `writes` through a [`ZngFtl`] and checks the stamp invariant.
fn check_zng_ftl(
    seed: u64,
    eol: bool,
    writes: &[u64],
    mode: WriteMode,
) -> Result<(), TestCaseError> {
    let cfg = fault_config(seed, eol);
    let mut d = device(&cfg);
    let mut f = ZngFtl::new(&d, 2, mode);

    // vpn -> (key, program sequence) observed when the write was acked.
    let mut acked: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut t = Cycle::ZERO;
    for &vpn in writes {
        match f.write(t, &mut d, vpn) {
            Ok(r) => {
                t = r.done;
                if let Some(addr) = f.locate(vpn) {
                    if let Some(stamp) = d.page_stamp(addr) {
                        prop_assert_eq!(stamp.0, vpn, "acked write resolves to foreign data");
                        acked.insert(vpn, stamp);
                    }
                }
            }
            // Graceful wear-out ends the workload; nothing was acked.
            Err(Error::DeviceWornOut { .. }) => break,
            // A transient RMW fetch failure: the write never happened.
            Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    for (&vpn, &(_, ack_seq)) in &acked {
        let addr = f.locate(vpn);
        prop_assert!(addr.is_some(), "acked vpn {vpn} lost its mapping");
        if let Some(stamp) = d.page_stamp(addr.unwrap()) {
            prop_assert_eq!(stamp.0, vpn, "vpn {} reads foreign data", vpn);
            prop_assert!(
                stamp.1 >= ack_seq,
                "vpn {vpn} rolled back to an older version ({} < {ack_seq})",
                stamp.1
            );
        }
        // The read path itself stays panic-free: only transient sense
        // failures are acceptable errors.
        match f.read(t, &mut d, vpn, 128) {
            Ok(_) | Err(Error::UncorrectableRead { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("read failed: {e}"))),
        }
    }
    Ok(())
}

/// Same invariant for the conventional page-level FTL.
fn check_pagemap(seed: u64, eol: bool, writes: &[u64]) -> Result<(), TestCaseError> {
    let cfg = fault_config(seed, eol);
    let mut d = device(&cfg);
    let mut f = PageMapFtl::new(&d);

    let mut acked: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut t = Cycle::ZERO;
    for &lpn in writes {
        match f.write(t, &mut d, lpn) {
            Ok(w) => {
                t = w.done;
                let addr = f.locate(lpn).expect("acked write must be mapped");
                let stamp = d
                    .page_stamp(addr)
                    .expect("page-level FTL programs always stamp");
                prop_assert_eq!(stamp.0, lpn);
                acked.insert(lpn, stamp);
            }
            Err(Error::DeviceWornOut { .. }) => break,
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    for (&lpn, &(_, ack_seq)) in &acked {
        let addr = f.locate(lpn);
        prop_assert!(addr.is_some(), "acked lpn {lpn} lost its mapping");
        let stamp = d.page_stamp(addr.unwrap());
        prop_assert!(stamp.is_some(), "acked lpn {lpn} points at unstamped media");
        let (key, seq) = stamp.unwrap();
        prop_assert_eq!(key, lpn, "lpn {} reads foreign data", lpn);
        prop_assert!(
            seq >= ack_seq,
            "lpn {lpn} rolled back to an older version ({seq} < {ack_seq})"
        );
    }
    Ok(())
}

proptest! {
    /// ZnG FTL, direct writes: no acked write is lost or rolled back
    /// under nominal or end-of-life fault injection.
    #[test]
    fn zng_direct_writes_survive_faults(
        seed in 0u64..200,
        eol in 0u8..2,
        writes in prop::collection::vec(0u64..48, 1..200),
    ) {
        check_zng_ftl(seed, eol == 1, &writes, WriteMode::Direct)?;
    }

    /// ZnG FTL, buffered (register-grouped) writes: same invariant.
    #[test]
    fn zng_buffered_writes_survive_faults(
        seed in 0u64..200,
        eol in 0u8..2,
        writes in prop::collection::vec(0u64..48, 1..200),
    ) {
        check_zng_ftl(seed, eol == 1, &writes, WriteMode::Buffered)?;
    }

    /// Conventional page-level FTL: same invariant.
    #[test]
    fn pagemap_writes_survive_faults(
        seed in 0u64..200,
        eol in 0u8..2,
        writes in prop::collection::vec(0u64..256, 1..200),
    ) {
        check_pagemap(seed, eol == 1, &writes)?;
    }
}
