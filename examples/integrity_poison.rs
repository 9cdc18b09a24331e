//! End-to-end data integrity: inject a silent bit flip below the ECC
//! model and watch the two containment paths.
//!
//! 1. **No redundancy** — the per-page OOB checksum catches the flip on
//!    the read path, the re-read fails the same way, and with nothing to
//!    reconstruct from the read fails loudly: the fetched L2 line is
//!    poisoned (dependent warps fault deterministically instead of
//!    computing on garbage) and the run aborts with
//!    `Error::IntegrityViolation`.
//! 2. **RAIN redundancy on** — the same flip is detected, reconstructed
//!    from the surviving stripe members, and the run completes with the
//!    heal visible in the integrity counters.
//!
//! ```text
//! cargo run --release --example integrity_poison
//! ```

use zng::{Error, Experiment, IntegrityConfig, PlatformKind, RedundancyConfig, Table};

fn main() -> zng::Result<()> {
    let mix = ["betw"];

    // A deterministic single shot: corrupt the 5th page program of the
    // run, early enough that the read path is guaranteed to cross it.
    let shot = IntegrityConfig::with_shot(5);

    // Containment without redundancy: the violation surfaces as a loud
    // error, never as silently wrong data.
    let mut bare = Experiment::quick();
    bare.config_mut().integrity = shot;
    match bare.run(PlatformKind::ZngBase, &mix) {
        Err(Error::IntegrityViolation { addr }) => {
            println!("without redundancy: read of {addr} failed loudly");
        }
        Err(e) => return Err(e),
        Ok(_) => {
            eprintln!("error: the corruption shot was never detected");
            std::process::exit(1);
        }
    }

    // The same shot with RAIN parity striping: detected, reconstructed,
    // run completes.
    let mut healed = Experiment::quick();
    healed.config_mut().integrity = shot;
    healed.config_mut().redundancy = RedundancyConfig {
        enabled: true,
        ..RedundancyConfig::default()
    };
    let r = healed.run(PlatformKind::ZngBase, &mix)?;
    let i = r.integrity.expect("integrity verification was on");

    let mut t = Table::new(vec!["integrity metric".into(), "value".into()]);
    t.row(vec![
        "silent corruptions injected".into(),
        i.silent_corruptions.to_string(),
    ]);
    t.row(vec!["detected on read".into(), i.detected.to_string()]);
    t.row(vec!["charged re-reads".into(), i.rereads.to_string()]);
    t.row(vec![
        "reconstructed from parity".into(),
        i.reconstructed.to_string(),
    ]);
    t.row(vec!["quarantined copies".into(), i.quarantined.to_string()]);
    t.row(vec![
        "poisoned L2 lines".into(),
        i.poisoned_lines.to_string(),
    ]);
    t.print("with redundancy: the same shot heals in place");

    assert!(i.detected >= 1, "the shot must be detected");
    assert!(i.reconstructed >= 1, "the shot must be healed");
    assert_eq!(i.poisoned_lines, 0, "a healed read never poisons");
    Ok(())
}
