//! The output checks every repetition must pass. Each one has a name;
//! a failure reports the first check that failed, with both values.

use zng_gpu::WarpOp;
use zng_platforms::RunResult;
use zng_workloads::MultiApp;

use crate::workloads::Workload;

/// What the generated mix holds, counted without the simulator.
#[derive(Debug)]
pub struct MixStats {
    pub mem_ops: u64,
    /// Coalesced 128 B requests: the coalescer applied to every op.
    pub sectors: u64,
    pub instructions: u64,
}

impl MixStats {
    pub fn of(mix: &MultiApp) -> MixStats {
        let mut stats = MixStats {
            mem_ops: 0,
            sectors: 0,
            instructions: 0,
        };
        let mut scratch = Vec::with_capacity(32);
        for trace in mix.apps.iter().flat_map(|(_, _, traces)| traces) {
            stats.instructions += trace.instructions();
            for op in trace.ops() {
                if let WarpOp::Mem { base, pattern, .. } = *op {
                    scratch.clear();
                    pattern.sectors_into(base.raw(), &mut scratch);
                    stats.mem_ops += 1;
                    stats.sectors += scratch.len() as u64;
                }
            }
        }
        stats
    }
}

fn expect_eq(check: &str, what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("check `{check}` failed: {what} {got} != {want}"))
    }
}

/// Checks one repetition's result against the mix it ran.
///
/// For a mix that runs more than once, `reference` holds the JSON of the
/// first repetition that ran it; it is filled on that repetition's call.
pub fn check_rep(
    w: &Workload,
    r: &RunResult,
    stats: &MixStats,
    reference: Option<&mut Option<String>>,
) -> Result<(), String> {
    if let Some(reference) = reference {
        let mut quiet = r.clone();
        quiet.perf = None;
        let json = quiet.to_json_value().to_string_compact();
        match reference {
            Some(first) if *first != json => return Err(
                "check `deterministic` failed: the result differs from the first run of the same mix"
                    .into(),
            ),
            Some(_) => {}
            None => *reference = Some(json),
        }
    }

    let p = r
        .perf
        .as_ref()
        .ok_or("check `event-sum` failed: the run reported no event counters")?;
    // Maintenance steps ride on the event that polled them, which then
    // still ends in exactly one of the other four outcomes.
    expect_eq(
        "event-sum",
        "events vs compute+mem+blocked+skipped",
        p.events,
        p.compute_events + p.mem_events + p.blocked_events + p.skipped_events,
    )?;
    expect_eq(
        "instructions",
        "retired vs trace instructions",
        r.instructions,
        stats.instructions,
    )?;
    expect_eq(
        "sector-count",
        "requests vs coalesced sectors",
        r.requests,
        stats.sectors,
    )?;

    if w.is_maintenance() {
        let fast = r.crash_recovery.as_ref().is_some_and(|c| c.fast_path);
        if !fast {
            return Err("check `fast-recovery` failed: crash recovery did not take the checkpoint fast path".into());
        }
        let poisoned = r.integrity.as_ref().map_or(u64::MAX, |i| i.poisoned_lines);
        expect_eq("no-poison", "poisoned L2 lines", poisoned, 0)?;
    }
    Ok(())
}
