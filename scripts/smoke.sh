#!/usr/bin/env bash
# End-to-end example smokes: each example drives one opt-in subsystem
# through the library surface and exits non-zero when its scenario
# misbehaves. Run by scripts/check.sh and by the CI quick lane; with
# ZNG_QUICK=1 in the environment, the examples that honour it skip their
# slow contrast runs.
set -euo pipefail
cd "$(dirname "$0")/.."

# Self-healing: a die failure plus a severed mesh link mid-run must
# still complete and rebuild onto spares (exercises the RAIN paths the
# unit tests cover piecewise).
cargo run -q --example redundancy_rebuild >/dev/null

# Data integrity: a silent bit flip must fail loudly (poisoned L2 line,
# IntegrityViolation) without redundancy and heal in place with RAIN on.
cargo run -q --example integrity_poison >/dev/null

# Endurance: the refresh scheduler must ride along on healthy media, and
# an end-of-life run must complete with a graceful capacity step instead
# of the DeviceWornOut cliff.
cargo run -q --example lifetime_refresh >/dev/null

# Crash recovery: a checkpointed power cut must restore through the fast
# path and beat the full OOB scan (checkpoint writer, delta journal and
# verified restore end to end).
cargo run -q --release --example fast_recovery >/dev/null

# Predictive health: the monitor must flag a degrading die, evacuate its
# live data and fence it at death with zero dead-die reads, while the
# unmonitored twin pays the reconstruction fan-out.
cargo run -q --release --example health_evacuation >/dev/null
