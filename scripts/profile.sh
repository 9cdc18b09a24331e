#!/usr/bin/env bash
# Samples where the repository benchmark spends its host time and prints
# the inclusive share of each function inside `Simulation::run`.
#
# Usage: scripts/profile.sh WORKLOAD [SEED] [SECONDS]
#        (defaults: seed 42, 25 s, the benchmark's own defaults)
#
# Builds the benchmark into target/profile with frame pointers and line
# tables, runs it with scripts/profile/sampler.c preloaded (a SIGPROF
# sampler that walks frame pointers, x86_64 Linux only), and folds the
# samples with addr2line (scripts/profile/fold.py). Needs gcc, addr2line
# and python3, so it is not part of scripts/check.sh. Samples land in
# target/profile/WORKLOAD-SEED.samples.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh WORKLOAD [SEED] [SECONDS]}
seed=${2:-42}
seconds=${3:-25}
out=target/profile
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes -C debuginfo=line-tables-only" \
CARGO_TARGET_DIR="$out" cargo build --release -q --locked --offline \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
gcc -O2 -shared -fPIC -o "$out/sampler.so" scripts/profile/sampler.c

samples="$out/$workload-$seed.samples"
(cd "$out" && PROFILE_OUT="$PWD/$(basename "$samples")" LD_PRELOAD="$PWD/sampler.so" \
    ./release/benchmark --workload "$workload" --seed "$seed" --seconds "$seconds" | tail -1)
python3 scripts/profile/fold.py "$out/release/benchmark" "$samples"
