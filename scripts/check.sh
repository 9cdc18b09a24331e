#!/usr/bin/env bash
# Repo quality gate: formatting, lints (warnings are errors), docs
# (warnings are errors), full tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast with a clear message when the toolchain components the gate
# needs are missing, instead of dying mid-run on a cryptic cargo error.
if ! cargo fmt --version >/dev/null 2>&1; then
  echo "error: 'cargo fmt' is unavailable — install it with: rustup component add rustfmt" >&2
  exit 1
fi
if ! cargo clippy --version >/dev/null 2>&1; then
  echo "error: 'cargo clippy' is unavailable — install it with: rustup component add clippy" >&2
  exit 1
fi

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test -q --workspace

# The repository benchmark is a package of its own with its own
# Cargo.lock: build it the way BENCHMARK.json runs it, so an API change
# it calls, or a lock that would need rewriting, fails here.
cargo build --release -q --locked --offline \
  --manifest-path crates/bench/src/bin/benchmark/Cargo.toml --target-dir target/benchmark

# Golden-determinism gate: the default-config JSON output is pinned
# byte-for-byte against tests/golden/ (determinism + opt-in features
# stay inert when off). Run by name so drift fails loudly even when the
# main test run is filtered.
cargo test -q --test golden

# End-to-end example smokes (the same list the CI quick lane runs).
./scripts/smoke.sh
