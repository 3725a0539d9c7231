#!/usr/bin/env bash
# Repo verification: tier-1 acceptance (release build + full test suite)
# plus a zero-warning lint gate. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Tests, examples and benches are linted too, not only library code.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no process-global path switches"
# Reference paths are selected per thread through simcore::SimPaths
# (DESIGN.md §13.6); a static AtomicBool/AtomicU8 switch would leak
# between concurrently running tests.
if grep -rnE 'static [A-Z_]+: .*Atomic(Bool|U8)' crates/*/src; then
  echo "process-global switch found: select reference paths with simcore::SimPaths" >&2
  exit 1
fi

echo "==> experiment drivers stay typed"
# Drivers declare typed points and values once (campaign::Sweep, DESIGN.md
# §8); plan indices, downcasts and value codecs belong to the campaign
# engine alone.
if grep -rnE 'point\.index|downcast_ref|expect_value|fn (en|de)code_value' \
  crates/core/src/experiments crates/predict/src; then
  echo "index arithmetic, downcast or codec in a driver: declare it with campaign::Sweep" >&2
  exit 1
fi

echo "==> repro smoke: one figure through the parallel campaign engine"
cargo run --release -p bench --bin repro -- --quick --only fig1 --jobs 2

echo "==> repro smoke: store + resume round-trip is byte-identical"
# First run persists every point; second run must restore them all and
# export the same bytes (crash-consistency, DESIGN.md §12).
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
cargo run --release -p bench --bin repro -- --quick --only fig4 \
  --store "$store_dir/store" --json "$store_dir/a.json"
cargo run --release -p bench --bin repro -- --quick --only fig4 \
  --store "$store_dir/store" --resume --json "$store_dir/b.json"
cmp "$store_dir/a.json" "$store_dir/b.json"

echo "==> timeout never poisons resume"
# A deadline that cuts a point's inner repetitions times the point out, so
# nothing is persisted; resuming without a deadline recomputes it and must
# export a clean run's bytes (DESIGN.md §7).
cargo run --release -p bench --bin repro -- --quick --only faulted_pingpong \
  --timeout 1e-9 --store "$store_dir/cut" --allow-partial
cargo run --release -p bench --bin repro -- --quick --only faulted_pingpong \
  --store "$store_dir/cut" --resume --json "$store_dir/cut-b.json"
cargo run --release -p bench --bin repro -- --quick --only faulted_pingpong \
  --json "$store_dir/cut-clean.json"
cmp "$store_dir/cut-b.json" "$store_dir/cut-clean.json"

echo "==> model validation: oracles, metamorphic invariants, differential fuzz"
# Exits non-zero if any oracle check fails (repro gates on failed checks).
cargo run --release -p bench --bin repro -- --quick --validate --fuzz-budget 60 --jobs 2

echo "==> predict: harvest -> train -> cross-validate -> accuracy ratchet"
# Counter-driven interference predictor (DESIGN.md §16): Quick-fidelity
# harvest of the full pair grid, cross-validation over three shuffle
# seeds, leave-one-family-out placement ranking, all gated against
# PREDICT_baseline.json. Never lower the baseline to make this pass.
cargo run --release -p bench --bin repro -- --quick --predict-check --jobs 2

echo "==> predict smoke: rank placements for a held-out workload"
# End-to-end advisor path: train without any bora/cg rows, rank the four
# placements, and print ground truth + regret next to the prediction.
cargo run --release -p bench --bin repro -- rank-placements --quick --jobs 2 \
  --preset bora --workload cg --cores 8 --metric bw --ground-truth

echo "==> allocator bench smoke: incremental vs reference solver"
cargo bench -p bench --features bench-harness --bench fluid

echo "==> engine + allreduce scaling smoke: events/sec floors"
# Small sizes + floors at ~1/4 of the current medians: this catches
# large regressions in the event queue / batching / solver hot path
# (synthetic section) and in the full mpisim/netsim/fabric stack (ring
# allreduce at 8->256 ranks; indexed matching + interned routes +
# memoized schedules put the 256-rank median near 800k events/s), not
# noise.
SCALING_NODES=64,256 SCALING_REPS=3 SCALING_FLOOR_EVENTS_PER_SEC=20000 \
  SCALING_ALLREDUCE_RANKS=8,64,256 SCALING_ALLREDUCE_FLOOR_EVENTS_PER_SEC=190000 \
  cargo bench -p bench --features bench-harness --bench scaling

echo "==> 1024-rank allreduce gate: one rep, wall limit + events/s floor"
# The 1k-rank capability claim, kept honest: 12.5M events / 2.1M messages
# must finish under a minute (median ~46 s here) and above 1/4 of the
# current 1024-rank median rate.
SCALING_NODES= SCALING_COLLECTIVE_ROWS= SCALING_REPS=1 \
  SCALING_ALLREDUCE_RANKS=1024 SCALING_ALLREDUCE_MAX_WALL_S=60 \
  SCALING_ALLREDUCE_FLOOR_EVENTS_PER_SEC=68000 \
  cargo bench -p bench --features bench-harness --bench scaling

echo "==> OK: build, tests, lints and repro smoke all green"
