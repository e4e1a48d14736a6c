#!/usr/bin/env bash
# Regenerates the benchmark snapshots:
#  - BENCH_MILP.json: warm-start vs cold branch-and-bound node throughput
#    plus model-strengthening node reduction and end-to-end speedup on the
#    seeded MILP instance set (crates/fp-bench/src/bin/milp_snapshot.rs).
#  - BENCH_SERVE.json: the event-driven front end on a 1000-connection
#    50%-duplicate workload, plus the overload/load-shed accounting,
#    deadline and ECO legs (crates/fp-bench/src/bin/serve_snapshot.rs).
#  - BENCH_GEOM.json: the bin grid's impact on the analytic placer —
#    pruned vs all-pairs overlap gradient and end-to-end analytic
#    wall-clock across the ami33/ami49-class/GSRC-style scale decks up to
#    n = 300 (crates/fp-bench/src/bin/geom_snapshot.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
milp_out="${1:-BENCH_MILP.json}"
serve_out="${2:-BENCH_SERVE.json}"
geom_out="${3:-BENCH_GEOM.json}"

cargo run --release -q -p fp-bench --bin milp_snapshot -- "$milp_out"
cargo run --release -q -p fp-bench --bin serve_snapshot -- "$serve_out"
cargo run --release -q -p fp-bench --bin geom_snapshot -- "$geom_out"
