#!/usr/bin/env bash
# Tier-1 verification for the workspace: formatting, lints, full test suite.
# The build environment is offline; CARGO_NET_OFFLINE keeps cargo from
# stalling on the unreachable registry (all external deps are vendored
# shims under vendor/, see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test"
cargo test --workspace -q

# The deterministic chaos/fault-injection suite for the event-driven
# front end (slow-loris drips, half-closed sockets, mid-job disconnects,
# oversized frames, seeded flaky-client swarm) is tier-1: run it by name
# so a filtered workspace test run can never silently skip it.
echo "== fp-serve chaos suite"
cargo test -q -p fp-serve --test chaos

echo "== cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run -q

# The end-to-end benchmark under perfbench/ is a workspace of its own
# that builds against fp-serve's and fp-core's public API by path; build
# and test it here so an API change cannot silently break it.
echo "== perfbench tests (the end-to-end benchmark must keep building)"
cargo test -q --release --locked --offline --manifest-path perfbench/Cargo.toml

# Observability: an end-to-end traced run must produce schema-valid JSONL
# (each line parses as a flat object carrying a numeric `seq`, a known
# `phase` and `event`, and every field of that event with its JSON type)
# and a non-empty per-phase summary. The trace suites
# themselves (trace_invariants, trace_regression, traced_solve) already
# ran under `cargo test --workspace` above.
echo "== trace schema sanity (fp-cli --trace | validate_trace)"
trace_file="$(mktemp --suffix=.jsonl)"
summary_file="$(mktemp)"
race_trace="$(mktemp --suffix=.jsonl)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace"' EXIT
cargo run --release -q -p fp-cli -- --ami33 --trace "$trace_file" --summary \
    > "$summary_file"
cargo run --release -q -p fp-obs --example validate_trace -- "$trace_file"
# At stock budgets the release pipeline must never degrade to greedy
# (the debug-build equivalent pin lives in fp-core's trace_regression).
grep -q "0 greedy fallback" "$summary_file" \
    || { echo "check.sh: ami33 run reported greedy fallbacks"; exit 1; }
# Warm-start smoke: the branch-and-bound trees behind an ami33 run are
# deep enough that at least one node must have reused its parent basis.
# All-cold means the warm path silently stopped engaging (the ratio pin
# lives in fp-core's trace_regression).
grep -q '"warm":true' "$trace_file" \
    || { echo "check.sh: ami33 trace has no warm node solves"; exit 1; }
# Node-propagation smoke: most infeasible nodes of the ami33 step MILPs
# are settled by bound propagation before their LP runs, so some node
# must carry the flag. None means propagation silently stopped engaging
# (the per-deck counts are pinned in fp-core's flow_pins).
grep -q '"propagated":true' "$trace_file" \
    || { echo "check.sh: ami33 trace has no node settled by propagation"; exit 1; }
# Strengthening smoke: every solve emits a Presolve event, and the ami33
# obstacle big-Ms leave enough slack that at least one step must report
# tightened rows. All-zero means the strengthening layer silently stopped
# engaging (the equivalence pins live in fp-milp's strengthen_equivalence).
grep -Eq '"event":"Presolve".*"rows_tightened":[1-9]' "$trace_file" \
    || { echo "check.sh: ami33 trace has no Presolve event with tightened rows"; exit 1; }
# LP-kernel smoke: validate_trace above already requires every BnbNode
# line to carry the numeric `refactors`/`etas` factorization fields; here
# additionally require that some node actually refactorized. Every LP
# factorizes its basis on a cold start or a snapshot load, so all-zero
# means the factorization counters stopped reporting (the kernel's
# ground-truth pins live in fp-milp's sparse_equivalence).
grep -Eq '"event":"BnbNode".*"refactors":[1-9]' "$trace_file" \
    || { echo "check.sh: ami33 trace shows no LU refactorizations"; exit 1; }

# The ami33 trace carries only the solver and augmentation events. A
# portfolio race that routes and compacts also writes the race, routing,
# cut-round and span events; validate_trace checks every field of each
# against the schema table in fp-obs.
echo "== trace schema sanity (portfolio race, routing and spans)"
cargo run --release -q -p fp-cli -- --random 12:7 --portfolio --route wsp --compact \
    --trace "$race_trace" > /dev/null
cargo run --release -q -p fp-obs --example validate_trace -- "$race_trace"
for event in BackendDone Portfolio Span; do
    grep -q "\"event\":\"$event\"" "$race_trace" \
        || { echo "check.sh: portfolio trace has no $event line"; exit 1; }
done

# MILP benchmark snapshot smoke: the snapshot binary must run end to end
# and emit the legs BENCH_MILP.json is diffed against (per-instance
# `strengthen` objects plus the warm-start and strengthening medians).
echo "== milp_snapshot smoke"
bench_json="$(mktemp --suffix=.json)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace" "$bench_json"' EXIT
cargo run --release -q -p fp-bench --bin milp_snapshot -- "$bench_json" \
    > /dev/null
for key in '"strengthen"' '"median_strengthen_speedup"' '"median_node_throughput_speedup"'; do
    grep -q "$key" "$bench_json" \
        || { echo "check.sh: milp_snapshot output missing $key"; exit 1; }
done
# The snapshot solves serially, so its counts repeat exactly: every count
# field of the fresh run must equal the committed BENCH_MILP.json's, in
# order. Only the timings may differ.
count_fields='"(nodes|pivots|warm_nodes|cold_nodes|propagated_nodes|refactorizations|eta_updates|rows_tightened|binaries_fixed|cuts_added)": [0-9]+'
diff <(grep -Eo "$count_fields" BENCH_MILP.json) <(grep -Eo "$count_fields" "$bench_json") \
    || { echo "check.sh: milp_snapshot counts differ from BENCH_MILP.json"; exit 1; }

# Routing benchmark snapshot: the router on the floorplans the flow
# places for ami33 and scale_flow's decks at perfbench's options. The
# placements and the routing repeat exactly, so every exact field of the
# fresh run must equal the committed BENCH_ROUTE.json's, in order. Only
# the route times may differ.
echo "== route_snapshot (exact fields against BENCH_ROUTE.json)"
route_json="$(mktemp --suffix=.json)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace" "$bench_json" "$route_json"' EXIT
cargo run --release -q -p fp-bench --bin route_snapshot -- "$route_json" \
    > /dev/null
route_fields='"(name|cells|segments|routed_wl|final_area|overflowed_edges)": ("[^"]*"|[0-9.]+)'
diff <(grep -Eo "$route_fields" BENCH_ROUTE.json) <(grep -Eo "$route_fields" "$route_json") \
    || { echo "check.sh: route_snapshot fields differ from BENCH_ROUTE.json"; exit 1; }

# Geometry benchmark snapshot smoke: the bin-grid gradient snapshot must
# run end to end on the sub-100-module decks (the full 300-module sweep
# stays in scripts/bench_snapshot.sh) and emit the headline median
# BENCH_GEOM.json is diffed against.
echo "== geom_snapshot smoke (--max-n 100)"
geom_json="$(mktemp --suffix=.json)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace" "$bench_json" "$route_json" "$geom_json"' EXIT
cargo run --release -q -p fp-bench --bin geom_snapshot -- "$geom_json" --max-n 100 \
    > /dev/null
[ -s "$geom_json" ] || { echo "check.sh: geom_snapshot wrote no output"; exit 1; }
grep -q '"median_gradient_speedup"' "$geom_json" \
    || { echo "check.sh: geom_snapshot output missing median_gradient_speedup"; exit 1; }

# Determinism gate: the branch-and-bound search is serial, so a floorplan
# depends only on its inputs, whatever the core count. Each pinned deck
# runs once pinned to one core and three times on all cores, and every
# run must print the same result line, its `time` field aside. The
# answer itself is pinned too, node count aside, so a solver change that
# moves the floorplan fails here even when it repeats.
echo "== determinism gate (pinned floorplans on one core and on all cores)"
cargo build --release -q -p fp-cli
result_line() { "$@" 2>/dev/null | sed 's/  time .*$//'; }
determinism_gate() {
    local answer="$1"
    shift
    local pinned pinned_answer free run
    pinned="$(result_line taskset -c 0 ./target/release/floorplan "$@")"
    [ -n "$pinned" ] || { echo "check.sh: pinned run of '$*' printed no result"; exit 1; }
    echo "$pinned"
    pinned_answer="$(printf '%s\n' "$pinned" | sed -n 's/  nodes .*$//p')"
    [ "$pinned_answer" = "$answer" ] \
        || { echo "check.sh: '$*' answered '$pinned_answer', pinned '$answer'"; exit 1; }
    for run in 1 2 3; do
        free="$(result_line ./target/release/floorplan "$@")"
        [ "$free" = "$pinned" ] \
            || { echo "check.sh: all-core run $run of '$*' printed '$free', the pinned run '$pinned'"; exit 1; }
    done
}
determinism_gate 'chip 117.0 x 119.0 = 13923  utilization 82.7%  wirelength(est) 37562  steps 11' \
    --ami33
# The same flow followed by the §2.5 topology LP (fp-core/src/topology.rs),
# so the gate also pins an answer of that LP: its row set or its vertex
# moving shows here.
determinism_gate 'chip 117.0 x 116.0 = 13572  utilization 84.9%  wirelength(est) 37222  steps 11' \
    --ami33 --compact
# ami33's answer does not depend on where each augmentation step's root
# LP starts. This deck's does, so its line also pins the flow's seeding
# rule: each step starts from the root basis of the run's latest earlier
# step with the same column count (fp-core/src/step.rs).
determinism_gate 'chip 75.0 x 87.0 = 6525  utilization 72.4%  wirelength(est) 11437  steps 12' \
    --random 35:5 --node-limit 4000

# Service smoke: bring up `floorplan serve` on an ephemeral port, drive it
# with the `load` generator over a repeated instance, and require (a) every
# response accounted for and (b) the repeats answered from the solution
# cache, visible both in the load accounting and as CacheHit events in the
# service trace.
echo "== service smoke (floorplan serve / load)"
serve_log="$(mktemp)"
serve_trace="$(mktemp --suffix=.jsonl)"
load_log="$(mktemp)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace" "$bench_json" "$route_json" "$geom_json" "$serve_log" "$serve_trace" "$load_log"; kill "${serve_pid:-0}" 2>/dev/null || true' EXIT
./target/release/floorplan serve --bind 127.0.0.1:0 --workers 2 \
    --trace "$serve_trace" > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "serving on" "$serve_log" && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
    sleep 0.1
done
serve_addr="$(sed -n 's/serving on \([0-9.:]*\) .*/\1/p' "$serve_log")"
[ -n "$serve_addr" ] || { echo "check.sh: serve did not report its address"; cat "$serve_log"; exit 1; }
./target/release/floorplan load --addr "$serve_addr" \
    --clients 4 --jobs 8 --modules 4 --spread 2 | tee "$load_log"
grep -q "lost 0" "$load_log" \
    || { echo "check.sh: load lost responses"; exit 1; }
grep -q "responses 32/32 ok" "$load_log" \
    || { echo "check.sh: not every load job succeeded"; exit 1; }
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
# All service trace lines must satisfy the same JSONL schema as solver
# traces, and the repeated instance must have produced at least one hit.
cargo run --release -q -p fp-obs --example validate_trace -- "$serve_trace"
grep -q '"event":"CacheHit"' "$serve_trace" \
    || { echo "check.sh: repeated instance never hit the solution cache"; exit 1; }

# Overload smoke: 200 open-loop connections, half submitting one shared
# duplicate instance, against one worker with a tiny global queue. The
# overflow must be load-shed with a typed retry (>=1 Shed event), all in
# a schema-valid trace, with every job answered (ok or shed). Whether a
# duplicate here coalesces depends on solve time against arrival timing,
# so coalescing over TCP is checked deterministically by fp-serve's
# `tcp_duplicates_join_a_queued_leader` test instead.
echo "== overload smoke (load shedding)"
shed_log="$(mktemp)"
shed_trace="$(mktemp --suffix=.jsonl)"
shed_load="$(mktemp)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace" "$bench_json" "$route_json" "$geom_json" "$serve_log" "$serve_trace" "$load_log" "$shed_log" "$shed_trace" "$shed_load"; kill "${serve_pid:-0}" "${shed_pid:-0}" 2>/dev/null || true' EXIT
./target/release/floorplan serve --bind 127.0.0.1:0 --workers 1 --cache 0 \
    --queue 2 --pending 64 --trace "$shed_trace" > "$shed_log" 2>&1 &
shed_pid=$!
for _ in $(seq 1 100); do
    grep -q "serving on" "$shed_log" && break
    kill -0 "$shed_pid" 2>/dev/null || { cat "$shed_log"; exit 1; }
    sleep 0.1
done
shed_addr="$(sed -n 's/serving on \([0-9.:]*\) .*/\1/p' "$shed_log")"
[ -n "$shed_addr" ] || { echo "check.sh: overload serve did not report its address"; cat "$shed_log"; exit 1; }
./target/release/floorplan load --addr "$shed_addr" \
    --clients 200 --jobs 1 --modules 4 --dup 50 --no-cache --rate 4000 \
    | tee "$shed_load"
grep -q "lost 0" "$shed_load" \
    || { echo "check.sh: overload load lost responses"; exit 1; }
kill "$shed_pid" 2>/dev/null || true
wait "$shed_pid" 2>/dev/null || true
cargo run --release -q -p fp-obs --example validate_trace -- "$shed_trace"
grep -q '"event":"Shed"' "$shed_trace" \
    || { echo "check.sh: overload never load-shed"; exit 1; }

# Overload tail-latency pin: a fresh run of the snapshot's overload leg
# must not regress the committed BENCH_SERVE.json p99 by more than 2x
# plus a 50ms noise floor (the leg serves only a handful of jobs, so the
# floor absorbs scheduler jitter while still catching a real regression
# in how long a served job sits behind the tiny admission queue).
echo "== overload p99 pin (serve_snapshot --overload-only vs BENCH_SERVE.json)"
base_p99="$(sed -n 's/.*"overload": {[^}]*"p99_ms": \([0-9.]*\).*/\1/p' BENCH_SERVE.json)"
[ -n "$base_p99" ] || { echo "check.sh: BENCH_SERVE.json has no overload p99_ms"; exit 1; }
fresh_overload="$(cargo run --release -q -p fp-bench --bin serve_snapshot -- --overload-only)"
echo "$fresh_overload"
fresh_p99="$(printf '%s\n' "$fresh_overload" | sed -n 's/.*"p99_ms": \([0-9.]*\).*/\1/p')"
[ -n "$fresh_p99" ] || { echo "check.sh: --overload-only emitted no p99_ms"; exit 1; }
awk -v fresh="$fresh_p99" -v base="$base_p99" \
    'BEGIN { exit !(fresh <= 2 * base + 50) }' \
    || { echo "check.sh: overload p99 ${fresh_p99}ms vs snapshot ${base_p99}ms — past 2x + 50ms"; exit 1; }

# Portfolio deadline pin: a fresh run of the snapshot's deadline leg must
# keep the milp+annealer+analytic race meeting at least as many 50 ms
# deadlines as the MILP leg alone (serve_snapshot asserts it and exits
# nonzero otherwise). The committed BENCH_SERVE.json must carry the leg.
echo "== portfolio deadline pin (serve_snapshot --deadline-only)"
grep -q '"deadline": {"jobs"' BENCH_SERVE.json \
    || { echo "check.sh: BENCH_SERVE.json has no deadline leg"; exit 1; }
cargo run --release -q -p fp-bench --bin serve_snapshot -- --deadline-only \
    || { echo "check.sh: the portfolio met fewer deadlines than the MILP leg alone"; exit 1; }

# ECO smoke: serve with a trace, solve a base instance from scratch, then
# send delta jobs against it. The load accounting must show every delta
# riding the incremental path (base hits == delta jobs) and the trace must
# carry schema-valid EcoJob events reporting base_hit.
echo "== eco smoke (floorplan load --eco)"
eco_log="$(mktemp)"
eco_trace="$(mktemp --suffix=.jsonl)"
eco_load="$(mktemp)"
eco_snap="$(mktemp -u --suffix=.jsonl)"
trap 'rm -f "$trace_file" "$summary_file" "$race_trace" "$bench_json" "$route_json" "$geom_json" "$serve_log" "$serve_trace" "$load_log" "$shed_log" "$shed_trace" "$shed_load" "$eco_log" "$eco_trace" "$eco_load" "$eco_snap"; kill "${serve_pid:-0}" "${shed_pid:-0}" "${eco_pid:-0}" 2>/dev/null || true' EXIT
./target/release/floorplan serve --bind 127.0.0.1:0 --workers 2 \
    --cache-file "$eco_snap" --trace "$eco_trace" > "$eco_log" 2>&1 &
eco_pid=$!
for _ in $(seq 1 100); do
    grep -q "serving on" "$eco_log" && break
    kill -0 "$eco_pid" 2>/dev/null || { cat "$eco_log"; exit 1; }
    sleep 0.1
done
eco_addr="$(sed -n 's/serving on \([0-9.:]*\) .*/\1/p' "$eco_log")"
[ -n "$eco_addr" ] || { echo "check.sh: eco serve did not report its address"; cat "$eco_log"; exit 1; }
./target/release/floorplan load --addr "$eco_addr" \
    --clients 2 --jobs 4 --modules 6 --eco 50 | tee "$eco_load"
grep -q "lost 0" "$eco_load" \
    || { echo "check.sh: eco load lost responses"; exit 1; }
grep -Eq "eco: [1-9][0-9]* delta jobs  base hits [1-9]" "$eco_load" \
    || { echo "check.sh: no delta job rode the incremental path"; exit 1; }
grep -q "scratch fallbacks 0" "$eco_load" \
    || { echo "check.sh: some delta jobs fell back to scratch"; exit 1; }
# The background persist loop must land the snapshot before any shutdown
# (a killed server never runs destructors), so wait for it, then SIGKILL.
for _ in $(seq 1 100); do
    [ -s "$eco_snap" ] && break
    sleep 0.1
done
[ -s "$eco_snap" ] \
    || { echo "check.sh: cache snapshot not written while server was live"; exit 1; }
kill -9 "$eco_pid" 2>/dev/null || true
wait "$eco_pid" 2>/dev/null || true
[ -s "$eco_snap" ] \
    || { echo "check.sh: cache snapshot lost after SIGKILL"; exit 1; }
cargo run --release -q -p fp-obs --example validate_trace -- "$eco_trace"
grep -Eq '"event":"EcoJob".*"base_hit":true' "$eco_trace" \
    || { echo "check.sh: trace has no EcoJob event with base_hit"; exit 1; }
grep -q '"event":"DeltaApply"' "$eco_trace" \
    || { echo "check.sh: trace has no DeltaApply event"; exit 1; }

# ECO speedup pin: a fresh run of the snapshot's eco leg (one 33-module
# base, single-module-edit deltas solved both ways through an in-process
# engine) must keep the median ECO-vs-scratch solve-time ratio at or
# under 0.5 and the median area within 5% of scratch. The committed
# BENCH_SERVE.json must carry the same leg.
echo "== eco speedup pin (serve_snapshot --eco-only)"
grep -q '"eco": {"modules"' BENCH_SERVE.json \
    || { echo "check.sh: BENCH_SERVE.json has no eco leg"; exit 1; }
fresh_eco="$(cargo run --release -q -p fp-bench --bin serve_snapshot -- --eco-only)"
echo "$fresh_eco"
eco_ratio="$(printf '%s\n' "$fresh_eco" | sed -n 's/.*"median_latency_ratio": \([0-9.]*\).*/\1/p')"
eco_area="$(printf '%s\n' "$fresh_eco" | sed -n 's/.*"median_area_ratio": \([0-9.]*\).*/\1/p')"
[ -n "$eco_ratio" ] && [ -n "$eco_area" ] \
    || { echo "check.sh: --eco-only emitted no ratios"; exit 1; }
awk -v r="$eco_ratio" 'BEGIN { exit !(r <= 0.5) }' \
    || { echo "check.sh: eco latency ratio ${eco_ratio} — past the 0.5 pin"; exit 1; }
awk -v a="$eco_area" 'BEGIN { exit !(a <= 1.05) }' \
    || { echo "check.sh: eco area ratio ${eco_area} — past 5% of scratch"; exit 1; }

echo "check.sh: all green"
