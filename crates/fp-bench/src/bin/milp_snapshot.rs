//! Writes `BENCH_MILP.json`: warm-start, model-strengthening and sparse-
//! kernel impact on the seeded MILP instance set.
//!
//! Usage: `milp_snapshot [OUT_PATH]` (default `BENCH_MILP.json`). Each
//! instance is solved under the configurations below, three repetitions
//! each (the reported elapsed time is the median repetition). The search
//! is deterministic and every instance finishes far inside the default
//! time limit, so every count repeats exactly from run to run:
//!
//! * `cold` / `warm` — warm-start off vs on (strengthening at its default)
//!   for the node-throughput comparison; the headline
//!   `median_node_throughput_speedup` is the median over instances of
//!   `warm throughput / cold throughput`.
//! * `strengthen.off` / `strengthen.on` — probing presolve, coefficient
//!   tightening and root cuts off vs on (warm starts at their default).
//!   Per instance the snapshot records `node_reduction`
//!   (`nodes_off / nodes_on` — how much smaller the tree got) and
//!   `speedup` (`elapsed_off / elapsed_on` — the end-to-end win), with
//!   medians `median_strengthen_node_reduction` and
//!   `median_strengthen_speedup` as headlines.
//! * `sparse.dense` / `sparse.sparse` — dense reference tableau vs the
//!   default sparse revised kernel, everything else at its default. Per
//!   instance the snapshot records `pivot_time_speedup` (dense seconds per
//!   pivot / sparse seconds per pivot) and `speedup` (dense elapsed /
//!   sparse elapsed), with `median_sparse_pivot_time_speedup` and
//!   `median_sparse_speedup` as headlines. The sparse leg reuses the
//!   `warm` measurement (warm starts and strengthening both default on the
//!   default kernel), so only the dense leg solves again. Each instance
//!   also records `auto_kernel` — which kernel the default
//!   `SparseMode::Auto` policy resolves to for its dimensions.

use fp_bench::instances::seeded_set;
use fp_milp::{SolveOptions, SparseMode};
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 3;

struct Measured {
    elapsed_s: f64,
    nodes: usize,
    pivots: usize,
    warm_nodes: usize,
    cold_nodes: usize,
    rows_tightened: usize,
    binaries_fixed: usize,
    cuts_added: usize,
    refactorizations: usize,
    eta_updates: usize,
    objective: f64,
}

fn measure(model: &fp_milp::Model, opts: &SolveOptions) -> Measured {
    let mut runs: Vec<Measured> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let sol = model.solve_with(opts).expect("feasible by construction");
            let elapsed_s = started.elapsed().as_secs_f64();
            let stats = sol.stats();
            Measured {
                elapsed_s,
                nodes: stats.nodes,
                pivots: stats.simplex_iterations,
                warm_nodes: stats.warm_nodes,
                cold_nodes: stats.cold_nodes,
                rows_tightened: stats.rows_tightened,
                binaries_fixed: stats.binaries_fixed,
                cuts_added: stats.cuts_added,
                refactorizations: stats.refactorizations,
                eta_updates: stats.eta_updates,
                objective: sol.objective(),
            }
        })
        .collect();
    runs.sort_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s));
    runs.swap_remove(REPS / 2)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    values[values.len() / 2]
}

fn agree(name: &str, what: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
        "{name}: {what} objective {b} != {a}"
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_MILP.json".to_string());
    let base = SolveOptions::default().with_node_limit(200_000);
    let cold_opts = base.clone().with_warm_start(false);
    let warm_opts = base.clone();
    let off_opts = base.clone().with_strengthen(false);
    let dense_opts = base.with_sparse(false);

    let mut rows = String::new();
    let mut speedups = Vec::new();
    let mut node_reductions = Vec::new();
    let mut strengthen_speedups = Vec::new();
    let mut sparse_pivot_speedups = Vec::new();
    let mut sparse_speedups = Vec::new();
    for (i, (name, model)) in seeded_set().into_iter().enumerate() {
        let cold = measure(&model, &cold_opts);
        let warm = measure(&model, &warm_opts);
        let off = measure(&model, &off_opts);
        let dense = measure(&model, &dense_opts);
        agree(&name, "warm", cold.objective, warm.objective);
        agree(&name, "strengthen-off", cold.objective, off.objective);
        agree(&name, "dense", cold.objective, dense.objective);
        let cold_tp = cold.nodes as f64 / cold.elapsed_s.max(1e-12);
        let warm_tp = warm.nodes as f64 / warm.elapsed_s.max(1e-12);
        let speedup = warm_tp / cold_tp.max(1e-12);
        speedups.push(speedup);
        // `warm` is the strengthen-on leg: both legs keep warm starts at
        // their default so the comparison isolates the strengthening layer.
        let node_reduction = off.nodes as f64 / (warm.nodes as f64).max(1.0);
        let strengthen_speedup = off.elapsed_s / warm.elapsed_s.max(1e-12);
        node_reductions.push(node_reduction);
        strengthen_speedups.push(strengthen_speedup);
        // Dense vs sparse: `warm` is the default-configuration leg and the
        // default kernel is sparse, so it doubles as the sparse leg.
        let dense_ppt = dense.elapsed_s / (dense.pivots as f64).max(1.0);
        let sparse_ppt = warm.elapsed_s / (warm.pivots as f64).max(1.0);
        let sparse_pivot_speedup = dense_ppt / sparse_ppt.max(1e-12);
        let sparse_speedup = dense.elapsed_s / warm.elapsed_s.max(1e-12);
        // Which kernel the default `SparseMode::Auto` picks for this
        // instance (resolved from the model's own dimensions; presolve may
        // shrink them slightly, but the verdict is the same either way).
        let auto_kernel = if SparseMode::Auto.resolve(model.num_constraints(), model.num_vars()) {
            "sparse"
        } else {
            "dense"
        };
        sparse_pivot_speedups.push(sparse_pivot_speedup);
        sparse_speedups.push(sparse_speedup);
        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"name\": \"{name}\", \
             \"cold\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"nodes_per_s\": {:.1}}}, \
             \"warm\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"warm_nodes\": {}, \"cold_nodes\": {}, \"nodes_per_s\": {:.1}}}, \
             \"node_throughput_speedup\": {:.3}, \
             \"strengthen\": {{\
             \"off\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}}}, \
             \"on\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"rows_tightened\": {}, \"binaries_fixed\": {}, \
             \"cuts_added\": {}}}, \
             \"node_reduction\": {:.3}, \"speedup\": {:.3}}}, \
             \"sparse\": {{\
             \"dense\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"s_per_pivot\": {:.9}}}, \
             \"sparse\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"refactorizations\": {}, \"eta_updates\": {}, \
             \"s_per_pivot\": {:.9}}}, \
             \"pivot_time_speedup\": {:.3}, \"speedup\": {:.3}, \
             \"auto_kernel\": \"{auto_kernel}\"}}}}",
            cold.elapsed_s,
            cold.nodes,
            cold.pivots,
            cold_tp,
            warm.elapsed_s,
            warm.nodes,
            warm.pivots,
            warm.warm_nodes,
            warm.cold_nodes,
            warm_tp,
            speedup,
            off.elapsed_s,
            off.nodes,
            off.pivots,
            warm.elapsed_s,
            warm.nodes,
            warm.pivots,
            warm.rows_tightened,
            warm.binaries_fixed,
            warm.cuts_added,
            node_reduction,
            strengthen_speedup,
            dense.elapsed_s,
            dense.nodes,
            dense.pivots,
            dense_ppt,
            warm.elapsed_s,
            warm.nodes,
            warm.pivots,
            warm.refactorizations,
            warm.eta_updates,
            sparse_ppt,
            sparse_pivot_speedup,
            sparse_speedup
        );
        eprintln!(
            "{name}: cold {:.1} nodes/s ({} pivots), warm {:.1} nodes/s \
             ({} pivots, {}/{} warm), speedup {speedup:.2}x",
            cold_tp, cold.pivots, warm_tp, warm.pivots, warm.warm_nodes, warm.nodes
        );
        eprintln!(
            "{name}: strengthen {} -> {} nodes ({node_reduction:.2}x fewer, \
             {} rows tightened, {} fixed, {} cuts), end-to-end \
             {strengthen_speedup:.2}x",
            off.nodes, warm.nodes, warm.rows_tightened, warm.binaries_fixed, warm.cuts_added
        );
        eprintln!(
            "{name}: dense {:.0} ns/pivot vs sparse {:.0} ns/pivot \
             ({sparse_pivot_speedup:.2}x, {} refactors, {} etas), \
             end-to-end {sparse_speedup:.2}x, auto -> {auto_kernel}",
            dense_ppt * 1e9,
            sparse_ppt * 1e9,
            warm.refactorizations,
            warm.eta_updates
        );
    }
    let median_speedup = median(&mut speedups);
    let median_reduction = median(&mut node_reductions);
    let median_strengthen_speedup = median(&mut strengthen_speedups);
    let median_sparse_pivot = median(&mut sparse_pivot_speedups);
    let median_sparse_speedup = median(&mut sparse_speedups);
    let json = format!(
        "{{\n  \"bench\": \"milp_warm_start\",\n  \"reps\": {REPS},\n  \
         \"median_node_throughput_speedup\": {median_speedup:.3},\n  \
         \"median_strengthen_node_reduction\": {median_reduction:.3},\n  \
         \"median_strengthen_speedup\": {median_strengthen_speedup:.3},\n  \
         \"median_sparse_pivot_time_speedup\": {median_sparse_pivot:.3},\n  \
         \"median_sparse_speedup\": {median_sparse_speedup:.3},\n  \
         \"instances\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!(
        "median node-throughput speedup: {median_speedup:.2}x, median \
         strengthen node reduction: {median_reduction:.2}x, median \
         strengthen speedup: {median_strengthen_speedup:.2}x, median \
         sparse pivot-time speedup: {median_sparse_pivot:.2}x, median \
         sparse end-to-end speedup: {median_sparse_speedup:.2}x -> {out_path}"
    );
}
