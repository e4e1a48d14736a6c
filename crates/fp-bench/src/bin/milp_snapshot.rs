//! Writes `BENCH_MILP.json`: warm-start and model-strengthening impact on
//! the seeded MILP instance set.
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
//!   `warm throughput / cold throughput`. Both legs record the nodes bound
//!   propagation settled without an LP (`propagated_nodes`). The `warm`
//!   leg, the default configuration, also records the basis
//!   `refactorizations` and `eta_updates` of its node LPs.
//! * `strengthen.off` / `strengthen.on` — probing presolve, coefficient
//!   tightening and root cuts off vs on (warm starts at their default).
//!   Per instance the snapshot records `node_reduction`
//!   (`nodes_off / nodes_on` — how much smaller the tree got) and
//!   `speedup` (`elapsed_off / elapsed_on` — the end-to-end win), with
//!   medians `median_strengthen_node_reduction` and
//!   `median_strengthen_speedup` as headlines.

use fp_bench::instances::seeded_set;
use fp_milp::SolveOptions;
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 3;

struct Measured {
    elapsed_s: f64,
    nodes: usize,
    pivots: usize,
    warm_nodes: usize,
    cold_nodes: usize,
    propagated_nodes: usize,
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
                propagated_nodes: stats.propagated_nodes,
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
    let off_opts = base.with_strengthen(false);

    let mut rows = String::new();
    let mut speedups = Vec::new();
    let mut node_reductions = Vec::new();
    let mut strengthen_speedups = Vec::new();
    for (i, (name, model)) in seeded_set().into_iter().enumerate() {
        let cold = measure(&model, &cold_opts);
        let warm = measure(&model, &warm_opts);
        let off = measure(&model, &off_opts);
        agree(&name, "warm", cold.objective, warm.objective);
        agree(&name, "strengthen-off", cold.objective, off.objective);
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
        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"name\": \"{name}\", \
             \"cold\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"propagated_nodes\": {}, \"nodes_per_s\": {:.1}}}, \
             \"warm\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"warm_nodes\": {}, \"cold_nodes\": {}, \"propagated_nodes\": {}, \
             \"refactorizations\": {}, \"eta_updates\": {}, \"nodes_per_s\": {:.1}}}, \
             \"node_throughput_speedup\": {:.3}, \
             \"strengthen\": {{\
             \"off\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}}}, \
             \"on\": {{\"elapsed_s\": {:.6}, \"nodes\": {}, \"pivots\": {}, \
             \"rows_tightened\": {}, \"binaries_fixed\": {}, \
             \"cuts_added\": {}}}, \
             \"node_reduction\": {:.3}, \"speedup\": {:.3}}}}}",
            cold.elapsed_s,
            cold.nodes,
            cold.pivots,
            cold.propagated_nodes,
            cold_tp,
            warm.elapsed_s,
            warm.nodes,
            warm.pivots,
            warm.warm_nodes,
            warm.cold_nodes,
            warm.propagated_nodes,
            warm.refactorizations,
            warm.eta_updates,
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
            strengthen_speedup
        );
        eprintln!(
            "{name}: cold {:.1} nodes/s ({} pivots), warm {:.1} nodes/s \
             ({} pivots, {}/{} warm, {} settled by propagation, {} refactors, \
             {} etas), speedup {speedup:.2}x",
            cold_tp,
            cold.pivots,
            warm_tp,
            warm.pivots,
            warm.warm_nodes,
            warm.nodes,
            warm.propagated_nodes,
            warm.refactorizations,
            warm.eta_updates
        );
        eprintln!(
            "{name}: strengthen {} -> {} nodes ({node_reduction:.2}x fewer, \
             {} rows tightened, {} fixed, {} cuts), end-to-end \
             {strengthen_speedup:.2}x",
            off.nodes, warm.nodes, warm.rows_tightened, warm.binaries_fixed, warm.cuts_added
        );
    }
    let median_speedup = median(&mut speedups);
    let median_reduction = median(&mut node_reductions);
    let median_strengthen_speedup = median(&mut strengthen_speedups);
    let json = format!(
        "{{\n  \"bench\": \"milp_warm_start\",\n  \"reps\": {REPS},\n  \
         \"median_node_throughput_speedup\": {median_speedup:.3},\n  \
         \"median_strengthen_node_reduction\": {median_reduction:.3},\n  \
         \"median_strengthen_speedup\": {median_strengthen_speedup:.3},\n  \
         \"instances\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!(
        "median node-throughput speedup: {median_speedup:.2}x, median \
         strengthen node reduction: {median_reduction:.2}x, median \
         strengthen speedup: {median_strengthen_speedup:.2}x -> {out_path}"
    );
}
