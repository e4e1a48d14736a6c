//! Regenerates **Table 1** (paper §4, Series 1): influence of problem size
//! on execution time.
//!
//! "Problems with 15, 20, and 25 modules were randomly generated and
//! accompanied by the benchmark with 33 modules. Chip area was used as an
//! objective function. [...] execution time grows almost linearly with the
//! problem size."
//!
//! ```sh
//! cargo run -p fp-bench --release --bin table1
//! ```

use fp_bench::{experiment_config, run_pipeline, secs, Table};
use fp_core::StepKind;
use fp_netlist::{ami33, apte9, generator::ProblemGenerator, xerox10, Netlist};

fn main() {
    let mut table = Table::new(
        "Table 1 — problem size vs execution time (objective: chip area)",
        &[
            "Modules",
            "Chip Area",
            "Area Utilisation",
            "Augment Time (s)",
            "Total Time (s)",
            "MILP steps",
            "B&B nodes",
        ],
    );

    // Randomly generated sizes are averaged over three seeds to damp the
    // variance of individual branch-and-bound runs; ami33 is fixed.
    let seeds: Vec<u64> = if fp_bench::quick_mode() {
        vec![1988]
    } else {
        vec![1988, 1989, 1990]
    };
    let mut points: Vec<(usize, f64)> = Vec::new();
    let groups: Vec<Vec<Netlist>> = vec![
        seeds
            .clone()
            .into_iter()
            .map(|s| ProblemGenerator::new(15, s).generate())
            .collect(),
        seeds
            .iter()
            .map(|&s| ProblemGenerator::new(20, s).generate())
            .collect(),
        seeds
            .iter()
            .map(|&s| ProblemGenerator::new(25, s).generate())
            .collect(),
        vec![ami33()],
    ];

    for group in &groups {
        let mut area = 0.0;
        let mut util = 0.0;
        let mut augment = 0.0;
        let mut total = 0.0;
        let mut steps = 0usize;
        let mut nodes = 0usize;
        for netlist in group {
            let out = run_pipeline(netlist, &experiment_config()).expect("pipeline");
            area += out.floorplan.chip_area();
            util += out.floorplan.utilization(netlist);
            total += out.stats.elapsed.as_secs_f64();
            // The augmentation columns count placement steps only; the
            // flow's re-optimization steps belong to the total time.
            for s in out
                .stats
                .steps
                .iter()
                .filter(|s| s.kind == StepKind::Placement)
            {
                augment += s.elapsed.as_secs_f64();
                steps += 1;
            }
            nodes += out.stats.nodes_of_kind(StepKind::Placement);
        }
        let k = group.len() as f64;
        let modules = group[0].num_modules();
        table.add_row(vec![
            modules.to_string(),
            format!("{:.0}", area / k),
            format!("{:.1}%", 100.0 * util / k),
            format!("{:.2}", augment / k),
            format!("{:.2}", total / k),
            format!("{:.1}", steps as f64 / k),
            format!("{:.0}", nodes as f64 / k),
        ]);
        // The paper's linearity claim concerns the augmentation loop; the
        // post-pass ("adjust floorplan") is a roughly constant overhead.
        points.push((modules, augment / k));
    }
    table.print();

    // The paper's claim: time grows ~linearly with module count. Report the
    // per-module augmentation rate; a superlinear blow-up would show as a
    // rising rate.
    println!("\nscaling check (augmentation time per module):");
    for (k, t) in &points {
        println!("  K = {k:>2}: {:.3} s/module", t / *k as f64);
    }
    let first = points.first().map(|(k, t)| t / *k as f64).unwrap_or(0.0);
    let last = points.last().map(|(k, t)| t / *k as f64).unwrap_or(0.0);
    println!(
        "  rate ratio (largest/smallest problem): {:.2} (≈1 ⇒ linear growth, paper's claim)",
        last / first.max(1e-12)
    );

    // Extension beyond the paper: the other MCNC-era benchmark equivalents.
    let mut extended = Table::new(
        "Table 1 (extension) — MCNC-era benchmark equivalents",
        &[
            "Benchmark",
            "Modules",
            "Chip Area",
            "Area Utilisation",
            "Time (s)",
        ],
    );
    for netlist in [apte9(), xerox10()] {
        let out = run_pipeline(&netlist, &experiment_config()).expect("pipeline");
        extended.add_row(vec![
            netlist.name().to_string(),
            netlist.num_modules().to_string(),
            format!("{:.0}", out.floorplan.chip_area()),
            format!("{:.1}%", 100.0 * out.floorplan.utilization(&netlist)),
            secs(out.stats.elapsed),
        ]);
    }
    println!();
    extended.print();
}
