//! Baseline comparison (beyond the paper's tables, but implied by its
//! §2.1): the analytical MILP floorplanner vs the prior-art Wong-Liu
//! slicing annealer vs a constructive bottom-left heuristic, on the same
//! benchmarks.
//!
//! The paper's pitch is that a non-slicing analytical method beats
//! slicing-restricted search; this binary measures exactly that claim on
//! our benchmark equivalents.
//!
//! ```sh
//! cargo run -p fp-bench --release --bin comparison
//! ```

use fp_bench::{experiment_config, run_pipeline, secs, Table};
use fp_core::bottom_left;
use fp_netlist::{ami33, apte9, generator::ProblemGenerator, xerox10, Netlist};
use fp_slicing::SlicingAnnealer;
use std::time::Instant;

fn main() {
    let mut table = Table::new(
        "Comparison — analytical MILP vs Wong-Liu slicing SA vs bottom-left greedy",
        &[
            "Benchmark",
            "Method",
            "Chip Area",
            "Utilisation",
            "Wirelength (est)",
            "Time (s)",
        ],
    );

    let problems: Vec<Netlist> = vec![
        ProblemGenerator::new(15, 1988).generate(),
        apte9(),
        xerox10(),
        ami33(),
    ];

    for netlist in &problems {
        let total = netlist.total_module_area();

        // 1. Analytical MILP pipeline (augment -> improve -> compaction).
        let out = run_pipeline(netlist, &experiment_config()).expect("pipeline");
        table.add_row(vec![
            netlist.name().to_string(),
            "MILP (this paper)".to_string(),
            format!("{:.0}", out.floorplan.chip_area()),
            format!("{:.1}%", 100.0 * total / out.floorplan.chip_area()),
            format!("{:.0}", out.floorplan.center_wirelength(netlist)),
            secs(out.stats.elapsed),
        ]);

        // 2. Wong-Liu slicing simulated annealing [WON86].
        let started = Instant::now();
        let slicing = SlicingAnnealer::new(netlist).with_seed(1988).run();
        assert!(slicing.floorplan.is_valid());
        table.add_row(vec![
            netlist.name().to_string(),
            "Slicing SA [WON86]".to_string(),
            format!("{:.0}", slicing.area),
            format!("{:.1}%", 100.0 * total / slicing.area),
            format!("{:.0}", slicing.floorplan.center_wirelength(netlist)),
            secs(started.elapsed()),
        ]);

        // 3. Constructive bottom-left greedy.
        let started = Instant::now();
        let greedy = bottom_left(netlist, &experiment_config()).expect("fits");
        table.add_row(vec![
            netlist.name().to_string(),
            "Bottom-left greedy".to_string(),
            format!("{:.0}", greedy.chip_area()),
            format!("{:.1}%", 100.0 * total / greedy.chip_area()),
            format!("{:.0}", greedy.center_wirelength(netlist)),
            secs(started.elapsed()),
        ]);
    }
    table.print();
}
