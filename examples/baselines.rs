//! The analytical MILP method vs the prior art it was positioned against:
//! Wong-Liu slicing simulated annealing (paper §2.1, [WON86]) and a
//! constructive bottom-left heuristic.
//!
//! ```sh
//! cargo run --release --example baselines
//! ```

use analytical_floorplan::prelude::*;
use analytical_floorplan::slicing::SlicingAnnealer;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = analytical_floorplan::netlist::xerox10();
    let total = netlist.total_module_area();
    println!(
        "benchmark {}: {} modules, total area {:.0}\n",
        netlist.name(),
        netlist.num_modules(),
        total
    );

    // Analytical MILP (this paper): augment, then improve + compact.
    let config = FloorplanConfig::default();
    let started = Instant::now();
    let milp = Floorplanner::with_config(&netlist, config.clone())
        .with_improvement(4, None)
        .run()?
        .floorplan;
    println!(
        "MILP (analytical):  area {:>7.0}  utilization {:>5.1}%  [{:.2?}]",
        milp.chip_area(),
        100.0 * total / milp.chip_area(),
        started.elapsed()
    );

    // Wong-Liu slicing simulated annealing.
    let started = Instant::now();
    let sa = SlicingAnnealer::new(&netlist).with_seed(7).run();
    println!(
        "Slicing SA [WON86]: area {:>7.0}  utilization {:>5.1}%  [{:.2?}, {} / {} moves accepted]",
        sa.area,
        100.0 * total / sa.area,
        started.elapsed(),
        sa.accepted_moves,
        sa.attempted_moves
    );

    // Constructive bottom-left.
    let started = Instant::now();
    let greedy = bottom_left(&netlist, &config)?;
    println!(
        "Bottom-left greedy: area {:>7.0}  utilization {:>5.1}%  [{:.2?}]",
        greedy.chip_area(),
        100.0 * total / greedy.chip_area(),
        started.elapsed()
    );

    assert!(milp.is_valid() && sa.floorplan.is_valid() && greedy.is_valid());
    Ok(())
}
