//! Cross-method sanity: the analytical MILP flow and the Wong-Liu slicing
//! baseline both produce valid floorplans on the same problems and land in
//! the same quality band — the precondition for the `comparison` benchmark
//! binary to be meaningful.

use analytical_floorplan::core::{FloorplanConfig, Floorplanner};
use analytical_floorplan::milp::SolveOptions;
use analytical_floorplan::netlist::generator::ProblemGenerator;
use analytical_floorplan::slicing::SlicingAnnealer;
use std::time::Duration;

fn fast() -> FloorplanConfig {
    FloorplanConfig::default().with_step_options(
        SolveOptions::default()
            .with_node_limit(600)
            .with_time_limit(Duration::from_millis(700)),
    )
}

#[test]
fn both_methods_produce_valid_floorplans() {
    let netlist = ProblemGenerator::new(10, 2024).generate();

    let milp = Floorplanner::with_config(&netlist, fast())
        .with_improvement(2, None)
        .run()
        .unwrap();
    let milp_fp = &milp.floorplan;
    assert!(milp_fp.is_valid());
    assert_eq!(milp_fp.len(), 10);

    let slicing = SlicingAnnealer::new(&netlist).with_seed(2024).run();
    assert!(slicing.floorplan.is_valid());
    assert_eq!(slicing.floorplan.len(), 10);

    // Same quality band: neither method should be wildly worse. (MILP
    // minimizes height at fixed width; slicing minimizes free-form area —
    // compare by utilization.)
    let milp_util = netlist.total_module_area() / milp_fp.chip_area();
    let sa_util = netlist.total_module_area() / slicing.area;
    assert!(milp_util > 0.55, "MILP utilization {milp_util}");
    assert!(sa_util > 0.55, "slicing utilization {sa_util}");
}

#[test]
fn slicing_handles_the_benchmarks() {
    for netlist in [
        analytical_floorplan::netlist::apte9(),
        analytical_floorplan::netlist::xerox10(),
    ] {
        let result = SlicingAnnealer::new(&netlist).run();
        assert!(result.floorplan.is_valid());
        assert_eq!(result.floorplan.len(), netlist.num_modules());
        let util = netlist.total_module_area() / result.area;
        assert!(util > 0.6, "{}: utilization {util}", netlist.name());
    }
}
