//! End-to-end integration: floorplan → improve → route → adjust, across
//! crates, on generated problems.

use analytical_floorplan::core::{FloorplanConfig, Floorplanner, Objective};
use analytical_floorplan::milp::SolveOptions;
use analytical_floorplan::netlist::generator::ProblemGenerator;
use analytical_floorplan::route::{route, RouteAlgorithm, RouteConfig, RoutingMode};
use std::time::Duration;

fn fast() -> FloorplanConfig {
    FloorplanConfig::default().with_step_options(
        SolveOptions::default()
            .with_node_limit(500)
            .with_time_limit(Duration::from_millis(600)),
    )
}

#[test]
fn pipeline_rigid_modules() {
    let netlist = ProblemGenerator::new(10, 100).generate();
    let result = Floorplanner::with_config(&netlist, fast())
        .with_improvement(2, None)
        .run()
        .unwrap();
    let fp = &result.floorplan;
    assert!(fp.is_valid(), "{:?}", fp.violations());
    assert_eq!(fp.len(), 10);

    let routing = route(fp, &netlist, &RouteConfig::default()).unwrap();
    assert_eq!(routing.routes.len(), netlist.num_nets());
    assert!(routing.total_wirelength > 0.0);
    assert!(routing.adjustment.final_area() >= fp.chip_area() - 1e-6);
}

#[test]
fn pipeline_with_flexible_modules() {
    let netlist = ProblemGenerator::new(9, 200)
        .with_flexible_fraction(0.4)
        .generate();
    let result = Floorplanner::with_config(&netlist, fast()).run().unwrap();
    let fp = &result.floorplan;
    assert!(fp.is_valid(), "{:?}", fp.violations());
    // Flexible modules keep their exact area under the secant model.
    for placed in fp.iter() {
        let module = netlist.module(placed.id);
        if module.is_flexible() {
            assert!(
                (placed.rect.area() - module.area()).abs() < 1e-6,
                "soft module area drifted: {} vs {}",
                placed.rect.area(),
                module.area()
            );
        }
    }
}

#[test]
fn pipeline_with_envelopes_and_routing() {
    let netlist = ProblemGenerator::new(8, 300)
        .with_nets_per_module(3.0)
        .generate();
    let config = fast().with_envelopes(true);
    let result = Floorplanner::with_config(&netlist, config).run().unwrap();
    let fp = &result.floorplan;
    assert!(fp.is_valid());

    // Around-the-cell routing on the enveloped floorplan.
    let routing = route(
        fp,
        &netlist,
        &RouteConfig::default().with_mode(RoutingMode::AroundTheCell),
    )
    .unwrap();
    assert_eq!(routing.routes.len(), netlist.num_nets());
    // Usage bookkeeping is consistent.
    assert_eq!(routing.usage.len(), routing.grid.num_edges());
    let used: f64 = routing.usage.iter().sum();
    assert!(used > 0.0);
}

#[test]
fn determinism_same_seed_same_everything() {
    let run = || {
        let netlist = ProblemGenerator::new(9, 4242).generate();
        // Only the node limit may stop a step: a time limit that binds
        // differs from run to run.
        let opts = fast()
            .step_options
            .with_time_limit(Duration::from_secs(24 * 3600));
        let cfg = fast().with_step_options(opts);
        let result = Floorplanner::with_config(&netlist, cfg).run().unwrap();
        let routing = route(&result.floorplan, &netlist, &RouteConfig::default()).unwrap();
        (
            result.floorplan.chip_area(),
            routing.total_wirelength,
            routing.adjustment.final_area(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn objectives_trade_area_for_wirelength() {
    // Statistical shape over a few seeds: the wirelength objective should
    // reduce estimated wirelength on average versus pure area.
    let mut wl_area = 0.0;
    let mut wl_wire = 0.0;
    for seed in [11u64, 12, 13] {
        let netlist = ProblemGenerator::new(8, seed)
            .with_nets_per_module(3.0)
            .generate();
        let area_fp = Floorplanner::with_config(&netlist, fast().with_objective(Objective::Area))
            .run()
            .unwrap()
            .floorplan;
        let wire_fp = Floorplanner::with_config(
            &netlist,
            fast().with_objective(Objective::AreaPlusWirelength { lambda: 1.0 }),
        )
        .run()
        .unwrap()
        .floorplan;
        wl_area += area_fp.center_wirelength(&netlist);
        wl_wire += wire_fp.center_wirelength(&netlist);
    }
    assert!(
        wl_wire <= wl_area * 1.05,
        "wire objective did not help: {wl_wire} vs {wl_area}"
    );
}

#[test]
fn sp_vs_wsp_final_area_shape() {
    // Table 3 shape: WSP never produces a (meaningfully) larger final chip.
    let netlist = ProblemGenerator::new(10, 500)
        .with_nets_per_module(4.0)
        .generate();
    let result = Floorplanner::with_config(&netlist, fast()).run().unwrap();
    let base = RouteConfig::default().with_mode(RoutingMode::AroundTheCell);
    let sp = route(
        &result.floorplan,
        &netlist,
        &base.clone().with_algorithm(RouteAlgorithm::ShortestPath),
    )
    .unwrap();
    let wsp = route(
        &result.floorplan,
        &netlist,
        &base.with_algorithm(RouteAlgorithm::WeightedShortestPath),
    )
    .unwrap();
    assert!(wsp.adjustment.final_area() <= sp.adjustment.final_area() * 1.02 + 1e-6);
}
