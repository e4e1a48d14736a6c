//! Regenerates **Table 3** (paper §4, Series 3): ami33 with around-the-cell
//! routing — floorplan adjustment with/without envelopes × routing
//! algorithm (shortest path vs weighted shortest path).
//!
//! "Two techniques were used for providing routing area: 1. Floorplan
//! Adjustment without Envelopes, 2. Floorplan Adjustment with Envelopes.
//! Two routing algorithms were applied: 1. Shortest Path, 2. Weighted
//! Shortest Path. [...] The results support our prediction that the
//! application of envelopes allows us to decrease the chip size."
//!
//! Without envelopes, all routing demand lands in leftover dead space and
//! the post-routing channel adjustment must blow the chip up; with
//! envelopes the space is pre-reserved where the pins are.
//!
//! ```sh
//! cargo run -p fp-bench --release --bin table3
//! ```

use fp_bench::{experiment_config, run_pipeline, secs, Table, EXPERIMENT_PITCH};
use fp_netlist::ami33;
use fp_route::{route, RouteAlgorithm, RouteConfig, RoutingMode};

fn main() {
    let netlist = ami33();
    let mut table = Table::new(
        "Table 3 — ami33, around-the-cell routing (final area after channel adjustment)",
        &[
            "Adjustment",
            "Router",
            "Placed Area",
            "Final Chip Area",
            "Wirelength",
            "Overflowed Edges",
            "Time (s)",
        ],
    );

    let adjustments = [("No Envelopes", false), ("With Envelopes", true)];
    let routers = [
        ("Shortest Path", RouteAlgorithm::ShortestPath),
        ("Weighted SP", RouteAlgorithm::WeightedShortestPath),
    ];

    let mut final_areas = Vec::new();
    for (adj_name, envelopes) in &adjustments {
        let config = experiment_config().with_envelopes(*envelopes);
        let out = run_pipeline(&netlist, &config).expect("pipeline");
        let fp = &out.floorplan;
        for (router_name, algorithm) in &routers {
            let rc = RouteConfig::default()
                .with_mode(RoutingMode::AroundTheCell)
                .with_algorithm(*algorithm)
                .with_pitches(EXPERIMENT_PITCH, EXPERIMENT_PITCH);
            let routing = route(fp, &netlist, &rc).expect("routing");
            final_areas.push(((*adj_name, *router_name), routing.adjustment.final_area()));
            table.add_row(vec![
                (*adj_name).to_string(),
                (*router_name).to_string(),
                format!("{:.0}", fp.chip_area()),
                format!("{:.0}", routing.adjustment.final_area()),
                format!("{:.0}", routing.total_wirelength),
                routing.adjustment.overflowed_edges.to_string(),
                secs(out.stats.elapsed),
            ]);
        }
    }
    table.print();

    let best_no_env = final_areas
        .iter()
        .filter(|((a, _), _)| *a == "No Envelopes")
        .map(|(_, area)| *area)
        .fold(f64::INFINITY, f64::min);
    let best_env = final_areas
        .iter()
        .filter(|((a, _), _)| *a == "With Envelopes")
        .map(|(_, area)| *area)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nenvelope effect on best final chip area: {:.0} -> {:.0} ({:+.1}%)  \
         (paper: envelopes decrease the chip size)",
        best_no_env,
        best_env,
        100.0 * (best_env - best_no_env) / best_no_env
    );
}
