//! Regenerates **Table 2** (paper §4, Series 2): ami33 with over-the-cell
//! routing — objective function × module ordering.
//!
//! "Two different objective functions were used: (1) Chip Area and (2)
//! Chip Area + Wire Length. Two different algorithms were used for
//! selecting the order: random, and linear ordering based on connectivity.
//! The best results achieved by this series corresponds to a chip
//! utilization of 96%."
//!
//! Over-the-cell technology means no routing area is reserved (no
//! envelopes); wirelength is measured by the global router in
//! over-the-cell mode on the finished floorplan.
//!
//! ```sh
//! cargo run -p fp-bench --release --bin table2
//! ```

use fp_bench::{experiment_config, run_pipeline, secs, Table, EXPERIMENT_PITCH};
use fp_core::{Objective, OrderingStrategy};
use fp_netlist::ami33;
use fp_route::{route, RouteConfig, RoutingMode};

fn main() {
    let netlist = ami33();
    let mut table = Table::new(
        "Table 2 — ami33, over-the-cell routing (total module area 11520)",
        &[
            "Objective",
            "Ordering",
            "Chip Area",
            "Utilisation",
            "Routed Wirelength",
            "Time (s)",
        ],
    );

    let objectives = [
        ("Area", Objective::Area),
        ("Area+Wire", Objective::AreaPlusWirelength { lambda: 0.5 }),
    ];
    let orderings = [
        ("Random", OrderingStrategy::Random(1988)),
        ("Connectivity", OrderingStrategy::Connectivity),
    ];

    let mut best_util = 0.0_f64;
    for (obj_name, objective) in &objectives {
        for (ord_name, ordering) in &orderings {
            let config = experiment_config()
                .with_objective(*objective)
                .with_ordering(ordering.clone());
            let out = run_pipeline(&netlist, &config).expect("pipeline");
            let fp = &out.floorplan;
            let routing = route(
                fp,
                &netlist,
                &RouteConfig::default()
                    .with_mode(RoutingMode::OverTheCell)
                    .with_pitches(EXPERIMENT_PITCH, EXPERIMENT_PITCH),
            )
            .expect("routing");
            let util = fp.utilization(&netlist);
            best_util = best_util.max(util);
            table.add_row(vec![
                (*obj_name).to_string(),
                (*ord_name).to_string(),
                format!("{:.0}", fp.chip_area()),
                format!("{:.1}%", 100.0 * util),
                format!("{:.0}", routing.total_wirelength),
                secs(out.stats.elapsed),
            ]);
        }
    }
    table.print();
    println!(
        "\nbest utilization this series: {:.1}% (paper's best: 96%)",
        100.0 * best_util
    );
}
