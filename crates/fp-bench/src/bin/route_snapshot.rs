//! Writes `BENCH_ROUTE.json`: the global router (paper §3.2) on
//! floorplans the flow placed.
//!
//! Usage: `route_snapshot [OUT_PATH]` (default `BENCH_ROUTE.json`). Each
//! deck is placed once by the paper's flow at perfbench's options: serial
//! step MILPs capped at 4000 nodes, no time limit, and one improvement
//! round (top re-optimization plus the §2.5 topology LP). The placed
//! floorplan is then routed [`REPS`] times with the default
//! [`RouteConfig`] (weighted shortest path, around the cell).
//!
//! Per deck the snapshot records exact fields, which repeat from run to
//! run and which `scripts/check.sh` diffs against the committed file:
//! grid `cells`, two-pin `segments`, routed wirelength `routed_wl`,
//! `final_area` after channel adjustment and `overflowed_edges`. It also
//! records `route_ms`, the median of the [`REPS`] routing times, which is
//! reported and never compared.

use fp_core::{improve, FloorplanConfig, Floorplanner};
use fp_milp::SolveOptions;
use fp_netlist::{decks, Netlist};
use fp_route::{route, RouteConfig, RouteReport};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Routing repetitions per deck; `route_ms` is their median.
const REPS: usize = 5;

/// The decks: ami33 and scale_flow's three.
fn decks() -> Vec<Netlist> {
    vec![
        fp_netlist::ami33(),
        decks::ami49_class(1),
        decks::gsrc_style(100, 1),
        decks::gsrc_style(130, 1),
    ]
}

/// perfbench's flow options: serial solver, 4000-node steps, no time
/// limit.
fn flow_config() -> FloorplanConfig {
    FloorplanConfig::default().with_step_options(
        SolveOptions::default()
            .with_node_limit(4_000)
            .with_time_limit(Duration::from_secs(24 * 3600))
            .with_threads(1),
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ROUTE.json".to_string());
    let config = flow_config();
    let mut rows = String::new();
    for (i, netlist) in decks().iter().enumerate() {
        let placed = Floorplanner::with_config(netlist, config.clone())
            .run()
            .expect("the flow places every deck");
        let floorplan =
            improve(&placed.floorplan, netlist, &config, 1).expect("improvement keeps a floorplan");
        let mut times = Vec::with_capacity(REPS);
        let mut result = None;
        for _ in 0..REPS {
            let started = Instant::now();
            let routed = route(&floorplan, netlist, &RouteConfig::default()).expect("routable");
            times.push(started.elapsed().as_secs_f64() * 1e3);
            if let Some(first) = &result {
                assert_eq!(first, &routed, "{}: routing must repeat", netlist.name());
            }
            result = Some(routed);
        }
        let routed = result.expect("REPS > 0");
        times.sort_by(f64::total_cmp);
        let route_ms = times[REPS / 2];
        let report = RouteReport::of(&routed);
        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"name\": \"{}\", \"cells\": {}, \"segments\": {}, \
             \"routed_wl\": {}, \"final_area\": {}, \"overflowed_edges\": {}, \
             \"route_ms\": {route_ms:.2}}}",
            netlist.name(),
            routed.grid.num_cells(),
            report.segments,
            report.total_wirelength,
            report.final_area,
            report.overflowed_edges,
        );
        eprintln!(
            "{}: {} cells, {} segments, routed_wl {}, final_area {}, {} overflowed edges, \
             route {route_ms:.2} ms (median of {REPS})",
            netlist.name(),
            routed.grid.num_cells(),
            report.segments,
            report.total_wirelength,
            report.final_area,
            report.overflowed_edges,
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"route\",\n  \"reps\": {REPS},\n  \"decks\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("-> {out_path}");
}
