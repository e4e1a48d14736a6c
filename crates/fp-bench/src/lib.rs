//! Shared harness for the experiment binaries (`table1`, `table2`,
//! `table3`, `figures`) and the Criterion benches.
//!
//! Each binary regenerates one table or figure of the paper's §4
//! evaluation; `EXPERIMENTS.md` at the workspace root records paper-vs-
//! measured values. The helpers here keep the binaries small and the
//! configurations consistent across experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instances;

use fp_core::{FloorplanConfig, FloorplanError, FloorplanResult, Floorplanner};
use fp_netlist::Netlist;
use std::time::Duration;

/// The solver budget used by all experiments: generous enough that nearly
/// every augmentation step solves to proven optimality at ami33 scale.
#[must_use]
pub fn experiment_step_options() -> fp_milp::SolveOptions {
    if quick_mode() {
        return fp_milp::SolveOptions::default()
            .with_node_limit(3_000)
            .with_time_limit(Duration::from_secs(2));
    }
    fp_milp::SolveOptions::default()
        .with_node_limit(20_000)
        .with_time_limit(Duration::from_secs(8))
}

/// Whether the `FP_BENCH_QUICK` environment variable asks for reduced
/// solver budgets (useful on small machines / CI; results keep their shape
/// at somewhat lower utilization).
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var_os("FP_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// The base experiment configuration (area objective, connectivity
/// ordering, tight 95% width target); experiments override what they vary.
#[must_use]
pub fn experiment_config() -> FloorplanConfig {
    let mut config = FloorplanConfig::default()
        .with_step_options(experiment_step_options())
        .with_pitches(EXPERIMENT_PITCH, EXPERIMENT_PITCH);
    config.target_utilization = 0.95;
    config
}

/// Routing-track pitch used across the experiments (both for §3.2 envelope
/// sizing and for the router's capacities): fine enough that a
/// pin-proportional margin carries one track per pin.
pub const EXPERIMENT_PITCH: f64 = 0.05;

/// The relaxed budget used by the post-pass improvement MILPs: the top
/// re-optimization works on `2·(covering rects)`-sized disjunctions, so it
/// needs a larger binary allowance than the per-step formulation.
#[must_use]
pub fn improve_config(base: &FloorplanConfig) -> FloorplanConfig {
    let mut config = base.clone();
    config.max_binaries = 150;
    // Sub-second step budgets mean a debug/test run: inherit them. Real
    // experiment budgets get the full 15 s the improvement MILPs need.
    let time_limit = if quick_mode() {
        Duration::from_secs(3)
    } else if base.step_options.time_limit < Duration::from_secs(2) {
        base.step_options.time_limit
    } else {
        Duration::from_secs(15)
    };
    config.step_options = fp_milp::SolveOptions::default()
        .with_node_limit(60_000)
        .with_time_limit(time_limit);
    // Improvement accepts on height/packing, so a wirelength term in the
    // improvement MILPs only slows branch-and-bound down.
    config.objective = fp_core::Objective::Area;
    config
}

/// Runs the paper's flow, augmentation then the "adjust floorplan" step
/// (Fig. 3 line 13: top re-optimization + the §2.5 topology LP, 6 rounds
/// or 3 in quick mode under [`improve_config`]), and validates the result.
///
/// # Errors
///
/// Propagates [`FloorplanError`] from the floorplanner.
///
/// # Panics
///
/// Panics if the produced floorplan violates its invariants — experiments
/// must never report numbers from an invalid placement.
pub fn run_pipeline(
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<FloorplanResult, FloorplanError> {
    let rounds = if quick_mode() { 3 } else { 6 };
    let result = Floorplanner::with_config(netlist, config.clone())
        .with_improvement(rounds, Some(improve_config(config)))
        .run()?;
    assert!(
        result.floorplan.is_valid(),
        "invalid floorplan: {:?}",
        result.floorplan.violations()
    );
    Ok(result)
}

/// A plain-text table printer that mirrors the paper's table layout.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a duration in seconds with 2 decimals (the paper reports
/// minutes on a 4-MIPS Apollo; we report host seconds).
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::generator::ProblemGenerator;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["K", "Area"]);
        t.add_row(vec!["15".into(), "4000".into()]);
        t.add_row(vec!["33".into(), "13923".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| 15 |"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn pipeline_runs_and_validates() {
        let nl = ProblemGenerator::new(6, 5).generate();
        let cfg = FloorplanConfig::default().with_step_options(
            fp_milp::SolveOptions::default()
                .with_node_limit(300)
                .with_time_limit(Duration::from_millis(400)),
        );
        let out = run_pipeline(&nl, &cfg).unwrap();
        assert_eq!(out.floorplan.len(), 6);
        assert!(out.stats.elapsed > Duration::ZERO);
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
    }
}
