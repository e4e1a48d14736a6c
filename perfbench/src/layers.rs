//! Per-layer counters and timings of a traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! layer's public functions, and counts come from the stats those
//! functions return; nothing inside the program is instrumented.

use crate::metrics::{share, Metrics, Samples};
use fp_core::{RunStats, StepKind, StepOutcome};
use std::fmt::Write as _;
use std::time::Duration;

/// Accumulated per-layer numbers of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub milp_nodes: u64,
    pub milp_pivots: u64,
    pub milp_warm: u64,
    pub milp_cold: u64,
    pub milp_refactorizations: u64,
    pub milp_node_limited_steps: u64,
    /// Σ `StepStats::elapsed` over every step MILP.
    pub milp_step: Duration,
    /// `Floorplanner::run`.
    pub augment: Duration,
    /// `improve_traced` minus its Reoptimize steps: the §2.5 topology LP.
    pub compact: Duration,
    pub steps: u64,
    pub obstacles: u64,
    /// `fp_route::route` (routing plus channel adjustment).
    pub route: Duration,
    pub overflowed_edges: u64,
    /// Flow jobs these sums cover.
    pub flow_jobs: u64,
    pub parse: Samples,
    pub decode: Samples,
    pub canonical: Samples,
    pub encode: Samples,
    pub io: Samples,
    pub delta: Samples,
    pub eco_replace: Samples,
    pub eco_jobs: u64,
    pub eco_base_hits: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub violations: Samples,
    /// Wall time of the timed jobs without and with the per-layer spans.
    pub untraced: Duration,
    pub traced: Duration,
}

impl Layers {
    /// Folds the step statistics of one augmentation + improvement run.
    pub fn add_run(&mut self, stats: &RunStats) {
        for s in &stats.steps {
            self.milp_nodes += s.nodes as u64;
            self.milp_pivots += s.simplex_iterations as u64;
            self.milp_warm += s.warm_nodes as u64;
            self.milp_cold += s.cold_nodes as u64;
            self.milp_refactorizations += s.refactorizations as u64;
            self.milp_node_limited_steps += u64::from(s.outcome != StepOutcome::Optimal);
            self.milp_step += s.elapsed;
            self.steps += 1;
            self.obstacles += s.obstacles as u64;
        }
    }

    /// Adds the service spans and ECO counts another traced client took.
    pub fn absorb(&mut self, other: Layers) {
        for (into, from) in [
            (&mut self.decode, other.decode),
            (&mut self.parse, other.parse),
            (&mut self.canonical, other.canonical),
            (&mut self.encode, other.encode),
            (&mut self.io, other.io),
            (&mut self.delta, other.delta),
            (&mut self.eco_replace, other.eco_replace),
            (&mut self.violations, other.violations),
        ] {
            into.extend(from);
        }
        self.eco_jobs += other.eco_jobs;
        self.eco_base_hits += other.eco_base_hits;
    }

    /// Σ elapsed of the Reoptimize steps in `stats`.
    pub fn reoptimize_time(stats: &RunStats) -> Duration {
        stats
            .steps
            .iter()
            .filter(|s| s.kind == StepKind::Reoptimize)
            .map(|s| s.elapsed)
            .sum()
    }

    /// Emits every per-layer metric and returns the layer table, each
    /// timed layer with its share of the traced job time.
    pub fn emit(&self, out: &mut Metrics) -> String {
        let per_job = |d: Duration| share(d.as_secs_f64() * 1e3, self.flow_jobs as f64);
        let overhead_pct =
            100.0 * (share(self.traced.as_secs_f64(), self.untraced.as_secs_f64()) - 1.0).max(-1.0);
        let rows: [(&'static str, &'static str, f64, Option<f64>); 22] = [
            ("milp.nodes", "count", self.milp_nodes as f64, None),
            ("milp.pivots", "count", self.milp_pivots as f64, None),
            (
                "milp.warm_share",
                "ratio",
                share(
                    self.milp_warm as f64,
                    (self.milp_warm + self.milp_cold) as f64,
                ),
                None,
            ),
            (
                "milp.refactorizations",
                "count",
                self.milp_refactorizations as f64,
                None,
            ),
            (
                "milp.node_limited_steps",
                "count",
                self.milp_node_limited_steps as f64,
                None,
            ),
            (
                "milp.step_ms",
                "ms",
                per_job(self.milp_step),
                Some(self.milp_step.as_secs_f64() * 1e3),
            ),
            (
                "core.augment_ms",
                "ms",
                per_job(self.augment),
                Some(self.augment.as_secs_f64() * 1e3),
            ),
            (
                "core.compact_ms",
                "ms",
                per_job(self.compact),
                Some(self.compact.as_secs_f64() * 1e3),
            ),
            (
                "core.obstacles_mean",
                "count",
                share(self.obstacles as f64, self.steps as f64),
                None,
            ),
            (
                "route.route_ms",
                "ms",
                per_job(self.route),
                Some(self.route.as_secs_f64() * 1e3),
            ),
            (
                "route.overflowed_edges",
                "count",
                self.overflowed_edges as f64,
                None,
            ),
            (
                "netlist.parse_ms",
                "ms",
                self.parse.median(),
                Some(self.parse.sum()),
            ),
            (
                "serve.decode_us",
                "us",
                1e3 * self.decode.median(),
                Some(self.decode.sum()),
            ),
            (
                "serve.canonical_us",
                "us",
                1e3 * self.canonical.median(),
                Some(self.canonical.sum()),
            ),
            (
                "serve.encode_us",
                "us",
                1e3 * self.encode.median(),
                Some(self.encode.sum()),
            ),
            ("serve.io_ms", "ms", self.io.median(), Some(self.io.sum())),
            (
                "serve.delta_us",
                "us",
                1e3 * self.delta.median(),
                Some(self.delta.sum()),
            ),
            (
                "serve.eco_replace_ms",
                "ms",
                self.eco_replace.median(),
                Some(self.eco_replace.sum()),
            ),
            (
                "serve.eco_base_hit_share",
                "ratio",
                share(self.eco_base_hits as f64, self.eco_jobs as f64),
                None,
            ),
            (
                "serve.cache_hit_share",
                "ratio",
                share(self.cache_hits as f64, self.cache_lookups as f64),
                None,
            ),
            (
                "core.violations_ms",
                "ms",
                self.violations.median(),
                Some(self.violations.sum()),
            ),
            ("trace.overhead_pct", "%", overhead_pct, None),
        ];
        let job_ms = self.traced.as_secs_f64() * 1e3;
        let mut table = format!(
            "{:<26} {:>14} {:<6} {:>8}\n",
            "layer metric", "value", "unit", "share"
        );
        for (name, unit, value, total_ms) in rows {
            out.push(name, unit, value);
            let pct = total_ms.map_or(String::new(), |t| {
                format!("{:.1}%", 100.0 * share(t, job_ms))
            });
            let _ = writeln!(table, "{name:<26} {value:>14.4} {unit:<6} {pct:>8}");
        }
        let _ = writeln!(
            table,
            "shares are of {job_ms:.1} ms traced job time; untraced twin {:.1} ms",
            self.untraced.as_secs_f64() * 1e3
        );
        table
    }
}
