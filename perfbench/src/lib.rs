//! End-to-end and per-layer benchmark of the floorplanning flow.
//!
//! One process generates every input from a seed, runs a fixed list of
//! jobs through the public APIs of `fp-netlist`, `fp-core`, `fp-milp`,
//! `fp-route` and `fp-serve`, checks every answer with its own legality
//! checker ([`check`]), and reports named metrics with units. See
//! `NOTES.md` next to this package for why each workload exists and which
//! layer metric moves which end-to-end metric.
//!
//! Batch timings are reported at the nominal speed of a fixed calibration
//! kernel timed in the same run ([`speed`]), so minutes-long slow spells
//! of a shared host do not read as slow code.
//!
//! Every solve is serial (`threads = 1`) with time limits that never bind
//! and no deadlines, so only node limits end a search and a job's answer is
//! a pure function of its input.

pub mod batch;
pub mod check;
pub mod layers;
pub mod metrics;
pub mod serve;
pub mod speed;

use metrics::Metrics;
use std::time::Duration;

/// A time limit long enough never to bind: searches end on node limits.
pub const NEVER: Duration = Duration::from_secs(24 * 3600);

/// Branch-and-bound node limit per step MILP (fp-serve's default).
pub const NODE_LIMIT: usize = 4_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's flow on ami33, apte9, xerox10 and the Table-1 decks.
    PaperFlow,
    /// The same flow on 49- to 130-module scale decks.
    ScaleFlow,
    /// fp-serve over loopback TCP: fresh misses, cache hits, ECO edits.
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperFlow, Workload::ScaleFlow, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlow => "paper_flow",
            Workload::ScaleFlow => "scale_flow",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal length of the timed phase. It sizes the job list; the list
    /// itself is never cut short by the clock.
    pub seconds: u64,
    /// Per-layer (traced) run instead of an end-to-end run.
    pub trace: bool,
    /// Small decks and short lists, for the harness's own tests.
    pub tiny: bool,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable summary, printed before the result line.
    pub report: String,
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (a deck that does not
/// solve, a server that does not bind).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::PaperFlow | Workload::ScaleFlow => batch::run(opts),
        Workload::ServeMix => serve::run(opts),
    }
}

/// SplitMix64: the harness's seeded choices (job order, ECO edits).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A single-module ECO delta script: a random module becomes a rigid,
/// rotatable block shrunk by a random factor in each dimension, so it
/// always fits where the original did.
pub fn shrink_edit(netlist: &fp_netlist::Netlist, rng: &mut Rng) -> String {
    let ids = netlist.module_ids();
    let m = netlist.module(ids[rng.below(ids.len())]);
    let (w, h) = match *m.shape() {
        fp_netlist::Shape::Rigid { w, h } => (w, h),
        fp_netlist::Shape::Flexible { area, .. } => (area.sqrt(), area.sqrt()),
    };
    // Two decimals keep the script short and the edited dimensions exact.
    let scale = |v: f64, f: f64| ((v * f * 100.0).floor() / 100.0).max(0.01);
    let (w, h) = (
        scale(w, rng.range(0.7, 0.99)),
        scale(h, rng.range(0.7, 0.99)),
    );
    format!("mod! {} rigid {w} {h} rot", m.name())
}
