//! Typed trace events and their JSON rendering.

/// Which pipeline stage emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Inside a MILP solve (`fp-milp` branch-and-bound).
    Solver,
    /// The successive-augmentation driver (`fp-core::Floorplanner`).
    Augment,
    /// Post-augmentation improvement (`fp-core::improve`).
    Improve,
    /// Global routing and channel adjustment (`fp-route`).
    Route,
    /// The floorplanning service (`fp-serve`): job lifecycle and the
    /// fingerprint solution cache.
    Serve,
}

impl Phase {
    /// Every phase; a trace line's `phase` must name one of them.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::Solver,
        Phase::Augment,
        Phase::Improve,
        Phase::Route,
        Phase::Serve,
    ];

    /// Stable lowercase name used in JSONL output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Solver => "solver",
            Phase::Augment => "augment",
            Phase::Improve => "improve",
            Phase::Route => "route",
            Phase::Serve => "serve",
        }
    }
}

/// How a driver-level MILP step terminated (mirrors
/// `fp_core::StepOutcome` without depending on it — `fp-obs` sits below
/// every other crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepTermination {
    /// Solved to proven optimality.
    Optimal,
    /// A limit bound; the best incumbent was used.
    Incumbent,
    /// The solver produced nothing usable; greedy placement stood in.
    GreedyFallback,
}

impl StepTermination {
    /// Stable name used in JSONL output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StepTermination::Optimal => "optimal",
            StepTermination::Incumbent => "incumbent",
            StepTermination::GreedyFallback => "greedy_fallback",
        }
    }
}

/// One structured trace event.
///
/// Every variant is cheap to construct; emitters behind a disabled
/// [`Tracer`](crate::Tracer) pay only an `Option` check. A new variant
/// needs an arm in `Event::encode`, which names it and renders its fields
/// on a trace line, and a row in the schema table that
/// [`validate_line`](crate::validate_line) checks lines against.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A MILP solve began (`binaries` integral variables, `constraints`
    /// rows after presolve row filtering).
    SolveStart {
        /// Integral (binary + general integer) variables in the model.
        binaries: usize,
        /// Constraint rows handed to the search.
        constraints: usize,
    },
    /// The root LP relaxation solved to optimality.
    RootLp {
        /// Relaxation objective in the model's own sense.
        objective: f64,
    },
    /// One branch-and-bound node was claimed, and either its LP
    /// relaxation was solved or bound propagation settled it.
    BnbNode {
        /// Depth of the node in the search tree (root = 0).
        depth: usize,
        /// Whether the node's LP was warm-started from the parent's basis
        /// (dual simplex) rather than solved by the cold two-phase primal.
        warm: bool,
        /// Simplex pivots spent on this node's LP, wasted warm pivots
        /// included on cold fallbacks.
        pivots: u64,
        /// Basis LU (re)factorizations this node's LP performed.
        refactors: u64,
        /// Eta-file basis updates recorded between refactorizations on
        /// this node's LP.
        etas: u64,
        /// Whether bound propagation proved that the node's box holds no
        /// integer point, so no LP ran: `warm` is then `false` and every
        /// count is 0.
        propagated: bool,
    },
    /// A new incumbent was installed. Within one solve these are emitted
    /// in improvement order, so the objective sequence is monotone
    /// (decreasing when minimizing, increasing when maximizing).
    Incumbent {
        /// Incumbent objective in the model's own sense.
        objective: f64,
    },
    /// Root presolve and model strengthening finished (emitted once per
    /// MILP solve, before any branch-and-bound node).
    Presolve {
        /// Classic presolve fixpoint passes run.
        passes: usize,
        /// Rows whose big-M / binary coefficients were tightened.
        rows_tightened: usize,
        /// Binaries fixed by 0-1 probing.
        binaries_fixed: usize,
        /// Binary implications harvested by probing.
        implications: usize,
    },
    /// One root cut-separation round added cutting planes to the LP
    /// (round 0 is the unconditional implication-logic round).
    CutRound {
        /// Zero-based separation round index.
        round: usize,
        /// Cuts appended in this round.
        cuts: usize,
    },
    /// A MILP solve finished (also emitted when the solve errors; node
    /// counts then reflect the work done before the error).
    SolveEnd {
        /// Branch-and-bound nodes expanded.
        nodes: usize,
        /// Total simplex pivots.
        simplex_iterations: usize,
        /// Whether the search proved its answer (optimum or infeasible).
        proven: bool,
    },
    /// Terminal outcome of one augmentation step — emitted exactly once
    /// per step by the successive-augmentation driver.
    AugmentStep {
        /// Zero-based step index in execution order.
        step: usize,
        /// Modules placed in this step.
        group: usize,
        /// Covering rectangles the partial floorplan collapsed to.
        obstacles: usize,
        /// 0-1 variables in the step MILP.
        binaries: usize,
        /// Branch-and-bound nodes the step's solve expanded.
        nodes: usize,
        /// How the step concluded.
        outcome: StepTermination,
    },
    /// An augmentation or improvement step fell back to greedy placement
    /// (marker event; the terminal [`Event::AugmentStep`] carries the
    /// same fact in its `outcome`).
    GreedyFallback {
        /// Step index the fallback happened in.
        step: usize,
    },
    /// One round of the improvement loop finished.
    ImproveRound {
        /// Zero-based round index.
        round: usize,
        /// Whether the round's candidate was accepted.
        accepted: bool,
        /// Chip height after the round.
        height: f64,
    },
    /// Global routing began.
    RouteStart {
        /// Nets to route.
        nets: usize,
        /// Cells in the channel position graph.
        cells: usize,
        /// Edges in the channel position graph.
        edges: usize,
    },
    /// One net was routed.
    RouteNet {
        /// Net index (the index of an `fp_netlist::NetId`).
        net: usize,
        /// Routed length.
        length: f64,
        /// Two-pin segments the net decomposed into.
        segments: usize,
    },
    /// Channel widths were adjusted after routing (paper §3.2 last step).
    ChannelAdjust {
        /// Total extra width added across columns.
        extra_width: f64,
        /// Total extra height added across rows.
        extra_height: f64,
        /// Edges routed beyond their preliminary capacity.
        overflowed_edges: usize,
    },
    /// A named span of work completed.
    Span {
        /// Span name (static, from the instrumentation site).
        name: &'static str,
        /// Elapsed wall time in microseconds.
        micros: u64,
    },
    /// A service job's instance fingerprint was found in the solution
    /// cache (`fp-serve`): the job is answered without a MILP solve.
    CacheHit {
        /// Canonical FNV-1a instance fingerprint (rendered as fixed-width
        /// hex in JSONL so all 64 bits survive the f64 number type).
        key: u64,
    },
    /// A service job's instance fingerprint was absent from the solution
    /// cache (`fp-serve`): the full pipeline runs.
    CacheMiss {
        /// Canonical FNV-1a instance fingerprint.
        key: u64,
    },
    /// A service job finished and its response was handed back
    /// (`fp-serve`). Emitted exactly once per job, including failures.
    JobDone {
        /// Client-assigned job id.
        id: u64,
        /// Service time in microseconds, measured from job submission
        /// (queue wait included).
        micros: u64,
        /// Whether the job exceeded its budget and degraded to the greedy
        /// skyline placement (or to a partially-greedy run).
        degraded: bool,
        /// Whether the response came from the solution cache.
        cached: bool,
    },
    /// A service job joined an identical in-flight solve instead of
    /// queueing its own (`fp-serve` single-flight coalescing): the job
    /// will be answered by the leader's result when it lands.
    Coalesced {
        /// Canonical FNV-1a instance fingerprint shared with the leader.
        key: u64,
    },
    /// A service job was load-shed at admission (`fp-serve`): the queue
    /// was full, so the job was answered immediately with a typed
    /// `retry_after_ms` hint instead of being accepted.
    Shed {
        /// Jobs queued (or in flight) when the shed decision was made.
        queued: usize,
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// One event-loop shard's lifetime accounting, emitted when the shard
    /// drains and exits (`fp-serve` sharded server shutdown).
    ShardStats {
        /// Zero-based shard index.
        shard: usize,
        /// Connections this shard ever owned.
        conns: usize,
        /// Well-formed requests decoded (accepted for processing).
        accepted: u64,
        /// Responses delivered for accepted requests (includes failures
        /// and coalesced fan-outs; excludes sheds).
        completed: u64,
        /// Requests answered with a load-shed response.
        shed: u64,
        /// Malformed lines answered with `ok:false`.
        malformed: u64,
    },
    /// One portfolio backend finished its leg of a race (`fp-serve`
    /// solver portfolio). Emitted once per backend per raced job,
    /// including backends that lost or were cancelled.
    BackendDone {
        /// Stable backend name (`"milp"`, `"annealer"`, `"analytic"`).
        backend: &'static str,
        /// Wall time this backend's leg ran, in microseconds.
        micros: u64,
        /// Objective cost of the backend's floorplan (`NaN` when the
        /// backend produced nothing — cancelled or failed).
        cost: f64,
        /// Whether this backend's result answered the job.
        won: bool,
    },
    /// A portfolio race concluded (`fp-serve`): every backend leg is
    /// accounted for and the winner's floorplan answers the job.
    Portfolio {
        /// Backends raced.
        backends: usize,
        /// Stable name of the winning backend (`"none"` when every leg
        /// failed and the greedy degradation stood in).
        winner: &'static str,
        /// Wall time of the whole race, in microseconds.
        micros: u64,
    },
    /// A delta edit script was applied to a base instance (`fp-serve` ECO
    /// path): the edited instance is now the job being solved.
    DeltaApply {
        /// Canonical FNV-1a fingerprint of the *base* instance.
        base_key: u64,
        /// Edit operations in the script.
        ops: usize,
        /// Modules the script touched (upserted or removed).
        touched: usize,
        /// Modules in the edited instance.
        total: usize,
    },
    /// An ECO job concluded (`fp-serve`): either the incremental driver
    /// re-placed a neighborhood of the base placement, or the job fell
    /// back to a scratch solve.
    EcoJob {
        /// Client-assigned job id.
        id: u64,
        /// Canonical FNV-1a fingerprint of the base instance.
        base_key: u64,
        /// Whether the base placement was found in the solution cache and
        /// the incremental path ran (`false` = scratch fallback).
        base_hit: bool,
        /// Modules re-placed by the incremental driver (`total` on a
        /// scratch fallback).
        replaced: usize,
        /// Modules in the edited instance.
        total: usize,
    },
}

/// A sequence-stamped event as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotone per-tracer sequence number (dense from 0).
    pub seq: u64,
    /// Pipeline stage that emitted the event.
    pub phase: Phase,
    /// The event itself.
    pub event: Event,
}

/// Formats an `f64` as a JSON value (`null` for non-finite values, which
/// JSON cannot represent).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats a name as a JSON string. Names are static identifiers that
/// need no escaping.
fn quoted(name: &str) -> String {
    format!("\"{name}\"")
}

/// Formats a fingerprint as a fixed-width hex string. Fingerprints are
/// full 64-bit values; a JSON number would be parsed back as f64 and lose
/// the low bits.
fn hex(key: u64) -> String {
    format!("\"{key:016x}\"")
}

impl Event {
    /// The event's name and its `(key, JSON value)` fields, in line order.
    /// This match is the one place an event's name and fields are written.
    fn encode(&self) -> (&'static str, Vec<(&'static str, String)>) {
        match self {
            Event::SolveStart {
                binaries,
                constraints,
            } => (
                "SolveStart",
                vec![
                    ("binaries", binaries.to_string()),
                    ("constraints", constraints.to_string()),
                ],
            ),
            Event::RootLp { objective } => ("RootLp", vec![("objective", jnum(*objective))]),
            Event::BnbNode {
                depth,
                warm,
                pivots,
                refactors,
                etas,
                propagated,
            } => (
                "BnbNode",
                vec![
                    ("depth", depth.to_string()),
                    ("warm", warm.to_string()),
                    ("pivots", pivots.to_string()),
                    ("refactors", refactors.to_string()),
                    ("etas", etas.to_string()),
                    ("propagated", propagated.to_string()),
                ],
            ),
            Event::Incumbent { objective } => ("Incumbent", vec![("objective", jnum(*objective))]),
            Event::Presolve {
                passes,
                rows_tightened,
                binaries_fixed,
                implications,
            } => (
                "Presolve",
                vec![
                    ("passes", passes.to_string()),
                    ("rows_tightened", rows_tightened.to_string()),
                    ("binaries_fixed", binaries_fixed.to_string()),
                    ("implications", implications.to_string()),
                ],
            ),
            Event::CutRound { round, cuts } => (
                "CutRound",
                vec![("round", round.to_string()), ("cuts", cuts.to_string())],
            ),
            Event::SolveEnd {
                nodes,
                simplex_iterations,
                proven,
            } => (
                "SolveEnd",
                vec![
                    ("nodes", nodes.to_string()),
                    ("simplex_iterations", simplex_iterations.to_string()),
                    ("proven", proven.to_string()),
                ],
            ),
            Event::AugmentStep {
                step,
                group,
                obstacles,
                binaries,
                nodes,
                outcome,
            } => (
                "AugmentStep",
                vec![
                    ("step", step.to_string()),
                    ("group", group.to_string()),
                    ("obstacles", obstacles.to_string()),
                    ("binaries", binaries.to_string()),
                    ("nodes", nodes.to_string()),
                    ("outcome", quoted(outcome.as_str())),
                ],
            ),
            Event::GreedyFallback { step } => ("GreedyFallback", vec![("step", step.to_string())]),
            Event::ImproveRound {
                round,
                accepted,
                height,
            } => (
                "ImproveRound",
                vec![
                    ("round", round.to_string()),
                    ("accepted", accepted.to_string()),
                    ("height", jnum(*height)),
                ],
            ),
            Event::RouteStart { nets, cells, edges } => (
                "RouteStart",
                vec![
                    ("nets", nets.to_string()),
                    ("cells", cells.to_string()),
                    ("edges", edges.to_string()),
                ],
            ),
            Event::RouteNet {
                net,
                length,
                segments,
            } => (
                "RouteNet",
                vec![
                    ("net", net.to_string()),
                    ("length", jnum(*length)),
                    ("segments", segments.to_string()),
                ],
            ),
            Event::ChannelAdjust {
                extra_width,
                extra_height,
                overflowed_edges,
            } => (
                "ChannelAdjust",
                vec![
                    ("extra_width", jnum(*extra_width)),
                    ("extra_height", jnum(*extra_height)),
                    ("overflowed_edges", overflowed_edges.to_string()),
                ],
            ),
            Event::Span { name, micros } => (
                "Span",
                vec![("name", quoted(name)), ("micros", micros.to_string())],
            ),
            Event::CacheHit { key } => ("CacheHit", vec![("key", hex(*key))]),
            Event::CacheMiss { key } => ("CacheMiss", vec![("key", hex(*key))]),
            Event::JobDone {
                id,
                micros,
                degraded,
                cached,
            } => (
                "JobDone",
                vec![
                    ("id", id.to_string()),
                    ("micros", micros.to_string()),
                    ("degraded", degraded.to_string()),
                    ("cached", cached.to_string()),
                ],
            ),
            Event::Coalesced { key } => ("Coalesced", vec![("key", hex(*key))]),
            Event::Shed {
                queued,
                retry_after_ms,
            } => (
                "Shed",
                vec![
                    ("queued", queued.to_string()),
                    ("retry_after_ms", retry_after_ms.to_string()),
                ],
            ),
            Event::ShardStats {
                shard,
                conns,
                accepted,
                completed,
                shed,
                malformed,
            } => (
                "ShardStats",
                vec![
                    ("shard", shard.to_string()),
                    ("conns", conns.to_string()),
                    ("accepted", accepted.to_string()),
                    ("completed", completed.to_string()),
                    ("shed", shed.to_string()),
                    ("malformed", malformed.to_string()),
                ],
            ),
            Event::BackendDone {
                backend,
                micros,
                cost,
                won,
            } => (
                "BackendDone",
                vec![
                    ("backend", quoted(backend)),
                    ("micros", micros.to_string()),
                    ("cost", jnum(*cost)),
                    ("won", won.to_string()),
                ],
            ),
            Event::Portfolio {
                backends,
                winner,
                micros,
            } => (
                "Portfolio",
                vec![
                    ("backends", backends.to_string()),
                    ("winner", quoted(winner)),
                    ("micros", micros.to_string()),
                ],
            ),
            Event::DeltaApply {
                base_key,
                ops,
                touched,
                total,
            } => (
                "DeltaApply",
                vec![
                    ("base_key", hex(*base_key)),
                    ("ops", ops.to_string()),
                    ("touched", touched.to_string()),
                    ("total", total.to_string()),
                ],
            ),
            Event::EcoJob {
                id,
                base_key,
                base_hit,
                replaced,
                total,
            } => (
                "EcoJob",
                vec![
                    ("id", id.to_string()),
                    ("base_key", hex(*base_key)),
                    ("base_hit", base_hit.to_string()),
                    ("replaced", replaced.to_string()),
                    ("total", total.to_string()),
                ],
            ),
        }
    }
}

/// The JSON type of one event field on a trace line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Field {
    /// A count or an id: a number.
    Int,
    /// An `f64`: a number, or `null` when the value was not finite.
    Float,
    /// A boolean.
    Bool,
    /// A name: a string.
    Name,
    /// A 64-bit fingerprint: a 16-digit hex string.
    Key,
}

/// Every event's name and its fields, in the order [`Event::encode`]
/// writes them. [`validate_line`](crate::validate_line) checks each trace
/// line against its event's row.
#[rustfmt::skip]
pub(crate) const SCHEMA: &[(&str, &[(&str, Field)])] = {
    use Field::{Bool, Float, Int, Key, Name};
    &[
        ("SolveStart", &[("binaries", Int), ("constraints", Int)]),
        ("RootLp", &[("objective", Float)]),
        ("BnbNode", &[("depth", Int), ("warm", Bool), ("pivots", Int), ("refactors", Int), ("etas", Int), ("propagated", Bool)]),
        ("Incumbent", &[("objective", Float)]),
        ("Presolve", &[("passes", Int), ("rows_tightened", Int), ("binaries_fixed", Int), ("implications", Int)]),
        ("CutRound", &[("round", Int), ("cuts", Int)]),
        ("SolveEnd", &[("nodes", Int), ("simplex_iterations", Int), ("proven", Bool)]),
        ("AugmentStep", &[("step", Int), ("group", Int), ("obstacles", Int), ("binaries", Int), ("nodes", Int), ("outcome", Name)]),
        ("GreedyFallback", &[("step", Int)]),
        ("ImproveRound", &[("round", Int), ("accepted", Bool), ("height", Float)]),
        ("RouteStart", &[("nets", Int), ("cells", Int), ("edges", Int)]),
        ("RouteNet", &[("net", Int), ("length", Float), ("segments", Int)]),
        ("ChannelAdjust", &[("extra_width", Float), ("extra_height", Float), ("overflowed_edges", Int)]),
        ("Span", &[("name", Name), ("micros", Int)]),
        ("CacheHit", &[("key", Key)]),
        ("CacheMiss", &[("key", Key)]),
        ("JobDone", &[("id", Int), ("micros", Int), ("degraded", Bool), ("cached", Bool)]),
        ("Coalesced", &[("key", Key)]),
        ("Shed", &[("queued", Int), ("retry_after_ms", Int)]),
        ("ShardStats", &[("shard", Int), ("conns", Int), ("accepted", Int), ("completed", Int), ("shed", Int), ("malformed", Int)]),
        ("BackendDone", &[("backend", Name), ("micros", Int), ("cost", Float), ("won", Bool)]),
        ("Portfolio", &[("backends", Int), ("winner", Name), ("micros", Int)]),
        ("DeltaApply", &[("base_key", Key), ("ops", Int), ("touched", Int), ("total", Int)]),
        ("EcoJob", &[("id", Int), ("base_key", Key), ("base_hit", Bool), ("replaced", Int), ("total", Int)]),
    ]
};

impl Record {
    /// Renders the record as one flat JSON object. Every line carries the
    /// `seq`, `phase` and `event` fields; the remaining keys are the
    /// event's own payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (name, fields) = self.event.encode();
        let mut s = format!(
            "{{\"seq\":{},\"phase\":\"{}\",\"event\":\"{name}\"",
            self.seq,
            self.phase.as_str()
        );
        for (key, value) in fields {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&value);
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_rendering_is_plain() {
        assert_eq!(jnum(1.0), "1");
        assert_eq!(jnum(-2.5), "-2.5");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(f64::INFINITY), "null");
    }
}
