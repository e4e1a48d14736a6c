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
/// [`Tracer`](crate::Tracer) pay only an `Option` check.
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
        /// Whether bound propagation proved the node's LP infeasible, so
        /// no LP ran: `warm` is then `false` and every count is 0.
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
        /// Cross-job basis reuse tier of the first re-solve LP
        /// (`"hot"` / `"warm"` / `"cold"`).
        basis: &'static str,
    },
}

/// Discriminant-only view of [`Event`], used for counters and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`Event::SolveStart`]
    SolveStart,
    /// [`Event::RootLp`]
    RootLp,
    /// [`Event::BnbNode`]
    BnbNode,
    /// [`Event::Incumbent`]
    Incumbent,
    /// [`Event::SolveEnd`]
    SolveEnd,
    /// [`Event::AugmentStep`]
    AugmentStep,
    /// [`Event::GreedyFallback`]
    GreedyFallback,
    /// [`Event::ImproveRound`]
    ImproveRound,
    /// [`Event::RouteStart`]
    RouteStart,
    /// [`Event::RouteNet`]
    RouteNet,
    /// [`Event::ChannelAdjust`]
    ChannelAdjust,
    /// [`Event::Span`]
    Span,
    /// [`Event::CacheHit`]
    CacheHit,
    /// [`Event::CacheMiss`]
    CacheMiss,
    /// [`Event::JobDone`]
    JobDone,
    /// [`Event::Presolve`]
    Presolve,
    /// [`Event::CutRound`]
    CutRound,
    /// [`Event::Coalesced`]
    Coalesced,
    /// [`Event::Shed`]
    Shed,
    /// [`Event::ShardStats`]
    ShardStats,
    /// [`Event::BackendDone`]
    BackendDone,
    /// [`Event::Portfolio`]
    Portfolio,
    /// [`Event::DeltaApply`]
    DeltaApply,
    /// [`Event::EcoJob`]
    EcoJob,
}

impl EventKind {
    /// Number of event kinds (sizes the per-kind counter array).
    pub const COUNT: usize = 24;

    /// Every kind, in counter-index order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::SolveStart,
        EventKind::RootLp,
        EventKind::BnbNode,
        EventKind::Incumbent,
        EventKind::SolveEnd,
        EventKind::AugmentStep,
        EventKind::GreedyFallback,
        EventKind::ImproveRound,
        EventKind::RouteStart,
        EventKind::RouteNet,
        EventKind::ChannelAdjust,
        EventKind::Span,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::JobDone,
        EventKind::Presolve,
        EventKind::CutRound,
        EventKind::Coalesced,
        EventKind::Shed,
        EventKind::ShardStats,
        EventKind::BackendDone,
        EventKind::Portfolio,
        EventKind::DeltaApply,
        EventKind::EcoJob,
    ];

    /// Dense index of this kind in [`EventKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            EventKind::SolveStart => 0,
            EventKind::RootLp => 1,
            EventKind::BnbNode => 2,
            EventKind::Incumbent => 3,
            EventKind::SolveEnd => 4,
            EventKind::AugmentStep => 5,
            EventKind::GreedyFallback => 6,
            EventKind::ImproveRound => 7,
            EventKind::RouteStart => 8,
            EventKind::RouteNet => 9,
            EventKind::ChannelAdjust => 10,
            EventKind::Span => 11,
            EventKind::CacheHit => 12,
            EventKind::CacheMiss => 13,
            EventKind::JobDone => 14,
            EventKind::Presolve => 15,
            EventKind::CutRound => 16,
            EventKind::Coalesced => 17,
            EventKind::Shed => 18,
            EventKind::ShardStats => 19,
            EventKind::BackendDone => 20,
            EventKind::Portfolio => 21,
            EventKind::DeltaApply => 22,
            EventKind::EcoJob => 23,
        }
    }

    /// Stable name used as the `event` field in JSONL output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SolveStart => "SolveStart",
            EventKind::RootLp => "RootLp",
            EventKind::BnbNode => "BnbNode",
            EventKind::Incumbent => "Incumbent",
            EventKind::SolveEnd => "SolveEnd",
            EventKind::AugmentStep => "AugmentStep",
            EventKind::GreedyFallback => "GreedyFallback",
            EventKind::ImproveRound => "ImproveRound",
            EventKind::RouteStart => "RouteStart",
            EventKind::RouteNet => "RouteNet",
            EventKind::ChannelAdjust => "ChannelAdjust",
            EventKind::Span => "Span",
            EventKind::CacheHit => "CacheHit",
            EventKind::CacheMiss => "CacheMiss",
            EventKind::JobDone => "JobDone",
            EventKind::Presolve => "Presolve",
            EventKind::CutRound => "CutRound",
            EventKind::Coalesced => "Coalesced",
            EventKind::Shed => "Shed",
            EventKind::ShardStats => "ShardStats",
            EventKind::BackendDone => "BackendDone",
            EventKind::Portfolio => "Portfolio",
            EventKind::DeltaApply => "DeltaApply",
            EventKind::EcoJob => "EcoJob",
        }
    }
}

impl Event {
    /// The discriminant of this event.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::SolveStart { .. } => EventKind::SolveStart,
            Event::RootLp { .. } => EventKind::RootLp,
            Event::BnbNode { .. } => EventKind::BnbNode,
            Event::Incumbent { .. } => EventKind::Incumbent,
            Event::SolveEnd { .. } => EventKind::SolveEnd,
            Event::AugmentStep { .. } => EventKind::AugmentStep,
            Event::GreedyFallback { .. } => EventKind::GreedyFallback,
            Event::ImproveRound { .. } => EventKind::ImproveRound,
            Event::RouteStart { .. } => EventKind::RouteStart,
            Event::RouteNet { .. } => EventKind::RouteNet,
            Event::ChannelAdjust { .. } => EventKind::ChannelAdjust,
            Event::Span { .. } => EventKind::Span,
            Event::CacheHit { .. } => EventKind::CacheHit,
            Event::CacheMiss { .. } => EventKind::CacheMiss,
            Event::JobDone { .. } => EventKind::JobDone,
            Event::Presolve { .. } => EventKind::Presolve,
            Event::CutRound { .. } => EventKind::CutRound,
            Event::Coalesced { .. } => EventKind::Coalesced,
            Event::Shed { .. } => EventKind::Shed,
            Event::ShardStats { .. } => EventKind::ShardStats,
            Event::BackendDone { .. } => EventKind::BackendDone,
            Event::Portfolio { .. } => EventKind::Portfolio,
            Event::DeltaApply { .. } => EventKind::DeltaApply,
            Event::EcoJob { .. } => EventKind::EcoJob,
        }
    }
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

impl Record {
    /// Renders the record as one flat JSON object. Every line carries the
    /// `seq`, `phase` and `event` fields; the remaining keys are the
    /// event's own payload.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"phase\":\"{}\",\"event\":\"{}\"",
            self.seq,
            self.phase.as_str(),
            self.event.kind().name()
        );
        let mut field = |key: &str, value: String| {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&value);
        };
        match &self.event {
            Event::SolveStart {
                binaries,
                constraints,
            } => {
                field("binaries", binaries.to_string());
                field("constraints", constraints.to_string());
            }
            Event::RootLp { objective } => field("objective", jnum(*objective)),
            Event::BnbNode {
                depth,
                warm,
                pivots,
                refactors,
                etas,
                propagated,
            } => {
                field("depth", depth.to_string());
                field("warm", warm.to_string());
                field("pivots", pivots.to_string());
                field("refactors", refactors.to_string());
                field("etas", etas.to_string());
                field("propagated", propagated.to_string());
            }
            Event::Incumbent { objective } => field("objective", jnum(*objective)),
            Event::Presolve {
                passes,
                rows_tightened,
                binaries_fixed,
                implications,
            } => {
                field("passes", passes.to_string());
                field("rows_tightened", rows_tightened.to_string());
                field("binaries_fixed", binaries_fixed.to_string());
                field("implications", implications.to_string());
            }
            Event::CutRound { round, cuts } => {
                field("round", round.to_string());
                field("cuts", cuts.to_string());
            }
            Event::SolveEnd {
                nodes,
                simplex_iterations,
                proven,
            } => {
                field("nodes", nodes.to_string());
                field("simplex_iterations", simplex_iterations.to_string());
                field("proven", proven.to_string());
            }
            Event::AugmentStep {
                step,
                group,
                obstacles,
                binaries,
                nodes,
                outcome,
            } => {
                field("step", step.to_string());
                field("group", group.to_string());
                field("obstacles", obstacles.to_string());
                field("binaries", binaries.to_string());
                field("nodes", nodes.to_string());
                field("outcome", format!("\"{}\"", outcome.as_str()));
            }
            Event::GreedyFallback { step } => field("step", step.to_string()),
            Event::ImproveRound {
                round,
                accepted,
                height,
            } => {
                field("round", round.to_string());
                field("accepted", accepted.to_string());
                field("height", jnum(*height));
            }
            Event::RouteStart { nets, cells, edges } => {
                field("nets", nets.to_string());
                field("cells", cells.to_string());
                field("edges", edges.to_string());
            }
            Event::RouteNet {
                net,
                length,
                segments,
            } => {
                field("net", net.to_string());
                field("length", jnum(*length));
                field("segments", segments.to_string());
            }
            Event::ChannelAdjust {
                extra_width,
                extra_height,
                overflowed_edges,
            } => {
                field("extra_width", jnum(*extra_width));
                field("extra_height", jnum(*extra_height));
                field("overflowed_edges", overflowed_edges.to_string());
            }
            Event::Span { name, micros } => {
                field("name", format!("\"{name}\""));
                field("micros", micros.to_string());
            }
            // Fingerprints are full 64-bit values; a JSON number would be
            // parsed back as f64 and lose the low bits, so they travel as
            // fixed-width hex strings.
            Event::CacheHit { key } => field("key", format!("\"{key:016x}\"")),
            Event::CacheMiss { key } => field("key", format!("\"{key:016x}\"")),
            Event::JobDone {
                id,
                micros,
                degraded,
                cached,
            } => {
                field("id", id.to_string());
                field("micros", micros.to_string());
                field("degraded", degraded.to_string());
                field("cached", cached.to_string());
            }
            Event::Coalesced { key } => field("key", format!("\"{key:016x}\"")),
            Event::Shed {
                queued,
                retry_after_ms,
            } => {
                field("queued", queued.to_string());
                field("retry_after_ms", retry_after_ms.to_string());
            }
            Event::ShardStats {
                shard,
                conns,
                accepted,
                completed,
                shed,
                malformed,
            } => {
                field("shard", shard.to_string());
                field("conns", conns.to_string());
                field("accepted", accepted.to_string());
                field("completed", completed.to_string());
                field("shed", shed.to_string());
                field("malformed", malformed.to_string());
            }
            Event::BackendDone {
                backend,
                micros,
                cost,
                won,
            } => {
                field("backend", format!("\"{backend}\""));
                field("micros", micros.to_string());
                field("cost", jnum(*cost));
                field("won", won.to_string());
            }
            Event::Portfolio {
                backends,
                winner,
                micros,
            } => {
                field("backends", backends.to_string());
                field("winner", format!("\"{winner}\""));
                field("micros", micros.to_string());
            }
            Event::DeltaApply {
                base_key,
                ops,
                touched,
                total,
            } => {
                field("base_key", format!("\"{base_key:016x}\""));
                field("ops", ops.to_string());
                field("touched", touched.to_string());
                field("total", total.to_string());
            }
            Event::EcoJob {
                id,
                base_key,
                base_hit,
                replaced,
                total,
                basis,
            } => {
                field("id", id.to_string());
                field("base_key", format!("\"{base_key:016x}\""));
                field("base_hit", base_hit.to_string());
                field("replaced", replaced.to_string());
                field("total", total.to_string());
                field("basis", format!("\"{basis}\""));
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_dense_and_named() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn json_has_required_fields() {
        let r = Record {
            seq: 7,
            phase: Phase::Augment,
            event: Event::AugmentStep {
                step: 2,
                group: 3,
                obstacles: 4,
                binaries: 30,
                nodes: 99,
                outcome: StepTermination::Optimal,
            },
        };
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"seq\":7"));
        assert!(json.contains("\"phase\":\"augment\""));
        assert!(json.contains("\"event\":\"AugmentStep\""));
        assert!(json.contains("\"outcome\":\"optimal\""));
        assert!(json.contains("\"nodes\":99"));
    }

    #[test]
    fn cache_keys_render_as_full_width_hex() {
        let r = Record {
            seq: 1,
            phase: Phase::Serve,
            event: Event::CacheHit {
                key: 0xdead_beef_0000_0001,
            },
        };
        let json = r.to_json();
        assert!(json.contains("\"phase\":\"serve\""), "{json}");
        assert!(json.contains("\"key\":\"deadbeef00000001\""), "{json}");
        let r = Record {
            seq: 2,
            phase: Phase::Serve,
            event: Event::JobDone {
                id: 42,
                micros: 1500,
                degraded: true,
                cached: false,
            },
        };
        let json = r.to_json();
        assert!(json.contains("\"id\":42"), "{json}");
        assert!(json.contains("\"degraded\":true"), "{json}");
        assert!(json.contains("\"cached\":false"), "{json}");
    }

    #[test]
    fn portfolio_events_render() {
        let r = Record {
            seq: 3,
            phase: Phase::Serve,
            event: Event::BackendDone {
                backend: "analytic",
                micros: 812,
                cost: 36.5,
                won: true,
            },
        };
        let json = r.to_json();
        assert!(json.contains("\"event\":\"BackendDone\""), "{json}");
        assert!(json.contains("\"backend\":\"analytic\""), "{json}");
        assert!(json.contains("\"cost\":36.5"), "{json}");
        assert!(json.contains("\"won\":true"), "{json}");
        // A failed leg has no cost: NaN renders as null.
        let r = Record {
            seq: 4,
            phase: Phase::Serve,
            event: Event::BackendDone {
                backend: "milp",
                micros: 9,
                cost: f64::NAN,
                won: false,
            },
        };
        assert!(r.to_json().contains("\"cost\":null"));
        let r = Record {
            seq: 5,
            phase: Phase::Serve,
            event: Event::Portfolio {
                backends: 3,
                winner: "annealer",
                micros: 1200,
            },
        };
        let json = r.to_json();
        assert!(json.contains("\"event\":\"Portfolio\""), "{json}");
        assert!(json.contains("\"backends\":3"), "{json}");
        assert!(json.contains("\"winner\":\"annealer\""), "{json}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let r = Record {
            seq: 0,
            phase: Phase::Solver,
            event: Event::Incumbent {
                objective: f64::INFINITY,
            },
        };
        assert!(r.to_json().contains("\"objective\":null"));
    }

    #[test]
    fn float_rendering_is_plain() {
        assert_eq!(jnum(1.0), "1");
        assert_eq!(jnum(-2.5), "-2.5");
        assert_eq!(jnum(f64::NAN), "null");
    }
}
