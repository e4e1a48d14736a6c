//! Human-readable run summary rendered from collected records.

use crate::event::{Event, Record, StepTermination};

/// Rolls a record stream up into a short per-phase report.
///
/// The output is stable plain text intended for `fp-cli --summary` and
/// log files, one section per pipeline phase that actually emitted
/// events.
#[must_use]
pub fn render_summary(records: &[Record]) -> String {
    let mut solves = 0usize;
    let mut proven = 0usize;
    let mut solver_nodes = 0usize;
    let mut simplex = 0usize;
    let mut incumbents = 0usize;
    let mut lp_nodes = 0usize;
    let mut warm_bnb = 0usize;
    let mut settled_bnb = 0usize;
    let mut node_refactors = 0u64;
    let mut node_etas = 0u64;
    let mut presolves = 0usize;
    let mut rows_tightened = 0usize;
    let mut binaries_fixed = 0usize;
    let mut cut_rounds = 0usize;
    let mut cuts = 0usize;

    let mut steps = 0usize;
    let mut optimal = 0usize;
    let mut incumbent_steps = 0usize;
    let mut fallback_steps = 0usize;
    let mut max_binaries = 0usize;
    let mut augment_nodes = 0usize;

    let mut rounds = 0usize;
    let mut accepted_rounds = 0usize;
    let mut final_height = None;

    let mut nets = 0usize;
    let mut wirelength = 0.0f64;
    let mut segments = 0usize;
    let mut adjusts = 0usize;
    let mut extra = (0.0f64, 0.0f64);

    let mut jobs = 0usize;
    let mut degraded_jobs = 0usize;
    let mut cached_jobs = 0usize;
    let mut job_micros = 0u64;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut coalesced = 0usize;
    let mut shed = 0usize;
    let mut shards = 0usize;

    let mut eco_jobs = 0usize;
    let mut eco_hits = 0usize;
    let mut eco_replaced = 0usize;
    let mut eco_total = 0usize;

    // Per-span (name, count, micros) in first-seen order.
    let mut spans: Vec<(&'static str, usize, u64)> = Vec::new();

    let mut races = 0usize;
    let mut race_micros = 0u64;
    // Per-backend (name, legs, wins, wall-clock micros) in first-seen order.
    let mut backends: Vec<(&'static str, usize, usize, u64)> = Vec::new();

    for record in records {
        match &record.event {
            Event::SolveStart { .. } => solves += 1,
            Event::SolveEnd {
                nodes,
                simplex_iterations,
                proven: p,
            } => {
                solver_nodes += nodes;
                simplex += simplex_iterations;
                proven += usize::from(*p);
            }
            Event::Incumbent { .. } => incumbents += 1,
            Event::BnbNode {
                propagated: true, ..
            } => settled_bnb += 1,
            Event::BnbNode {
                warm,
                refactors,
                etas,
                ..
            } => {
                lp_nodes += 1;
                warm_bnb += usize::from(*warm);
                node_refactors += refactors;
                node_etas += etas;
            }
            Event::Presolve {
                rows_tightened: rt,
                binaries_fixed: bf,
                ..
            } => {
                presolves += 1;
                rows_tightened += rt;
                binaries_fixed += bf;
            }
            Event::CutRound { cuts: c, .. } => {
                cut_rounds += 1;
                cuts += c;
            }
            Event::AugmentStep {
                binaries,
                nodes,
                outcome,
                ..
            } => {
                steps += 1;
                max_binaries = max_binaries.max(*binaries);
                augment_nodes += nodes;
                match outcome {
                    StepTermination::Optimal => optimal += 1,
                    StepTermination::Incumbent => incumbent_steps += 1,
                    StepTermination::GreedyFallback => fallback_steps += 1,
                }
            }
            Event::ImproveRound {
                accepted, height, ..
            } => {
                rounds += 1;
                accepted_rounds += usize::from(*accepted);
                final_height = Some(*height);
            }
            Event::RouteNet {
                length,
                segments: s,
                ..
            } => {
                nets += 1;
                wirelength += length;
                segments += s;
            }
            Event::ChannelAdjust {
                extra_width,
                extra_height,
                ..
            } => {
                adjusts += 1;
                extra.0 += extra_width;
                extra.1 += extra_height;
            }
            Event::CacheHit { .. } => cache_hits += 1,
            Event::CacheMiss { .. } => cache_misses += 1,
            Event::Coalesced { .. } => coalesced += 1,
            Event::Shed { .. } => shed += 1,
            Event::ShardStats { .. } => shards += 1,
            Event::JobDone {
                micros,
                degraded,
                cached,
                ..
            } => {
                jobs += 1;
                degraded_jobs += usize::from(*degraded);
                cached_jobs += usize::from(*cached);
                job_micros += micros;
            }
            Event::BackendDone {
                backend,
                micros,
                won,
                ..
            } => {
                let entry = match backends.iter_mut().find(|e| e.0 == *backend) {
                    Some(e) => e,
                    None => {
                        backends.push((backend, 0, 0, 0));
                        backends.last_mut().expect("just pushed")
                    }
                };
                entry.1 += 1;
                entry.2 += usize::from(*won);
                entry.3 += micros;
            }
            Event::Span { name, micros } => match spans.iter_mut().find(|e| e.0 == *name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += micros;
                }
                None => spans.push((name, 1, *micros)),
            },
            Event::Portfolio { micros, .. } => {
                races += 1;
                race_micros += micros;
            }
            Event::EcoJob {
                base_hit,
                replaced,
                total,
                ..
            } => {
                eco_jobs += 1;
                eco_hits += usize::from(*base_hit);
                eco_replaced += replaced;
                eco_total += total;
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!("trace summary: {} events\n", records.len()));
    if solves > 0 {
        // Node-level records are optional (summaries are also rendered from
        // streams that only carry solve boundaries), so the warm-start
        // rollup only appears when BnbNode events are present. Nodes that
        // propagation settled ran no LP, so they count apart.
        let warm = if lp_nodes + settled_bnb > 0 {
            format!(
                ", {warm_bnb}/{lp_nodes} warm node solves, \
                 {settled_bnb} nodes settled by propagation, \
                 {node_refactors} refactorizations, {node_etas} eta updates"
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  solver:  {solves} solves ({proven} proven optimal), \
             {solver_nodes} nodes, {simplex} simplex iterations, \
             {incumbents} incumbent updates{warm}\n"
        ));
        // Strengthening rollup: only when the stream carries Presolve or
        // CutRound records (older traces and strengthen-off runs have none
        // worth reporting).
        if presolves > 0 || cut_rounds > 0 {
            out.push_str(&format!(
                "  presolve: {presolves} strengthened roots, \
                 {rows_tightened} rows tightened, \
                 {binaries_fixed} binaries fixed, \
                 {cuts} cuts in {cut_rounds} rounds\n"
            ));
        }
    }
    if steps > 0 {
        out.push_str(&format!(
            "  augment: {steps} steps ({optimal} optimal, \
             {incumbent_steps} incumbent, {fallback_steps} greedy fallback), \
             max {max_binaries} binaries/step, {augment_nodes} nodes\n"
        ));
    }
    if rounds > 0 {
        let height = final_height
            .map(|h| format!(", final height {h:.3}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  improve: {rounds} rounds ({accepted_rounds} accepted){height}\n"
        ));
    }
    if nets > 0 || adjusts > 0 {
        out.push_str(&format!(
            "  route:   {nets} nets, wirelength {wirelength:.3}, \
             {segments} segments, {adjusts} channel adjustments \
             (+{:.3} w, +{:.3} h)\n",
            extra.0, extra.1
        ));
    }
    if !spans.is_empty() {
        let timed: Vec<String> = spans
            .iter()
            .map(|(name, count, micros)| {
                format!("{name} {count} ({:.3} ms)", *micros as f64 / 1000.0)
            })
            .collect();
        out.push_str(&format!("  spans:   {}\n", timed.join(", ")));
    }
    if jobs > 0 || cache_hits > 0 || cache_misses > 0 || shed > 0 || coalesced > 0 {
        let mean = if jobs > 0 {
            job_micros / jobs as u64
        } else {
            0
        };
        let shards = if shards > 0 {
            format!(", {shards} shards")
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  serve:   {jobs} jobs ({cached_jobs} cached, \
             {degraded_jobs} degraded), cache {cache_hits} hits / \
             {cache_misses} misses, {coalesced} coalesced, {shed} shed, \
             mean {mean} us/job{shards}\n"
        ));
    }
    if eco_jobs > 0 {
        out.push_str(&format!(
            "  eco:     {eco_jobs} delta jobs ({eco_hits} base hits), \
             replaced {eco_replaced}/{eco_total} modules\n"
        ));
    }
    if races > 0 || !backends.is_empty() {
        let legs: Vec<String> = backends
            .iter()
            .map(|(name, legs, wins, micros)| format!("{name} {wins}/{legs} wins ({micros} us)"))
            .collect();
        out.push_str(&format!(
            "  portfolio: {races} races ({race_micros} us total); {}\n",
            legs.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn rec(seq: u64, phase: Phase, event: Event) -> Record {
        Record { seq, phase, event }
    }

    #[test]
    fn summary_rolls_up_each_phase() {
        let records = vec![
            rec(
                0,
                Phase::Solver,
                Event::SolveStart {
                    binaries: 8,
                    constraints: 20,
                },
            ),
            rec(1, Phase::Solver, Event::Incumbent { objective: 5.0 }),
            rec(
                2,
                Phase::Solver,
                Event::SolveEnd {
                    nodes: 7,
                    simplex_iterations: 90,
                    proven: true,
                },
            ),
            rec(
                3,
                Phase::Augment,
                Event::AugmentStep {
                    step: 0,
                    group: 2,
                    obstacles: 0,
                    binaries: 8,
                    nodes: 7,
                    outcome: StepTermination::Optimal,
                },
            ),
            rec(
                4,
                Phase::Augment,
                Event::AugmentStep {
                    step: 1,
                    group: 2,
                    obstacles: 2,
                    binaries: 30,
                    nodes: 0,
                    outcome: StepTermination::GreedyFallback,
                },
            ),
            rec(
                5,
                Phase::Improve,
                Event::ImproveRound {
                    round: 0,
                    accepted: true,
                    height: 11.5,
                },
            ),
            rec(
                6,
                Phase::Route,
                Event::RouteNet {
                    net: 0,
                    length: 4.5,
                    segments: 2,
                },
            ),
            rec(
                7,
                Phase::Route,
                Event::ChannelAdjust {
                    extra_width: 1.0,
                    extra_height: 0.5,
                    overflowed_edges: 2,
                },
            ),
        ];
        let text = render_summary(&records);
        assert!(text.contains("8 events"), "{text}");
        assert!(text.contains("1 solves (1 proven optimal)"), "{text}");
        assert!(text.contains("7 nodes"), "{text}");
        assert!(text.contains("2 steps (1 optimal"), "{text}");
        assert!(text.contains("1 greedy fallback"), "{text}");
        assert!(text.contains("max 30 binaries/step"), "{text}");
        assert!(text.contains("1 rounds (1 accepted)"), "{text}");
        assert!(text.contains("final height 11.500"), "{text}");
        assert!(text.contains("wirelength 4.500"), "{text}");
        assert!(text.contains("1 channel adjustments"), "{text}");
    }

    #[test]
    fn spans_roll_up_per_name() {
        let span = |seq, phase, name, micros| rec(seq, phase, Event::Span { name, micros });
        let records = vec![
            span(0, Phase::Improve, "topology_lp", 1500),
            span(1, Phase::Route, "route_all", 12_250),
            span(2, Phase::Improve, "topology_lp", 700),
        ];
        let text = render_summary(&records);
        assert!(
            text.contains("spans:   topology_lp 2 (2.200 ms), route_all 1 (12.250 ms)"),
            "{text}"
        );
    }

    #[test]
    fn empty_trace_summarizes_to_header_only() {
        let text = render_summary(&[]);
        assert_eq!(text, "trace summary: 0 events\n");
    }

    #[test]
    fn warm_node_rollup_appears_with_bnb_records() {
        let records = vec![
            rec(
                0,
                Phase::Solver,
                Event::SolveStart {
                    binaries: 4,
                    constraints: 9,
                },
            ),
            rec(
                1,
                Phase::Solver,
                Event::BnbNode {
                    depth: 0,
                    warm: false,
                    pivots: 12,
                    refactors: 2,
                    etas: 10,
                    propagated: false,
                },
            ),
            rec(
                2,
                Phase::Solver,
                Event::BnbNode {
                    depth: 1,
                    warm: true,
                    pivots: 2,
                    refactors: 1,
                    etas: 2,
                    propagated: false,
                },
            ),
            rec(
                3,
                Phase::Solver,
                Event::BnbNode {
                    depth: 1,
                    warm: true,
                    pivots: 3,
                    refactors: 0,
                    etas: 0,
                    propagated: false,
                },
            ),
            rec(
                4,
                Phase::Solver,
                Event::BnbNode {
                    depth: 2,
                    warm: false,
                    pivots: 0,
                    refactors: 0,
                    etas: 0,
                    propagated: true,
                },
            ),
            rec(
                5,
                Phase::Solver,
                Event::SolveEnd {
                    nodes: 4,
                    simplex_iterations: 17,
                    proven: true,
                },
            ),
        ];
        let text = render_summary(&records);
        assert!(text.contains("2/3 warm node solves"), "{text}");
        assert!(text.contains("1 nodes settled by propagation"), "{text}");
        assert!(
            text.contains("3 refactorizations, 12 eta updates"),
            "{text}"
        );
        // No Presolve/CutRound records: the strengthening rollup is absent.
        assert!(!text.contains("strengthened roots"), "{text}");
    }

    #[test]
    fn strengthening_rollup_appears_with_presolve_records() {
        let records = vec![
            rec(
                0,
                Phase::Solver,
                Event::SolveStart {
                    binaries: 4,
                    constraints: 9,
                },
            ),
            rec(
                1,
                Phase::Solver,
                Event::Presolve {
                    passes: 3,
                    rows_tightened: 5,
                    binaries_fixed: 1,
                    implications: 2,
                },
            ),
            rec(2, Phase::Solver, Event::CutRound { round: 0, cuts: 2 }),
            rec(3, Phase::Solver, Event::CutRound { round: 1, cuts: 4 }),
            rec(
                4,
                Phase::Solver,
                Event::SolveEnd {
                    nodes: 3,
                    simplex_iterations: 17,
                    proven: true,
                },
            ),
        ];
        let text = render_summary(&records);
        assert!(text.contains("1 strengthened roots"), "{text}");
        assert!(text.contains("5 rows tightened"), "{text}");
        assert!(text.contains("1 binaries fixed"), "{text}");
        assert!(text.contains("6 cuts in 2 rounds"), "{text}");
    }

    #[test]
    fn serve_events_roll_up() {
        let records = vec![
            rec(0, Phase::Serve, Event::CacheMiss { key: 7 }),
            rec(
                1,
                Phase::Serve,
                Event::JobDone {
                    id: 1,
                    micros: 300,
                    degraded: false,
                    cached: false,
                },
            ),
            rec(2, Phase::Serve, Event::CacheHit { key: 7 }),
            rec(
                3,
                Phase::Serve,
                Event::JobDone {
                    id: 2,
                    micros: 100,
                    degraded: true,
                    cached: true,
                },
            ),
            rec(4, Phase::Serve, Event::Coalesced { key: 7 }),
            rec(
                5,
                Phase::Serve,
                Event::Shed {
                    queued: 8,
                    retry_after_ms: 12,
                },
            ),
            rec(
                6,
                Phase::Serve,
                Event::ShardStats {
                    shard: 0,
                    conns: 4,
                    accepted: 3,
                    completed: 2,
                    shed: 1,
                    malformed: 0,
                },
            ),
        ];
        let text = render_summary(&records);
        assert!(text.contains("2 jobs (1 cached, 1 degraded)"), "{text}");
        assert!(text.contains("cache 1 hits / 1 misses"), "{text}");
        assert!(text.contains("1 coalesced, 1 shed"), "{text}");
        assert!(text.contains("mean 200 us/job"), "{text}");
        assert!(text.contains("1 shards"), "{text}");
        // No portfolio events: no portfolio rollup line.
        assert!(!text.contains("portfolio:"), "{text}");
    }

    #[test]
    fn portfolio_events_roll_up_per_backend() {
        let leg = |seq, backend, micros, won| {
            rec(
                seq,
                Phase::Serve,
                Event::BackendDone {
                    backend,
                    micros,
                    cost: 10.0,
                    won,
                },
            )
        };
        let records = vec![
            leg(0, "milp", 900, true),
            leg(1, "annealer", 400, false),
            leg(2, "analytic", 300, false),
            rec(
                3,
                Phase::Serve,
                Event::Portfolio {
                    backends: 3,
                    winner: "milp",
                    micros: 950,
                },
            ),
            leg(4, "milp", 800, false),
            leg(5, "analytic", 250, true),
            rec(
                6,
                Phase::Serve,
                Event::Portfolio {
                    backends: 2,
                    winner: "analytic",
                    micros: 820,
                },
            ),
        ];
        let text = render_summary(&records);
        assert!(
            text.contains("portfolio: 2 races (1770 us total)"),
            "{text}"
        );
        assert!(text.contains("milp 1/2 wins (1700 us)"), "{text}");
        assert!(text.contains("annealer 0/1 wins (400 us)"), "{text}");
        assert!(text.contains("analytic 1/2 wins (550 us)"), "{text}");
    }

    #[test]
    fn eco_events_roll_up() {
        let records = vec![
            rec(
                0,
                Phase::Serve,
                Event::DeltaApply {
                    base_key: 7,
                    ops: 1,
                    touched: 1,
                    total: 12,
                },
            ),
            rec(
                1,
                Phase::Serve,
                Event::EcoJob {
                    id: 1,
                    base_key: 7,
                    base_hit: true,
                    replaced: 2,
                    total: 12,
                },
            ),
            rec(
                2,
                Phase::Serve,
                Event::EcoJob {
                    id: 2,
                    base_key: 9,
                    base_hit: false,
                    replaced: 12,
                    total: 12,
                },
            ),
        ];
        let text = render_summary(&records);
        assert!(
            text.contains("eco:     2 delta jobs (1 base hits)"),
            "{text}"
        );
        assert!(text.contains("replaced 14/24 modules"), "{text}");
    }
}
