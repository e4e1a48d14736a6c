//! Deadline-aware solver portfolio: race heterogeneous backends on one
//! job, cancel the losers.
//!
//! Three backends cover complementary regimes:
//!
//! * **milp** — the paper's successive-augmentation flow plus its
//!   improvement rounds: slow, highest quality.
//! * **annealer** — the Wong-Liu slicing annealer (`fp-slicing`),
//!   width-constrained to the job's chip width and legalized onto the
//!   skyline so its answer lives on the same fixed outline.
//! * **analytic** — smoothed gradient descent (`fp-analytic`), the
//!   fastest to a decent placement on tight budgets.
//!
//! Every job fp-serve solves goes through [`race`]: the default backend
//! list is `[milp]`, a one-leg race. [`milp_leg`] enters fp-core's one
//! flow entry point, `Floorplanner::with_improvement(..).run()`, which
//! the CLI, the facade `Pipeline` and fp-bench's tables call too, so
//! fp-serve holds no copy of the pipeline. The calling thread runs the
//! first listed leg itself and each further leg gets a scoped thread,
//! all under one shared deadline — a one-backend race spawns no thread.
//! When plenty of budget remains the race is **best-of-N** (wait for
//! everyone, pick the lowest cost); under a tight deadline it degrades to
//! **any-of-N** (the first leg to finish with a legal answer wins and
//! cancels the rest through their cooperative [`StopFlag`]s). The legs
//! share nothing but the deadline and those flags. Either way every
//! leg's outcome is published as an [`Event::BackendDone`] and the race
//! as an [`Event::Portfolio`].

use fp_core::{
    Floorplan, FloorplanConfig, FloorplanError, FloorplanResult, Floorplanner, LegalizeItem,
    Objective, RunStats, StopFlag,
};
use fp_netlist::Netlist;
use fp_obs::{Event, Phase, Tracer};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Remaining budget below which the race switches from best-of-N to
/// any-of-N (first legal answer wins).
const ANY_OF_THRESHOLD: Duration = Duration::from_millis(250);

/// One raceable solver backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Successive-augmentation MILP pipeline + improvement loop.
    Milp,
    /// Wong-Liu slicing annealer, legalized onto the shared outline.
    Annealer,
    /// Smoothed analytical placement (`fp-analytic`).
    Analytic,
}

impl Backend {
    /// Stable lowercase name used in responses and trace events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Milp => "milp",
            Backend::Annealer => "annealer",
            Backend::Analytic => "analytic",
        }
    }

    /// Parses one backend name (the inverse of [`Backend::as_str`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim() {
            "milp" => Some(Backend::Milp),
            "annealer" => Some(Backend::Annealer),
            "analytic" => Some(Backend::Analytic),
            _ => None,
        }
    }

    /// Parses a comma-separated backend list, rejecting unknown names,
    /// duplicates and an empty list.
    ///
    /// # Errors
    ///
    /// Names the first unknown or repeated backend, or says the list is
    /// empty.
    pub fn parse_list(s: &str) -> Result<Vec<Backend>, String> {
        let mut out = Vec::new();
        for name in s.split(',').filter(|n| !n.trim().is_empty()) {
            let b = Backend::parse(name).ok_or_else(|| {
                format!(
                    "unknown backend '{}' (expected milp, annealer or analytic)",
                    name.trim()
                )
            })?;
            if out.contains(&b) {
                return Err(format!("duplicate backend '{}'", b.as_str()));
            }
            out.push(b);
        }
        if out.is_empty() {
            return Err("empty backend list (expected milp, annealer or analytic)".to_string());
        }
        Ok(out)
    }
}

/// What one race produced.
#[derive(Debug)]
pub struct RaceOutcome {
    /// The winning backend and its legal floorplan; `None` when no leg
    /// produced one (the caller then falls back to the greedy skyline).
    pub winner: Option<(Backend, Floorplan)>,
    /// The MILP leg's step statistics, augmentation and improvement,
    /// whenever that leg finished, whether it won or not.
    pub milp_stats: Option<RunStats>,
}

/// One finished leg of a race.
struct Leg {
    outcome: Result<Floorplan, FloorplanError>,
    /// [`cost_of`] the answer; NaN when the leg failed.
    cost: f64,
    /// The flow's step statistics (MILP leg only).
    stats: Option<RunStats>,
    micros: u64,
}

/// Objective cost of a floorplan under the job's objective — the metric
/// the best-of-N decision uses.
fn cost_of(fp: &Floorplan, netlist: &Netlist, objective: Objective) -> f64 {
    match objective {
        Objective::Area => fp.chip_area(),
        Objective::AreaPlusWirelength { lambda } => {
            fp.chip_area() + lambda * fp.center_wirelength(netlist)
        }
    }
}

/// Runs fp-core's flow (augment → improve) under the leg's stop flag.
fn milp_leg(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    stop: &StopFlag,
    improve_rounds: usize,
) -> Result<FloorplanResult, FloorplanError> {
    let config = fp_config.clone().with_stop(stop.clone());
    Floorplanner::with_config(netlist, config)
        .with_improvement(improve_rounds, None)
        .run()
}

/// Runs the slicing annealer width-constrained to the job's chip width,
/// then legalizes its tree bottom-row-first onto the shared outline.
fn annealer_leg(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    stop: &StopFlag,
    seed: u64,
) -> Result<Floorplan, FloorplanError> {
    let width = fp_core::derive_chip_width(netlist, fp_config)?;
    let mut annealer = fp_slicing::SlicingAnnealer::new(netlist);
    annealer
        .with_seed(seed ^ 0x511C_1986)
        .with_deadline(fp_config.deadline)
        .with_stop(stop.clone())
        .with_max_width(Some(width));
    let result = annealer.run();
    // The slicing tree's own coordinates carry the placement intent:
    // legalize modules bottom row first so the skyline reproduces the
    // tree's stacking order on the shared outline.
    let mut order: Vec<(f64, f64, LegalizeItem)> = result
        .floorplan
        .iter()
        .map(|m| {
            let module = netlist.module(m.id);
            let width_adjust = if module.is_flexible() {
                (module.width_range().1 - m.rect.w).max(0.0)
            } else {
                0.0
            };
            (
                m.rect.y,
                m.rect.x,
                LegalizeItem {
                    id: m.id,
                    rotated: m.rotated,
                    width_adjust,
                },
            )
        })
        .collect();
    order.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.id.cmp(&b.2.id))
    });
    let items: Vec<LegalizeItem> = order.into_iter().map(|(_, _, item)| item).collect();
    fp_core::legalize(netlist, fp_config, &items)
}

/// Runs smoothed analytical placement; `fp-analytic` legalizes its own
/// answer onto the same skyline, so the result is always legal.
fn analytic_leg(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    stop: &StopFlag,
    seed: u64,
) -> Result<Floorplan, FloorplanError> {
    let config = fp_analytic::AnalyticConfig::default()
        .with_seed(seed)
        .with_floorplan(fp_config.clone().with_stop(stop.clone()));
    fp_analytic::place(netlist, &config).map(|r| r.floorplan)
}

/// Races `backends` on one job. The outcome names the winner, if any
/// leg produced a legal answer, and carries the MILP leg's statistics.
///
/// Losers are cancelled through their stop flags: by the winning leg the
/// moment it finishes in any-of-N mode, and not at all in best-of-N
/// (where everyone runs to completion anyway).
pub fn race(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    backends: &[Backend],
    improve_rounds: usize,
    seed: u64,
    tracer: &Tracer,
) -> RaceOutcome {
    let started = Instant::now();
    let stops: Vec<StopFlag> = backends.iter().map(|_| StopFlag::new()).collect();
    let any_of = fp_config
        .deadline
        .is_some_and(|d| d.saturating_duration_since(started) < ANY_OF_THRESHOLD);
    let objective = fp_config.objective;
    // Any-of mode: the first leg to finish with a legal answer.
    let first_ok = OnceLock::new();

    let run = |i: usize| -> Leg {
        let leg_started = Instant::now();
        let stop = &stops[i];
        let (outcome, stats) = match backends[i] {
            Backend::Milp => match milp_leg(netlist, fp_config, stop, improve_rounds) {
                Ok(result) => (Ok(result.floorplan), Some(result.stats)),
                Err(e) => (Err(e), None),
            },
            Backend::Annealer => (annealer_leg(netlist, fp_config, stop, seed), None),
            Backend::Analytic => (analytic_leg(netlist, fp_config, stop, seed), None),
        };
        let cost = outcome
            .as_ref()
            .map_or(f64::NAN, |fp| cost_of(fp, netlist, objective));
        if outcome.is_ok() && any_of && first_ok.set(i).is_ok() {
            // First legal answer wins: cancel everyone else.
            stops.iter().for_each(StopFlag::trigger);
        }
        Leg {
            outcome,
            cost,
            stats,
            micros: leg_started.elapsed().as_micros() as u64,
        }
    };
    let mut legs: Vec<Leg> = std::thread::scope(|scope| {
        let run = &run;
        let others: Vec<_> = (1..backends.len())
            .map(|i| scope.spawn(move || run(i)))
            .collect();
        let mut legs = Vec::with_capacity(backends.len());
        if !backends.is_empty() {
            legs.push(run(0));
        }
        for other in others {
            legs.push(
                other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        legs
    });

    // Pick the winner: first legal answer under a tight deadline, lowest
    // cost otherwise (ties break toward the earlier backend in the list,
    // which keeps the decision deterministic).
    let winner = if any_of {
        first_ok.into_inner()
    } else {
        legs.iter()
            .enumerate()
            .filter(|(_, leg)| leg.outcome.is_ok())
            .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
    };

    for (i, (backend, leg)) in backends.iter().zip(&legs).enumerate() {
        tracer.emit(
            Phase::Serve,
            Event::BackendDone {
                backend: backend.as_str(),
                micros: leg.micros,
                cost: leg.cost,
                won: winner == Some(i),
            },
        );
    }
    tracer.emit(
        Phase::Serve,
        Event::Portfolio {
            backends: backends.len(),
            winner: winner.map_or("none", |i| backends[i].as_str()),
            micros: started.elapsed().as_micros() as u64,
        },
    );

    let milp_stats = legs.iter_mut().find_map(|leg| leg.stats.take());
    let winner = winner.and_then(|i| {
        let floorplan = legs.swap_remove(i).outcome.ok()?;
        Some((backends[i], floorplan))
    });
    RaceOutcome { winner, milp_stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Milp, Backend::Annealer, Backend::Analytic] {
            assert_eq!(Backend::parse(b.as_str()), Some(b));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn backend_lists_parse_and_reject_garbage() {
        assert_eq!(
            Backend::parse_list("milp, annealer,analytic").unwrap(),
            vec![Backend::Milp, Backend::Annealer, Backend::Analytic]
        );
        assert!(Backend::parse_list("").is_err());
        assert!(Backend::parse_list(" , ").is_err());
        assert!(Backend::parse_list("milp,quantum").is_err());
        assert!(Backend::parse_list("milp,milp").is_err());
    }

    #[test]
    fn race_returns_a_legal_floorplan_and_names_the_winner() {
        let netlist = fp_netlist::generator::ProblemGenerator::new(7, 21).generate();
        let config = FloorplanConfig::default();
        let outcome = race(
            &netlist,
            &config,
            &[Backend::Annealer, Backend::Analytic],
            0,
            0xFEED,
            &Tracer::disabled(),
        );
        let (winner, floorplan) = outcome
            .winner
            .expect("heuristic backends always produce a floorplan");
        assert!(floorplan.is_valid());
        assert_eq!(floorplan.len(), 7);
        assert!(matches!(winner, Backend::Annealer | Backend::Analytic));
        assert!(outcome.milp_stats.is_none(), "no MILP leg ran");
    }

    #[test]
    fn any_of_race_under_expired_deadline_still_answers() {
        let netlist = fp_netlist::generator::ProblemGenerator::new(6, 5).generate();
        let config = FloorplanConfig::default()
            .with_deadline(Some(Instant::now() + Duration::from_millis(1)));
        let (_, floorplan) = race(
            &netlist,
            &config,
            &[Backend::Annealer, Backend::Analytic],
            0,
            7,
            &Tracer::disabled(),
        )
        .winner
        .expect("heuristic legs answer even on a spent budget");
        assert!(floorplan.is_valid());
    }
}
