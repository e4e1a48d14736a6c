//! Simulated-annealing driver over normalized Polish expressions
//! (Wong & Liu, DAC 1986).

use crate::curve::ShapeCurve;
use crate::polish::{Element, PolishExpression};
use fp_core::{Floorplan, PlacedModule, StopFlag};
use fp_geom::Rect;
use fp_netlist::{ModuleId, Netlist, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Result of an annealing run.
#[derive(Debug, Clone)]
pub struct SlicingResult {
    /// The realized floorplan (chip width = the chosen root shape's width).
    pub floorplan: Floorplan,
    /// The best normalized Polish expression found — the slicing tree
    /// itself, exposed so reproducibility tests can compare runs
    /// structurally, not just by realized cost.
    pub expression: PolishExpression,
    /// Area of the chosen root shape (`== floorplan.chip_area()`).
    pub area: f64,
    /// Accepted / attempted move counts.
    pub accepted_moves: usize,
    /// Total attempted moves.
    pub attempted_moves: usize,
    /// Wall time of the run.
    pub elapsed: Duration,
}

/// Wong-Liu slicing floorplanner (non-consuming builder).
///
/// Cost is the minimum area over the root shape curve; flexible modules
/// contribute several sampled aspect ratios to their leaf curves and are
/// realized with their exact area.
#[derive(Debug, Clone)]
pub struct SlicingAnnealer<'a> {
    netlist: &'a Netlist,
    seed: u64,
    moves_per_temperature: usize,
    cooling: f64,
    min_temperature_ratio: f64,
    soft_samples: usize,
    deadline: Option<Instant>,
    stop: StopFlag,
    move_budget: usize,
    max_width: Option<f64>,
}

impl<'a> SlicingAnnealer<'a> {
    /// An annealer with Wong-Liu-ish defaults.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        SlicingAnnealer {
            netlist,
            seed: 0x51AC_1986,
            moves_per_temperature: 0, // 0 = auto (30 per module)
            cooling: 0.9,
            min_temperature_ratio: 1e-4,
            soft_samples: 5,
            deadline: None,
            stop: StopFlag::disabled(),
            move_budget: 0, // 0 = unlimited
            max_width: None,
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn with_seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets moves attempted per temperature step (0 = 30 × modules).
    pub fn with_moves_per_temperature(&mut self, moves: usize) -> &mut Self {
        self.moves_per_temperature = moves;
        self
    }

    /// Sets the geometric cooling factor in `(0, 1)`.
    pub fn with_cooling(&mut self, cooling: f64) -> &mut Self {
        self.cooling = cooling.clamp(0.1, 0.999);
        self
    }

    /// Sets (or clears) an absolute wall-clock deadline. Checked every few
    /// moves; on expiry the best-so-far tree is realized and returned.
    /// Wall-clock exits are *not* deterministic — use
    /// [`with_move_budget`](Self::with_move_budget) for reproducible
    /// bounded runs.
    pub fn with_deadline(&mut self, deadline: Option<Instant>) -> &mut Self {
        self.deadline = deadline;
        self
    }

    /// Installs a cooperative stop flag; raising it ends the run at the
    /// next check, returning the best tree found so far.
    pub fn with_stop(&mut self, stop: StopFlag) -> &mut Self {
        self.stop = stop;
        self
    }

    /// Caps total attempted moves (0 = unlimited). Unlike the wall-clock
    /// deadline this bound is deterministic: same seed + same budget ⇒
    /// identical move sequence, tree, and cost.
    pub fn with_move_budget(&mut self, budget: usize) -> &mut Self {
        self.move_budget = budget;
        self
    }

    /// Constrains the root shape to widths `≤ max_width` (when any such
    /// point exists), so the realized floorplan targets the same fixed
    /// outline as the other portfolio backends.
    pub fn with_max_width(&mut self, max_width: Option<f64>) -> &mut Self {
        self.max_width = max_width;
        self
    }

    /// Runs the annealing schedule.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is empty.
    #[must_use]
    pub fn run(&self) -> SlicingResult {
        let started = Instant::now();
        let n = self.netlist.num_modules();
        assert!(n > 0, "netlist has no modules");
        let candidates = self.leaf_candidates();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut current = PolishExpression::row(n);
        let mut current_cost = evaluate(&current, &candidates, self.max_width).1;
        let mut best = current.clone();
        let mut best_cost = current_cost;

        // Initial temperature from the average uphill move (classic).
        let mut uphill = Vec::new();
        for _ in 0..20.max(n) {
            let mut probe = current.clone();
            perturb(&mut probe, &mut rng);
            let c = evaluate(&probe, &candidates, self.max_width).1;
            if c > current_cost {
                uphill.push(c - current_cost);
            }
        }
        let avg_up = if uphill.is_empty() {
            current_cost * 0.05
        } else {
            uphill.iter().sum::<f64>() / uphill.len() as f64
        };
        let mut temperature = (avg_up / f64::ln(1.0 / 0.85)).max(1e-9);
        let floor_temperature = temperature * self.min_temperature_ratio;

        let moves = if self.moves_per_temperature == 0 {
            30 * n
        } else {
            self.moves_per_temperature
        };

        let mut accepted_moves = 0usize;
        let mut attempted_moves = 0usize;
        'schedule: while temperature > floor_temperature {
            let mut accepted_here = 0usize;
            for _ in 0..moves {
                // Deterministic bound first, wall-clock exits second (the
                // budget must cut the move sequence at the same point on
                // every run with the same seed).
                if self.move_budget > 0 && attempted_moves >= self.move_budget {
                    break 'schedule;
                }
                if attempted_moves.is_multiple_of(16)
                    && (self.stop.is_set() || self.deadline.is_some_and(|d| Instant::now() >= d))
                {
                    break 'schedule;
                }
                attempted_moves += 1;
                let mut proposal = current.clone();
                perturb(&mut proposal, &mut rng);
                let cost = evaluate(&proposal, &candidates, self.max_width).1;
                let delta = cost - current_cost;
                let accept = delta <= 0.0 || {
                    let p = (-delta / temperature).exp();
                    rng.gen::<f64>() < p
                };
                if accept {
                    current = proposal;
                    current_cost = cost;
                    accepted_moves += 1;
                    accepted_here += 1;
                    if cost < best_cost {
                        best_cost = cost;
                        best = current.clone();
                    }
                }
            }
            temperature *= self.cooling;
            // Classic early exit: frozen when almost nothing is accepted.
            if accepted_here * 20 < moves {
                break;
            }
        }

        let floorplan = realize(&best, &candidates, self.netlist, self.max_width);
        SlicingResult {
            area: floorplan.chip_area(),
            floorplan,
            expression: best,
            accepted_moves,
            attempted_moves,
            elapsed: started.elapsed(),
        }
    }

    /// Leaf shape candidates per module: both orientations for rotatable
    /// rigid modules, sampled aspect ratios for flexible ones.
    fn leaf_candidates(&self) -> Vec<Vec<(f64, f64)>> {
        self.netlist
            .modules()
            .map(|(_, m)| match *m.shape() {
                Shape::Rigid { w, h } => {
                    if m.rotatable() && (w - h).abs() > 1e-12 {
                        vec![(w, h), (h, w)]
                    } else {
                        vec![(w, h)]
                    }
                }
                Shape::Flexible {
                    area,
                    min_aspect,
                    max_aspect,
                } => {
                    let k = self.soft_samples.max(2);
                    (0..k)
                        .map(|i| {
                            let t = i as f64 / (k - 1) as f64;
                            let aspect = min_aspect * (max_aspect / min_aspect).powf(t);
                            let w = (area * aspect).sqrt();
                            (w, area / w)
                        })
                        .collect()
                }
            })
            .collect()
    }
}

/// Applies one random move (M1/M2/M3 with equal probability).
fn perturb<R: Rng>(p: &mut PolishExpression, rng: &mut R) {
    match rng.gen_range(0..3) {
        0 => p.m1_swap_operands(rng),
        1 => p.m2_complement_chain(rng),
        _ => {
            if !p.m3_swap_operand_operator(rng) {
                p.m1_swap_operands(rng);
            }
        }
    }
}

/// Picks the root shape: the minimum-height point within `max_width` when
/// one exists (fixed-outline mode), otherwise the minimum-area point.
fn root_choice(root: &ShapeCurve, max_width: Option<f64>) -> Option<usize> {
    max_width
        .and_then(|w| root.best_height_within(w))
        .or_else(|| root.best_area())
}

/// Evaluates the expression bottom-up; returns the per-element curves and
/// the area of the chosen root shape.
fn evaluate(
    p: &PolishExpression,
    candidates: &[Vec<(f64, f64)>],
    max_width: Option<f64>,
) -> (Vec<ShapeCurve>, f64) {
    let mut stack: Vec<ShapeCurve> = Vec::new();
    let mut curves: Vec<ShapeCurve> = Vec::with_capacity(p.elements().len());
    for &e in p.elements() {
        let curve = match e {
            Element::Operand(m) => ShapeCurve::leaf(&candidates[m]),
            op => {
                let b = stack.pop().expect("balloting guarantees operands");
                let a = stack.pop().expect("balloting guarantees operands");
                ShapeCurve::combine(&a, &b, op == Element::V)
            }
        };
        stack.push(curve.clone());
        curves.push(curve);
    }
    let root = stack.pop().expect("non-empty expression");
    let area = root_choice(&root, max_width)
        .map(|k| {
            let pt = &root.points()[k];
            let mut a = pt.w * pt.h;
            // Fixed-outline mode with no fitting root shape: realizable
            // (the fallback point is used) but strongly penalized, so the
            // search walks toward trees that fit the outline.
            if max_width.is_some_and(|w| pt.w > w + 1e-9) {
                a *= 4.0;
            }
            a
        })
        .unwrap_or(f64::INFINITY);
    (curves, area)
}

/// Realizes the best expression into a floorplan by walking the curve
/// backpointers top-down.
fn realize(
    p: &PolishExpression,
    candidates: &[Vec<(f64, f64)>],
    netlist: &Netlist,
    max_width: Option<f64>,
) -> Floorplan {
    let (curves, _) = evaluate(p, candidates, max_width);
    let elements = p.elements();
    let root_curve = curves.last().expect("non-empty");
    let chosen = root_choice(root_curve, max_width).expect("non-empty curve");
    let root_pt = root_curve.points()[chosen];

    // Rebuild child indices: for each element, which elements are its
    // children (postfix structure).
    let mut stack: Vec<usize> = Vec::new();
    let mut children: Vec<Option<(usize, usize)>> = vec![None; elements.len()];
    for (i, &e) in elements.iter().enumerate() {
        if e.is_operator() {
            let b = stack.pop().expect("operand available");
            let a = stack.pop().expect("operand available");
            children[i] = Some((a, b));
        }
        stack.push(i);
    }

    let mut placed: Vec<PlacedModule> = Vec::with_capacity(candidates.len());
    // Depth-first placement: (element index, chosen point, origin).
    let mut todo = vec![(elements.len() - 1, chosen, (0.0_f64, 0.0_f64))];
    while let Some((node, choice, (x, y))) = todo.pop() {
        let pt = curves[node].points()[choice];
        match elements[node] {
            Element::Operand(m) => {
                let (w, h) = candidates[m][pt.left];
                let rotated = match netlist.module(ModuleId(m)).shape() {
                    Shape::Rigid { w: w0, h: h0 } => {
                        (w - h0).abs() < 1e-9 && (h - w0).abs() < 1e-9 && (w0 - h0).abs() > 1e-12
                    }
                    Shape::Flexible { .. } => false,
                };
                let rect = Rect::new(x, y, w, h);
                placed.push(PlacedModule {
                    id: ModuleId(m),
                    rect,
                    envelope: rect,
                    rotated,
                });
            }
            op => {
                let (a, b) = children[node].expect("operator has children");
                let pa = curves[a].points()[pt.left];
                if op == Element::V {
                    todo.push((a, pt.left, (x, y)));
                    todo.push((b, pt.right, (x + pa.w, y)));
                } else {
                    todo.push((a, pt.left, (x, y)));
                    todo.push((b, pt.right, (x, y + pa.h)));
                }
            }
        }
    }
    let floorplan = Floorplan::new(root_pt.w, placed);
    debug_assert!(
        floorplan.is_valid(),
        "slicing realization is illegal: {:?}",
        floorplan.violations()
    );
    floorplan
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::generator::ProblemGenerator;
    use fp_netlist::Module;

    #[test]
    fn perfect_packing_found_on_easy_instance() {
        // Four 2x2 squares: optimal slicing area is 16 (2x2 arrangement),
        // any valid slicing achieves at least... the annealer should find
        // a zero-dead-space packing.
        let mut nl = Netlist::new("t");
        for i in 0..4 {
            nl.add_module(Module::rigid(format!("m{i}"), 2.0, 2.0, false))
                .unwrap();
        }
        let result = SlicingAnnealer::new(&nl).run();
        assert!(result.floorplan.is_valid());
        assert!((result.area - 16.0).abs() < 1e-6, "area {}", result.area);
    }

    #[test]
    fn valid_and_complete_on_generated_problems() {
        for seed in [1u64, 2, 3] {
            let nl = ProblemGenerator::new(9, seed).generate();
            let result = SlicingAnnealer::new(&nl).with_seed(seed).run();
            assert_eq!(result.floorplan.len(), 9);
            assert!(
                result.floorplan.is_valid(),
                "{:?}",
                result.floorplan.violations()
            );
            assert!(result.accepted_moves > 0);
            assert!(result.attempted_moves >= result.accepted_moves);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let nl = ProblemGenerator::new(7, 4).generate();
        let a = SlicingAnnealer::new(&nl).with_seed(9).run();
        let b = SlicingAnnealer::new(&nl).with_seed(9).run();
        assert_eq!(a.floorplan, b.floorplan);
    }

    #[test]
    fn deterministic_under_a_move_budget() {
        // The portfolio's reproducibility contract: same seed + same
        // deterministic budget ⇒ identical tree, cost, and floorplan,
        // regardless of wall-clock conditions.
        let nl = ProblemGenerator::new(9, 21).generate();
        let run = |budget: usize| {
            SlicingAnnealer::new(&nl)
                .with_seed(5)
                .with_move_budget(budget)
                .run()
        };
        let a = run(400);
        let b = run(400);
        assert_eq!(a.expression, b.expression, "trees differ across runs");
        assert_eq!(a.area.to_bits(), b.area.to_bits(), "costs differ");
        assert_eq!(a.floorplan, b.floorplan);
        assert_eq!(a.attempted_moves, b.attempted_moves);
        assert!(a.attempted_moves <= 400);
        // A different budget is allowed to land elsewhere — the bound cuts
        // the same move sequence at a different point.
        let c = run(80);
        assert!(c.attempted_moves <= 80);
        assert!(c.floorplan.is_valid());
    }

    #[test]
    fn stop_flag_cuts_run_short_with_valid_result() {
        let nl = ProblemGenerator::new(8, 6).generate();
        let stop = StopFlag::new();
        stop.trigger();
        let result = SlicingAnnealer::new(&nl).with_stop(stop).run();
        assert_eq!(result.attempted_moves, 0);
        assert_eq!(result.floorplan.len(), 8);
        assert!(result.floorplan.is_valid());
    }

    #[test]
    fn max_width_constrains_root_shape() {
        // Four 2x2 squares with a width-4 outline: the 2x2 arrangement
        // fits exactly, so the constrained annealer must realize a chip
        // no wider than 4.
        let mut nl = Netlist::new("t");
        for i in 0..4 {
            nl.add_module(Module::rigid(format!("m{i}"), 2.0, 2.0, false))
                .unwrap();
        }
        let result = SlicingAnnealer::new(&nl).with_max_width(Some(4.0)).run();
        assert!(result.floorplan.is_valid());
        assert!(
            result.floorplan.chip_width() <= 4.0 + 1e-9,
            "width {} exceeds the outline",
            result.floorplan.chip_width()
        );
        assert!((result.area - 16.0).abs() < 1e-6, "area {}", result.area);
    }

    #[test]
    fn flexible_modules_keep_exact_area() {
        let nl = ProblemGenerator::new(6, 8)
            .with_flexible_fraction(0.5)
            .generate();
        let result = SlicingAnnealer::new(&nl).run();
        assert!(result.floorplan.is_valid());
        for placed in result.floorplan.iter() {
            let m = nl.module(placed.id);
            if m.is_flexible() {
                assert!((placed.rect.area() - m.area()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn rotation_recorded() {
        // A 1x6 module in a 6x... context must end up rotated or not, but
        // the flag must agree with the realized dims.
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("a", 6.0, 1.0, true)).unwrap();
        nl.add_module(Module::rigid("b", 6.0, 1.0, true)).unwrap();
        let result = SlicingAnnealer::new(&nl).run();
        for p in result.floorplan.iter() {
            let dims = (p.rect.w, p.rect.h);
            if p.rotated {
                assert_eq!(dims, (1.0, 6.0));
            } else {
                assert_eq!(dims, (6.0, 1.0));
            }
        }
        // Optimal area 12 (stack or row).
        assert!((result.area - 12.0).abs() < 1e-6);
    }

    #[test]
    fn annealer_beats_naive_row() {
        // The initial expression is one long row; annealing must improve
        // the area on a problem with varied heights.
        let nl = ProblemGenerator::new(10, 17).generate();
        let candidates = SlicingAnnealer::new(&nl).leaf_candidates();
        let row = PolishExpression::row(10);
        let (_, row_area) = evaluate(&row, &candidates, None);
        let result = SlicingAnnealer::new(&nl).with_seed(3).run();
        assert!(
            result.area < row_area,
            "annealed {} not better than row {row_area}",
            result.area
        );
    }
}
