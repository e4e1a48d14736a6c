//! Scale-study deck generators: ami49-class and GSRC-style synthetics.
//!
//! The spatial-indexing work targets instances well past the paper's 33
//! modules. These generators produce deterministic decks in two familiar
//! benchmark families:
//!
//! * [`ami49_class`] — 49 modules with the macro-heavy character of the
//!   MCNC `ami49` deck: a few large macros dominating the area, a middle
//!   tier, and a long tail of small blocks (roughly a 100:1 area spread).
//! * [`gsrc_style`] — GSRC `n*`-like decks (`n ∈ {49, 100, 200, 300}`,
//!   any `n ≥ 1` accepted): many similar-sized blocks with a narrow area
//!   spread and a soft-block fraction, connected by short locality-biased
//!   nets.
//!
//! Both are pure functions of their arguments: same seed, byte-identical
//! [`format::write`](crate::format::write) output.

use crate::module::{Module, SidePins};
use crate::net::Net;
use crate::netlist::Netlist;
use crate::ModuleId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The GSRC-style deck sizes exercised by the scale benchmarks.
pub const GSRC_SIZES: [usize; 4] = [49, 100, 200, 300];

/// Salt for [`ami49_class`] seeds, distinct from every other seeded stream
/// in the workspace.
const AMI49_SALT: u64 = 0x5EED_A149_0000_0001;
/// Salt for [`gsrc_style`] seeds.
const GSRC_SALT: u64 = 0x5EED_6540_0000_0002;

/// Area tiers of the ami49-class deck: `(count, min_area, max_area)`.
/// 6 macros + 15 mid blocks + 28 small blocks = 49 modules; the macro tier
/// holds most of the silicon, like the real `ami49`.
const AMI49_TIERS: [(usize, f64, f64); 3] =
    [(6, 1600.0, 4900.0), (15, 250.0, 900.0), (28, 36.0, 150.0)];

/// Aspect-ratio bounds shared by both deck families (log-uniform samples;
/// integer rounding of dimensions can nudge realized aspects slightly out).
const ASPECT_RANGE: (f64, f64) = (0.5, 2.0);

/// A 49-module macro-heavy deck in the `ami49` mold. Rigid, rotatable
/// modules in three area tiers (see `AMI49_TIERS`), ~2.2 nets per module
/// with locality bias. Deterministic in `seed`.
///
/// ```
/// use fp_netlist::decks::ami49_class;
/// let nl = ami49_class(7);
/// assert_eq!(nl.num_modules(), 49);
/// assert_eq!(nl, ami49_class(7));
/// ```
#[must_use]
pub fn ami49_class(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ AMI49_SALT);
    let mut nl = Netlist::new(format!("ami49c-{seed}"));
    let mut i = 0usize;
    for &(count, amin, amax) in &AMI49_TIERS {
        for _ in 0..count {
            nl.add_module(rigid_module(format!("b{i:02}"), amin, amax, &mut rng))
                .expect("generated names are unique");
            i += 1;
        }
    }
    add_local_nets(&mut nl, 2.2, &mut rng);
    nl
}

/// A GSRC-style deck of `n` similar-sized blocks: areas log-uniform in
/// `[16, 120]`, one block in four flexible (soft) with the same area law,
/// ~1.8 nets per module with locality bias. Deterministic in `(n, seed)`.
///
/// ```
/// use fp_netlist::decks::gsrc_style;
/// let nl = gsrc_style(100, 3);
/// assert_eq!(nl.num_modules(), 100);
/// assert_eq!(nl, gsrc_style(100, 3));
/// ```
///
/// # Panics
///
/// Panics when `n == 0`.
#[must_use]
pub fn gsrc_style(n: usize, seed: u64) -> Netlist {
    assert!(n >= 1, "gsrc_style needs at least one module");
    let mut rng = StdRng::seed_from_u64(seed ^ GSRC_SALT ^ (n as u64).rotate_left(17));
    let mut nl = Netlist::new(format!("gsrc{n}-{seed}"));
    let (amin, amax) = (16.0, 120.0);
    for i in 0..n {
        let name = format!("g{i:03}");
        let module = if rng.gen_range(0..4) == 0 {
            let area = log_uniform(amin, amax, &mut rng).round().max(1.0);
            Module::flexible(name, area, ASPECT_RANGE.0, ASPECT_RANGE.1)
        } else {
            rigid_module(name, amin, amax, &mut rng)
        };
        nl.add_module(with_side_pins(module))
            .expect("generated names are unique");
    }
    add_local_nets(&mut nl, 1.8, &mut rng);
    nl
}

/// Log-uniform sample in `[lo, hi]`.
fn log_uniform(lo: f64, hi: f64, rng: &mut StdRng) -> f64 {
    (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp()
}

/// A rigid, rotatable module with log-uniform area in `[amin, amax]` and
/// log-uniform aspect in [`ASPECT_RANGE`], integer-rounded dimensions.
fn rigid_module(name: String, amin: f64, amax: f64, rng: &mut StdRng) -> Module {
    let area = log_uniform(amin, amax, rng);
    let aspect = log_uniform(ASPECT_RANGE.0, ASPECT_RANGE.1, rng);
    let w = (area * aspect).sqrt().round().max(1.0);
    let h = (area / aspect).sqrt().round().max(1.0);
    with_side_pins(Module::rigid(name, w, h, true))
}

/// Pin counts proportional to side lengths, as in the Table 1 generator.
fn with_side_pins(module: Module) -> Module {
    let (wlo, whi) = module.width_range();
    let (hlo, hhi) = module.height_range();
    let pins = SidePins {
        left: ((hlo + hhi) / 8.0).ceil() as u32,
        right: ((hlo + hhi) / 8.0).ceil() as u32,
        bottom: ((wlo + whi) / 8.0).ceil() as u32,
        top: ((wlo + whi) / 8.0).ceil() as u32,
    };
    module.with_pins(pins)
}

/// Adds `density × num_modules` locality-biased nets (degree 2–5, anchored
/// within a ±`n/3` index window) to `nl`.
fn add_local_nets(nl: &mut Netlist, density: f64, rng: &mut StdRng) {
    let n = nl.num_modules();
    let num_nets = (n as f64 * density).round() as usize;
    let max_degree = n.clamp(2, 5);
    for k in 0..num_nets {
        let degree = if rng.gen_range(0..10) < 8 {
            rng.gen_range(2..=3.min(max_degree))
        } else {
            rng.gen_range(3.min(max_degree)..=max_degree)
        };
        let anchor = rng.gen_range(0..n);
        let span = (n / 3).max(2);
        let mut members = vec![ModuleId(anchor)];
        let mut attempts = 0;
        while members.len() < degree && attempts < 100 {
            attempts += 1;
            let lo = anchor.saturating_sub(span);
            let hi = (anchor + span).min(n - 1);
            let pick = ModuleId(rng.gen_range(lo..=hi));
            if !members.contains(&pick) {
                members.push(pick);
            }
        }
        if members.len() >= 2 {
            nl.add_net(Net::new(format!("n{k:03}"), members))
                .expect("indices in range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format;
    use crate::NetlistStats;

    #[test]
    fn decks_are_byte_identical_per_seed() {
        // Determinism must hold at the serialization level, not just
        // structural equality: same seed, byte-identical deck text.
        for seed in [0u64, 1, 42] {
            let a = format::write(&ami49_class(seed));
            let b = format::write(&ami49_class(seed));
            assert_eq!(a, b);
            for n in GSRC_SIZES {
                let x = format::write(&gsrc_style(n, seed));
                let y = format::write(&gsrc_style(n, seed));
                assert_eq!(x, y, "gsrc_style({n}, {seed})");
            }
        }
        assert_ne!(
            format::write(&ami49_class(1)),
            format::write(&ami49_class(2))
        );
        assert_ne!(
            format::write(&gsrc_style(100, 1)),
            format::write(&gsrc_style(100, 2))
        );
    }

    #[test]
    fn decks_round_trip_through_format() {
        let nl = ami49_class(3);
        let parsed = format::parse(&format::write(&nl)).expect("parses");
        assert_eq!(nl, parsed);
        let nl = gsrc_style(49, 3);
        let parsed = format::parse(&format::write(&nl)).expect("parses");
        assert_eq!(nl, parsed);
    }

    #[test]
    fn ami49_class_stats_within_declared_bounds() {
        for seed in [0u64, 9, 123] {
            let nl = ami49_class(seed);
            let s = NetlistStats::of(&nl);
            assert_eq!(s.modules, 49);
            assert_eq!(s.flexible_modules, 0);
            // Rounded integer dims can nudge tier areas slightly out; allow
            // a 25% margin around the declared tier bounds.
            assert!(s.min_area >= 36.0 * 0.75, "min area {}", s.min_area);
            assert!(s.max_area <= 4900.0 * 1.25, "max area {}", s.max_area);
            // Macro-heavy: the spread must be wide (real ami49 is ~100:1).
            assert!(
                s.max_area / s.min_area >= 15.0,
                "spread {}",
                s.max_area / s.min_area
            );
            assert!(s.nets >= 49, "nets {}", s.nets);
            assert!(s.avg_net_degree >= 2.0);
            for (_, m) in nl.modules() {
                let (w, h) = (m.width_range().1, m.height_range().1);
                let aspect = w / h;
                assert!(
                    (0.25..=4.0).contains(&aspect),
                    "{} aspect {aspect}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn gsrc_style_stats_within_declared_bounds() {
        for n in GSRC_SIZES {
            let nl = gsrc_style(n, 5);
            let s = NetlistStats::of(&nl);
            assert_eq!(s.modules, n);
            // Narrow spread and a real soft-block fraction (1 in 4 expected).
            assert!(s.min_area >= 16.0 * 0.75, "min area {}", s.min_area);
            assert!(s.max_area <= 120.0 * 1.25, "max area {}", s.max_area);
            let frac = s.flexible_modules as f64 / n as f64;
            assert!((0.05..=0.5).contains(&frac), "flexible fraction {frac}");
            assert!(s.nets >= n, "nets {}", s.nets);
            assert!(s.avg_net_degree >= 2.0);
        }
    }
}
