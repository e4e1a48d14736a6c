//! The benchmark's own legality checker for answers.
//!
//! Deliberately independent of `Floorplan::violations`: it starts from the
//! netlist and the reported rectangles only, so a bug shared by the solver
//! and its own certificate cannot pass unnoticed.

use fp_core::Floorplan;
use fp_netlist::{Netlist, Shape};
use fp_serve::PlacedRect;
use std::collections::HashMap;

/// Absolute slack allowed on coordinates of magnitude `v`.
fn tol(v: f64) -> f64 {
    1e-6 * v.abs().max(1.0)
}

/// A reported module rectangle.
#[derive(Debug, Clone)]
pub struct Placed {
    pub name: String,
    pub x: f64,
    pub y: f64,
    pub w: f64,
    pub h: f64,
}

/// The module rectangles of an in-process floorplan.
pub fn from_floorplan(floorplan: &Floorplan, netlist: &Netlist) -> Vec<Placed> {
    floorplan
        .iter()
        .map(|p| Placed {
            name: netlist.module(p.id).name().to_string(),
            x: p.rect.x,
            y: p.rect.y,
            w: p.rect.w,
            h: p.rect.h,
        })
        .collect()
}

/// The module rectangles of a service answer.
pub fn from_entries(entries: &[PlacedRect]) -> Vec<Placed> {
    entries
        .iter()
        .map(|e| Placed {
            name: e.name.clone(),
            x: e.x,
            y: e.y,
            w: e.w,
            h: e.h,
        })
        .collect()
}

/// Checks that every module of `netlist` is placed exactly once, with its
/// own dimensions (either orientation when rotatable; a legal shape of at
/// least its area when flexible), inside the `chip_w × chip_h` chip, and
/// that no two rectangles overlap.
pub fn check(netlist: &Netlist, chip_w: f64, chip_h: f64, placed: &[Placed]) -> Result<(), String> {
    if !(chip_w.is_finite() && chip_h.is_finite() && chip_w > 0.0 && chip_h > 0.0) {
        return Err(format!("degenerate chip {chip_w} x {chip_h}"));
    }
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for p in placed {
        *seen.entry(p.name.as_str()).or_default() += 1;
    }
    for (_, m) in netlist.modules() {
        match seen.remove(m.name()) {
            Some(1) => {}
            Some(k) => return Err(format!("{} placed {k} times", m.name())),
            None => return Err(format!("{} not placed", m.name())),
        }
    }
    if let Some(name) = seen.keys().next() {
        return Err(format!("{name} placed but not in the netlist"));
    }

    for p in placed {
        let id = netlist
            .module_by_name(&p.name)
            .expect("names checked above");
        let m = netlist.module(id);
        let dims_ok = match *m.shape() {
            Shape::Rigid { w, h } => {
                let same = |a: f64, b: f64| (a - b).abs() <= tol(b);
                (same(p.w, w) && same(p.h, h)) || (m.rotatable() && same(p.w, h) && same(p.h, w))
            }
            Shape::Flexible { area, .. } => {
                let (wmin, wmax) = m.width_range();
                let (_, hmax) = m.height_range();
                p.w >= wmin - tol(wmin)
                    && p.w <= wmax + tol(wmax)
                    && p.h <= hmax + tol(hmax)
                    && p.w * p.h >= area * (1.0 - 1e-6)
            }
        };
        if !dims_ok {
            return Err(format!(
                "{}: placed as {} x {}, not a legal shape",
                p.name, p.w, p.h
            ));
        }
        if p.x < -tol(chip_w)
            || p.y < -tol(chip_h)
            || p.x + p.w > chip_w + tol(chip_w)
            || p.y + p.h > chip_h + tol(chip_h)
        {
            return Err(format!(
                "{}: ({}, {}, {} x {}) outside the {chip_w} x {chip_h} chip",
                p.name, p.x, p.y, p.w, p.h
            ));
        }
    }

    // Sweep along x: only rectangles that start before `a` ends can meet it.
    let mut order: Vec<&Placed> = placed.iter().collect();
    order.sort_by(|a, b| a.x.total_cmp(&b.x));
    for (i, a) in order.iter().enumerate() {
        for b in &order[i + 1..] {
            let eps = tol(chip_w.max(chip_h));
            if b.x >= a.x + a.w - eps {
                break;
            }
            let dx = (a.x + a.w).min(b.x + b.w) - a.x.max(b.x);
            let dy = (a.y + a.h).min(b.y + b.h) - a.y.max(b.y);
            if dx > eps && dy > eps {
                return Err(format!("{} and {} overlap", a.name, b.name));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::Module;

    fn netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("a", 4.0, 2.0, true)).unwrap();
        nl.add_module(Module::rigid("b", 2.0, 2.0, false)).unwrap();
        nl.add_module(Module::flexible("c", 4.0, 0.5, 2.0)).unwrap();
        nl
    }

    fn at(name: &str, x: f64, y: f64, w: f64, h: f64) -> Placed {
        Placed {
            name: name.into(),
            x,
            y,
            w,
            h,
        }
    }

    #[test]
    fn accepts_a_legal_placement_with_rotation() {
        let p = [
            at("a", 0.0, 0.0, 2.0, 4.0),
            at("b", 2.0, 0.0, 2.0, 2.0),
            at("c", 2.0, 2.0, 2.0, 2.0),
        ];
        assert_eq!(check(&netlist(), 4.0, 4.0, &p), Ok(()));
    }

    #[test]
    fn rejects_each_kind_of_violation() {
        let nl = netlist();
        let base = [
            at("a", 0.0, 0.0, 2.0, 4.0),
            at("b", 2.0, 0.0, 2.0, 2.0),
            at("c", 2.0, 2.0, 2.0, 2.0),
        ];
        let mut overlap = base.clone();
        overlap[1].y = 1.0;
        assert!(check(&nl, 4.0, 4.0, &overlap)
            .unwrap_err()
            .contains("overlap"));
        let mut rotated_rigid = base.clone();
        rotated_rigid[1] = at("b", 2.0, 0.0, 2.0, 1.0);
        assert!(check(&nl, 4.0, 4.0, &rotated_rigid).is_err());
        let mut outside = base.clone();
        outside[2].x = 3.0;
        assert!(check(&nl, 4.0, 4.0, &outside)
            .unwrap_err()
            .contains("outside"));
        let mut shrunk = base.clone();
        shrunk[2].h = 1.5;
        assert!(check(&nl, 4.0, 4.0, &shrunk).is_err());
        assert!(check(&nl, 4.0, 4.0, &base[..2])
            .unwrap_err()
            .contains("not placed"));
        let mut twice = base.to_vec();
        twice.push(at("b", 0.0, 0.0, 2.0, 2.0));
        assert!(check(&nl, 4.0, 4.0, &twice)
            .unwrap_err()
            .contains("2 times"));
    }
}
