//! Floorplan result types.

use fp_geom::{union_area, Rect, GEOM_EPS};
use fp_netlist::{ModuleId, Netlist};
use std::collections::HashMap;

/// One placed module: its realized rectangle, orientation and the routing
/// envelope that was reserved around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedModule {
    /// Which module this is.
    pub id: ModuleId,
    /// The module's own rectangle (post-rotation, post-shaping).
    pub rect: Rect,
    /// The reserved envelope (equals `rect` when envelopes are disabled).
    pub envelope: Rect,
    /// Whether the module was rotated 90° (`z_i = 1`).
    pub rotated: bool,
}

/// A complete floorplan: placed modules on a chip of fixed width.
///
/// The chip height is the top of the highest envelope; chip area is
/// `width × height` (the paper's "minimal covering rectangle").
///
/// ```
/// use fp_core::{Floorplan, PlacedModule};
/// use fp_geom::Rect;
/// use fp_netlist::ModuleId;
///
/// let module = PlacedModule {
///     id: ModuleId(0),
///     rect: Rect::new(0.0, 0.0, 4.0, 3.0),
///     envelope: Rect::new(0.0, 0.0, 4.0, 3.0),
///     rotated: false,
/// };
/// let fp = Floorplan::new(10.0, vec![module]);
/// assert_eq!(fp.chip_area(), 30.0); // 10 wide x 3 high
/// assert!(fp.is_valid());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    chip_width: f64,
    modules: Vec<PlacedModule>,
    index: HashMap<ModuleId, usize>,
}

impl Floorplan {
    /// Assembles a floorplan from placements.
    ///
    /// # Panics
    ///
    /// Panics if two placements share a [`ModuleId`].
    #[must_use]
    pub fn new(chip_width: f64, modules: Vec<PlacedModule>) -> Self {
        let mut index = HashMap::with_capacity(modules.len());
        for (k, m) in modules.iter().enumerate() {
            let previous = index.insert(m.id, k);
            assert!(previous.is_none(), "duplicate placement for {}", m.id);
        }
        Floorplan {
            chip_width,
            modules,
            index,
        }
    }

    /// The fixed chip width `W`.
    #[must_use]
    pub fn chip_width(&self) -> f64 {
        self.chip_width
    }

    /// The chip height: top of the highest envelope (0 when empty).
    #[must_use]
    pub fn chip_height(&self) -> f64 {
        self.modules
            .iter()
            .map(|m| m.envelope.top())
            .fold(0.0, f64::max)
    }

    /// Chip area `W × height`.
    #[must_use]
    pub fn chip_area(&self) -> f64 {
        self.chip_width * self.chip_height()
    }

    /// The chip bounding rectangle.
    #[must_use]
    pub fn chip_rect(&self) -> Rect {
        Rect::new(0.0, 0.0, self.chip_width, self.chip_height())
    }

    /// Area utilization: `netlist` module area over chip area — the paper's
    /// "Area Utilisation" column (ami33: 11520 / chip area).
    #[must_use]
    pub fn utilization(&self, netlist: &Netlist) -> f64 {
        let chip = self.chip_area();
        if chip <= 0.0 {
            return 0.0;
        }
        netlist.total_module_area() / chip
    }

    /// Number of placed modules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the floorplan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// The placement of a module, if present.
    #[must_use]
    pub fn placement(&self, id: ModuleId) -> Option<&PlacedModule> {
        self.index.get(&id).map(|&k| &self.modules[k])
    }

    /// Iterates over placements in placement order.
    pub fn iter(&self) -> impl Iterator<Item = &PlacedModule> {
        self.modules.iter()
    }

    /// All module rectangles (no envelopes), placement order.
    #[must_use]
    pub fn module_rects(&self) -> Vec<Rect> {
        self.modules.iter().map(|m| m.rect).collect()
    }

    /// All envelope rectangles, placement order.
    #[must_use]
    pub fn envelope_rects(&self) -> Vec<Rect> {
        self.modules.iter().map(|m| m.envelope).collect()
    }

    /// Total wirelength estimate: `Σ c_ij · manhattan(center_i, center_j)`
    /// over connected module pairs — the MILP's wirelength term evaluated on
    /// the final placement.
    #[must_use]
    pub fn center_wirelength(&self, netlist: &Netlist) -> f64 {
        let mut total = 0.0;
        for (k, a) in self.modules.iter().enumerate() {
            for b in &self.modules[k + 1..] {
                let c = netlist.connectivity(a.id, b.id);
                if c > 0.0 {
                    total += c * a.rect.center().manhattan(&b.rect.center());
                }
            }
        }
        total
    }

    /// Validates the floorplan invariants:
    ///
    /// * every envelope contains its module rectangle,
    /// * no two *envelopes* overlap,
    /// * everything lies inside the chip strip `[0, W] × [0, ∞)`.
    ///
    /// Returns a list of violation descriptions (empty = valid).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.modules {
            if !m.envelope.contains_rect(&m.rect) {
                out.push(format!(
                    "{}: rect {} outside envelope {}",
                    m.id, m.rect, m.envelope
                ));
            }
            if m.envelope.x < -GEOM_EPS
                || m.envelope.y < -GEOM_EPS
                || m.envelope.right() > self.chip_width + GEOM_EPS
            {
                out.push(format!(
                    "{}: envelope {} outside chip width {}",
                    m.id, m.envelope, self.chip_width
                ));
            }
        }
        for (k, a) in self.modules.iter().enumerate() {
            for b in &self.modules[k + 1..] {
                if a.envelope.overlaps(&b.envelope) {
                    out.push(format!(
                        "{} and {} overlap: {} vs {}",
                        a.id, b.id, a.envelope, b.envelope
                    ));
                }
            }
        }
        out
    }

    /// `true` when [`Floorplan::violations`] is empty.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.violations().is_empty()
    }

    /// Dead space fraction: 1 − (envelope union area / chip area).
    #[must_use]
    pub fn dead_space(&self) -> f64 {
        let chip = self.chip_area();
        if chip <= 0.0 {
            return 0.0;
        }
        1.0 - union_area(&self.envelope_rects()) / chip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::{Module, Net};

    fn place(id: usize, x: f64, y: f64, w: f64, h: f64) -> PlacedModule {
        PlacedModule {
            id: ModuleId(id),
            rect: Rect::new(x, y, w, h),
            envelope: Rect::new(x, y, w, h),
            rotated: false,
        }
    }

    #[test]
    fn heights_areas_lookup() {
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 4.0, 3.0), place(1, 4.0, 0.0, 4.0, 5.0)],
        );
        assert_eq!(fp.chip_height(), 5.0);
        assert_eq!(fp.chip_area(), 50.0);
        assert_eq!(fp.len(), 2);
        assert!(fp.placement(ModuleId(1)).is_some());
        assert!(fp.placement(ModuleId(9)).is_none());
        assert!(fp.is_valid());
        assert!((fp.dead_space() - (1.0 - 32.0 / 50.0)).abs() < 1e-9);
    }

    #[test]
    fn overlap_detected() {
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 4.0, 3.0), place(1, 2.0, 1.0, 4.0, 5.0)],
        );
        assert!(!fp.is_valid());
        assert_eq!(fp.violations().len(), 1);
    }

    #[test]
    fn out_of_chip_detected() {
        let fp = Floorplan::new(5.0, vec![place(0, 3.0, 0.0, 4.0, 3.0)]);
        assert!(!fp.is_valid());
    }

    #[test]
    fn rect_outside_envelope_detected() {
        let bad = PlacedModule {
            id: ModuleId(0),
            rect: Rect::new(0.0, 0.0, 5.0, 5.0),
            envelope: Rect::new(0.0, 0.0, 3.0, 3.0),
            rotated: false,
        };
        let fp = Floorplan::new(10.0, vec![bad]);
        assert!(!fp.is_valid());
    }

    #[test]
    #[should_panic(expected = "duplicate placement")]
    fn duplicate_ids_panic() {
        let _ = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 1.0, 1.0), place(0, 2.0, 0.0, 1.0, 1.0)],
        );
    }

    #[test]
    fn utilization_and_wirelength() {
        let mut nl = Netlist::new("t");
        let a = nl.add_module(Module::rigid("a", 4.0, 3.0, false)).unwrap();
        let b = nl.add_module(Module::rigid("b", 4.0, 5.0, false)).unwrap();
        nl.add_net(Net::new("ab", [a, b]).with_weight(2.0)).unwrap();
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 4.0, 3.0), place(1, 4.0, 0.0, 4.0, 5.0)],
        );
        assert!((fp.utilization(&nl) - 32.0 / 50.0).abs() < 1e-9);
        // centers (2, 1.5) and (6, 2.5): manhattan 5, weight 2.
        assert!((fp.center_wirelength(&nl) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_floorplan() {
        let fp = Floorplan::new(10.0, Vec::new());
        assert!(fp.is_empty());
        assert_eq!(fp.chip_height(), 0.0);
        assert_eq!(fp.dead_space(), 0.0);
        assert!(fp.is_valid());
    }
}
