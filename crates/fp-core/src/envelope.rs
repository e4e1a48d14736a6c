//! Per-module shape/envelope linearization.
//!
//! Every module kind is reduced to a single linear description of its
//! *envelope* (module + §3.2 routing margins):
//!
//! ```text
//! We(z, Δw) = we0 + wez·z + wed·Δw
//! He(z, Δw) = he0 + hez·z + hed·Δw
//! ```
//!
//! * rigid, non-rotatable: constants (`wez = wed = 0`),
//! * rigid, rotatable: `z ∈ {0, 1}` swaps the orientation-0/1 envelopes
//!   (formulation (4)),
//! * flexible: `Δw ∈ [0, Δw_max]` shrinks the width while the height grows
//!   along the chosen linearization of `h = S/w` (formulation (6), Fig. 1).
//!
//! Envelope margins follow the paper: the side with `p` pins is extended by
//! `p · pitch` of the matching routing direction (horizontal tracks along
//! top/bottom, vertical tracks along left/right). When a module rotates,
//! its sides — and therefore its margins — rotate with it, which stays
//! linear in `z`.

use crate::config::{FloorplanConfig, SoftShapeModel};
use fp_geom::Rect;
use fp_netlist::{Module, ModuleId, Shape};

/// Routing margins on the four sides of a module for one orientation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Margins {
    pub left: f64,
    pub right: f64,
    pub bottom: f64,
    pub top: f64,
}

impl Margins {
    fn width(&self) -> f64 {
        self.left + self.right
    }
    fn height(&self) -> f64 {
        self.bottom + self.top
    }
}

/// Soft-module data needed at extraction time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SoftShape {
    pub area: f64,
    pub w_min: f64,
    pub w_max: f64,
    pub model: SoftShapeModel,
}

impl SoftShape {
    /// Module height as placed for a given width, per the linearization.
    ///
    /// `Secant` realizes the *true* hyperbolic height (which is ≤ the chord
    /// the MILP reserved, so placements stay overlap-free); `Taylor`
    /// realizes the paper's linearized height.
    pub(crate) fn realized_height(&self, w: f64) -> f64 {
        match self.model {
            SoftShapeModel::Secant => self.area / w,
            SoftShapeModel::Taylor => {
                let h0 = self.area / self.w_max;
                let slope = self.area / (self.w_max * self.w_max);
                h0 + slope * (self.w_max - w)
            }
        }
    }

    /// Slope of the linearized `h(Δw)` (per unit of width decrease).
    pub(crate) fn height_slope(&self) -> f64 {
        match self.model {
            SoftShapeModel::Taylor => self.area / (self.w_max * self.w_max),
            SoftShapeModel::Secant => {
                if self.w_max - self.w_min < 1e-12 {
                    0.0
                } else {
                    (self.area / self.w_min - self.area / self.w_max) / (self.w_max - self.w_min)
                }
            }
        }
    }
}

/// Linearized shape + envelope of one module, ready for the MILP.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShapeSpec {
    pub id: ModuleId,
    /// Envelope width `we0 + wez·z + wed·Δw`.
    pub we0: f64,
    pub wez: f64,
    pub wed: f64,
    /// Envelope height `he0 + hez·z + hed·Δw`.
    pub he0: f64,
    pub hez: f64,
    pub hed: f64,
    /// Range of the Δw variable (0 when absent).
    pub dw_max: f64,
    /// Whether a rotation binary is needed.
    pub has_z: bool,
    /// Whether a Δw variable is needed.
    pub has_dw: bool,
    /// Margins in orientation 0 and 1.
    pub margins: [Margins; 2],
    /// Unrotated module dims (`(w_max, h_at_w_max)` for soft).
    pub base_dims: (f64, f64),
    /// Soft-module data, when flexible.
    pub soft: Option<SoftShape>,
    /// Module area (for branch priorities and reports).
    pub area: f64,
}

/// Envelope margins are rounded **up** to a multiple of this quantum. Raw
/// `pins × pitch` margins differ slightly per module, which fragments the
/// skyline into many small steps and hurts both the covering-rectangle
/// reduction and packing; quantizing restores alignment while never
/// shrinking the reserved space.
const MARGIN_QUANTUM: f64 = 0.5;

impl ShapeSpec {
    /// Builds the spec for `module` under `config`.
    pub(crate) fn from_module(id: ModuleId, module: &Module, config: &FloorplanConfig) -> Self {
        let pins = module.pins();
        let quantize = |margin: f64| -> f64 {
            if margin > 0.0 {
                (margin / MARGIN_QUANTUM).ceil() * MARGIN_QUANTUM
            } else {
                margin
            }
        };
        let (m0, m1) = if config.envelopes {
            let m0 = Margins {
                left: quantize(f64::from(pins.left) * config.pitch_v),
                right: quantize(f64::from(pins.right) * config.pitch_v),
                bottom: quantize(f64::from(pins.bottom) * config.pitch_h),
                top: quantize(f64::from(pins.top) * config.pitch_h),
            };
            // 90° CCW rotation: left→bottom, bottom→right, right→top,
            // top→left (pin counts travel with their sides).
            let m1 = Margins {
                left: quantize(f64::from(pins.top) * config.pitch_v),
                right: quantize(f64::from(pins.bottom) * config.pitch_v),
                bottom: quantize(f64::from(pins.left) * config.pitch_h),
                top: quantize(f64::from(pins.right) * config.pitch_h),
            };
            (m0, m1)
        } else {
            (Margins::default(), Margins::default())
        };

        match *module.shape() {
            Shape::Rigid { w, h } => {
                let we0 = w + m0.width();
                let he0 = h + m0.height();
                let rotatable = config.rotation && module.rotatable();
                let (wez, hez) = if rotatable {
                    (h + m1.width() - we0, w + m1.height() - he0)
                } else {
                    (0.0, 0.0)
                };
                ShapeSpec {
                    id,
                    we0,
                    wez,
                    wed: 0.0,
                    he0,
                    hez,
                    hed: 0.0,
                    dw_max: 0.0,
                    has_z: rotatable,
                    has_dw: false,
                    margins: [m0, m1],
                    base_dims: (w, h),
                    soft: None,
                    area: w * h,
                }
            }
            Shape::Flexible {
                area,
                min_aspect,
                max_aspect,
            } => {
                let w_min = (area * min_aspect).sqrt();
                let w_max = (area * max_aspect).sqrt();
                let soft = SoftShape {
                    area,
                    w_min,
                    w_max,
                    model: config.soft_model,
                };
                let h_at_wmax = area / w_max;
                ShapeSpec {
                    id,
                    we0: w_max + m0.width(),
                    wez: 0.0,
                    wed: -1.0,
                    he0: h_at_wmax + m0.height(),
                    hez: 0.0,
                    hed: soft.height_slope(),
                    dw_max: w_max - w_min,
                    has_z: false,
                    has_dw: w_max - w_min > 1e-9,
                    margins: [m0, m0],
                    base_dims: (w_max, h_at_wmax),
                    soft: Some(soft),
                    area,
                }
            }
        }
    }

    /// Envelope width for concrete `(z, Δw)`.
    pub(crate) fn env_width(&self, z: bool, dw: f64) -> f64 {
        self.we0 + if z { self.wez } else { 0.0 } + self.wed * dw
    }

    /// Envelope height for concrete `(z, Δw)`.
    pub(crate) fn env_height(&self, z: bool, dw: f64) -> f64 {
        self.he0 + if z { self.hez } else { 0.0 } + self.hed * dw
    }

    /// Smallest envelope width over all orientations and shapes — the width
    /// the chip must at least accommodate.
    pub(crate) fn min_env_width(&self) -> f64 {
        let mut w = self.env_width(false, 0.0);
        if self.has_z {
            w = w.min(self.env_width(true, 0.0));
        }
        if self.has_dw {
            w = w.min(self.env_width(false, self.dw_max));
        }
        w
    }

    /// Candidate `(z, Δw)` shape choices for greedy placement.
    pub(crate) fn shape_candidates(&self) -> Vec<(bool, f64)> {
        let mut out = vec![(false, 0.0)];
        if self.has_z {
            out.push((true, 0.0));
        }
        if self.has_dw {
            out.push((false, self.dw_max / 2.0));
            out.push((false, self.dw_max));
        }
        out
    }

    /// Realizes the placement: given the envelope's lower-left corner and
    /// the discrete/continuous shape decisions, returns the module
    /// rectangle, its envelope, and the rotation flag.
    pub(crate) fn realize(&self, env_x: f64, env_y: f64, z: bool, dw: f64) -> (Rect, Rect, bool) {
        let env = Rect::new(env_x, env_y, self.env_width(z, dw), self.env_height(z, dw));
        let m = self.margins[usize::from(z)];
        let rect = match self.soft {
            Some(soft) => {
                let w = (self.base_dims.0 - dw).max(soft.w_min.min(self.base_dims.0));
                let h = soft.realized_height(w);
                Rect::new(env_x + m.left, env_y + m.bottom, w, h)
            }
            None => {
                let (w, h) = if z {
                    (self.base_dims.1, self.base_dims.0)
                } else {
                    self.base_dims
                };
                Rect::new(env_x + m.left, env_y + m.bottom, w, h)
            }
        };
        (rect, env, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::SidePins;

    fn cfg() -> FloorplanConfig {
        FloorplanConfig::default()
    }

    #[test]
    fn rigid_fixed_spec() {
        let m = Module::rigid("a", 4.0, 2.0, false);
        let s = ShapeSpec::from_module(ModuleId(0), &m, &cfg());
        assert!(!s.has_z && !s.has_dw);
        assert_eq!(s.env_width(false, 0.0), 4.0);
        assert_eq!(s.env_height(false, 0.0), 2.0);
        assert_eq!(s.min_env_width(), 4.0);
        let (rect, env, rot) = s.realize(1.0, 2.0, false, 0.0);
        assert_eq!(rect, Rect::new(1.0, 2.0, 4.0, 2.0));
        assert_eq!(env, rect);
        assert!(!rot);
    }

    #[test]
    fn rigid_rotatable_swaps_dims() {
        let m = Module::rigid("a", 4.0, 2.0, true);
        let s = ShapeSpec::from_module(ModuleId(0), &m, &cfg());
        assert!(s.has_z);
        assert_eq!(s.env_width(true, 0.0), 2.0);
        assert_eq!(s.env_height(true, 0.0), 4.0);
        assert_eq!(s.min_env_width(), 2.0);
        let (rect, _, rot) = s.realize(0.0, 0.0, true, 0.0);
        assert_eq!((rect.w, rect.h), (2.0, 4.0));
        assert!(rot);
    }

    #[test]
    fn rotation_disabled_by_config() {
        let m = Module::rigid("a", 4.0, 2.0, true);
        let s = ShapeSpec::from_module(ModuleId(0), &m, &cfg().with_rotation(false));
        assert!(!s.has_z);
    }

    #[test]
    fn envelope_margins_applied_and_rotated() {
        let m = Module::rigid("a", 4.0, 2.0, true).with_pins(SidePins {
            left: 10,
            right: 0,
            bottom: 0,
            top: 0,
        });
        let c = cfg().with_envelopes(true).with_pitches(0.1, 0.2);
        let s = ShapeSpec::from_module(ModuleId(0), &m, &c);
        // Orientation 0: left margin 10 * pitch_v = 2.0.
        assert!((s.env_width(false, 0.0) - 6.0).abs() < 1e-12);
        assert!((s.env_height(false, 0.0) - 2.0).abs() < 1e-12);
        // Orientation 1 (CCW): left pins now on the bottom; margin 10 *
        // pitch_h = 1.0 on height; width is h = 2.
        assert!((s.env_width(true, 0.0) - 2.0).abs() < 1e-12);
        assert!((s.env_height(true, 0.0) - 5.0).abs() < 1e-12);
        // Module rect sits inside the envelope offset by the margins.
        let (rect, env, _) = s.realize(0.0, 0.0, false, 0.0);
        assert_eq!(rect, Rect::new(2.0, 0.0, 4.0, 2.0));
        assert!(env.contains_rect(&rect));
    }

    #[test]
    fn soft_secant_overestimates_height() {
        let m = Module::flexible("s", 16.0, 0.25, 4.0); // w in [2, 8]
        let s = ShapeSpec::from_module(ModuleId(0), &m, &cfg());
        assert!(s.has_dw);
        assert!((s.dw_max - 6.0).abs() < 1e-9);
        // At the endpoints the chord is exact.
        assert!((s.env_height(false, 0.0) - 2.0).abs() < 1e-9);
        assert!((s.env_height(false, 6.0) - 8.0).abs() < 1e-9);
        // In the middle the chord over-reserves: true h(5) = 3.2, chord = 5.
        let mid_env = s.env_height(false, 3.0);
        assert!(mid_env >= 16.0 / 5.0);
        // The realized rect uses the true hyperbola and fits the envelope.
        let (rect, env, _) = s.realize(0.0, 0.0, false, 3.0);
        assert!((rect.w - 5.0).abs() < 1e-9);
        assert!((rect.h - 3.2).abs() < 1e-9);
        assert!(env.contains_rect(&rect));
        assert!((rect.area() - 16.0).abs() < 1e-9); // exact area preserved
    }

    #[test]
    fn soft_taylor_matches_paper_formula() {
        let m = Module::flexible("s", 16.0, 0.25, 4.0);
        let c = cfg().with_soft_model(SoftShapeModel::Taylor);
        let s = ShapeSpec::from_module(ModuleId(0), &m, &c);
        // Λ = S / w_max² = 16/64 = 0.25 (paper formulation (6)).
        assert!((s.hed - 0.25).abs() < 1e-12);
        let (rect, _, _) = s.realize(0.0, 0.0, false, 4.0);
        // w = 4, h_lin = 2 + 0.25*4 = 3 (true h would be 4).
        assert!((rect.w - 4.0).abs() < 1e-9);
        assert!((rect.h - 3.0).abs() < 1e-9);
    }

    #[test]
    fn shape_candidates_cover_choices() {
        let rigid =
            ShapeSpec::from_module(ModuleId(0), &Module::rigid("a", 4.0, 2.0, true), &cfg());
        assert_eq!(rigid.shape_candidates(), vec![(false, 0.0), (true, 0.0)]);
        let soft =
            ShapeSpec::from_module(ModuleId(1), &Module::flexible("s", 16.0, 0.25, 4.0), &cfg());
        assert_eq!(soft.shape_candidates().len(), 3);
    }

    #[test]
    fn square_soft_module_has_no_dw() {
        let m = Module::flexible("sq", 9.0, 1.0, 1.0);
        let s = ShapeSpec::from_module(ModuleId(0), &m, &cfg());
        assert!(!s.has_dw);
        assert_eq!(s.dw_max, 0.0);
        let (rect, _, _) = s.realize(0.0, 0.0, false, 0.0);
        assert!((rect.w - 3.0).abs() < 1e-9);
        assert!((rect.h - 3.0).abs() < 1e-9);
    }
}
