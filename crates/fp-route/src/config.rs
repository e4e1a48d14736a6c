//! Router configuration.

/// Path-cost model (paper §4, Series 3 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteAlgorithm {
    /// Plain shortest path: edge cost = geometric length.
    ShortestPath,
    /// Shortest path with congestion penalty: once an edge's usage reaches
    /// its preliminary capacity, its cost is multiplied — the paper's
    /// "penalty function for utilization of a channel beyond its
    /// preliminary capacity".
    #[default]
    WeightedShortestPath,
}

/// Whether wires may cross module interiors (paper §4: Series 2 assumes
/// over-the-cell routing; Series 3 around-the-cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Wires route freely over modules (Series 2 technology).
    OverTheCell,
    /// Module interiors carry no capacity and are strongly penalized, so
    /// wires prefer channels; anything forced through a module shows up as
    /// overflow and drives channel adjustment (Series 3 technology).
    #[default]
    AroundTheCell,
}

/// Configuration for [`route`](crate::route).
///
/// ```
/// use fp_route::{RouteConfig, RouteAlgorithm};
/// let cfg = RouteConfig::default().with_algorithm(RouteAlgorithm::ShortestPath);
/// assert_eq!(cfg.algorithm, RouteAlgorithm::ShortestPath);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Cost model.
    pub algorithm: RouteAlgorithm,
    /// Blockage model.
    pub mode: RoutingMode,
    /// Horizontal routing-track pitch (width + spacing), technology input.
    pub pitch_h: f64,
    /// Vertical routing-track pitch.
    pub pitch_v: f64,
    /// Congestion penalty multiplier per unit of overuse
    /// (WeightedShortestPath only).
    pub penalty: f64,
    /// Cost multiplier for crossing a module interior (AroundTheCell only).
    pub blockage_penalty: f64,
    /// Structured-event tracer: [`route`](crate::route) emits per-net and
    /// channel-adjustment events through it. Disabled by default.
    pub tracer: fp_obs::Tracer,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            algorithm: RouteAlgorithm::default(),
            mode: RoutingMode::default(),
            pitch_h: 0.10,
            pitch_v: 0.10,
            penalty: 4.0,
            blockage_penalty: 25.0,
            tracer: fp_obs::Tracer::disabled(),
        }
    }
}

impl RouteConfig {
    /// Sets the cost model.
    #[must_use]
    pub fn with_algorithm(mut self, algorithm: RouteAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the blockage model.
    #[must_use]
    pub fn with_mode(mut self, mode: RoutingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the routing-track pitches.
    #[must_use]
    pub fn with_pitches(mut self, pitch_h: f64, pitch_v: f64) -> Self {
        self.pitch_h = pitch_h;
        self.pitch_v = pitch_v;
        self
    }

    /// Sets the over-capacity penalty.
    #[must_use]
    pub fn with_penalty(mut self, penalty: f64) -> Self {
        self.penalty = penalty;
        self
    }

    /// Installs a structured-event tracer for routing events.
    #[must_use]
    pub fn with_tracer(mut self, tracer: fp_obs::Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let c = RouteConfig::default();
        assert_eq!(c.algorithm, RouteAlgorithm::WeightedShortestPath);
        assert_eq!(c.mode, RoutingMode::AroundTheCell);
        assert!(c.penalty > 0.0);
        let c = c
            .with_algorithm(RouteAlgorithm::ShortestPath)
            .with_mode(RoutingMode::OverTheCell)
            .with_pitches(0.5, 0.25)
            .with_penalty(9.0);
        assert_eq!(c.algorithm, RouteAlgorithm::ShortestPath);
        assert_eq!(c.mode, RoutingMode::OverTheCell);
        assert_eq!((c.pitch_h, c.pitch_v), (0.5, 0.25));
        assert_eq!(c.penalty, 9.0);
    }
}
