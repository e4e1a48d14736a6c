//! Shared incumbent state for portfolio races.
//!
//! When several backends (MILP augmentation, annealer, analytical placer)
//! race the same instance, each publishes the chip height of every *full,
//! legal* floorplan it finishes into a [`SharedIncumbent`]. Other backends
//! read it to prune:
//! the MILP driver injects the best height as a
//! [`SolveOptions::initial_upper_bound`](fp_milp::SolveOptions) and aborts
//! outright once its partial-floorplan floor cannot beat it.
//!
//! The cell keeps one min-register: the best chip height, the bound a
//! fixed-width MILP step can prune against.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free cell holding the best chip height published by any backend
/// so far (`f64::INFINITY` until a first publish).
///
/// ```
/// use fp_core::SharedIncumbent;
/// let inc = SharedIncumbent::new();
/// assert!(inc.best_height().is_infinite());
/// inc.publish(10.0);
/// inc.publish(12.0); // worse height, ignored
/// assert_eq!(inc.best_height(), 10.0);
/// ```
#[derive(Debug)]
pub struct SharedIncumbent {
    height_bits: AtomicU64,
}

impl SharedIncumbent {
    /// An empty incumbent: the register starts at `f64::INFINITY`.
    #[must_use]
    pub fn new() -> Self {
        SharedIncumbent {
            height_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// Records the chip height of a finished full legal floorplan. The
    /// register only ever decreases. Non-finite heights are ignored (they
    /// cannot tighten a min-register).
    pub fn publish(&self, height: f64) {
        store_min(&self.height_bits, height);
    }

    /// The best chip height published so far (`f64::INFINITY` if none).
    #[must_use]
    pub fn best_height(&self) -> f64 {
        f64::from_bits(self.height_bits.load(Ordering::Relaxed))
    }
}

impl Default for SharedIncumbent {
    fn default() -> Self {
        SharedIncumbent::new()
    }
}

/// Snapshot equality: two incumbents compare equal when their registers
/// currently hold the same value (exists so containing configs can keep
/// deriving `PartialEq`).
impl PartialEq for SharedIncumbent {
    fn eq(&self, other: &Self) -> bool {
        self.height_bits.load(Ordering::Relaxed) == other.height_bits.load(Ordering::Relaxed)
    }
}

/// CAS-min on an `f64` stored as bits: only ever moves the value down.
fn store_min(slot: &AtomicU64, value: f64) {
    if !value.is_finite() {
        return;
    }
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if value >= f64::from_bits(cur) {
            return;
        }
        match slot.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_empty_and_tracks_minima_independently() {
        let inc = SharedIncumbent::new();
        assert!(inc.best_height().is_infinite());
        inc.publish(12.0);
        inc.publish(15.0); // worse height
        assert_eq!(inc.best_height(), 12.0);
        inc.publish(f64::NAN); // ignored
        inc.publish(f64::NEG_INFINITY); // ignored
        assert_eq!(inc.best_height(), 12.0);
        inc.publish(11.5);
        assert_eq!(inc.best_height(), 11.5);
    }

    #[test]
    fn concurrent_publishes_keep_the_minimum() {
        let inc = Arc::new(SharedIncumbent::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let inc = Arc::clone(&inc);
                s.spawn(move || {
                    for i in 0..1000 {
                        let v = (((t * 1000 + i) * 7919) % 5000) as f64 + 1.0;
                        inc.publish(v / 2.0);
                    }
                });
            }
        });
        // 7919 is coprime to 5000, so some k*7919 % 5000 == 0 -> min 1.0.
        assert_eq!(inc.best_height(), 0.5);
    }

    #[test]
    fn snapshot_equality() {
        let a = SharedIncumbent::new();
        let b = SharedIncumbent::new();
        assert_eq!(a, b);
        a.publish(5.0);
        assert_ne!(a, b);
        b.publish(5.0);
        assert_eq!(a, b);
    }
}
