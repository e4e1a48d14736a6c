//! Host speed, measured with a fixed calibration kernel.
//!
//! The shared 2-core host this benchmark was tuned on runs its cores up to
//! 1.7 times slower for minutes at a time, and CPU time slows with wall
//! time, so no statistic within one run can separate that from the code.
//! A batch run therefore also times a fixed floating-point kernel (this
//! file's code, never the program's, so no change to the program moves
//! it) between its passes, and reports every timing metric at the
//! kernel's nominal speed: times are multiplied, and rates divided, by the
//! kernel's nominal time over its time in this run. A change that makes
//! the program 10% faster still reads 10% faster; a slow host does not
//! read as slow code. Each run prints its raw timings and the factor next
//! to the scaled ones.
//!
//! `serve_mix` reports raw timings: its two client connections and two
//! server workers keep both cores busy, and a single-threaded kernel timed
//! between its sessions did not track them (see `NOTES.md`).

use crate::metrics::{Metric, Metrics};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Rows and columns of the kernel's matrix: the size of the small dense
/// simplex tableaus the MILP steps pivot on.
const ROWS: usize = 40;
const COLS: usize = 80;
/// Row eliminations per kernel call.
const PIVOTS: usize = 1_000;
/// Kernel calls at each sampling point: before, between and after the
/// passes of a batch run.
pub const SAMPLES: usize = 20;
/// The kernel's 10th-percentile time on a quiet 2-core x86-64 host, in
/// milliseconds.
const NOMINAL_MS: f64 = 2.25;

/// One kernel call: eliminations on a fixed dense matrix, rebuilt every
/// call so each does the same arithmetic on the same values.
fn kernel() -> f64 {
    let mut m: Vec<f64> = (0..ROWS * COLS)
        .map(|i| 1.0 + (i * 7919 % 1000) as f64 / 100.0)
        .collect();
    let m = black_box(&mut m);
    for r in 0..PIVOTS {
        let (p, c) = (r % ROWS, r % COLS);
        let pivot = m[p * COLS + c].abs() + 1.0;
        for i in (0..ROWS).filter(|&i| i != p) {
            let f = m[i * COLS + c] / pivot * 1e-3;
            for j in 0..COLS {
                m[i * COLS + j] -= f * m[p * COLS + j];
            }
        }
    }
    m.iter().sum()
}

/// Kernel times of one run, in milliseconds.
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Times `n` kernel calls.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            black_box(kernel());
            self.0.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Nominal over this run's 10th-percentile kernel time: the kernel's
    /// speed in the run's fastest stretches, where the fastest repeats
    /// and passes the timings report come from. `setup_s`, a median over
    /// set-ups spread across the run, tracked this factor more closely
    /// from run to run than the ratio of medians.
    fn factor(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 1.0,
            n => NOMINAL_MS / v[n / 10],
        }
    }

    /// Scales a batch run's raw end-to-end metrics to nominal speed, and
    /// writes the kernel's time and each metric, scaled and raw, to
    /// `report`. Counts, qualities and memory are not timings and stay.
    pub fn scale(&self, raw: Metrics, report: &mut String) -> Metrics {
        let factor = self.factor();
        let _ = writeln!(
            report,
            "host speed: kernel p10 {:.3} ms over {} calls (nominal {NOMINAL_MS} ms)",
            NOMINAL_MS / factor,
            self.0.len(),
        );
        let mut scaled = Metrics::default();
        for m in raw.0 {
            let by = match m.name {
                "throughput_jobs_s" => 1.0 / factor,
                "setup_s" | "job_p50_ms" | "job_tail_ms" | "hit_p50_ms" | "eco_p50_ms"
                | "cpu_s_per_job" => factor,
                _ => 1.0,
            };
            let _ = writeln!(
                report,
                "{:<20} {:>14.6} {:<6} (raw {:.6}, x {by:.4})",
                m.name,
                m.value * by,
                m.unit,
                m.value
            );
            scaled.0.push(Metric {
                value: m.value * by,
                ..m
            });
        }
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_repeats_its_arithmetic() {
        assert_eq!(kernel().to_bits(), kernel().to_bits());
        assert!(kernel().is_finite());
    }

    #[test]
    fn timings_scale_by_nominal_over_measured() {
        // The 10th percentile of these ten is the second smallest, twice
        // nominal: the host ran at half speed.
        let speed = Speed((1..=10).map(|i| f64::from(i) * NOMINAL_MS).collect());
        let mut raw = Metrics::default();
        raw.push("job_p50_ms", "ms", 100.0);
        raw.push("throughput_jobs_s", "1/s", 4.0);
        raw.push("area_ratio", "ratio", 1.5);
        let scaled = speed.scale(raw, &mut String::new());
        assert_eq!(scaled.get("job_p50_ms"), Some(50.0));
        assert_eq!(scaled.get("throughput_jobs_s"), Some(8.0));
        assert_eq!(scaled.get("area_ratio"), Some(1.5));
        assert_eq!(Speed::default().factor(), 1.0);
    }
}
