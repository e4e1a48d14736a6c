//! Criterion benchmarks for the spatial layer: sweep-line union area vs
//! the compressed-grid oracle, and the pruned vs all-pairs analytic
//! gradient.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_analytic::bench_support::GradHarness;
use fp_geom::{union_area, union_area_oracle, Rect};
use fp_netlist::decks::gsrc_style;

/// A deterministic scatter of `n` rects over a `side × side` region.
fn scattered_rects(n: usize) -> Vec<Rect> {
    let side = (n as f64).sqrt() * 8.0;
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            Rect::new(
                next() * side,
                next() * side,
                1.0 + next() * 6.0,
                1.0 + next() * 6.0,
            )
        })
        .collect()
}

fn bench_union_area(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_area");
    for &n in &[33usize, 100, 300] {
        let rects = scattered_rects(n);
        group.bench_with_input(BenchmarkId::new("sweep", n), &rects, |b, rs| {
            b.iter(|| union_area(rs))
        });
        if n <= 100 {
            group.bench_with_input(BenchmarkId::new("oracle", n), &rects, |b, rs| {
                b.iter(|| union_area_oracle(rs))
            });
        }
    }
    group.finish();
}

fn bench_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_gradient");
    for &n in &[49usize, 100, 300] {
        let nl = gsrc_style(n, 1);
        let mut harness = GradHarness::new(&nl, 1);
        group.bench_function(BenchmarkId::new("overlap_pruned", n), |b| {
            b.iter(|| harness.eval_overlap_pruned())
        });
        group.bench_function(BenchmarkId::new("overlap_all_pairs", n), |b| {
            b.iter(|| harness.eval_overlap_all_pairs())
        });
        group.bench_function(BenchmarkId::new("full_pruned", n), |b| {
            b.iter(|| harness.eval_pruned())
        });
        group.bench_function(BenchmarkId::new("full_all_pairs", n), |b| {
            b.iter(|| harness.eval_all_pairs())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_union_area, bench_gradient);
criterion_main!(benches);
