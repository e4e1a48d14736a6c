//! Criterion micro-benchmarks for the MILP solver substrate: LP simplex
//! throughput, knapsack branch-and-bound, and one floorplanning
//! non-overlap MILP of augmentation-step size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_bench::instances::{knapsack, placement_milp, random_lp, seeded_set};
use fp_milp::{Model, SolveOptions};
use std::time::Duration;

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    for &n in &[10usize, 25, 50] {
        let model = random_lp(n, 7);
        group.bench_with_input(BenchmarkId::new("lp_dense", n), &model, |b, m| {
            b.iter(|| m.solve().expect("feasible by construction"))
        });
    }
    group.finish();
}

fn bench_branch_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_bound");
    group.measurement_time(Duration::from_secs(8));
    for &n in &[10usize, 16, 22] {
        let model = knapsack(n, 3);
        group.bench_with_input(BenchmarkId::new("knapsack", n), &model, |b, m| {
            b.iter(|| m.solve().expect("knapsacks are feasible"))
        });
    }
    group.finish();
}

fn bench_placement_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_milp");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(12));
    for &k in &[3usize, 4, 5] {
        let model = placement_milp(k);
        let opts = SolveOptions::default().with_node_limit(50_000);
        group.bench_with_input(BenchmarkId::new("non_overlap", k), &model, |b, m| {
            b.iter(|| m.solve_with(&opts).expect("placement is feasible"))
        });
    }
    group.finish();
}

/// Observability overhead: the same solves untraced, with a disabled
/// tracer, and with a no-op sink attached. `disabled` must track `off`
/// within noise (one `Option` check per emit site); `null_sink` bounds the
/// full event-construction cost.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(12));
    let cases: Vec<(&str, Model)> = vec![
        ("knapsack22", knapsack(22, 3)),
        ("placement5", placement_milp(5)),
    ];
    let opts = SolveOptions::default().with_node_limit(50_000);
    for (name, model) in &cases {
        group.bench_with_input(BenchmarkId::new(*name, "off"), model, |b, m| {
            b.iter(|| m.solve_with(&opts).expect("feasible by construction"))
        });
        let disabled = fp_obs::Tracer::disabled();
        group.bench_with_input(BenchmarkId::new(*name, "disabled"), model, |b, m| {
            b.iter(|| {
                m.solve_traced(&opts, &disabled)
                    .expect("feasible by construction")
            })
        });
        let null = fp_obs::Tracer::new(fp_obs::NullSink);
        group.bench_with_input(BenchmarkId::new(*name, "null_sink"), model, |b, m| {
            b.iter(|| {
                m.solve_traced(&opts, &null)
                    .expect("feasible by construction")
            })
        });
    }
    group.finish();
}

/// Warm vs cold node solves on the same trees: the `warm_start` rows pit
/// the default dual-simplex basis reuse against `with_warm_start(false)`
/// (every node solved by the cold two-phase primal), on the classic bench
/// models and the seeded snapshot set.
fn bench_warm_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_start");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(12));
    let mut cases: Vec<(String, Model)> = vec![
        ("knapsack22".into(), knapsack(22, 3)),
        ("placement5".into(), placement_milp(5)),
    ];
    cases.extend(seeded_set());
    for (name, model) in &cases {
        for (mode, warm) in [("cold", false), ("warm", true)] {
            let opts = SolveOptions::default()
                .with_node_limit(50_000)
                .with_warm_start(warm);
            group.bench_with_input(BenchmarkId::new(name.as_str(), mode), model, |b, m| {
                b.iter(|| m.solve_with(&opts).expect("feasible by construction"))
            });
        }
    }
    group.finish();
}

/// Model strengthening on vs off on the same trees: probing presolve,
/// coefficient tightening and root cuts shrink the tree before the first
/// branch, so the `on` rows should win end-to-end wherever the instances
/// carry big-M structure (the placement models).
fn bench_strengthen(c: &mut Criterion) {
    let mut group = c.benchmark_group("strengthen");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(12));
    let cases: Vec<(&str, Model)> = vec![
        ("knapsack22", knapsack(22, 3)),
        ("placement4", placement_milp(4)),
        ("placement5", placement_milp(5)),
    ];
    for (name, model) in &cases {
        for (mode, on) in [("off", false), ("on", true)] {
            let opts = SolveOptions::default()
                .with_node_limit(50_000)
                .with_strengthen(on);
            group.bench_with_input(BenchmarkId::new(*name, mode), model, |b, m| {
                b.iter(|| m.solve_with(&opts).expect("feasible by construction"))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simplex,
    bench_branch_bound,
    bench_placement_milp,
    bench_trace_overhead,
    bench_warm_start,
    bench_strengthen
);
criterion_main!(benches);
