//! Writes `BENCH_GEOM.json`: the bin grid's impact on the analytic
//! placer's overlap gradient, across the scale deck set.
//!
//! Usage: `geom_snapshot [OUT_PATH] [--max-n N]` (default
//! `BENCH_GEOM.json`, all sizes). `--max-n` truncates the instance set —
//! check.sh smokes the binary at `--max-n 100`.
//!
//! Instances: `ami33` (n = 33), an ami49-class deck (n = 49) and
//! GSRC-style decks at n ∈ {100, 200, 300}. Per instance, two legs:
//!
//! * `gradient` — the overlap term's cost+gradient (the term the bin grid
//!   accelerates) through the pruned `O(n·k)` path vs the all-pairs
//!   `O(n²)` oracle, measured at the descent states the optimizer
//!   actually visits (initial scatter and two later continuation stages,
//!   via `fp_analytic::bench_support::GradHarness`). `speedup` is the
//!   ratio of per-eval times summed over the stages; the headline
//!   `median_gradient_speedup` is its median over instances. Each
//!   instance also records `full_eval` — the same comparison for the
//!   *whole* cost function, whose wirelength/height/wall terms are
//!   identical on both kernels and dilute the ratio (Amdahl).
//! * `analytic` — end-to-end `fp_analytic::place` wall-clock (median of
//!   [`REPS`] runs) plus the realized chip area, pinning what the scale
//!   work is ultimately for.

use fp_analytic::bench_support::GradHarness;
use fp_analytic::{place, AnalyticConfig};
use fp_netlist::decks::{ami49_class, gsrc_style};
use fp_netlist::{ami33, Netlist};
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 3;
const SEED: u64 = 1;

/// Median-of-[`REPS`] seconds per call of `f`, with the inner iteration
/// count auto-scaled so each repetition runs at least ~20 ms.
fn time_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let probe = Instant::now();
    std::hint::black_box(f());
    let once = probe.elapsed().as_secs_f64();
    let iters = (0.02 / once.max(1e-9)).ceil().clamp(1.0, 10_000.0) as usize;
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            started.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    values[values.len() / 2]
}

fn instances(max_n: usize) -> Vec<(String, Netlist)> {
    let mut out: Vec<(String, Netlist)> = Vec::new();
    out.push(("ami33".to_string(), ami33()));
    out.push(("ami49c".to_string(), ami49_class(SEED)));
    for n in [100usize, 200, 300] {
        out.push((format!("gsrc{n}"), gsrc_style(n, SEED)));
    }
    out.retain(|(_, nl)| nl.num_modules() <= max_n);
    out
}

fn main() {
    let mut out_path = "BENCH_GEOM.json".to_string();
    let mut max_n = usize::MAX;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--max-n" {
            let v = args.next().expect("--max-n needs a value");
            max_n = v.parse().expect("--max-n value must be an integer");
        } else {
            out_path = arg;
        }
    }

    let mut rows = String::new();
    let mut gradient_speedups = Vec::new();
    for (i, (name, nl)) in instances(max_n).into_iter().enumerate() {
        let n = nl.num_modules();

        // Gradient leg: per-eval time summed over three continuation
        // stages (initial scatter, then two μ-doubled stages the real
        // descent reaches), so the ratio reflects the states the
        // optimizer spends its iterations in.
        let mut harness = GradHarness::new(&nl, SEED);
        let mut pruned_s = 0.0;
        let mut all_pairs_s = 0.0;
        let mut full_pruned_s = 0.0;
        let mut full_all_pairs_s = 0.0;
        for stage in 0..3 {
            if stage > 0 {
                harness.advance(30);
            }
            pruned_s += time_per_call(|| harness.eval_overlap_pruned());
            all_pairs_s += time_per_call(|| harness.eval_overlap_all_pairs());
            full_pruned_s += time_per_call(|| harness.eval_pruned());
            full_all_pairs_s += time_per_call(|| harness.eval_all_pairs());
        }
        let gradient_speedup = all_pairs_s / pruned_s.max(1e-12);
        let full_eval_speedup = full_all_pairs_s / full_pruned_s.max(1e-12);
        gradient_speedups.push(gradient_speedup);

        // End-to-end analytic placement.
        let cfg = AnalyticConfig::default().with_seed(SEED);
        let mut analytic_times: Vec<f64> = (0..REPS)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(place(&nl, &cfg).expect("placeable"));
                started.elapsed().as_secs_f64()
            })
            .collect();
        analytic_times.sort_by(f64::total_cmp);
        let analytic_s = analytic_times[REPS / 2];
        let result = place(&nl, &cfg).expect("placeable");
        let fp = result.floorplan;
        assert!(fp.is_valid(), "{name}: analytic placement is invalid");

        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"name\": \"{name}\", \"n\": {n}, \
             \"gradient\": {{\"pruned_s_per_eval\": {:.9}, \
             \"all_pairs_s_per_eval\": {:.9}, \"speedup\": {:.3}}}, \
             \"full_eval\": {{\"pruned_s_per_eval\": {:.9}, \
             \"all_pairs_s_per_eval\": {:.9}, \"speedup\": {:.3}}}, \
             \"analytic\": {{\"elapsed_s\": {:.6}, \"chip_area\": {:.1}}}}}",
            pruned_s,
            all_pairs_s,
            gradient_speedup,
            full_pruned_s,
            full_all_pairs_s,
            full_eval_speedup,
            analytic_s,
            fp.chip_area()
        );
        eprintln!(
            "{name} (n={n}): overlap-grad pruned {:.1} us vs all-pairs {:.1} us \
             ({gradient_speedup:.2}x; full eval {full_eval_speedup:.2}x), \
             analytic {analytic_s:.3}s",
            pruned_s * 1e6,
            all_pairs_s * 1e6,
        );
    }
    let median_gradient = median(&mut gradient_speedups);
    let json = format!(
        "{{\n  \"bench\": \"geom_scale\",\n  \"reps\": {REPS},\n  \
         \"median_gradient_speedup\": {median_gradient:.3},\n  \
         \"instances\": [\n{rows}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("median gradient speedup: {median_gradient:.2}x -> {out_path}");
}
