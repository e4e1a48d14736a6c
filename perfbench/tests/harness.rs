//! The harness's own checks at tiny sizes: every metric named in
//! `BENCHMARK.json` is emitted with its unit, and the count metrics repeat
//! exactly from run to run.

use perfbench::{run, Options, Outcome, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let outcome = run(&Options {
        workload,
        seed,
        seconds: 1,
        trace,
        tiny: true,
    })
    .expect("tiny workload runs");
    assert_eq!(outcome.failed, 0, "{}", outcome.report);
    assert!(outcome.attempted > 0);
    outcome
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_emits(outcome: &Outcome, section: &str) {
    let want = declared(section);
    assert!(!want.is_empty());
    let got: Vec<(String, String)> = outcome
        .metrics
        .0
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics in emission order");
    for m in &outcome.metrics.0 {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        let plain = tiny(workload, 1, false);
        assert_emits(&plain, "end_to_end");
        for m in &plain.metrics.0 {
            assert!(m.value > 0.0, "{} {} = 0", workload.name(), m.name);
        }
        assert_emits(&tiny(workload, 1, true), "per_layer");
    }
}

#[test]
fn count_metrics_repeat_exactly() {
    for workload in Workload::ALL {
        // Different seeds reorder the list; the counts must not move.
        let a = tiny(workload, 1, false);
        let b = tiny(workload, 2, false);
        for name in ["area_ratio", "routed_wl", "full_quality_share"] {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
        }
    }
    for workload in [Workload::PaperFlow, Workload::ScaleFlow] {
        let a = tiny(workload, 1, true);
        let b = tiny(workload, 2, true);
        for name in ["milp.nodes", "milp.pivots", "milp.node_limited_steps"] {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
            assert!(a.metrics.get(name).is_some());
        }
        assert!(a.metrics.get("milp.nodes") > Some(0.0));
    }
}
