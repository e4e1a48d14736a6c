//! ECO (delta-job) integration tests: the end-to-end incremental path
//! through the engine, the canonical-equivalence property of the delta
//! applier, ECO-vs-scratch legality/area equivalence over seeded edit
//! scripts, scratch fallbacks, and cache-snapshot persistence across an
//! engine restart.

use fp_netlist::generator::ProblemGenerator;
use fp_netlist::Netlist;
use fp_obs::{validate_line, Collector, Tracer};
use fp_serve::fingerprint::{canonical, fingerprint_of, FingerprintParams};
use fp_serve::{Engine, JobRequest, PlacedRect, ServeConfig};
use proptest::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `f` on its own thread, panicking if it outlives the watchdog.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("service did not settle before the watchdog")
}

fn tiny_config() -> ServeConfig {
    ServeConfig::default().with_node_limit(500).with_workers(1)
}

/// Every pair of placed rectangles must be disjoint (small epsilon for
/// shared edges) and all modules present — the legality half of the
/// ECO-vs-scratch equivalence contract.
fn assert_legal(rects: &[PlacedRect], netlist: &Netlist) {
    assert_eq!(rects.len(), netlist.num_modules(), "every module placed");
    for (i, a) in rects.iter().enumerate() {
        for b in &rects[i + 1..] {
            let overlap_w = (a.x + a.w).min(b.x + b.w) - a.x.max(b.x);
            let overlap_h = (a.y + a.h).min(b.y + b.h) - a.y.max(b.y);
            assert!(
                overlap_w <= 1e-6 || overlap_h <= 1e-6,
                "{} and {} overlap by {overlap_w}x{overlap_h}",
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn delta_job_reuses_base_and_reports_eco() {
    let (base, eco, lines) = with_watchdog(|| {
        let collector = Collector::new();
        let tracer = Tracer::new(collector.clone());
        let engine = Engine::start(tiny_config().with_tracer(tracer));
        let client = engine.client();
        let nl = ProblemGenerator::new(10, 21).generate();

        let base = client.call(JobRequest::new(1, &nl));
        assert!(base.ok, "{}", base.error);
        let eco = client.call(
            JobRequest::new(2, &nl)
                .with_eco("mod! m03 rigid 3 2 rot")
                .with_eco_base(base.fingerprint),
        );
        engine.shutdown();
        let lines: Vec<String> = collector
            .records()
            .iter()
            .map(fp_obs::Record::to_json)
            .collect();
        (base, eco, lines)
    });

    assert!(eco.ok, "{}", eco.error);
    assert!(eco.eco_base_hit, "base was cached, ECO must hit");
    assert_eq!(eco.eco_total, 10);
    assert!(
        eco.eco_replaced >= 1 && eco.eco_replaced < 10,
        "one edit should replace a strict subset, got {}",
        eco.eco_replaced
    );
    assert_eq!(eco.backend, "eco");
    assert_ne!(eco.fingerprint, base.fingerprint, "edited instance differs");

    // The trace carries one DeltaApply and one EcoJob, and both validate
    // against the fp-obs schema like any other event line.
    let delta_lines: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"DeltaApply\""))
        .collect();
    let eco_lines: Vec<&String> = lines.iter().filter(|l| l.contains("\"EcoJob\"")).collect();
    assert_eq!(delta_lines.len(), 1, "one DeltaApply event");
    assert_eq!(eco_lines.len(), 1, "one EcoJob event");
    for line in lines.iter() {
        validate_line(line).unwrap_or_else(|e| panic!("invalid trace line {line}: {e}"));
    }
    assert!(eco_lines[0].contains("\"base_hit\":true"));
}

#[test]
fn eco_falls_back_to_scratch_without_base_or_on_mismatch() {
    with_watchdog(|| {
        // No cache at all: the base placement cannot be found.
        let engine = Engine::start(tiny_config().with_cache_capacity(0));
        let client = engine.client();
        let nl = ProblemGenerator::new(6, 5).generate();
        let resp = client.call(JobRequest::new(1, &nl).with_eco("mod! m01 rigid 2 2 rot"));
        assert!(resp.ok, "{}", resp.error);
        assert!(!resp.eco_base_hit, "no cache, no base hit");
        assert_eq!(resp.eco_total, 6, "still reported as an ECO job");
        assert_legal(&resp.placement_entries().unwrap(), &{
            let ops = fp_serve::parse_delta_ops("mod! m01 rigid 2 2 rot").unwrap();
            fp_serve::apply_delta(&nl, &ops).unwrap().netlist
        });
        engine.shutdown();

        // Cached base, but the client pins a different base fingerprint:
        // the base must not be trusted.
        let engine = Engine::start(tiny_config());
        let client = engine.client();
        let base = client.call(JobRequest::new(2, &nl));
        assert!(base.ok);
        let resp = client.call(
            JobRequest::new(3, &nl)
                .with_eco("mod! m01 rigid 2 2 rot")
                .with_eco_base(base.fingerprint ^ 1),
        );
        assert!(resp.ok);
        assert!(!resp.eco_base_hit, "mismatched eco_base must not hit");

        // A delta that edits 4 of the 6 modules touches more than half
        // of the instance, so it solves from scratch.
        let engine2 = Engine::start(tiny_config());
        let client2 = engine2.client();
        let base = client2.call(JobRequest::new(4, &nl));
        assert!(base.ok);
        let script = "mod! m01 rigid 2 2 rot; mod! m02 rigid 3 2 rot; \
                      mod! m03 rigid 2 3 rot; mod! m04 rigid 3 3 rot";
        let resp = client2.call(JobRequest::new(5, &nl).with_eco(script));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.eco_total, 6);
        assert!(
            !resp.eco_base_hit,
            "a delta over half the modules diverts to scratch"
        );

        // A malformed script is a typed failure, not a crash.
        let resp = client2.call(JobRequest::new(6, &nl).with_eco("frob m01"));
        assert!(!resp.ok);
        assert!(resp.error.contains("bad delta"), "{}", resp.error);
        engine2.shutdown();
    });
}

#[test]
fn eco_vs_scratch_equivalence_over_seeded_edit_scripts() {
    // For several seeded (instance, edit-script) pairs: the ECO answer
    // must be a *legal* placement of the edited instance with area close
    // to the scratch solve of the same instance.
    with_watchdog(|| {
        for seed in [3u64, 11, 29] {
            let nl = ProblemGenerator::new(9, seed).generate();
            let victim = format!("m{:02}", seed % 9);
            let script = format!("mod! {victim} rigid 2 4 rot; mod! extra rigid 2 2 rot");

            let engine = Engine::start(tiny_config());
            let client = engine.client();
            let base = client.call(JobRequest::new(1, &nl));
            assert!(base.ok, "seed {seed}: {}", base.error);
            let eco = client.call(JobRequest::new(2, &nl).with_eco(&script));
            assert!(eco.ok, "seed {seed}: {}", eco.error);
            assert!(eco.eco_base_hit, "seed {seed}: expected ECO fast path");

            let edited = {
                let ops = fp_serve::parse_delta_ops(&script).unwrap();
                fp_serve::apply_delta(&nl, &ops).unwrap().netlist
            };
            assert_legal(&eco.placement_entries().unwrap(), &edited);

            // Scratch solve of the pre-built edited instance for the
            // quality comparison (fresh engine: no cache, no coalescing
            // with the ECO job).
            let scratch = client.call(JobRequest::new(3, &edited).with_cache(false));
            assert!(scratch.ok, "seed {seed}: {}", scratch.error);
            assert_eq!(eco.fingerprint, scratch.fingerprint, "same instance");
            // Quality bound is deliberately loose here: on a 9-module
            // instance a two-op edit (resize + brand-new module) is a
            // big perturbation, and ECO keeps the rest fixed where
            // scratch repacks everything. The tight 5% single-edit pin
            // at n=33 lives in the serve_snapshot bench gate.
            assert!(
                eco.area <= scratch.area * 1.30 + 1e-9,
                "seed {seed}: ECO area {} vs scratch {}",
                eco.area,
                scratch.area
            );
            engine.shutdown();
        }
    });
}

#[test]
fn cache_snapshot_survives_restart_and_feeds_eco() {
    with_watchdog(|| {
        let path =
            std::env::temp_dir().join(format!("fp-serve-eco-restart-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let nl = ProblemGenerator::new(8, 13).generate();

        // First life: solve the base, then shut down gracefully — the
        // snapshot must land on disk.
        let engine = Engine::start(tiny_config().with_cache_path(Some(path.clone())));
        let base = engine.client().call(JobRequest::new(1, &nl));
        assert!(base.ok, "{}", base.error);
        engine.shutdown();
        assert!(path.exists(), "graceful shutdown writes the snapshot");

        // Second life: the very first delta job finds the base placement
        // without ever having solved it in this process.
        let engine = Engine::start(tiny_config().with_cache_path(Some(path.clone())));
        let eco = engine.client().call(
            JobRequest::new(2, &nl)
                .with_eco("mod! m02 rigid 2 3 rot")
                .with_eco_base(base.fingerprint),
        );
        assert!(eco.ok, "{}", eco.error);
        assert!(eco.eco_base_hit, "restored cache must feed the ECO path");
        let (hits, _) = engine.cache_stats();
        assert!(hits >= 1, "base lookup hit the restored cache");
        engine.shutdown();
        let _ = std::fs::remove_file(&path);
    });
}

#[test]
fn cache_snapshot_lands_without_shutdown() {
    with_watchdog(|| {
        let path =
            std::env::temp_dir().join(format!("fp-serve-eco-bg-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let nl = ProblemGenerator::new(6, 29).generate();

        // A killed server never runs destructors, so the snapshot must
        // land from the background persist loop while the engine is
        // still alive — poll for it without dropping anything.
        let engine = Engine::start(tiny_config().with_cache_path(Some(path.clone())));
        let base = engine.client().call(JobRequest::new(1, &nl));
        assert!(base.ok, "{}", base.error);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !path.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        assert!(
            path.exists(),
            "background persist loop writes the snapshot while running"
        );
        let restored = fp_serve::cache::SolutionCache::new(16);
        assert!(restored.load(&path).unwrap() >= 1, "snapshot has the base");
        engine.shutdown();
        let _ = std::fs::remove_file(&path);
    });
}

/// Strategy: a base instance seed plus a small edit script built from
/// ops that are valid against any instance the generator produces.
fn edit_script() -> impl Strategy<Value = String> {
    let op = prop_oneof![
        (0usize..6, 1u32..8, 1u32..8, any::<bool>()).prop_map(|(i, w, h, rot)| format!(
            "mod! m{i:02} rigid {w} {h} {}",
            if rot { "rot" } else { "fixed" }
        )),
        (1u32..6, 1u32..4).prop_map(|(w, h)| format!("mod! fresh rigid {w} {h} rot")),
        (0usize..6, 0usize..6).prop_map(|(a, b)| {
            let b = if a == b { (b + 1) % 6 } else { b };
            format!("net! pnet weight 2 : m{a:02} m{b:02}")
        }),
        (0usize..6).prop_map(|i| format!("mod- m{i:02}")),
    ];
    proptest::collection::vec(op, 1..4).prop_map(|ops| ops.join("; "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole's correctness property: applying a delta to the base
    /// must yield the byte-identical canonical text (and therefore the
    /// identical fingerprint) as building the edited instance from
    /// scratch out of its own format text. Canonicalization must not be
    /// able to tell how the instance was produced.
    #[test]
    fn delta_apply_matches_scratch_canonical(seed in 0u64..500, script in edit_script()) {
        let base = ProblemGenerator::new(6, seed).generate();
        let ops = fp_serve::parse_delta_ops(&script).unwrap();
        let Ok(out) = fp_serve::apply_delta(&base, &ops) else {
            // Scripts can collide with generator randomness (e.g. a net
            // op referencing a module an earlier op removed); strictness
            // is its own contract, tested elsewhere.
            return Ok(());
        };
        // Scratch-build: serialize the edited netlist to format text and
        // re-parse it, exactly what a client sending the instance whole
        // would make the server do.
        let scratch = fp_netlist::format::parse(&fp_netlist::format::write(&out.netlist)).unwrap();
        let params = FingerprintParams { width: None, lambda: 0.5, rotation: true, route: false };
        let via_delta = canonical(&out.netlist, &params);
        let via_scratch = canonical(&scratch, &params);
        prop_assert_eq!(&via_delta, &via_scratch, "canonical text must be byte-identical");
        prop_assert_eq!(fingerprint_of(&via_delta), fingerprint_of(&via_scratch));
        // Touched names always exist in the edited instance.
        for name in out.touched_modules.iter().chain(&out.touched_net_members) {
            prop_assert!(out.netlist.module_by_name(name).is_some());
        }
    }
}
