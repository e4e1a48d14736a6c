//! The CLI and fp-serve enter the same flow: one deck with the same step
//! options gives the same floorplan from `floorplan` and from an
//! in-process engine.

use fp_netlist::generator::ProblemGenerator;
use fp_netlist::Netlist;
use fp_serve::{Engine, JobRequest, ServeConfig};
use std::process::Command;
use std::time::Duration;

/// Long enough that only the node limit ends a search, so both answers
/// are repeatable.
const TIME_LIMIT_SECS: u64 = 24 * 3600;

/// Runs `floorplan` on the deck that `input` names and an in-process
/// engine on `netlist`, both at a 4000-node step limit and no improvement
/// round, and asserts that they print the same width, height, area and
/// estimated wirelength.
fn cli_and_engine_agree(input: &[&str], netlist: &Netlist) {
    let out = Command::new(env!("CARGO_BIN_EXE_floorplan"))
        .args(input)
        .args(["--node-limit", "4000", "--time-limit"])
        .arg(TIME_LIMIT_SECS.to_string())
        .output()
        .expect("run floorplan");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "floorplan failed: {stdout}");
    // `chip W x H = AREA  utilization U%  wirelength(est) WL  ...`
    let line = stdout
        .lines()
        .find(|l| l.starts_with("chip "))
        .expect("a result line");
    let words: Vec<&str> = line.split_whitespace().collect();
    let cli = (words[1], words[3], words[5], words[9]);

    let config = ServeConfig {
        node_limit: 4000,
        time_limit: Duration::from_secs(TIME_LIMIT_SECS),
        improve_rounds: 0,
        ..ServeConfig::default()
    }
    .with_workers(1)
    .with_cache_capacity(0);
    let engine = Engine::start(config);
    let resp = engine
        .client()
        .call(JobRequest::new(1, netlist).with_cache(false));
    engine.shutdown();
    assert!(resp.ok, "{}", resp.error);
    let served = (
        format!("{:.1}", resp.chip_width),
        format!("{:.1}", resp.chip_height),
        format!("{:.0}", resp.area),
        format!("{:.0}", resp.wirelength),
    );

    assert_eq!(
        (
            served.0.as_str(),
            served.1.as_str(),
            served.2.as_str(),
            served.3.as_str()
        ),
        cli,
        "engine (width, height, area, wirelength) vs the CLI's line: {line}"
    );
}

#[test]
fn cli_and_engine_answer_ami33_alike() {
    cli_and_engine_agree(&["--ami33"], &fp_netlist::ami33());
}

/// A deck whose answer depends on where each augmentation step's root LP
/// starts: both entry points must seed their steps by the same rule.
#[test]
fn cli_and_engine_answer_random_35_5_alike() {
    cli_and_engine_agree(
        &["--random", "35:5"],
        &ProblemGenerator::new(35, 5).generate(),
    );
}
