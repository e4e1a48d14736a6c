//! The CLI and fp-serve enter the same flow: one deck with the same step
//! options gives the same floorplan from `floorplan` and from an
//! in-process engine.

use fp_serve::{Engine, JobRequest, ServeConfig};
use std::process::Command;
use std::time::Duration;

/// Long enough that only the node limit ends a search, so both answers
/// are repeatable.
const TIME_LIMIT_SECS: u64 = 24 * 3600;

#[test]
fn cli_and_engine_answer_ami33_alike() {
    let out = Command::new(env!("CARGO_BIN_EXE_floorplan"))
        .args(["--ami33", "--node-limit", "4000", "--time-limit"])
        .arg(TIME_LIMIT_SECS.to_string())
        .output()
        .expect("run floorplan");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "floorplan failed: {stdout}");
    // `chip W x H = AREA  utilization ...`
    let line = stdout
        .lines()
        .find(|l| l.starts_with("chip "))
        .expect("a result line");
    let words: Vec<&str> = line.split_whitespace().collect();
    let cli = (words[1], words[3], words[5]);

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
        .call(JobRequest::new(1, &fp_netlist::ami33()).with_cache(false));
    engine.shutdown();
    assert!(resp.ok, "{}", resp.error);
    let served = (
        format!("{:.1}", resp.chip_width),
        format!("{:.1}", resp.chip_height),
        format!("{:.0}", resp.area),
    );

    assert_eq!(
        (served.0.as_str(), served.1.as_str(), served.2.as_str()),
        cli,
        "engine (width, height, area) vs the CLI's line: {line}"
    );
}
