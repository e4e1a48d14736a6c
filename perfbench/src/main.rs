//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_flow --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints a human-readable summary, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and the metrics. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.

use perfbench::{metrics, run, Options, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        tiny: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_flow|scale_flow|serve_mix \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!(
                "{}",
                metrics::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
