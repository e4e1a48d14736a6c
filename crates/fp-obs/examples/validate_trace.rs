//! Validates a JSONL trace file: every line must parse as a flat JSON
//! object carrying `seq`, `phase` and `event` fields and every field of
//! its event, each with its JSON type (see `fp_obs::validate_line`).
//!
//! Used by `scripts/check.sh` as a schema sanity check:
//!
//! ```text
//! cargo run -p fp-obs --example validate_trace -- out.jsonl
//! ```
//!
//! Exits non-zero on the first malformed line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_trace <trace.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("validate_trace: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match fp_obs::validate_line(line) {
            Ok(_) => count += 1,
            Err(err) => {
                eprintln!("{path}:{}: {err}", lineno + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{path}: {count} valid trace records");
    ExitCode::SUCCESS
}
