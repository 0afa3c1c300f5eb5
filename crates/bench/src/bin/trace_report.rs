//! Offline trace reporter: folds a JSONL event log (written via
//! `MCOND_LOG=<path>`) into a call-tree profile (`Profile::from_jsonl`),
//! and prints it as a text table — or, with `--folded`, as folded-stack
//! lines ready for the common flamegraph tooling.
//!
//! ```text
//! MCOND_LOG=events.jsonl cargo run --example robust_serving
//! cargo run -p mcond-bench --bin trace-report -- events.jsonl
//! cargo run -p mcond-bench --bin trace-report -- events.jsonl --folded
//! ```

use mcond_obs::{Json, Profile};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut folded = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--folded" => folded = true,
            "--help" | "-h" => {
                eprintln!("usage: trace-report <events.jsonl> [--folded]");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(other.to_owned()),
            other => {
                eprintln!("trace-report: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace-report <events.jsonl> [--folded]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-report: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let profile = Profile::from_jsonl(&text);
    if profile.is_empty() {
        eprintln!("trace-report: no span records in {path}");
        return ExitCode::FAILURE;
    }
    if folded {
        println!("{}", profile.folded());
        return ExitCode::SUCCESS;
    }

    // Header line: how many records / distinct traces the log covers.
    let mut records = 0usize;
    let mut traces: BTreeSet<u64> = BTreeSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(j) = Json::parse(line) else { continue };
        records += 1;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        if let Some(t) = j.get("trace").and_then(Json::as_f64) {
            if t > 0.0 {
                traces.insert(t as u64);
            }
        }
    }
    println!("{path}: {records} records, {} traced requests", traces.len());
    print!("{}", profile.table());
    ExitCode::SUCCESS
}
