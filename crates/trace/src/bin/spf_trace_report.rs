//! Renders `TRACE_summary.jsonl` and `DEOPT_events.jsonl` files.
//!
//! ```text
//! cargo run -p spf-trace --bin spf-trace-report -- TRACE_summary.jsonl
//! cargo run -p spf-trace --bin spf-trace-report -- deopt-summary DEOPT_events.jsonl
//! ```
//!
//! With one file, prints the per-site effectiveness table (a change in
//! the committed file is `git diff`'s to show). `deopt-summary` aggregates the per-loop
//! invalidation/repatch events of a `DEOPT_events.jsonl` (written by
//! `figures --trace`) per cell — the diagnostic entry point for
//! adaptive-mode cycle blow-ups such as db/ADAPTIVE.

use std::io::Write as _;
use std::process::ExitCode;

use spf_trace::{deopt, summary};

/// The report `args` ask for, or a message naming what went wrong.
fn report(args: &[String]) -> Result<String, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match args {
        [cmd, path] if cmd == "deopt-summary" => {
            let rows = deopt::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            Ok(deopt::render(&deopt::aggregate(&rows)))
        }
        [path] => {
            let rows = summary::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            Ok(summary::render(&rows))
        }
        _ => Err("usage: spf-trace-report SUMMARY.jsonl\n\
                  \x20      spf-trace-report deopt-summary DEOPT_events.jsonl"
            .to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match report(&args) {
        Ok(out) => {
            // One write, ignoring EPIPE, so `spf-trace-report ... | head`
            // still exits 0.
            let _ = std::io::stdout().write_all(out.as_bytes());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spf-trace-report: {e}");
            ExitCode::FAILURE
        }
    }
}
