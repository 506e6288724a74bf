//! Renders or diffs `TRACE_summary.jsonl` files.
//!
//! ```text
//! cargo run -p spf-trace --bin spf-trace-report -- TRACE_summary.jsonl
//! cargo run -p spf-trace --bin spf-trace-report -- OLD.jsonl NEW.jsonl
//! cargo run -p spf-trace --bin spf-trace-report -- deopt-summary DEOPT_events.jsonl
//! ```
//!
//! With one file, prints the per-site effectiveness table. With two,
//! diffs them site by site (matched on run + site position) and exits 1
//! if any site's classification changed, 0 otherwise — the same
//! conventions as `bench_diff`. `deopt-summary` aggregates the per-loop
//! invalidation/repatch events of a `DEOPT_events.jsonl` (written by
//! `figures --trace`) per cell — the diagnostic entry point for
//! adaptive-mode cycle blow-ups such as db/ADAPTIVE.

use std::io::Write as _;
use std::process::ExitCode;

use spf_trace::deopt;
use spf_trace::summary::{self, SummaryRow};

fn load(path: &str) -> Result<Vec<SummaryRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    summary::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Render into a buffer and write it in one shot, ignoring EPIPE, so
    // `spf-trace-report ... | head` still yields the right exit code.
    let (out, code) = match args.as_slice() {
        [cmd, path] if cmd == "deopt-summary" => {
            let rows = std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|text| deopt::parse(&text).map_err(|e| format!("{path}: {e}")));
            let sums = match rows {
                Ok(rows) => deopt::aggregate(&rows),
                Err(e) => {
                    eprintln!("spf-trace-report: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (deopt::render(&sums), ExitCode::SUCCESS)
        }
        [path] => match load(path) {
            Ok(rows) => (summary::render(&rows), ExitCode::SUCCESS),
            Err(e) => {
                eprintln!("spf-trace-report: {e}");
                return ExitCode::FAILURE;
            }
        },
        [old_path, new_path] => match (load(old_path), load(new_path)) {
            (Ok(old), Ok(new)) => {
                let (text, changed) = summary::diff(&old, &new);
                let code = if changed > 0 {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                };
                (text, code)
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("spf-trace-report: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!(
                "usage: spf-trace-report SUMMARY.jsonl [NEW.jsonl]\n\
                 \x20      spf-trace-report deopt-summary DEOPT_events.jsonl"
            );
            return ExitCode::FAILURE;
        }
    };
    let _ = std::io::stdout().write_all(out.as_bytes());
    code
}
