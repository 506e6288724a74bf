//! Compares two `BENCH_matrix.json` files cell by cell.
//!
//! ```text
//! cargo run -p spf-bench --bin bench_diff -- old.json new.json
//! ```
//!
//! For every (workload, mode, processor) cell present in both files it
//! prints the wall-clock speedup and flags any drift in the *simulated*
//! numbers — every member of [`CellSummary`] except the two host clocks —
//! which must be invariant across hosts, worker counts, and host-side
//! optimisations; the drifting members are listed under the cell's row.
//! Cells of OLD that NEW lacks are counted, not failed: a filtered sweep
//! (`figures tiny db`) against the full baseline is a supported use.
//! Exit code: 0 if no simulated number drifted, 1 otherwise (or on usage
//! and parse errors).

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use spf_bench::matrix_json::{self, CellSummary};

fn load(path: &str) -> Result<Vec<CellSummary>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (cells, warnings) =
        matrix_json::parse_with_warnings(&text).map_err(|e| format!("{path}: {e}"))?;
    for w in warnings {
        eprintln!("bench_diff: {path}: {w}");
    }
    Ok(cells)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff OLD.json NEW.json");
        return ExitCode::FAILURE;
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Render into a buffer and write it in one shot, ignoring EPIPE, so
    // `bench_diff ... | head` still yields the right exit code.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:<10} {:>14} {:>14} {:>9} {:>8}",
        "program", "mode", "processor", "old wall (ms)", "new wall (ms)", "speedup", "cycles"
    );
    let mut drift = 0usize;
    let mut matched = 0usize;
    let (mut old_total, mut new_total) = (0u128, 0u128);
    for o in &old {
        let Some(n) = new.iter().find(|n| n.key() == o.key()) else {
            continue;
        };
        matched += 1;
        old_total += o.wall_nanos;
        new_total += n.wall_nanos;
        // Every declared member is simulated except the two host clocks.
        let drifted: Vec<String> = std::iter::zip(o.members(), n.members())
            .filter(|((key, was), (_, is))| {
                !matches!(*key, "wall_nanos" | "host_wall_ns") && was != is
            })
            .map(|((key, was), (_, is))| format!("  {key}: {was} -> {is}\n"))
            .collect();
        drift += usize::from(!drifted.is_empty());
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:<10} {:>14.2} {:>14.2} {:>8.2}x {:>8}",
            o.name,
            o.mode,
            o.processor,
            o.wall_nanos as f64 / 1e6,
            n.wall_nanos as f64 / 1e6,
            o.wall_nanos as f64 / n.wall_nanos.max(1) as f64,
            if drifted.is_empty() { "same" } else { "DRIFT" }
        );
        out.push_str(&drifted.concat());
    }
    if matched == 0 {
        eprintln!("bench_diff: no common cells between {old_path} and {new_path}");
        return ExitCode::FAILURE;
    }
    let _ = writeln!(
        out,
        "total: {matched} cells, {:.2} ms -> {:.2} ms ({:.2}x wall-clock), \
         {} cell(s) of OLD absent from NEW",
        old_total as f64 / 1e6,
        new_total as f64 / 1e6,
        old_total as f64 / new_total.max(1) as f64,
        old.len() - matched
    );
    if drift > 0 {
        let _ = writeln!(
            out,
            "{drift} cell(s) DRIFTED in simulated numbers — results are not comparable"
        );
    }
    let _ = std::io::stdout().write_all(out.as_bytes());
    if drift > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
