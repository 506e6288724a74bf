//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p spf-bench --bin figures                  # full size
//! cargo run --release -p spf-bench --bin figures -- small         # quicker
//! cargo run --release -p spf-bench --bin figures -- tiny db       # one workload
//! cargo run --release -p spf-bench --bin figures -- small --jobs 8
//! cargo run --release -p spf-bench --bin figures -- tiny --trace
//! ```
//!
//! The experiment matrix is sharded across worker threads (`--jobs N`,
//! default: available parallelism); parallelism never alters the
//! simulated results. Stdout depends on nothing but the simulation, so
//! `figures tiny > FIGURES_tiny.txt` rewrites the committed copy byte for
//! byte on any host and at any `--jobs`. Each sweep also writes
//! `BENCH_matrix.json` (override the path with `--matrix-out PATH`,
//! disable with `--matrix-out -`) recording every cell's simulated
//! numbers, equally host-free; `scripts/regen.sh` writes it over the
//! committed `BENCH_baseline.json`, and `git diff` is the drift check.
//! An argument the grammar does not know is an error
//! ([`spf_bench::cli::figures`]), and so is an artifact that could not be
//! written.
//!
//! `--trace` re-runs the matrix with event tracing after the untraced
//! sweep, asserts the traced simulated numbers are bit-identical to the
//! untraced ones, runs [`spf_bench::checks::attribution`] and
//! [`spf_bench::checks::adaptive_counters`] on every cell, and writes the
//! per-site effectiveness record to `TRACE_summary.jsonl` (render it with
//! the `spf-trace-report` binary). The adaptive-reprofiling
//! events of every cell additionally land in `DEOPT_events.jsonl`;
//! aggregate them per cell with
//! `spf-trace-report deopt-summary DEOPT_events.jsonl`.

use std::process::ExitCode;
use std::time::Instant;

use spf_bench::cli::emit;
use spf_bench::{checks, cli, figures, matrix, matrix_json, write_artifact, RunPlan};
use spf_trace::{attribute, deopt, summary};

/// Re-runs the matrix with tracing, asserts the traced numbers are
/// bit-identical to the untraced `results`, runs the attribution and
/// adaptive-counter checks on each cell, and writes the per-site summary
/// and the adaptive-event record. Returns `false` on any violation or
/// failed write.
fn traced_sweep(
    plan: &RunPlan,
    jobs: usize,
    cells: &[matrix::Cell],
    results: &[matrix::CellResult],
) -> bool {
    eprintln!("re-running the grid with event tracing...");
    let traced = matrix::run_cells_traced(plan, jobs, cells);
    let mut ok = true;
    let mut rows = Vec::new();
    let mut deopt_rows = Vec::new();
    for (t, u) in traced.iter().zip(results) {
        let m = &t.measurement;
        let run = format!("{}/{}/{}", m.name, m.mode, m.processor);
        let diff = m.simulated_diff(&u.measurement);
        if !diff.is_empty() {
            ok = false;
            emit(&format!("trace: {run}: traced run DIVERGED:"));
            for d in &diff {
                emit(&format!("  {d}"));
            }
        }
        let attr = &t.trace.attribution;
        if t.trace.lost > 0 {
            // The attribution is folded at emit, so only the event
            // artifacts (DEOPT_events.jsonl) can be short.
            eprintln!(
                "trace: {run}: ring dropped {} event(s); the event record is partial",
                t.trace.lost
            );
        }
        let mut violations = checks::attribution(&m.mem, attr);
        // The counters span warm-up plus best run, and so do the events
        // (compile_events plus best-run attribution) — unless the ring
        // dropped warm-up events.
        if t.trace.warm_lost == 0 {
            let warm = attribute(&t.trace.compile_events);
            violations.extend(checks::adaptive_counters(
                m.recompiles,
                m.loop_deopts,
                m.loop_repatches,
                &[&warm, attr],
            ));
        }
        for v in &violations {
            ok = false;
            emit(&format!("trace: {run}: {v}"));
        }
        rows.extend(summary::rows(&run, attr, &t.trace.sites));
        // Adaptive-reprofiling events land in both phases: those during
        // warm-up go to `compile_events`, steady-state ones to the best
        // run's stream.
        deopt_rows.extend(deopt::rows(&run, &t.trace.compile_events));
        deopt_rows.extend(deopt::rows(&run, &t.trace.events));
    }
    let issued: u64 = rows.iter().map(|r| r.issued).sum();
    let useful: u64 = rows.iter().map(|r| r.useful).sum();
    eprintln!(
        "trace: {} cell(s), {} site(s), {issued} prefetches issued ({useful} useful), \
         {} adaptive event(s)",
        traced.len(),
        rows.len(),
        deopt_rows.len(),
    );
    // The adaptive-event record rides along with the site summary;
    // aggregate it with `spf-trace-report deopt-summary`.
    for (path, text) in [
        ("TRACE_summary.jsonl", summary::emit(&rows)),
        ("DEOPT_events.jsonl", deopt::emit(&deopt_rows)),
    ] {
        if let Err(e) = write_artifact(path, &text) {
            ok = false;
            eprintln!("error: {e}");
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = cli::from_env(cli::figures);
    let plan = RunPlan {
        size: args.size,
        ..RunPlan::default()
    };
    let keep = |n: &str| args.only.as_deref().is_none_or(|o| o == n);

    emit(&figures::table2());
    emit(&figures::table1_and_fig5());

    eprintln!(
        "running experiment grid on {} worker(s) (this takes a few minutes at full size)...",
        args.jobs
    );
    let cells = matrix::cells(keep);
    let t0 = Instant::now();
    let results = matrix::run_cells(&plan, args.jobs, &cells);
    matrix::assert_checksums_agree(&results);
    let total_wall = t0.elapsed().as_nanos();
    eprintln!(
        "grid done: {} cells in {:.2}s",
        results.len(),
        total_wall as f64 / 1e9
    );

    let mut ok = true;
    if let Some(path) = &args.matrix_out {
        let json = matrix_json::emit(&results, args.size, args.jobs, total_wall);
        if let Err(e) = write_artifact(path, &json) {
            ok = false;
            eprintln!("error: {e}");
        }
    }
    if args.trace {
        ok &= traced_sweep(&plan, args.jobs, &cells, &results);
    }

    let data = figures::from_measurements(results.into_iter().map(|r| r.measurement).collect());
    emit(&data.table3());
    emit(&data.stride_table());
    emit(&data.adaptive_table());
    emit(&data.fig6());
    emit(&data.fig7());
    emit(&data.fig8());
    emit(&data.fig9());
    emit(&data.fig10());
    emit(&data.fig11());
    ExitCode::from(u8::from(!ok))
}
