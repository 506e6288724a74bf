//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p spf-bench --bin figures                  # full size
//! cargo run --release -p spf-bench --bin figures -- small         # quicker
//! cargo run --release -p spf-bench --bin figures -- tiny db       # one workload
//! cargo run --release -p spf-bench --bin figures -- small --jobs 8
//! cargo run --release -p spf-bench --bin figures -- tiny --verify-serial
//! cargo run --release -p spf-bench --bin figures -- tiny --trace
//! cargo run --release -p spf-bench --bin figures -- tiny --timing-runs 3
//! ```
//!
//! The experiment matrix is sharded across worker threads (`--jobs N`,
//! default: available parallelism); parallelism never alters the
//! simulated results. Each sweep also writes `BENCH_matrix.json`
//! (override the path with `--matrix-out PATH`, disable with
//! `--matrix-out -`) recording per-cell wall-clock and simulated cycles;
//! compare two such files with the `bench_diff` binary (simulated
//! numbers) or the `host_check` binary (host throughput).
//! `--timing-runs N` re-runs each cell N times (asserted bit-identical)
//! and records the median host wall-clock as the cell's `host_wall_ns`. `--out-dir DIR`
//! redirects every relative artifact path into `DIR` (created if
//! missing).
//!
//! `--verify-serial` runs one cell both through the parallel scheduler and
//! directly on the main thread, then diffs the two `Measurement`s field by
//! field and exits (0 = identical).
//!
//! `--trace` re-runs the matrix with event tracing after the untraced
//! sweep, asserts the traced simulated numbers are bit-identical to the
//! untraced ones, reconciles every cell's per-site prefetch classification
//! against its aggregate memory counters, and writes the per-site
//! effectiveness record to `TRACE_summary.jsonl` (override with
//! `--trace-out PATH`, disable the file with `--trace-out -`; render or
//! diff it with the `spf-trace-report` binary). The adaptive-reprofiling
//! events of every cell additionally land in `DEOPT_events.jsonl` next to
//! the site summary; aggregate them per cell with
//! `spf-trace-report deopt-summary DEOPT_events.jsonl`.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use spf_bench::RunPlan;
use spf_bench::{figures, matrix, matrix_json, out_dir};
use spf_trace::{attribute, deopt, summary};
use spf_workloads::Size;

struct Args {
    size: Size,
    only: Option<String>,
    jobs: usize,
    timing_runs: u32,
    verify_serial: bool,
    matrix_out: Option<String>,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: Size::Full,
        only: None,
        jobs: matrix::default_jobs(),
        timing_runs: 1,
        verify_serial: false,
        matrix_out: Some("BENCH_matrix.json".to_string()),
        trace: false,
        trace_out: Some("TRACE_summary.jsonl".to_string()),
    };
    let mut dir_flag: Option<String> = None;
    let mut it = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => {
                dir_flag = Some(it.next().ok_or("--out-dir needs a directory")?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--jobs needs a positive integer, got {v:?}")),
                };
            }
            "--timing-runs" => {
                let v = it.next().ok_or("--timing-runs needs a value")?;
                args.timing_runs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--timing-runs needs a positive integer, got {v:?}")),
                };
            }
            "--verify-serial" => args.verify_serial = true,
            "--matrix-out" => {
                let v = it
                    .next()
                    .ok_or("--matrix-out needs a path (or - to disable)")?;
                args.matrix_out = if v == "-" { None } else { Some(v) };
            }
            "--trace" => args.trace = true,
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or("--trace-out needs a path (or - to disable)")?;
                args.trace = true;
                args.trace_out = if v == "-" { None } else { Some(v) };
            }
            _ => positional.push(a),
        }
    }
    if let Some(dir) = &dir_flag {
        args.matrix_out = args.matrix_out.map(|p| out_dir::join(dir, &p));
        args.trace_out = args.trace_out.map(|p| out_dir::join(dir, &p));
    }
    if let Some(s) = positional.first() {
        args.size = s.parse()?;
    }
    args.only = positional.get(1).cloned();
    if let Some(only) = &args.only {
        if !spf_workloads::registry::all()
            .iter()
            .any(|s| s.name == *only)
        {
            let names: Vec<_> = spf_workloads::registry::all()
                .iter()
                .map(|s| s.name)
                .collect();
            return Err(format!(
                "unknown workload {only:?}; known workloads: {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Prints to stdout without panicking when the pipe closes early (e.g.
/// `figures | head`) — same pattern as `bench_diff`.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(text.as_bytes());
    let _ = out.write_all(b"\n");
}

/// Runs the first kept cell both through the parallel scheduler and
/// directly, and diffs the resulting `Measurement`s.
fn verify_serial(plan: &RunPlan, keep: impl Fn(&str) -> bool) -> ExitCode {
    let cells = matrix::cells(keep);
    let cell = cells.first().expect("no workload matches the filter");
    eprintln!(
        "verify-serial: {} / {} / {}",
        cell.spec.name, cell.options.mode, cell.proc.name
    );
    let threaded = matrix::run_cells(plan, 2, std::slice::from_ref(cell));
    let direct = spf_bench::run_workload(&cell.spec, &cell.options, &cell.proc, plan);
    let diff = threaded[0].measurement.simulated_diff(&direct);
    if diff.is_empty() {
        emit("verify-serial: OK — parallel and serial measurements are identical");
        ExitCode::SUCCESS
    } else {
        emit("verify-serial: MISMATCH");
        for d in &diff {
            emit(&format!("  {d}"));
        }
        ExitCode::FAILURE
    }
}

/// Re-runs the matrix with tracing, asserts the traced numbers are
/// bit-identical to the untraced `results`, reconciles each cell's
/// per-site classification against its aggregate counters, and writes the
/// per-site summary. Returns `false` on any violation.
fn traced_sweep(
    plan: &RunPlan,
    jobs: usize,
    cells: &[matrix::Cell],
    results: &[matrix::CellResult],
    trace_out: Option<&str>,
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
        let issued = m.mem.swpf_issued + m.mem.guarded_loads;
        let attr = &t.trace.attribution;
        let classified = attr.total(|e| e.useful() + e.too_early() + e.too_late() + e.dropped());
        if t.trace.lost > 0 {
            // The attribution is folded at emit, so only the event
            // artifacts (DEOPT_events.jsonl) can be short.
            eprintln!(
                "trace: {run}: ring dropped {} event(s); the event record is partial",
                t.trace.lost
            );
        }
        if classified != issued {
            ok = false;
            emit(&format!(
                "trace: {run}: {classified} classified != {issued} issued \
                 (swpf {} + guarded {})",
                m.mem.swpf_issued, m.mem.guarded_loads
            ));
        }
        // Adaptive counters must reconcile exactly with the trace: every
        // recompile and every per-loop invalidation/repatch the VM
        // counted (warm-up plus best run) has a matching event
        // (compile_events plus best-run attribution) — unless the ring
        // dropped warm-up events.
        if t.trace.warm_lost == 0 {
            let warm = attribute(&t.trace.compile_events);
            let ev_recompiles = warm.recompiles + attr.recompiles;
            let ev_loop_inv = warm.loop_invalidated + attr.loop_invalidated;
            let ev_loop_rep = warm.loop_repatched + attr.loop_repatched;
            if ev_recompiles != m.recompiles {
                ok = false;
                emit(&format!(
                    "trace: {run}: adaptive counters diverge from events: \
                     recompiles {} != {ev_recompiles}",
                    m.recompiles
                ));
            }
            if ev_loop_inv != m.loop_deopts || ev_loop_rep != m.loop_repatches {
                ok = false;
                emit(&format!(
                    "trace: {run}: per-loop counters diverge from events: \
                     loop_deopts {} != {ev_loop_inv}, loop_repatches {} != {ev_loop_rep}",
                    m.loop_deopts, m.loop_repatches
                ));
            }
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
        "trace: {} cell(s), {} site(s), {issued} prefetches issued ({useful} useful)",
        traced.len(),
        rows.len(),
    );
    if let Some(path) = trace_out {
        out_dir::ensure_parent(path);
        match std::fs::write(path, summary::emit(&rows)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        // The adaptive-event record rides along next to the site summary;
        // aggregate it with `spf-trace-report deopt-summary`.
        let deopt_path = match path.rsplit_once('/') {
            Some((dir, _)) => format!("{dir}/DEOPT_events.jsonl"),
            None => "DEOPT_events.jsonl".to_string(),
        };
        match std::fs::write(&deopt_path, deopt::emit(&deopt_rows)) {
            Ok(()) => eprintln!(
                "wrote {deopt_path} ({} adaptive event(s))",
                deopt_rows.len()
            ),
            Err(e) => eprintln!("warning: could not write {deopt_path}: {e}"),
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: figures [tiny|small|full [WORKLOAD]] [--jobs N] [--timing-runs N] \
                 [--verify-serial] [--matrix-out PATH|-] [--trace] [--trace-out PATH|-] \
                 [--out-dir DIR]"
            );
            return ExitCode::FAILURE;
        }
    };
    let plan = RunPlan {
        size: args.size,
        timing_runs: args.timing_runs,
        ..RunPlan::default()
    };
    let keep = |n: &str| args.only.as_deref().is_none_or(|o| o == n);

    if args.verify_serial {
        return verify_serial(&plan, keep);
    }

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
    let host_total: u128 = results.iter().map(|r| r.host_wall_ns).sum();
    eprintln!(
        "grid done: {} cells in {:.2}s \
         (host throughput: {:.1} ms summed per-cell median wall-clock, \
         {} timing run(s) per cell)",
        results.len(),
        total_wall as f64 / 1e9,
        host_total as f64 / 1e6,
        plan.timing_runs.max(1),
    );

    if let Some(path) = &args.matrix_out {
        let json = matrix_json::emit(&results, args.size, args.jobs, total_wall);
        out_dir::ensure_parent(path);
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    let traced_ok = if args.trace {
        traced_sweep(
            &plan,
            args.jobs,
            &cells,
            &results,
            args.trace_out.as_deref(),
        )
    } else {
        true
    };

    let data = figures::from_measurements(results.into_iter().map(|r| r.measurement).collect());
    emit(&data.table3());
    emit(&data.stride_table());
    emit(&data.static_first_table());
    emit(&data.adaptive_table());
    emit(&data.fig6());
    emit(&data.fig7());
    emit(&data.fig8());
    emit(&data.fig9());
    emit(&data.fig10());
    emit(&data.fig11());
    if traced_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
