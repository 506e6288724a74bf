//! Parallel execution of the experiment matrix.
//!
//! Every (workload, processor, prefetch mode) cell of the paper's grid is
//! an independent simulation: each cell builds its own [`spf_vm::Vm`],
//! heap, and memory system, and shares no mutable state with any other
//! cell. That makes the sweep embarrassingly parallel — cells are handed
//! to a bounded pool of `std::thread` workers through an atomic cursor and
//! the results are re-assembled in canonical matrix order, so the output
//! is identical to a sequential sweep regardless of the worker count or
//! scheduling. The checksum cross-check at the join point enforces the
//! other half of the invariant: a workload computes the same answer in
//! all ten of its configurations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spf_core::PrefetchOptions;
use spf_memsim::ProcessorConfig;
use spf_trace::{NoopSink, RingSink, TraceSink};
use spf_workloads::{Prepared, Size, WorkloadSpec};

use crate::runner::{run_prepared, Measurement, RunPlan, WorkloadTrace};

/// One matrix cell: a workload under one prefetch configuration on one
/// simulated processor.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// The simulated processor.
    pub proc: ProcessorConfig,
    /// The prefetch configuration.
    pub options: PrefetchOptions,
}

/// A completed cell: the measurement plus how long the host spent on it.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The simulated measurement (independent of scheduling).
    pub measurement: Measurement,
    /// Host nanoseconds of the run; pinned by `benchmark/src/matrix.rs:609`, `:749` until ROADMAP 1(B).
    pub wall_nanos: u128,
}

/// The prefetch-mode axis in canonical order: BASELINE, INTER,
/// INTER+INTRA, ADAPTIVE, STATIC-FIRST. STATIC-FIRST is appended after
/// the four pre-existing modes so their cells keep their positions (and
/// their bit-identical numbers) in every artifact derived from this
/// order.
pub fn modes() -> [PrefetchOptions; 5] {
    [
        PrefetchOptions::off(),
        PrefetchOptions::inter(),
        PrefetchOptions::inter_intra(),
        PrefetchOptions::adaptive(),
        PrefetchOptions::static_first(),
    ]
}

/// The processor axis in canonical order: Pentium 4, Athlon MP (Table 2).
pub fn processors() -> [ProcessorConfig; 2] {
    [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()]
}

/// Enumerates the matrix in canonical order — workloads in Table 3
/// (registry) order × [`processors`] × [`modes`] — restricted to
/// workloads accepted by `keep`.
pub fn cells(keep: impl Fn(&str) -> bool) -> Vec<Cell> {
    let mut out = Vec::new();
    for spec in spf_workloads::all() {
        if !keep(spec.name) {
            continue;
        }
        for proc in processors() {
            for options in modes() {
                out.push(Cell {
                    spec: spec.clone(),
                    proc: proc.clone(),
                    options,
                });
            }
        }
    }
    out
}

/// The default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `count` independent tasks on up to `jobs` worker threads through
/// an atomic cursor, returning results in task order regardless of
/// scheduling: the cursor only decides which host thread computes which
/// index, so `task` must be index-pure for the result to be `jobs`-free.
/// A worker's panic is re-raised with its own payload.
fn run_pool<R: Send>(jobs: usize, count: usize, task: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let jobs = jobs.clamp(1, count.max(1));
    if jobs == 1 {
        return (0..count).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    // Claim tasks through the shared cursor; keep results
                    // local until the join to avoid any lock on the hot
                    // path.
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        done.push((i, task(i)));
                    }
                    done
                })
            })
            .collect();
        for w in workers {
            match w.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every task was claimed by a worker"))
        .collect()
}

/// A completed traced cell: the measurement plus its trace artifacts.
#[derive(Clone, Debug)]
pub struct TracedCellResult {
    /// The simulated measurement (bit-identical to the untraced one).
    pub measurement: Measurement,
    /// Events, site table, and per-site attribution of the best run.
    pub trace: WorkloadTrace,
    /// Host nanoseconds of the run; pinned by `benchmark/src/matrix.rs:622` until ROADMAP 1(B).
    pub wall_nanos: u128,
}

fn run_cell(plan: &RunPlan, cell: &Cell, prep: &Prepared) -> CellResult {
    let t0 = Instant::now();
    let measurement = run_prepared(prep, &cell.options, &cell.proc, plan, NoopSink).0;
    CellResult {
        measurement,
        wall_nanos: t0.elapsed().as_nanos(),
    }
}

fn run_cell_traced(plan: &RunPlan, cell: &Cell, prep: &Prepared<RingSink>) -> TracedCellResult {
    let t0 = Instant::now();
    let ring = RingSink::default();
    let (measurement, trace) = run_prepared(prep, &cell.options, &cell.proc, plan, ring);
    TracedCellResult {
        measurement,
        trace: trace.expect("ring sink is enabled"),
        wall_nanos: t0.elapsed().as_nanos(),
    }
}

/// Builds one [`Prepared`] per distinct workload in `cells` and hands
/// every cell an `Arc` to its workload's instance, so the pool decodes
/// each program once instead of once per cell.
fn prepare_cells<S: TraceSink>(size: Size, cells: &[Cell]) -> Vec<Arc<Prepared<S>>> {
    let mut by_name: Vec<Arc<Prepared<S>>> = Vec::new();
    cells
        .iter()
        .map(|c| match by_name.iter().find(|p| p.name() == c.spec.name) {
            Some(p) => Arc::clone(p),
            None => {
                let p = Arc::new(c.spec.prepare(size));
                by_name.push(Arc::clone(&p));
                p
            }
        })
        .collect()
}

/// Runs `cells` on up to `jobs` worker threads, returning results in the
/// same order as the input regardless of scheduling.
///
/// # Panics
///
/// Panics if a workload faults (propagating the worker's panic).
pub fn run_cells(plan: &RunPlan, jobs: usize, cells: &[Cell]) -> Vec<CellResult> {
    let preps = prepare_cells::<NoopSink>(plan.size, cells);
    run_pool(jobs, cells.len(), |i| run_cell(plan, &cells[i], &preps[i]))
}

/// [`run_cells`] with event tracing: every cell runs with a recording
/// sink and returns its trace artifacts alongside the measurement.
///
/// # Panics
///
/// Panics if a workload faults (propagating the worker's panic).
pub fn run_cells_traced(plan: &RunPlan, jobs: usize, cells: &[Cell]) -> Vec<TracedCellResult> {
    let preps = prepare_cells::<RingSink>(plan.size, cells);
    run_pool(jobs, cells.len(), |i| {
        run_cell_traced(plan, &cells[i], &preps[i])
    })
}

/// Runs the whole (filtered) matrix on up to `jobs` workers and verifies
/// the cross-configuration checksum invariant at the join point.
///
/// # Panics
///
/// Panics if a workload faults or if a workload's checksum differs
/// between any two of its configurations.
pub fn run_matrix(plan: &RunPlan, jobs: usize, keep: impl Fn(&str) -> bool) -> Vec<CellResult> {
    let results = run_cells(plan, jobs, &cells(keep));
    assert_checksums_agree(&results);
    results
}

/// Asserts that every workload produced the same checksum in all of its
/// configurations — prefetching (and parallel scheduling) must never
/// change what a program computes.
///
/// # Panics
///
/// Panics on the first disagreement.
pub fn assert_checksums_agree(results: &[CellResult]) {
    let mut seen: Vec<(&str, i32)> = Vec::new();
    for r in results {
        let m = &r.measurement;
        match seen.iter().find(|(n, _)| *n == m.name) {
            Some((_, expected)) => assert_eq!(
                m.checksum, *expected,
                "{} checksum differs under {} / {}",
                m.name, m.mode, m.processor
            ),
            None => seen.push((m.name.as_str(), m.checksum)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_workloads::Size;

    fn tiny_plan() -> RunPlan {
        RunPlan {
            size: Size::Tiny,
            measured_runs: 1,
            ..RunPlan::default()
        }
    }

    #[test]
    fn cells_enumerate_in_matrix_order() {
        let cs = cells(|_| true);
        assert_eq!(cs.len(), 12 * 2 * 5);
        // First workload occupies the first ten cells: P4 then Athlon,
        // each OFF/INTER/INTER+INTRA/ADAPTIVE/STATIC-FIRST.
        assert!(cs[..10].iter().all(|c| c.spec.name == cs[0].spec.name));
        assert_eq!(cs[0].proc.name, "Pentium 4");
        assert_eq!(cs[5].proc.name, "Athlon MP");
        // STATIC-FIRST is appended after the legacy modes, so their
        // positions within a (workload, processor) group are unchanged.
        assert_eq!(cs[4].options.mode, spf_core::PrefetchMode::StaticFirst);
        assert_eq!(cs[9].options.mode, spf_core::PrefetchMode::StaticFirst);
    }

    /// A pooled cell shares its prepared program with the workload's other
    /// cells; it must also equal a freshly prepared direct run.
    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let plan = tiny_plan();
        let keep = |n: &str| n == "db";
        let seq = run_matrix(&plan, 1, keep);
        let par = run_matrix(&plan, 4, keep);
        assert_eq!(seq.len(), 10);
        assert_eq!(par.len(), 10);
        for ((a, b), c) in seq.iter().zip(&par).zip(cells(keep)) {
            let diff = a.measurement.simulated_diff(&b.measurement);
            assert!(diff.is_empty(), "parallel run diverged: {diff:?}");
            let direct = crate::run_workload(&c.spec, &c.options, &c.proc, &plan);
            let diff = b.measurement.simulated_diff(&direct);
            assert!(diff.is_empty(), "pooled run diverged from direct: {diff:?}");
        }
    }

    #[test]
    fn run_pool_preserves_order() {
        for jobs in [1, 2, 7] {
            let r = run_pool(jobs, 20, |i| i * i);
            assert_eq!(r, (0..20).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    /// A worker's panic reaches the caller with its own message, not as
    /// `std::thread::scope`'s "a scoped thread panicked".
    #[test]
    #[should_panic(expected = "task 3 faulted")]
    fn run_pool_re_raises_a_worker_panic_with_its_message() {
        run_pool(2, 8, |i| {
            assert_ne!(i, 3, "task 3 faulted");
            i
        });
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
