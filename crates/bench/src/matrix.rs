//! Parallel execution of the experiment matrix.
//!
//! The (workload, processor) pairs of the paper's grid share no mutable
//! state: each builds its own [`spf_vm::Vm`]s, heaps and memory systems.
//! Within a pair, modes whose JIT output is identical are one simulation,
//! so [`run_cells`] runs them as one VM with *mode twins*
//! ([`spf_vm::Twin`], DESIGN.md §3.1): the first remaining mode leads, the
//! others ride along while they reproduce its every compile, and the ones
//! that diverged form the next group. Pairs are handed to a bounded pool
//! of `std::thread` workers through an atomic cursor and the results are
//! re-assembled in canonical matrix order, so the output is identical to
//! a sequential sweep — and to one VM per cell, [`run_workload`]'s way —
//! regardless of the worker count or scheduling. The checksum cross-check
//! at the join point enforces the other half of the invariant: a workload
//! computes the same answer in all eight of its configurations.
//!
//! [`run_workload`]: crate::run_workload

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
    /// Host nanoseconds of the run, or the cell's share of its group's
    /// (see [`run_cells`]); pinned by `benchmark/src/matrix.rs:609`, `:749`
    /// until ROADMAP 1(B).
    pub wall_nanos: u128,
}

/// The prefetch-mode axis in canonical order: BASELINE, INTER,
/// INTER+INTRA, ADAPTIVE.
pub fn modes() -> [PrefetchOptions; 4] {
    [
        PrefetchOptions::off(),
        PrefetchOptions::inter(),
        PrefetchOptions::inter_intra(),
        PrefetchOptions::adaptive(),
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

/// Runs the cells `chain` names — one program on one processor — in
/// groups: the first remaining cell leads, every other remaining one rides
/// along as its twin unless the leader has adaptive guards, and the twins
/// that diverged form the next group. Returns each cell's result with its
/// index, and how many VMs ran.
fn run_chain(
    plan: &RunPlan,
    cells: &[Cell],
    chain: &[usize],
    prep: &Prepared,
) -> (Vec<(usize, CellResult)>, usize) {
    let mut done = Vec::with_capacity(chain.len());
    let mut left = chain.to_vec();
    let mut vms = 0;
    while let Some((&lead, rest)) = left.split_first() {
        let t0 = Instant::now();
        let leader = &cells[lead];
        let twins = if leader.options.mode.adaptive_guards() {
            &[][..]
        } else {
            rest
        };
        let options: Vec<_> = twins.iter().map(|&i| cells[i].options.clone()).collect();
        let (measurement, derived, _) = run_prepared(
            prep,
            &leader.options,
            &options,
            &leader.proc,
            plan,
            NoopSink,
        );
        vms += 1;
        let mut group = vec![(lead, measurement)];
        let mut next = rest[twins.len()..].to_vec();
        for (&i, twin) in twins.iter().zip(derived) {
            match twin {
                Some(measurement) => group.push((i, measurement)),
                None => next.push(i),
            }
        }
        // The group's host time, split evenly over its cells: the shares
        // sum to the time, and a caller that divides by the wall of one
        // mode's cells (all twins on some workloads) never divides by 0.
        let wall = t0.elapsed().as_nanos();
        let n = group.len() as u128;
        for (k, (i, measurement)) in group.into_iter().enumerate() {
            let wall_nanos = wall / n + if k == 0 { wall % n } else { 0 };
            done.push((
                i,
                CellResult {
                    measurement,
                    wall_nanos,
                },
            ));
        }
        left = next;
    }
    (done, vms)
}

fn run_cell_traced(plan: &RunPlan, cell: &Cell, prep: &Prepared<RingSink>) -> TracedCellResult {
    let t0 = Instant::now();
    let ring = RingSink::default();
    let (measurement, _, trace) = run_prepared(prep, &cell.options, &[], &cell.proc, plan, ring);
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
/// same order as the input regardless of scheduling. The pool's tasks are
/// the cells' (program, processor) pairs, each run as groups of mode
/// twins (see the module docs): a twin's result is its leader's run, and
/// the cells of one group share its host time evenly in `wall_nanos`.
///
/// # Panics
///
/// Panics if a workload faults (propagating the worker's panic).
pub fn run_cells(plan: &RunPlan, jobs: usize, cells: &[Cell]) -> Vec<CellResult> {
    run_chains(plan, jobs, cells).0
}

/// [`run_cells`], also returning the VMs each (program, processor) pair
/// ran, pairs in order of their first cell.
fn run_chains(plan: &RunPlan, jobs: usize, cells: &[Cell]) -> (Vec<CellResult>, Vec<usize>) {
    let preps = prepare_cells::<NoopSink>(plan.size, cells);
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let same = |chain: &&mut Vec<usize>| {
            let first = &cells[chain[0]];
            first.spec.name == c.spec.name && first.proc == c.proc
        };
        match chains.iter_mut().find(same) {
            Some(chain) => chain.push(i),
            None => chains.push(vec![i]),
        }
    }
    let ran = run_pool(jobs, chains.len(), |k| {
        run_chain(plan, cells, &chains[k], &preps[chains[k][0]])
    });
    let mut slots: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
    let mut vms = Vec::with_capacity(ran.len());
    for (done, n) in ran {
        vms.push(n);
        for (i, r) in done {
            slots[i] = Some(r);
        }
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every cell is in one chain"))
        .collect();
    (results, vms)
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
        assert_eq!(cs.len(), 12 * 2 * 4);
        // First workload occupies the first eight cells: P4 then Athlon,
        // each OFF/INTER/INTER+INTRA/ADAPTIVE.
        assert!(cs[..8].iter().all(|c| c.spec.name == cs[0].spec.name));
        assert_eq!(cs[0].proc.name, "Pentium 4");
        assert_eq!(cs[4].proc.name, "Athlon MP");
        // ADAPTIVE closes each (workload, processor) group.
        assert_eq!(cs[3].options.mode, spf_core::PrefetchMode::Adaptive);
        assert_eq!(cs[7].options.mode, spf_core::PrefetchMode::Adaptive);
    }

    /// A pooled cell shares its prepared program with the workload's other
    /// cells, and a twin's is derived from its leader's run; every cell
    /// must equal a freshly prepared direct run. Search's four modes are
    /// all twins, db's INTER twins BASELINE, Euler's INTER+INTRA twins
    /// INTER, and ADAPTIVE runs alone on both.
    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let plan = tiny_plan();
        let keep = |n: &str| ["db", "Euler", "Search"].contains(&n);
        let cs = cells(keep);
        let (seq, seq_vms) = run_chains(&plan, 1, &cs);
        let (par, par_vms) = run_chains(&plan, 4, &cs);
        assert_checksums_agree(&par);
        assert_eq!(par.len(), 24);
        let expected: Vec<usize> = cs
            .chunks(4)
            .map(|group| match group[0].spec.name {
                "Search" => 1,
                _ => 3,
            })
            .collect();
        assert_eq!(seq_vms, expected);
        assert_eq!(par_vms, expected);
        for ((a, b), c) in seq.iter().zip(&par).zip(&cs) {
            let diff = a.measurement.simulated_diff(&b.measurement);
            assert!(diff.is_empty(), "parallel run diverged: {diff:?}");
            let direct = crate::run_workload(&c.spec, &c.options, &c.proc, &plan);
            let diff = b.measurement.simulated_diff(&direct);
            assert!(
                diff.is_empty(),
                "pooled {} / {} diverged from direct: {diff:?}",
                c.spec.name,
                c.options.mode
            );
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
