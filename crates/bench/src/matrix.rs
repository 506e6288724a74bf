//! Parallel execution of the experiment matrix.
//!
//! The programs of the paper's grid share no mutable state: each builds
//! its own [`spf_vm::Vm`]s, heaps and memory systems. Within a program,
//! cells whose runs one simulation can derive — JIT output that is one
//! base body plus prefetch ops, whatever the processor, with loop guards
//! of their own — are run by one VM with *twins*
//! ([`spf_vm::Vm::add_twin`], DESIGN.md §3.1): the remaining cell of the
//! most prefetching mode without guards leads (see `run_chain`), the
//! others ride along while they reproduce a run of their own, and the
//! ones that diverged form the next group. Programs are handed to a
//! bounded pool of `std::thread` workers through an atomic cursor and the
//! results are re-assembled in canonical matrix order, so the output is
//! identical to a sequential sweep — and to one VM per cell,
//! [`run_workload`]'s way — regardless of the worker count or scheduling.
//! The checksum cross-check at the join point enforces the other half of
//! the invariant: a workload computes the same answer in all eight of its
//! configurations.
//!
//! [`run_workload`]: crate::run_workload

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use spf_core::{PrefetchMode, PrefetchOptions};
use spf_memsim::ProcessorConfig;
use spf_trace::{NoopSink, RingSink, TraceSink};
use spf_workloads::{Prepared, WorkloadSpec};

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

/// Runs the cells `chain` names — one program's, prepared here once — in
/// groups. A group's leader is the remaining cell of the most prefetching
/// mode without adaptive guards — INTER+INTRA, then INTER, then BASELINE,
/// the first in `chain` order among equals — or, when only ADAPTIVE cells
/// remain, the first of them. The VM runs the union of its cells'
/// bodies, and the leader with the most prefetch ops leaves the fewest
/// to the twins alone; a leader with guards would patch code no twin
/// compiled. Every other remaining cell rides along as its twin unless the leader
/// has adaptive guards or records events, and the twins that diverged
/// form the next group. Returns each cell's result and trace with its
/// index, and how many VMs ran.
fn run_chain<S: TraceSink + Default>(
    plan: &RunPlan,
    cells: &[Cell],
    chain: &[usize],
) -> (Vec<(usize, CellResult, Option<WorkloadTrace>)>, usize) {
    let prep: Prepared<S> = cells[chain[0]].spec.prepare(plan.size);
    let mut done = Vec::with_capacity(chain.len());
    let mut left = chain.to_vec();
    let mut vms = 0;
    while !left.is_empty() {
        let t0 = Instant::now();
        let mode = |i: usize| cells[left[i]].options.mode;
        let lead = (0..left.len())
            .filter(|&i| !mode(i).adaptive_guards())
            .max_by_key(|&i| (prefetching(mode(i)), std::cmp::Reverse(i)))
            .unwrap_or(0);
        let mut group = vec![left.remove(lead)];
        if !S::ENABLED && !cells[group[0]].options.mode.adaptive_guards() {
            group.append(&mut left);
        }
        let run: Vec<_> = (group.iter())
            .map(|&i| (cells[i].options.clone(), cells[i].proc.clone()))
            .collect();
        let (measurements, mut trace) = run_prepared(&prep, &run, plan, S::default());
        vms += 1;
        let mut ran = Vec::new();
        for (&i, measurement) in group.iter().zip(measurements) {
            match measurement {
                Some(measurement) => ran.push((i, measurement)),
                None => left.push(i),
            }
        }
        left.sort_unstable();
        // The group's host time, split evenly over its cells: the shares
        // sum to the time, and a caller that divides by the wall of one
        // mode's cells (all twins on some workloads) never divides by 0.
        let wall = t0.elapsed().as_nanos();
        let n = ran.len() as u128;
        for (k, (i, measurement)) in ran.into_iter().enumerate() {
            let wall_nanos = wall / n + if k == 0 { wall % n } else { 0 };
            let result = CellResult {
                measurement,
                wall_nanos,
            };
            done.push((i, result, trace.take()));
        }
    }
    (done, vms)
}

/// How much of the paper's pass `mode` runs, for choosing a leader:
/// BASELINE none, INTER the inter-iteration half, INTER+INTRA all of it.
fn prefetching(mode: PrefetchMode) -> u8 {
    match mode {
        PrefetchMode::Off => 0,
        PrefetchMode::Inter => 1,
        PrefetchMode::InterIntra | PrefetchMode::Adaptive => 2,
    }
}

/// Runs `cells` on up to `jobs` worker threads, returning results in the
/// same order as the input regardless of scheduling. The pool's tasks are
/// the cells' programs, each run as groups of twins (see the module
/// docs): a twin's result is its leader's run on the twin's processor,
/// and the cells of one group share its host time evenly in
/// `wall_nanos`.
///
/// # Panics
///
/// Panics if a workload faults (propagating the worker's panic).
pub fn run_cells(plan: &RunPlan, jobs: usize, cells: &[Cell]) -> Vec<CellResult> {
    let (results, _) = run_chains::<NoopSink>(plan, jobs, cells);
    results.into_iter().map(|(r, _)| r).collect()
}

/// [`run_cells`] with event tracing: every cell runs on a VM of its own
/// with a recording sink and returns its trace artifacts alongside the
/// measurement.
///
/// # Panics
///
/// Panics if a workload faults (propagating the worker's panic).
pub fn run_cells_traced(plan: &RunPlan, jobs: usize, cells: &[Cell]) -> Vec<TracedCellResult> {
    let (results, _) = run_chains::<RingSink>(plan, jobs, cells);
    (results.into_iter())
        .map(|(r, trace)| TracedCellResult {
            measurement: r.measurement,
            trace: trace.expect("ring sink is enabled"),
            wall_nanos: r.wall_nanos,
        })
        .collect()
}

/// Runs `cells` through [`run_chain`], one chain per program, returning
/// each cell's result and trace in input order and the VMs each program
/// ran, programs in order of their first cell.
fn run_chains<S: TraceSink + Default>(
    plan: &RunPlan,
    jobs: usize,
    cells: &[Cell],
) -> (Vec<(CellResult, Option<WorkloadTrace>)>, Vec<usize>) {
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        match (chains.iter_mut()).find(|chain| cells[chain[0]].spec.name == c.spec.name) {
            Some(chain) => chain.push(i),
            None => chains.push(vec![i]),
        }
    }
    let ran = run_pool(jobs, chains.len(), |k| {
        run_chain::<S>(plan, cells, &chains[k])
    });
    let mut slots: Vec<Option<_>> = (0..cells.len()).map(|_| None).collect();
    let mut vms = Vec::with_capacity(ran.len());
    for (done, n) in ran {
        vms.push(n);
        for (i, r, trace) in done {
            slots[i] = Some((r, trace));
        }
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every cell is in one chain"))
        .collect();
    (results, vms)
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
    /// of all twelve programs must equal a freshly prepared direct run.
    /// The VMs each program runs are pinned, so a change that silently
    /// stops twinning fails here. INTER+INTRA on the Pentium 4 leads, and
    /// its VM runs the union of every cell's bodies — re-installed at each
    /// twin's patch and repatch — so every program runs one VM.
    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let plan = tiny_plan();
        let cs = cells(|_| true);
        let (seq, seq_vms) = run_chains::<NoopSink>(&plan, 1, &cs);
        let (par, par_vms) = run_chains::<NoopSink>(&plan, 4, &cs);
        let par: Vec<_> = par.into_iter().map(|(r, _)| r).collect();
        assert_checksums_agree(&par);
        assert_eq!(par.len(), 96);
        let names: Vec<_> = cs.chunks(8).map(|c| c[0].spec.name).collect();
        assert_eq!(
            names,
            [
                "mtrt",
                "jess",
                "compress",
                "db",
                "mpegaudio",
                "jack",
                "javac",
                "Euler",
                "MolDyn",
                "MonteCarlo",
                "RayTracer",
                "Search"
            ]
        );
        assert_eq!(seq_vms, [1; 12]);
        assert_eq!(par_vms, seq_vms);
        assert_pooled_is_direct(&plan, &cs, &seq, &par);
    }

    /// Asserts that the sequential and parallel results of `cs` agree and
    /// that each equals a direct run of its cell.
    fn assert_pooled_is_direct(
        plan: &RunPlan,
        cs: &[Cell],
        seq: &[(CellResult, Option<WorkloadTrace>)],
        par: &[CellResult],
    ) {
        for (((a, _), b), c) in seq.iter().zip(par).zip(cs) {
            let diff = a.measurement.simulated_diff(&b.measurement);
            assert!(diff.is_empty(), "parallel run diverged: {diff:?}");
            let direct = crate::run_workload(&c.spec, &c.options, &c.proc, plan);
            let diff = b.measurement.simulated_diff(&direct);
            assert!(
                diff.is_empty(),
                "pooled {} / {} / {} diverged from direct: {diff:?}",
                c.spec.name,
                c.proc.name,
                c.options.mode
            );
        }
    }

    /// At `Size::Small` the ADAPTIVE guards of db and RayTracer fire in
    /// measured runs (see `Measurement::loop_deopts`, which does not
    /// count them), which tiny never reaches, so their twins patch
    /// their own code there — RayTracer's while a frame deeper in a
    /// recursion runs the body patched — and every pooled cell must still
    /// equal its direct run. The Athlon's bodies of jess, db, MolDyn and
    /// RayTracer have prefetch ops (and kinds) the Pentium 4's lack, so
    /// their leaders run unions there; each program runs one VM. A
    /// release-profile test: the debug profile takes minutes here.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs in the release test step")]
    fn pooled_cells_equal_direct_runs_where_small_guards_fire() {
        let plan = RunPlan {
            size: Size::Small,
            ..RunPlan::default()
        };
        let cs = cells(|n| ["jess", "db", "MolDyn", "RayTracer"].contains(&n));
        let (seq, seq_vms) = run_chains::<NoopSink>(&plan, 1, &cs);
        let (par, par_vms) = run_chains::<NoopSink>(&plan, 2, &cs);
        let par: Vec<_> = par.into_iter().map(|(r, _)| r).collect();
        assert_eq!(seq_vms, [1, 1, 1, 1]);
        assert_eq!(par_vms, seq_vms);
        assert_pooled_is_direct(&plan, &cs, &seq, &par);
    }

    /// A traced sweep runs every cell on a VM of its own, as a traced VM
    /// takes no twins, and each traced cell equals its untraced one.
    #[test]
    fn a_traced_sweep_runs_one_vm_per_cell_and_matches_the_untraced_one() {
        let plan = tiny_plan();
        let cs = cells(|n| ["jess", "db"].contains(&n));
        let (traced, vms) = run_chains::<RingSink>(&plan, 2, &cs);
        assert_eq!(vms, [8, 8]);
        for (((t, trace), u), c) in traced.iter().zip(run_cells(&plan, 1, &cs)).zip(&cs) {
            assert!(trace.is_some(), "{} has its trace", c.spec.name);
            let diff = t.measurement.simulated_diff(&u.measurement);
            assert!(
                diff.is_empty(),
                "traced {} / {} / {} diverged from untraced: {diff:?}",
                c.spec.name,
                c.proc.name,
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
