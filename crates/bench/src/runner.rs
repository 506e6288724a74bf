//! Workload runner: warm-up, steady-state measurement, counter capture.

use spf_core::{MethodReport, PrefetchMode, PrefetchOptions, StrideCrossCheck};
use spf_memsim::{MemStats, ProcessorConfig};
use spf_trace::{Attribution, NoopSink, RingSink, SiteTable, TraceEvent, TraceSink};
use spf_vm::VmStats;
use spf_workloads::{Prepared, Size, WorkloadSpec};

/// How a workload is run.
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// Problem size.
    pub size: Size,
    /// Warm-up invocations of the entry (JIT compilation happens here).
    pub warmup_runs: u32,
    /// Measured invocations; the best (fewest cycles) is reported.
    pub measured_runs: u32,
    /// Read by nothing; pinned by `benchmark/src/matrix.rs:32` until ROADMAP 1(B) deletes it.
    pub timing_runs: u32,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            size: Size::Full,
            warmup_runs: 2,
            measured_runs: 2,
            timing_runs: 1,
        }
    }
}

/// One workload × configuration × processor measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub name: String,
    /// Prefetch configuration.
    pub mode: PrefetchMode,
    /// Processor name.
    pub processor: String,
    /// Best steady-state cycles over the measured runs.
    pub best_cycles: u64,
    /// Retired instructions in the best run.
    pub retired: u64,
    /// Memory counters of the best run.
    pub mem: MemStats,
    /// Fraction of execution cycles in compiled code (Table 3).
    pub compiled_fraction: f64,
    /// JIT cycles / total cycles of the simulated clock during the
    /// warm-up phase (Figure 11, right).
    pub jit_fraction: f64,
    /// Inspection cycles / (JIT + inspection cycles) of the cost model
    /// during the warm-up phase (Figure 11, left).
    pub prefetch_pass_fraction: f64,
    /// Total prefetches the JIT inserted across all methods.
    pub prefetches_inserted: usize,
    /// Static-vs-inspected stride comparison summed over all compiled
    /// methods (zero under `PrefetchMode::Off`, where no analysis runs).
    pub stride_check: StrideCrossCheck,
    /// Whole-method adaptive deoptimizations: warm-up plus the best
    /// measured run. Always 0 since invalidation went per-loop; pinned by
    /// `benchmark/src/matrix.rs:902`, which writes `deopts: 0`.
    pub deopts: u64,
    /// Full adaptive recompilations: warm-up plus the best measured run.
    pub recompiles: u64,
    /// Per-loop invalidations (stale loops' prefetch sites patched to
    /// no-ops, body kept compiled): warm-up plus the best measured run.
    /// Zero outside the adaptive-guard modes.
    ///
    /// Measured runs before the best one are not counted, though the best
    /// run executes the code they patched: db ADAPTIVE at `Size::Small`
    /// invalidates 2 loops per processor in measured run 1, runs best in
    /// run 2 with those loops patched, and reads 0 here. Counting every
    /// measured run up to the best one must change
    /// `benchmark/src/matrix.rs`'s copy of this sum in the same change
    /// (ROADMAP 4).
    pub loop_deopts: u64,
    /// Per-loop repatches (invalidated loops re-inspected and re-entered):
    /// warm-up plus the best measured run, with the gap of
    /// [`loop_deopts`](Self::loop_deopts).
    pub loop_repatches: u64,
    /// Recompilations whose re-inspection re-agreed on prefetchable
    /// strides: warm-up plus the best measured run, with the gap of
    /// [`loop_deopts`](Self::loop_deopts).
    pub reagreed: u64,
    /// Deterministic inspection cycles charged by the compile-time cost
    /// model: warm-up plus the best measured run (recompiles re-inspect).
    pub inspection_cycles: u64,
    /// Always 0: no mode skips inspection for a proved site. Pinned by
    /// `benchmark/src/matrix.rs:350` and `:908`, which write it, until
    /// ROADMAP 4(C).
    pub static_sites: u64,
    /// The workload's checksum (must agree across configurations).
    pub checksum: i32,
}

impl Measurement {
    /// Speedup of this measurement relative to a baseline measurement:
    /// `baseline_cycles / cycles` (1.0 = no change, >1 = faster).
    pub fn speedup_vs(&self, baseline: &Measurement) -> f64 {
        assert_eq!(self.name, baseline.name);
        baseline.best_cycles as f64 / self.best_cycles as f64
    }

    /// Compares every field against `other`, returning a description of
    /// each difference (empty = identical). Every field is
    /// simulation-determined, so two runs of one cell must match exactly.
    pub fn simulated_diff(&self, other: &Measurement) -> Vec<String> {
        let mut diff = Vec::new();
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    diff.push(format!(
                        "{}: {:?} != {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        cmp!(name);
        cmp!(mode);
        cmp!(processor);
        cmp!(best_cycles);
        cmp!(retired);
        cmp!(mem);
        cmp!(compiled_fraction);
        cmp!(jit_fraction);
        cmp!(prefetch_pass_fraction);
        cmp!(prefetches_inserted);
        cmp!(stride_check);
        cmp!(deopts);
        cmp!(recompiles);
        cmp!(loop_deopts);
        cmp!(loop_repatches);
        cmp!(reagreed);
        cmp!(inspection_cycles);
        cmp!(static_sites);
        cmp!(checksum);
        diff
    }
}

/// The trace artifacts of one traced workload run.
#[derive(Clone, Debug)]
pub struct WorkloadTrace {
    /// Compile-time events from the warm-up phase: JIT begin, LDG
    /// construction, inspection, suppressions, planning, and site
    /// registration.
    pub compile_events: Vec<TraceEvent>,
    /// Runtime events of the best (reported) measured run.
    pub events: Vec<TraceEvent>,
    /// The prefetch-site table the JIT registered during warm-up.
    pub sites: SiteTable,
    /// Per-site effectiveness of the best run, folded by the sink as the
    /// events were emitted: exact whatever [`lost`](Self::lost) says.
    pub attribution: Attribution,
    /// Events the sink dropped for capacity in the best run (non-zero
    /// means [`events`](Self::events) is truncated).
    pub lost: u64,
    /// Events the sink dropped during the warm-up phase (non-zero means
    /// [`compile_events`](Self::compile_events) is incomplete).
    pub warm_lost: u64,
}

/// Runs `spec` under `options` on `proc` according to `plan`.
///
/// # Panics
///
/// Panics if the workload faults, or if it produces different checksums on
/// different runs (workloads must be deterministic per invocation
/// sequence).
pub fn run_workload(
    spec: &WorkloadSpec,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    plan: &RunPlan,
) -> Measurement {
    let cell = [(options.clone(), proc.clone())];
    let (mut m, _) = run_prepared(&spec.prepare(plan.size), &cell, plan, NoopSink);
    m.pop().flatten().expect("the VM's own cell has a run")
}

/// [`run_workload`] with event tracing into a default-capacity
/// [`RingSink`]. The measurement is produced by the *same* code path as
/// the untraced one — the harness asserts the two are bit-identical.
///
/// # Panics
///
/// Panics under the same conditions as [`run_workload`].
pub fn run_workload_traced(
    spec: &WorkloadSpec,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    plan: &RunPlan,
) -> (Measurement, WorkloadTrace) {
    let cell = [(options.clone(), proc.clone())];
    let ring = RingSink::default();
    let (mut m, t) = run_prepared(&spec.prepare(plan.size), &cell, plan, ring);
    let m = m.pop().flatten().expect("the VM's own cell has a run");
    (m, t.expect("ring sink is enabled"))
}

/// The measurement protocol against an already [`Prepared`] workload,
/// generic over the trace sink so traced and untraced runs cannot drift
/// apart. One VM runs `cells`, each a configuration on a processor: the
/// VM's own is `cells[0]`, the others are its twins (see
/// [`spf_vm::Vm::cell`]). Returns per cell its measurement if it
/// reproduced the VM's run to the end, else `None` (the cell needs a run
/// of its own), then the trace of cell 0, `Some` iff the sink records.
///
/// # Panics
///
/// Panics under the same conditions as [`run_workload`], and under those
/// of [`spf_vm::Vm::add_twin`] if `cells` has more than one.
pub fn run_prepared<S: TraceSink>(
    prep: &Prepared<S>,
    cells: &[(PrefetchOptions, ProcessorConfig)],
    plan: &RunPlan,
    sink: S,
) -> (Vec<Option<Measurement>>, Option<WorkloadTrace>) {
    assert!(plan.measured_runs > 0, "at least one measured run");
    let (options, proc) = &cells[0];
    let mut vm = prep.vm(prep.vm_config(options), proc, sink);
    for (options, proc) in &cells[1..] {
        vm.add_twin(options.clone(), proc.clone());
    }
    let checksum = prep.warm(&mut vm, plan.warmup_runs);
    // Each live cell's counters after the warm-up, and how many compiles
    // the warm-up ran.
    let warm: Vec<Option<(VmStats, usize)>> = (0..cells.len())
        .map(|k| {
            let cell = vm.cell(k);
            cell.run.map(|(stats, _)| (stats, cell.reports.len()))
        })
        .collect();
    let (compile_events, warm_lost) = if S::ENABLED {
        (vm.sink().snapshot(), vm.sink().lost())
    } else {
        (Vec::new(), 0)
    };

    // Each cell's stats and memory counters of its best (fewest cycles)
    // run by its own clock.
    let mut best: Vec<Option<(VmStats, MemStats)>> = vec![None; cells.len()];
    let mut best_events: Vec<TraceEvent> = Vec::new();
    let mut best_attribution = Attribution::default();
    let mut best_lost = 0u64;
    for _ in 0..plan.measured_runs {
        // Clears counters, caches, and the trace sink: the captured events
        // are exactly the reported run's.
        vm.reset_measurement();
        let out = prep.warm(&mut vm, 1);
        assert_eq!(
            out,
            checksum,
            "{} is deterministic across runs",
            prep.name()
        );
        for (k, slot) in best.iter_mut().enumerate() {
            let Some((s, mem)) = vm.cell(k).run else {
                continue;
            };
            if slot.as_ref().is_none_or(|(b, _)| s.cycles < b.cycles) {
                *slot = Some((s, *mem));
                if k == 0 && S::ENABLED {
                    best_events = vm.sink().snapshot();
                    best_attribution = vm.sink().attribution();
                    best_lost = vm.sink().lost();
                }
            }
        }
    }
    let measurements = (warm.into_iter().zip(best).enumerate())
        .map(|(k, (warm, best))| {
            let cell = vm.cell(k);
            let ((warm, reports), (best, mem)) = warm.zip(best).filter(|_| cell.run.is_some())?;
            Some(measure(
                prep.name(),
                cell.options,
                cell.proc,
                (&warm, &best, mem),
                &cell.reports[..reports],
                checksum,
            ))
        })
        .collect();
    let trace = S::ENABLED.then(|| WorkloadTrace {
        attribution: best_attribution,
        compile_events,
        events: best_events,
        sites: vm.sites().clone(),
        lost: best_lost,
        warm_lost,
    });
    (measurements, trace)
}

/// Builds one configuration's [`Measurement`] from the counters of its
/// warm-up, of its best measured run and that run's memory counters, and
/// from the reports of the compiles its warm-up ran.
fn measure(
    name: &str,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    (warm, best, mem): (&VmStats, &VmStats, MemStats),
    reports: &[MethodReport],
    checksum: i32,
) -> Measurement {
    let mut stride_check = StrideCrossCheck::default();
    for r in reports {
        stride_check.add(&r.stride_check_totals());
    }
    Measurement {
        name: name.to_string(),
        mode: options.mode,
        processor: proc.name.clone(),
        best_cycles: best.cycles,
        retired: best.retired_instructions,
        mem,
        compiled_fraction: best.compiled_code_fraction(),
        jit_fraction: warm.jit_time_fraction(),
        prefetch_pass_fraction: warm.prefetch_pass_fraction(),
        prefetches_inserted: reports.iter().map(|r| r.total_prefetches).sum(),
        stride_check,
        deopts: warm.deopts + best.deopts,
        recompiles: warm.recompiles + best.recompiles,
        loop_deopts: warm.loop_deopts + best.loop_deopts,
        loop_repatches: warm.loop_repatches + best.loop_repatches,
        reagreed: warm.reagreed + best.reagreed,
        inspection_cycles: warm.inspection_cycles + best.inspection_cycles,
        static_sites: warm.static_sites + best.static_sites,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_diff_reports_a_moved_prefetch_pass_fraction() {
        let a = Measurement {
            name: "db".to_string(),
            mode: PrefetchMode::InterIntra,
            processor: "Pentium 4".to_string(),
            best_cycles: 100,
            retired: 10,
            mem: MemStats::default(),
            compiled_fraction: 0.5,
            jit_fraction: 0.1,
            prefetch_pass_fraction: 0.2,
            prefetches_inserted: 3,
            stride_check: StrideCrossCheck::default(),
            deopts: 0,
            recompiles: 0,
            loop_deopts: 0,
            loop_repatches: 0,
            reagreed: 0,
            inspection_cycles: 160,
            static_sites: 0,
            checksum: 42,
        };
        let b = Measurement {
            prefetch_pass_fraction: 0.25,
            ..a.clone()
        };
        assert!(a.simulated_diff(&a.clone()).is_empty());
        assert_eq!(
            a.simulated_diff(&b),
            ["prefetch_pass_fraction: 0.2 != 0.25"]
        );
    }
}
