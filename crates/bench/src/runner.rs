//! Workload runner: warm-up, steady-state measurement, counter capture.

use spf_core::{PrefetchMode, PrefetchOptions, StrideCrossCheck};
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
    /// Timed repetitions of each matrix cell; a cell's `host_wall_ns` is
    /// the median over this many complete runs (1 = time the single run).
    /// Every repetition is asserted bit-identical to the first, so the
    /// extra runs only tighten host timing, never change a simulated
    /// number.
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
    /// Prefetch-pass time / JIT time (Figure 11, left).
    pub prefetch_pass_fraction: f64,
    /// Total prefetches the JIT inserted across all methods.
    pub prefetches_inserted: usize,
    /// Static-vs-inspected stride comparison summed over all compiled
    /// methods (zero under `PrefetchMode::Off`, where no analysis runs).
    pub stride_check: StrideCrossCheck,
    /// Whole-method adaptive deoptimizations: warm-up plus the best
    /// measured run. Always 0 since invalidation went per-loop; kept so
    /// existing artifacts and parsers keep their column.
    pub deopts: u64,
    /// Full adaptive recompilations: warm-up plus the best measured run.
    pub recompiles: u64,
    /// Per-loop invalidations (stale loops' prefetch sites patched to
    /// no-ops, body kept compiled): warm-up plus the best measured run.
    /// Zero outside the adaptive-guard modes.
    pub loop_deopts: u64,
    /// Per-loop repatches (invalidated loops re-inspected and re-entered):
    /// warm-up plus the best measured run.
    pub loop_repatches: u64,
    /// Recompilations whose re-inspection re-agreed on prefetchable
    /// strides.
    pub reagreed: u64,
    /// Deterministic inspection cycles charged by the compile-time cost
    /// model: warm-up plus the best measured run (recompiles re-inspect).
    pub inspection_cycles: u64,
    /// Statically proved prefetch sites excluded from object inspection.
    /// Zero outside [`PrefetchMode::StaticFirst`].
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

    /// Compares every *simulation-determined* field against `other`,
    /// returning a description of each difference (empty = identical).
    ///
    /// `prefetch_pass_fraction` is excluded on purpose: it is a ratio of
    /// host wall-clock times, which vary from run to run even when the
    /// simulation is bit-identical. Everything the simulator itself
    /// computes — cycles, instruction counts, memory counters, the JIT's
    /// share of the simulated clock, checksums — must match exactly.
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
    run_prepared(&spec.prepare(plan.size), options, proc, plan, NoopSink).0
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
    let ring = RingSink::default();
    let (m, t) = run_prepared(&spec.prepare(plan.size), options, proc, plan, ring);
    (m, t.expect("ring sink is enabled"))
}

/// The measurement protocol against an already [`Prepared`] workload,
/// generic over the trace sink so traced and untraced runs cannot drift
/// apart. The trace is `Some` iff the sink records.
///
/// # Panics
///
/// Panics under the same conditions as [`run_workload`].
pub fn run_prepared<S: TraceSink>(
    prep: &Prepared<S>,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    plan: &RunPlan,
    sink: S,
) -> (Measurement, Option<WorkloadTrace>) {
    let mut vm = prep.vm(prep.vm_config(options), proc, sink);
    let checksum = prep.warm(&mut vm, plan.warmup_runs);
    let warm_stats = vm.stats().clone();
    let prefetches_inserted = vm.reports().iter().map(|r| r.total_prefetches).sum();
    let stride_check = {
        let mut total = StrideCrossCheck::default();
        for r in vm.reports() {
            total.add(&r.stride_check_totals());
        }
        total
    };
    let (compile_events, warm_lost) = if S::ENABLED {
        (vm.sink().snapshot(), vm.sink().lost())
    } else {
        (Vec::new(), 0)
    };

    // Stats and memory counters of the best (fewest cycles) run.
    let mut best: Option<(VmStats, MemStats)> = None;
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
        let s = vm.stats();
        if best.as_ref().is_none_or(|(b, _)| s.cycles < b.cycles) {
            best = Some((s.clone(), *vm.mem_stats()));
            if S::ENABLED {
                best_events = vm.sink().snapshot();
                best_attribution = vm.sink().attribution();
                best_lost = vm.sink().lost();
            }
        }
    }
    let (best, mem) = best.expect("at least one measured run");
    let trace = S::ENABLED.then(|| WorkloadTrace {
        attribution: best_attribution,
        compile_events,
        events: best_events,
        sites: vm.sites().clone(),
        lost: best_lost,
        warm_lost,
    });
    let measurement = Measurement {
        name: prep.name().to_string(),
        mode: options.mode,
        processor: proc.name.clone(),
        best_cycles: best.cycles,
        retired: best.retired_instructions,
        mem,
        compiled_fraction: best.compiled_code_fraction(),
        jit_fraction: warm_stats.jit_time_fraction(),
        prefetch_pass_fraction: warm_stats.prefetch_pass_fraction(),
        prefetches_inserted,
        stride_check,
        deopts: warm_stats.deopts + best.deopts,
        recompiles: warm_stats.recompiles + best.recompiles,
        loop_deopts: warm_stats.loop_deopts + best.loop_deopts,
        loop_repatches: warm_stats.loop_repatches + best.loop_repatches,
        reagreed: warm_stats.reagreed + best.reagreed,
        inspection_cycles: warm_stats.inspection_cycles + best.inspection_cycles,
        static_sites: warm_stats.static_sites + best.static_sites,
        checksum,
    };
    (measurement, trace)
}
