//! The three `matrix-*` workloads: a partition of the paper's 120-cell
//! matrix, run end to end through `spf_bench::matrix::run_matrix`, and —
//! in the traced set — re-driven cell by cell from here so each phase of
//! a cell gets its own span.

use std::hint::black_box;
use std::sync::Arc;

use spf_bench::matrix::{self, Cell, CellResult};
use spf_bench::{matrix_json, Measurement, RunPlan};
use spf_core::{PrefetchMode, PrefetchOptions, StrideCrossCheck};
use spf_ir::MethodId;
use spf_memsim::{MemStats, ProcessorConfig};
use spf_trace::NoopSink;
use spf_vm::{Predecoded, Vm, VmConfig, VmStats};
use spf_workloads::{BuiltWorkload, Size};

use crate::kernels::{self, MemsimCosts};
use crate::manifest::{PaperReference, Workload, METRICS};
use crate::report::{Report, Tally};
use crate::span::{layer_self_nanos, to_jsonl, Tracer};
use crate::stats::{geomean, median};
use crate::timing::{self, Probe};

/// The paper's protocol at the benchmark's size: two warm-up calls (the
/// JIT runs here), best of two measured calls, each cell timed once.
pub fn plan(size: Size) -> RunPlan {
    RunPlan {
        size,
        warmup_runs: 2,
        measured_runs: 2,
        timing_runs: 1,
    }
}

/// A program built and predecoded once, shared by every VM that runs it.
pub struct Prepared {
    pub name: &'static str,
    pub pre: Arc<Predecoded>,
    pub entry: MethodId,
    pub heap_bytes: usize,
    pub expected: Option<i32>,
    pub compile_threshold: u32,
}

impl Prepared {
    pub fn new(name: &'static str, built: BuiltWorkload) -> Self {
        Prepared {
            name,
            pre: Arc::new(Predecoded::new(built.program)),
            entry: built.entry,
            heap_bytes: built.heap_bytes,
            expected: built.expected,
            compile_threshold: built.compile_threshold,
        }
    }

    /// The configuration `spf_bench::runner` gives a matrix cell's VM.
    pub fn vm_config(&self, options: &PrefetchOptions) -> VmConfig {
        VmConfig {
            heap_bytes: self.heap_bytes,
            prefetch: options.clone(),
            compile_threshold: self.compile_threshold,
            ..VmConfig::default()
        }
    }

    /// Calls the entry method and returns its checksum.
    pub fn call(&self, vm: &mut Vm) -> i32 {
        vm.call(self.entry, &[])
            .unwrap_or_else(|e| panic!("{} faulted: {e}", self.name))
            .expect("entry returns a checksum")
            .as_i32()
    }
}

/// What a process pays before its first timed iteration: build and
/// predecode the workload's programs, construct one VM per cell, and run
/// the whole cell set once at `Tiny` with one warm-up and one measured
/// call (a full-size warm-up iteration does not fit the benchmark's time
/// cap).
fn set_up(w: &Workload) {
    let mut programs: Vec<Prepared> = Vec::new();
    // Cells come grouped by program, so the last one prepared is the
    // current cell's.
    for cell in matrix::cells(|n| w.programs.contains(&n)) {
        if programs.last().is_none_or(|p| p.name != cell.spec.name) {
            programs.push(Prepared::new(
                cell.spec.name,
                (cell.spec.build)(Size::Small),
            ));
        }
        let p = programs.last().expect("pushed above");
        black_box(Vm::from_predecoded(
            &p.pre,
            p.vm_config(&cell.options),
            cell.proc,
            NoopSink,
        ));
    }
    let warm = RunPlan {
        warmup_runs: 1,
        measured_runs: 1,
        ..plan(Size::Tiny)
    };
    black_box(matrix::run_matrix(&warm, 1, |n| w.programs.contains(&n)));
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
    items.iter().map(f).sum()
}

/// Geomean over (program, processor) of BASELINE / INTER+INTRA cycles,
/// and how many of those pairs have the sign the paper reports.
fn speedups(ms: &[&Measurement], paper: &PaperReference) -> (f64, u64, u64) {
    let mut ratios = Vec::new();
    let mut agree = 0;
    for base in ms.iter().filter(|m| m.mode == PrefetchMode::Off) {
        let ii = ms
            .iter()
            .find(|m| {
                m.mode == PrefetchMode::InterIntra
                    && m.name == base.name
                    && m.processor == base.processor
            })
            .expect("every BASELINE cell has an INTER+INTRA twin");
        let ratio = ii.speedup_vs(base);
        ratios.push(ratio);
        let reference = paper
            .lookup(&base.name, &base.processor)
            .expect("paper_reference.json covers all 24 pairs");
        if paper.sign((ratio - 1.0) * 100.0) == paper.sign(reference) {
            agree += 1;
        }
    }
    (geomean(&ratios), agree, ratios.len() as u64)
}

/// The untraced set: end-to-end metrics of one matrix workload.
pub fn untraced(
    w: &'static Workload,
    seconds: f64,
    paper: &PaperReference,
    rep: &mut Report,
) -> (bool, Tally) {
    let mut probe = Probe::new();
    let set_ups = timing::set_ups(&mut probe, || set_up(w));

    let plan = plan(Size::Small);
    let keep = |n: &str| w.programs.contains(&n);
    let n_cells = matrix::cells(keep).len() as u64;
    // run_matrix panics on a fault, on a checksum that is not the program's
    // expected one, and on one that differs across modes.
    let timed = timing::iterate(
        &mut probe,
        seconds,
        || matrix::run_matrix(&plan, 1, keep),
        |first: &Vec<CellResult>, again| {
            let mut same = true;
            for (a, b) in first.iter().zip(again) {
                let diff = a.measurement.simulated_diff(&b.measurement);
                if !diff.is_empty() {
                    let m = &a.measurement;
                    eprintln!(
                        "{}: {}/{}/{} differs from the first iteration: {diff:?}",
                        w.name, m.name, m.mode, m.processor
                    );
                    same = false;
                }
            }
            same
        },
    );
    // Only a panic fails cells; it fails the whole iteration's.
    let tally = Tally {
        attempted: n_cells * timed.iterations(),
        failed: if timed.panicked { n_cells } else { 0 },
    };
    let Some(results) = &timed.first else {
        return (false, tally);
    };

    let ms: Vec<&Measurement> = results.iter().map(|r| &r.measurement).collect();
    let wall_s = timing::put_host_clock(rep, &set_ups, &timed.samples);
    let runs_per_cell = u64::from(plan.warmup_runs + plan.measured_runs);
    rep.put(
        "sim_minstr_per_s",
        (runs_per_cell * sum(&ms, |m| m.retired)) as f64 / wall_s / 1e6,
    );
    rep.put("failed_share", tally.failed as f64 / tally.attempted as f64);
    put_simulated(rep, &ms, paper);
    (timed.clean(), tally)
}

/// The simulated-clock end-to-end metrics. Both sets print them: the
/// traced set from its own loop, so the suite can check they agree.
fn put_simulated(rep: &mut Report, ms: &[&Measurement], paper: &PaperReference) {
    let (speedup, agree, pairs) = speedups(ms, paper);
    rep.put("sim_cycles", sum(ms, |m| m.best_cycles) as f64);
    rep.put("sim_speedup_geomean", speedup);
    rep.put(
        "sim_inspection_cycles",
        sum(ms, |m| m.inspection_cycles) as f64,
    );
    rep.put("paper_sign_agree", agree as f64);
    println!(
        "# {} paper_sign_agree {agree}/{pairs} (reference is full-size hardware, run is Small)",
        rep.workload.name
    );
}

/// Everything the harness's own loop learns about one cell.
struct DrivenCell {
    measurement: Measurement,
    wall_nanos: u64,
    new_nanos: u64,
    warmup_nanos: u64,
    steady_nanos: u64,
    /// Summed over the measured calls (not just the best one): the work
    /// `steady_nanos` paid for.
    steady_retired: u64,
    steady_mem: MemStats,
    compiled_cycles: u64,
    exec_cycles: u64,
    jit_nanos: u128,
    pass_nanos: u128,
    methods_compiled: u64,
    gc_count: u64,
    gc_cycles: u64,
    fused_ops: u64,
    pic_hits: u64,
    pic_lookups: u64,
}

/// The counters the benchmark reports or prices, in one fixed order.
fn mem_fields(s: &mut MemStats) -> [&mut u64; 10] {
    [
        &mut s.loads,
        &mut s.stores,
        &mut s.l1_load_misses,
        &mut s.l2_load_misses,
        &mut s.dtlb_load_misses,
        &mut s.swpf_issued,
        &mut s.swpf_dropped_tlb,
        &mut s.guarded_loads,
        &mut s.hw_prefetch_fills,
        &mut s.stall_cycles,
    ]
}

/// `total += s` over [`mem_fields`].
pub fn add_mem(total: &mut MemStats, s: &MemStats) {
    let mut s = *s;
    for (t, v) in mem_fields(total).into_iter().zip(mem_fields(&mut s)) {
        *t += *v;
    }
}

/// `after - before` over [`mem_fields`]; the other counters stay zero.
pub fn sub_mem(after: &MemStats, before: &MemStats) -> MemStats {
    let (mut out, mut before) = (*after, *before);
    for (a, b) in mem_fields(&mut out)
        .into_iter()
        .zip(mem_fields(&mut before))
    {
        *a -= *b;
    }
    out
}

/// `spf_bench::runner`'s measurement protocol, rebuilt from the VM's
/// public API with a span around each phase. [`traced`] aborts unless it
/// reproduces `run_cells` exactly, so the spans always describe the same
/// program as the end-to-end numbers.
fn drive_cell(t: &mut Tracer, op: u64, cell: &Cell, p: &Prepared, plan: &RunPlan) -> DrivenCell {
    let (d, wall_nanos) = t.timed("bench.cell", op, |t| {
        let (mut vm, new_nanos) = t.timed("vm.new", op, |_| {
            Vm::from_predecoded(
                &p.pre,
                p.vm_config(&cell.options),
                cell.proc.clone(),
                NoopSink,
            )
        });
        let mut checksum = 0;
        let mut warmup_nanos = 0;
        for _ in 0..plan.warmup_runs {
            let (c, nanos) = t.timed("vm.warmup", op, |_| p.call(&mut vm));
            checksum = c;
            warmup_nanos += nanos;
        }
        if let Some(expected) = p.expected {
            assert_eq!(checksum, expected, "{} checksum", p.name);
        }
        let warm = vm.stats().clone();
        let prefetches_inserted = vm.reports().iter().map(|r| r.total_prefetches).sum();
        let mut stride_check = StrideCrossCheck::default();
        for r in vm.reports() {
            stride_check.add(&r.stride_check_totals());
        }

        let mut best: Option<(VmStats, MemStats)> = None;
        let mut steady_nanos = 0;
        let mut steady_retired = 0;
        let mut steady_mem = MemStats::default();
        let (mut compiled_cycles, mut exec_cycles) = (0, 0);
        let (mut jit_nanos, mut pass_nanos) = (warm.jit_nanos, warm.prefetch_pass_nanos);
        let (mut gc_count, mut gc_cycles) = (warm.gc_count, warm.gc_cycles);
        for _ in 0..plan.measured_runs {
            t.span("vm.reset", op, |_| vm.reset_measurement());
            let (out, nanos) = t.timed("vm.measured", op, |_| p.call(&mut vm));
            assert_eq!(out, checksum, "{} is deterministic across runs", p.name);
            steady_nanos += nanos;
            let s = vm.stats();
            steady_retired += s.retired_instructions;
            add_mem(&mut steady_mem, vm.mem_stats());
            for m in &s.per_method {
                compiled_cycles += m.compiled;
                exec_cycles += m.compiled + m.interpreted;
            }
            jit_nanos += s.jit_nanos;
            pass_nanos += s.prefetch_pass_nanos;
            gc_count += s.gc_count;
            gc_cycles += s.gc_cycles;
            if best.as_ref().is_none_or(|(b, _)| s.cycles < b.cycles) {
                best = Some((s.clone(), *vm.mem_stats()));
            }
        }
        let (best, mem) = best.expect("at least one measured run");
        let pic = vm.pic_stats();
        DrivenCell {
            measurement: Measurement {
                name: p.name.to_string(),
                mode: cell.options.mode,
                processor: cell.proc.name.clone(),
                best_cycles: best.cycles,
                retired: best.retired_instructions,
                mem,
                compiled_fraction: best.compiled_code_fraction(),
                jit_fraction: warm.jit_time_fraction(),
                prefetch_pass_fraction: warm.prefetch_pass_fraction(),
                prefetches_inserted,
                stride_check,
                deopts: warm.deopts + best.deopts,
                recompiles: warm.recompiles + best.recompiles,
                loop_deopts: warm.loop_deopts + best.loop_deopts,
                loop_repatches: warm.loop_repatches + best.loop_repatches,
                reagreed: warm.reagreed + best.reagreed,
                inspection_cycles: warm.inspection_cycles + best.inspection_cycles,
                static_sites: warm.static_sites + best.static_sites,
                checksum,
            },
            wall_nanos: 0,
            new_nanos,
            warmup_nanos,
            steady_nanos,
            steady_retired,
            steady_mem,
            compiled_cycles,
            exec_cycles,
            jit_nanos,
            pass_nanos,
            methods_compiled: warm.methods_compiled,
            gc_count,
            gc_cycles,
            fused_ops: vm.fused_op_count(),
            pic_hits: pic.hits,
            pic_lookups: pic.hits + pic.misses,
        }
    });
    DrivenCell { wall_nanos, ..d }
}

/// Host nanoseconds the memory model is estimated to cost for `s`: each
/// modelled event priced at its kernel's per-operation time.
pub fn memsim_estimate_nanos(s: &MemStats, c: &MemsimCosts) -> f64 {
    let l1_hits = s.loads.saturating_sub(s.l1_load_misses);
    let l2_hits = s.l1_load_misses.saturating_sub(s.l2_load_misses);
    l1_hits as f64 * c.hit_ns
        + l2_hits as f64 * c.l1miss_ns
        + s.l2_load_misses as f64 * c.l2miss_ns
        + s.stores as f64 * c.store_ns
        + s.swpf_issued as f64 * c.swpf_ns
        + s.guarded_loads as f64 * c.guarded_ns
}

/// Builds and predecodes the programs called `names` at `size`, one span
/// per step. Returns them with the build and predecode nanoseconds.
pub fn prepare(t: &mut Tracer, names: &[&str], size: Size) -> (Vec<Prepared>, u64, u64) {
    let (mut build_nanos, mut predecode_nanos) = (0, 0);
    let mut out = Vec::new();
    for (op, spec) in spf_workloads::all()
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .enumerate()
    {
        let (built, nanos) = t.timed("workloads.build", op as u64, |_| (spec.build)(size));
        build_nanos += nanos;
        let (p, nanos) = t.timed("vm.predecode", op as u64, |_| {
            Prepared::new(spec.name, built)
        });
        predecode_nanos += nanos;
        out.push(p);
    }
    (out, build_nanos, predecode_nanos)
}

/// One call of an async-compile VM: how long it took, and the VM's
/// cumulative counters right after it.
pub struct AsyncCall {
    pub nanos: u64,
    pub stats: VmStats,
    pub mem: MemStats,
}

/// Calls an async-compile VM of each program `rounds` times, running
/// every compile it requests in between (one span each), and hands the
/// finished VM and its calls to `done`. Returns the per-method compile
/// times in microseconds.
pub fn drive_compiles(
    t: &mut Tracer,
    programs: &[Prepared],
    rounds: usize,
    config: impl Fn(&Prepared) -> VmConfig,
    mut done: impl FnMut(&Vm, &[AsyncCall]),
) -> Vec<f64> {
    let mut micros = Vec::new();
    for (op, p) in programs.iter().enumerate() {
        let op = op as u64;
        let mut vm = Vm::from_predecoded(
            &p.pre,
            VmConfig {
                async_compile: true,
                ..config(p)
            },
            ProcessorConfig::pentium4(),
            NoopSink,
        );
        let mut calls = Vec::new();
        for _ in 0..rounds {
            let (_, nanos) = t.timed("vm.async_call", op, |_| p.call(&mut vm));
            calls.push(AsyncCall {
                nanos,
                stats: vm.stats().clone(),
                mem: *vm.mem_stats(),
            });
            for mid in vm.take_compile_requests() {
                let (installed, nanos) = t.timed("core.compile", op, |_| vm.compile_pending(mid));
                if installed.is_some() {
                    micros.push(nanos as f64 / 1e3);
                }
            }
        }
        done(&vm, &calls);
    }
    micros
}

/// Layer metrics every workload reports the same way: static-analysis
/// costs of its programs and the seeded single-layer kernels.
pub fn common_layers(
    t: &mut Tracer,
    programs: &[Prepared],
    seed: u64,
    rep: &mut Report,
) -> MemsimCosts {
    let refs: Vec<&spf_ir::Program> = programs.iter().map(|p| p.pre.program()).collect();
    let a = kernels::analyses(t, &refs);
    rep.put("ir.instrs", a.instrs as f64);
    rep.put("ir.analyses_us", a.analyses_us);
    rep.put("core.ldg_build_us", a.ldg_build_us);
    rep.put("analysis.scev_us", a.scev_us);
    let costs = kernels::memsim(t, seed);
    rep.put("memsim.hit_ns", costs.hit_ns);
    rep.put("memsim.l1miss_ns", costs.l1miss_ns);
    rep.put("memsim.l2miss_ns", costs.l2miss_ns);
    rep.put("memsim.store_ns", costs.store_ns);
    rep.put("memsim.swpf_ns", costs.swpf_ns);
    rep.put("memsim.guarded_ns", costs.guarded_ns);
    let h = kernels::heap(t, seed);
    rep.put("heap.alloc_ns", h.alloc_ns);
    rep.put("heap.collect_ms", h.collect_ms);
    rep.put("heap.moved_objects", h.moved_objects as f64);
    let fleet = crate::serve::config(crate::manifest::TRAFFIC_SEED);
    let c = kernels::code_cache(t, seed, fleet.cache_capacity_instrs);
    rep.put("serve.cache.op_ns", c.op_ns);
    rep.put("serve.cache.evictions_per_insert", c.evictions_per_insert);
    rep.put(
        "serve.traffic.generate_us",
        kernels::traffic_generate(t, seed, fleet.tenants, fleet.requests),
    );
    costs
}

/// Emits the memory model's counters (`best`: the reported runs) and its
/// estimated share of `steady_nanos` (`steady`: every timed call).
pub fn memsim_layers(
    rep: &mut Report,
    best: &MemStats,
    sim_cycles: u64,
    steady: &MemStats,
    steady_nanos: u64,
    steady_retired: u64,
    costs: &MemsimCosts,
) {
    rep.put("memsim.loads", best.loads as f64);
    rep.put("memsim.stores", best.stores as f64);
    rep.put("memsim.l1_load_misses", best.l1_load_misses as f64);
    rep.put("memsim.l2_load_misses", best.l2_load_misses as f64);
    rep.put("memsim.dtlb_load_misses", best.dtlb_load_misses as f64);
    rep.put("memsim.swpf_issued", best.swpf_issued as f64);
    rep.put("memsim.swpf_dropped_tlb", best.swpf_dropped_tlb as f64);
    rep.put("memsim.guarded_loads", best.guarded_loads as f64);
    rep.put("memsim.hw_prefetch_fills", best.hw_prefetch_fills as f64);
    rep.put("memsim.stall_cycles", best.stall_cycles as f64);
    rep.put(
        "memsim.stall_share",
        best.stall_cycles as f64 / sim_cycles as f64,
    );
    let est = memsim_estimate_nanos(steady, costs);
    let per_instr = steady_nanos as f64 / steady_retired as f64;
    rep.put("vm.steady_ns_per_instr", per_instr);
    rep.put("memsim.est_share", est / steady_nanos as f64);
    rep.put(
        "vm.dispatch_ns_per_instr_est",
        per_instr - est / steady_retired as f64,
    );
}

/// Emits `self_s.*` and their coverage of the root span, gives every
/// layer metric the workload never measured the value 0, and writes the
/// span file.
pub fn finish_trace(t: &Tracer, rep: &mut Report) -> Result<(), String> {
    let spans = t.spans();
    let root = spans.first().expect("the traced run opens a root span");
    let by_layer = layer_self_nanos(spans);
    let mut covered = 0u64;
    for m in METRICS {
        let Some(layer) = m.name.strip_prefix("self_s.").filter(|l| *l != "coverage") else {
            continue;
        };
        let nanos = by_layer.get(layer).copied().unwrap_or(0);
        covered += nanos;
        rep.put(m.name, nanos as f64 / 1e9);
    }
    assert_eq!(
        by_layer.values().sum::<u64>(),
        covered,
        "a span names a layer without a self_s metric: {:?}",
        by_layer.keys()
    );
    rep.put("self_s.coverage", covered as f64 / root.nanos() as f64);
    rep.put("traced_wall_s", root.nanos() as f64 / 1e9);
    rep.zero_unmeasured_layers();
    let path = format!("benchmark/out/trace-{}.jsonl", rep.workload.name);
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(&path, to_jsonl(spans)))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// `num / den`, or 0 when there was nothing to divide by (a workload that
/// issued no prefetch has no useful share).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median, or 0 for no samples (a workload that compiled nothing).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Runs the INTER+INTRA cells — where prefetches fire — with a recording
/// sink and emits `trace.*`. Returns whether every recorded cell is
/// `simulated_diff`-identical to its untraced twin in `results`.
fn event_trace_layers(
    t: &mut Tracer,
    rep: &mut Report,
    plan: &RunPlan,
    cells: &[Cell],
    results: &[CellResult],
) -> bool {
    let ii: Vec<usize> = (0..cells.len())
        .filter(|&i| cells[i].options.mode == PrefetchMode::InterIntra)
        .collect();
    let ii_cells: Vec<Cell> = ii.iter().map(|&i| cells[i].clone()).collect();
    let recorded = t.span("trace.run_cells_traced", 0, |_| {
        matrix::run_cells_traced(plan, 1, &ii_cells)
    });
    let mut identical = true;
    let (mut events, mut lost, mut untraced_nanos) = (0u64, 0u64, 0u64);
    let (mut issued, mut useful, mut early, mut late, mut dropped) = (0, 0, 0, 0, 0);
    for (&i, r) in ii.iter().zip(&recorded) {
        let diff = r.measurement.simulated_diff(&results[i].measurement);
        if !diff.is_empty() {
            eprintln!(
                "{}: event-traced cell {i} differs: {diff:?}",
                rep.workload.name
            );
            identical = false;
        }
        untraced_nanos += results[i].wall_nanos as u64;
        events += r.trace.events.len() as u64;
        lost += r.trace.lost + r.trace.warm_lost;
        let a = &r.trace.attribution;
        issued += a.total(|e| e.issued());
        useful += a.total(|e| e.useful());
        early += a.total(|e| e.too_early());
        late += a.total(|e| e.too_late());
        dropped += a.total(|e| e.dropped());
    }
    let share = |n: u64| ratio(n as f64, issued as f64);
    rep.put(
        "trace.overhead_ratio",
        sum(&recorded, |r| r.wall_nanos as u64) as f64 / untraced_nanos as f64,
    );
    rep.put("trace.events", events as f64);
    rep.put("trace.lost", lost as f64);
    rep.put("trace.useful_share", share(useful));
    rep.put("trace.too_early_share", share(early));
    rep.put("trace.too_late_share", share(late));
    rep.put("trace.dropped_share", share(dropped));
    identical
}

/// Emits what the harness's own loop saw of `vm`, `memsim`, `heap`, `core`
/// and `adapt`, summed over its cells.
fn driven_layers(rep: &mut Report, driven: &[DrivenCell], costs: &MemsimCosts) {
    let ms: Vec<&Measurement> = driven.iter().map(|d| &d.measurement).collect();
    let mut best_mem = MemStats::default();
    let mut steady_mem = MemStats::default();
    for d in driven {
        add_mem(&mut best_mem, &d.measurement.mem);
        add_mem(&mut steady_mem, &d.steady_mem);
    }
    let steady_nanos = sum(driven, |d| d.steady_nanos);
    memsim_layers(
        rep,
        &best_mem,
        sum(&ms, |m| m.best_cycles),
        &steady_mem,
        steady_nanos,
        sum(driven, |d| d.steady_retired),
        costs,
    );
    rep.put("vm.new_us", sum(driven, |d| d.new_nanos) as f64 / 1e3);
    rep.put("vm.warmup_ms", sum(driven, |d| d.warmup_nanos) as f64 / 1e6);
    rep.put("vm.steady_ms", steady_nanos as f64 / 1e6);
    let jit: u128 = driven.iter().map(|d| d.jit_nanos).sum();
    let pass: u128 = driven.iter().map(|d| d.pass_nanos).sum();
    rep.put("vm.jit_ms", jit as f64 / 1e6);
    rep.put("vm.prefetch_pass_ms", pass as f64 / 1e6);
    rep.put("core.pass_share_of_jit", ratio(pass as f64, jit as f64));
    rep.put(
        "vm.compiled_fraction",
        sum(driven, |d| d.compiled_cycles) as f64 / sum(driven, |d| d.exec_cycles) as f64,
    );
    rep.put("vm.fused_ops", sum(driven, |d| d.fused_ops) as f64);
    rep.put(
        "vm.pic_hit_rate",
        ratio(
            sum(driven, |d| d.pic_hits) as f64,
            sum(driven, |d| d.pic_lookups) as f64,
        ),
    );
    rep.put("heap.gc_count", sum(driven, |d| d.gc_count) as f64);
    rep.put("heap.gc_cycles", sum(driven, |d| d.gc_cycles) as f64);
    rep.put("core.compiles", sum(driven, |d| d.methods_compiled) as f64);
    rep.put(
        "core.prefetches_inserted",
        sum(&ms, |m| m.prefetches_inserted as u64) as f64,
    );
    rep.put("core.static_sites", sum(&ms, |m| m.static_sites) as f64);
    rep.put("adapt.loop_deopts", sum(&ms, |m| m.loop_deopts) as f64);
    rep.put(
        "adapt.loop_repatches",
        sum(&ms, |m| m.loop_repatches) as f64,
    );
    rep.put("adapt.reagreed", sum(&ms, |m| m.reagreed) as f64);
    let of_mode = |mode: PrefetchMode, f: fn(&DrivenCell) -> u64| {
        let cells = driven.iter().filter(|d| d.measurement.mode == mode);
        cells.map(f).sum::<u64>() as f64
    };
    rep.put(
        "adapt.host_overhead_ratio",
        of_mode(PrefetchMode::Adaptive, |d| d.wall_nanos)
            / of_mode(PrefetchMode::InterIntra, |d| d.wall_nanos),
    );
    rep.put(
        "adapt.cycle_ratio",
        of_mode(PrefetchMode::Adaptive, |d| d.measurement.best_cycles)
            / of_mode(PrefetchMode::InterIntra, |d| d.measurement.best_cycles),
    );
}

/// The traced set: per-layer metrics of one matrix workload.
pub fn traced(
    w: &'static Workload,
    seed: u64,
    paper: &PaperReference,
    rep: &mut Report,
) -> Result<(bool, Tally), String> {
    let plan = plan(Size::Small);
    let cells = matrix::cells(|n| w.programs.contains(&n));
    let mut t = Tracer::new();
    let mut correct = true;
    t.span("bench.traced_run", 0, |t| -> Result<(), String> {
        let (programs, build_nanos, predecode_nanos) = prepare(t, w.programs, plan.size);
        rep.put("workloads.build_ms", build_nanos as f64 / 1e6);
        rep.put("vm.predecode_us", predecode_nanos as f64 / 1e3);
        let costs = common_layers(t, &programs, seed, rep);

        // The harness's own loop, phase by phase.
        let (driven, own_nanos) = t.timed("bench.own_loop", 0, |t| {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    let p = programs
                        .iter()
                        .find(|p| p.name == cell.spec.name)
                        .expect("prepared above");
                    drive_cell(t, i as u64, cell, p, &plan)
                })
                .collect::<Vec<_>>()
        });

        // The same cells through the public sweep, for protocol parity.
        let (results, sweep_nanos) = t.timed("bench.matrix.run_cells", 0, |_| {
            matrix::run_cells(&plan, 1, &cells)
        });
        matrix::assert_checksums_agree(&results);
        for (d, r) in driven.iter().zip(&results) {
            let diff = d.measurement.simulated_diff(&r.measurement);
            if !diff.is_empty() {
                return Err(format!(
                    "protocol parity broken on {}/{}/{}: {diff:?}",
                    r.measurement.name, r.measurement.mode, r.measurement.processor
                ));
            }
        }
        let in_cells = sum(&results, |r| r.wall_nanos as u64);
        rep.put(
            "bench.harness_overhead_s",
            sweep_nanos.saturating_sub(in_cells) as f64 / 1e9,
        );
        rep.put(
            "bench.tracing_overhead_s",
            (own_nanos as f64 - sweep_nanos as f64) / 1e9,
        );

        correct &= event_trace_layers(t, rep, &plan, &cells, &results);

        // Callees cross the compile threshold on later calls than their
        // callers; three rounds reach every method the protocol's two
        // warm-up calls compile.
        let compile_us = drive_compiles(
            t,
            &programs,
            3,
            |p| p.vm_config(&PrefetchOptions::inter_intra()),
            |_, _| (),
        );
        rep.put("core.compile_us_per_method", median_or_zero(&compile_us));

        let (text, nanos) = t.timed("bench.matrix_json.emit", 0, |_| {
            matrix_json::emit(&results, plan.size, 1, u128::from(sweep_nanos))
        });
        rep.put("bench.matrix_json.emit_us", nanos as f64 / 1e3);
        let (parsed, nanos) = t.timed("bench.matrix_json.parse", 0, |_| matrix_json::parse(&text));
        rep.put("bench.matrix_json.parse_us", nanos as f64 / 1e3);
        if parsed.map(|c| c.len()) != Ok(results.len()) {
            return Err("matrix_json did not round-trip the workload's cells".to_string());
        }

        let ms: Vec<&Measurement> = driven.iter().map(|d| &d.measurement).collect();
        put_simulated(rep, &ms, paper);
        driven_layers(rep, &driven, &costs);
        Ok(())
    })?;
    finish_trace(&t, rep)?;
    let attempted = cells.len() as u64;
    Ok((
        correct,
        Tally {
            attempted,
            failed: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_loop_reproduces_run_cells_on_every_mode() {
        let plan = plan(Size::Tiny);
        let cells = matrix::cells(|n| n == "db");
        let mut t = Tracer::new();
        let (programs, _, _) = prepare(&mut t, &["db"], plan.size);
        let public = matrix::run_cells(&plan, 1, &cells);
        for (i, (cell, r)) in cells.iter().zip(&public).enumerate() {
            let d = drive_cell(&mut t, i as u64, cell, &programs[0], &plan);
            let diff = d.measurement.simulated_diff(&r.measurement);
            assert!(diff.is_empty(), "{}: {diff:?}", cell.options.mode);
            assert!(d.steady_retired >= d.measurement.retired);
            assert!(d.wall_nanos >= d.new_nanos + d.warmup_nanos + d.steady_nanos);
        }
        // Spans of one cell share its op id and nest under bench.cell.
        let spans = t.spans();
        let of_cell_3: Vec<_> = spans
            .iter()
            .filter(|s| s.op == 3 && s.name.starts_with("vm.") && s.name != "vm.predecode")
            .collect();
        assert_eq!(
            of_cell_3.len(),
            1 + 2 + 2 + 2,
            "new, 2 warm-ups, 2 resets, 2 measured"
        );
        assert!(of_cell_3
            .iter()
            .all(|s| spans[s.parent.unwrap()].name == "bench.cell"));
    }

    #[test]
    fn async_drive_compiles_and_then_runs_compiled_code() {
        let mut t = Tracer::new();
        let (programs, _, _) = prepare(&mut t, &["db", "Euler"], Size::Tiny);
        let mut compiled = 0;
        let micros = drive_compiles(
            &mut t,
            &programs,
            3,
            |p| p.vm_config(&PrefetchOptions::inter_intra()),
            |vm, calls| {
                assert_eq!(calls.len(), 3);
                compiled += vm.stats().methods_compiled;
            },
        );
        assert!(!micros.is_empty());
        assert_eq!(micros.len() as u64, compiled);
        let compile_spans = t
            .spans()
            .iter()
            .filter(|s| s.name == "core.compile")
            .count();
        assert!(compile_spans >= micros.len());
    }

    #[test]
    fn memsim_estimate_prices_each_event_once() {
        let s = MemStats {
            loads: 100,
            l1_load_misses: 30,
            l2_load_misses: 10,
            stores: 5,
            swpf_issued: 2,
            guarded_loads: 1,
            ..MemStats::default()
        };
        let c = MemsimCosts {
            hit_ns: 1.0,
            l1miss_ns: 10.0,
            l2miss_ns: 100.0,
            store_ns: 1000.0,
            swpf_ns: 10_000.0,
            guarded_ns: 100_000.0,
        };
        assert_eq!(
            memsim_estimate_nanos(&s, &c),
            70.0 + 200.0 + 1000.0 + 5000.0 + 20_000.0 + 100_000.0
        );
    }

    #[test]
    fn speedup_signs_are_compared_with_the_dead_band() {
        let paper = PaperReference::parse(
            r#"{"dead_band_percent": 0.5, "inter_intra_speedup_percent":
                {"db": {"Pentium 4": 18.9, "Athlon MP": -2.6}}}"#,
        )
        .unwrap();
        let m = |mode, proc: &str, cycles| Measurement {
            name: "db".into(),
            mode,
            processor: proc.into(),
            best_cycles: cycles,
            retired: 1,
            mem: MemStats::default(),
            compiled_fraction: 0.0,
            jit_fraction: 0.0,
            prefetch_pass_fraction: 0.0,
            prefetches_inserted: 0,
            stride_check: StrideCrossCheck::default(),
            deopts: 0,
            recompiles: 0,
            loop_deopts: 0,
            loop_repatches: 0,
            reagreed: 0,
            inspection_cycles: 0,
            static_sites: 0,
            checksum: 0,
        };
        let cells = [
            m(PrefetchMode::Off, "Pentium 4", 200),
            m(PrefetchMode::InterIntra, "Pentium 4", 100),
            m(PrefetchMode::Off, "Athlon MP", 1000),
            m(PrefetchMode::InterIntra, "Athlon MP", 998),
        ];
        let refs: Vec<&Measurement> = cells.iter().collect();
        let (g, agree, pairs) = speedups(&refs, &paper);
        // 2.0x agrees with +18.9; +0.2 % is inside the dead-band where the
        // paper says -2.6.
        assert_eq!((agree, pairs), (1, 2));
        assert!((g - (2.0f64 * 1000.0 / 998.0).sqrt()).abs() < 1e-12);
    }
}
