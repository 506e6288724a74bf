//! The virtual machine: direct-threaded interpreter with JIT hook, GC
//! glue, and cycle accounting.
//!
//! Function bodies are pre-decoded (the `decode` module) into flat arrays of
//! handler `fn`-pointers with packed operands, optionally peephole-fused
//! into superinstructions (the `fuse` module); the run loop is one indirect
//! call per op. A call resolves its target body with one index load
//! (`compiled[mid]`, else the interpreted original). All of this is
//! host-side machinery only: every simulated number — cycles,
//! memory latencies, retired counts, per-method attribution — is computed
//! by the same component sequences the old `match *instr` interpreter
//! ran, in the same order, and is bit-identical to it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use spf_adapt::{AdaptState, StaleLoop};
use spf_core::{MethodReport, OptimizeOutcome, PrefetchMode, StridePrefetcher};
use spf_heap::{Addr, Heap, Layout, Value, NULL};
use spf_ir::{ElemTy, Function, Instr, InstrRef, MethodId, PrefetchKind, Program, Reg};
use spf_memsim::{MemorySystem, ProcessorConfig};
use spf_trace::{NoopSink, SiteId, SiteInfo, SiteKind, SiteTable, TraceEvent, TraceSink};

use crate::config::{
    VmConfig, LOOP_PATCH_CYCLES, LOOP_RECOMPILE_BASE_CYCLES, MAX_STACK_DEPTH,
    RECOMPILE_BASE_CYCLES, RECOMPILE_CYCLES_PER_INSTR,
};
use crate::decode::{is_prefetch, ThreadedCode};
use crate::dispatch::{self, Ctx, HALT, SWITCH};
use crate::error::VmError;
use crate::passes;
use crate::predecode::Predecoded;
use crate::stats::{MethodCycles, PicStats, VmStats};
use crate::twin::{CellState, Shadow};

/// An installed, executable body: shared threaded code and whether it is
/// a JIT install. Lives in the [`Vm::codes`] arena and is named by index,
/// so frames copy a `u32` instead of counting references.
#[derive(Clone)]
pub(crate) struct Installed<S: TraceSink> {
    pub tcode: Arc<ThreadedCode<S>>,
    pub compiled: bool,
}

/// Index of a body in the [`Vm::codes`] arena.
pub(crate) type CodeId = u32;

/// An activation record: plain data naming the body it runs and the
/// window of [`Vm::stack`] that holds its registers.
#[derive(Clone, Copy)]
pub(crate) struct Frame {
    pub method: MethodId,
    pub code: CodeId,
    /// First slot of this frame's register window in [`Vm::stack`]; the
    /// window is as long as the body's `reg_count`.
    pub base: usize,
    pub pc: usize,
    pub ret_dst: Option<Reg>,
}

/// The mixed-mode virtual machine.
///
/// # Example
///
/// ```
/// use spf_ir::{ProgramBuilder, Ty};
/// use spf_memsim::ProcessorConfig;
/// use spf_vm::{Vm, VmConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let mut b = pb.function("main", &[Ty::I32], Some(Ty::I32));
/// let x = b.param(0);
/// let y = b.add(x, x);
/// b.ret(Some(y));
/// let main = b.finish();
/// let mut vm = Vm::new(pb.finish(), VmConfig::default(), ProcessorConfig::pentium4());
/// let out = vm.call(main, &[spf_heap::Value::I32(21)]).unwrap();
/// assert_eq!(out, Some(spf_heap::Value::I32(42)));
/// ```
///
/// A clone is an independent VM in the same state: the same calls on
/// both produce the same results, statistics and reports. Bodies are
/// shared, the heap copies only its allocated prefix.
#[derive(Clone)]
pub struct Vm<S: TraceSink = NoopSink> {
    pub(crate) program: Arc<Program>,
    pub(crate) config: VmConfig,
    pub(crate) heap: Heap,
    pub(crate) statics: Vec<Value>,
    pub(crate) mem: MemorySystem<S>,
    /// Every body this VM can run. Slots `0..method_count` are the
    /// interpreted originals, indexed by method and never freed; JIT
    /// installs append. A replaced or evicted body's slot is emptied as
    /// soon as no frame can name it (see [`Vm::retire`]).
    pub(crate) codes: Vec<Option<Installed<S>>>,
    /// The compiled body of each method, if one is installed.
    pub(crate) compiled: Vec<Option<CodeId>>,
    /// Bodies replaced or evicted while frames were live; emptied when
    /// the outermost [`Vm::call`] finishes.
    retired: Vec<CodeId>,
    pub(crate) invocations: Vec<u32>,
    pub(crate) stats: VmStats,
    sites: SiteTable,
    pub(crate) site_ids: HashMap<(MethodId, InstrRef), SiteId>,
    pub(crate) frames: Vec<Frame>,
    /// The one register stack: each frame owns the window
    /// `base..base + reg_count` (see [`Frame::base`]). Grown only by a
    /// call (the arguments, then [`Vm::activate`]), shrunk only by the
    /// return handler, and emptied when [`Vm::call`] finishes. A slot is
    /// an untagged word ([`Value::to_bits`]): the body a frame runs says
    /// what each of its slots holds, and a `Value` exists only where one
    /// enters or leaves the VM.
    pub(crate) stack: Vec<u64>,
    history: Vec<(MethodId, u32, Arc<Function>)>,
    /// Whether installed bodies are decoded with superinstruction fusion.
    pub(crate) fuse: bool,
    /// Async-compile mode: methods awaiting background compilation, with
    /// the arguments of the invocation that crossed the threshold (the
    /// inspector will run with them). Args may hold heap references, so
    /// [`Vm::gc`] treats them as roots. A `Vec` (not a map) so iteration
    /// order is insertion order — deterministic across runs.
    pending: Vec<(MethodId, Vec<Value>)>,
    /// Async-compile mode: requests enqueued since the last
    /// [`Vm::take_compile_requests`] drain.
    fresh_requests: Vec<MethodId>,
    /// Arguments of the invocation that triggered each method's last
    /// deopt, retained only under [`VmConfig::retain_deopt_args`] so a
    /// serving-layer recovery sweep can repatch stranded loops without
    /// waiting for their backoff. Like `pending`, entries may hold heap
    /// references: [`Vm::gc`] roots and forwards them. Insertion-ordered
    /// for determinism.
    deopt_args: Vec<(MethodId, Vec<Value>)>,
    /// Every cell this VM simulates: its own, cell 0, then its twins (see
    /// [`Vm::add_twin`]).
    pub(crate) cells: Vec<CellState>,
    /// The memory systems of the live twins' processors other than this
    /// VM's, one per processor; empty without such twins, which the run
    /// loop tests at every access.
    pub(crate) shadows: Vec<Shadow>,
}

/// The live body named `code`. Panics on a freed slot: only bodies no
/// frame can name are ever freed.
#[inline(always)]
pub(crate) fn body<S: TraceSink>(codes: &[Option<Installed<S>>], code: CodeId) -> &Installed<S> {
    codes[code as usize].as_ref().expect("live body")
}

impl<S: TraceSink> std::fmt::Debug for Vm<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("methods", &self.program.method_count())
            .field("cycles", &self.stats.cycles)
            .finish_non_exhaustive()
    }
}

impl Vm {
    /// Creates an untraced VM for `program` on the processor `proc`.
    pub fn new(program: Program, config: VmConfig, proc: ProcessorConfig) -> Self {
        Vm::with_sink(program, config, proc, NoopSink)
    }
}

impl<S: TraceSink> Vm<S> {
    /// Creates a VM for `program` on the processor `proc`, emitting trace
    /// events into `sink`. With [`NoopSink`] every emission site compiles
    /// out and this is exactly [`Vm::new`].
    pub fn with_sink(program: Program, config: VmConfig, proc: ProcessorConfig, sink: S) -> Self {
        Vm::from_predecoded(&Arc::new(Predecoded::new(program)), config, proc, sink)
    }

    /// Creates a VM from a shared pre-decoded program, skipping per-VM
    /// body cloning and decoding entirely (the benchmark matrix builds one
    /// [`Predecoded`] per workload and all cells from it). The
    /// `Predecoded`'s fusion setting applies to bodies this VM JIT-installs
    /// later.
    pub fn from_predecoded(
        pre: &Arc<Predecoded<S>>,
        config: VmConfig,
        proc: ProcessorConfig,
        sink: S,
    ) -> Self {
        let program = Arc::clone(pre.program_arc());
        let heap = Heap::new(pre.layout().clone(), config.heap_bytes);
        let statics = program
            .static_ids()
            .map(|sid| Value::zero_of(program.static_def(sid).ty.reg_ty()))
            .collect();
        let n = program.method_count();
        let stats = VmStats {
            per_method: vec![MethodCycles::default(); n],
            ..VmStats::default()
        };
        let own = CellState::new(config.prefetch.clone(), proc.clone(), config.adapt, n);
        let codes = pre
            .bodies()
            .iter()
            .map(|t| {
                Some(Installed {
                    tcode: Arc::clone(t),
                    compiled: false,
                })
            })
            .collect();
        Vm {
            program,
            heap,
            statics,
            mem: MemorySystem::with_sink(proc, sink),
            codes,
            compiled: vec![None; n],
            retired: Vec::new(),
            invocations: vec![0; n],
            stats,
            sites: SiteTable::new(),
            site_ids: HashMap::new(),
            frames: Vec::new(),
            stack: Vec::new(),
            history: Vec::new(),
            fuse: pre.fused(),
            pending: Vec::new(),
            fresh_requests: Vec::new(),
            deopt_args: Vec::new(),
            cells: vec![own],
            shadows: Vec::new(),
            config,
        }
    }

    /// The trace sink (read access, e.g. to drain collected events).
    pub fn sink(&self) -> &S {
        self.mem.sink()
    }

    /// The table of prefetch sites registered by JIT compilations so far.
    /// Empty while tracing is disabled.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Memory-system statistics so far.
    pub fn mem_stats(&self) -> &spf_memsim::MemStats {
        self.mem.stats()
    }

    /// The heap (read access, e.g. for assertions in tests).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Optimization reports of all JIT compilations performed.
    pub fn reports(&self) -> &[MethodReport] {
        &self.cells[0].reports
    }

    /// Installs a pre-optimized body for `mid`, bypassing the JIT trigger.
    pub fn install_compiled(&mut self, mid: MethodId, func: Function) {
        self.diverge_twins();
        self.install(mid, vec![(0, func, 0)]);
        self.record(mid, 0);
    }

    /// Records cell 0's body of `mid`, just installed at `generation`:
    /// registers its sites (traced VMs only) and appends it to the
    /// generation history.
    fn record(&mut self, mid: MethodId, generation: u32) {
        let func = self.cell_body(0, mid);
        if S::ENABLED {
            self.register_sites(mid, &func, generation);
        }
        self.history.push((mid, generation, func));
    }

    /// Frees a replaced or evicted body once no frame can name it: at
    /// once when nothing is executing, else when the outermost
    /// [`Vm::call`] finishes (an older frame of a recursion may still be
    /// running it).
    pub(crate) fn retire(&mut self, code: CodeId) {
        if self.frames.is_empty() {
            self.codes[code as usize] = None;
        } else {
            self.retired.push(code);
        }
    }

    /// The interpreted original of `mid` (arena slots `0..method_count`).
    fn original(&self, mid: MethodId) -> &Installed<S> {
        body(&self.codes, mid.index() as CodeId)
    }

    /// The owning loop of every block of `func`, indexed by block: the
    /// innermost enclosing loop's header, or [`spf_adapt::NO_LOOP`] — the
    /// key of the per-loop guards. The pipeline only inserts instructions,
    /// so all bodies of a method have the same owners. Host-side only.
    fn loop_owners(func: &Function) -> Vec<u32> {
        let cfg = spf_ir::cfg::Cfg::compute(func);
        let dom = spf_ir::dom::DomTree::compute(func, &cfg);
        let forest = spf_ir::loops::LoopForest::compute(func, &cfg, &dom);
        func.block_ids()
            .map(|b| {
                forest
                    .innermost(b)
                    .map_or(spf_adapt::NO_LOOP, |l| forest.info(l).header.index() as u32)
            })
            .collect()
    }

    /// Books the host time of one finished run of the prefetch pipeline
    /// started at `t0`: the only place it is read, and it stays in the
    /// `_nanos` fields.
    fn book_host(&mut self, t0: Instant, report: &MethodReport) {
        self.stats.jit_nanos += t0.elapsed().as_nanos();
        self.stats.prefetch_pass_nanos += report.pass_nanos;
    }

    /// The loop guards of this VM's own cell, cell 0, under a mode with
    /// adaptive guards.
    fn own_guards(&self) -> Option<&AdaptState> {
        self.cells[0].adapt.as_ref()
    }

    /// Cell 0's loop guard of `mid`, once it compiled `mid` with guards.
    fn own_guard(&self, mid: MethodId) -> Option<&spf_adapt::MethodGuard> {
        self.own_guards()?.guard(mid.index())
    }

    /// Runs cell `k`'s prefetch pipeline on `func` with the arguments
    /// `args`: over the whole body, or with `due` over those loops only
    /// (a repatch).
    pub(crate) fn pipeline(
        &mut self,
        k: usize,
        func: &Function,
        args: &[Value],
        due: Option<&[u32]>,
    ) -> OptimizeOutcome {
        let prefetcher = StridePrefetcher::new(self.cells[k].options.clone());
        let proc = self.cells[k].proc.clone();
        let (program, heap, statics) = (&self.program, &self.heap, &self.statics);
        // The processor is a clone, so the pipeline can borrow the memory
        // system's sink mutably.
        let sink = self.mem.sink_mut();
        let outcome = match due {
            None => prefetcher.optimize_traced(program, func, heap, statics, args, &proc, sink),
            Some(due) => {
                let due = due.iter().copied().collect();
                prefetcher.reoptimize_loops(program, func, heap, statics, args, &proc, &due, sink)
            }
        };
        // Debug builds lint the output: nothing may use a register before
        // assignment, leak a speculative value, or leave a dereference
        // prefetch unguarded where the processor requires a guarded load.
        // (Kept out of release builds, so measured numbers are untouched.)
        #[cfg(debug_assertions)]
        {
            let guard_derefs = proc.swpf_drops_on_tlb_miss;
            let findings =
                spf_analysis::lint(&outcome.func, &spf_analysis::LintConfig { guard_derefs });
            let name = func.name();
            assert!(
                findings.is_empty(),
                "JIT output for {name} fails the static lint: {findings:?}"
            );
        }
        outcome
    }

    /// Cell `k`'s bookkeeping of its compile of `mid` to `func`: registers
    /// the body with its guards, if any (each loop owning a prefetch site
    /// gets one), stamps the install generation on `report`, counts its
    /// inspection cost and keeps it. Returns the generation.
    pub(crate) fn book_compile(
        &mut self,
        k: usize,
        mid: MethodId,
        func: &Function,
        mut report: MethodReport,
    ) -> u32 {
        let epoch = self.heap.gc_epoch();
        report.generation = self.guards(k).map_or(0, |adapt| {
            let sites = func.instr_sites().filter(|&s| is_prefetch(func.instr(s)));
            let blocks = sites.map(|s| s.block.index() as u32);
            adapt.on_compile(mid.index(), epoch, Self::loop_owners(func), blocks)
        });
        self.count(k, |s| s.inspection_cycles += report.inspection_cycles());
        let generation = report.generation;
        self.cells[k].reports.push(report);
        generation
    }

    /// Every compiled body installed so far, as `(method, generation,
    /// body)` in installation order. Adaptive recompilations append one
    /// entry per generation, so external analyses (e.g. `spf-lint`) can
    /// check every compilation the VM ever ran, not just the bodies still
    /// installed.
    pub fn compiled_generations(&self) -> impl Iterator<Item = (MethodId, u32, &Function)> {
        self.history.iter().map(|(m, g, f)| (*m, *g, f.as_ref()))
    }

    /// Always zero: calls have no inline cache, since a call resolves
    /// with one index load. Pinned by `benchmark/src/matrix.rs:330` and
    /// `benchmark/src/serve.rs:354`, which read `.hits` / `.misses`.
    pub fn pic_stats(&self) -> PicStats {
        PicStats::default()
    }

    /// Total superinstructions across all currently installed bodies
    /// (host-side statistic, for tests and diagnostics).
    pub fn fused_op_count(&self) -> u64 {
        self.codes
            .iter()
            .flatten()
            .map(|i| u64::from(i.tcode.fused))
            .sum()
    }

    /// Registers every `Prefetch`/`SpecLoad` instruction of a freshly
    /// installed body so runtime events can be attributed back to the IR
    /// site and its loop. Only called when tracing is enabled.
    fn register_sites(&mut self, mid: MethodId, func: &Function, generation: u32) {
        let owners = Self::loop_owners(func);
        for site in func.instr_sites() {
            let kind = match func.instr(site) {
                Instr::Prefetch {
                    kind: PrefetchKind::Hardware,
                    ..
                } => SiteKind::Swpf,
                Instr::Prefetch {
                    kind: PrefetchKind::GuardedLoad,
                    ..
                } => SiteKind::Guarded,
                Instr::SpecLoad { .. } => SiteKind::SpecLoad,
                _ => continue,
            };
            let owner = owners[site.block.index()];
            let loop_header = (owner != spf_adapt::NO_LOOP).then_some(owner);
            let id = self.sites.register(SiteInfo {
                id: SiteId::UNKNOWN,
                method: func.name().to_string(),
                method_index: mid.index() as u32,
                block: site.block.index() as u32,
                index: site.index,
                loop_header,
                kind,
                generation,
            });
            self.site_ids.insert((mid, site), id);
            self.mem.sink_mut().emit(TraceEvent::SiteRegistered {
                site: id,
                method: mid.index() as u32,
                block: site.block.index() as u32,
                index: site.index,
                generation,
            });
        }
    }

    /// Whether `mid` has been JIT-compiled.
    pub fn is_compiled(&self, mid: MethodId) -> bool {
        self.compiled[mid.index()].is_some()
    }

    /// The installed compiled body of `mid`, if any (for external analyses
    /// such as the `spf-lint` tool): this VM's own, without the ops only
    /// its twins have.
    pub fn compiled_body(&self, mid: MethodId) -> Option<&Function> {
        self.compiled[mid.index()]?;
        self.cells[0].bodies[mid.index()].as_deref()
    }

    /// Clears the memory system and measurement counters (the twins' and
    /// their shadows' included; their loop guards, like this VM's, stay)
    /// while keeping compiled code, the heap, and statics — the
    /// "steady state" protocol: the paper reports best run times under
    /// continuous execution, where JIT compilation no longer occurs.
    pub fn reset_measurement(&mut self) {
        self.mem.reset();
        self.reset_twins();
        let n = self.program.method_count();
        self.stats = VmStats {
            per_method: vec![MethodCycles::default(); n],
            ..VmStats::default()
        };
    }

    /// Calls method `mid` with `args` and runs to completion.
    ///
    /// # Errors
    ///
    /// [`VmError`] on runtime faults.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the method's parameters in number
    /// and type: registers are untagged, so this boundary is where an
    /// argument's type is checked.
    pub fn call(&mut self, mid: MethodId, args: &[Value]) -> Result<Option<Value>, VmError> {
        assert!(self.frames.is_empty(), "vm is not reentrant");
        let entry = self.program.method(mid).func();
        assert_eq!(
            args.len(),
            entry.param_count(),
            "call to {} with {} args, expected {}",
            entry.name(),
            args.len(),
            entry.param_count()
        );
        for (i, (arg, param)) in args.iter().zip(entry.params()).enumerate() {
            assert_eq!(
                arg.ty(),
                entry.reg_ty(param),
                "call to {}: arg {i} type mismatch",
                entry.name()
            );
        }
        self.stack.extend(args.iter().map(|v| v.to_bits()));
        let result = self
            .call_into(mid, args.len(), None)
            .and_then(|()| self.run());
        // A fault leaves its frames and their windows behind; a normal
        // return has already popped them all.
        self.frames.clear();
        self.stack.clear();
        for code in self.retired.drain(..) {
            self.codes[code as usize] = None;
        }
        result
    }

    /// Invokes `mid` on the `argc` arguments its caller left on top of
    /// the register stack: depth check, invocation accounting, the
    /// per-loop maintenance of a compiled body's guarded cells, the JIT
    /// trigger, body resolution, frame push — in the old `push_frame`'s
    /// order.
    pub(crate) fn call_into(
        &mut self,
        mid: MethodId,
        argc: usize,
        ret_dst: Option<Reg>,
    ) -> Result<(), VmError> {
        if self.frames.len() >= MAX_STACK_DEPTH {
            return Err(VmError::StackOverflow);
        }
        self.invocations[mid.index()] += 1;
        self.stats.per_method[mid.index()].invocations += 1;
        if self.compiled[mid.index()].is_some() && self.guarded() {
            self.guard_loops(mid, argc);
        }
        if self.compiled[mid.index()].is_none()
            && self.invocations[mid.index()] >= self.config.compile_threshold
        {
            if self.config.async_compile {
                // Production-JVM style: request a background compile and
                // keep interpreting until the driver installs it.
                self.enqueue_compile(mid, argc);
            } else {
                self.jit_compile(mid, &self.top_args(mid, argc), false);
            }
        }
        // Uncompiled methods run their original: arena slot == method index.
        let code = self.compiled[mid.index()].unwrap_or(mid.index() as CodeId);
        self.activate(code, mid, argc, ret_dst);
        Ok(())
    }

    /// The pending call's arguments (the top `argc` stack slots), copied
    /// out as values — typed by `mid`'s parameters — for the cold paths
    /// that inspect or retain them.
    pub(crate) fn top_args(&self, mid: MethodId, argc: usize) -> Vec<Value> {
        let callee = self.program.method(mid).func();
        let words = &self.stack[self.stack.len() - argc..];
        (callee.params().zip(words))
            .map(|(p, &bits)| Value::from_bits(callee.reg_ty(p), bits))
            .collect()
    }

    /// Whether a cell this VM simulates may have loop guards: its own
    /// has, or it has twins (which only an untraced VM takes).
    #[inline(always)]
    pub(crate) fn guarded(&self) -> bool {
        (!S::ENABLED && self.cells.len() > 1) || self.cells[0].adapt.is_some()
    }

    /// The per-loop maintenance at a call of the compiled `mid`, in every
    /// guarded cell (see [`Vm::guards`]), on its own body: repatches the
    /// invalidated loops whose backoff is served (tier-2 re-entry), then
    /// patches the prefetch sites of newly stale loops to no-ops (tier-1
    /// invalidation). A repatch re-inspects with the call's `argc`
    /// arguments, on top of the stack; cell 0 retains a patch's.
    fn guard_loops(&mut self, mid: MethodId, argc: usize) {
        let epoch = self.heap.gc_epoch();
        let invocations = u64::from(self.invocations[mid.index()]);
        let mut args = None;
        for k in 0..self.cells.len() {
            let Some(adapt) = self.guards(k) else {
                continue;
            };
            let due = adapt.loops_due(mid.index(), invocations, epoch);
            if !due.is_empty() {
                let args = args.get_or_insert_with(|| self.top_args(mid, argc));
                self.repatch_loops(k, mid, args, &due, false);
            }
            // A repatch whose body has no union with the others' ends a twin.
            let Some(adapt) = self.guards(k) else {
                continue;
            };
            let stale = adapt.check_stale(mid.index(), epoch);
            if S::ENABLED {
                // `check_stale` may re-arm a guard without a verdict; a
                // traced VM has no twins, so this is cell 0.
                let (rearmed, now) = (adapt.take_rearmed(), self.stats.cycles);
                for (method, generation) in rearmed {
                    self.mem.sink_mut().emit(TraceEvent::GuardRearmed {
                        tenant: u32::MAX,
                        method,
                        generation,
                        now,
                    });
                }
            }
            if !stale.is_empty() {
                let args = args.get_or_insert_with(|| self.top_args(mid, argc));
                self.patch_loops(k, mid, args, &stale);
            }
        }
    }

    /// Tier-1 invalidation in cell `k`: strips the `Prefetch`/`SpecLoad`
    /// ops of the `stale` loops from its body of `mid` and installs the
    /// body. The other loops' sites keep running; the stale loops run
    /// plain compiled code until their repatch is due. Cell 0 alone emits
    /// the trace events and keeps the call's `args` under
    /// [`VmConfig::retain_deopt_args`] — so the serving recovery sweep can
    /// repatch the stranded loops without waiting for the backoff — until
    /// no loop of the method is stranded.
    fn patch_loops(&mut self, k: usize, mid: MethodId, args: &[Value], stale: &[StaleLoop]) {
        let headers: Vec<u32> = stale.iter().map(|s| s.header).collect();
        let func = Self::strip_loops(&self.cell_body(k, mid), &headers);
        let invocations = u64::from(self.invocations[mid.index()]);
        let epoch = self.heap.gc_epoch();
        let adapt = self.guards(k).expect("staleness requires guards");
        let generation = adapt.on_patch(mid.index(), &headers, invocations, epoch);
        let loops = stale.len() as u64;
        self.count(k, |s| s.loop_deopts += loops);
        // A patch is a deterministic code edit, far cheaper than any
        // recompile; charged per stale loop.
        self.install(mid, vec![(k, func, LOOP_PATCH_CYCLES * loops)]);
        if k > 0 {
            return;
        }
        let (method, now) = (mid.index() as u32, self.stats.cycles);
        for s in stale.iter().filter(|_| S::ENABLED) {
            self.mem.sink_mut().emit(TraceEvent::LoopInvalidated {
                method,
                loop_header: s.header,
                generation: s.generation,
                reason: s.reason,
                now,
            });
        }
        // Retaining values extends their GC liveness, so this is strictly
        // opt-in (chaos/serving runs only).
        if self.config.retain_deopt_args {
            match self.deopt_args.iter_mut().find(|(m, _)| *m == mid) {
                Some(entry) => entry.1 = args.to_vec(),
                None => self.deopt_args.push((mid, args.to_vec())),
            }
        }
        self.record(mid, generation);
    }

    /// Tier-2 re-entry in cell `k`: re-runs its pipeline over the `due`
    /// loops of its body of `mid` only, re-inspecting the live heap with
    /// `args`, and installs the body, at a per-loop cost far below a full
    /// recompile — none if a compilation-queue worker made it. Cell 0
    /// alone emits the trace events and drops the retained arguments of a
    /// method with no stranded loop left.
    fn repatch_loops(
        &mut self,
        k: usize,
        mid: MethodId,
        args: &[Value],
        due: &[u32],
        background: bool,
    ) {
        let t0 = Instant::now();
        let src = self.cell_body(k, mid);
        let mut outcome = self.pipeline(k, &src, args, Some(due));
        self.book_host(t0, &outcome.report);
        let epoch = self.heap.gc_epoch();
        let adapt = self.guards(k).expect("a repatch requires guards");
        let loops: Vec<_> = due
            .iter()
            .map(|&h| (h, adapt.on_repatch(mid.index(), h, epoch)))
            .collect();
        let generation = adapt.on_repatch_install(mid.index());
        outcome.report.generation = generation;
        let report = &outcome.report;
        self.count(k, |s| {
            s.inspection_cycles += report.inspection_cycles();
            s.loop_repatches += due.len() as u64;
            // Re-inspection re-agreed on prefetchable strides.
            s.reagreed += u64::from(report.total_prefetches > 0);
        });
        // A compilation-queue worker accounts for it on its own clock.
        let cycles = u64::from(!background) * Self::repatch_cycles(&src, due);
        self.install(mid, vec![(k, outcome.func, cycles)]);
        // A body with no union with the other cells' ends a twin.
        if !self.cells[k].live {
            return;
        }
        self.cells[k].reports.push(outcome.report);
        if k > 0 {
            return;
        }
        let (method, now) = (mid.index() as u32, self.stats.cycles);
        for &(loop_header, generation) in loops.iter().filter(|_| S::ENABLED) {
            self.mem.sink_mut().emit(TraceEvent::LoopRepatched {
                method,
                loop_header,
                generation,
                now,
            });
        }
        if (self.own_guard(mid)).is_none_or(|g| g.stale_loops().is_empty()) {
            self.deopt_args.retain(|(m, _)| *m != mid);
        }
        self.record(mid, generation);
    }

    /// `src` with the prefetch ops of the loops headed by `headers`
    /// stripped: a tier-1 patch.
    fn strip_loops(src: &Function, headers: &[u32]) -> Function {
        let owners = Self::loop_owners(src);
        let mut func = src.clone();
        for b in func.block_ids() {
            if headers.contains(&owners[b.index()]) {
                func.block_mut(b).instrs.retain(|i| !is_prefetch(i));
            }
        }
        func
    }

    /// The deterministic cost of repatching the `due` loops of `src`: per
    /// due loop, a base charge plus the per-instruction rate over that
    /// loop's own blocks — always far below RECOMPILE_BASE_CYCLES +
    /// per-instr over the whole body, which is the point of per-loop
    /// re-entry.
    fn repatch_cycles(src: &Function, due: &[u32]) -> u64 {
        let owners = Self::loop_owners(src);
        let mut loop_instrs: HashMap<u32, u64> = HashMap::new();
        for b in src.block_ids() {
            let owner = owners[b.index()];
            if due.contains(&owner) {
                *loop_instrs.entry(owner).or_default() += src.block(b).instrs.len() as u64;
            }
        }
        due.iter()
            .map(|h| {
                LOOP_RECOMPILE_BASE_CYCLES
                    + RECOMPILE_CYCLES_PER_INSTR * loop_instrs.get(h).copied().unwrap_or(0)
            })
            .sum()
    }

    /// Pushes a frame executing `code`: its window starts at the `argc`
    /// arguments already on top of the stack and is completed with zero
    /// words, the zero value of every type.
    fn activate(&mut self, code: CodeId, mid: MethodId, argc: usize, ret_dst: Option<Reg>) {
        let tcode = &body(&self.codes, code).tcode;
        let base = self.stack.len() - argc;
        self.stack.resize(base + tcode.reg_count, 0);
        self.frames.push(Frame {
            method: mid,
            code,
            base,
            pc: tcode.entry_pc as usize,
            ret_dst,
        });
    }

    /// Records a background-compile request for `mid` (at most one
    /// outstanding per method), remembering the triggering invocation's
    /// arguments for the eventual inspection.
    fn enqueue_compile(&mut self, mid: MethodId, argc: usize) {
        if self.pending.iter().any(|(m, _)| *m == mid) {
            return;
        }
        self.pending.push((mid, self.top_args(mid, argc)));
        self.fresh_requests.push(mid);
    }

    /// Drains the compile requests enqueued since the last drain, in
    /// request order. Only ever non-empty with
    /// [`VmConfig::async_compile`] set.
    pub fn take_compile_requests(&mut self) -> Vec<MethodId> {
        std::mem::take(&mut self.fresh_requests)
    }

    /// Number of methods awaiting background compilation.
    pub fn pending_compile_count(&self) -> usize {
        self.pending.len()
    }

    /// Forces a GC-epoch advance without moving any object: models an
    /// external compaction decision (e.g. a fleet-wide GC storm injected
    /// by the chaos harness). Every epoch-stamped guard becomes stale on
    /// its next staleness check, exactly as a real sliding compaction
    /// would make it.
    pub fn inject_heap_move(&mut self) {
        self.heap.force_move_epoch();
    }

    /// Re-enqueues background compiles for every method with stranded
    /// loops (invalidated and never repatched) whose invalidation-time
    /// arguments were retained under [`VmConfig::retain_deopt_args`].
    /// This *is* the serving layer's recovery path, so it deliberately
    /// bypasses the per-loop backoff — the stranded set must drain even
    /// when invocation counts never serve the backoff. Requests surface
    /// through the normal [`Vm::take_compile_requests`] drain (the
    /// eventual [`Vm::compile_pending`] repatches the stale loops of a
    /// still-compiled method, or full-compiles an evicted one); returns
    /// the methods enqueued (ascending, deterministic).
    pub fn reenqueue_stranded(&mut self) -> Vec<MethodId> {
        let mut out = Vec::new();
        let stranded = self.own_guards().map(AdaptState::stranded_methods);
        for idx in stranded.unwrap_or_default() {
            let mid = MethodId::new(idx);
            if self.pending.iter().any(|(m, _)| *m == mid) {
                continue;
            }
            let Some((_, args)) = self.deopt_args.iter().find(|(m, _)| *m == mid) else {
                continue;
            };
            self.pending.push((mid, args.clone()));
            self.fresh_requests.push(mid);
            out.push(mid);
        }
        out
    }

    /// Number of loops currently stranded: invalidated by a stale guard
    /// (their prefetch sites patched out) and not repatched since.
    pub fn stranded_count(&self) -> u64 {
        self.own_guards().map_or(0, AdaptState::stranded)
    }

    /// Drains `(method, generation)` guard re-arms since the last drain
    /// (see [`spf_adapt::AdaptState::take_rearmed`]). Traced VMs emit
    /// these as [`TraceEvent::GuardRearmed`] instead; this accessor is
    /// for untraced serving tenants that report re-arms at epoch
    /// barriers.
    pub fn take_rearmed(&mut self) -> Vec<(u32, u32)> {
        self.guards(0).map_or(Vec::new(), AdaptState::take_rearmed)
    }

    /// Deterministic cycle cost of compiling `mid` on a background
    /// compiler worker, derived from the *original* body's size plus an
    /// inspection estimate — known before the compile runs, so a
    /// compilation queue can schedule the job's completion time up front.
    pub fn compile_cost_estimate(&self, mid: MethodId) -> u64 {
        let src = Arc::clone(&self.original(mid).tcode.src);
        let instrs = src.instr_sites().count() as u64;
        RECOMPILE_BASE_CYCLES
            + RECOMPILE_CYCLES_PER_INSTR * instrs
            + self.inspection_cost_estimate(&src)
    }

    /// Deterministic estimate of the object-inspection share of compiling
    /// `func`: per loop, interpreting the body for the paper's 20
    /// iterations costs roughly one step plus one recorded sample per
    /// candidate load per iteration. OFF inspects nothing.
    fn inspection_cost_estimate(&self, func: &Function) -> u64 {
        use spf_ir::{cfg::Cfg, defuse::UseDef, dom::DomTree, loops::LoopForest};
        if self.config.prefetch.mode == PrefetchMode::Off {
            return 0;
        }
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let ud = UseDef::compute(func, &cfg);
        let per_candidate = u64::from(spf_core::INSPECT_ITERATIONS)
            * (spf_core::INSPECT_CYCLES_PER_STEP + spf_core::INSPECT_CYCLES_PER_SAMPLE);
        forest
            .postorder()
            .into_iter()
            .map(|target| {
                per_candidate * spf_core::Ldg::build(func, &ud, &forest, target).len() as u64
            })
            .sum()
    }

    /// Runs the pending background compilation of `mid` and installs the
    /// result, charging *nothing* to this VM's simulated clock (the
    /// compilation queue accounts for compile latency on its own clock).
    /// Returns the installed body's instruction count (the code-cache
    /// footprint), or `None` when no request is pending or the method got
    /// compiled some other way in the meantime.
    pub fn compile_pending(&mut self, mid: MethodId) -> Option<u64> {
        let idx = self.pending.iter().position(|(m, _)| *m == mid)?;
        let (_, args) = self.pending.remove(idx);
        if self.compiled[mid.index()].is_some() {
            // Compiled but possibly carrying stranded (invalidated, never
            // repatched) loops: the background job repatches them all,
            // waiving the invocation backoff — this is an explicit
            // recovery decision by the serving layer, not the adaptive
            // policy firing early.
            let stale = self.own_guard(mid).map_or(Vec::new(), |g| g.stale_loops());
            if stale.is_empty() {
                return None;
            }
            self.repatch_loops(0, mid, &args, &stale, true);
            return self
                .compiled_body(mid)
                .map(|f| f.instr_sites().count() as u64);
        }
        Some(self.jit_compile(mid, &args, true))
    }

    /// Evicts `mid`'s compiled body (shared code cache capacity decision):
    /// the method falls back to the interpreted original and will re-cross
    /// the compile threshold naturally, re-enqueueing a compile request.
    /// Returns the evicted body's instruction count, or `None` if nothing
    /// was installed. In adaptive mode the guard earns an eviction credit
    /// so the forced recompile does not burn the staleness budget.
    pub fn evict_compiled(&mut self, mid: MethodId) -> Option<u64> {
        let instrs = self.compiled_body(mid)?.instr_sites().count() as u64;
        let code = self.compiled[mid.index()].take()?;
        self.diverge_twins();
        self.retire(code);
        self.stats.code_evictions += 1;
        if let Some(adapt) = self.guards(0) {
            adapt.on_evicted(mid.index());
        }
        Some(instrs)
    }

    /// JIT-compiles `mid`: baseline passes, then every live cell's
    /// stride-prefetching pass, cell 0's first, with the actual `args` of
    /// the pending invocation, installed on the one road ([`Vm::install`]).
    /// In `background` mode (the serving layer's compiler workers) no
    /// cycles are charged to this VM's simulated clock. Returns cell 0's
    /// compiled body's instruction count.
    fn jit_compile(&mut self, mid: MethodId, args: &[Value], background: bool) -> u64 {
        let t0 = Instant::now();
        if S::ENABLED {
            self.mem.sink_mut().emit(TraceEvent::JitBegin {
                method: mid.index() as u32,
            });
        }
        let original = Arc::clone(&self.original(mid).tcode.src);
        let base = passes::optimize(&self.program, &original);
        let (mut new, mut reports) = (Vec::new(), Vec::new());
        for k in 0..self.cells.len() {
            if !self.cells[k].live {
                continue;
            }
            let outcome = self.pipeline(k, &base, args, None);
            if k == 0 {
                self.book_host(t0, &outcome.report);
            }
            // One size-proportional cost model for every generation: the
            // simulated clock never depends on host wall-clock time.
            let instrs = outcome.func.instr_sites().count() as u64;
            let cycles = RECOMPILE_BASE_CYCLES + RECOMPILE_CYCLES_PER_INSTR * instrs;
            new.push((k, outcome.func, u64::from(!background) * cycles));
            reports.push((k, outcome.report));
        }
        // Re-inspection re-agreed on prefetchable strides.
        let reagreed = reports[0].1.total_prefetches > 0;
        self.install(mid, new);
        // No GC can run inside `jit_compile`, so the GC epoch the guards
        // stamp is the one inspection saw.
        let mut generation = 0;
        for (k, report) in reports {
            if self.cells[k].live {
                let booked = self.book_compile(k, mid, &self.cell_body(k, mid), report);
                if k == 0 {
                    generation = booked;
                }
            }
        }
        self.stats.methods_compiled += 1;
        if generation > 0 {
            self.stats.recompiles += 1;
            self.stats.reagreed += u64::from(reagreed);
            if S::ENABLED {
                self.mem.sink_mut().emit(TraceEvent::Recompile {
                    method: mid.index() as u32,
                    generation,
                    now: self.stats.cycles,
                });
            }
        }
        self.record(mid, generation);
        // A successful compile ends the method's stranding; the retained
        // deopt arguments are no longer needed (and must stop extending
        // GC liveness).
        self.deopt_args.retain(|(m, _)| *m != mid);
        self.cell_body(0, mid).instr_sites().count() as u64
    }

    /// Collects. Only [`Vm::alloc_object`] / [`Vm::alloc_array`] get here,
    /// from `h_new` / `h_newarray`, so every stack slot belongs to a
    /// frame's window when a collection runs: between `h_call` pushing the
    /// arguments and [`Vm::activate`] pushing the frame that owns them
    /// nothing allocates (the JIT and the patch / repatch paths borrow the
    /// heap immutably).
    fn gc(&mut self) {
        let mut roots: Vec<Addr> = Vec::new();
        let heap = &self.heap;
        let root = |roots: &mut Vec<Addr>, a: Addr| {
            if a != NULL && heap.contains(a) {
                roots.push(a);
            }
        };
        // A slot does not say whether it holds a reference, so each
        // frame's window is scanned — and, below, forwarded — through the
        // `ref_regs` of the body that frame runs (a recursion can have
        // frames of one method on different bodies).
        let ref_slots: Vec<usize> = (self.frames.iter())
            .flat_map(|f| {
                let regs = body(&self.codes, f.code).tcode.ref_regs.iter();
                regs.map(move |&i| f.base + i as usize)
            })
            .collect();
        for &slot in &ref_slots {
            root(&mut roots, self.stack[slot]);
        }
        let slot_roots = roots.len();
        // Arguments held for pending background compiles stay live until
        // the compile runs (the inspector dereferences them). Retained
        // deopt arguments (recovery-sweep inputs) likewise stay live until
        // the method is recompiled; empty unless `retain_deopt_args` is
        // set, so legacy GC liveness is untouched.
        let held = self.pending.iter().chain(&self.deopt_args);
        for v in (self.statics.iter()).chain(held.flat_map(|(_, args)| args)) {
            if let Value::Ref(a) = *v {
                root(&mut roots, a);
            }
        }
        // The registers only ghost ops write are roots of the twins whose
        // code has them, so they are checked and forwarded, not rooted.
        let mut ghost_slots = Vec::new();
        if !S::ENABLED && !self.shadows.is_empty() {
            self.check_twin_roots(&ref_slots, &roots[slot_roots..]);
            ghost_slots.extend(self.frames.iter().flat_map(|f| {
                let regs = body(&self.codes, f.code).tcode.ghost_regs.iter();
                regs.map(move |&i| f.base + i as usize)
            }));
        }
        let (cstats, fwd) = self.heap.collect(&roots);
        if S::ENABLED {
            self.mem.sink_mut().emit(TraceEvent::GcSlide {
                now: self.stats.cycles,
                live_bytes: cstats.live_bytes,
                freed_bytes: cstats.freed_bytes,
                moved_objects: cstats.moved_objects,
            });
        }
        for slot in ref_slots.into_iter().chain(ghost_slots) {
            self.stack[slot] = fwd.forward(self.stack[slot]);
        }
        let held = self.pending.iter_mut().chain(&mut self.deopt_args);
        for v in (self.statics.iter_mut()).chain(held.flat_map(|(_, args)| args)) {
            if let Value::Ref(a) = v {
                *a = fwd.forward(*a);
            }
        }
        let cost = 200 + cstats.live_bytes / 4 + cstats.freed_bytes / 16;
        self.stats.cycles += cost;
        self.stats.gc_cycles += cost;
        self.stats.gc_count += 1;
    }

    pub(crate) fn alloc_object(&mut self, class: spf_ir::ClassId) -> Result<Addr, VmError> {
        if let Some(a) = self.heap.alloc_object(class) {
            return Ok(a);
        }
        self.gc();
        self.heap.alloc_object(class).ok_or(VmError::OutOfMemory {
            requested: self.heap.layout_tables().class_size(class),
        })
    }

    pub(crate) fn alloc_array(&mut self, elem: ElemTy, len: u64) -> Result<Addr, VmError> {
        if let Some(a) = self.heap.alloc_array(elem, len) {
            return Ok(a);
        }
        self.gc();
        self.heap
            .alloc_array(elem, len)
            .ok_or(VmError::OutOfMemory {
                requested: Layout::array_size(elem, len),
            })
    }

    /// The threaded code of the top frame's body.
    fn top_tcode(&self) -> *const ThreadedCode<S> {
        Arc::as_ptr(&body(&self.codes, self.frames.last().expect("frame").code).tcode)
    }

    /// The dispatch loop: fetch the op at `pc`, indirect-call the handler
    /// with the pc after it, continue at the pc it returns. Counters live
    /// in the [`Ctx`] (register-resident, flushed to [`VmStats`] at frame
    /// switches and on halt, exactly as the old loop's locals were), which
    /// also points at the top frame's register window.
    fn run(&mut self) -> Result<Option<Value>, VmError> {
        let mut ctx = Ctx {
            pc: 0,
            cycles: self.stats.cycles,
            frame_start: self.stats.cycles,
            term_retired: 0,
            seg_retired: 0,
            interp_retired: 0,
            comp_retired: 0,
            cur_cost: 0,
            cur_compiled: false,
            cur_mid: MethodId::new(0),
            regs: std::ptr::null_mut(),
            nregs: 0,
            halt: None,
        };
        dispatch::reload_ctx(self, &mut ctx);
        loop {
            // The threaded code is accessed through a raw pointer instead
            // of cloning the `Arc` on every frame switch (two atomic RMWs
            // per call/return otherwise). SAFETY: the pointer is only
            // dereferenced while the frame it was fetched from is the top
            // frame, and the arena keeps that frame's body until the
            // outermost call finishes (`retire`; an install may reallocate
            // the arena, but never moves the Arc'd `ThreadedCode`); every
            // handler that pushes or pops a frame returns `SWITCH`, which
            // leaves the inner loop and re-fetches the pointer before the
            // next dereference. `ThreadedCode` is immutable once built.
            let tcode = unsafe { &*self.top_tcode() };
            let mut pc = ctx.pc;
            while pc < SWITCH {
                // SAFETY: `pc` is always in range. It is the frame's entry
                // or resume point (`ctx.pc`: a block entry, or the op after
                // a call), or what the last handler returned: its argument
                // `pc + 1` — and decode guarantees every block ends in a
                // terminator, whose handler never falls through, so that
                // never walks past the last op — or a patched (valid)
                // block entry, or a sentinel, which the loop condition has
                // just excluded (`decode::check_len`: no op is numbered
                // that high).
                debug_assert!(pc < tcode.ops.len());
                let op = unsafe { tcode.ops.get_unchecked(pc) };
                pc = (op.handler)(self, &mut ctx, op, tcode, pc + 1);
            }
            if pc == HALT {
                self.stats.cycles = ctx.cycles;
                // `halt`/`flush_frame_acc` has folded the last segment, so
                // the split counters are complete and the total is their
                // sum plus terminators.
                self.stats.retired_instructions +=
                    ctx.interp_retired + ctx.comp_retired + ctx.term_retired;
                self.stats.interpreted_instructions += ctx.interp_retired;
                self.stats.compiled_instructions += ctx.comp_retired;
                return ctx.halt.take().expect("halt result");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::{ProgramBuilder, Ty};

    fn vm_for(pb: ProgramBuilder) -> Vm {
        Vm::new(
            pb.finish(),
            VmConfig::default(),
            ProcessorConfig::pentium4(),
        )
    }

    #[test]
    fn arithmetic_and_calls() {
        let mut pb = ProgramBuilder::new();
        let sq = {
            let mut b = pb.function("sq", &[Ty::I32], Some(Ty::I32));
            let x = b.param(0);
            let y = b.mul(x, x);
            b.ret(Some(y));
            b.finish()
        };
        let mut b = pb.function("main", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let s = b.call(sq, &[x]);
        let one = b.const_i32(1);
        let out = b.add(s, one);
        b.ret(Some(out));
        let main = b.finish();
        let mut vm = vm_for(pb);
        assert_eq!(
            vm.call(main, &[Value::I32(6)]).unwrap(),
            Some(Value::I32(37))
        );
        assert!(vm.stats().retired_instructions > 0);
        assert!(vm.stats().cycles > 0);
    }

    #[test]
    fn heap_objects_and_arrays() {
        let mut pb = ProgramBuilder::new();
        let (cls, fs) = pb.add_class("P", &[("x", ElemTy::I32), ("next", ElemTy::Ref)]);
        let mut b = pb.function("main", &[], Some(Ty::I32));
        let p1 = b.new_object(cls);
        let p2 = b.new_object(cls);
        let seven = b.const_i32(7);
        b.putfield(p2, fs[0], seven);
        b.putfield(p1, fs[1], p2);
        let q = b.getfield(p1, fs[1]);
        let v = b.getfield(q, fs[0]);
        let n = b.const_i32(3);
        let arr = b.new_array(ElemTy::I32, n);
        let zero = b.const_i32(0);
        b.astore(arr, zero, v, ElemTy::I32);
        let got = b.aload(arr, zero, ElemTy::I32);
        let len = b.arraylen(arr);
        let out = b.add(got, len);
        b.ret(Some(out));
        let main = b.finish();
        let mut vm = vm_for(pb);
        assert_eq!(vm.call(main, &[]).unwrap(), Some(Value::I32(10)));
    }

    #[test]
    fn null_pointer_and_bounds_errors() {
        let mut pb = ProgramBuilder::new();
        let (_cls, fs) = pb.add_class("P", &[("x", ElemTy::I32)]);
        let mut b = pb.function("npe", &[], Some(Ty::I32));
        let nl = b.null();
        let v = b.getfield(nl, fs[0]);
        b.ret(Some(v));
        let npe = b.finish();
        let mut b = pb.function("oob", &[], Some(Ty::I32));
        let n = b.const_i32(2);
        let arr = b.new_array(ElemTy::I32, n);
        let five = b.const_i32(5);
        let v = b.aload(arr, five, ElemTy::I32);
        b.ret(Some(v));
        let oob = b.finish();
        let mut vm = vm_for(pb);
        assert!(matches!(
            vm.call(npe, &[]),
            Err(VmError::NullPointer { .. })
        ));
        assert!(matches!(
            vm.call(oob, &[]),
            Err(VmError::IndexOutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn division_by_zero() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("d", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let zero = b.const_i32(0);
        let q = b.div(x, zero);
        b.ret(Some(q));
        let d = b.finish();
        let mut vm = vm_for(pb);
        assert!(matches!(
            vm.call(d, &[Value::I32(1)]),
            Err(VmError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn methods_compile_at_threshold() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("hot", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        b.ret(Some(x));
        let hot = b.finish();
        let mut vm = vm_for(pb);
        assert!(!vm.is_compiled(hot));
        vm.call(hot, &[Value::I32(1)]).unwrap();
        assert!(!vm.is_compiled(hot), "first call is interpreted");
        vm.call(hot, &[Value::I32(1)]).unwrap();
        assert!(vm.is_compiled(hot), "threshold 2 compiles on second call");
        assert_eq!(vm.stats().methods_compiled, 1);
        assert!(vm.stats().jit_nanos > 0);
    }

    #[test]
    fn async_compile_defers_until_driver_installs() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("hot", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let y = b.add(x, x);
        b.ret(Some(y));
        let hot = b.finish();
        let mut vm = Vm::new(
            pb.finish(),
            VmConfig {
                async_compile: true,
                ..VmConfig::default()
            },
            ProcessorConfig::pentium4(),
        );
        vm.call(hot, &[Value::I32(1)]).unwrap();
        vm.call(hot, &[Value::I32(1)]).unwrap();
        assert!(
            !vm.is_compiled(hot),
            "crossing the threshold only enqueues a request"
        );
        assert_eq!(vm.take_compile_requests(), vec![hot]);
        vm.call(hot, &[Value::I32(1)]).unwrap();
        assert!(
            vm.take_compile_requests().is_empty(),
            "at most one outstanding request per method"
        );
        assert_eq!(vm.pending_compile_count(), 1);
        assert!(vm.compile_cost_estimate(hot) >= RECOMPILE_BASE_CYCLES);

        let cycles_before = vm.stats().cycles;
        let instrs = vm.compile_pending(hot).expect("pending request");
        assert!(instrs > 0);
        assert!(vm.is_compiled(hot));
        assert_eq!(vm.pending_compile_count(), 0);
        assert_eq!(
            vm.stats().cycles,
            cycles_before,
            "background compiles charge nothing to the tenant clock"
        );
        assert_eq!(vm.stats().jit_cycles, 0);
        assert_eq!(
            vm.call(hot, &[Value::I32(21)]).unwrap(),
            Some(Value::I32(42)),
            "compiled body runs after install"
        );
        assert!(vm.compile_pending(hot).is_none(), "nothing left to compile");
    }

    #[test]
    fn eviction_forces_reenqueue() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("hot", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        b.ret(Some(x));
        let hot = b.finish();
        let mut vm = Vm::new(
            pb.finish(),
            VmConfig {
                async_compile: true,
                ..VmConfig::default()
            },
            ProcessorConfig::pentium4(),
        );
        vm.call(hot, &[Value::I32(1)]).unwrap();
        vm.call(hot, &[Value::I32(1)]).unwrap();
        assert_eq!(vm.take_compile_requests(), vec![hot]);
        vm.compile_pending(hot).unwrap();
        assert!(vm.is_compiled(hot));
        assert!(vm.evict_compiled(hot).is_some());
        assert!(!vm.is_compiled(hot));
        assert_eq!(vm.stats().code_evictions, 1);
        assert!(vm.evict_compiled(hot).is_none(), "already evicted");
        // The next over-threshold invocation re-requests compilation and
        // runs interpreted meanwhile.
        vm.call(hot, &[Value::I32(5)]).unwrap();
        assert_eq!(vm.take_compile_requests(), vec![hot]);
        assert!(!vm.is_compiled(hot));
    }

    #[test]
    fn sync_mode_never_enqueues() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("hot", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        b.ret(Some(x));
        let hot = b.finish();
        let mut vm = vm_for(pb);
        vm.call(hot, &[Value::I32(1)]).unwrap();
        vm.call(hot, &[Value::I32(1)]).unwrap();
        assert!(vm.is_compiled(hot));
        assert!(vm.take_compile_requests().is_empty());
        assert_eq!(vm.pending_compile_count(), 0);
    }

    #[test]
    fn interpreted_code_costs_more() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("work", &[Ty::I32], Some(Ty::I32));
        let n = b.param(0);
        let acc = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(acc, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                let s = b.add(acc, i);
                b.move_(acc, s);
            },
        );
        b.ret(Some(acc));
        let work = b.finish();
        let mut vm = vm_for(pb);
        vm.call(work, &[Value::I32(1000)]).unwrap();
        let interp_cycles = vm.stats().per_method[work.index()].interpreted;
        vm.reset_measurement();
        vm.call(work, &[Value::I32(1000)]).unwrap(); // compiled now
        let compiled_cycles = vm.stats().per_method[work.index()].compiled;
        assert!(vm.is_compiled(work));
        assert!(
            interp_cycles > compiled_cycles * 3,
            "interp {interp_cycles} vs compiled {compiled_cycles}"
        );
    }

    #[test]
    fn gc_triggers_and_preserves_live_data() {
        let mut pb = ProgramBuilder::new();
        let (cls, fs) = pb.add_class("Cell", &[("v", ElemTy::I32)]);
        // Allocates `n` cells, keeps only one, returns its value.
        let mut b = pb.function("churn", &[Ty::I32], Some(Ty::I32));
        let n = b.param(0);
        let keep = b.new_object(cls);
        let answer = b.const_i32(99);
        b.putfield(keep, fs[0], answer);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                let tmp = b.new_object(cls);
                let one = b.const_i32(1);
                b.putfield(tmp, fs[0], one);
            },
        );
        let v = b.getfield(keep, fs[0]);
        b.ret(Some(v));
        let churn = b.finish();
        let mut vm = Vm::new(
            pb.finish(),
            VmConfig {
                heap_bytes: 64 << 10, // tiny heap: forces GC
                ..VmConfig::default()
            },
            ProcessorConfig::pentium4(),
        );
        let out = vm.call(churn, &[Value::I32(10_000)]).unwrap();
        assert_eq!(out, Some(Value::I32(99)));
        assert!(vm.stats().gc_count > 0, "GC must have run");
    }

    #[test]
    fn stack_overflow_is_reported() {
        let mut pb = ProgramBuilder::new();
        let inf = pb.declare("inf", &[Ty::I32], Some(Ty::I32));
        {
            let mut b = pb.define(inf);
            let n = b.param(0);
            let r = b.call(inf, &[n]); // unconditional recursion
            b.ret(Some(r));
            b.finish();
        }
        let mut vm = Vm::new(
            pb.finish(),
            VmConfig::default(),
            ProcessorConfig::pentium4(),
        );
        assert!(matches!(
            vm.call(inf, &[Value::I32(0)]),
            Err(VmError::StackOverflow)
        ));
        // The VM is usable again after the fault.
        assert!(vm.call(inf, &[Value::I32(0)]).is_err());
    }

    /// `down(n, d)`: recurses `n` frames deep, then divides by `d`.
    fn countdown(pb: &mut ProgramBuilder) -> MethodId {
        let down = pb.declare("down", &[Ty::I32, Ty::I32], Some(Ty::I32));
        let mut b = pb.define(down);
        let (n, d) = (b.param(0), b.param(1));
        let out = b.new_reg(Ty::I32);
        let zero = b.const_i32(0);
        let bottom = b.le(n, zero);
        b.if_else(
            bottom,
            |b| {
                let hundred = b.const_i32(100);
                let q = b.div(hundred, d);
                b.move_(out, q);
            },
            |b| {
                let one = b.const_i32(1);
                let m = b.sub(n, one);
                let r = b.call(down, &[m, d]);
                let s = b.add(r, one);
                b.move_(out, s);
            },
        );
        b.ret(Some(out));
        b.finish()
    }

    #[test]
    fn a_faulting_call_leaves_nothing_behind() {
        let fresh = || {
            let mut pb = ProgramBuilder::new();
            let down = countdown(&mut pb);
            let config = VmConfig {
                compile_threshold: u32::MAX, // no JIT: every stat is simulated
                ..VmConfig::default()
            };
            (
                Vm::new(pb.finish(), config, ProcessorConfig::pentium4()),
                down,
            )
        };
        let normal = [Value::I32(5), Value::I32(2)];
        let (mut clean, down) = fresh();
        let expected = clean.call(down, &normal).unwrap();
        assert_eq!(expected, Some(Value::I32(55)));

        let (mut vm, down) = fresh();
        assert!(matches!(
            vm.call(down, &[Value::I32(MAX_STACK_DEPTH as i32), Value::I32(2)]),
            Err(VmError::StackOverflow)
        ));
        assert!(vm.frames.is_empty() && vm.stack.is_empty());
        assert!(matches!(
            vm.call(down, &[Value::I32(7), Value::I32(0)]),
            Err(VmError::DivisionByZero { .. })
        ));
        assert!(vm.frames.is_empty() && vm.stack.is_empty());
        vm.reset_measurement();
        assert_eq!(vm.call(down, &normal).unwrap(), expected);
        assert_eq!(vm.stats(), clean.stats());
    }

    /// Bodies the arena currently holds.
    fn retained(vm: &Vm) -> usize {
        vm.codes.iter().flatten().count()
    }

    #[test]
    fn the_body_arena_is_bounded() {
        let mut pb = ProgramBuilder::new();
        let down = countdown(&mut pb);
        let program = pb.finish();
        let methods = program.method_count();
        let body_of_down = program.method(down).func().clone();
        let mut vm = Vm::new(
            program,
            VmConfig {
                compile_threshold: u32::MAX,
                ..VmConfig::default()
            },
            ProcessorConfig::pentium4(),
        );
        // The serving pattern: install and evict with no frame live.
        for round in 0..50 {
            vm.install_compiled(down, body_of_down.clone());
            assert_eq!(retained(&vm), methods + 1, "round {round}: installed");
            if round % 2 == 0 {
                // Replacing an installed body frees the replaced one too.
                vm.install_compiled(down, body_of_down.clone());
                assert_eq!(retained(&vm), methods + 1, "round {round}: replaced");
            }
            vm.call(down, &[Value::I32(3), Value::I32(1)]).unwrap();
            assert!(vm.evict_compiled(down).is_some());
            assert_eq!(retained(&vm), methods, "round {round}: evicted");
        }
    }

    #[test]
    fn an_install_mid_recursion_leaves_older_frames_on_the_old_body() {
        let mut pb = ProgramBuilder::new();
        let down = countdown(&mut pb);
        let program = pb.finish();
        let methods = program.method_count();
        // The third invocation — three frames into the recursion — crosses
        // the threshold: the deeper frames run the compiled body while the
        // first two finish on the interpreted original.
        let mut vm = Vm::new(
            program,
            VmConfig {
                compile_threshold: 3,
                ..VmConfig::default()
            },
            ProcessorConfig::pentium4(),
        );
        let out = vm.call(down, &[Value::I32(9), Value::I32(4)]).unwrap();
        assert_eq!(out, Some(Value::I32(25 + 9)));
        assert!(vm.is_compiled(down));
        let pm = &vm.stats().per_method[down.index()];
        assert!(pm.interpreted > 0 && pm.compiled > 0, "{pm:?}");
        assert!(vm.stats().interpreted_instructions > 0);

        // Replace the compiled body while a frame is running it (what an
        // adaptive patch deep in a recursion does), by driving the two
        // halves of `Vm::call` by hand around an install.
        let compiled = vm.compiled_body(down).unwrap().clone();
        vm.stack.extend_from_slice(&[2, 1]);
        vm.call_into(down, 2, None).unwrap();
        vm.install_compiled(down, compiled);
        assert_eq!(retained(&vm), methods + 2, "kept while a frame names it");
        assert_eq!(vm.run().unwrap(), Some(Value::I32(100 + 2)));
        // ... and freed once the next outermost call is over.
        vm.call(down, &[Value::I32(1), Value::I32(1)]).unwrap();
        assert_eq!(retained(&vm), methods + 1);
    }

    #[test]
    fn statics_round_trip() {
        let mut pb = ProgramBuilder::new();
        let sid = pb.add_static("g", ElemTy::I32);
        let mut b = pb.function("main", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        b.putstatic(sid, x);
        let v = b.getstatic(sid);
        b.ret(Some(v));
        let main = b.finish();
        let mut vm = vm_for(pb);
        assert_eq!(
            vm.call(main, &[Value::I32(55)]).unwrap(),
            Some(Value::I32(55))
        );
    }

    #[test]
    fn loop_bodies_get_fused_superinstructions() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("work", &[Ty::I32], Some(Ty::I32));
        let n = b.param(0);
        let acc = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(acc, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                let s = b.add(acc, i);
                b.move_(acc, s);
            },
        );
        b.ret(Some(acc));
        let work = b.finish();
        let mut vm = vm_for(pb);
        assert!(
            vm.fused_op_count() > 0,
            "for-loops must fuse at least the Cmp+Branch back edge"
        );
        assert_eq!(
            vm.call(work, &[Value::I32(10)]).unwrap(),
            Some(Value::I32(45))
        );
    }

    use spf_ir::CmpOp;
}
