//! Cells: the prefetch configurations on processors a [`Vm`] simulates —
//! its own, cell 0, and its *twins*, simulated alongside so that one run
//! stands for every cell whose run it reproduces.
//!
//! Three rules make a live twin's numbers those of a VM of its own:
//!
//! - **Subset bodies.** At each JIT compile of the leader, every live twin
//!   runs its own prefetch pipeline, with its own processor, on the same
//!   base body, heap, statics and arguments, and stays live only while
//!   every body it produces is the leader's installed body minus some
//!   `Prefetch`/`SpecLoad` ops (`prefetch_mask`): the rest in the same
//!   order and identical, a `SpecLoad` destination at most renamed onto
//!   the leader's, and no other op touching a `SpecLoad` destination. A
//!   prefetch op changes no register another op reads and nothing on the
//!   heap, so the twin's program executes the leader's instruction stream
//!   minus those ops, on the same heap, with the same allocation and GC —
//!   except where a `SpecLoad` destination only the leader has is the one
//!   root of an object at a collection, which ends the twin.
//! - **One memory system per code class.** Only the memory system's
//!   stalls depend on the processor, and only the prefetch ops the code
//!   has change what the memory system sees. Twins on the leader's
//!   processor whose code is the leader's read the leader's memory
//!   system. Every other class — twins on one processor whose bodies are
//!   all equal — shares one *shadow* memory system, which every load and
//!   store of the leader's reaches too, at the leader's clock plus the
//!   shadow's *offset*: its summed stall minus the leader's. A shadow
//!   holds a *mask* per leader body: the prefetch ops (numbered by
//!   decode) its code has. It makes those at its own clock, and for every
//!   other one the leader runs it rebases: the offset drops by the op's
//!   cost and its latency on the leader, and the op leaves the retired
//!   counts. A compile or patch that splits a class clones its memory
//!   system, so the classes go on from one state. JIT and patch charges
//!   for another body size move the class's clock and JIT cycles, not
//!   its per-method cycles. At each frame flush the change in the offset
//!   since the segment began goes into the shadow's per-method cycles.
//! - **One adaptive road.** Every cell has its own options, processor,
//!   reports and, under a mode with guards, [`AdaptState`], and the guard
//!   policy runs once over the guarded cells (`Vm::guards`): a compile
//!   registers each cell's body (`Vm::book_compile`), each prefetch op a
//!   cell's code has probes that cell's memory system before any memory
//!   system applies the op (`Vm::probe_issue`), and each call of a
//!   compiled method repatches and patches the cell's loops on its own
//!   body (`Vm::guard_loops`). Only where the new body goes depends on
//!   the cell (`Vm::place`): cell 0 installs it; a twin's must again be a
//!   subset of the leader's, and moves the twin onto a class of its own.
//!   Where a leader frame — deeper in a recursion — runs the body a twin
//!   patches, the leader's body gets a new code id for the frames to come
//!   (`Vm::fork_code`), so the older ones keep the twin's old mask, as its
//!   VM's frames keep its old body.
//!
//! A twin's compile-time reports, inspection cost and adaptive counters
//! are its own; every other counter is the leader's, rebased onto the
//! twin's class.

use std::collections::HashSet;
use std::sync::Arc;

use spf_adapt::{AdaptConfig, AdaptState, StaleLoop};
use spf_core::{MethodReport, PrefetchOptions};
use spf_heap::{Addr, Value, NULL};
use spf_ir::{Function, Instr, MethodId, PrefetchAddr, PrefetchKind, Reg};
use spf_memsim::{CacheLevel, MemStats, MemorySystem, ProcessorConfig};
use spf_trace::TraceSink;

use crate::config::RECOMPILE_CYCLES_PER_INSTR;
use crate::decode::is_prefetch;
use crate::stats::{MethodCycles, VmStats};
use crate::vm::{body, CodeId, Installed, Vm};

/// One cell a [`Vm`] simulates: cell 0 is the VM's own, every other one
/// a twin (see [`Vm::add_twin`]); read through [`Vm::cell`].
#[derive(Clone, Debug)]
pub(crate) struct CellState {
    pub(crate) options: PrefetchOptions,
    pub(crate) proc: ProcessorConfig,
    /// Whether the cell still reproduces the leader's run (see the module
    /// docs); cell 0 always does.
    live: bool,
    /// The cell's optimization reports, one per compile or repatch it
    /// reproduced.
    pub(crate) reports: Vec<MethodReport>,
    /// A twin's own inspection cost and adaptive counters since the last
    /// [`Vm::reset_measurement`]; cell 0's are [`Vm::stats`].
    own: VmStats,
    /// The index of the cell's class's shadow in `Vm::shadows`, or `None`
    /// for the leader's processor and code.
    shadow: Option<usize>,
    /// The cell's loop guards, under a mode with adaptive guards.
    pub(crate) adapt: Option<AdaptState>,
    /// A twin's compiled body of each method, by method index; cell 0's
    /// are the VM's installed bodies.
    bodies: Vec<Option<Arc<Function>>>,
}

impl CellState {
    /// A live cell compiled with `options` on `proc`, running the
    /// leader's code, with the loop-guard policy `adapt` if its mode has
    /// guards, for a program of `methods` methods.
    pub(crate) fn new(
        options: PrefetchOptions,
        proc: ProcessorConfig,
        adapt: AdaptConfig,
        methods: usize,
    ) -> CellState {
        CellState {
            adapt: (options.mode.adaptive_guards()).then(|| AdaptState::new(adapt)),
            options,
            proc,
            live: true,
            reports: Vec::new(),
            own: VmStats::default(),
            shadow: None,
            bodies: vec![None; methods],
        }
    }
}

/// A loop edit of a compiled body, as cell 0 records it (see
/// `Vm::place`).
pub(crate) enum Edit<'a> {
    /// A patch of these stale loops, at a call with these arguments.
    Patch(&'a [StaleLoop], &'a [Value]),
    /// A repatch: each loop's header and new loop generation.
    Repatch(Vec<(u32, u32)>),
}

/// One cell a [`Vm`] simulates, its own or a twin's (see [`Vm::cell`]).
#[derive(Clone, Debug)]
pub struct CellRun<'a> {
    /// The cell's prefetch configuration.
    pub options: &'a PrefetchOptions,
    /// The cell's processor.
    pub proc: &'a ProcessorConfig,
    /// The cell's optimization reports: a twin that diverged keeps those
    /// of the compiles it reproduced.
    pub reports: &'a [MethodReport],
    /// The cell's execution and memory-system statistics so far, or
    /// `None` once the twin has diverged: it has no run.
    pub run: Option<(VmStats, &'a MemStats)>,
}

/// The memory system of one code class other than the leader's own (see
/// the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Shadow {
    mem: MemorySystem,
    /// The shadow's clock minus the leader's.
    offset: i64,
    /// `offset` when the current frame segment began.
    seg_offset: i64,
    /// Per-method compiled and interpreted cycles of this class;
    /// invocations are the leader's.
    per_method: Vec<MethodCycles>,
    /// This class's mask of each leader body, by [`CodeId`]; past the
    /// end, `None`.
    masks: Vec<Mask>,
    /// Prefetch ops the leader retired that this class's code lacks.
    skipped: u64,
    /// This class's JIT cycles minus the leader's.
    jit_delta: i64,
}

/// Which prefetch ops of a leader body a class's code has, by the index
/// decode gives them; `None` for all of them.
type Mask = Option<Box<[bool]>>;

impl Shadow {
    /// A shadow on `mem`, at the leader's clock, with the per-method
    /// cycles `per_method`.
    fn new(mem: MemorySystem, per_method: Vec<MethodCycles>) -> Shadow {
        Shadow {
            mem,
            offset: 0,
            seg_offset: 0,
            per_method,
            masks: Vec::new(),
            skipped: 0,
            jit_delta: 0,
        }
    }

    /// Whether this class's code has prefetch op `index` of the leader's
    /// body `code`.
    fn has(&self, code: CodeId, index: u32) -> bool {
        match self.masks.get(code as usize) {
            Some(Some(mask)) => mask[index as usize],
            _ => true,
        }
    }

    /// Books JIT-side `cycles` this class spends beyond the leader's.
    fn charge_jit(&mut self, cycles: i64) {
        self.offset += cycles;
        self.seg_offset += cycles;
        self.jit_delta += cycles;
    }
}

/// A memory-system operation of the run loop.
#[derive(Clone, Copy)]
pub(crate) enum Access {
    Load,
    Store,
    Prefetch,
    Guarded,
}

impl Access {
    /// The access that issues a prefetch of `kind`.
    #[inline(always)]
    pub(crate) fn prefetch(kind: PrefetchKind) -> Access {
        match kind {
            PrefetchKind::Hardware => Access::Prefetch,
            PrefetchKind::GuardedLoad => Access::Guarded,
        }
    }

    /// Makes the access on `mem` at time `now`; returns its latency.
    #[inline(always)]
    pub(crate) fn apply<T: TraceSink>(
        self,
        mem: &mut MemorySystem<T>,
        addr: Addr,
        now: u64,
    ) -> u64 {
        match self {
            Access::Load => mem.load(addr, now),
            Access::Store => mem.store(addr, now),
            Access::Prefetch => mem.software_prefetch(addr, now),
            Access::Guarded => mem.guarded_load(addr, now),
        }
    }
}

/// Whether a prefetch of `kind` for `target` is useless on `mem`: its line
/// is already cached at the fill target — the test the memory system
/// applies internally, probed without changing anything.
fn prefetch_useless<T: TraceSink>(mem: &MemorySystem<T>, kind: PrefetchKind, target: Addr) -> bool {
    let level = match kind {
        PrefetchKind::Hardware => mem.config().swpf_target,
        PrefetchKind::GuardedLoad => CacheLevel::L1,
    };
    mem.line_present(level, target)
}

/// Which prefetch ops of `leader`, in block and instruction order (the
/// order decode numbers them in), `twin` has — if `twin` is `leader`
/// minus some `Prefetch`/`SpecLoad` ops, else `None`.
///
/// The check is syntactic. Both bodies must have the same signature,
/// blocks and terminators, and the same ops in each block once the
/// leader's extra prefetch ops are left out. Each `SpecLoad` destination
/// of `twin` may be renamed, one to one, onto the destination of the
/// leader's `SpecLoad` it matches; a prefetch op of `twin` must read that
/// name where the leader's reads the leader's. No other op and no
/// terminator may touch a `SpecLoad` destination of either body, and
/// every other register has one type in both. So every register but the
/// destinations holds the same value in both bodies, each destination of
/// `twin` the value of its leader name — no `SpecLoad` the twin lacks
/// writes one — and each prefetch op of `twin` reaches the address of
/// the leader's op it matches.
pub(crate) fn prefetch_mask(twin: &Function, leader: &Function) -> Option<Vec<bool>> {
    if twin.name() != leader.name()
        || twin.param_count() != leader.param_count()
        || twin.ret_ty() != leader.ret_ty()
        || twin.entry() != leader.entry()
        || twin.block_count() != leader.block_count()
    {
        return None;
    }
    let (spec_t, spec_l) = (spec_dsts(twin), spec_dsts(leader));
    for r in 0..twin.reg_count().max(leader.reg_count()) {
        let spec = spec_t.get(r) == Some(&true) || spec_l.get(r) == Some(&true);
        let same = r < twin.reg_count()
            && r < leader.reg_count()
            && twin.reg_ty(Reg::new(r)) == leader.reg_ty(Reg::new(r));
        if !spec && !same {
            return None;
        }
    }
    let plain = |i: &Instr| {
        let mut regs = Vec::new();
        i.uses(&mut regs);
        regs.extend(i.dst());
        regs.iter()
            .all(|r| !spec_t[r.index()] && !spec_l[r.index()])
    };
    let mut names = Renaming {
        to_leader: vec![None; twin.reg_count()],
        taken: vec![false; leader.reg_count()],
        spec_t: &spec_t,
        spec_l: &spec_l,
    };
    let mut mask = Vec::new();
    // The destinations of the leader's `SpecLoad`s the twin lacks.
    let mut unmatched = Vec::new();
    for b in leader.block_ids() {
        let (tb, lb) = (twin.block(b), leader.block(b));
        let mut ls = lb.instrs.iter();
        for t in &tb.instrs {
            loop {
                let l = ls.next()?;
                if !is_prefetch(l) {
                    if is_prefetch(t) || t != l || !plain(t) {
                        return None;
                    }
                    break;
                }
                if names.bind(t, l) {
                    mask.push(true);
                    break;
                }
                mask.push(false);
                if let Instr::SpecLoad { dst, .. } = l {
                    unmatched.push(*dst);
                }
            }
        }
        for l in ls {
            if !is_prefetch(l) {
                return None;
            }
            mask.push(false);
            if let Instr::SpecLoad { dst, .. } = l {
                unmatched.push(*dst);
            }
        }
        let mut regs = Vec::new();
        lb.term.uses(&mut regs);
        if tb.term != lb.term || regs.iter().any(|r| spec_t[r.index()] || spec_l[r.index()]) {
            return None;
        }
    }
    unmatched
        .iter()
        .all(|r| !names.taken[r.index()])
        .then_some(mask)
}

/// Which registers of `func` a `SpecLoad` writes, by index.
fn spec_dsts(func: &Function) -> Vec<bool> {
    let mut out = vec![false; func.reg_count()];
    for site in func.instr_sites() {
        if let Instr::SpecLoad { dst, .. } = func.instr(site) {
            out[dst.index()] = true;
        }
    }
    out
}

/// The renaming of a twin's `SpecLoad` destinations onto the leader's
/// that [`prefetch_mask`] builds as it matches prefetch ops.
struct Renaming<'a> {
    to_leader: Vec<Option<Reg>>,
    /// Leader registers some twin register is renamed onto.
    taken: Vec<bool>,
    spec_t: &'a [bool],
    spec_l: &'a [bool],
}

impl Renaming<'_> {
    /// Whether the twin's prefetch op `t` is the leader's `l` under the
    /// renaming, extended as needed; extends it if so.
    fn bind(&mut self, t: &Instr, l: &Instr) -> bool {
        let mut pairs = Vec::new();
        let same = match (t, l) {
            (Instr::Prefetch { addr: at, kind: kt }, Instr::Prefetch { addr: al, kind: kl }) => {
                kt == kl && addr_pairs(at, al, &mut pairs)
            }
            (Instr::SpecLoad { dst: dt, addr: at }, Instr::SpecLoad { dst: dl, addr: al }) => {
                pairs.push((*dt, *dl));
                addr_pairs(at, al, &mut pairs)
            }
            _ => false,
        };
        if !same {
            return false;
        }
        // Check every pair before committing any, and against the pairs
        // before it, so a failed match leaves the renaming as it was.
        for (k, &(rt, rl)) in pairs.iter().enumerate() {
            let (st, sl) = (self.spec_t[rt.index()], self.spec_l[rl.index()]);
            let ok = match (st, self.to_leader[rt.index()]) {
                (false, _) => !sl && rt == rl,
                (true, Some(bound)) => bound == rl,
                (true, None) => {
                    sl && !self.taken[rl.index()]
                        && pairs[..k].iter().all(|&(t2, l2)| (t2 == rt) == (l2 == rl))
                }
            };
            if !ok {
                return false;
            }
        }
        for (rt, rl) in pairs {
            if self.spec_t[rt.index()] {
                self.to_leader[rt.index()] = Some(rl);
                self.taken[rl.index()] = true;
            }
        }
        true
    }
}

/// Pairs up the registers of two address expressions of one shape and
/// the same constants; `false` if they differ otherwise.
fn addr_pairs(t: &PrefetchAddr, l: &PrefetchAddr, pairs: &mut Vec<(Reg, Reg)>) -> bool {
    match (*t, *l) {
        (
            PrefetchAddr::FieldOf {
                base: bt,
                delta: dt,
            },
            PrefetchAddr::FieldOf {
                base: bl,
                delta: dl,
            },
        ) => {
            pairs.push((bt, bl));
            dt == dl
        }
        (
            PrefetchAddr::ArrayElem {
                arr: at,
                idx: it,
                scale: st,
                delta: dt,
            },
            PrefetchAddr::ArrayElem {
                arr: al,
                idx: il,
                scale: sl,
                delta: dl,
            },
        ) => {
            pairs.push((at, al));
            pairs.push((it, il));
            st == sl && dt == dl
        }
        _ => false,
    }
}

impl<S: TraceSink> Vm<S> {
    /// Adds a twin compiled with `options` on `proc` (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics unless this VM is untraced (a twin has no event stream of
    /// its own), compiles synchronously (a background compile's cost
    /// estimate depends on the mode), retains no deoptimization arguments
    /// (they would be GC roots of the twin's own), has no adaptive guards
    /// (only a leader that never patches installs every body through the
    /// JIT) and has compiled nothing yet.
    pub fn add_twin(&mut self, options: PrefetchOptions, proc: ProcessorConfig) {
        assert!(!S::ENABLED, "a traced VM takes no twins");
        assert!(!self.config.async_compile, "an async VM takes no twins");
        assert!(
            !self.config.retain_deopt_args,
            "a retaining VM takes no twins"
        );
        assert!(
            self.cells[0].adapt.is_none(),
            "an adaptive VM takes no twins"
        );
        assert!(
            self.compiled_generations().next().is_none(),
            "twins join before the first compile"
        );
        let shadow = (proc != *self.mem.config()).then(|| {
            let found = self.shadows.iter().position(|s| *s.mem.config() == proc);
            found.unwrap_or_else(|| {
                let mem = MemorySystem::new(proc.clone());
                let per_method = vec![MethodCycles::default(); self.program.method_count()];
                self.shadows.push(Shadow::new(mem, per_method));
                self.shadows.len() - 1
            })
        });
        let methods = self.program.method_count();
        let cell = CellState::new(options, proc, self.config.adapt, methods);
        self.cells.push(CellState { shadow, ..cell });
    }

    /// Cell `k`: the VM's own for `k = 0`, else twin `k − 1` in the order
    /// the twins were added. A live twin's statistics are the leader's,
    /// with the clock, JIT cycles, retired counts and per-method cycles
    /// of the twin's class and the twin's own inspection cost and
    /// adaptive counters.
    pub fn cell(&self, k: usize) -> CellRun<'_> {
        let cell = &self.cells[k];
        let run = cell.live.then(|| {
            let (own, stats) = (&cell.own, self.stats.clone());
            let mut stats = match k {
                0 => stats,
                _ => VmStats {
                    inspection_cycles: own.inspection_cycles,
                    loop_deopts: own.loop_deopts,
                    loop_repatches: own.loop_repatches,
                    reagreed: own.reagreed,
                    ..stats
                },
            };
            let Some(i) = cell.shadow else {
                return (stats, self.mem.stats());
            };
            let shadow = &self.shadows[i];
            stats.cycles = stats.cycles.wrapping_add_signed(shadow.offset);
            stats.jit_cycles = stats.jit_cycles.wrapping_add_signed(shadow.jit_delta);
            stats.retired_instructions -= shadow.skipped;
            stats.compiled_instructions -= shadow.skipped;
            for (pm, own) in stats.per_method.iter_mut().zip(&shadow.per_method) {
                pm.compiled = own.compiled;
                pm.interpreted = own.interpreted;
            }
            (stats, shadow.mem.stats())
        });
        CellRun {
            options: &cell.options,
            proc: &cell.proc,
            reports: &cell.reports,
            run,
        }
    }

    /// Makes the load or store the leader just made at `now`, with
    /// latency `lat`, on every shadow, at the shadow's own time.
    #[cold]
    pub(crate) fn shadow_access(&mut self, access: Access, addr: Addr, now: u64, lat: u64) {
        for shadow in &mut self.shadows {
            let own = access.apply(
                &mut shadow.mem,
                addr,
                now.wrapping_add_signed(shadow.offset),
            );
            shadow.offset += own as i64 - lat as i64;
        }
    }

    /// Runs prefetch op `index` of the top frame's body, which the leader
    /// just ran at `now` — charged `cost`, with latency `lat` if it had a
    /// `target` — on every shadow: at the shadow's own time where its code
    /// has the op, else taken back out of its clock and retired count.
    #[cold]
    pub(crate) fn shadow_prefetch(
        &mut self,
        index: u32,
        kind: PrefetchKind,
        target: Option<Addr>,
        (now, cost): (u64, u64),
        lat: u64,
    ) {
        let code = self.frames.last().expect("a frame runs the op").code;
        for shadow in &mut self.shadows {
            if !shadow.has(code, index) {
                shadow.offset -= (cost + lat) as i64;
                shadow.skipped += 1;
            } else if let Some(addr) = target {
                let at = now.wrapping_add_signed(shadow.offset);
                let own = Access::prefetch(kind).apply(&mut shadow.mem, addr, at);
                shadow.offset += own as i64 - lat as i64;
            }
        }
    }

    /// Books the frame segment the leader just flushed — `acc` cycles of
    /// `mid`, compiled or not — on every shadow, rebased by the change in
    /// its offset since the segment began.
    #[cold]
    pub(crate) fn flush_shadows(&mut self, mid: MethodId, compiled: bool, acc: u64) {
        for shadow in &mut self.shadows {
            let own = acc.wrapping_add_signed(shadow.offset - shadow.seg_offset);
            let pm = &mut shadow.per_method[mid.index()];
            if compiled {
                pm.compiled += own;
            } else {
                pm.interpreted += own;
            }
            shadow.seg_offset = shadow.offset;
        }
    }

    /// Records the issue of prefetch op `index` of the top frame's body,
    /// in `block` of `mid`, in the guards of every guarded cell whose code
    /// has the op, probed on the cell's memory system before any memory
    /// system applies the prefetch: the one issue-time test of a useless
    /// prefetch.
    pub(crate) fn probe_issue(
        &mut self,
        mid: MethodId,
        block: u32,
        index: u32,
        target: Addr,
        kind: PrefetchKind,
    ) {
        for cell in &mut self.cells {
            let Some(adapt) = cell.adapt.as_mut().filter(|_| cell.live) else {
                continue;
            };
            let useless = match cell.shadow {
                None => prefetch_useless(&self.mem, kind, target),
                Some(i) => {
                    let code = self.frames.last().expect("a frame runs the op").code;
                    if !self.shadows[i].has(code, index) {
                        continue;
                    }
                    prefetch_useless(&self.shadows[i].mem, kind, target)
                }
            };
            adapt.record_issue(mid.index(), block, useless);
        }
    }

    /// The loop guards of cell `k` (see [`Vm::cell`]), if it has them
    /// and still lives: whether the cell is *guarded*.
    pub(crate) fn guards(&mut self, k: usize) -> Option<&mut AdaptState> {
        let cell = &mut self.cells[k];
        cell.adapt.as_mut().filter(|_| cell.live)
    }

    /// Cell `k`'s compiled body of `mid`: a twin's own, cell 0's the one
    /// installed.
    pub(crate) fn cell_body(&self, k: usize, mid: MethodId) -> Arc<Function> {
        let twin = self.cells[k].bodies[mid.index()].clone();
        twin.unwrap_or_else(|| {
            let code = self.compiled[mid.index()].expect("a compiled body");
            Arc::clone(&body(&self.codes, code).tcode.src)
        })
    }

    /// Books `f` on cell `k`'s own counters: [`Vm::stats`] for cell 0,
    /// else those of [`VmStats`] a twin keeps for itself.
    pub(crate) fn count(&mut self, k: usize, f: impl FnOnce(&mut VmStats)) {
        f(match k {
            0 => &mut self.stats,
            _ => &mut self.cells[k].own,
        });
    }

    /// Makes `func`, patched at a cost of `cycles`, the body of `mid` of
    /// cell `k`, a twin, on a class of its own; ends the twin instead if
    /// `func` is no subset of the leader's body. Returns whether it lives.
    pub(crate) fn recode_twin(
        &mut self,
        k: usize,
        mid: MethodId,
        func: Function,
        cycles: u64,
    ) -> bool {
        let mut code = self.compiled[mid.index()].expect("a compiled body");
        let Some(mask) = prefetch_mask(&func, &body(&self.codes, code).tcode.src) else {
            self.cells[k].live = false;
            self.drop_idle_shadows();
            return false;
        };
        if self.frames.iter().any(|f| f.code == code) {
            code = self.fork_code(mid);
        }
        self.cells[k].bodies[mid.index()] = Some(Arc::new(func));
        self.recode(code, &[(k, full_or(mask), cycles as i64)]);
        true
    }

    /// Installs `mid`'s compiled body again under a new [`CodeId`], with
    /// every class's mask, and returns the id: the frames running it now
    /// keep the old id, so a twin can patch its code for the frames to
    /// come while its older frames — deeper in a recursion — go on
    /// running its old body, as its VM's would.
    fn fork_code(&mut self, mid: MethodId) -> CodeId {
        let old = self.compiled[mid.index()].expect("a compiled body");
        let code = self.codes.len() as CodeId;
        let installed = body(&self.codes, old);
        let copy = Installed {
            tcode: Arc::clone(&installed.tcode),
            compiled: installed.compiled,
        };
        self.codes.push(Some(copy));
        self.compiled[mid.index()] = Some(code);
        self.retire(old);
        for shadow in &mut self.shadows {
            let mask = shadow.masks.get(old as usize).cloned().flatten();
            shadow.masks.resize(code as usize + 1, None);
            shadow.masks[code as usize] = mask;
        }
        code
    }

    /// Runs every live twin's pipeline on the inputs the leader's compile
    /// of `mid` just used, keeps live those whose body is a subset of the
    /// leader's body just installed, and regroups the live ones by class.
    /// Emits no event and charges nothing to [`Vm::stats`].
    pub(crate) fn compile_twins(&mut self, mid: MethodId, base: &Function, args: &[Value]) {
        if self.cells[1..].iter().all(|t| !t.live) {
            return;
        }
        let code = self.compiled[mid.index()].expect("just installed");
        let leader = Arc::clone(&body(&self.codes, code).tcode.src);
        let leader_instrs = leader.instr_sites().count() as i64;
        let mut changes = Vec::new();
        for k in 1..self.cells.len() {
            if !self.cells[k].live {
                continue;
            }
            let outcome = self.pipeline(k, base, args, None);
            let Some(mask) = prefetch_mask(&outcome.func, &leader) else {
                self.cells[k].live = false;
                continue;
            };
            self.book_compile(k, mid, &outcome.func, outcome.report);
            let instrs = outcome.func.instr_sites().count() as i64;
            let jit = RECOMPILE_CYCLES_PER_INSTR as i64 * (instrs - leader_instrs);
            self.cells[k].bodies[mid.index()] = Some(Arc::new(outcome.func));
            changes.push((k, full_or(mask), jit));
        }
        self.recode(code, &changes);
    }

    /// Gives each twin `k` of `changes` the mask for the leader's body
    /// `code` and the JIT cycles `jit` beyond the leader's that come with
    /// it, and moves it onto the shadow of its new class: the twins of
    /// one old class that agree on both. The first new class of an old
    /// one keeps its memory system, unless a live twin stays behind on it
    /// or it is the leader's (which only a class still running the
    /// leader's code at the leader's clock keeps); every other class gets
    /// a copy of the old one's.
    fn recode(&mut self, code: CodeId, changes: &[(usize, Mask, i64)]) {
        let stays = |twins: &[CellState], i: usize| {
            (twins.iter().enumerate())
                .any(|(j, t)| t.live && t.shadow == Some(i) && changes.iter().all(|c| c.0 != j))
        };
        // (old class, mask, JIT cycles, new class), in order of creation;
        // every copy is made before any class changes.
        let mut classes: Vec<(Option<usize>, &Mask, i64, Option<usize>)> = Vec::new();
        let mut class_of = Vec::with_capacity(changes.len());
        for (k, mask, jit) in changes {
            let old = self.cells[*k].shadow;
            let found = classes
                .iter()
                .position(|c| (c.0, c.1, c.2) == (old, mask, *jit));
            class_of.push(found.unwrap_or_else(|| {
                let new = match old {
                    None if mask.is_none() && *jit == 0 => None,
                    Some(i) if classes.iter().all(|c| c.0 != old) && !stays(&self.cells, i) => {
                        Some(i)
                    }
                    _ => Some(self.split(old)),
                };
                classes.push((old, mask, *jit, new));
                classes.len() - 1
            }));
        }
        for &(_, mask, jit, new) in &classes {
            let Some(i) = new else { continue };
            let shadow = &mut self.shadows[i];
            let len = shadow.masks.len().max(code as usize + 1);
            shadow.masks.resize(len, None);
            shadow.masks[code as usize] = mask.clone();
            shadow.charge_jit(jit);
        }
        for ((k, ..), c) in changes.iter().zip(class_of) {
            self.cells[*k].shadow = classes[c].3;
        }
        self.drop_idle_shadows();
    }

    /// A new shadow in the state of the class `from` — a shadow, or the
    /// leader's own with `None` — and its index.
    fn split(&mut self, from: Option<usize>) -> usize {
        let shadow = match from {
            Some(i) => self.shadows[i].clone(),
            None => Shadow::new(self.mem.untraced(), self.stats.per_method.clone()),
        };
        self.shadows.push(shadow);
        self.shadows.len() - 1
    }

    /// Ends every twin whose class lacks a `SpecLoad` that holds, in a
    /// live frame, the one root of an object the collection about to run
    /// keeps: `ref_slots` are the stack slots it roots and `roots` all of
    /// its roots but those.
    pub(crate) fn check_twin_roots(&mut self, ref_slots: &[usize], roots: &[Addr]) {
        for i in 0..self.shadows.len() {
            let shadow = &self.shadows[i];
            let mut dropped = HashSet::new();
            for f in &self.frames {
                let Some(Some(mask)) = shadow.masks.get(f.code as usize) else {
                    continue;
                };
                let src = &body(&self.codes, f.code).tcode.src;
                let ops = src
                    .instr_sites()
                    .map(|s| src.instr(s))
                    .filter(|i| is_prefetch(i));
                for (op, &has) in ops.zip(mask.iter()) {
                    if let (Instr::SpecLoad { dst, .. }, false) = (op, has) {
                        dropped.insert(f.base + dst.index());
                    }
                }
            }
            let heap = &self.heap;
            let rooted = |slot: &usize| {
                let a = self.stack[*slot];
                (a != NULL && heap.contains(a)).then_some(a)
            };
            let extra: Vec<Addr> = dropped.iter().filter_map(rooted).collect();
            if extra.is_empty() {
                continue;
            }
            let mut own: Vec<Addr> = roots.to_vec();
            own.extend(
                ref_slots
                    .iter()
                    .filter(|s| !dropped.contains(s))
                    .filter_map(rooted),
            );
            if !heap.reaches(&own, &extra) {
                for twin in self.cells.iter_mut().filter(|t| t.shadow == Some(i)) {
                    twin.live = false;
                }
            }
        }
        self.drop_idle_shadows();
    }

    /// Ends every twin: an install the leader's JIT did not make (or an
    /// eviction) is one no twin reproduced.
    pub(crate) fn diverge_twins(&mut self) {
        for twin in &mut self.cells[1..] {
            twin.live = false;
        }
        self.shadows.clear();
    }

    /// Drops the shadows no live twin runs on, so the run loop stops
    /// feeding them.
    fn drop_idle_shadows(&mut self) {
        let used: Vec<bool> = (0..self.shadows.len())
            .map(|i| self.cells.iter().any(|t| t.live && t.shadow == Some(i)))
            .collect();
        let mut i = 0;
        self.shadows.retain(|_| {
            i += 1;
            used[i - 1]
        });
        for twin in &mut self.cells {
            let kept = |i: usize| used[..i].iter().filter(|&&u| u).count();
            twin.shadow = twin.shadow.filter(|&i| used[i]).map(kept);
        }
    }

    /// Restarts the twins' measurement counters and their shadows, with
    /// [`Vm::stats`] and the leader's memory system.
    pub(crate) fn reset_twins(&mut self) {
        for twin in &mut self.cells[1..] {
            twin.own = VmStats::default();
        }
        for shadow in &mut self.shadows {
            shadow.mem.reset();
            shadow.offset = 0;
            shadow.seg_offset = 0;
            shadow.per_method.fill(MethodCycles::default());
            shadow.skipped = 0;
            shadow.jit_delta = 0;
        }
    }
}

/// A mask, or `None` if it has every op.
fn full_or(mask: Vec<bool>) -> Mask {
    (!mask.iter().all(|&m| m)).then(|| mask.into_boxed_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::{ElemTy, FieldId, ProgramBuilder, Terminator, Ty};

    /// `walk(p)`: loads `p.next`, `p.next.v` and `p.v`, returns the
    /// second; its `Node` fields `v` and `next`.
    fn walk() -> (Function, [FieldId; 2]) {
        let mut pb = ProgramBuilder::new();
        let (_, fs) = pb.add_class("Node", &[("v", ElemTy::I32), ("next", ElemTy::Ref)]);
        let mut b = pb.function("walk", &[Ty::Ref], Some(Ty::I32));
        let p = b.param(0);
        let q = b.getfield(p, fs[1]);
        let v = b.getfield(q, fs[0]);
        b.getfield(p, fs[0]);
        b.ret(Some(v));
        let mid = b.finish();
        (pb.finish().method(mid).func().clone(), [fs[0], fs[1]])
    }

    fn field(base: Reg, delta: i64) -> PrefetchAddr {
        PrefetchAddr::FieldOf { base, delta }
    }

    fn prefetch(base: Reg, delta: i64) -> Instr {
        Instr::Prefetch {
            addr: field(base, delta),
            kind: PrefetchKind::Hardware,
        }
    }

    /// `f` with `instr` inserted at `at` in its entry block.
    fn with(mut f: Function, at: usize, instr: Instr) -> Function {
        let entry = f.entry();
        f.block_mut(entry).instrs.insert(at, instr);
        f
    }

    /// `walk` with the leader's prefetch ops: a `SpecLoad` of `p.next`
    /// into a new register `a` and one of `a.next` into `b`, a prefetch
    /// through each, and one of `p` itself.
    fn leader() -> Function {
        let (mut f, _) = walk();
        let p = Reg::new(0);
        let (a, b) = (f.new_reg(Ty::Ref), f.new_reg(Ty::Ref));
        let ops = [
            Instr::SpecLoad {
                dst: a,
                addr: field(p, 16),
            },
            prefetch(a, 0),
            Instr::SpecLoad {
                dst: b,
                addr: field(a, 16),
            },
            prefetch(b, 0),
            prefetch(p, 64),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            f = with(f, i, op);
        }
        f
    }

    #[test]
    fn a_body_is_a_subset_of_itself_with_every_op() {
        let l = leader();
        assert_eq!(prefetch_mask(&l, &l), Some(vec![true; 5]));
        let (base, _) = walk();
        assert_eq!(prefetch_mask(&base, &l), Some(vec![false; 5]));
    }

    /// The twin keeps the leader's first `SpecLoad`, with the prefetch
    /// through it, and the prefetch of `p`, but numbers the destination
    /// as the leader numbers its second one: renamed, it matches.
    #[test]
    fn a_renamed_specload_destination_matches() {
        let (mut twin, _) = walk();
        let p = Reg::new(0);
        let (_, c) = (twin.new_reg(Ty::Ref), twin.new_reg(Ty::Ref));
        let ops = [
            Instr::SpecLoad {
                dst: c,
                addr: field(p, 16),
            },
            prefetch(c, 0),
            prefetch(p, 64),
        ];
        for (i, op) in ops.into_iter().enumerate() {
            twin = with(twin, i, op);
        }
        let l = leader();
        assert!(matches!(
            l.block(l.entry()).instrs[2],
            Instr::SpecLoad { dst, .. } if dst == c
        ));
        assert_eq!(
            prefetch_mask(&twin, &l),
            Some(vec![true, true, false, false, true])
        );
    }

    #[test]
    fn a_twin_only_op_is_no_subset() {
        let twin = with(leader(), 0, prefetch(Reg::new(0), 128));
        assert_eq!(prefetch_mask(&twin, &leader()), None);
        let (base, _) = walk();
        let twin = with(base.clone(), 0, prefetch(Reg::new(0), 64));
        assert_eq!(prefetch_mask(&twin, &base), None);
    }

    #[test]
    fn another_prefetch_kind_is_no_subset() {
        let (base, _) = walk();
        let l = with(base.clone(), 0, prefetch(Reg::new(0), 64));
        let twin = with(
            base,
            0,
            Instr::Prefetch {
                addr: field(Reg::new(0), 64),
                kind: PrefetchKind::GuardedLoad,
            },
        );
        assert_eq!(prefetch_mask(&twin, &l), None);
    }

    #[test]
    fn a_non_prefetch_difference_is_no_subset() {
        let l = leader();
        let (_, [v, _]) = walk();
        let entry = l.entry();
        // Another field loaded by the last getfield.
        let mut twin = l.clone();
        let last = twin.block(entry).instrs.len() - 1;
        let Instr::GetField { dst, obj, .. } = twin.block(entry).instrs[last] else {
            panic!("walk ends in a getfield");
        };
        let (_, [_, next]) = walk();
        twin.block_mut(entry).instrs[last] = Instr::GetField {
            dst,
            obj,
            field: next,
        };
        assert_ne!(next, v);
        assert_eq!(prefetch_mask(&twin, &l), None);
        // A plain op that reads a `SpecLoad` destination is no prefetch
        // op: the leader's values there are not the twin's.
        let a = Reg::new(walk().0.reg_count());
        let moved = with(l.clone(), 5, Instr::Move { dst: a, src: a });
        assert_eq!(prefetch_mask(&moved, &moved), None);
    }

    #[test]
    fn a_terminator_difference_is_no_subset() {
        let l = leader();
        let mut twin = l.clone();
        let entry = twin.entry();
        let Terminator::Return(Some(v)) = twin.block(entry).term else {
            panic!("walk returns a value");
        };
        let last = twin.block(entry).instrs.len() - 1;
        let w = twin.block(entry).instrs[last].dst().expect("a load");
        assert_ne!(v, w);
        twin.block_mut(entry).term = Terminator::Return(Some(w));
        assert_eq!(prefetch_mask(&twin, &l), None);
    }
}
