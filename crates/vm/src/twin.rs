//! Cells: the prefetch configurations on processors a [`Vm`] simulates —
//! its own, cell 0, and its *twins*, simulated alongside so that one run
//! stands for every cell whose run it reproduces.
//!
//! Three rules make a live twin's numbers those of a VM of its own:
//!
//! - **Union bodies.** At each JIT compile every live cell runs its own
//!   prefetch pipeline, with its own processor, on the same base body,
//!   heap, statics and arguments, and a twin lives only while every body
//!   it produces or patches and the leader's are one base body plus some
//!   `Prefetch`/`SpecLoad` ops (`union`). At each compile and each cell's
//!   patch the VM installs the union of its cells' bodies on one road
//!   (`Vm::install`): the shared base ops and, in each gap between
//!   them, a common supersequence of every cell's prefetch ops, where a
//!   kind is part of an op and each `SpecLoad` destination only twins
//!   have gets a fresh register. A prefetch op changes no register
//!   another op reads and nothing on the heap, so each cell's program
//!   executes the union's instruction stream minus the ops its code
//!   lacks, on the same heap, with the same allocation and GC — except
//!   where a `SpecLoad` destination one cell has and another lacks is the
//!   one root of an object at a collection, which ends the twins whose VM
//!   would keep other objects than the leader's (`Vm::check_twin_roots`).
//!   The leader's own body sets all its charges — JIT cycles, retired and
//!   compiled counts, GC roots — and decode lowers the ops it lacks, its
//!   *ghosts*, to handlers that charge it nothing. A VM without twins
//!   installs its own bodies as they are.
//! - **One memory system per code class.** Only the memory system's
//!   stalls depend on the processor, and only the prefetch ops the code
//!   has change what the memory system sees. Twins on the leader's
//!   processor whose code is the leader's read the leader's memory
//!   system. Every other class — twins on one processor whose bodies are
//!   all equal — shares one *shadow* memory system, which every load and
//!   store of the leader's reaches too, at the leader's clock plus the
//!   shadow's *offset*: its summed stall minus the leader's. A shadow
//!   holds a *mask* per installed body: the prefetch ops (numbered by
//!   decode) its code has. It makes those at its own clock. For every
//!   other one the leader runs it rebases — the offset drops by the op's
//!   cost and its latency on the leader, and the op leaves the retired
//!   counts — and each ghost its code has adds its cost and latency to
//!   the offset, and the op to the retired counts. A compile or patch
//!   that splits a class clones its memory system, so the classes go on
//!   from one state. JIT and patch charges for another body size move the
//!   class's clock and JIT cycles, not its per-method cycles. At each
//!   frame flush the change in the offset since the segment began goes
//!   into the shadow's per-method cycles.
//! - **One adaptive road.** Every cell has its own options, processor,
//!   reports and, under a mode with guards, [`AdaptState`], and the guard
//!   policy runs once over the guarded cells (`Vm::guards`): a compile
//!   registers each cell's body (`Vm::book_compile`), each prefetch op a
//!   cell's code has probes that cell's memory system before any memory
//!   system applies the op (`Vm::probe_issue`), and each call of a
//!   compiled method repatches and patches the cell's loops on its own
//!   body (`Vm::guard_loops`). A patched body, cell 0's as much as a
//!   twin's, joins the union on the compile's road, and the twins regroup
//!   by code and JIT cycles; only cell 0 emits trace events, retains
//!   deoptimization arguments and keeps a generation history. Where a
//!   leader frame — deeper in a recursion — runs the body a cell patches,
//!   the union gets a new code id for the frames to come, so the older
//!   ones keep every class's old mask, as the cell's own VM's frames keep
//!   its old body.
//!
//! A twin's compile-time reports, inspection cost and adaptive counters
//! are its own; every other counter is the leader's, rebased onto the
//! twin's class.

use std::collections::HashSet;
use std::sync::Arc;

use spf_adapt::{AdaptConfig, AdaptState};
use spf_core::{MethodReport, PrefetchOptions};
use spf_heap::{Addr, NULL};
use spf_ir::{Function, Instr, MethodId, PrefetchAddr, PrefetchKind, Reg, Ty};
use spf_memsim::{CacheLevel, MemStats, MemorySystem, ProcessorConfig};
use spf_trace::TraceSink;

use crate::decode::{decode, is_prefetch};
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
    pub(crate) live: bool,
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
    /// The cell's compiled body of each method, by method index; the VM
    /// installs the union of its cells' bodies.
    pub(crate) bodies: Vec<Option<Arc<Function>>>,
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
    /// This class's mask of each installed body, by [`CodeId`]; past the
    /// end, `None`.
    masks: Vec<Mask>,
    /// Prefetch ops this class retired minus those the leader retired.
    retired: i64,
    /// This class's JIT cycles minus the leader's.
    jit_delta: i64,
}

/// Which prefetch ops of an installed body a class's code has, by the
/// index decode gives them; `None` for the leader's.
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
            retired: 0,
            jit_delta: 0,
        }
    }

    /// Whether this class's code has prefetch op `index` of the installed
    /// body `code`, a `ghost` op or one the leader's code has.
    fn has(&self, code: CodeId, index: u32, ghost: bool) -> bool {
        match self.masks.get(code as usize) {
            Some(Some(mask)) => mask[index as usize],
            _ => !ghost,
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

/// The union of the body a VM runs and a twin's body of the same method
/// (see [`union`]).
pub(crate) struct Union {
    /// The body the VM runs, with every prefetch op of the twin's it
    /// lacked inserted.
    pub(crate) body: Function,
    /// For each prefetch op of `body`, in the order decode numbers them,
    /// its index among the old body's, or `None` for an op the twin added.
    origin: Vec<Option<usize>>,
    /// Which prefetch ops of `body` the twin has.
    pub(crate) mask: Vec<bool>,
}

impl Union {
    /// The mask over `body` of a class whose mask over the old body was
    /// `old`: it lacks every op the twin added.
    pub(crate) fn carry(&self, old: &[bool]) -> Vec<bool> {
        (self.origin.iter())
            .map(|o| o.is_some_and(|j| old[j]))
            .collect()
    }
}

/// The union of `run`, the body a VM runs, and `twin`, a twin's body of
/// the same method, if both are one base body plus some
/// `Prefetch`/`SpecLoad` ops; else `None`.
///
/// The check is syntactic. Both bodies must have the same signature,
/// blocks and terminators, and the same other ops in the same order. In
/// each gap between two of those, the union's prefetch ops are a common
/// supersequence of both bodies' there: `run`'s in their order, a longest
/// common subsequence with `twin`'s shared, and every other op of `twin`
/// inserted where it keeps its order. Two ops match if they are of one
/// kind — a `Prefetch` of another kind is another op — with addresses of
/// one shape and the same constants, under a one-to-one renaming of
/// `twin`'s `SpecLoad` destinations onto `run`'s; a destination that
/// matches none gets a fresh register, which only inserted ops name. No
/// other op and no terminator may touch a `SpecLoad` destination of
/// either body, every other register `twin`'s ops name is `run`'s with
/// its type, and no `SpecLoad` of the union that `twin` lacks may write a
/// register `twin`'s ops are renamed onto. So each register `twin` names
/// holds in the union what it holds in `twin`'s own run, each of its
/// prefetch ops reaches the address it would, and `run`'s ops keep their
/// registers.
pub(crate) fn union(run: &Function, twin: &Function) -> Option<Union> {
    if twin.name() != run.name()
        || twin.param_count() != run.param_count()
        || twin.ret_ty() != run.ret_ty()
        || twin.entry() != run.entry()
        || twin.block_count() != run.block_count()
    {
        return None;
    }
    let (spec_t, spec_r) = (spec_dsts(twin), spec_dsts(run));
    // Not every register `twin` declares: a patch leaves the
    // destinations of the `SpecLoad`s it strips declared.
    let mut named = Vec::new();
    for b in twin.block_ids() {
        twin.block(b).term.uses(&mut named);
    }
    for i in twin.instr_sites().map(|s| twin.instr(s)) {
        i.uses(&mut named);
        named.extend(i.dst());
    }
    let other = |r: &Reg| !spec_t[r.index()] && spec_r.get(r.index()) != Some(&true);
    for reg in named.into_iter().filter(other) {
        if reg.index() >= run.reg_count() || twin.reg_ty(reg) != run.reg_ty(reg) {
            return None;
        }
    }
    let spec = |r: &Reg| spec_t.get(r.index()) == Some(&true) || spec_r[r.index()];
    let plain = |i: &Instr| {
        let mut regs = Vec::new();
        i.uses(&mut regs);
        regs.extend(i.dst());
        !regs.iter().any(spec)
    };
    let mut out = run.clone();
    let mut names = Renaming {
        to_union: vec![None; twin.reg_count()],
        taken: vec![false; run.reg_count()],
        spec_t: &spec_t,
        spec_r: &spec_r,
    };
    let (mut origin, mut mask, mut old) = (Vec::new(), Vec::new(), 0);
    for b in run.block_ids() {
        let (rb, tb) = (run.block(b), twin.block(b));
        let mut regs = Vec::new();
        rb.term.uses(&mut regs);
        let (rg, tg) = (gaps(&rb.instrs), gaps(&tb.instrs));
        if tb.term != rb.term || regs.iter().any(spec) || rg.len() != tg.len() {
            return None;
        }
        let mut instrs = Vec::with_capacity(rb.instrs.len());
        for ((rops, rbase), (tops, tbase)) in rg.into_iter().zip(tg) {
            let (n, m) = (tops.len(), rops.len());
            // `lcs[i][j]`: the longest common subsequence of `tops[i..]`
            // and `rops[j..]`, matched under the renaming so far.
            let mut lcs = vec![vec![0u32; m + 1]; n + 1];
            for i in (0..n).rev() {
                for j in (0..m).rev() {
                    lcs[i][j] = match names.pairs(tops[i], rops[j]) {
                        Some(_) => lcs[i + 1][j + 1] + 1,
                        None => lcs[i + 1][j].max(lcs[i][j + 1]),
                    };
                }
            }
            let (mut i, mut j) = (0, 0);
            while i < n || j < m {
                let matched = i < n
                    && j < m
                    && lcs[i][j] == lcs[i + 1][j + 1] + 1
                    && names.bind(tops[i], rops[j]);
                if matched || (j < m && (i == n || lcs[i][j + 1] >= lcs[i + 1][j])) {
                    instrs.push(rops[j].clone());
                    origin.push(Some(old));
                    mask.push(matched);
                    old += 1;
                    i += usize::from(matched);
                    j += 1;
                } else {
                    instrs.push(names.insert(tops[i], &mut out)?);
                    origin.push(None);
                    mask.push(true);
                    i += 1;
                }
            }
            match (rbase, tbase) {
                (Some(r), Some(t)) if r == t && plain(r) => instrs.push(r.clone()),
                (None, None) => {}
                _ => return None,
            }
        }
        out.block_mut(b).instrs = instrs;
    }
    let ops = out
        .instr_sites()
        .map(|s| out.instr(s))
        .filter(|i| is_prefetch(i));
    let clobbers = |(op, &has): (&Instr, &bool)| {
        !has && matches!(op, Instr::SpecLoad { dst, .. } if names.taken[dst.index()])
    };
    if ops.zip(&mask).any(clobbers) {
        return None;
    }
    Some(Union {
        body: out,
        origin,
        mask,
    })
}

/// `instrs` cut at each op other than a prefetch op: per cut, the
/// prefetch ops before it and that op, then the trailing prefetch ops.
fn gaps(instrs: &[Instr]) -> Vec<(Vec<&Instr>, Option<&Instr>)> {
    let mut out = vec![(Vec::new(), None)];
    for i in instrs {
        let last = out.last_mut().expect("one gap at least");
        if is_prefetch(i) {
            last.0.push(i);
        } else {
            last.1 = Some(i);
            out.push((Vec::new(), None));
        }
    }
    out
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

/// The renaming of a twin's `SpecLoad` destinations onto the union's that
/// [`union`] builds as it matches and inserts prefetch ops.
struct Renaming<'a> {
    to_union: Vec<Option<Reg>>,
    /// Union registers some twin register is renamed onto; past the old
    /// body's registers, the fresh ones.
    taken: Vec<bool>,
    spec_t: &'a [bool],
    spec_r: &'a [bool],
}

impl Renaming<'_> {
    /// The register pairs under which the twin's prefetch op `t` is the
    /// old body's `r`, if it is under the renaming, extended as needed.
    fn pairs(&self, t: &Instr, r: &Instr) -> Option<Vec<(Reg, Reg)>> {
        let mut pairs = Vec::new();
        let same = match (t, r) {
            (Instr::Prefetch { addr: at, kind: kt }, Instr::Prefetch { addr: ar, kind: kr }) => {
                kt == kr && addr_pairs(at, ar, &mut pairs)
            }
            (Instr::SpecLoad { dst: dt, addr: at }, Instr::SpecLoad { dst: dr, addr: ar }) => {
                pairs.push((*dt, *dr));
                addr_pairs(at, ar, &mut pairs)
            }
            _ => false,
        };
        // Every pair is checked against the ones before it too.
        let ok = |(k, &(rt, rr)): (usize, &(Reg, Reg))| {
            let (st, sr) = (self.spec_t[rt.index()], self.spec_r[rr.index()]);
            match (st, self.to_union[rt.index()]) {
                (false, _) => !sr && rt == rr,
                (true, Some(bound)) => bound == rr,
                (true, None) => {
                    sr && !self.taken[rr.index()]
                        && pairs[..k].iter().all(|&(t2, r2)| (t2 == rt) == (r2 == rr))
                }
            }
        };
        (same && pairs.iter().enumerate().all(ok)).then_some(pairs)
    }

    /// Whether the twin's prefetch op `t` is the old body's `r` under the
    /// renaming, extended as needed; extends it if so.
    fn bind(&mut self, t: &Instr, r: &Instr) -> bool {
        let Some(pairs) = self.pairs(t, r) else {
            return false;
        };
        for (rt, rr) in pairs {
            if self.spec_t[rt.index()] {
                self.to_union[rt.index()] = Some(rr);
                self.taken[rr.index()] = true;
            }
        }
        true
    }

    /// The twin's prefetch op `t` renamed into `union`, where it is
    /// inserted: a `SpecLoad` destination with no name yet gets a fresh
    /// register. `None` if it would read or write a `SpecLoad`
    /// destination of the old body.
    fn insert(&mut self, t: &Instr, union: &mut Function) -> Option<Instr> {
        let old = self.spec_r.len();
        let mut clash = false;
        let mut rename = |r: Reg| match self.spec_t[r.index()] {
            false => {
                clash |= self.spec_r.get(r.index()) == Some(&true);
                r
            }
            true => *self.to_union[r.index()].get_or_insert_with(|| {
                self.taken.push(true);
                union.new_reg(Ty::Ref)
            }),
        };
        let op = match *t {
            Instr::Prefetch { addr, kind } => Instr::Prefetch {
                addr: rename_addr(addr, &mut rename),
                kind,
            },
            Instr::SpecLoad { dst, addr } => {
                let addr = rename_addr(addr, &mut rename);
                let dst = rename(dst);
                clash |= dst.index() < old;
                Instr::SpecLoad { dst, addr }
            }
            _ => unreachable!("only prefetch ops fill a gap"),
        };
        (!clash).then_some(op)
    }
}

/// `addr` with each register `r` replaced by `f(r)`.
fn rename_addr(addr: PrefetchAddr, f: &mut impl FnMut(Reg) -> Reg) -> PrefetchAddr {
    match addr {
        PrefetchAddr::FieldOf { base, delta } => PrefetchAddr::FieldOf {
            base: f(base),
            delta,
        },
        PrefetchAddr::ArrayElem {
            arr,
            idx,
            scale,
            delta,
        } => PrefetchAddr::ArrayElem {
            arr: f(arr),
            idx: f(idx),
            scale,
            delta,
        },
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
    /// (they would be GC roots of the twin's own) and has compiled
    /// nothing yet.
    pub fn add_twin(&mut self, options: PrefetchOptions, proc: ProcessorConfig) {
        assert!(!S::ENABLED, "a traced VM takes no twins");
        assert!(!self.config.async_compile, "an async VM takes no twins");
        assert!(
            !self.config.retain_deopt_args,
            "a retaining VM takes no twins"
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
            stats.retired_instructions = stats
                .retired_instructions
                .wrapping_add_signed(shadow.retired);
            stats.compiled_instructions = stats
                .compiled_instructions
                .wrapping_add_signed(shadow.retired);
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

    /// Runs prefetch op `index` of the top frame's body on every shadow,
    /// at the leader's time `now` in a frame whose ops cost `cost`: one
    /// the leader just ran, with latency `lat` if it had a `target`, or a
    /// `ghost`, which it skipped (`lat` 0). A shadow whose code differs
    /// from the leader's on the op rebases: the op's cost and latency
    /// leave its clock and retired count, or a ghost's join them. Where
    /// its code has the op, the shadow makes it at its own time.
    #[cold]
    pub(crate) fn shadow_prefetch(
        &mut self,
        index: u32,
        kind: PrefetchKind,
        target: Option<Addr>,
        (now, cost): (u64, u64),
        lat: u64,
        ghost: bool,
    ) {
        let code = self.frames.last().expect("a frame runs the op").code;
        let sign = if ghost { 1 } else { -1 };
        for shadow in &mut self.shadows {
            let has = shadow.has(code, index, ghost);
            if has == ghost {
                shadow.offset += sign * (cost + lat) as i64;
                shadow.retired += sign;
            }
            if let Some(addr) = target.filter(|_| has) {
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
    /// has the op — which the leader's lacks if it is a `ghost` — probed
    /// on the cell's memory system before any memory system applies the
    /// prefetch: the one issue-time test of a useless prefetch.
    pub(crate) fn probe_issue(
        &mut self,
        (mid, block): (MethodId, u32),
        index: u32,
        target: Addr,
        kind: PrefetchKind,
        ghost: bool,
    ) {
        for cell in &mut self.cells {
            let Some(adapt) = cell.adapt.as_mut().filter(|_| cell.live) else {
                continue;
            };
            let useless = match cell.shadow {
                None if ghost => continue,
                None => prefetch_useless(&self.mem, kind, target),
                Some(i) => {
                    let code = self.frames.last().expect("a frame runs the op").code;
                    if !self.shadows[i].has(code, index, ghost) {
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

    /// Cell `k`'s compiled body of `mid`.
    pub(crate) fn cell_body(&self, k: usize, mid: MethodId) -> Arc<Function> {
        let own = self.cells[k].bodies[mid.index()].clone();
        own.expect("a compiled body")
    }

    /// Books `f` on cell `k`'s own counters: [`Vm::stats`] for cell 0,
    /// else those of [`VmStats`] a twin keeps for itself.
    pub(crate) fn count(&mut self, k: usize, f: impl FnOnce(&mut VmStats)) {
        f(match k {
            0 => &mut self.stats,
            _ => &mut self.cells[k].own,
        });
    }

    /// The one install road: makes each `(k, body, cycles)` of `new` cell
    /// `k`'s body of `mid`, made at a JIT cost of `cycles` (a cell not in
    /// `new` pays nothing), and installs the union of every live cell's
    /// body. Folds [`union`] over the bodies, cell 0's first, and ends
    /// each twin whose body has none. Unless the union is the installed
    /// code, decodes it with the ops cell 0 lacks as ghosts, before
    /// anything changes: decode refuses an ill-typed body. Charges cell
    /// 0's cycles to the clock, and takes a new [`CodeId`] only while a
    /// frame runs the old one, so that frame keeps every class's old mask,
    /// as a cell's own VM's older frames keep its old body. Then regroups
    /// the live twins by class, each with its cycles beyond cell 0's.
    pub(crate) fn install(&mut self, mid: MethodId, new: Vec<(usize, Function, u64)>) {
        let mut cycles = vec![0; self.cells.len()];
        let mut bodies: Vec<_> = (self.cells.iter())
            .map(|c| c.bodies[mid.index()].clone())
            .collect();
        for (k, func, jit) in new {
            (bodies[k], cycles[k]) = (Some(Arc::new(func)), jit);
        }
        let body_of = |k: usize| bodies[k].as_ref().expect("a compiled body");
        let mut run = Arc::clone(body_of(0));
        let ops = run.instr_sites().filter(|&s| is_prefetch(run.instr(s)));
        // Each cell's mask over `run`, cell 0's first.
        let mut masks = vec![(0, vec![true; ops.count()])];
        let mut ended = Vec::new();
        for k in (1..self.cells.len()).filter(|&k| self.cells[k].live) {
            let Some(union) = union(&run, body_of(k)) else {
                ended.push(k);
                continue;
            };
            for (_, mask) in &mut masks {
                *mask = union.carry(mask);
            }
            masks.push((k, union.mask));
            run = Arc::new(union.body);
        }
        let (_, own) = masks.remove(0);
        // Without ghosts the list is empty.
        let ghosts: Vec<bool> = match own.contains(&false) {
            true => own.iter().map(|has| !has).collect(),
            false => Vec::new(),
        };
        let old = self.compiled[mid.index()];
        let installed = old.map(|c| Arc::clone(&body(&self.codes, c).tcode));
        let tcode = match installed.filter(|t| *t.src == *run && *t.ghosts == *ghosts) {
            Some(tcode) => tcode,
            None => {
                let layout = self.heap.layout_tables();
                Arc::new(decode(&self.program, layout, &run, self.fuse, &ghosts))
            }
        };
        for k in ended {
            self.cells[k].live = false;
        }
        for (cell, body) in self.cells.iter_mut().zip(bodies) {
            cell.bodies[mid.index()] = body;
        }
        self.stats.jit_cycles += cycles[0];
        self.stats.cycles += cycles[0];
        let code = match old {
            Some(old) if self.frames.iter().all(|f| f.code != old) => old,
            _ => {
                if let Some(old) = old {
                    self.retire(old);
                }
                self.codes.push(None);
                let code = self.codes.len() as CodeId - 1;
                self.compiled[mid.index()] = Some(code);
                code
            }
        };
        self.codes[code as usize] = Some(Installed {
            tcode,
            compiled: true,
        });
        let jit = |k: usize| cycles[k] as i64 - cycles[0] as i64;
        let changes: Vec<_> = (masks.into_iter())
            .map(|(k, mask)| (k, relative(mask, &ghosts), jit(k)))
            .collect();
        self.recode(code, &changes);
    }

    /// Gives each twin `k` of `changes` — which names every live twin —
    /// the mask for the installed body `code` and the JIT cycles `jit`
    /// beyond the leader's that come with it, and moves it onto the shadow
    /// of its new class: the twins of one old class that agree on both.
    /// The first new class of an old one keeps its memory system, unless
    /// it is the leader's (which only a class still running the leader's
    /// code at the leader's clock keeps); every other class gets a copy of
    /// the old one's.
    fn recode(&mut self, code: CodeId, changes: &[(usize, Mask, i64)]) {
        let named = |k: usize| changes.iter().any(|c| c.0 == k);
        debug_assert!((1..self.cells.len()).all(|k| !self.cells[k].live || named(k)));
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
                    Some(i) if classes.iter().all(|c| c.0 != old) => Some(i),
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

    /// Ends every twin whose class's VM would keep other objects than the
    /// collection about to run: where, in a live frame, a `SpecLoad` the
    /// class's code lacks holds the one root of an object the collection
    /// keeps, or a ghost `SpecLoad` its code has holds the one root of an
    /// object the collection frees. `ref_slots` are the stack slots the
    /// collection roots and `roots` all of its roots but those.
    pub(crate) fn check_twin_roots(&mut self, ref_slots: &[usize], roots: &[Addr]) {
        let heap = &self.heap;
        let rooted = |slot: &usize| {
            let a = self.stack[*slot];
            (a != NULL && heap.contains(a)).then_some(a)
        };
        let mut all: Vec<Addr> = roots.to_vec();
        all.extend(ref_slots.iter().filter_map(rooted));
        let mut ended = Vec::new();
        for (i, shadow) in self.shadows.iter().enumerate() {
            // The slots the collection roots and the class's VM does not,
            // and the other way round.
            let (mut dropped, mut held) = (HashSet::new(), Vec::new());
            for f in &self.frames {
                let Some(Some(mask)) = shadow.masks.get(f.code as usize) else {
                    continue;
                };
                let tcode = &body(&self.codes, f.code).tcode;
                let src = &tcode.src;
                let ops = src.instr_sites().map(|s| src.instr(s));
                for (n, op) in ops.filter(|i| is_prefetch(i)).enumerate() {
                    let Instr::SpecLoad { dst, .. } = op else {
                        continue;
                    };
                    match (mask[n], tcode.ghosts.get(n) == Some(&true)) {
                        (false, false) => _ = dropped.insert(f.base + dst.index()),
                        (true, true) => held.push(f.base + dst.index()),
                        _ => {}
                    }
                }
            }
            let extra: Vec<Addr> = dropped.iter().filter_map(rooted).collect();
            let held: Vec<Addr> = held.iter().filter_map(rooted).collect();
            if extra.is_empty() && held.is_empty() {
                continue;
            }
            let mut own: Vec<Addr> = roots.to_vec();
            own.extend(
                ref_slots
                    .iter()
                    .filter(|s| !dropped.contains(s))
                    .filter_map(rooted),
            );
            own.extend(&held);
            if !heap.reaches(&own, &extra) || !heap.reaches(&all, &held) {
                ended.push(i);
            }
        }
        for twin in &mut self.cells {
            twin.live &= !twin.shadow.is_some_and(|i| ended.contains(&i));
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
            shadow.retired = 0;
            shadow.jit_delta = 0;
        }
    }
}

/// `mask` over a body whose ops the leader's code lacks are `ghosts` (none
/// if empty), or `None` if it has the leader's ops.
fn relative(mask: Vec<bool>, ghosts: &[bool]) -> Mask {
    let leaders = |(i, has): (usize, &bool)| *has != (ghosts.get(i) == Some(&true));
    (!mask.iter().enumerate().all(leaders)).then(|| mask.into_boxed_slice())
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

    /// The prefetch ops of `f`, in the order decode numbers them.
    fn ops(f: &Function) -> Vec<Instr> {
        let ops = f.instr_sites().map(|s| f.instr(s).clone());
        ops.filter(is_prefetch).collect()
    }

    #[test]
    fn a_body_and_its_subsets_add_nothing() {
        let l = leader();
        let u = union(&l, &l).expect("a union");
        assert_eq!((u.body, u.mask), (l.clone(), vec![true; 5]));
        let (base, _) = walk();
        let u = union(&l, &base).expect("a union");
        assert_eq!((u.body, u.mask), (l, vec![false; 5]));
    }

    /// A patch strips `SpecLoad`s but leaves their destinations declared:
    /// a twin body with registers no op names, past the run body's
    /// `reg_count`, still has a union with it.
    #[test]
    fn a_register_no_op_names_is_no_difference() {
        let p = Reg::new(0);
        let mut twin = leader();
        let entry = twin.entry();
        let instrs = &mut twin.block_mut(entry).instrs;
        instrs.retain(|i| !is_prefetch(i) || *i == prefetch(p, 64));
        let run = with(walk().0, 0, prefetch(p, 64));
        assert_eq!(twin.reg_count(), run.reg_count() + 2);
        let u = union(&run, &twin).expect("a union");
        assert_eq!((u.body, u.mask), (run, vec![true]));
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
        let u = union(&l, &twin).expect("a union");
        assert_eq!(u.mask, [true, true, false, false, true]);
    }

    /// An op only the twin has joins the union where its order keeps, and
    /// every old mask lacks it.
    #[test]
    fn a_twin_only_op_joins_the_union() {
        let l = leader();
        let twin = with(l.clone(), 0, prefetch(Reg::new(0), 128));
        let u = union(&l, &twin).expect("a union");
        assert_eq!(u.body, twin);
        assert_eq!(u.mask, [true; 6]);
        assert_eq!(u.carry(&[true; 5]), [false, true, true, true, true, true]);
        let old = [false, true, false, true, false];
        assert_eq!(u.carry(&old), [false, false, true, false, true, false]);
        // The twin's ops after a shared one stay after it.
        let (base, _) = walk();
        let run = with(base.clone(), 0, prefetch(Reg::new(0), 64));
        let twin = with(run.clone(), 1, prefetch(Reg::new(0), 8));
        let u = union(&run, &twin).expect("a union");
        assert_eq!(ops(&u.body), ops(&twin));
        assert_eq!(u.carry(&[true]), [true, false]);
    }

    #[test]
    fn another_prefetch_kind_is_another_op() {
        let (base, _) = walk();
        let l = with(base.clone(), 0, prefetch(Reg::new(0), 64));
        let guarded = Instr::Prefetch {
            addr: field(Reg::new(0), 64),
            kind: PrefetchKind::GuardedLoad,
        };
        let twin = with(base, 0, guarded.clone());
        let u = union(&l, &twin).expect("a union");
        assert_eq!(ops(&u.body), [prefetch(Reg::new(0), 64), guarded]);
        assert_eq!(u.mask, [false, true]);
        assert_eq!(u.carry(&[true]), [true, false]);
    }

    /// A `SpecLoad` only the twin has writes a fresh register of the
    /// union, and the twin's prefetch through it reads that register.
    #[test]
    fn a_twin_only_specload_gets_a_fresh_register() {
        let (base, _) = walk();
        let p = Reg::new(0);
        let run = with(base.clone(), 0, prefetch(p, 64));
        let mut twin = base;
        let c = twin.new_reg(Ty::Ref);
        let spec = Instr::SpecLoad {
            dst: c,
            addr: field(p, 16),
        };
        for (i, op) in [spec, prefetch(c, 0), prefetch(p, 64)]
            .into_iter()
            .enumerate()
        {
            twin = with(twin, i, op);
        }
        let u = union(&run, &twin).expect("a union");
        let fresh = Reg::new(run.reg_count());
        assert_eq!(u.body.reg_count(), run.reg_count() + 1);
        assert_eq!(u.body.reg_ty(fresh), Ty::Ref);
        let spec = Instr::SpecLoad {
            dst: fresh,
            addr: field(p, 16),
        };
        assert_eq!(ops(&u.body), [spec, prefetch(fresh, 0), prefetch(p, 64)]);
        assert_eq!(u.mask, [true; 3]);
        assert_eq!(u.carry(&[true]), [false, false, true]);
    }

    /// A `SpecLoad` of the run body the twin lacks must not write a
    /// register the twin's ops are renamed onto.
    #[test]
    fn a_specload_the_twin_lacks_must_not_clobber_its_register() {
        let (base, _) = walk();
        let p = Reg::new(0);
        let mut run = base.clone();
        let a = run.new_reg(Ty::Ref);
        let spec = |delta| Instr::SpecLoad {
            dst: a,
            addr: field(p, delta),
        };
        let twin = with(with(run.clone(), 0, spec(16)), 1, prefetch(a, 0));
        let run = with(with(twin.clone(), 0, spec(24)), 0, prefetch(p, 8));
        assert_eq!(union(&run, &twin).map(|u| u.mask), None);
        // Without the second writer it matches.
        let run = with(twin.clone(), 0, prefetch(p, 8));
        assert_eq!(
            union(&run, &twin).map(|u| u.mask),
            Some(vec![false, true, true])
        );
    }

    #[test]
    fn a_non_prefetch_difference_has_no_union() {
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
        assert!(union(&l, &twin).is_none());
        // A plain op that reads a `SpecLoad` destination is no prefetch
        // op: the leader's values there are not the twin's.
        let a = Reg::new(walk().0.reg_count());
        let moved = with(l.clone(), 5, Instr::Move { dst: a, src: a });
        assert!(union(&moved, &moved).is_none());
    }

    #[test]
    fn a_terminator_difference_has_no_union() {
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
        assert!(union(&l, &twin).is_none());
    }
}
