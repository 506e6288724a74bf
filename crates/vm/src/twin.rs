//! Twins: other cells — a prefetch configuration on a processor —
//! simulated alongside a [`Vm`]'s own, so one run stands for every cell
//! whose run it reproduces.
//!
//! Three rules make a live twin's numbers those of a VM of its own:
//!
//! - **Equal bodies.** At each JIT compile of the leader, every live twin
//!   runs its own prefetch pipeline, with its own processor, on the same
//!   base body, heap, statics and arguments, and stays live only while
//!   every body it produces equals the leader's. The same bodies then
//!   execute on the same heap, so the instruction stream, the retired
//!   counts and the allocation, GC and JIT charges are the leader's.
//! - **Its own processor's clock.** Only the memory system's stalls
//!   depend on the processor. A twin on the leader's processor reads the
//!   leader's memory system. The twins on another processor share one
//!   *shadow* memory system, which every load, store, software prefetch
//!   and guarded load of the leader's reaches too, at the leader's clock
//!   plus the shadow's *offset*: its summed stall minus the leader's. The
//!   twin's clock is the leader's plus the offset, and at each frame
//!   flush the change in the offset since the segment began goes into its
//!   per-method cycles.
//! - **Guards that never fire.** A twin with adaptive guards keeps its own
//!   [`AdaptState`]: its compiles register their bodies, every prefetch
//!   issue is probed on its own processor's memory system before any
//!   memory system applies it, and every call of a compiled method runs
//!   the checks an adaptive VM runs there. The first loop they would
//!   patch or repatch ends the twin, since from there on its VM would run
//!   other code.
//!
//! A twin's compile-time reports and inspection cost are its own; every
//! other counter is the leader's, rebased onto the twin's clock.

use spf_adapt::AdaptState;
use spf_core::{MethodReport, PrefetchOptions, StridePrefetcher};
use spf_heap::{Addr, Value};
use spf_ir::{Function, MethodId, PrefetchKind};
use spf_memsim::{CacheLevel, MemStats, MemorySystem, ProcessorConfig};
use spf_trace::TraceSink;

use crate::stats::{MethodCycles, VmStats};
use crate::vm::Vm;

/// One twin of a [`Vm`] (see [`Vm::add_twin`]); read through
/// [`Vm::cell`].
#[derive(Clone, Debug)]
pub(crate) struct Twin {
    options: PrefetchOptions,
    proc: ProcessorConfig,
    /// Whether the twin still reproduces the leader's run: every install
    /// so far was a leader JIT compile whose body it reproduced, and none
    /// of its loop guards fired (see the module docs).
    live: bool,
    /// The twin's optimization reports, one per compile it reproduced.
    reports: Vec<MethodReport>,
    /// The twin's inspection cost since the last
    /// [`Vm::reset_measurement`], the counterpart of
    /// [`VmStats::inspection_cycles`].
    inspection_cycles: u64,
    /// The index of the twin's shadow in `Vm::shadows`, or `None` on the
    /// leader's processor.
    shadow: Option<usize>,
    /// The loop guards of a twin with adaptive guards.
    adapt: Option<AdaptState>,
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

/// The memory system of a processor other than the leader's, shared by
/// the twins on it (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Shadow {
    mem: MemorySystem,
    /// The shadow's clock minus the leader's.
    offset: i64,
    /// `offset` when the current frame segment began.
    seg_offset: i64,
    /// Per-method compiled and interpreted cycles on this processor;
    /// invocations are the leader's.
    per_method: Vec<MethodCycles>,
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
pub(crate) fn prefetch_useless<T: TraceSink>(
    mem: &MemorySystem<T>,
    kind: PrefetchKind,
    target: Addr,
) -> bool {
    let level = match kind {
        PrefetchKind::Hardware => mem.config().swpf_target,
        PrefetchKind::GuardedLoad => CacheLevel::L1,
    };
    mem.line_present(level, target)
}

impl<S: TraceSink> Vm<S> {
    /// Adds a twin compiled with `options` on `proc` (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics unless this VM is untraced (a twin has no event stream of
    /// its own), compiles synchronously (a background compile's cost
    /// estimate depends on the mode), has no adaptive guards (only a
    /// leader that never patches installs every body through the JIT) and
    /// has compiled nothing yet.
    pub fn add_twin(&mut self, options: PrefetchOptions, proc: ProcessorConfig) {
        assert!(!S::ENABLED, "a traced VM takes no twins");
        assert!(!self.config.async_compile, "an async VM takes no twins");
        assert!(!self.adaptive, "an adaptive VM takes no twins");
        assert!(
            self.compiled_generations().next().is_none(),
            "twins join before the first compile"
        );
        let shadow = (proc != *self.mem.config()).then(|| {
            let found = self.shadows.iter().position(|s| *s.mem.config() == proc);
            found.unwrap_or_else(|| {
                self.shadows.push(Shadow {
                    mem: MemorySystem::new(proc.clone()),
                    offset: 0,
                    seg_offset: 0,
                    per_method: vec![MethodCycles::default(); self.program.method_count()],
                });
                self.shadows.len() - 1
            })
        });
        let adapt = (options.mode.adaptive_guards()).then(|| AdaptState::new(self.config.adapt));
        self.twins.push(Twin {
            options,
            proc,
            live: true,
            reports: Vec::new(),
            inspection_cycles: 0,
            shadow,
            adapt,
        });
    }

    /// Cell `k`: the VM's own for `k = 0`, else twin `k − 1` in the order
    /// the twins were added. A live twin's statistics are the leader's,
    /// with the clock and the per-method cycles of the twin's processor
    /// and the twin's own inspection cost.
    pub fn cell(&self, k: usize) -> CellRun<'_> {
        let Some(twin) = k.checked_sub(1).map(|k| &self.twins[k]) else {
            return CellRun {
                options: &self.config.prefetch,
                proc: self.mem.config(),
                reports: self.reports(),
                run: Some((self.stats.clone(), self.mem.stats())),
            };
        };
        let run = twin.live.then(|| {
            let mut stats = VmStats {
                inspection_cycles: twin.inspection_cycles,
                ..self.stats.clone()
            };
            let Some(i) = twin.shadow else {
                return (stats, self.mem.stats());
            };
            let shadow = &self.shadows[i];
            stats.cycles = stats.cycles.wrapping_add_signed(shadow.offset);
            for (pm, own) in stats.per_method.iter_mut().zip(&shadow.per_method) {
                pm.compiled = own.compiled;
                pm.interpreted = own.interpreted;
            }
            (stats, shadow.mem.stats())
        });
        CellRun {
            options: &twin.options,
            proc: &twin.proc,
            reports: &twin.reports,
            run,
        }
    }

    /// Makes the access the leader just made at `now`, with latency
    /// `lat`, on every shadow, at the shadow's own time.
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

    /// Records a prefetch issue from `block` of `mid` in every live
    /// guarded twin's guards, probed on the twin's own processor's memory
    /// system before any memory system applies the prefetch.
    #[cold]
    pub(crate) fn probe_twins(
        &mut self,
        mid: MethodId,
        block: u32,
        target: Addr,
        kind: PrefetchKind,
    ) {
        for twin in self.twins.iter_mut().filter(|t| t.live) {
            let Some(adapt) = &mut twin.adapt else {
                continue;
            };
            let useless = match twin.shadow {
                Some(i) => prefetch_useless(&self.shadows[i].mem, kind, target),
                None => prefetch_useless(&self.mem, kind, target),
            };
            adapt.record_issue(mid.index(), block, useless);
        }
    }

    /// Runs, for every live guarded twin, the loop checks an adaptive VM
    /// runs at a call of the compiled `mid`, and ends the twins for which
    /// one would patch or repatch a loop.
    #[cold]
    pub(crate) fn check_twin_guards(&mut self, mid: MethodId) {
        let epoch = self.heap.gc_epoch();
        let invocations = u64::from(self.invocations[mid.index()]);
        let mut ended = false;
        for twin in self.twins.iter_mut().filter(|t| t.live) {
            let Some(adapt) = &mut twin.adapt else {
                continue;
            };
            if !adapt.loops_due(mid.index(), invocations, epoch).is_empty()
                || !adapt.check_stale(mid.index(), epoch).is_empty()
            {
                twin.live = false;
                ended = true;
            }
        }
        if ended {
            self.drop_idle_shadows();
        }
    }

    /// Runs every live twin's pipeline on the inputs the leader's compile
    /// of `mid` just used and keeps live those that reproduced `leader`.
    /// Emits no event and charges nothing to [`Vm::stats`].
    pub(crate) fn compile_twins(
        &mut self,
        mid: MethodId,
        base: &Function,
        args: &[Value],
        leader: &Function,
    ) {
        if self.twins.iter().all(|t| !t.live) {
            return;
        }
        let mut owners = None;
        for twin in self.twins.iter_mut().filter(|t| t.live) {
            let outcome = StridePrefetcher::new(twin.options.clone()).optimize(
                &self.program,
                base,
                &self.heap,
                &self.statics,
                args,
                &twin.proc,
            );
            twin.live = outcome.func == *leader;
            if !twin.live {
                continue;
            }
            let mut report = outcome.report;
            if let Some(adapt) = &mut twin.adapt {
                let owners = owners.get_or_insert_with(|| Self::loop_owners(leader));
                report.generation = adapt.on_compile(
                    mid.index(),
                    self.heap.gc_epoch(),
                    owners.clone(),
                    Self::site_blocks(leader),
                );
            }
            twin.inspection_cycles += report.inspection_cycles();
            twin.reports.push(report);
        }
        self.drop_idle_shadows();
    }

    /// Ends every twin: an install the leader's JIT did not make (or an
    /// eviction) is one no twin reproduced.
    pub(crate) fn diverge_twins(&mut self) {
        for twin in &mut self.twins {
            twin.live = false;
        }
        self.shadows.clear();
    }

    /// Drops the shadows no live twin runs on, so the run loop stops
    /// feeding them.
    fn drop_idle_shadows(&mut self) {
        let mut used = vec![false; self.shadows.len()];
        for twin in self.twins.iter().filter(|t| t.live) {
            if let Some(i) = twin.shadow {
                used[i] = true;
            }
        }
        if used.iter().all(|&u| u) {
            return;
        }
        let mut kept = 0;
        let remap: Vec<Option<usize>> = used
            .iter()
            .map(|&u| {
                kept += usize::from(u);
                u.then(|| kept - 1)
            })
            .collect();
        let mut i = 0;
        self.shadows.retain(|_| {
            i += 1;
            used[i - 1]
        });
        for twin in &mut self.twins {
            twin.shadow = twin.shadow.and_then(|i| remap[i]);
        }
    }

    /// Restarts the twins' measurement counters and their shadows, with
    /// [`Vm::stats`] and the leader's memory system.
    pub(crate) fn reset_twins(&mut self) {
        for twin in &mut self.twins {
            twin.inspection_cycles = 0;
        }
        for shadow in &mut self.shadows {
            shadow.mem.reset();
            shadow.offset = 0;
            shadow.seg_offset = 0;
            shadow.per_method.fill(MethodCycles::default());
        }
    }
}
