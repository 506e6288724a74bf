//! Execution statistics.

/// Per-method cycle attribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MethodCycles {
    /// Cycles spent executing this method's compiled code.
    pub compiled: u64,
    /// Cycles spent interpreting this method.
    pub interpreted: u64,
    /// Times the method was invoked.
    pub invocations: u64,
}

/// Counters accumulated by a [`crate::Vm`] run.
///
/// `PartialEq` compares every field, including the two host-time fields
/// (`jit_nanos`, `prefetch_pass_nanos`) — the only ones that vary between
/// runs of one program; differential tests compare
/// [`simulated`](Self::simulated) copies from the first call.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VmStats {
    /// Simulated cycles elapsed (execution + memory stalls + GC + charged
    /// JIT time).
    pub cycles: u64,
    /// Instructions retired (including inserted prefetch instructions).
    pub retired_instructions: u64,
    /// Instructions retired while interpreting.
    pub interpreted_instructions: u64,
    /// Instructions retired in compiled code.
    pub compiled_instructions: u64,
    /// Methods JIT-compiled.
    pub methods_compiled: u64,
    /// Wall-clock nanoseconds spent in JIT compilation (all passes).
    /// Pinned by `benchmark/src/matrix.rs:307` until ROADMAP 4(B).
    pub jit_nanos: u128,
    /// Wall-clock nanoseconds of `jit_nanos` spent in the prefetching pass.
    /// Pinned by `benchmark/src/matrix.rs:307` until ROADMAP 4(B).
    pub prefetch_pass_nanos: u128,
    /// Cycles charged to the simulated clock for JIT compilation.
    pub jit_cycles: u64,
    /// Garbage collections performed.
    pub gc_count: u64,
    /// Cycles charged for garbage collection.
    pub gc_cycles: u64,
    /// Whole-method adaptive deoptimizations. Always 0 since staleness
    /// went per-loop (see `loop_deopts`); pinned by
    /// `benchmark/src/matrix.rs:344`, which reads `warm.deopts + best.deopts`.
    pub deopts: u64,
    /// Full adaptive recompilations (a new generation of the whole body,
    /// e.g. after a code-cache eviction re-crosses the threshold).
    pub recompiles: u64,
    /// Per-loop invalidations: loops whose guard went stale and whose
    /// prefetch sites were patched to no-ops. The rest of the compiled
    /// body keeps running (adaptive guards only).
    pub loop_deopts: u64,
    /// Per-loop repatches: invalidated loops re-inspected through the
    /// normal pipeline and their sites re-emitted into the installed
    /// body.
    pub loop_repatches: u64,
    /// Recompilations whose re-inspection re-agreed on prefetchable
    /// strides (the fresh body contains at least one prefetch site).
    pub reagreed: u64,
    /// Compiled bodies evicted by an external code cache
    /// ([`crate::Vm::evict_compiled`]; only the serving layer evicts).
    pub code_evictions: u64,
    /// Deterministic cycles attributed to object inspection across all
    /// compilations (the compile-time cost model). A pure counter, like
    /// `deopts`/`recompiles`: never added to `cycles`, so the simulated
    /// clock of the pre-existing modes is untouched.
    pub inspection_cycles: u64,
    /// Always 0: no mode skips inspection for a proved site. Pinned by
    /// `benchmark/src/matrix.rs:350` and `benchmark/src/serve.rs:343`,
    /// which read it, until ROADMAP 4(C).
    pub static_sites: u64,
    /// Per-method cycles, indexed by method id.
    pub per_method: Vec<MethodCycles>,
}

impl VmStats {
    /// A copy with the two host-time fields zeroed: everything the
    /// simulation itself determines.
    pub fn simulated(&self) -> VmStats {
        VmStats {
            jit_nanos: 0,
            prefetch_pass_nanos: 0,
            ..self.clone()
        }
    }

    /// Fraction of execution cycles spent in compiled code (Table 3's last
    /// column). GC and JIT cycles are excluded from the denominator.
    pub fn compiled_code_fraction(&self) -> f64 {
        let compiled: u64 = self.per_method.iter().map(|m| m.compiled).sum();
        let interp: u64 = self.per_method.iter().map(|m| m.interpreted).sum();
        if compiled + interp == 0 {
            0.0
        } else {
            compiled as f64 / (compiled + interp) as f64
        }
    }

    /// Fraction of total execution the JIT compiler accounts for (Figure
    /// 11's right bars).
    pub fn jit_time_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.jit_cycles as f64 / self.cycles as f64
        }
    }

    /// Share of the compile-time cost model spent inspecting objects,
    /// `inspection_cycles / (jit_cycles + inspection_cycles)` (Figure 11's
    /// left bars, where the paper measures host time and reports < 3%).
    /// Both counters are simulated, so the share is the same on every host;
    /// the host ratio `prefetch_pass_nanos / jit_nanos` is left to whoever
    /// reads the two host-time fields.
    pub fn prefetch_pass_fraction(&self) -> f64 {
        let total = self.jit_cycles + self.inspection_cycles;
        if total == 0 {
            0.0
        } else {
            self.inspection_cycles as f64 / total as f64
        }
    }
}

/// Call-site inline-cache counters. Calls have no cache, so both read 0
/// (see [`crate::Vm::pic_stats`], which `benchmark/` pins).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PicStats {
    /// Calls resolved by a cache hit.
    pub hits: u64,
    /// Calls resolved without one.
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let mut s = VmStats::default();
        assert_eq!(s.compiled_code_fraction(), 0.0);
        s.per_method.push(MethodCycles {
            compiled: 75,
            interpreted: 25,
            invocations: 1,
        });
        assert!((s.compiled_code_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(s.prefetch_pass_fraction(), 0.0);
        s.jit_cycles = 975;
        s.inspection_cycles = 25;
        // Host time does not enter it.
        s.jit_nanos = 1000;
        s.prefetch_pass_nanos = 999;
        assert!((s.prefetch_pass_fraction() - 0.025).abs() < 1e-12);
    }
}
