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
    pub jit_nanos: u128,
    /// Wall-clock nanoseconds of `jit_nanos` spent in the prefetching pass.
    pub prefetch_pass_nanos: u128,
    /// Cycles charged to the simulated clock for JIT compilation.
    pub jit_cycles: u64,
    /// Garbage collections performed.
    pub gc_count: u64,
    /// Cycles charged for garbage collection.
    pub gc_cycles: u64,
    /// Whole-method adaptive deoptimizations. Always 0 since staleness
    /// went per-loop (see `loop_deopts`); kept so pre-existing reports
    /// and parsers keep their column.
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
    /// Prefetch candidate sites whose stride was statically proved and
    /// therefore excluded from object inspection (STATIC-FIRST only).
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

    /// Fraction of JIT compilation time spent in the prefetching pass
    /// (Figure 11's left bars; the paper's headline is < 3%).
    pub fn prefetch_pass_fraction(&self) -> f64 {
        if self.jit_nanos == 0 {
            0.0
        } else {
            self.prefetch_pass_nanos as f64 / self.jit_nanos as f64
        }
    }
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
        s.jit_nanos = 1000;
        s.prefetch_pass_nanos = 25;
        assert!((s.prefetch_pass_fraction() - 0.025).abs() < 1e-12);
    }
}
