//! VM configuration.

use spf_adapt::AdaptConfig;
use spf_core::PrefetchOptions;

/// Cycle cost of executing one instruction in compiled code (memory
/// latencies come on top, from the memory simulator).
pub const COMPILED_INSTR_COST: u64 = 1;

/// Cycle multiplier for interpreted (not yet compiled) code.
pub const INTERP_COST_MULTIPLIER: u64 = 10;

/// Maximum call-stack depth.
pub const MAX_STACK_DEPTH: usize = 4096;

/// Extra cycle cost of a method call/return pair (frame setup).
pub const CALL_OVERHEAD: u64 = 5;

/// Base cycle cost charged for a synchronous JIT compilation, first-time
/// or adaptive recompilation alike. The cost is a deterministic function
/// of the simulation, never of host wall-clock time, so the simulated
/// clock is the same on every host and every run.
pub const RECOMPILE_BASE_CYCLES: u64 = 1_000;

/// Per-instruction cycle cost added to [`RECOMPILE_BASE_CYCLES`], counted
/// over the compiled body.
pub const RECOMPILE_CYCLES_PER_INSTR: u64 = 20;

/// Cycle cost of patching one stale loop's prefetch sites to no-ops
/// (tier-1 invalidation). A code patch, not a compile: far below
/// [`RECOMPILE_BASE_CYCLES`], so invalidating one loop never costs like
/// recompiling the method.
pub const LOOP_PATCH_CYCLES: u64 = 50;

/// Base cycle cost of re-inspecting and repatching one invalidated loop
/// (tier-2 re-entry), plus [`RECOMPILE_CYCLES_PER_INSTR`] per instruction
/// in that loop's blocks. Deterministic, like the recompile constants:
/// repatches run inside measured windows.
pub const LOOP_RECOMPILE_BASE_CYCLES: u64 = 200;

/// Configuration of a [`crate::Vm`].
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Heap capacity in bytes.
    pub heap_bytes: usize,
    /// Invocation count at which a method is JIT-compiled (mixed mode).
    pub compile_threshold: u32,
    /// The prefetching configuration used at JIT compilation.
    pub prefetch: PrefetchOptions,
    /// Adaptive-reprofiling thresholds (only consulted when
    /// `prefetch.mode` is [`spf_core::PrefetchMode::Adaptive`]).
    pub adapt: AdaptConfig,
    /// Decouple compilation from execution, production-JVM style: when a
    /// method crosses the compile threshold the VM *enqueues* a compile
    /// request (drained via [`crate::Vm::take_compile_requests`]) and keeps
    /// interpreting until an external driver — the `spf-serve` compilation
    /// queue — calls [`crate::Vm::compile_pending`]. Off by default: the
    /// matrix's synchronous JIT-at-threshold behavior is untouched.
    pub async_compile: bool,
    /// Retain the arguments of the invocation that triggered each deopt,
    /// so [`crate::Vm::reenqueue_stranded`] can recompile stranded
    /// methods without waiting for re-invocation. Off by default:
    /// retained values are GC roots, and extending liveness would perturb
    /// collection behavior (epochs, moved objects) of every baseline run.
    /// Only the chaos-mode serving harness switches this on.
    pub retain_deopt_args: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_bytes: 64 << 20,
            compile_threshold: 2,
            prefetch: PrefetchOptions::default(),
            adapt: AdaptConfig::default(),
            async_compile: false,
            retain_deopt_args: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_core::PrefetchMode;

    #[test]
    fn defaults() {
        let c = VmConfig::default();
        assert!(c.heap_bytes > 0);
        assert_eq!(c.prefetch.mode, PrefetchMode::InterIntra);
    }
}
