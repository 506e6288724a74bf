//! The invariants every matrix cell must satisfy, each stated once.
//!
//! A check takes what a run produced and returns the violations it found
//! as text, empty when the cell is clean — so `spf-lint` and
//! `figures --trace` print them and exit non-zero, a test asserts there
//! are none, and a harness over *generated* programs can call the very
//! same functions. Strengthen an invariant here and every gate gets
//! stronger with it.

use spf_analysis::{lint, provenance, LintConfig, Provenance, ProvenanceConfig, SiteProvenance};
use spf_ir::verify::verify_all;
use spf_ir::Program;
use spf_memsim::{MemStats, ProcessorConfig};
use spf_trace::{Attribution, SiteEffect, TraceSink};
use spf_vm::Vm;

/// A workload's original (pre-JIT) method bodies pass the structural
/// verifier and the full lint with no policy constraint.
pub fn originals(name: &str, program: &Program) -> Vec<String> {
    let mut violations = Vec::new();
    for mid in program.method_ids() {
        let func = program.method(mid).func();
        for e in verify_all(program, func) {
            violations.push(format!("{name}: {}: verify: {e}", func.name()));
        }
        for f in lint(func, &LintConfig::default()) {
            violations.push(format!("{name}: {}: lint: {f}", func.name()));
        }
    }
    violations
}

/// What [`generations`] found in one VM.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Generations {
    /// Verifier, lint and provenance findings, each prefixed
    /// `METHOD gN: KIND:`.
    pub violations: Vec<String>,
    /// Compiled bodies checked (every generation counts).
    pub compiled: usize,
    /// Emitted prefetch sites tagged static, over all generations.
    pub static_sites: usize,
    /// Emitted prefetch sites tagged dynamic.
    pub dynamic_sites: usize,
    /// Emitted prefetch sites tagged hybrid.
    pub hybrid_sites: usize,
}

/// Every body the VM ever installed — patched, repatched and recompiled
/// generations included, not just the bodies still live — passes the
/// structural verifier, the lint under the guarded-load policy resolved
/// for `proc`, and the provenance lint against the reports of its own
/// compilation. Reports are paired with bodies by (method name,
/// generation): the history and the report list are not positionally
/// aligned when bodies are installed out of band.
pub fn generations<S: TraceSink>(vm: &Vm<S>, proc: &ProcessorConfig) -> Generations {
    let options = &vm.config().prefetch;
    let config = LintConfig {
        policy: options
            .guarded_policy
            .lint_check(proc.swpf_drops_on_tlb_miss),
    };
    let pcfg = ProvenanceConfig {
        static_first: options.mode.static_first(),
    };
    let mut out = Generations::default();
    for (_mid, generation, func) in vm.compiled_generations() {
        out.compiled += 1;
        let at = format!("{} g{generation}", func.name());
        for e in verify_all(vm.program(), func) {
            out.violations.push(format!("{at}: verify: {e}"));
        }
        for f in lint(func, &config) {
            out.violations.push(format!("{at}: lint: {f}"));
        }
        let records: Vec<SiteProvenance> = vm
            .reports()
            .iter()
            .filter(|r| r.method == func.name() && r.generation == generation)
            .flat_map(|r| r.provenance_records().cloned())
            .collect();
        for r in &records {
            match r.provenance {
                Provenance::Static => out.static_sites += 1,
                Provenance::Dynamic => out.dynamic_sites += 1,
                Provenance::Hybrid => out.hybrid_sites += 1,
            }
        }
        for f in provenance::check(func, &pcfg, &records) {
            out.violations.push(format!("{at}: provenance: {f}"));
        }
    }
    out
}

/// `WHAT: got != want` for every row whose two numbers differ.
fn unequal(rows: &[(&str, u64, u64)]) -> Vec<String> {
    let differ = rows.iter().filter(|(_, got, want)| got != want);
    differ
        .map(|(what, got, want)| format!("{what}: {got} != {want}"))
        .collect()
}

/// The per-site attribution partitions the issued prefetches exactly and
/// reconciles with the memory system's aggregate counters: every issued
/// prefetch is classified into exactly one bucket, the per-site issue
/// counts sum to the aggregate, and the dropped, guarded and
/// hardware-fill totals equal their `MemStats` counters.
pub fn attribution(mem: &MemStats, attr: &Attribution) -> Vec<String> {
    let issued = mem.swpf_issued + mem.guarded_loads;
    let total = |f: fn(&SiteEffect) -> u64| attr.total(f);
    let classified = total(|e| e.useful() + e.too_early() + e.too_late() + e.dropped());
    let (dropped, guarded) = (total(|e| e.dropped()), total(|e| e.guarded_issued));
    let hw = attr.hw_prefetch_fills;
    unequal(&[
        ("classified vs issued", classified, issued),
        ("per-site issued vs issued", total(|e| e.issued()), issued),
        ("dropped vs swpf_dropped_tlb", dropped, mem.swpf_dropped_tlb),
        ("guarded vs guarded_loads", guarded, mem.guarded_loads),
        ("hw fills vs hw_prefetch_fills", hw, mem.hw_prefetch_fills),
    ])
}

/// Every recompile and every per-loop invalidation / repatch the VM
/// counted has exactly one trace event. `events` are the attributions of
/// the streams the counters span (a matrix cell: warm-up plus best run).
pub fn adaptive_counters(
    recompiles: u64,
    loop_deopts: u64,
    loop_repatches: u64,
    events: &[&Attribution],
) -> Vec<String> {
    let seen = |f: fn(&Attribution) -> u64| events.iter().map(|a| f(a)).sum();
    let recompiled = seen(|a| a.recompiles);
    let (invalidated, repatched) = (seen(|a| a.loop_invalidated), seen(|a| a.loop_repatched));
    unequal(&[
        ("recompiles vs Recompile", recompiles, recompiled),
        ("loop_deopts vs LoopInvalidated", loop_deopts, invalidated),
        ("loop_repatches vs LoopRepatched", loop_repatches, repatched),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared check must not go vacuous: each counter that is off by
    /// one against its events is named, and only that one.
    #[test]
    fn adaptive_counters_names_the_counter_that_is_off_by_one() {
        let warm = Attribution {
            recompiles: 1,
            loop_invalidated: 2,
            ..Attribution::default()
        };
        let best = Attribution {
            loop_invalidated: 1,
            loop_repatched: 3,
            ..Attribution::default()
        };
        let check = |r, d, p| adaptive_counters(r, d, p, &[&warm, &best]);
        assert_eq!(check(1, 3, 3), Vec::<String>::new());
        for (counters, name) in [
            ((2, 3, 3), "recompiles vs Recompile: 2 != 1"),
            ((1, 4, 3), "loop_deopts vs LoopInvalidated: 4 != 3"),
            ((1, 3, 2), "loop_repatches vs LoopRepatched: 2 != 3"),
        ] {
            let (r, d, p) = counters;
            assert_eq!(check(r, d, p), [name]);
        }
        assert_eq!(check(0, 0, 0).len(), 3);
    }
}
