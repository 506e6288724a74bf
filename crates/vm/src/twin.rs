//! Mode twins: another prefetch configuration compiled alongside a
//! [`Vm`]'s own, so one simulated run can stand for every mode whose JIT
//! output it reproduces.
//!
//! At each JIT compile of the leader, every live twin runs its own
//! prefetch pipeline on the same base body, heap, statics, arguments and
//! processor, and its output is compared with the leader's. A twin stays
//! live only while every body it produces equals the leader's — and, for a
//! twin with adaptive guards, while no body carries a `Prefetch`/`SpecLoad`
//! site, since a site would give it live loop guards the leader does not
//! run. A live twin's run is then the leader's run: the same bodies
//! execute on the same heap, so every simulated counter but its own
//! compile-time reports and inspection cost is the leader's.

use spf_core::{MethodReport, PrefetchOptions, StridePrefetcher};
use spf_heap::Value;
use spf_ir::{Function, Instr};
use spf_memsim::ProcessorConfig;
use spf_trace::TraceSink;

use crate::vm::Vm;

/// One twin of a [`Vm`] (see [`Vm::add_twin`]); read through
/// [`Vm::twins`].
#[derive(Clone, Debug)]
pub struct Twin {
    /// The twin's prefetch configuration.
    pub options: PrefetchOptions,
    /// Whether every install so far was a leader JIT compile whose body
    /// the twin reproduced (see the module docs).
    pub live: bool,
    /// The twin's optimization reports, one per compile it reproduced.
    pub reports: Vec<MethodReport>,
    /// The twin's inspection cost since the last
    /// [`Vm::reset_measurement`], the counterpart of
    /// [`VmStats::inspection_cycles`](crate::VmStats::inspection_cycles).
    pub inspection_cycles: u64,
}

/// Whether `func` carries a prefetch site.
fn has_site(func: &Function) -> bool {
    func.instr_sites().any(|s| {
        matches!(
            func.instr(s),
            Instr::Prefetch { .. } | Instr::SpecLoad { .. }
        )
    })
}

impl<S: TraceSink> Vm<S> {
    /// Adds a twin compiled with `options` (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics unless this VM is untraced (a twin has no event stream of
    /// its own), compiles synchronously (a background compile's cost
    /// estimate depends on the mode), has no adaptive guards (only a
    /// leader that never patches installs every body through the JIT) and
    /// has compiled nothing yet.
    pub fn add_twin(&mut self, options: PrefetchOptions) {
        assert!(!S::ENABLED, "a traced VM takes no twins");
        assert!(!self.config.async_compile, "an async VM takes no twins");
        assert!(!self.adaptive, "an adaptive VM takes no twins");
        assert!(
            self.compiled_generations().next().is_none(),
            "twins join before the first compile"
        );
        self.twins.push(Twin {
            options,
            live: true,
            reports: Vec::new(),
            inspection_cycles: 0,
        });
    }

    /// The twins, in the order they were added.
    pub fn twins(&self) -> &[Twin] {
        &self.twins
    }

    /// Runs every live twin's pipeline on the inputs the leader's compile
    /// just used and keeps live those that reproduced `leader`. Emits no
    /// event and charges nothing to [`Vm::stats`].
    pub(crate) fn compile_twins(
        &mut self,
        base: &Function,
        args: &[Value],
        proc: &ProcessorConfig,
        leader: &Function,
    ) {
        if self.twins.iter().all(|t| !t.live) {
            return;
        }
        let site = has_site(leader);
        for twin in self.twins.iter_mut().filter(|t| t.live) {
            if site && twin.options.mode.adaptive_guards() {
                twin.live = false;
                continue;
            }
            let outcome = StridePrefetcher::new(twin.options.clone()).optimize(
                &self.program,
                base,
                &self.heap,
                &self.statics,
                args,
                proc,
            );
            twin.live = outcome.func == *leader;
            if twin.live {
                twin.inspection_cycles += outcome.report.inspection_cycles();
                twin.reports.push(outcome.report);
            }
        }
    }

    /// Ends every twin: an install the leader's JIT did not make (or an
    /// eviction) is one no twin reproduced.
    pub(crate) fn diverge_twins(&mut self) {
        for twin in &mut self.twins {
            twin.live = false;
        }
    }

    /// Restarts the twins' measurement counters, with [`Vm::stats`].
    pub(crate) fn reset_twins(&mut self) {
        for twin in &mut self.twins {
            twin.inspection_cycles = 0;
        }
    }
}
