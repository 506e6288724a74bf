//! End-to-end correctness: every workload must compute the same checksum
//! under every prefetch configuration — the optimizer may only change
//! *when* memory moves, never what the program computes.

use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::trace::NoopSink;
use stride_prefetch::vm::Vm;
use stride_prefetch::workloads::{self, Prepared, Size};

/// A fresh VM of `prep` under `options` on `proc`.
fn vm_of(prep: &Prepared, options: &PrefetchOptions, proc: &ProcessorConfig) -> Vm {
    prep.vm(prep.vm_config(options), proc, NoopSink)
}

fn checksum(
    spec: &workloads::WorkloadSpec,
    options: PrefetchOptions,
    proc: ProcessorConfig,
) -> (i32, i32) {
    let prep = spec.prepare(Size::Tiny);
    let mut vm = vm_of(&prep, &options, &proc);
    (prep.warm(&mut vm, 1), prep.warm(&mut vm, 1))
}

#[test]
fn all_workloads_agree_across_configurations() {
    for spec in workloads::all() {
        let (base1, base2) = checksum(&spec, PrefetchOptions::off(), ProcessorConfig::pentium4());
        assert_eq!(
            base1, base2,
            "{}: deterministic across repeat invocations",
            spec.name
        );
        for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
            for options in [PrefetchOptions::inter(), PrefetchOptions::inter_intra()] {
                let (c1, c2) = checksum(&spec, options.clone(), proc.clone());
                assert_eq!(
                    (c1, c2),
                    (base1, base2),
                    "{} on {} under {}: prefetching changed the result",
                    spec.name,
                    proc.name,
                    options.mode
                );
            }
        }
    }
}

#[test]
fn compiled_code_runs_after_warmup() {
    for spec in workloads::all() {
        let prep = spec.prepare(Size::Tiny);
        let mut vm = vm_of(
            &prep,
            &PrefetchOptions::inter_intra(),
            &ProcessorConfig::pentium4(),
        );
        prep.warm(&mut vm, 2);
        assert!(
            vm.stats().methods_compiled > 0,
            "{}: nothing was JIT-compiled",
            spec.name
        );
        // Measurement protocol: steady-state run attributes most cycles to
        // compiled code for the compute-heavy workloads.
        vm.reset_measurement();
        prep.warm(&mut vm, 1);
        let frac = vm.stats().compiled_code_fraction();
        // jack and MonteCarlo are interpreter-heavy by design (Table 3);
        // everything must at least execute *some* compiled code.
        assert!(
            frac > 0.01,
            "{}: compiled-code fraction suspiciously low ({frac:.2})",
            spec.name
        );
    }
}

#[test]
fn reports_are_consistent_with_generated_code() {
    // For each workload, the number of prefetch/spec-load instructions in
    // the compiled bodies must equal what the reports claim.
    for spec in workloads::all() {
        let prep = spec.prepare(Size::Tiny);
        let mut vm = vm_of(
            &prep,
            &PrefetchOptions::inter_intra(),
            &ProcessorConfig::pentium4(),
        );
        prep.warm(&mut vm, 2);
        let reported: usize = vm.reports().iter().map(|r| r.total_prefetches).sum();
        let issued = vm.mem_stats().swpf_issued + vm.mem_stats().guarded_loads;
        if reported == 0 {
            assert_eq!(
                issued, 0,
                "{}: prefetches executed but none reported",
                spec.name
            );
        }
    }
}
