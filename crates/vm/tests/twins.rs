//! Mode twins: a VM that compiles other prefetch configurations
//! alongside its own runs exactly as it would alone, and a twin stays live
//! only while it reproduces every body the leader installs.

use spf_core::{MethodReport, PrefetchOptions};
use spf_ir::{Function, Instr};
use spf_memsim::ProcessorConfig;
use spf_vm::{NoopSink, Vm};
use spf_workloads::{Prepared, Size};

fn tiny(name: &str) -> Prepared {
    spf_workloads::all()
        .into_iter()
        .find(|s| s.name == name)
        .expect("a registered workload")
        .prepare(Size::Tiny)
}

/// A VM under `options` with `twins`, after the runner's protocol at
/// one measured run: two warm-up calls, a reset, one more call.
fn run(prep: &Prepared, options: PrefetchOptions, twins: &[PrefetchOptions]) -> Vm {
    let mut vm = prep.vm(
        prep.vm_config(&options),
        &ProcessorConfig::pentium4(),
        NoopSink,
    );
    for twin in twins {
        vm.add_twin(twin.clone());
    }
    prep.warm(&mut vm, 2);
    vm.reset_measurement();
    prep.warm(&mut vm, 1);
    vm
}

/// Each report without its host time.
fn simulated(reports: &[MethodReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let r = MethodReport {
                pass_nanos: 0,
                ..r.clone()
            };
            format!("{r:?}")
        })
        .collect()
}

/// Every body the VM installed, in installation order.
fn bodies(vm: &Vm) -> Vec<Function> {
    vm.compiled_generations()
        .map(|(_, _, f)| f.clone())
        .collect()
}

fn has_site(func: &Function) -> bool {
    func.instr_sites().any(|s| {
        matches!(
            func.instr(s),
            Instr::Prefetch { .. } | Instr::SpecLoad { .. }
        )
    })
}

#[test]
fn a_leader_with_twins_runs_as_it_would_alone() {
    let prep = tiny("db");
    let twins = [
        PrefetchOptions::off(),
        PrefetchOptions::inter_intra(),
        PrefetchOptions::adaptive(),
    ];
    let alone = run(&prep, PrefetchOptions::inter(), &[]);
    let twinned = run(&prep, PrefetchOptions::inter(), &twins);
    assert_eq!(twinned.stats().simulated(), alone.stats().simulated());
    assert_eq!(twinned.mem_stats(), alone.mem_stats());
    assert_eq!(simulated(twinned.reports()), simulated(alone.reports()));
    // db's INTER changes no body, so the BASELINE twin lives and has
    // recorded what a BASELINE VM of its own would.
    let live: Vec<bool> = twinned.twins().iter().map(|t| t.live).collect();
    assert_eq!(live, [true, false, false]);
    let baseline = run(&prep, PrefetchOptions::off(), &[]);
    let twin = &twinned.twins()[0];
    assert_eq!(simulated(&twin.reports), simulated(baseline.reports()));
    assert_eq!(twin.inspection_cycles, baseline.stats().inspection_cycles);
}

#[test]
fn a_twin_that_differs_at_the_kth_compile_stays_diverged() {
    let prep = tiny("jess");
    let base = bodies(&run(&prep, PrefetchOptions::off(), &[]));
    let ii = bodies(&run(&prep, PrefetchOptions::inter_intra(), &[]));
    assert_eq!(base.len(), ii.len());
    let k = base
        .iter()
        .zip(&ii)
        .position(|(a, b)| a != b)
        .expect("INTER+INTRA changes a jess body");
    assert!(k > 0, "the twin reproduces at least one compile first");
    // A later compile reproduces the leader's body again; the twin must
    // not come back to life for it.
    assert!(base[k + 1..].iter().zip(&ii[k + 1..]).any(|(a, b)| a == b));
    let twinned = run(
        &prep,
        PrefetchOptions::off(),
        &[PrefetchOptions::inter_intra()],
    );
    let twin = &twinned.twins()[0];
    assert!(!twin.live);
    assert_eq!(twin.reports.len(), k);
}

#[test]
fn an_adaptive_twin_diverges_at_the_first_site_although_the_bodies_are_equal() {
    let prep = tiny("db");
    let ii = bodies(&run(&prep, PrefetchOptions::inter_intra(), &[]));
    let adaptive = bodies(&run(&prep, PrefetchOptions::adaptive(), &[]));
    let j = ii
        .iter()
        .position(has_site)
        .expect("a db body carries a site");
    assert_eq!(ii[..=j], adaptive[..=j]);
    let twinned = run(
        &prep,
        PrefetchOptions::inter_intra(),
        &[PrefetchOptions::adaptive()],
    );
    let twin = &twinned.twins()[0];
    assert!(!twin.live);
    assert_eq!(twin.reports.len(), j);
}
