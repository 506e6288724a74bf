//! Twins: a VM that simulates other cells alongside its own runs exactly
//! as it would alone, and a twin stays live only while it reproduces the
//! run of a VM of its own — every body it compiles is the leader's minus
//! some prefetch ops, on its own code class's memory system and clock,
//! patching its own code where its loop guards fire.

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

fn p4() -> ProcessorConfig {
    ProcessorConfig::pentium4()
}

fn athlon() -> ProcessorConfig {
    ProcessorConfig::athlon_mp()
}

/// A fresh VM under `options` on `proc` with `twins`.
fn vm(
    prep: &Prepared,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    twins: &[(PrefetchOptions, ProcessorConfig)],
) -> Vm {
    let mut vm = prep.vm(prep.vm_config(options), proc, NoopSink);
    for (options, proc) in twins {
        vm.add_twin(options.clone(), proc.clone());
    }
    vm
}

/// The runner's protocol at two measured runs — two warm-up calls, then
/// a reset and a call twice — on each VM in lockstep, calling `check`
/// with the VMs and the call's index (0 to 3) after every call.
fn protocol(prep: &Prepared, vms: &mut [Vm], mut check: impl FnMut(&[Vm], usize)) {
    for call in 0..4 {
        for vm in vms.iter_mut() {
            if call >= 2 {
                vm.reset_measurement();
            }
            prep.warm(vm, 1);
        }
        check(vms, call);
    }
}

/// A VM under `options` on `proc` with `twins`, after the whole protocol.
fn run(
    prep: &Prepared,
    options: PrefetchOptions,
    proc: &ProcessorConfig,
    twins: &[(PrefetchOptions, ProcessorConfig)],
) -> Vm {
    let mut vms = [vm(prep, &options, proc, twins)];
    protocol(prep, &mut vms, |_, _| {});
    let [vm] = vms;
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

/// Asserts that the leader `vms[0]` runs as the twin-free `vms[1]` does.
fn assert_leader_alone(vms: &[Vm], call: usize) {
    let (leader, alone) = (&vms[0], &vms[1]);
    assert_eq!(
        leader.stats().simulated(),
        alone.stats().simulated(),
        "leader stats after call {call}"
    );
    assert_eq!(
        leader.mem_stats(),
        alone.mem_stats(),
        "leader memory after call {call}"
    );
}

/// Asserts that cell `k` of `leader` (twin `k - 1`) has run as the
/// standalone `own` VM.
fn assert_twin_is(leader: &Vm, k: usize, own: &Vm, call: usize) {
    let cell = leader.cell(k);
    let Some((stats, mem)) = cell.run else {
        panic!("cell {k} live after call {call}");
    };
    assert_eq!(
        stats.simulated(),
        own.stats().simulated(),
        "cell {k} stats after call {call}"
    );
    assert_eq!(mem, own.mem_stats(), "cell {k} memory after call {call}");
    assert_eq!(simulated(cell.reports), simulated(own.reports()));
}

/// Whether cell `k` of `vm` still has a run of its own.
fn live(vm: &Vm, k: usize) -> bool {
    vm.cell(k).run.is_some()
}

#[test]
fn a_leader_with_twins_runs_as_it_would_alone() {
    let prep = tiny("db");
    let twins = [
        (PrefetchOptions::off(), p4()),
        (PrefetchOptions::inter_intra(), p4()),
        (PrefetchOptions::adaptive(), p4()),
    ];
    let alone = run(&prep, PrefetchOptions::inter(), &p4(), &[]);
    let twinned = run(&prep, PrefetchOptions::inter(), &p4(), &twins);
    assert_eq!(twinned.stats().simulated(), alone.stats().simulated());
    assert_eq!(twinned.mem_stats(), alone.mem_stats());
    assert_eq!(simulated(twinned.reports()), simulated(alone.reports()));
    // Cell 0 is the VM's own.
    assert_twin_is(&twinned, 0, &alone, 3);
    // db's INTER changes no body, so the BASELINE twin lives and has
    // recorded what a BASELINE VM of its own would.
    let twins_live: Vec<bool> = (1..=3).map(|k| live(&twinned, k)).collect();
    assert_eq!(twins_live, [true, false, false]);
    let baseline = run(&prep, PrefetchOptions::off(), &p4(), &[]);
    assert_twin_is(&twinned, 1, &baseline, 3);
    let (stats, _) = twinned.cell(1).run.expect("live");
    assert_eq!(stats.inspection_cycles, baseline.stats().inspection_cycles);
}

/// A BASELINE twin on the Athlon of a BASELINE leader on the Pentium 4
/// reads a shadow memory system at its own clock: after every call of the
/// protocol its counters are a standalone Athlon VM's, on db (memory
/// bound, with GCs) and on jess (dispatch bound), and the leader's are a
/// twin-free VM's.
#[test]
fn a_twin_on_another_processor_runs_as_a_vm_of_its_own() {
    for name in ["db", "jess"] {
        let prep = tiny(name);
        let off = PrefetchOptions::off();
        let mut vms = [
            vm(&prep, &off, &p4(), &[(off.clone(), athlon())]),
            vm(&prep, &off, &p4(), &[]),
            vm(&prep, &off, &athlon(), &[]),
        ];
        protocol(&prep, &mut vms, |vms, call| {
            assert_leader_alone(vms, call);
            assert_twin_is(&vms[0], 1, &vms[2], call);
            assert_eq!(*vms[0].cell(1).proc, athlon());
            // The processors differ where it shows: in the stalls.
            assert_ne!(vms[0].stats().cycles, vms[2].stats().cycles, "{name}");
        });
    }
}

#[test]
fn a_twin_that_differs_at_the_kth_compile_stays_diverged() {
    let prep = tiny("jess");
    let base = bodies(&run(&prep, PrefetchOptions::off(), &p4(), &[]));
    let ii = bodies(&run(&prep, PrefetchOptions::inter_intra(), &p4(), &[]));
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
        &p4(),
        &[(PrefetchOptions::inter_intra(), p4())],
    );
    assert!(!live(&twinned, 1));
    assert_eq!(twinned.cell(1).reports.len(), k);
}

/// A twin's pipeline runs with its own processor: db's INTER+INTRA emits
/// other bodies on the Athlon, so that twin of a Pentium 4 leader ends at
/// the first compile whose bodies differ.
#[test]
fn a_twin_compiles_for_its_own_processor() {
    let prep = tiny("db");
    let ii = PrefetchOptions::inter_intra;
    let on_p4 = bodies(&run(&prep, ii(), &p4(), &[]));
    let on_athlon = bodies(&run(&prep, ii(), &athlon(), &[]));
    let k = on_p4
        .iter()
        .zip(&on_athlon)
        .position(|(a, b)| a != b)
        .expect("db's INTER+INTRA bodies differ across processors");
    let twinned = run(&prep, ii(), &p4(), &[(ii(), athlon())]);
    assert!(!live(&twinned, 1));
    assert_eq!(twinned.cell(1).reports.len(), k);
}

/// Prefetch ops of `f`: the ops a twin's body may lack.
fn prefetch_ops(f: &Function) -> usize {
    f.instr_sites()
        .filter(|&s| matches!(f.instr(s), Instr::Prefetch { .. } | Instr::SpecLoad { .. }))
        .count()
}

/// An ADAPTIVE twin keeps loop guards of its own. On jess no guard fires,
/// so the twin of an INTER+INTRA leader lives through the protocol and is
/// a standalone ADAPTIVE VM. On db a guard fires: the twin patches its
/// own code where a standalone ADAPTIVE VM does, lives through its
/// patches, and still is that VM after each call, while the leader runs
/// as it would alone.
#[test]
fn an_adaptive_twin_lives_through_its_patches() {
    let ii = PrefetchOptions::inter_intra();
    let adaptive = PrefetchOptions::adaptive();
    for (name, patches) in [("jess", false), ("db", true)] {
        let prep = tiny(name);
        let mut vms = [
            vm(&prep, &ii, &p4(), &[(adaptive.clone(), p4())]),
            vm(&prep, &ii, &p4(), &[]),
            vm(&prep, &adaptive, &p4(), &[]),
        ];
        let mut patched = false;
        protocol(&prep, &mut vms, |vms, call| {
            assert_leader_alone(vms, call);
            assert_twin_is(&vms[0], 1, &vms[2], call);
            let (stats, _) = vms[0].cell(1).run.expect("live");
            assert_eq!(stats.inspection_cycles, vms[2].stats().inspection_cycles);
            patched |= vms[2].stats().loop_deopts > 0;
        });
        assert_eq!(patched, patches, "{name}: a loop guard fires");
    }
}

/// A twin on the leader's processor whose bodies lack some of the
/// leader's prefetch ops runs on a memory system of its own: BASELINE on
/// the Pentium 4 under an INTER+INTRA leader there on db, whose bodies
/// differ, is after every call a standalone BASELINE VM.
#[test]
fn a_subset_twin_on_the_leaders_processor_runs_as_a_vm_of_its_own() {
    let prep = tiny("db");
    let (ii, off) = (PrefetchOptions::inter_intra(), PrefetchOptions::off());
    assert_ne!(
        bodies(&run(&prep, ii.clone(), &p4(), &[])),
        bodies(&run(&prep, off.clone(), &p4(), &[])),
        "db's INTER+INTRA inserts prefetch ops"
    );
    let mut vms = [
        vm(&prep, &ii, &p4(), &[(off.clone(), p4())]),
        vm(&prep, &ii, &p4(), &[]),
        vm(&prep, &off, &p4(), &[]),
    ];
    protocol(&prep, &mut vms, |vms, call| {
        assert_leader_alone(vms, call);
        assert_twin_is(&vms[0], 1, &vms[2], call);
    });
    // The leader's extra prefetch ops ran: they show in its retired count.
    assert_ne!(
        vms[0].stats().retired_instructions,
        vms[2].stats().retired_instructions
    );
}

/// A twin whose body gains a prefetch op the leader's lacks ends at that
/// compile, having been a VM of its own until then: db's INTER+INTRA
/// under an INTER leader on the Pentium 4.
#[test]
fn a_twin_whose_body_gains_an_op_ends() {
    let prep = tiny("db");
    let (inter, ii) = (PrefetchOptions::inter(), PrefetchOptions::inter_intra());
    let leader_bodies = bodies(&run(&prep, inter.clone(), &p4(), &[]));
    let twin_bodies = bodies(&run(&prep, ii.clone(), &p4(), &[]));
    let k = (leader_bodies.iter().zip(&twin_bodies))
        .position(|(l, t)| prefetch_ops(t) > prefetch_ops(l))
        .expect("INTER+INTRA adds an op to a db body");
    let mut vms = [
        vm(&prep, &inter, &p4(), &[(ii.clone(), p4())]),
        vm(&prep, &inter, &p4(), &[]),
        vm(&prep, &ii, &p4(), &[]),
    ];
    protocol(&prep, &mut vms, |vms, call| {
        assert_leader_alone(vms, call);
        if live(&vms[0], 1) {
            assert_twin_is(&vms[0], 1, &vms[2], call);
        }
    });
    assert!(!live(&vms[0], 1));
    assert_eq!(vms[0].cell(1).reports.len(), k);
}
