//! Twins: a VM that simulates other cells alongside its own runs exactly
//! as it would alone, and a twin stays live only while it reproduces the
//! run of a VM of its own — every body it compiles is the leader's minus
//! some prefetch ops, on its own code class's memory system and clock,
//! patching its own code where its loop guards fire.

use spf_core::{MethodReport, PrefetchOptions};
use spf_ir::{CmpOp, ElemTy, Function, Instr, MethodId, Program, ProgramBuilder, Ty};
use spf_memsim::ProcessorConfig;
use spf_vm::{NoopSink, Vm, VmConfig};
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

/// A twin that patches a body older frames of a recursion still run:
/// on RayTracer, the ADAPTIVE twin of an INTER+INTRA leader, both on the
/// Pentium 4, patches the recursive `rt_shade` below frames that run it,
/// so the leader's body gets a new code id for the frames to come. After
/// every call the twin is a standalone ADAPTIVE VM, and the leader runs
/// as it would alone. (`rt_shade`'s older frames never re-enter the
/// patched loop, so which code they keep shows only in
/// `a_twin_patch_leaves_older_frames_on_the_old_code`.)
#[test]
fn a_twin_patches_a_body_older_frames_still_run() {
    let prep = tiny("RayTracer");
    let (ii, adaptive) = (PrefetchOptions::inter_intra(), PrefetchOptions::adaptive());
    let mut vms = [
        vm(&prep, &ii, &p4(), &[(adaptive.clone(), p4())]),
        vm(&prep, &ii, &p4(), &[]),
        vm(&prep, &adaptive, &p4(), &[]),
    ];
    protocol(&prep, &mut vms, |vms, call| {
        assert_leader_alone(vms, call);
        assert_twin_is(&vms[0], 1, &vms[2], call);
    });
    let patched = vms[2]
        .compiled_generations()
        .any(|(_, g, f)| g > 0 && f.name() == "rt_shade");
    assert!(patched, "the standalone ADAPTIVE VM patches rt_shade");
}

/// A recursive walk whose loop guard goes stale inside the recursion,
/// and `main`, which walks `ROUNDS` times. `walk(arr, depth)` walks the
/// nodes of `arr` and, halfway, calls itself one level deeper. The nodes
/// fit the Athlon's L1, so the walk's prefetches are soon useless: a
/// recursive call finds the loop stale and patches it, and the frame
/// that made the call runs the rest of its loop on the body it entered.
fn stale_in_recursion() -> (Program, MethodId) {
    const ELEMS: i32 = 300;
    const DEPTH: i32 = 4;
    const ROUNDS: i32 = 8;
    let mut pb = ProgramBuilder::new();
    let (node, nf) = pb.add_class(
        "Node",
        &[
            ("v", ElemTy::I32),
            ("data", ElemTy::Ref),
            ("pad0", ElemTy::I64),
            ("pad1", ElemTy::I64),
        ],
    );
    let walk = pb.declare("walk", &[Ty::Ref, Ty::I32], Some(Ty::I32));
    {
        let mut b = pb.define(walk);
        let (arr, depth) = (b.param(0), b.param(1));
        let acc = b.new_reg(Ty::I32);
        let zero = b.const_i32(0);
        b.move_(acc, zero);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |b| b.arraylen(arr),
            |b, i| {
                let n = b.aload(arr, i, ElemTy::Ref);
                let v = b.getfield(n, nf[0]);
                let d = b.getfield(n, nf[1]);
                let zero = b.const_i32(0);
                let d0 = b.aload(d, zero, ElemTy::I32);
                let s1 = b.add(acc, v);
                let s2 = b.add(s1, d0);
                b.move_(acc, s2);
                let half = b.const_i32(ELEMS / 2);
                let at_half = b.cmp(CmpOp::Eq, i, half);
                let deeper = b.gt(depth, zero);
                let recurse = b.and(at_half, deeper);
                b.if_(recurse, |b| {
                    let one = b.const_i32(1);
                    let d1 = b.sub(depth, one);
                    let s = b.call(walk, &[arr, d1]);
                    let t = b.add(acc, s);
                    b.move_(acc, t);
                });
            },
        );
        b.ret(Some(acc));
        b.finish();
    }
    let mut b = pb.function("main", &[], Some(Ty::I32));
    let n = b.const_i32(ELEMS);
    let arr = b.new_array(ElemTy::Ref, n);
    b.for_i32(
        0,
        1,
        CmpOp::Lt,
        |_| n,
        |b, i| {
            let keep = b.new_object(node);
            let four = b.const_i32(4);
            let data = b.new_array(ElemTy::I32, four);
            b.putfield(keep, nf[0], i);
            b.putfield(keep, nf[1], data);
            let zero = b.const_i32(0);
            b.astore(data, zero, i, ElemTy::I32);
            b.astore(arr, i, keep, ElemTy::Ref);
        },
    );
    let acc = b.new_reg(Ty::I32);
    let zero = b.const_i32(0);
    b.move_(acc, zero);
    let rounds = b.const_i32(ROUNDS);
    b.for_i32(
        0,
        1,
        CmpOp::Lt,
        |_| rounds,
        |b, _| {
            let depth = b.const_i32(DEPTH);
            let s = b.call(walk, &[arr, depth]);
            let t = b.add(acc, s);
            b.move_(acc, t);
        },
    );
    b.ret(Some(acc));
    let main = b.finish();
    (pb.finish(), main)
}

/// Where a twin patches a body that older frames of a recursion go on
/// running, those frames keep its old code, as its own VM's keep its old
/// body: on `stale_in_recursion`, the ADAPTIVE twin of an INTER+INTRA
/// leader, both on the Athlon, is after every call a standalone ADAPTIVE
/// VM — which patches `walk` at a recursive call — and the leader runs as
/// it would alone.
#[test]
fn a_twin_patch_leaves_older_frames_on_the_old_code() {
    let athlon = athlon();
    let (ii, adaptive) = (PrefetchOptions::inter_intra(), PrefetchOptions::adaptive());
    let new_vm = |prefetch: &PrefetchOptions| {
        let config = VmConfig {
            prefetch: prefetch.clone(),
            ..VmConfig::default()
        };
        Vm::new(stale_in_recursion().0, config, athlon.clone())
    };
    let main = stale_in_recursion().1;
    let mut vms = [new_vm(&ii), new_vm(&ii), new_vm(&adaptive)];
    vms[0].add_twin(adaptive.clone(), athlon.clone());
    for call in 0..3 {
        let outs: Vec<_> = vms.iter_mut().map(|vm| vm.call(main, &[])).collect();
        assert!(
            outs.iter().all(|o| *o == outs[0]),
            "checksums after call {call}"
        );
        assert_leader_alone(&vms, call);
        assert_twin_is(&vms[0], 1, &vms[2], call);
        vms.iter_mut().for_each(Vm::reset_measurement);
    }
    let patched = vms[2].compiled_generations().filter(|(_, g, _)| *g > 0);
    assert!(patched.count() > 0, "walk goes stale");
}
