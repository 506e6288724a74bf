//! Twins: a VM that simulates other cells alongside its own runs exactly
//! as it would alone, and a twin stays live only while it reproduces the
//! run of a VM of its own — the VM runs the union of its own bodies and
//! its twins', each cell its own ops of it, on its own code class's
//! memory system and clock, patching its own code where its loop guards
//! fire.

use spf_core::{MethodReport, PrefetchOptions};
use spf_ir::{CmpOp, ElemTy, Function, Instr, MethodId, PrefetchKind, Program, ProgramBuilder, Ty};
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

/// db's INTER inserts no op, so INTER+INTRA and ADAPTIVE twins on its
/// processor add every op they have, and all three twins are, after
/// every call, VMs of their own, while the leader runs as it would alone.
#[test]
fn a_leader_with_twins_runs_as_it_would_alone() {
    let prep = tiny("db");
    let modes = [
        PrefetchOptions::off(),
        PrefetchOptions::inter_intra(),
        PrefetchOptions::adaptive(),
    ];
    let twins: Vec<_> = modes.iter().map(|o| (o.clone(), p4())).collect();
    let inter = PrefetchOptions::inter();
    let mut vms = vec![
        vm(&prep, &inter, &p4(), &twins),
        vm(&prep, &inter, &p4(), &[]),
    ];
    vms.extend(modes.iter().map(|o| vm(&prep, o, &p4(), &[])));
    protocol(&prep, &mut vms, |vms, call| {
        assert_leader_alone(vms, call);
        // Cell 0 is the VM's own.
        assert_twin_is(&vms[0], 0, &vms[1], call);
        for k in 1..=3 {
            assert_twin_is(&vms[0], k, &vms[k + 1], call);
            let (stats, _) = vms[0].cell(k).run.expect("live");
            assert_eq!(
                stats.inspection_cycles,
                vms[k + 1].stats().inspection_cycles
            );
        }
    });
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

/// `f` with every `Prefetch` made a hardware one.
fn one_kind(f: &Function) -> Function {
    let mut f = f.clone();
    for b in f.block_ids().collect::<Vec<_>>() {
        for i in &mut f.block_mut(b).instrs {
            if let Instr::Prefetch { kind, .. } = i {
                *kind = PrefetchKind::Hardware;
            }
        }
    }
    f
}

/// Runs `twin` on `twin_proc` as the twin of an INTER+INTRA leader on the
/// Pentium 4 through the protocol, checking after every call that the
/// leader runs as it would alone and the twin as a VM of its own.
fn assert_rides_along(prep: &Prepared, twin: &PrefetchOptions, twin_proc: &ProcessorConfig) {
    let ii = PrefetchOptions::inter_intra();
    let mut vms = [
        vm(prep, &ii, &p4(), &[(twin.clone(), twin_proc.clone())]),
        vm(prep, &ii, &p4(), &[]),
        vm(prep, twin, twin_proc, &[]),
    ];
    protocol(prep, &mut vms, |vms, call| {
        assert_leader_alone(vms, call);
        assert_twin_is(&vms[0], 1, &vms[2], call);
    });
}

/// A twin's pipeline runs with its own processor, and where the Athlon's
/// profitability analysis adds a prefetch op to a jess body, the
/// Athlon's INTER+INTRA twin of a Pentium 4 INTER+INTRA leader runs the
/// union of both: the leader pays nothing for the op, and the twin makes
/// it on its own clock.
#[test]
fn a_superset_twin_on_another_processor_runs_as_a_vm_of_its_own() {
    let prep = tiny("jess");
    let ii = PrefetchOptions::inter_intra;
    let on_p4 = bodies(&run(&prep, ii(), &p4(), &[]));
    let on_athlon = bodies(&run(&prep, ii(), &athlon(), &[]));
    assert!(
        (on_p4.iter().zip(&on_athlon)).any(|(p, a)| prefetch_ops(a) > prefetch_ops(p)),
        "the Athlon adds a prefetch op to a jess body"
    );
    assert_rides_along(&prep, &ii(), &athlon());
}

/// A prefetch op's kind is part of its identity: `db_sort`'s INTER+INTRA
/// body on the Athlon differs from the Pentium 4's only in the kind of
/// its dereference prefetches, and that twin of a Pentium 4 leader runs
/// the union of both kinds.
#[test]
fn a_twin_of_another_prefetch_kind_runs_as_a_vm_of_its_own() {
    let prep = tiny("db");
    let ii = PrefetchOptions::inter_intra;
    let on_p4 = bodies(&run(&prep, ii(), &p4(), &[]));
    let on_athlon = bodies(&run(&prep, ii(), &athlon(), &[]));
    let kind_pair = |(p, a): (&Function, &Function)| p != a && one_kind(p) == one_kind(a);
    let sort = (on_p4.iter().zip(&on_athlon)).find(|(p, _)| p.name() == "db_sort");
    assert!(
        sort.is_some_and(kind_pair),
        "db_sort differs only in its kinds"
    );
    assert_rides_along(&prep, &ii(), &athlon());
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

/// A twin's repatch re-installs the union of every cell's body. On jess
/// and RayTracer the Athlon ADAPTIVE twin of a Pentium 4 INTER+INTRA
/// leader patches a loop and repatches it into a body that still
/// declares the registers of the `SpecLoad`s its patch stripped: the twin
/// lives through the repatch and is after every call a standalone Athlon
/// ADAPTIVE VM, while the leader runs as it would alone.
#[test]
fn an_adaptive_twin_on_another_processor_lives_through_its_repatch() {
    let (ii, adaptive) = (PrefetchOptions::inter_intra(), PrefetchOptions::adaptive());
    for name in ["jess", "RayTracer"] {
        let prep = tiny(name);
        let mut vms = [
            vm(&prep, &ii, &p4(), &[(adaptive.clone(), athlon())]),
            vm(&prep, &ii, &p4(), &[]),
            vm(&prep, &adaptive, &athlon(), &[]),
        ];
        let mut repatched = false;
        protocol(&prep, &mut vms, |vms, call| {
            assert_leader_alone(vms, call);
            assert_twin_is(&vms[0], 1, &vms[2], call);
            repatched |= vms[2].stats().loop_repatches > 0;
        });
        assert!(repatched, "{name}: the Athlon ADAPTIVE VM repatches");
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

/// A twin whose body gains prefetch ops the leader's lacks rides along:
/// db's INTER+INTRA under an INTER leader on the Pentium 4 is after every
/// call a standalone INTER+INTRA VM, and retires the ops the leader's
/// code lacks.
#[test]
fn a_twin_whose_body_gains_an_op_rides_along() {
    let prep = tiny("db");
    let (inter, ii) = (PrefetchOptions::inter(), PrefetchOptions::inter_intra());
    let leader_bodies = bodies(&run(&prep, inter.clone(), &p4(), &[]));
    let twin_bodies = bodies(&run(&prep, ii.clone(), &p4(), &[]));
    assert!(
        (leader_bodies.iter().zip(&twin_bodies)).any(|(l, t)| prefetch_ops(t) > prefetch_ops(l)),
        "INTER+INTRA adds an op to a db body"
    );
    let mut vms = [
        vm(&prep, &inter, &p4(), &[(ii.clone(), p4())]),
        vm(&prep, &inter, &p4(), &[]),
        vm(&prep, &ii, &p4(), &[]),
    ];
    protocol(&prep, &mut vms, |vms, call| {
        assert_leader_alone(vms, call);
        assert_twin_is(&vms[0], 1, &vms[2], call);
    });
    let (twin, _) = vms[0].cell(1).run.expect("live");
    assert!(twin.retired_instructions > vms[0].stats().retired_instructions);
}

/// A twin that patches a body older frames of a recursion still run:
/// on RayTracer, the ADAPTIVE twin of an INTER+INTRA leader, both on the
/// Pentium 4, patches the recursive `rt_shade` below frames that run it,
/// so the installed body gets a new code id for the frames to come. After
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

/// A walk whose speculative load can hold the one way to an object at a
/// collection, and `main`, which fills the array and walks it `ROUNDS`
/// times. `walk(arr)` sums the `v` of each node of `arr`, replaces the
/// next node with a fresh one and allocates a garbage array of irregular
/// length, so the nodes lie at no stride. INTER+INTRA then loads the next
/// node speculatively and prefetches its `v` through that register: from
/// the replacement on, the register holds the one way to the old node,
/// and the garbage array's allocation can collect.
fn replaced_ahead() -> (Program, MethodId) {
    const ELEMS: i32 = 64;
    const ROUNDS: i32 = 12;
    let mut pb = ProgramBuilder::new();
    let (node, nf) = pb.add_class("Node", &[("v", ElemTy::I32), ("pad", ElemTy::I64)]);
    let walk = pb.declare("walk", &[Ty::Ref], Some(Ty::I32));
    {
        let mut b = pb.define(walk);
        let arr = b.param(0);
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
                let s = b.add(acc, v);
                b.move_(acc, s);
                let one = b.const_i32(1);
                let j = b.add(i, one);
                let len = b.arraylen(arr);
                let ahead = b.lt(j, len);
                b.if_(ahead, |b| {
                    let fresh = b.new_object(node);
                    b.putfield(fresh, nf[0], j);
                    b.astore(arr, j, fresh, ElemTy::Ref);
                });
                let (seven, five) = (b.const_i32(7), b.const_i32(5));
                let k = b.mul(i, seven);
                let k = b.rem(k, five);
                let k = b.add(k, one);
                b.new_array(ElemTy::I32, k);
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
            b.putfield(keep, nf[0], i);
            b.astore(arr, i, keep, ElemTy::Ref);
            let three = b.const_i32(3);
            let k = b.rem(i, three);
            b.new_array(ElemTy::I64, k);
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
            let s = b.call(walk, &[arr]);
            let t = b.add(acc, s);
            b.move_(acc, t);
        },
    );
    b.ret(Some(acc));
    let main = b.finish();
    (pb.finish(), main)
}

/// A `SpecLoad` only a twin's code has writes a register the leader's
/// collections do not root: on `replaced_ahead`, where that register
/// holds the one way to a node at a collection, the INTER+INTRA twin of a
/// BASELINE leader, both on the Pentium 4, ends, and the leader runs as a
/// twin-free VM does: it collects the node.
#[test]
fn a_twin_only_specload_holding_the_one_way_to_an_object_ends_its_twin() {
    let (off, ii) = (PrefetchOptions::off(), PrefetchOptions::inter_intra());
    let new_vm = |prefetch: &PrefetchOptions| {
        let config = VmConfig {
            prefetch: prefetch.clone(),
            heap_bytes: 16 << 10,
            ..VmConfig::default()
        };
        Vm::new(replaced_ahead().0, config, p4())
    };
    let main = replaced_ahead().1;
    let mut vms = [new_vm(&off), new_vm(&off), new_vm(&ii)];
    vms[0].add_twin(ii.clone(), p4());
    let mut gcs = 0;
    for call in 0..3 {
        let outs: Vec<_> = vms.iter_mut().map(|vm| vm.call(main, &[])).collect();
        assert!(
            outs.iter().all(|o| *o == outs[0]),
            "checksums after call {call}"
        );
        assert_leader_alone(&vms, call);
        if live(&vms[0], 1) {
            assert_twin_is(&vms[0], 1, &vms[2], call);
        }
        gcs += vms[0].stats().gc_count;
        vms.iter_mut().for_each(Vm::reset_measurement);
    }
    let spec = |vm: &Vm| {
        (vm.compiled_generations()).any(|(_, _, f)| {
            f.instr_sites()
                .any(|s| matches!(f.instr(s), Instr::SpecLoad { .. }))
        })
    };
    assert!(
        spec(&vms[2]) && !spec(&vms[0]),
        "only the twin's walk loads speculatively"
    );
    assert!(gcs > 0, "the walk collects");
    assert!(!live(&vms[0], 1), "the twin ends");
    assert!(!vms[0].cell(1).reports.is_empty(), "after compiling walk");
}
