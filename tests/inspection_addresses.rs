//! Object inspection rests on one property: the address the inspector
//! records for a load is the address the VM's load touches. The inspector
//! evaluates `A(L)` over its own register file; the VM computes addresses
//! in its dispatch handlers. This test holds the two together, per kind of
//! load and on both processors' L1 line sizes: after the caches are
//! flushed, every line the inspector recorded for a site must be among the
//! L1 demand misses the loading method raises.
//!
//! The loops are built so the assertion can fail: consecutive accesses are
//! at least four lines apart and nothing else touches the lines between
//! them, so an inspector address that is off by one line names a line the
//! VM never misses on. (Checked by hand when the test was written: adding
//! 64 to the `delta` of either `PrefetchAddr` that
//! `spf_core::codegen::access_addr` builds, or to the array-length offset,
//! fails the kinds that go through it.)

use std::collections::HashSet;

use stride_prefetch::ir::cfg::Cfg;
use stride_prefetch::ir::dom::DomTree;
use stride_prefetch::ir::loops::LoopForest;
use stride_prefetch::ir::{
    CmpOp, ElemTy, FunctionBuilder, Instr, InstrRef, MethodId, Program, ProgramBuilder, Reg, Ty,
};
use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::{Inspector, PrefetchOptions};
use stride_prefetch::trace::{MissLevel, RingSink, TraceEvent};
use stride_prefetch::vm::{Vm, VmConfig};

/// Loop iterations: fewer than the inspector's 20, so it records them all.
const N: i32 = 16;
/// Elements between two accesses of an `ALoad` loop: 256 bytes for `I8`.
const GAP: i32 = 256;

/// One kind's program: `make()` allocates and returns the structure,
/// `load(x)` walks it in a single loop holding the one load `under_test`.
struct Case {
    what: String,
    program: Program,
    make: MethodId,
    load: MethodId,
    under_test: fn(&Instr) -> bool,
}

/// Builds a case whose `load(x)` is `for i in 0..N { body(x, i) }`.
fn case(
    what: &str,
    under_test: fn(&Instr) -> bool,
    make: impl FnOnce(&mut ProgramBuilder) -> MethodId,
    body: impl FnOnce(&mut FunctionBuilder<'_>, Reg, Reg),
) -> Case {
    let mut pb = ProgramBuilder::new();
    let make = make(&mut pb);
    let mut b = pb.function("load", &[Ty::Ref], Some(Ty::I32));
    let x = b.param(0);
    let n = b.const_i32(N);
    b.for_i32(0, 1, CmpOp::Lt, |_| n, |b, i| body(b, x, i));
    b.ret(Some(n));
    let load = b.finish();
    Case {
        what: what.to_string(),
        program: pb.finish(),
        make,
        load,
        under_test,
    }
}

/// `make()` returning an array of `N` references, each set by `element`.
fn make_ref_array(
    pb: &mut ProgramBuilder,
    element: impl FnOnce(&mut FunctionBuilder<'_>) -> Reg,
) -> MethodId {
    let mut b = pb.function("make", &[], Some(Ty::Ref));
    let n = b.const_i32(N);
    let arr = b.new_array(ElemTy::Ref, n);
    b.for_i32(
        0,
        1,
        CmpOp::Lt,
        |_| n,
        |b, i| {
            let e = element(b);
            b.astore(arr, i, e, ElemTy::Ref);
        },
    );
    b.ret(Some(arr));
    b.finish()
}

fn cases() -> Vec<Case> {
    let mut all = Vec::new();

    // GetField: N objects of 272 bytes, the first field of each.
    let pads: Vec<String> = (0..31).map(|i| format!("pad{i}")).collect();
    let mut fields = vec![("v", ElemTy::I32)];
    fields.extend(pads.iter().map(|name| (name.as_str(), ElemTy::I64)));
    let v = std::cell::Cell::new(None);
    all.push(case(
        "GetField",
        |i| matches!(i, Instr::GetField { .. }),
        |pb| {
            let (wide, ids) = pb.add_class("Wide", &fields);
            v.set(Some(ids[0]));
            make_ref_array(pb, |b| b.new_object(wide))
        },
        |b, arr, i| {
            let obj = b.aload(arr, i, ElemTy::Ref);
            b.getfield(obj, v.get().expect("the class is declared first"));
        },
    ));

    // ALoad: element `i * GAP` of one array, per element type.
    for elem in [
        ElemTy::I8,
        ElemTy::I32,
        ElemTy::I64,
        ElemTy::F64,
        ElemTy::Ref,
    ] {
        all.push(case(
            &format!("ALoad {elem:?}"),
            |i| matches!(i, Instr::ALoad { .. }),
            |pb| {
                let mut b = pb.function("make", &[], Some(Ty::Ref));
                let len = b.const_i32(N * GAP);
                let arr = b.new_array(elem, len);
                b.ret(Some(arr));
                b.finish()
            },
            |b, arr, i| {
                let gap = b.const_i32(GAP);
                let idx = b.mul(i, gap);
                b.aload(arr, idx, elem);
            },
        ));
    }

    // ArrayLen: N arrays of 272 bytes, the length word of each.
    all.push(case(
        "ArrayLen",
        |i| matches!(i, Instr::ArrayLen { .. }),
        |pb| {
            make_ref_array(pb, |b| {
                let len = b.const_i32(32);
                b.new_array(ElemTy::I64, len)
            })
        },
        |b, outer, i| {
            let inner = b.aload(outer, i, ElemTy::Ref);
            b.arraylen(inner);
        },
    ));
    all
}

#[test]
fn every_address_the_inspector_records_is_a_line_the_vm_misses_on() {
    for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
        let line = proc.l1.line_bytes;
        for case in cases() {
            let what = format!("{} on {}", case.what, proc.name);
            // Interpretation only: no compiled body, no inserted prefetch.
            let config = VmConfig {
                compile_threshold: u32::MAX,
                prefetch: PrefetchOptions::off(),
                ..VmConfig::default()
            };
            let mut vm = Vm::with_sink(case.program, config, proc.clone(), RingSink::default());
            let x = vm.call(case.make, &[]).expect("make runs").expect("a ref");
            vm.reset_measurement(); // flushes the caches and empties the sink
            vm.call(case.load, &[x]).expect("load runs");
            let missed: HashSet<u64> = vm
                .sink()
                .events()
                .iter()
                .filter_map(|ev| match *ev {
                    TraceEvent::DemandMiss {
                        level: MissLevel::L1,
                        line,
                        ..
                    } => Some(line),
                    _ => None,
                })
                .collect();

            let func = vm.program().method(case.load).func();
            let cfg = Cfg::compute(func);
            let dom = DomTree::compute(func, &cfg);
            let forest = LoopForest::compute(func, &cfg, &dom);
            let record: HashSet<InstrRef> = func
                .instr_sites()
                .filter(|&s| (case.under_test)(func.instr(s)))
                .collect();
            assert_eq!(record.len(), 1, "{what}: one load under test");
            let options = PrefetchOptions::default();
            let inspector = Inspector::new(vm.program(), func, vm.heap(), &[], &forest, &options);
            let seen = inspector.run(&[x], forest.roots()[0], &record);

            let site = record.iter().next().expect("one site");
            let addrs = &seen.traces[site];
            assert_eq!(addrs.len(), N as usize, "{what}: every iteration recorded");
            for &(iteration, addr) in addrs {
                assert!(
                    missed.contains(&(addr & !(line - 1))),
                    "{what}: iteration {iteration} recorded {addr:#x}, whose line the VM's \
                     load never missed on"
                );
            }
        }
    }
}
