//! The threaded code is as typed as the IR it is decoded from: registers
//! are untagged words, and the handler the decoder chose is what knows
//! each operand's type. These tests pin the two guards that replace the
//! run-time tags (the verifier at install, the signature check at
//! `Vm::call`), walk every typed handler instance against the one scalar
//! evaluator, and check that a word survives the VM bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spf_heap::{apply_bin, apply_cmp, apply_conv, apply_un, Value, NULL};
use spf_ir::{
    BinOp, CmpOp, Conv, ElemTy, Function, FunctionBuilder, Instr, MethodId, ProgramBuilder, Reg,
    Ty, UnOp,
};
use spf_memsim::ProcessorConfig;
use spf_vm::{NoopSink, Predecoded, Vm, VmConfig, VmError};

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => (*payload.downcast::<&str>().expect("a string payload")).to_string(),
    }
}

/// `sum(a, b) = a + b` and `get(p) = p.v`, on a VM that never compiles
/// on its own.
fn guarded() -> (Vm, MethodId, MethodId) {
    let mut pb = ProgramBuilder::new();
    let (_cell, fields) = pb.add_class("Cell", &[("v", ElemTy::I32)]);
    let sum = {
        let mut b = pb.function("sum", &[Ty::I32, Ty::I32], Some(Ty::I32));
        let s = b.add(b.param(0), b.param(1));
        b.ret(Some(s));
        b.finish()
    };
    let get = {
        let mut b = pb.function("get", &[Ty::Ref], Some(Ty::I32));
        let v = b.getfield(b.param(0), fields[0]);
        b.ret(Some(v));
        b.finish()
    };
    let config = VmConfig {
        compile_threshold: u32::MAX,
        ..VmConfig::default()
    };
    let vm = Vm::new(pb.finish(), config, ProcessorConfig::pentium4());
    (vm, sum, get)
}

/// The first instruction of `func`, for a test to break.
fn first_instr(func: &mut Function) -> &mut Instr {
    let entry = func.entry();
    &mut func.block_mut(entry).instrs[0]
}

#[test]
fn an_ill_typed_body_is_refused_at_install_and_changes_nothing() {
    let (mut vm, sum, get) = guarded();
    let good_sum = vm.program().method(sum).func().clone();
    let good_get = vm.program().method(get).func().clone();
    vm.install_compiled(sum, good_sum.clone());
    vm.install_compiled(get, good_get.clone());

    // `Bin` over an `I32` and an `I64` register.
    let mut mixed = good_sum.clone();
    let wide = mixed.new_reg(Ty::I64);
    let Instr::Bin { b, .. } = first_instr(&mut mixed) else {
        panic!("sum starts with its add");
    };
    *b = wide;
    // A register past `reg_count`.
    let mut out_of_range = good_sum.clone();
    let past = Reg::new(out_of_range.reg_count());
    let Instr::Bin { a, .. } = first_instr(&mut out_of_range) else {
        panic!("sum starts with its add");
    };
    *a = past;
    // A `GetField` of an `I32` field into an `I64` destination.
    let mut wrong_dst = good_get.clone();
    let wide = wrong_dst.new_reg(Ty::I64);
    let Instr::GetField { dst, .. } = first_instr(&mut wrong_dst) else {
        panic!("get starts with its getfield");
    };
    *dst = wide;

    for (mid, broken, violation) in [
        (sum, mixed, "binop operand types differ"),
        (sum, out_of_range, "out of range"),
        (get, wrong_dst, "getfield result type"),
    ] {
        let message = panic_message(|| vm.install_compiled(mid, broken));
        assert!(
            message.starts_with("decode: ") && message.contains(violation),
            "{message}"
        );
    }
    // The refused installs left the bodies, and the VM, as they were.
    assert_eq!(vm.compiled_body(sum), Some(&good_sum));
    assert_eq!(vm.compiled_body(get), Some(&good_get));
    assert_eq!(vm.compiled_generations().count(), 2);
    let out = vm.call(sum, &[Value::I32(40), Value::I32(2)]).unwrap();
    assert_eq!(out, Some(Value::I32(42)));
}

#[test]
fn a_call_checks_its_arguments_against_the_signature() {
    let (mut vm, sum, _) = guarded();
    let too_few = panic_message(|| drop(vm.call(sum, &[Value::I32(1)])));
    assert!(
        too_few.contains("call to sum with 1 args, expected 2"),
        "{too_few}"
    );
    let wrong_type = panic_message(|| drop(vm.call(sum, &[Value::I32(1), Value::F64(2.0)])));
    assert!(
        wrong_type.contains("call to sum: arg 1 type mismatch"),
        "{wrong_type}"
    );
    // A refused call pushed nothing: the VM still runs.
    let out = vm.call(sum, &[Value::I32(1), Value::I32(2)]).unwrap();
    assert_eq!(out, Some(Value::I32(3)));
}

// ---------------------------------------------------------------------
// Every typed handler against the one evaluator
// ---------------------------------------------------------------------

fn elem_of(ty: Ty) -> ElemTy {
    match ty {
        Ty::I32 => ElemTy::I32,
        Ty::I64 => ElemTy::I64,
        Ty::F64 => ElemTy::F64,
        Ty::Ref => ElemTy::Ref,
    }
}

fn konst(b: &mut FunctionBuilder<'_>, v: Value) -> Reg {
    match v {
        Value::I32(x) => b.const_i32(x),
        Value::I64(x) => b.const_i64(x),
        Value::F64(x) => b.const_f64(x),
        Value::Ref(_) => b.null(),
    }
}

/// Runs `main(args)` of the program `build` makes with fusion on and
/// off: both must give the same result and the same simulated counters,
/// and the fused VM must have formed exactly `fused` superinstructions.
fn run_both(
    build: &dyn Fn(&mut ProgramBuilder) -> MethodId,
    args: &[Value],
    fused: u64,
) -> Result<Option<Value>, VmError> {
    let run = |fuse: bool| {
        let mut pb = ProgramBuilder::new();
        let main = build(&mut pb);
        let config = VmConfig {
            compile_threshold: u32::MAX,
            ..VmConfig::default()
        };
        let pre = Arc::new(Predecoded::with_fusion(pb.finish(), fuse));
        let mut vm = Vm::from_predecoded(&pre, config, ProcessorConfig::pentium4(), NoopSink);
        let formed = vm.fused_op_count();
        let out = vm.call(main, args);
        (out, vm.stats().simulated(), *vm.mem_stats(), formed)
    };
    let (out_f, stats_f, mem_f, formed) = run(true);
    let (out_u, stats_u, mem_u, none) = run(false);
    assert_eq!((formed, none), (fused, 0), "superinstructions formed");
    assert_eq!(stats_f, stats_u);
    assert_eq!(mem_f, mem_u);
    // Compared as words, so a NaN result equals itself.
    let words = |r: &Result<Option<Value>, VmError>| r.clone().map(|v| v.map(Value::to_bits));
    assert_eq!(words(&out_f), words(&out_u));
    out_f
}

fn assert_same(got: Result<Option<Value>, VmError>, want: Option<Value>, what: &str) {
    match want {
        Some(v) => {
            let got = got.unwrap_or_else(|e| panic!("{what}: trapped with {e}"));
            let got = got.expect("a value");
            assert_eq!((got.ty(), got.to_bits()), (v.ty(), v.to_bits()), "{what}");
        }
        None => assert!(
            matches!(got, Err(VmError::DivisionByZero { .. })),
            "{what}: {got:?}"
        ),
    }
}

/// `main(x, y)` applies `op` seven times, once alone and once inside each
/// fusion pattern that can hold a `Bin`, feeding each result to the next.
fn bin_chain(pb: &mut ProgramBuilder, op: BinOp, y: Value) -> MethodId {
    let ty = y.ty();
    let (holder, fields) = pb.add_class("Holder", &[("f", elem_of(ty))]);
    let mut b = pb.function("main", &[ty, ty], Some(ty));
    let (x, yr) = (b.param(0), b.param(1));
    let zero = b.const_i32(0);
    let two = b.const_i32(2);
    let arr = b.new_array(elem_of(ty), two);
    b.astore(arr, zero, yr, elem_of(ty));
    let p = b.new_object(holder);
    b.putfield(p, fields[0], yr);
    // Const + Bin.
    let c = konst(&mut b, y);
    let r1 = b.bin(op, x, c);
    // GetField + Bin.
    let v = b.getfield(p, fields[0]);
    let r2 = b.bin(op, r1, v);
    // ALoad + Bin.
    let e = b.aload(arr, zero, elem_of(ty));
    let r3 = b.bin(op, r2, e);
    // Bin + ALoad.
    let r4 = b.bin(op, r3, yr);
    let e2 = b.aload(arr, zero, elem_of(ty));
    // Bin + Move.
    let r5 = b.bin(op, r4, e2);
    let acc = b.new_reg(ty);
    b.move_(acc, r5);
    // Bin + Move + Jump.
    let r6 = b.bin(op, acc, yr);
    b.move_(acc, r6);
    let tail = b.create_block();
    b.jump(tail);
    b.switch_to(tail);
    // Alone.
    let r7 = b.bin(op, acc, yr);
    b.ret(Some(r7));
    b.finish()
}

#[test]
fn every_typed_bin_handler_agrees_with_the_evaluator_in_every_pattern() {
    const OPS: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::UShr,
    ];
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let operands = [
        (Value::I32(1_000_003), Value::I32(7)),
        (Value::I32(i32::MIN), Value::I32(-1)),
        (Value::I32(-17), Value::I32(33)),
        (Value::I32(5), Value::I32(0)),
        (Value::I64(1 << 40), Value::I64(3)),
        (Value::I64(i64::MIN), Value::I64(-1)),
        (Value::I64(-17), Value::I64(65)),
        (Value::I64(5), Value::I64(0)),
        (Value::F64(1.5), Value::F64(-0.25)),
        (Value::F64(-0.0), Value::F64(0.0)),
        (Value::F64(2.0), Value::F64(nan)),
    ];
    let mut instances = std::collections::HashSet::new();
    for op in OPS {
        for (x, y) in operands {
            if y.ty() == Ty::F64 && op.int_only() {
                continue;
            }
            instances.insert((op, y.ty()));
            let want = (0..7).try_fold(x, |acc, _| apply_bin(op, acc, y));
            // Seven fusions: the six pairs and BinMove absorbing its Jump.
            let got = run_both(&|pb| bin_chain(pb, op, y), &[x, y], 7);
            assert_same(got, want, &format!("{op:?} over {x:?}, {y:?}"));
        }
    }
    assert_eq!(instances.len(), 26, "11 I32 + 11 I64 + 4 F64");
}

/// `main(x, y)`: one `Cmp` alone, one fused with the branch on it;
/// returns `alone + 2 * fused`.
fn cmp_pair(pb: &mut ProgramBuilder, op: CmpOp, ty: Ty) -> MethodId {
    let mut b = pb.function("main", &[ty, ty], Some(Ty::I32));
    let (x, y) = (b.param(0), b.param(1));
    let alone = b.cmp(op, x, y);
    let out = b.new_reg(Ty::I32);
    b.move_(out, alone);
    let fused = b.cmp(op, x, y);
    let (then_bb, else_bb) = (b.create_block(), b.create_block());
    b.branch(fused, then_bb, else_bb);
    b.switch_to(then_bb);
    let two = b.const_i32(2);
    let sum = b.add(out, two);
    b.ret(Some(sum));
    b.switch_to(else_bb);
    b.ret(Some(out));
    b.finish()
}

#[test]
fn every_typed_cmp_handler_agrees_with_the_evaluator_alone_and_branching() {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let operands = [
        (Value::I32(-1), Value::I32(1)),
        (Value::I32(i32::MIN), Value::I32(i32::MIN)),
        // Differ only above bit 31, and only in sign: an `I64` compare
        // must read the whole word, signed.
        (Value::I64(1 << 32), Value::I64(0)),
        (Value::I64(-1), Value::I64(1)),
        (Value::I64(7), Value::I64(7)),
        (Value::F64(-0.0), Value::F64(0.0)),
        (Value::F64(-1.5), Value::F64(1.5)),
        (Value::F64(nan), Value::F64(1.0)),
        (Value::F64(nan), Value::F64(nan)),
        // Addresses compare unsigned.
        (Value::Ref(NULL), Value::Ref(0x10_0000)),
        (Value::Ref(1 << 63), Value::Ref(0x10_0000)),
        (Value::Ref(0x10_0040), Value::Ref(0x10_0040)),
    ];
    let mut instances = std::collections::HashSet::new();
    for op in OPS {
        for (x, y) in operands {
            instances.insert((op, x.ty()));
            let flag = apply_cmp(op, x, y).expect("same-typed operands");
            // Cmp+Branch, and the Const+Bin of the taken arm.
            let got = run_both(&|pb| cmp_pair(pb, op, x.ty()), &[x, y], 2);
            let want = Some(Value::I32(3 * flag));
            assert_same(got, want, &format!("{op:?} over {x:?}, {y:?}"));
        }
    }
    assert_eq!(instances.len(), 24, "six operators on four types");
}

#[test]
fn every_un_and_convert_handler_agrees_with_the_evaluator() {
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let inputs = [
        Value::I32(0),
        Value::I32(-1),
        Value::I32(i32::MIN),
        Value::I64(-1),
        Value::I64(i64::MIN),
        Value::I64((1 << 40) + 5),
        Value::F64(-0.0),
        Value::F64(1e300),
        Value::F64(-2.5),
        Value::F64(nan),
    ];
    const CONVS: [Conv; 6] = [
        Conv::I32ToI64,
        Conv::I64ToI32,
        Conv::I32ToF64,
        Conv::F64ToI32,
        Conv::I64ToF64,
        Conv::F64ToI64,
    ];
    let (mut uns, mut convs) = (0, 0);
    for x in inputs {
        for op in [UnOp::Neg, UnOp::Not] {
            // The verifier's rule: `Not` is integer-only.
            let Some(want) = apply_un(op, x) else {
                assert!(op == UnOp::Not && x.ty() == Ty::F64);
                continue;
            };
            uns += 1;
            let build = |pb: &mut ProgramBuilder| {
                let mut b = pb.function("main", &[x.ty()], Some(x.ty()));
                let r = b.un(op, b.param(0));
                b.ret(Some(r));
                b.finish()
            };
            assert_same(
                run_both(&build, &[x], 0),
                Some(want),
                &format!("{op:?} {x:?}"),
            );
        }
        for conv in CONVS {
            let (from, to) = conv.signature();
            if from != x.ty() {
                continue;
            }
            convs += 1;
            let want = apply_conv(conv, x).expect("source type matches");
            let build = |pb: &mut ProgramBuilder| {
                let mut b = pb.function("main", &[from], Some(to));
                let r = b.convert(conv, b.param(0));
                b.ret(Some(r));
                b.finish()
            };
            assert_same(
                run_both(&build, &[x], 0),
                Some(want),
                &format!("{conv:?} {x:?}"),
            );
        }
    }
    // Neg on ten inputs and Not on the six integer ones; two conversions
    // leave each type.
    assert_eq!((uns, convs), (16, 20));
}

// ---------------------------------------------------------------------
// A word survives the VM bit for bit
// ---------------------------------------------------------------------

#[test]
fn a_nan_payload_survives_move_store_load_call_and_return() {
    let mut pb = ProgramBuilder::new();
    let id = {
        let mut b = pb.function("id", &[Ty::F64], Some(Ty::F64));
        let v = b.param(0);
        b.ret(Some(v));
        b.finish()
    };
    let mut b = pb.function("main", &[Ty::F64], Some(Ty::F64));
    let copy = b.new_reg(Ty::F64);
    b.move_(copy, b.param(0));
    let one = b.const_i32(1);
    let zero = b.const_i32(0);
    let arr = b.new_array(ElemTy::F64, one);
    b.astore(arr, zero, copy, ElemTy::F64);
    let loaded = b.aload(arr, zero, ElemTy::F64);
    let returned = b.call(id, &[loaded]);
    b.ret(Some(returned));
    let main = b.finish();
    let mut vm = Vm::new(
        pb.finish(),
        VmConfig::default(),
        ProcessorConfig::pentium4(),
    );
    // A quiet NaN with a payload, a negative one, and -0.0; the third
    // call of each runs the compiled body.
    for bits in [0x7ff8_0000_dead_beef_u64, 0xfff8_1234_5678_9abc, 1 << 63] {
        for _ in 0..3 {
            let out = vm.call(main, &[Value::F64(f64::from_bits(bits))]).unwrap();
            let Some(Value::F64(v)) = out else {
                panic!("main returns a double, got {out:?}");
            };
            assert_eq!(v.to_bits(), bits, "{bits:#x}");
        }
    }
    assert!(vm.is_compiled(main));
}
