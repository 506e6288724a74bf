//! Every fault names its instruction: the `at` of a [`VmError`] is the IR
//! position of the instruction that faulted, whether it ran as its own
//! threaded op or as the first or the second component of a
//! superinstruction, interpreted or compiled — and the simulated counters
//! at the fault do not depend on fusion.
//!
//! One body per fusion shape, always `main(a, i, x, y)`; which component
//! faults is decided by the arguments alone (a null `a`, an out-of-range
//! `i`, a zero `y`), so the fused and unfused runs of one case execute the
//! same IR and differ only in how it was threaded.

use std::sync::Arc;

use spf_heap::{Value, NULL};
use spf_ir::{
    BinOp, BlockId, ElemTy, FieldId, FunctionBuilder, Instr, InstrRef, MethodId, ProgramBuilder,
    Reg, Ty, UnOp,
};
use spf_memsim::ProcessorConfig;
use spf_vm::{NoopSink, Predecoded, Vm, VmConfig, VmError};

/// The fusable shapes that can hold a faulting component, and `Alone` for
/// each faulting instruction as a singleton op.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Alone(Kind),
    ConstBin,
    GetFieldBin,
    BinALoad,
    ALoadBin,
    MoveALoad,
    BinMove,
    BinMoveJump,
}

/// The instructions that can fault.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Bin,
    GetField,
    PutField,
    ALoad,
    AStore,
    ArrayLen,
    NewArray,
}

/// Length of the array `mkarr` makes for the cases.
const LEN: i32 = 2;

/// What `main` works on: its parameters and the one field it touches.
struct Operands {
    a: Reg,
    i: Reg,
    x: Reg,
    y: Reg,
    field: FieldId,
}

/// Emits one instruction of `kind` over the operands; `idx` is the index
/// register an `ALoad` uses and `rhs` the right operand of a `Bin`.
fn emit(b: &mut FunctionBuilder<'_>, kind: Kind, op: BinOp, o: &Operands, idx: Reg, rhs: Reg) {
    match kind {
        Kind::Bin => drop(b.bin(op, o.x, rhs)),
        Kind::GetField => drop(b.getfield(o.a, o.field)),
        Kind::PutField => b.putfield(o.a, o.field, o.i),
        Kind::ALoad => drop(b.aload(o.a, idx, ElemTy::I32)),
        Kind::AStore => b.astore(o.a, o.i, o.i, ElemTy::I32),
        Kind::ArrayLen => drop(b.arraylen(o.a)),
        Kind::NewArray => drop(b.new_array(ElemTy::I32, o.i)),
    }
}

/// The block `main`'s shape lives in: entered by a jump, and opened by a
/// `Neg` no pattern fuses with, so the components sit at `bb1:1` and
/// `bb1:2` — positions a swapped or defaulted site cannot hit by luck.
const BODY: usize = 1;

/// `main(a: Ref, i: I32, x: ty, y: ty)` holding `shape`.
fn build(pb: &mut ProgramBuilder, shape: Shape, op: BinOp, ty: Ty, field: FieldId) -> MethodId {
    let mut b = pb.function("main", &[Ty::Ref, Ty::I32, ty, ty], None);
    let o = Operands {
        a: b.param(0),
        i: b.param(1),
        x: b.param(2),
        y: b.param(3),
        field,
    };
    let body = b.create_block();
    assert_eq!(body, BlockId::new(BODY));
    b.jump(body);
    b.switch_to(body);
    b.un(UnOp::Neg, o.i);
    match shape {
        Shape::Alone(kind) => emit(&mut b, kind, op, &o, o.i, o.y),
        Shape::ConstBin => {
            // The constant is the divisor, so this shape always faults.
            let zero = match ty {
                Ty::I32 => b.const_i32(0),
                _ => b.const_i64(0),
            };
            emit(&mut b, Kind::Bin, op, &o, o.i, zero);
        }
        Shape::GetFieldBin => {
            emit(&mut b, Kind::GetField, op, &o, o.i, o.y);
            emit(&mut b, Kind::Bin, op, &o, o.i, o.y);
        }
        Shape::BinALoad => {
            emit(&mut b, Kind::Bin, op, &o, o.i, o.y);
            emit(&mut b, Kind::ALoad, op, &o, o.i, o.y);
        }
        Shape::ALoadBin => {
            emit(&mut b, Kind::ALoad, op, &o, o.i, o.y);
            emit(&mut b, Kind::Bin, op, &o, o.i, o.y);
        }
        Shape::MoveALoad => {
            let idx = b.new_reg(Ty::I32);
            b.move_(idx, o.i);
            emit(&mut b, Kind::ALoad, op, &o, idx, o.y);
        }
        Shape::BinMove | Shape::BinMoveJump => {
            let r = b.bin(op, o.x, o.y);
            let acc = b.new_reg(ty);
            b.move_(acc, r);
        }
    }
    if let Shape::BinMoveJump = shape {
        let tail = b.create_block();
        b.jump(tail);
        b.switch_to(tail);
    }
    b.ret(None);
    b.finish()
}

/// Superinstructions `shape` forms when fusion is on.
fn fusions(shape: Shape) -> u64 {
    match shape {
        Shape::Alone(_) => 0,
        Shape::BinMoveJump => 2, // Bin+Move, which then absorbs the Jump
        _ => 1,
    }
}

/// How a case makes its component fault.
#[derive(Clone, Copy, Debug)]
enum Trigger {
    Null,
    OutOfRange(i32),
    ZeroDivisor,
}

/// What one run left behind: the outcome, and the simulated counters.
type Outcome = (
    Result<Option<Value>, VmError>,
    spf_vm::VmStats,
    spf_memsim::MemStats,
);

/// Runs `main` of `shape` once on a fresh VM.
fn run(
    shape: Shape,
    op: BinOp,
    ty: Ty,
    trigger: Option<Trigger>,
    fuse: bool,
    compiled: bool,
) -> Outcome {
    let mut pb = ProgramBuilder::new();
    let (holder, fields) = pb.add_class("Holder", &[("f", ElemTy::I32)]);
    // Neither helper holds a fusable pair, so every superinstruction the
    // VM reports was formed in `main`.
    let mkarr = {
        let mut b = pb.function("mkarr", &[Ty::I32], Some(Ty::Ref));
        let arr = b.new_array(ElemTy::I32, b.param(0));
        b.ret(Some(arr));
        b.finish()
    };
    let mkobj = {
        let mut b = pb.function("mkobj", &[], Some(Ty::Ref));
        let obj = b.new_object(holder);
        b.ret(Some(obj));
        b.finish()
    };
    let main = build(&mut pb, shape, op, ty, fields[0]);
    let config = VmConfig {
        compile_threshold: u32::MAX,
        ..VmConfig::default()
    };
    let pre = Arc::new(Predecoded::with_fusion(pb.finish(), fuse));
    let mut vm = Vm::from_predecoded(&pre, config, ProcessorConfig::pentium4(), NoopSink);
    if compiled {
        let body = vm.program().method(main).func().clone();
        vm.install_compiled(main, body);
        assert!(vm.is_compiled(main));
    }
    // An installed body sits beside the original, and both are counted.
    let bodies = if compiled { 2 } else { 1 };
    let formed = if fuse { bodies * fusions(shape) } else { 0 };
    assert_eq!(vm.fused_op_count(), formed, "{shape:?}: fusions formed");

    let uses_object = matches!(
        shape,
        Shape::Alone(Kind::GetField | Kind::PutField) | Shape::GetFieldBin
    );
    let a = match trigger {
        Some(Trigger::Null) => Value::Ref(NULL),
        _ if uses_object => vm.call(mkobj, &[]).unwrap().unwrap(),
        _ => vm.call(mkarr, &[Value::I32(LEN)]).unwrap().unwrap(),
    };
    let i = match trigger {
        Some(Trigger::OutOfRange(i)) => i,
        _ => 1,
    };
    let num = |v: i64| match ty {
        Ty::I32 => Value::I32(v as i32),
        _ => Value::I64(v),
    };
    let y = match trigger {
        Some(Trigger::ZeroDivisor) => 0,
        _ => 3,
    };
    let out = vm.call(main, &[a, Value::I32(i), num(7), num(y)]);
    (out, vm.stats().simulated(), *vm.mem_stats())
}

/// Runs the case fused and unfused, interpreted and compiled, and checks
/// that each of the four runs ends in `want(at)` with `at` the component
/// at `bb1:1 + component`, and that fusion moved no counter.
fn check(
    shape: Shape,
    op: BinOp,
    ty: Ty,
    trigger: Trigger,
    component: usize,
    want: &dyn Fn(InstrRef) -> VmError,
) {
    let at = InstrRef::new(BlockId::new(BODY), 1 + component);
    let what = format!("{shape:?} {op:?} {ty:?} {trigger:?} at component {component}");
    for compiled in [false, true] {
        let fused = run(shape, op, ty, Some(trigger), true, compiled);
        let unfused = run(shape, op, ty, Some(trigger), false, compiled);
        for (how, got) in [("fused", &fused), ("unfused", &unfused)] {
            assert_eq!(got.0, Err(want(at)), "{what}, {how}, compiled={compiled}");
        }
        assert_eq!(fused.1, unfused.1, "{what}: VmStats, compiled={compiled}");
        assert_eq!(fused.2, unfused.2, "{what}: MemStats, compiled={compiled}");
    }
}

/// The position `check` expects really holds an instruction of `kind`.
fn assert_component(shape: Shape, component: usize, kind: Kind) {
    let mut pb = ProgramBuilder::new();
    let (_, fields) = pb.add_class("Holder", &[("f", ElemTy::I32)]);
    let main = build(&mut pb, shape, BinOp::Div, Ty::I32, fields[0]);
    let program = pb.finish();
    let instr = &program.method(main).func().block(BlockId::new(BODY)).instrs[1 + component];
    let found = match instr {
        Instr::Bin { .. } => Kind::Bin,
        Instr::GetField { .. } => Kind::GetField,
        Instr::PutField { .. } => Kind::PutField,
        Instr::ALoad { .. } => Kind::ALoad,
        Instr::AStore { .. } => Kind::AStore,
        Instr::ArrayLen { .. } => Kind::ArrayLen,
        Instr::NewArray { .. } => Kind::NewArray,
        other => panic!("{shape:?}: component {component} is {other:?}"),
    };
    assert_eq!(found, kind, "{shape:?}: component {component}");
}

const NULL_AT: fn(InstrRef) -> VmError = |at| VmError::NullPointer { at };
const DIV_AT: fn(InstrRef) -> VmError = |at| VmError::DivisionByZero { at };

fn out_of_range(index: i32, len: u64) -> impl Fn(InstrRef) -> VmError {
    move |at| VmError::IndexOutOfBounds { at, index, len }
}

#[test]
fn no_shape_faults_on_harmless_arguments() {
    for shape in [
        Shape::Alone(Kind::Bin),
        Shape::Alone(Kind::GetField),
        Shape::Alone(Kind::PutField),
        Shape::Alone(Kind::ALoad),
        Shape::Alone(Kind::AStore),
        Shape::Alone(Kind::ArrayLen),
        Shape::Alone(Kind::NewArray),
        Shape::GetFieldBin,
        Shape::BinALoad,
        Shape::ALoadBin,
        Shape::MoveALoad,
        Shape::BinMove,
        Shape::BinMoveJump,
    ] {
        for fuse in [true, false] {
            let (out, ..) = run(shape, BinOp::Div, Ty::I64, None, fuse, false);
            assert_eq!(out, Ok(None), "{shape:?}, fuse={fuse}");
        }
    }
}

#[test]
fn a_zero_divisor_names_its_bin_in_every_shape_that_holds_one() {
    // (shape, which component is the Bin)
    let shapes = [
        (Shape::Alone(Kind::Bin), 0),
        (Shape::ConstBin, 1),
        (Shape::GetFieldBin, 1),
        (Shape::BinALoad, 0),
        (Shape::ALoadBin, 1),
        (Shape::BinMove, 0),
        (Shape::BinMoveJump, 0),
    ];
    for (shape, component) in shapes {
        assert_component(shape, component, Kind::Bin);
        for op in [BinOp::Div, BinOp::Rem] {
            for ty in [Ty::I32, Ty::I64] {
                check(shape, op, ty, Trigger::ZeroDivisor, component, &DIV_AT);
            }
        }
    }
}

#[test]
fn a_null_or_out_of_range_aload_names_itself_in_every_shape_that_holds_one() {
    let shapes = [
        (Shape::Alone(Kind::ALoad), 0),
        (Shape::BinALoad, 1),
        (Shape::ALoadBin, 0),
        (Shape::MoveALoad, 1),
    ];
    for (shape, component) in shapes {
        assert_component(shape, component, Kind::ALoad);
        let c = |t, want: &dyn Fn(InstrRef) -> VmError| {
            check(shape, BinOp::Div, Ty::I32, t, component, want)
        };
        c(Trigger::Null, &NULL_AT);
        c(Trigger::OutOfRange(LEN), &out_of_range(LEN, LEN as u64));
        c(Trigger::OutOfRange(-1), &out_of_range(-1, LEN as u64));
    }
}

#[test]
fn a_null_getfield_names_itself_alone_and_fused() {
    for shape in [Shape::Alone(Kind::GetField), Shape::GetFieldBin] {
        assert_component(shape, 0, Kind::GetField);
        check(shape, BinOp::Rem, Ty::I64, Trigger::Null, 0, &NULL_AT);
    }
}

#[test]
fn the_instructions_no_pattern_holds_name_themselves() {
    let alone = |kind, trigger, want: &dyn Fn(InstrRef) -> VmError| {
        assert_component(Shape::Alone(kind), 0, kind);
        check(Shape::Alone(kind), BinOp::Div, Ty::I32, trigger, 0, want);
    };
    alone(Kind::PutField, Trigger::Null, &NULL_AT);
    alone(Kind::AStore, Trigger::Null, &NULL_AT);
    alone(Kind::ArrayLen, Trigger::Null, &NULL_AT);
    alone(
        Kind::AStore,
        Trigger::OutOfRange(LEN + 5),
        &out_of_range(LEN + 5, LEN as u64),
    );
    // A negative length is reported as an index into an empty array.
    alone(
        Kind::NewArray,
        Trigger::OutOfRange(-3),
        &out_of_range(-3, 0),
    );
}
