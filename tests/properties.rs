//! Property-based tests spanning crates (self-contained harness: the
//! build environment has no crates.io access, so `spf-testkit` replaces
//! proptest).

use spf_testkit::{cases, Rng};
use stride_prefetch::bench::matrix;
use stride_prefetch::heap::{Heap, Layout, Value, ARRAY_DATA_OFFSET, NULL};
use stride_prefetch::ir::cfg::Cfg;
use stride_prefetch::ir::dom::DomTree;
use stride_prefetch::ir::loops::LoopForest;
use stride_prefetch::ir::{
    BinOp, CmpOp, Const, Conv, ElemTy, FunctionBuilder, Instr, Program, ProgramBuilder, Reg, Ty,
    UnOp,
};
use stride_prefetch::memsim::{MemorySystem, ProcessorConfig};
use stride_prefetch::prefetch::{Inspector, PrefetchOptions};
use stride_prefetch::trace::NoopSink;
use stride_prefetch::vm::{passes, Vm, VmConfig, VmError};
use stride_prefetch::workloads::{self, Size};

// ---------------------------------------------------------------------
// Language/VM semantics: random integer expression trees evaluated by the
// whole stack (lexer -> parser -> lowering -> passes -> interpreter) must
// match a reference evaluation in Rust.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum E {
    Lit(i32),
    Var, // the single parameter x
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
}

impl E {
    fn to_src(&self) -> String {
        match self {
            E::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", v.unsigned_abs())
                } else {
                    format!("{v}")
                }
            }
            E::Var => "x".to_string(),
            E::Add(a, b) => format!("({} + {})", a.to_src(), b.to_src()),
            E::Sub(a, b) => format!("({} - {})", a.to_src(), b.to_src()),
            E::Mul(a, b) => format!("({} * {})", a.to_src(), b.to_src()),
            E::Lt(a, b) => format!("({} < {})", a.to_src(), b.to_src()),
        }
    }

    fn eval(&self, x: i32) -> i32 {
        match self {
            E::Lit(v) => *v,
            E::Var => x,
            E::Add(a, b) => a.eval(x).wrapping_add(b.eval(x)),
            E::Sub(a, b) => a.eval(x).wrapping_sub(b.eval(x)),
            E::Mul(a, b) => a.eval(x).wrapping_mul(b.eval(x)),
            E::Lt(a, b) => (a.eval(x) < b.eval(x)) as i32,
        }
    }
}

fn arb_expr(rng: &mut Rng, fuel: u32) -> E {
    if fuel == 0 || rng.chance(1, 3) {
        return if rng.bool() {
            E::Lit(rng.i32_in(-1000, 999))
        } else {
            E::Var
        };
    }
    let a = Box::new(arb_expr(rng, fuel - 1));
    let b = Box::new(arb_expr(rng, fuel - 1));
    match rng.index(4) {
        0 => E::Add(a, b),
        1 => E::Sub(a, b),
        2 => E::Mul(a, b),
        _ => E::Lt(a, b),
    }
}

#[test]
fn lang_expressions_match_reference() {
    cases(64, "lang expressions match reference", |rng| {
        let e = arb_expr(rng, 4);
        let x = rng.i32_in(-1000, 999);
        let src = format!("int f(int x) {{ return {}; }}", e.to_src());
        let program = stride_prefetch::lang::compile(&src)
            .unwrap_or_else(|err| panic!("compile error {err} in {src}"));
        let mid = program.method_by_name("f").unwrap();
        let mut vm = Vm::new(program, VmConfig::default(), ProcessorConfig::pentium4());
        // Run twice: once interpreted, once JIT-compiled (constant folding,
        // copy propagation, DCE all run) — both must match the reference.
        let a = vm.call(mid, &[Value::I32(x)]).unwrap();
        let b = vm.call(mid, &[Value::I32(x)]).unwrap();
        assert_eq!(a, Some(Value::I32(e.eval(x))), "interpreted, src={src}");
        assert_eq!(b, Some(Value::I32(e.eval(x))), "compiled, src={src}");
    });
}

// -------------------------------------------------------------------
// Memory-system invariants over random access streams.
// -------------------------------------------------------------------

#[test]
fn memsim_counters_are_consistent() {
    cases(64, "memsim counters are consistent", |rng| {
        let addrs = rng.vec(1, 299, |r| r.u64_in(0x10_0000, 0x50_0000 - 1));
        let prefetch_every = rng.usize_in(1, 7);
        let mut m = MemorySystem::new(ProcessorConfig::pentium4());
        let mut now = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            if i % prefetch_every == 0 {
                now += m.software_prefetch(a ^ 0x40, now);
            }
            now += m.load(a, now);
        }
        let s = m.stats();
        assert_eq!(s.loads, addrs.len() as u64);
        assert!(s.l1_load_misses <= s.loads);
        assert!(
            s.l2_load_misses <= s.l1_load_misses,
            "an L2 miss event implies an L1 miss event"
        );
        assert!(s.dtlb_load_misses <= s.loads);
        assert!(s.swpf_dropped_tlb <= s.swpf_issued);
        assert!(s.swpf_fills <= s.swpf_issued);
    });
}

#[test]
fn memsim_second_access_hits() {
    cases(64, "memsim second access hits", |rng| {
        let addr = rng.u64_in(0x10_0000, 0x40_0000 - 1);
        let gap = rng.u64_in(0, 63);
        let mut m = MemorySystem::new(ProcessorConfig::athlon_mp());
        let aligned = addr & !63;
        let lat1 = m.load(aligned, 0);
        let lat2 = m.load(aligned + gap, lat1);
        // Second access to the same line is an L1 hit.
        assert_eq!(lat2, m.config().l1.hit_latency);
        assert_eq!(m.stats().l1_load_misses, 1);
    });
}

// -------------------------------------------------------------------
// Optimizer fuzz: no mode on either processor changes db's checksum.
// -------------------------------------------------------------------

#[test]
fn random_options_preserve_semantics() {
    let spec = workloads::all()
        .into_iter()
        .find(|s| s.name == "db")
        .unwrap();
    let db = spec.prepare(Size::Tiny);
    let p4 = ProcessorConfig::pentium4();
    let reference = {
        let mut vm = db.vm(db.vm_config(&PrefetchOptions::off()), &p4, NoopSink);
        db.warm(&mut vm, 1)
    };
    cases(8, "random options preserve semantics", |rng| {
        let modes = matrix::modes();
        let options = &modes[rng.index(modes.len())];
        let proc = &matrix::processors()[rng.index(2)];
        let mut vm = db.vm(db.vm_config(options), proc, NoopSink);
        assert_eq!(db.warm(&mut vm, 1), reference);
        assert_eq!(db.warm(&mut vm, 1), reference);
    });
}

// -------------------------------------------------------------------
// One scalar evaluator: the interpreter, the compiled tier, the constant
// folder and object inspection all compute `Bin`/`Un`/`Cmp`/`Convert`
// through `spf_heap::apply_*`, so they must agree on every operand —
// including the edges where they once did not (`MIN / -1` faulted in the
// interpreter and wrapped in the inspector).
// -------------------------------------------------------------------

/// One scalar IR instruction applied to concrete operands.
#[derive(Clone, Copy, Debug)]
enum Scalar {
    Bin(BinOp, Value, Value),
    Un(UnOp, Value),
    Cmp(CmpOp, Value, Value),
    Conv(Conv, Value),
}

impl Scalar {
    fn operands(self) -> Vec<Value> {
        match self {
            Scalar::Bin(_, a, b) | Scalar::Cmp(_, a, b) => vec![a, b],
            Scalar::Un(_, a) | Scalar::Conv(_, a) => vec![a],
        }
    }

    fn result_ty(self) -> Ty {
        match self {
            Scalar::Bin(_, a, _) | Scalar::Un(_, a) => a.ty(),
            Scalar::Cmp(..) => Ty::I32,
            Scalar::Conv(c, _) => c.signature().1,
        }
    }

    /// Emits the instruction over `regs` (one per operand).
    fn emit(self, b: &mut FunctionBuilder<'_>, regs: &[Reg]) -> Reg {
        match self {
            Scalar::Bin(op, ..) => b.bin(op, regs[0], regs[1]),
            Scalar::Un(op, _) => b.un(op, regs[0]),
            Scalar::Cmp(op, ..) => b.cmp(op, regs[0], regs[1]),
            Scalar::Conv(c, _) => b.convert(c, regs[0]),
        }
    }
}

/// Equality that tells NaN payloads and signed zeros apart.
fn same(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn konst(b: &mut FunctionBuilder<'_>, v: Value) -> Reg {
    match v {
        Value::I32(x) => b.const_i32(x),
        Value::I64(x) => b.const_i64(x),
        Value::F64(x) => b.const_f64(x),
        Value::Ref(a) => {
            assert_eq!(a, NULL, "null is the only reference constant");
            b.null()
        }
    }
}

fn small_vm(program: Program) -> Vm {
    Vm::new(
        program,
        VmConfig {
            heap_bytes: 1 << 16,
            ..VmConfig::default()
        },
        ProcessorConfig::pentium4(),
    )
}

/// The result of an interpreted and then a compiled call of
/// `f(operands…) = op(operands…)`. The operands are parameters, so the
/// folder sees no constant and both tiers really execute the instruction.
/// `None` is a division-by-zero fault.
fn executed(s: Scalar) -> [Option<Value>; 2] {
    let args = s.operands();
    let tys: Vec<Ty> = args.iter().map(|v| v.ty()).collect();
    let mut pb = ProgramBuilder::new();
    let mut b = pb.function("f", &tys, Some(s.result_ty()));
    let params: Vec<Reg> = (0..args.len()).map(|i| b.param(i)).collect();
    let r = s.emit(&mut b, &params);
    b.ret(Some(r));
    let f = b.finish();
    let mut vm = small_vm(pb.finish());
    let call = |vm: &mut Vm| match vm.call(f, &args) {
        Ok(v) => Some(v.expect("f returns a value")),
        Err(VmError::DivisionByZero { .. }) => None,
        Err(e) => panic!("{s:?}: {e}"),
    };
    let interpreted = call(&mut vm);
    assert!(!vm.is_compiled(f), "the first call is interpreted");
    let compiled = call(&mut vm);
    assert!(vm.is_compiled(f), "the second call crosses the threshold");
    [interpreted, compiled]
}

/// `g() = op(constants…)` through the baseline passes: the constant the
/// folder left in place of the instruction (`None` if it declined), and
/// what the optimized body returns when compiled and run.
fn folded(s: Scalar) -> (Option<Value>, Option<Value>) {
    let mut pb = ProgramBuilder::new();
    let mut b = pb.function("g", &[], Some(s.result_ty()));
    let consts: Vec<Reg> = s.operands().iter().map(|&v| konst(&mut b, v)).collect();
    let r = s.emit(&mut b, &consts);
    b.ret(Some(r));
    let g = b.finish();
    let program = pb.finish();
    let body = passes::optimize(&program, program.method(g).func());
    let site = body
        .instr_sites()
        .find(|&at| body.instr(at).dst() == Some(r))
        .expect("the returned register stays defined");
    let constant = match body.instr(site) {
        // Spelled out rather than `Value::from(*value)`: that conversion
        // sits with the evaluator under test (and a checkout without it
        // can still compile this file to see the tests fail).
        Instr::Const { value, .. } => Some(match *value {
            Const::I32(x) => Value::I32(x),
            Const::I64(x) => Value::I64(x),
            Const::F64(x) => Value::F64(x),
            Const::Null => Value::Ref(NULL),
        }),
        _ => None,
    };
    let mut vm = small_vm(program);
    vm.install_compiled(g, body);
    let ran = match vm.call(g, &[]) {
        Ok(v) => v,
        Err(VmError::DivisionByZero { .. }) => None,
        Err(e) => panic!("{s:?}: {e}"),
    };
    (constant, ran)
}

/// Whether object inspection computes `expected` for the instruction:
/// `h(arr, operands…)` loops over `arr[(op(operands…) == expected)]`, so
/// the recorded element address spells the inspector's answer. `None`
/// when the inspector's value is unknown (no address is recorded).
fn inspected_equals(s: Scalar, expected: Value) -> Option<bool> {
    let args = s.operands();
    let mut tys = vec![Ty::Ref];
    tys.extend(args.iter().map(|v| v.ty()));
    let mut pb = ProgramBuilder::new();
    let mut b = pb.function("h", &tys, None);
    let arr = b.param(0);
    let params: Vec<Reg> = (1..=args.len()).map(|i| b.param(i)).collect();
    b.for_i32(
        0,
        1,
        CmpOp::Lt,
        |b| b.arraylen(arr),
        |b, _| {
            let r = s.emit(b, &params);
            let hit = match expected {
                // NaN equals nothing, itself included.
                Value::F64(x) if x.is_nan() => b.ne(r, r),
                _ => {
                    let k = konst(b, expected);
                    b.eq(r, k)
                }
            };
            b.aload(arr, hit, ElemTy::I8);
        },
    );
    b.ret(None);
    let h = b.finish();
    let program = pb.finish();
    let mut heap = Heap::new(Layout::compute(&program), 1 << 12);
    let arr = heap.alloc_array(ElemTy::I8, 2).unwrap();
    let func = program.method(h).func();
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(func, &cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    let site = func
        .instr_sites()
        .find(|&at| matches!(func.instr(at), Instr::ALoad { .. }))
        .unwrap();
    let mut argv = vec![Value::Ref(arr)];
    argv.extend(args);
    let result = Inspector::new(&program, func, &heap, &[], &forest).run(
        &argv,
        forest.roots()[0],
        &[site].into_iter().collect(),
    );
    let trace = result.traces.get(&site)?;
    Some(trace[0].1 - (arr + ARRAY_DATA_OFFSET) == 1)
}

/// Asserts that every evaluation site agrees on `s`, and returns the
/// agreed value (`None` for a zero divisor). Sharing one evaluator makes
/// the sites defined on exactly the same operands, so this asks for more
/// than agreement where each is defined: the folder must fold, and the
/// inspector must know, whatever the interpreter can compute.
fn check_agreement(s: Scalar) -> Option<Value> {
    let [interpreted, compiled] = executed(s);
    let (constant, ran) = folded(s);
    match interpreted {
        Some(v) => {
            let inspected = inspected_equals(s, v);
            assert!(compiled.is_some_and(|c| same(c, v)), "{s:?}: {compiled:?}");
            assert!(constant.is_some_and(|c| same(c, v)), "{s:?}: {constant:?}");
            assert!(ran.is_some_and(|c| same(c, v)), "{s:?}: {ran:?}");
            assert_eq!(inspected, Some(true), "{s:?}: inspection disagrees");
        }
        None => {
            // A zero divisor faults in both tiers, stays unfolded so the
            // compiled body still faults, and is unknown to inspection.
            assert_eq!(compiled, None, "{s:?}");
            assert_eq!((constant, ran), (None, None), "{s:?}");
            let zero = Value::zero_of(s.result_ty());
            assert_eq!(inspected_equals(s, zero), None, "{s:?}");
        }
    }
    interpreted
}

#[test]
fn min_over_minus_one_wraps_in_every_tier() {
    for (op, a, b, expected) in [
        (
            BinOp::Div,
            Value::I32(i32::MIN),
            Value::I32(-1),
            Value::I32(i32::MIN),
        ),
        (
            BinOp::Rem,
            Value::I32(i32::MIN),
            Value::I32(-1),
            Value::I32(0),
        ),
        (
            BinOp::Div,
            Value::I64(i64::MIN),
            Value::I64(-1),
            Value::I64(i64::MIN),
        ),
        (
            BinOp::Rem,
            Value::I64(i64::MIN),
            Value::I64(-1),
            Value::I64(0),
        ),
    ] {
        assert_eq!(check_agreement(Scalar::Bin(op, a, b)), Some(expected));
    }
}

fn arb_value(rng: &mut Rng, ty: Ty) -> Value {
    let edge = rng.chance(3, 4);
    match ty {
        Ty::I32 if edge => Value::I32(*rng.pick(&[0, 1, -1, i32::MIN, i32::MAX, 31, 32, 33, 64])),
        Ty::I32 => Value::I32(rng.u64() as i32),
        Ty::I64 if edge => Value::I64(*rng.pick(&[0, 1, -1, i64::MIN, i64::MAX, 63, 64, 65, 128])),
        Ty::I64 => Value::I64(rng.u64() as i64),
        Ty::F64 if edge => Value::F64(*rng.pick(&[
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            3e9, // beyond i32
            -3e9,
            1e19, // beyond i64
            -1e19,
        ])),
        Ty::F64 => Value::F64(rng.f64_in(-1e6, 1e6)),
        Ty::Ref => Value::Ref(NULL),
    }
}

fn arb_scalar(rng: &mut Rng) -> Scalar {
    let numeric = [Ty::I32, Ty::I64, Ty::F64];
    match rng.index(4) {
        0 => {
            let ty = *rng.pick(&numeric);
            // Floats have no remainder or bit operations (codes 4..).
            let ops = if ty == Ty::F64 { 4 } else { 11 };
            let op = BinOp::from_code(rng.index(ops) as u8);
            Scalar::Bin(op, arb_value(rng, ty), arb_value(rng, ty))
        }
        1 => {
            // `Not` is integer-only.
            let op = UnOp::from_code(rng.index(2) as u8);
            let tys = if op == UnOp::Not { 2 } else { 3 };
            let ty = numeric[rng.index(tys)];
            Scalar::Un(op, arb_value(rng, ty))
        }
        2 => {
            let ty = *rng.pick(&[Ty::I32, Ty::I64, Ty::F64, Ty::Ref]);
            let op = CmpOp::from_code(rng.index(6) as u8);
            Scalar::Cmp(op, arb_value(rng, ty), arb_value(rng, ty))
        }
        _ => {
            let conv = Conv::from_code(rng.index(6) as u8);
            Scalar::Conv(conv, arb_value(rng, conv.signature().0))
        }
    }
}

#[test]
fn scalar_semantics_agree_across_interpreter_folder_and_inspector() {
    cases(256, "scalar semantics agree", |rng| {
        check_agreement(arb_scalar(rng));
    });
}
