//! Differential tests for the direct-threaded interpreter: superinstruction
//! fusion must be a pure dispatch-count optimization (bit-identical
//! semantics and simulated numbers with fusion on or off), and a call must
//! run whatever body its callee has installed at that moment.

use spf_testkit::{cases, Rng};
use stride_prefetch::heap::Value;
use stride_prefetch::ir::{CmpOp, Conv, ElemTy, Instr, ProgramBuilder, Ty};
use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::vm::{Vm, VmConfig, VmStats};

// ---------------------------------------------------------------------
// Fusion equivalence: random programs exercising every fusable pattern
// (const/bin/move chains, array stores and loads, field access, statics,
// compare-and-branch back edges) and every typed handler family (`long`,
// `double` and reference compares, NaN operands included, alone and
// branched on; `byte` arrays; all six conversions) must produce the same
// values and the same simulated counters with `fuse_superinstructions` on
// and off.
// ---------------------------------------------------------------------

/// A random arithmetic expression over the in-scope `int` variables.
/// Division and remainder only ever see literal non-zero divisors, so no
/// random program traps.
fn arb_expr(rng: &mut Rng, vars: &[&str], fuel: u32) -> String {
    if fuel == 0 || rng.chance(1, 3) {
        return if rng.bool() {
            let v = rng.i32_in(-100, 100);
            if v < 0 {
                format!("(0 - {})", v.unsigned_abs())
            } else {
                format!("{v}")
            }
        } else {
            (*rng.pick(vars)).to_string()
        };
    }
    let a = arb_expr(rng, vars, fuel - 1);
    match rng.index(5) {
        0 => format!("({a} + {})", arb_expr(rng, vars, fuel - 1)),
        1 => format!("({a} - {})", arb_expr(rng, vars, fuel - 1)),
        2 => format!("({a} * {})", arb_expr(rng, vars, fuel - 1)),
        3 => format!("({a} / {})", rng.i32_in(1, 9)),
        _ => format!("({a} % {})", rng.i32_in(2, 9)),
    }
}

/// A random comparison operator.
fn arb_cmp(rng: &mut Rng) -> &'static str {
    const OPS: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];
    OPS[rng.index(OPS.len())]
}

/// A random kernel touching arrays (astore/aload), object fields
/// (getfield/putfield), statics, and both loop shapes, parameterized on
/// `x` so the interpreted and compiled activations see live input. Its
/// second loop runs the same accumulator through `long`, `double`, `byte`
/// and reference values.
fn arb_kernel(rng: &mut Rng) -> String {
    let n = rng.usize_in(4, 24);
    let byte_store = arb_expr(rng, &["i", "acc", "x"], 2);
    let wide_step = arb_expr(rng, &["acc", "i"], 1);
    let wide_bound = rng.i32_in(-2000, 2000);
    let real_bound = rng.f64_in(-50.0, 50.0);
    // Half the kernels compare against a NaN made at run time.
    let nan_or_one = if rng.bool() { "real - real" } else { "1.0" };
    let other = if rng.bool() { "p" } else { "q" };
    let (c1, c2, c3, c4, c5) = (
        arb_cmp(rng),
        arb_cmp(rng),
        arb_cmp(rng),
        arb_cmp(rng),
        arb_cmp(rng),
    );
    let ref_cmp = if rng.bool() { "==" } else { "!=" };
    let body_stores = arb_expr(rng, &["i", "acc", "x"], 2);
    let body_acc = arb_expr(rng, &["acc", "x", "t"], 2);
    let body_field = arb_expr(rng, &["i", "acc"], 1);
    let body_static = arb_expr(rng, &["acc", "x"], 1);
    let tail_step = rng.usize_in(1, 3);
    let tail_bound = rng.usize_in(1, 30);
    format!(
        "static int g;
         class P {{ int a; int b; }}
         int f(int x) {{
             int[] arr = new int[{n}];
             P p = new P();
             p.a = x;
             p.b = {init_b};
             int acc = x;
             for (int i = 0; i < {n}; i = i + 1) {{
                 arr[i] = {body_stores};
                 acc = acc + arr[i] + p.a;
                 p.b = p.b + {body_field};
                 g = g + {body_static};
             }}
             int t = 0;
             while (t < {tail_bound}) {{
                 t = t + {tail_step};
                 acc = acc + arr[t % {n}];
             }}
             byte[] bytes = new byte[{n}];
             P q = new P();
             P r = {other};
             long wide = (long) x * 1000003;
             double real = (double) x / 3.0;
             double odd = (real - real) / ({nan_or_one});
             for (int i = 0; i < {n}; i = i + 1) {{
                 bytes[i] = {byte_store};
                 acc = acc + bytes[i];
                 wide = wide * 31 + (long) ({wide_step});
                 if (wide {c1} (long) {wide_bound}) {{ acc = acc + 1; }}
                 acc = acc + 2 * (wide {c2} (long) acc);
                 real = real * 0.5 + (double) wide + (double) i;
                 if (real {c3} {real_bound:.3}) {{ acc = acc + 4; }}
                 if (odd {c4} real) {{ acc = acc + 8; }}
                 acc = acc + 16 * (real {c5} odd);
                 if (r {ref_cmp} p) {{ acc = acc + 32; }}
                 acc = acc + (int) wide + (int) real;
                 wide = wide + (long) real;
             }}
             return acc + t + p.b + g + {body_acc};
         }}",
        init_b = rng.i32_in(-50, 50),
    )
}

/// Runs `src` the way the benchmarks do — four calls, the second of which
/// triggers the JIT at the default threshold — and returns everything
/// counted from the first call on.
fn run(
    src: &str,
    fuse: bool,
    prefetch: PrefetchOptions,
) -> (
    Vec<Option<Value>>,
    VmStats,
    stride_prefetch::memsim::MemStats,
) {
    let program = stride_prefetch::lang::compile(src)
        .unwrap_or_else(|err| panic!("compile error {err} in {src}"));
    let mid = program.method_by_name("f").unwrap();
    let mut vm = Vm::new(
        program,
        VmConfig {
            fuse_superinstructions: fuse,
            prefetch,
            ..VmConfig::default()
        },
        ProcessorConfig::pentium4(),
    );
    let outs = (0..4)
        .map(|i| {
            vm.call(mid, &[Value::I32(7 + i)])
                .unwrap_or_else(|e| panic!("call {i} trapped: {e} in {src}"))
        })
        .collect();
    (outs, vm.stats().clone(), *vm.mem_stats())
}

#[test]
fn fused_dispatch_is_bit_identical_to_unfused() {
    cases(48, "fused dispatch is bit-identical to unfused", |rng| {
        let src = arb_kernel(rng);
        for prefetch in [PrefetchOptions::off(), PrefetchOptions::inter_intra()] {
            let mode = prefetch.mode;
            let (vals_f, stats_f, mem_f) = run(&src, true, prefetch.clone());
            let (vals_u, stats_u, mem_u) = run(&src, false, prefetch);
            assert_eq!(vals_f, vals_u, "returned values, mode={mode}, src={src}");
            let ctx = format!("mode={mode}, src={src}");
            // Fusion changes how long the host takes, never what the
            // simulation computes.
            assert_eq!(stats_f.simulated(), stats_u.simulated(), "{ctx}");
            assert_eq!(mem_f, mem_u, "memory-system stats: {ctx}");
        }
    });
}

#[test]
fn fusion_actually_fires_on_the_random_kernels() {
    // Guard against the equivalence test passing vacuously: the generated
    // kernels must contain fusable patterns.
    cases(16, "fusion fires on the random kernels", |rng| {
        let src = arb_kernel(rng);
        let program = stride_prefetch::lang::compile(&src).unwrap();
        // ... and an instruction of every typed handler family.
        let f = program.method(program.method_by_name("f").unwrap()).func();
        let has = |p: &dyn Fn(&Instr) -> bool| f.instr_sites().any(|s| p(f.instr(s)));
        for ty in [Ty::I32, Ty::I64, Ty::F64, Ty::Ref] {
            let cmp = |i: &Instr| matches!(i, Instr::Cmp { a, .. } if f.reg_ty(*a) == ty);
            assert!(has(&cmp), "no {ty} compare in {src}");
        }
        for code in 0..6 {
            let conv = Conv::from_code(code);
            let convert = |i: &Instr| matches!(i, Instr::Convert { conv: c, .. } if *c == conv);
            assert!(has(&convert), "no {conv:?} in {src}");
        }
        let byte = ElemTy::I8;
        assert!(has(
            &|i| matches!(i, Instr::ALoad { elem, .. } if *elem == byte)
        ));
        assert!(has(
            &|i| matches!(i, Instr::AStore { elem, .. } if *elem == byte)
        ));
        let vm: Vm = Vm::new(program, VmConfig::default(), ProcessorConfig::pentium4());
        assert!(vm.fused_op_count() > 0, "no superinstructions in {src}");
    });
}

/// `main(n)` sums `sq(i)` over `0..n` through one call site.
fn sq_loop() -> (
    stride_prefetch::ir::Program,
    stride_prefetch::ir::MethodId,
    stride_prefetch::ir::MethodId,
) {
    let mut pb = ProgramBuilder::new();
    let sq = {
        let mut b = pb.function("sq", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let y = b.mul(x, x);
        b.ret(Some(y));
        b.finish()
    };
    let mut b = pb.function("main", &[Ty::I32], Some(Ty::I32));
    let n = b.param(0);
    let acc = b.new_reg(Ty::I32);
    let z = b.const_i32(0);
    b.move_(acc, z);
    b.for_i32(
        0,
        1,
        CmpOp::Lt,
        |_| n,
        |b, i| {
            let s = b.call(sq, &[i]);
            let t = b.add(acc, s);
            b.move_(acc, t);
        },
    );
    b.ret(Some(acc));
    let main = b.finish();
    (pb.finish(), sq, main)
}

/// Cycles `sq` has spent in compiled code so far.
fn compiled_cycles(vm: &Vm, sq: stride_prefetch::ir::MethodId) -> u64 {
    vm.stats().per_method[sq.index()].compiled
}

#[test]
fn each_reinstalled_callee_body_runs_compiled() {
    let (program, sq, main) = sq_loop();
    let sq_body = program.method(sq).func().clone();

    let mut vm = Vm::new(
        program,
        VmConfig {
            // Never JIT on its own: every body change below is ours.
            compile_threshold: u32::MAX,
            ..VmConfig::default()
        },
        ProcessorConfig::pentium4(),
    );
    let expected = vm.call(main, &[Value::I32(50)]).unwrap();
    assert_eq!(compiled_cycles(&vm, sq), 0);

    // Install the same body repeatedly: each install replaces the last
    // (and frees it), and main's one call site must run the new one.
    for round in 0..3 {
        vm.install_compiled(sq, sq_body.clone());
        let before = compiled_cycles(&vm, sq);
        assert_eq!(
            vm.call(main, &[Value::I32(50)]).unwrap(),
            expected,
            "a reinstalled body must not change the computed value"
        );
        assert!(
            compiled_cycles(&vm, sq) > before,
            "round {round}: the calls must run the installed body"
        );
    }
}

/// A callee past the compile threshold whose async compile is still queued
/// keeps running its original, and the first call after the compile lands
/// runs the compiled body.
#[test]
fn a_pending_async_compile_runs_interpreted_until_installed() {
    let (program, sq, main) = sq_loop();
    let mut vm = Vm::new(
        program,
        VmConfig {
            compile_threshold: 5,
            async_compile: true,
            ..VmConfig::default()
        },
        ProcessorConfig::pentium4(),
    );
    // The queue is not drained yet, so `sq` stays interpreted throughout.
    let expected = vm.call(main, &[Value::I32(50)]).unwrap();
    assert!(vm.take_compile_requests().contains(&sq));
    assert!(!vm.is_compiled(sq));
    assert_eq!(vm.stats().per_method[sq.index()].invocations, 50);
    assert_eq!(compiled_cycles(&vm, sq), 0);

    vm.compile_pending(sq).expect("pending request");
    assert_eq!(vm.call(main, &[Value::I32(50)]).unwrap(), expected);
    assert!(
        compiled_cycles(&vm, sq) > 0,
        "the compiled callee must run once installed"
    );
}
