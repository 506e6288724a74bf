//! Cross-crate tests for the static-analysis layer (`spf-analysis`).
//!
//! Two directions: every method body the JIT produces — after lowering,
//! folding, DCE, and prefetch insertion — must pass the structural
//! verifier and the full lint under the simulated processor's
//! guarded-load rule; and deliberately broken IR (use-before-def,
//! speculation leaking into a store) must be caught, including shapes the
//! structural verifier alone cannot see.

use spf_testkit::cases;
use stride_prefetch::analysis::{self, LintConfig};
use stride_prefetch::bench::{checks, matrix};
use stride_prefetch::ir::verify::verify_all;
use stride_prefetch::ir::{
    BinOp, CmpOp, Const, ElemTy, Function, Instr, PrefetchAddr, ProgramBuilder, Terminator, Ty,
};
use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::trace::NoopSink;
use stride_prefetch::vm::{Vm, VmConfig};
use stride_prefetch::workloads::{self, Size};

/// Builds, warms up (so the JIT runs), and checks one workload
/// configuration end to end: every compiled generation passes the
/// verifier and the lint on both processors.
fn run_and_lint(spec: &workloads::WorkloadSpec, options: PrefetchOptions) {
    let prep = spec.prepare(Size::Tiny);
    for proc in matrix::processors() {
        let label = format!("{}/{}/{}", spec.name, options.mode, proc.name);
        let mut vm = prep.vm(prep.vm_config(&options), &proc, NoopSink);
        prep.warm(&mut vm, 2);
        let found = checks::generations(&vm, &proc);
        assert_eq!(found.violations, Vec::<String>::new(), "{label}");
        assert!(found.compiled > 0, "{label}: the JIT compiled no methods");
    }
}

// -------------------------------------------------------------------
// Every registry workload, through the whole optimizer (folding + DCE +
// prefetch insertion), produces lint-clean compiled code.
// -------------------------------------------------------------------

#[test]
fn optimized_workloads_pass_lint_and_verifier() {
    for spec in workloads::all() {
        run_and_lint(&spec, PrefetchOptions::inter_intra());
    }
}

// -------------------------------------------------------------------
// Randomized configurations: no workload in any of the four modes, on
// either processor, produces a compiled body the lint rejects.
// -------------------------------------------------------------------

#[test]
fn random_jit_configs_pass_lint() {
    let specs = workloads::all();
    cases(10, "random jit configs pass lint", |rng| {
        let spec = &specs[rng.index(specs.len())];
        let modes = matrix::modes();
        let options = modes[rng.index(modes.len())].clone();
        run_and_lint(spec, options);
    });
}

// -------------------------------------------------------------------
// Mutation tests: IR broken in ways the VM would silently tolerate (it
// zero-initializes frames; stores through speculative null go through the
// heap's fault path only at runtime) must be rejected statically.
// -------------------------------------------------------------------

#[test]
fn mutation_one_armed_initialization_is_caught() {
    let mut pb = ProgramBuilder::new();
    let mut b = pb.function("mutant", &[Ty::I32], Some(Ty::I32));
    let x = b.param(0);
    let zero = b.const_i32(0);
    let c = b.gt(x, zero);
    let v = b.new_reg(Ty::I32);
    b.if_else(c, |b| b.move_(v, x), |_| {});
    let out = b.add(v, x); // v is unassigned when the else arm ran
    b.ret(Some(out));
    let m = b.finish();
    let p = pb.finish();
    let func = p.method(m).func();
    // Structurally valid — only the dataflow analysis sees the hole.
    assert!(verify_all(&p, func).is_empty());
    let findings = analysis::lint(func, &LintConfig::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("before definite assignment"));
}

/// A counted loop whose body spec-loads a link and then *stores* through
/// the speculative reference — the leak the codegen discipline forbids.
fn speculative_store_mutant() -> Function {
    let mut f = Function::with_signature("mutant", &[Ty::Ref, Ty::I32], None);
    let head = f.params().next().unwrap();
    let n = f.params().nth(1).unwrap();
    let i = f.new_reg(Ty::I32);
    let one = f.new_reg(Ty::I32);
    let cond = f.new_reg(Ty::I32);
    let spec = f.new_reg(Ty::Ref);
    let entry = f.entry();
    let header = f.add_block();
    let body = f.add_block();
    let exit = f.add_block();
    {
        let blk = f.block_mut(entry);
        blk.instrs.push(Instr::Const {
            dst: i,
            value: Const::I32(0),
        });
        blk.instrs.push(Instr::Const {
            dst: one,
            value: Const::I32(1),
        });
        blk.term = Terminator::Jump(header);
    }
    {
        let blk = f.block_mut(header);
        blk.instrs.push(Instr::Cmp {
            dst: cond,
            op: CmpOp::Lt,
            a: i,
            b: n,
        });
        blk.term = Terminator::Branch {
            cond,
            then_bb: body,
            else_bb: exit,
        };
    }
    {
        let blk = f.block_mut(body);
        blk.instrs.push(Instr::SpecLoad {
            dst: spec,
            addr: PrefetchAddr::FieldOf {
                base: head,
                delta: 8,
            },
        });
        blk.instrs.push(Instr::AStore {
            arr: spec,
            idx: i,
            src: one,
            elem: ElemTy::I32,
        });
        blk.instrs.push(Instr::Bin {
            dst: i,
            op: BinOp::Add,
            a: i,
            b: one,
        });
        blk.term = Terminator::Jump(header);
    }
    f.block_mut(exit).term = Terminator::Return(None);
    f
}

#[test]
fn mutation_speculative_store_is_caught() {
    let findings = analysis::lint(&speculative_store_mutant(), &LintConfig::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0]
        .message
        .contains("leaks into non-speculative use"));
}

/// The shared check must not go vacuous: a leaking body that reaches a VM
/// out of band is reported, with its method and generation.
#[test]
fn generations_check_reports_an_installed_leak() {
    let mut pb = ProgramBuilder::new();
    let mut b = pb.function("mutant", &[Ty::Ref, Ty::I32], None);
    b.ret(None);
    let mutant = b.finish();
    let proc = ProcessorConfig::pentium4();
    let mut vm = Vm::new(pb.finish(), VmConfig::default(), proc.clone());
    assert_eq!(
        checks::generations(&vm, &proc),
        checks::Generations::default()
    );
    vm.install_compiled(mutant, speculative_store_mutant());
    let found = checks::generations(&vm, &proc);
    assert_eq!(found.compiled, 1);
    assert_eq!(found.violations.len(), 1, "{found:?}");
    let v = &found.violations[0];
    assert!(v.starts_with("mutant g0: lint: "), "{v}");
    assert!(v.contains("leaks into non-speculative use"), "{v}");
}
