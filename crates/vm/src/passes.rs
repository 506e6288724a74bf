//! Baseline JIT optimization passes.
//!
//! These run on every method the VM compiles, in every configuration
//! (BASELINE, INTER, INTER+INTRA). They exist both to make compiled code
//! behave like compiled code and to give Figure 11's "additional
//! compilation time for prefetching / total JIT compilation time" a real
//! denominator: a JIT that does nothing else would make any pass look
//! expensive.
//!
//! Passes (run to a fixpoint, bounded):
//!
//! * **constant folding** — `Bin`/`Cmp`/`Un`/`Convert` over `Const`
//!   operands fold to `Const`;
//! * **copy propagation** — uses of a register holding a straight-line copy
//!   are rewritten to the source while both stay unchanged (block-local);
//! * **dead code elimination** — pure instructions (arithmetic, constants,
//!   copies) whose results are never used are removed. Loads are *not*
//!   eliminated: in this simulator memory traffic is observable behaviour.

use std::collections::HashMap;

use spf_heap::{apply_bin, apply_cmp, apply_conv, apply_un, Value};
use spf_ir::{Function, Instr, Program, Reg};

/// Runs the baseline pass pipeline on a clone of `func`.
pub fn optimize(program: &Program, func: &Function) -> Function {
    let mut f = func.clone();
    for _ in 0..3 {
        let a = fold_constants(&mut f);
        let b = propagate_copies(&mut f);
        let c = eliminate_dead_code(&mut f);
        if !(a || b || c) {
            break;
        }
    }
    debug_assert!(spf_ir::verify::verify(program, &f).is_ok());
    f
}

/// Folds constant expressions; returns whether anything changed.
pub fn fold_constants(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        // Block-local constant environment, held as the `Value`s the
        // shared evaluator works on.
        let mut consts: HashMap<Reg, Value> = HashMap::new();
        let block = f.block_mut(b);
        for instr in &mut block.instrs {
            let folded = match &*instr {
                Instr::Const { dst, value } => {
                    consts.insert(*dst, Value::from(*value));
                    continue;
                }
                Instr::Bin { op, a, b, .. } => match (consts.get(a), consts.get(b)) {
                    (Some(&x), Some(&y)) => apply_bin(*op, x, y),
                    _ => None,
                },
                Instr::Cmp { op, a, b, .. } => match (consts.get(a), consts.get(b)) {
                    (Some(&x), Some(&y)) => apply_cmp(*op, x, y).map(Value::I32),
                    _ => None,
                },
                Instr::Un { op, src, .. } => consts.get(src).and_then(|&x| apply_un(*op, x)),
                Instr::Convert { conv, src, .. } => {
                    consts.get(src).and_then(|&x| apply_conv(*conv, x))
                }
                _ => None,
            }
            .and_then(Value::as_const);
            let Some(dst) = instr.dst() else { continue };
            match folded {
                Some(value) => {
                    *instr = Instr::Const { dst, value };
                    consts.insert(dst, value.into());
                    changed = true;
                }
                None => {
                    consts.remove(&dst);
                }
            }
        }
    }
    changed
}

/// Block-local copy propagation; returns whether anything changed.
///
/// A use of `dst` after `dst = src` is rewritten to `src` as long as
/// neither register has been redefined since.
pub fn propagate_copies(f: &mut Function) -> bool {
    let mut changed = false;
    let params: Vec<Reg> = f.params().collect();
    for b in f.block_ids().collect::<Vec<_>>() {
        let mut copies: HashMap<Reg, Reg> = HashMap::new();
        let block = f.block_mut(b);
        for instr in &mut block.instrs {
            // Rewrite uses first.
            changed |= rewrite_uses(instr, &copies);
            // Then update the copy environment.
            if let Instr::Move { dst, src } = *instr {
                // The move redefines `dst`: drop every fact about it.
                copies.remove(&dst);
                copies.retain(|_, &mut s| s != dst);
                // Never propagate into parameters (keeps them stable for
                // inspection/debugging).
                if !params.contains(&dst) && dst != src {
                    copies.insert(dst, src);
                }
            } else if let Some(d) = instr.dst() {
                copies.remove(&d);
                copies.retain(|_, &mut s| s != d);
            }
        }
        // Terminator uses.
        let mut term = block.term.clone();
        let t_changed = match &mut term {
            spf_ir::Terminator::Branch { cond, .. } => substitute(cond, &copies),
            spf_ir::Terminator::Return(Some(r)) => substitute(r, &copies),
            _ => false,
        };
        if t_changed {
            block.term = term;
            changed = true;
        }
    }
    changed
}

fn substitute(r: &mut Reg, copies: &HashMap<Reg, Reg>) -> bool {
    if let Some(&s) = copies.get(r) {
        *r = s;
        true
    } else {
        false
    }
}

fn rewrite_uses(instr: &mut Instr, copies: &HashMap<Reg, Reg>) -> bool {
    if copies.is_empty() {
        return false;
    }
    let mut changed = false;
    macro_rules! sub {
        ($($r:expr),*) => {{ $( changed |= substitute($r, copies); )* }};
    }
    match instr {
        Instr::Const { .. } | Instr::GetStatic { .. } | Instr::New { .. } => {}
        Instr::Move { src, .. } | Instr::Un { src, .. } | Instr::Convert { src, .. } => {
            sub!(src);
        }
        Instr::Bin { a, b, .. } | Instr::Cmp { a, b, .. } => sub!(a, b),
        Instr::GetField { obj, .. } => sub!(obj),
        Instr::PutField { obj, src, .. } => sub!(obj, src),
        Instr::PutStatic { src, .. } => sub!(src),
        Instr::ALoad { arr, idx, .. } => sub!(arr, idx),
        Instr::AStore { arr, idx, src, .. } => sub!(arr, idx, src),
        Instr::ArrayLen { arr, .. } => sub!(arr),
        Instr::NewArray { len, .. } => sub!(len),
        Instr::Call { args, .. } => {
            for a in args {
                changed |= substitute(a, copies);
            }
        }
        Instr::Prefetch { addr, .. } => changed |= sub_addr(addr, copies),
        Instr::SpecLoad { addr, .. } => changed |= sub_addr(addr, copies),
    }
    changed
}

fn sub_addr(addr: &mut spf_ir::PrefetchAddr, copies: &HashMap<Reg, Reg>) -> bool {
    match addr {
        spf_ir::PrefetchAddr::FieldOf { base, .. } => substitute(base, copies),
        spf_ir::PrefetchAddr::ArrayElem { arr, idx, .. } => {
            let a = substitute(arr, copies);
            let b = substitute(idx, copies);
            a || b
        }
    }
}

/// Removes pure instructions whose results are never used; returns whether
/// anything changed. Loads, stores, allocations, calls, and prefetches are
/// always kept.
pub fn eliminate_dead_code(f: &mut Function) -> bool {
    let mut used = vec![false; f.reg_count()];
    let mut buf = Vec::new();
    for b in f.block_ids() {
        for instr in &f.block(b).instrs {
            buf.clear();
            instr.uses(&mut buf);
            for r in &buf {
                used[r.index()] = true;
            }
        }
        buf.clear();
        f.block(b).term.uses(&mut buf);
        for r in &buf {
            used[r.index()] = true;
        }
    }
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let block = f.block_mut(b);
        let before = block.instrs.len();
        block.instrs.retain(|instr| match instr {
            Instr::Const { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Convert { dst, .. } => used[dst.index()],
            _ => true,
        });
        changed |= block.instrs.len() != before;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::{BinOp, ProgramBuilder, Ty};

    fn build_arith() -> (Program, spf_ir::MethodId) {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("f", &[], Some(Ty::I32));
        let two = b.const_i32(2);
        let three = b.const_i32(3);
        let six = b.mul(two, three); // foldable
        let copy = b.new_reg(Ty::I32);
        b.move_(copy, six);
        let out = b.add(copy, two); // copy-propagatable
        let _dead = b.add(three, three); // dead
        b.ret(Some(out));
        let m = b.finish();
        (pb.finish(), m)
    }

    #[test]
    fn folding_and_dce_shrink_the_function() {
        let (p, m) = build_arith();
        let f0 = p.method(m).func();
        let f1 = optimize(&p, f0);
        assert!(f1.instr_count() < f0.instr_count());
        // The multiply folded to a constant.
        let has_mul = f1
            .instr_sites()
            .any(|s| matches!(f1.instr(s), Instr::Bin { op: BinOp::Mul, .. }));
        assert!(!has_mul, "2*3 folded");
        // The dead add is gone.
        let adds = f1
            .instr_sites()
            .filter(|&s| matches!(f1.instr(s), Instr::Bin { op: BinOp::Add, .. }))
            .count();
        assert!(adds <= 1);
    }

    #[test]
    fn loads_are_never_eliminated() {
        let mut pb = ProgramBuilder::new();
        let (_c, fs) = pb.add_class("N", &[("v", spf_ir::ElemTy::I32)]);
        let mut b = pb.function("g", &[Ty::Ref], None);
        let o = b.param(0);
        let _dead_load = b.getfield(o, fs[0]);
        let m = b.finish();
        let p = pb.finish();
        let f1 = optimize(&p, p.method(m).func());
        let loads = f1
            .instr_sites()
            .filter(|&s| matches!(f1.instr(s), Instr::GetField { .. }))
            .count();
        assert_eq!(loads, 1, "memory traffic is observable; loads stay");
    }

    #[test]
    fn copy_prop_is_sound_across_redefinition() {
        // x = a; a = b; y = x  -- y must NOT become b.
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("h", &[Ty::I32, Ty::I32], Some(Ty::I32));
        let pa = b.param(0);
        let pb2 = b.param(1);
        let a = b.new_reg(Ty::I32);
        b.move_(a, pa);
        let x = b.new_reg(Ty::I32);
        b.move_(x, a);
        b.move_(a, pb2); // redefine a
        let y = b.new_reg(Ty::I32);
        b.move_(y, x);
        b.ret(Some(y));
        let m = b.finish();
        let p = pb.finish();
        let f1 = optimize(&p, p.method(m).func());
        // Semantic check via the terminator: it must not return pb2.
        for blk in f1.block_ids() {
            if let spf_ir::Terminator::Return(Some(r)) = f1.block(blk).term {
                assert_ne!(r, pb2, "unsound copy propagation");
            }
        }
    }

    #[test]
    fn folder_folds_cmp_and_leaves_div_by_zero() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("f", &[], Some(Ty::I32));
        let zero = b.const_i32(0);
        let one = b.const_i32(1);
        let two = b.const_i32(2);
        let q = b.div(one, zero);
        let lt = b.lt(one, two);
        let out = b.add(q, lt);
        b.ret(Some(out));
        let m = b.finish();
        let p = pb.finish();
        let mut f = p.method(m).func().clone();
        assert!(fold_constants(&mut f));
        let at = |r: Reg| {
            let s = f.instr_sites().find(|&s| f.instr(s).dst() == Some(r));
            f.instr(s.unwrap()).clone()
        };
        assert!(
            matches!(at(q), Instr::Bin { op: BinOp::Div, .. }),
            "1/0 must stay for the interpreter to fault on"
        );
        assert!(matches!(
            at(lt),
            Instr::Const {
                value: spf_ir::Const::I32(1),
                ..
            }
        ));
    }
}

#[cfg(test)]
mod proptests {
    use crate::config::VmConfig;
    use crate::vm::Vm;
    use spf_heap::Value;
    use spf_ir::{CmpOp, ProgramBuilder, Reg, Ty};
    use spf_memsim::ProcessorConfig;
    use spf_testkit::Rng;

    /// Random straight-line + loop programs over a small register pool.
    #[derive(Clone, Debug)]
    enum Op {
        Const(i32),
        Add(u8, u8),
        Sub(u8, u8),
        Mul(u8, u8),
        Xor(u8, u8),
        Cmp(u8, u8),
        Copy(u8),
    }

    fn arb_ops(rng: &mut Rng) -> Vec<Op> {
        rng.vec(1, 39, |r| {
            let reg = |r: &mut Rng| r.index(8) as u8;
            match r.index(7) {
                0 => Op::Const(r.i32_in(-100, 99)),
                1 => Op::Add(reg(r), reg(r)),
                2 => Op::Sub(reg(r), reg(r)),
                3 => Op::Mul(reg(r), reg(r)),
                4 => Op::Xor(reg(r), reg(r)),
                5 => Op::Cmp(reg(r), reg(r)),
                _ => Op::Copy(reg(r)),
            }
        })
    }

    /// The baseline JIT passes (const folding, copy propagation, DCE)
    /// must preserve the semantics of arbitrary register programs, both
    /// in straight-line code and inside a loop.
    #[test]
    fn passes_preserve_semantics() {
        spf_testkit::cases(48, "passes preserve semantics", |rng| {
            let ops = arb_ops(rng);
            let x = rng.i32_in(-50, 49);
            let mut pb = ProgramBuilder::new();
            let mut b = pb.function("f", &[Ty::I32], Some(Ty::I32));
            // A pool of 8 mutable locals seeded from the parameter.
            let pool: Vec<Reg> = (0..8)
                .map(|i| {
                    let r = b.new_reg(Ty::I32);
                    let c = b.const_i32(i);
                    let s = b.add(b.param(0), c);
                    b.move_(r, s);
                    r
                })
                .collect();
            let emit_ops =
                |b: &mut spf_ir::FunctionBuilder<'_>, ops: &[Op], pool: &[Reg], k: usize| {
                    for (j, op) in ops.iter().enumerate() {
                        let dst = pool[(j + k) % pool.len()];
                        match *op {
                            Op::Const(v) => {
                                let c = b.const_i32(v);
                                b.move_(dst, c);
                            }
                            Op::Add(a, c) => {
                                let r = b.add(pool[a as usize], pool[c as usize]);
                                b.move_(dst, r);
                            }
                            Op::Sub(a, c) => {
                                let r = b.sub(pool[a as usize], pool[c as usize]);
                                b.move_(dst, r);
                            }
                            Op::Mul(a, c) => {
                                let r = b.mul(pool[a as usize], pool[c as usize]);
                                b.move_(dst, r);
                            }
                            Op::Xor(a, c) => {
                                let r = b.xor(pool[a as usize], pool[c as usize]);
                                b.move_(dst, r);
                            }
                            Op::Cmp(a, c) => {
                                let r = b.lt(pool[a as usize], pool[c as usize]);
                                b.move_(dst, r);
                            }
                            Op::Copy(a) => b.move_(dst, pool[a as usize]),
                        }
                    }
                };
            emit_ops(&mut b, &ops, &pool, 0);
            let three = b.const_i32(3);
            b.for_i32(
                0,
                1,
                CmpOp::Lt,
                |_| three,
                |b, _| {
                    emit_ops(b, &ops, &pool, 1);
                },
            );
            // Fold the pool into one result.
            let mut acc = pool[0];
            for &r in &pool[1..] {
                acc = b.xor(acc, r);
            }
            b.ret(Some(acc));
            let f = b.finish();
            let program = pb.finish();

            // Reference: interpret the *original* body.
            let mut vm1 = Vm::new(
                program.clone(),
                VmConfig {
                    compile_threshold: u32::MAX, // never compile
                    ..VmConfig::default()
                },
                ProcessorConfig::pentium4(),
            );
            let interpreted = vm1.call(f, &[Value::I32(x)]).unwrap();

            // Optimized: compile immediately (threshold 1).
            let mut vm2 = Vm::new(
                program,
                VmConfig {
                    compile_threshold: 1,
                    ..VmConfig::default()
                },
                ProcessorConfig::pentium4(),
            );
            let compiled = vm2.call(f, &[Value::I32(x)]).unwrap();
            assert_eq!(interpreted, compiled);
        });
    }
}
