//! Definite-initialization analysis.
//!
//! Proves that every register use is preceded by an assignment on *all*
//! paths from the function entry. The structural verifier only checks that
//! register indices are in range; the VM zero-initializes frames, so a
//! use-before-def silently reads 0/null instead of failing. This must-
//! analysis (intersection join, seeded with the parameters) makes such
//! reads visible to the lint.

use spf_ir::bitset::BitSet;
use spf_ir::cfg::Cfg;
use spf_ir::func::Function;

use crate::dataflow::{forward, Join};
use crate::Finding;

/// Flags every use of a register that is not definitely assigned on all
/// paths reaching it. Unreachable blocks are skipped: the VM never executes
/// them.
pub fn check(func: &Function, cfg: &Cfg) -> Vec<Finding> {
    let bits = func.reg_count();
    let mut entry = BitSet::new(bits);
    for p in func.params() {
        entry.insert(p.index());
    }
    let states = forward(func, cfg, bits, Join::Intersect, &entry, |state, b| {
        for instr in &func.block(b).instrs {
            if let Some(dst) = instr.dst() {
                state.insert(dst.index());
            }
        }
    });

    let mut findings = Vec::new();
    let mut used = Vec::new();
    for &b in cfg.rpo() {
        let mut state = states.block_in[b.index()].clone();
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            used.clear();
            instr.uses(&mut used);
            for &r in &used {
                if !state.contains(r.index()) {
                    findings.push(Finding::at(
                        b,
                        Some(i),
                        format!("{}: use of {r} before definite assignment", func.name()),
                    ));
                }
            }
            if let Some(dst) = instr.dst() {
                state.insert(dst.index());
            }
        }
        used.clear();
        func.block(b).term.uses(&mut used);
        for &r in &used {
            if !state.contains(r.index()) {
                findings.push(Finding::at(
                    b,
                    None,
                    format!(
                        "{}: terminator use of {r} before definite assignment",
                        func.name()
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::builder::ProgramBuilder;
    use spf_ir::types::Ty;

    fn run(p: &spf_ir::Program, m: spf_ir::MethodId) -> Vec<Finding> {
        let f = p.method(m).func();
        let cfg = Cfg::compute(f);
        check(f, &cfg)
    }

    #[test]
    fn straight_line_is_clean() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("ok", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let one = b.const_i32(1);
        let y = b.add(x, one);
        b.ret(Some(y));
        let m = b.finish();
        let p = pb.finish();
        assert!(run(&p, m).is_empty());
    }

    #[test]
    fn one_armed_assignment_is_flagged() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("bad", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let zero = b.const_i32(0);
        let c = b.gt(x, zero);
        let v = b.new_reg(Ty::I32);
        b.if_else(c, |b| b.move_(v, x), |_| {});
        let out = b.add(v, x); // v undefined when the else arm ran
        b.ret(Some(out));
        let m = b.finish();
        let p = pb.finish();
        let findings = run(&p, m);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("before definite assignment"));
    }

    #[test]
    fn both_arms_assigning_is_clean() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("ok2", &[Ty::I32], Some(Ty::I32));
        let x = b.param(0);
        let zero = b.const_i32(0);
        let c = b.gt(x, zero);
        let v = b.new_reg(Ty::I32);
        b.if_else(c, |b| b.move_(v, x), |b| b.move_(v, zero));
        b.ret(Some(v));
        let m = b.finish();
        let p = pb.finish();
        assert!(run(&p, m).is_empty());
    }

    #[test]
    fn loop_carried_init_is_clean() {
        // i initialized before the loop, redefined in the body: every use in
        // the header is definitely assigned on both entry and back edge.
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("ok3", &[Ty::I32], Some(Ty::I32));
        let n = b.param(0);
        let i = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(i, z);
        b.while_(|b| b.lt(i, n), |b| b.inc(i, 1));
        b.ret(Some(i));
        let m = b.finish();
        let p = pb.finish();
        assert!(run(&p, m).is_empty());
    }

    #[test]
    fn terminator_use_is_checked() {
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("bad2", &[], Some(Ty::I32));
        let v = b.new_reg(Ty::I32);
        b.ret(Some(v));
        let m = b.finish();
        let p = pb.finish();
        let findings = run(&p, m);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("terminator use"));
    }
}
