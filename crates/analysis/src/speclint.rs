//! Speculation-safety lint.
//!
//! `SpecLoad` yields a *speculative* reference: it silently produces null
//! for invalid addresses instead of trapping, so its result must never
//! influence architectural state. The code generator only feeds such values
//! into `PrefetchAddr` operands and further `SpecLoad` chains (paper §3.3's
//! dereference-based prefetch shapes); this lint proves that discipline
//! survives every later rewrite. It also checks placement — a prefetch with
//! no enclosing loop can never be stride-driven — and that dereference-based
//! prefetches are guarded loads where the processor requires it.

use spf_ir::bitset::BitSet;
use spf_ir::cfg::Cfg;
use spf_ir::func::Function;
use spf_ir::loops::LoopForest;
use spf_ir::{Instr, PrefetchAddr, PrefetchKind};

use crate::dataflow::{forward, Join};
use crate::{Finding, LintConfig};

/// Whether any register the address expression reads is tainted.
fn addr_tainted(addr: &PrefetchAddr, taint: &BitSet) -> bool {
    let mut used = Vec::new();
    addr.uses(&mut used);
    used.iter().any(|r| taint.contains(r.index()))
}

/// Runs the speculation-safety, placement, and guarded-load checks.
pub fn check(func: &Function, cfg: &Cfg, forest: &LoopForest, config: &LintConfig) -> Vec<Finding> {
    // Taint propagation (may-analysis): a register is tainted if some path
    // assigns it a value derived from a SpecLoad result. Redefinition from
    // untainted operands cleans the register.
    let bits = func.reg_count();
    let entry = BitSet::new(bits);
    let mut used = Vec::new();
    let states = forward(func, cfg, bits, Join::Union, &entry, |state, b| {
        let mut used = Vec::new();
        for instr in &func.block(b).instrs {
            match instr {
                Instr::SpecLoad { dst, .. } => {
                    state.insert(dst.index());
                }
                _ => {
                    if let Some(dst) = instr.dst() {
                        used.clear();
                        instr.uses(&mut used);
                        if used.iter().any(|r| state.contains(r.index())) {
                            state.insert(dst.index());
                        } else {
                            state.remove(dst.index());
                        }
                    }
                }
            }
        }
    });

    let mut findings = Vec::new();
    for &b in cfg.rpo() {
        let mut taint = states.block_in[b.index()].clone();
        for (i, instr) in func.block(b).instrs.iter().enumerate() {
            match instr {
                // Speculative values may feed prefetch/spec-load addresses.
                Instr::Prefetch { addr, kind } => {
                    if forest.innermost(b).is_none() {
                        findings.push(Finding::at(
                            b,
                            Some(i),
                            format!("{}: prefetch outside any loop", func.name()),
                        ));
                    }
                    if config.guard_derefs
                        && *kind != PrefetchKind::GuardedLoad
                        && addr_tainted(addr, &taint)
                    {
                        findings.push(Finding::at(
                            b,
                            Some(i),
                            format!(
                                "{}: {kind} dereference prefetch must be guarded",
                                func.name()
                            ),
                        ));
                    }
                }
                Instr::SpecLoad { dst, .. } => {
                    if forest.innermost(b).is_none() {
                        findings.push(Finding::at(
                            b,
                            Some(i),
                            format!("{}: speculative load outside any loop", func.name()),
                        ));
                    }
                    taint.insert(dst.index());
                }
                // Everything else must not read speculative values: stores
                // and calls would leak them into architectural state, loads
                // through them could trap, arithmetic forwards them to
                // consumers that might.
                _ => {
                    used.clear();
                    instr.uses(&mut used);
                    for &r in &used {
                        if taint.contains(r.index()) {
                            findings.push(Finding::at(
                                b,
                                Some(i),
                                format!(
                                    "{}: speculative value {r} leaks into non-speculative use",
                                    func.name()
                                ),
                            ));
                        }
                    }
                    if let Some(dst) = instr.dst() {
                        if used.iter().any(|r| taint.contains(r.index())) {
                            taint.insert(dst.index());
                        } else {
                            taint.remove(dst.index());
                        }
                    }
                }
            }
        }
        used.clear();
        func.block(b).term.uses(&mut used);
        for &r in &used {
            if taint.contains(r.index()) {
                findings.push(Finding::at(
                    b,
                    None,
                    format!(
                        "{}: speculative value {r} reaches a terminator",
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
    use spf_ir::dom::DomTree;
    use spf_ir::entities::Reg;
    use spf_ir::types::{Const, Ty};
    use spf_ir::Terminator;

    /// Builds `fn f(head: ref, n: i32)` with one counted loop whose body is
    /// filled by `body`, returning the function and the body's registers
    /// `(head, i)`.
    fn loop_fn(body: impl FnOnce(&mut Function, spf_ir::BlockId, Reg)) -> Function {
        let mut f = Function::with_signature("t", &[Ty::Ref, Ty::I32], None);
        let head = f.params().next().unwrap();
        let n = f.params().nth(1).unwrap();
        let i = f.new_reg(Ty::I32);
        let cond = f.new_reg(Ty::I32);
        let one = f.new_reg(Ty::I32);
        let entry = f.entry();
        let header = f.add_block();
        let bodyb = f.add_block();
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
                op: spf_ir::CmpOp::Lt,
                a: i,
                b: n,
            });
            blk.term = Terminator::Branch {
                cond,
                then_bb: bodyb,
                else_bb: exit,
            };
        }
        body(&mut f, bodyb, head);
        {
            let blk = f.block_mut(bodyb);
            blk.instrs.push(Instr::Bin {
                dst: i,
                op: spf_ir::BinOp::Add,
                a: i,
                b: one,
            });
            blk.term = Terminator::Jump(header);
        }
        f.block_mut(exit).term = Terminator::Return(None);
        f
    }

    fn run(f: &Function, guard_derefs: bool) -> Vec<Finding> {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        check(f, &cfg, &forest, &LintConfig { guard_derefs })
    }

    #[test]
    fn codegen_shape_is_clean() {
        // The paper's dereference-based shape: spec-load the next node's
        // link, prefetch through it. Speculation only reaches prefetches.
        let mut spec = Reg::new(0);
        let f = loop_fn(|f, bodyb, head| {
            spec = f.new_reg(Ty::Ref);
            let blk = f.block_mut(bodyb);
            blk.instrs.push(Instr::SpecLoad {
                dst: spec,
                addr: PrefetchAddr::FieldOf {
                    base: head,
                    delta: 8,
                },
            });
            blk.instrs.push(Instr::Prefetch {
                addr: PrefetchAddr::FieldOf {
                    base: spec,
                    delta: 0,
                },
                kind: PrefetchKind::GuardedLoad,
            });
        });
        assert!(run(&f, true).is_empty());
        assert!(run(&f, false).is_empty());
    }

    #[test]
    fn spec_value_to_store_is_flagged() {
        let f = loop_fn(|f, bodyb, head| {
            let spec = f.new_reg(Ty::Ref);
            let dummy = f.new_reg(Ty::I32);
            let blk = f.block_mut(bodyb);
            blk.instrs.push(Instr::SpecLoad {
                dst: spec,
                addr: PrefetchAddr::FieldOf {
                    base: head,
                    delta: 8,
                },
            });
            blk.instrs.push(Instr::Const {
                dst: dummy,
                value: Const::I32(7),
            });
            // Architectural leak: storing through the speculative reference.
            blk.instrs.push(Instr::AStore {
                arr: spec,
                idx: dummy,
                src: dummy,
                elem: spf_ir::ElemTy::I32,
            });
        });
        let findings = run(&f, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("leaks"));
    }

    #[test]
    fn taint_propagates_through_moves() {
        let f = loop_fn(|f, bodyb, head| {
            let spec = f.new_reg(Ty::Ref);
            let alias = f.new_reg(Ty::Ref);
            let blk = f.block_mut(bodyb);
            blk.instrs.push(Instr::SpecLoad {
                dst: spec,
                addr: PrefetchAddr::FieldOf {
                    base: head,
                    delta: 8,
                },
            });
            blk.instrs.push(Instr::Move {
                dst: alias,
                src: spec,
            });
            // Loading through the alias could trap.
            let v = f.new_reg(Ty::I32);
            f.block_mut(bodyb)
                .instrs
                .push(Instr::ArrayLen { dst: v, arr: alias });
        });
        let findings = run(&f, false);
        // Two findings: the Move itself leaks, and the ArrayLen through the
        // alias leaks again.
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn prefetch_outside_loop_is_flagged() {
        let mut f = Function::with_signature("noloop", &[Ty::Ref], None);
        let head = f.params().next().unwrap();
        let entry = f.entry();
        f.block_mut(entry).instrs.push(Instr::Prefetch {
            addr: PrefetchAddr::FieldOf {
                base: head,
                delta: 0,
            },
            kind: PrefetchKind::Hardware,
        });
        f.block_mut(entry).term = Terminator::Return(None);
        let findings = run(&f, false);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("outside any loop"));
    }

    #[test]
    fn dereference_prefetches_are_guarded_where_required() {
        let build = |kind: PrefetchKind| {
            loop_fn(move |f, bodyb, head| {
                let spec = f.new_reg(Ty::Ref);
                let blk = f.block_mut(bodyb);
                blk.instrs.push(Instr::SpecLoad {
                    dst: spec,
                    addr: PrefetchAddr::FieldOf {
                        base: head,
                        delta: 8,
                    },
                });
                blk.instrs.push(Instr::Prefetch {
                    addr: PrefetchAddr::FieldOf {
                        base: spec,
                        delta: 0,
                    },
                    kind,
                });
            })
        };
        let hw = build(PrefetchKind::Hardware);
        let guarded = build(PrefetchKind::GuardedLoad);
        // A dereference-based hardware prefetch would be dropped on the TLB
        // miss it is supposed to cover (paper §3.3).
        assert_eq!(run(&hw, true).len(), 1);
        assert!(run(&hw, false).is_empty());
        assert!(run(&guarded, true).is_empty());
    }
}
