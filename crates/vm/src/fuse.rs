//! Peephole superinstruction fusion over decoded blocks.
//!
//! A greedy left-to-right scan merges the hottest adjacent opcode pairs
//! into single fused ops. Fusion is done strictly within a block (only
//! block entries are jump targets, so no control flow can land between two
//! fused components), and the block's terminator participates as the last
//! op (enabling the `Cmp`+`Branch` loop back-edge pattern).
//!
//! Fused handlers run the exact component sequences of their unfused forms
//! (see `dispatch`), so fusion never changes a simulated number — only how
//! many host-side dispatches a simulated instruction costs. The `binop` and
//! `cmpop` below are the typed codes `decode::lower` left in `ext`
//! (operator and operand type), passed on to the fused handler's selector.

use spf_ir::{pack_reg_pair, Reg};
use spf_trace::TraceSink;

use crate::decode::{DecOp, Kind, Op};
use crate::dispatch as h;

/// Fuses adjacent pairs in one decoded block (terminator included as the
/// last element); returns the number of superinstructions formed.
pub(crate) fn fuse_block<S: TraceSink>(ops: &mut Vec<DecOp<S>>) -> u32 {
    let mut fused = scan(ops, try_fuse::<S>);
    // Second round: first-pass superinstructions can absorb a neighbour
    // themselves (e.g. BinMove + Jump, Const + CmpBranch).
    fused += scan(ops, try_fuse2::<S>);
    fused
}

/// One greedy left-to-right pairing pass over a block with `merge`.
fn scan<S: TraceSink>(
    ops: &mut Vec<DecOp<S>>,
    merge: fn(&DecOp<S>, &DecOp<S>) -> Option<DecOp<S>>,
) -> u32 {
    let mut out: Vec<DecOp<S>> = Vec::with_capacity(ops.len());
    let mut fused = 0u32;
    let mut i = 0;
    while i < ops.len() {
        if i + 1 < ops.len() {
            if let Some(merged) = merge(&ops[i], &ops[i + 1]) {
                out.push(merged);
                fused += 1;
                i += 2;
                continue;
            }
        }
        out.push(DecOp {
            op: ops[i].op,
            kind: ops[i].kind,
            sites: ops[i].sites,
        });
        i += 1;
    }
    *ops = out;
    fused
}

fn reg(idx: u32) -> Reg {
    Reg::new(idx as usize)
}

fn try_fuse<S: TraceSink>(first: &DecOp<S>, second: &DecOp<S>) -> Option<DecOp<S>> {
    match (first.kind, second.kind) {
        // Cmp (a=dst, b=lhs, c=rhs, ext=cmpop) + Branch on that dst
        // (a=cond, b=then, c=else)  →  CmpBranch:
        //   a=dst, c=pack(lhs,rhs), ext=cmpop, b=then, d=else.
        // Branch targets stay block ids here; the flattener patches
        // Kind::CmpBranch's b/d.
        (Kind::Cmp, Kind::Branch) if second.op.a == first.op.a => {
            let operands = pack_reg_pair(reg(first.op.b), reg(first.op.c))?;
            let mut op = Op::new(h::cmp_branch_handler::<S>(first.op.ext as u8));
            op.a = first.op.a;
            op.c = operands;
            op.ext = first.op.ext;
            op.b = second.op.b;
            op.d = second.op.c;
            Some(DecOp {
                op,
                kind: Kind::CmpBranch,
                sites: [first.sites[0], 0],
            })
        }
        // Const (a=dst, imm=slot word) + Bin (a=dst, b=lhs, c=rhs,
        // ext=binop)  →  ConstBin:
        //   a=const dst, imm=slot word, ext=binop,
        //   b=bin dst, c=bin lhs, d=bin rhs.
        (Kind::Const, Kind::Bin) => {
            let mut op = Op::new(h::const_bin_handler::<S>(second.op.ext as u8));
            op.a = first.op.a;
            op.imm = first.op.imm;
            op.ext = second.op.ext;
            op.b = second.op.a;
            op.c = second.op.b;
            op.d = second.op.c;
            Some(DecOp {
                op,
                kind: Kind::Plain,
                sites: [first.sites[0], second.sites[0]],
            })
        }
        // GetField (a=dst, b=obj, imm=offset, ext=elem) + Bin  →
        // GetFieldBin: a=gf dst, b=obj, imm=offset,
        //   ext=elem | binop<<8, c=bin dst, d=pack(bin lhs, bin rhs).
        (Kind::GetField, Kind::Bin) => {
            let operands = pack_reg_pair(reg(second.op.b), reg(second.op.c))?;
            let mut op = Op::new(h::getfield_bin_handler::<S>(
                first.op.ext as u8,
                second.op.ext as u8,
            ));
            op.a = first.op.a;
            op.b = first.op.b;
            op.imm = first.op.imm;
            op.ext = first.op.ext | (second.op.ext << 8);
            op.c = second.op.a;
            op.d = operands;
            Some(DecOp {
                op,
                kind: Kind::Plain,
                sites: [first.sites[0], second.sites[0]],
            })
        }
        // Bin + ALoad (a=dst, b=arr, c=idx, ext=elem)  →  BinALoad:
        //   a=bin dst, d=pack(bin lhs, bin rhs), ext=elem | binop<<8,
        //   b=pack(aload dst, arr), c=idx.
        (Kind::Bin, Kind::ALoad) => {
            let bin_operands = pack_reg_pair(reg(first.op.b), reg(first.op.c))?;
            let dst_arr = pack_reg_pair(reg(second.op.a), reg(second.op.b))?;
            let mut op = Op::new(h::bin_aload_handler::<S>(
                second.op.ext as u8,
                first.op.ext as u8,
            ));
            op.a = first.op.a;
            op.d = bin_operands;
            op.ext = second.op.ext | (first.op.ext << 8);
            op.b = dst_arr;
            op.c = second.op.c;
            Some(DecOp {
                op,
                kind: Kind::Plain,
                sites: [first.sites[0], second.sites[0]],
            })
        }
        // Bin (a=dst, b=lhs, c=rhs, ext=binop) + Move (a=dst, b=src)  →
        // BinMove: a=bin dst, b=bin lhs, c=bin rhs, ext=binop,
        //   d=pack(move dst, move src).
        (Kind::Bin, Kind::Move) => {
            let mv = pack_reg_pair(reg(second.op.a), reg(second.op.b))?;
            let mut op = Op::new(h::bin_move_handler::<S>(first.op.ext as u8));
            op.a = first.op.a;
            op.b = first.op.b;
            op.c = first.op.c;
            op.ext = first.op.ext;
            op.d = mv;
            Some(DecOp {
                op,
                kind: Kind::BinMove,
                sites: [first.sites[0], second.sites[0]],
            })
        }
        // Move (a=dst, b=src) + Jump terminator (a=target block id)  →
        // MoveJump: b=move dst, c=move src, a=target (patched like Jump).
        (Kind::Move, Kind::Jump) => {
            let mut op = Op::new(h::h_move_jump::<S> as crate::dispatch::Handler<S>);
            op.b = first.op.a;
            op.c = first.op.b;
            op.a = second.op.a;
            Some(DecOp {
                op,
                kind: Kind::MoveJump,
                sites: [first.sites[0], 0],
            })
        }
        // ALoad (a=dst, b=arr, c=idx, ext=elem) + Bin  →  ALoadBin:
        //   a=aload dst, b=pack(arr, idx), c=bin dst,
        //   d=pack(bin lhs, bin rhs), ext=elem | binop<<8.
        (Kind::ALoad, Kind::Bin) => {
            let arr_idx = pack_reg_pair(reg(first.op.b), reg(first.op.c))?;
            let bin_operands = pack_reg_pair(reg(second.op.b), reg(second.op.c))?;
            let mut op = Op::new(h::aload_bin_handler::<S>(
                first.op.ext as u8,
                second.op.ext as u8,
            ));
            op.a = first.op.a;
            op.b = arr_idx;
            op.c = second.op.a;
            op.d = bin_operands;
            op.ext = first.op.ext | (second.op.ext << 8);
            Some(DecOp {
                op,
                kind: Kind::Plain,
                sites: [first.sites[0], second.sites[0]],
            })
        }
        // Move (a=dst, b=src) + ALoad (a=dst, b=arr, c=idx, ext=elem)  →
        // MoveALoad: c=pack(move dst, src), a=aload dst, b=pack(arr, idx),
        // ext=elem.
        (Kind::Move, Kind::ALoad) => {
            let mv = pack_reg_pair(reg(first.op.a), reg(first.op.b))?;
            let arr_idx = pack_reg_pair(reg(second.op.b), reg(second.op.c))?;
            let mut op = Op::new(h::move_aload_handler::<S>(second.op.ext as u8));
            op.c = mv;
            op.a = second.op.a;
            op.b = arr_idx;
            op.ext = second.op.ext;
            Some(DecOp {
                op,
                kind: Kind::Plain,
                sites: [first.sites[0], second.sites[0]],
            })
        }
        _ => None,
    }
}

/// Second-round patterns: pairs whose first element is itself a fused op
/// from the first pass (its operand packing left intact).
fn try_fuse2<S: TraceSink>(first: &DecOp<S>, second: &DecOp<S>) -> Option<DecOp<S>> {
    match (first.kind, second.kind) {
        // BinMove + Jump terminator  →  BinMoveJump: BinMove operands
        // unchanged, imm=target (patched).
        (Kind::BinMove, Kind::Jump) => {
            let mut op = first.op;
            op.handler = h::bin_move_jump_handler::<S>((first.op.ext & 0xff) as u8);
            op.imm = second.op.a as i64;
            Some(DecOp {
                op,
                kind: Kind::BinMoveJump,
                sites: first.sites,
            })
        }
        _ => None,
    }
}
