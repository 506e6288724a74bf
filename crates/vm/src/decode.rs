//! Pre-decoding: lowering a [`Function`] into a flat array of threaded ops.
//!
//! Each op is a fixed-size word carrying a handler `fn` pointer and packed
//! operands; the run loop is then one indirect call per instruction instead
//! of a branch tree over the `Instr` enum. Decoding resolves everything
//! that is static at install time: field offsets and element types (the
//! degenerate monomorphic case of a field inline cache — this IR has one
//! class per field, so the "cache" never misses and bakes to a constant),
//! static addresses, class sizes, and branch targets (as flat pcs). A call
//! op names its callee by method index only: the VM picks the body at call
//! time with one load (`compiled[mid]`, else the original).
//!
//! Pipeline: lower each block to ops → peephole-fuse adjacent pairs
//! ([`crate::fuse`]) → flatten blocks in id order → patch branch targets
//! from block ids to flat pcs.

use std::sync::Arc;

use spf_heap::{static_addr, Layout, Value};
use spf_ir::{Function, Instr, InstrRef, PrefetchAddr, PrefetchKind, Program, Reg, Terminator, Ty};
use spf_trace::TraceSink;

use crate::dispatch::{self as h, Handler};

/// One threaded op: a handler plus packed operands, and nothing a handler
/// reads only when it faults (those are [`ThreadedCode::sites`]).
///
/// Operand meaning is per-handler (documented at each `lower` arm).
pub(crate) struct Op<S: TraceSink> {
    pub handler: Handler<S>,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub d: u32,
    pub ext: u32,
    pub imm: i64,
}

// Five words: the run loop's fetch scales the pc with two `lea`, no multiply.
const _: () = assert!(std::mem::size_of::<Op<spf_trace::NoopSink>>() == 40);

impl<S: TraceSink> Clone for Op<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S: TraceSink> Copy for Op<S> {}

impl<S: TraceSink> Op<S> {
    pub(crate) fn new(handler: Handler<S>) -> Self {
        Op {
            handler,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
            ext: 0,
            imm: 0,
        }
    }
}

/// Structural kind of a decoded op, used by the fusion pass to match
/// peephole patterns and by the flattener to find the fields that hold
/// block ids. Handler `fn`-pointer identity is deliberately not used for
/// either (the compiler may merge or duplicate monomorphized functions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Plain,
    Const,
    Move,
    Bin,
    Cmp,
    GetField,
    ALoad,
    Jump,
    /// Fused Move + Jump; patched like [`Kind::Jump`] but kept distinct so
    /// second-round terminator fusion only matches plain jumps.
    MoveJump,
    Branch,
    CmpBranch,
    /// Fused Bin+Move (second-round fusion input; no patching).
    BinMove,
    /// Fused Bin+Move+Jump; the flattener patches `imm`.
    BinMoveJump,
}

/// A decoded op plus its kind (dropped once targets are patched) and the
/// packed [`InstrRef`]s of its first and, when fused, second component
/// (0 where there is none: a terminator never faults).
pub(crate) struct DecOp<S: TraceSink> {
    pub op: Op<S>,
    pub kind: Kind,
    pub sites: [u64; 2],
}

/// A function body lowered to threaded code. Shared (via `Arc`) between
/// every frame executing the body, across the whole VM, and — through
/// [`crate::Predecoded`] — across VMs on worker threads.
pub(crate) struct ThreadedCode<S: TraceSink> {
    /// The source IR (kept for site registration, the types of the words
    /// that leave the VM as `Value`s, external analyses, and re-decoding).
    pub src: Arc<Function>,
    /// The flat op array; block entries are op indices ("pcs").
    pub ops: Box<[Op<S>]>,
    /// Parallel to `ops`: each op's [`DecOp::sites`], for error and profile
    /// attribution (read through a [`crate::dispatch::SiteOf`]).
    pub sites: Box<[[u64; 2]]>,
    /// Flat pc of the function's entry block.
    pub entry_pc: u32,
    /// Length of a frame's register window. A new window is zero-filled:
    /// every type's zero value is the zero word.
    pub reg_count: usize,
    /// Indices of `Ref`-typed registers: the slots the GC roots and
    /// forwards (a slot does not say what it holds).
    pub ref_regs: Box<[u32]>,
    /// Flattened call argument lists; each call op holds a (start, len)
    /// window.
    pub arg_pool: Box<[u32]>,
    /// Superinstructions formed by the fusion pass (host-side statistic).
    pub fused: u32,
}

/// Decodes `src` into threaded code. `fuse` enables superinstruction
/// fusion; either way the simulated semantics are identical.
///
/// # Panics
///
/// Panics with the verifier's message if `src` does not verify against
/// `program`.
pub(crate) fn decode<S: TraceSink>(
    program: &Program,
    layout: &Layout,
    src: &Arc<Function>,
    fuse: bool,
) -> ThreadedCode<S> {
    let func = src.as_ref();
    // SAFETY CONTRACT: this is the one type check, made once per body at
    // install time. Handlers index registers unchecked
    // ([`crate::dispatch::Ctx::reg`]) in a window of exactly `reg_count`
    // slots, and read each untagged slot as the type the instruction's
    // rule gives its operand; the verifier states every rule they rely
    // on — register and block ranges, operand and result types of all 18
    // instructions, call signatures, terminators. A pass emitting an
    // ill-typed or out-of-range operand is caught here instead of
    // becoming UB or a silently reinterpreted word on the hot path.
    if let Err(violation) = spf_ir::verify::verify(program, func) {
        panic!("decode: {violation}");
    }
    let mut arg_pool: Vec<u32> = Vec::new();
    let mut blocks: Vec<Vec<DecOp<S>>> = Vec::new();
    // The next prefetch op's index (see `lower`).
    let mut prefetches = 0;
    for bid in func.block_ids() {
        let block = func.block(bid);
        let mut ops = Vec::with_capacity(block.instrs.len() + 1);
        for (i, instr) in block.instrs.iter().enumerate() {
            let site = InstrRef::new(bid, i).pack();
            let mut op = lower(program, layout, func, instr, site, &mut arg_pool);
            if is_prefetch(instr) {
                op.op.ext = prefetches;
                prefetches += 1;
            }
            ops.push(op);
        }
        ops.push(lower_term(&block.term));
        blocks.push(ops);
    }
    let mut fused = 0;
    if fuse {
        for ops in &mut blocks {
            fused += crate::fuse::fuse_block(ops);
        }
    }
    // Flatten blocks in id order, recording each block's entry pc, then
    // patch jump/branch targets from block ids to pcs.
    let mut block_entry = vec![0u32; blocks.len()];
    let mut flat: Vec<DecOp<S>> = Vec::new();
    for (b, ops) in blocks.into_iter().enumerate() {
        block_entry[b] = flat.len() as u32;
        flat.extend(ops);
    }
    check_len(flat.len());
    let sites = flat.iter().map(|d| d.sites).collect();
    let ops: Vec<Op<S>> = flat
        .into_iter()
        .map(|d| {
            let mut op = d.op;
            match d.kind {
                Kind::Jump | Kind::MoveJump => op.a = block_entry[op.a as usize],
                Kind::Branch => {
                    op.b = block_entry[op.b as usize];
                    op.c = block_entry[op.c as usize];
                }
                Kind::CmpBranch => {
                    op.b = block_entry[op.b as usize];
                    op.d = block_entry[op.d as usize];
                }
                Kind::BinMoveJump => {
                    op.imm = block_entry[op.imm as usize] as i64;
                }
                _ => {}
            }
            op
        })
        .collect();
    let ref_regs: Box<[u32]> = (0..func.reg_count())
        .filter(|&i| func.reg_ty(Reg::new(i)) == Ty::Ref)
        .map(|i| i as u32)
        .collect();
    ThreadedCode {
        src: Arc::clone(src),
        entry_pc: block_entry[func.entry().index()],
        ops: ops.into_boxed_slice(),
        sites,
        reg_count: func.reg_count(),
        ref_regs,
        arg_pool: arg_pool.into_boxed_slice(),
        fused,
    }
}

/// Whether `instr` is one of the prefetch ops the stride pass inserts
/// and a loop patch strips.
pub(crate) fn is_prefetch(instr: &Instr) -> bool {
    matches!(instr, Instr::Prefetch { .. } | Instr::SpecLoad { .. })
}

/// A body's ops must be numbered below the two values handlers return in
/// place of a pc.
fn check_len(ops: usize) {
    assert!(
        ops < h::SWITCH,
        "decode: {ops} ops leave no room for the loop's sentinels"
    );
}

/// The operand word of a (verified, so in-range) register.
fn r(reg: Reg) -> u32 {
    reg.index() as u32
}

fn lower<S: TraceSink>(
    program: &Program,
    layout: &Layout,
    func: &Function,
    instr: &Instr,
    site: u64,
    arg_pool: &mut Vec<u32>,
) -> DecOp<S> {
    // An operator's handler instance is chosen by the declared type of its
    // operands, which the verifier has checked agree.
    let typed = |op: u8, operand: Reg| h::typed(op, func.reg_ty(operand));
    let (op, kind) = match *instr {
        // a=dst, imm=the constant as a slot word.
        Instr::Const { dst, value } => {
            let mut op = Op::new(h::h_const as Handler<S>);
            op.a = r(dst);
            op.imm = Value::from(value).to_bits() as i64;
            (op, Kind::Const)
        }
        // a=dst, b=src.
        Instr::Move { dst, src } => {
            let mut op = Op::new(h::h_move as Handler<S>);
            op.a = r(dst);
            op.b = r(src);
            (op, Kind::Move)
        }
        // a=dst, b=lhs, c=rhs, ext=typed binop.
        Instr::Bin { dst, op: bop, a, b } => {
            let code = typed(bop.code(), a);
            let mut op = Op::new(h::bin_handler::<S>(code));
            op.a = r(dst);
            op.b = r(a);
            op.c = r(b);
            op.ext = code as u32;
            (op, Kind::Bin)
        }
        // a=dst, b=src, ext=typed unop.
        Instr::Un { dst, op: uop, src } => {
            let code = typed(uop.code(), src);
            let mut op = Op::new(h::un_handler::<S>(code));
            op.a = r(dst);
            op.b = r(src);
            op.ext = code as u32;
            (op, Kind::Plain)
        }
        // a=dst, b=lhs, c=rhs, ext=typed cmpop.
        Instr::Cmp { dst, op: cop, a, b } => {
            let code = typed(cop.code(), a);
            let mut op = Op::new(h::cmp_handler::<S>(code));
            op.a = r(dst);
            op.b = r(a);
            op.c = r(b);
            op.ext = code as u32;
            (op, Kind::Cmp)
        }
        // a=dst, b=src, ext=conv.
        Instr::Convert { dst, conv, src } => {
            let mut op = Op::new(h::conv_handler::<S>(conv.code()));
            op.a = r(dst);
            op.b = r(src);
            op.ext = conv.code() as u32;
            (op, Kind::Plain)
        }
        // a=dst, b=obj, imm=field offset, ext=elem type.
        Instr::GetField { dst, obj, field } => {
            let ty = program.field(field).ty;
            let mut op = Op::new(h::getfield_handler::<S>(ty.code()));
            op.a = r(dst);
            op.b = r(obj);
            op.imm = layout.field_offset(field) as i64;
            op.ext = ty.code() as u32;
            (op, Kind::GetField)
        }
        // a=obj, b=src, imm=field offset, ext=elem type.
        Instr::PutField { obj, field, src } => {
            let ty = program.field(field).ty;
            let mut op = Op::new(h::putfield_handler::<S>(ty.code()));
            op.a = r(obj);
            op.b = r(src);
            op.imm = layout.field_offset(field) as i64;
            op.ext = ty.code() as u32;
            (op, Kind::Plain)
        }
        // a=dst, b=static index, imm=static address.
        Instr::GetStatic { dst, sid } => {
            let mut op = Op::new(h::h_getstatic as Handler<S>);
            op.a = r(dst);
            op.b = sid.index() as u32;
            op.imm = static_addr(sid) as i64;
            (op, Kind::Plain)
        }
        // a=src, b=static index, imm=static address, ext=elem type.
        Instr::PutStatic { sid, src } => {
            let mut op = Op::new(h::h_putstatic as Handler<S>);
            op.a = r(src);
            op.b = sid.index() as u32;
            op.imm = static_addr(sid) as i64;
            op.ext = program.static_def(sid).ty.code() as u32;
            (op, Kind::Plain)
        }
        // a=dst, b=arr, c=idx, ext=elem type.
        Instr::ALoad {
            dst,
            arr,
            idx,
            elem,
        } => {
            let mut op = Op::new(h::aload_handler::<S>(elem.code()));
            op.a = r(dst);
            op.b = r(arr);
            op.c = r(idx);
            op.ext = elem.code() as u32;
            (op, Kind::ALoad)
        }
        // a=arr, b=idx, c=src, ext=elem type.
        Instr::AStore {
            arr,
            idx,
            src,
            elem,
        } => {
            let mut op = Op::new(h::astore_handler::<S>(elem.code()));
            op.a = r(arr);
            op.b = r(idx);
            op.c = r(src);
            op.ext = elem.code() as u32;
            (op, Kind::Plain)
        }
        // a=dst, b=arr.
        Instr::ArrayLen { dst, arr } => {
            let mut op = Op::new(h::h_arraylen as Handler<S>);
            op.a = r(dst);
            op.b = r(arr);
            (op, Kind::Plain)
        }
        // a=dst, b=class index, imm=class size.
        Instr::New { dst, class } => {
            let mut op = Op::new(h::h_new as Handler<S>);
            op.a = r(dst);
            op.b = class.index() as u32;
            op.imm = layout.class_size(class) as i64;
            (op, Kind::Plain)
        }
        // a=dst, b=len reg, ext=elem type.
        Instr::NewArray { dst, elem, len } => {
            let mut op = Op::new(h::h_newarray as Handler<S>);
            op.a = r(dst);
            op.b = r(len);
            op.ext = elem.code() as u32;
            (op, Kind::Plain)
        }
        // a=dst+1 (0 = none), b=callee index, c=arg pool start, d=arg
        // count.
        Instr::Call {
            dst,
            callee,
            ref args,
        } => {
            let mut op = Op::new(h::h_call as Handler<S>);
            op.a = dst.map_or(0, |d| r(d) + 1);
            op.b = callee.index() as u32;
            op.c = arg_pool.len() as u32;
            op.d = args.len() as u32;
            arg_pool.extend(args.iter().map(|&a| r(a)));
            (op, Kind::Plain)
        }
        // FieldOf: b=base, imm=delta. ArrayElem: b=arr, c=idx, d=scale,
        // imm=delta. Handler picks the prefetch kind via const generic.
        // `decode` sets ext, here and for SpecLoad, to the op's index
        // among the body's prefetch ops in block and instruction order
        // (the index of a twin's prefetch mask).
        Instr::Prefetch { addr, kind } => {
            let guarded = kind == PrefetchKind::GuardedLoad;
            let mut op = match addr {
                PrefetchAddr::FieldOf { .. } => {
                    if guarded {
                        Op::new(h::h_prefetch_field::<S, true> as Handler<S>)
                    } else {
                        Op::new(h::h_prefetch_field::<S, false> as Handler<S>)
                    }
                }
                PrefetchAddr::ArrayElem { .. } => {
                    if guarded {
                        Op::new(h::h_prefetch_elem::<S, true> as Handler<S>)
                    } else {
                        Op::new(h::h_prefetch_elem::<S, false> as Handler<S>)
                    }
                }
            };
            pack_prefetch_addr(&mut op, addr);
            (op, Kind::Plain)
        }
        // a=dst, address operands as for Prefetch.
        Instr::SpecLoad { dst, addr } => {
            let mut op = match addr {
                PrefetchAddr::FieldOf { .. } => Op::new(h::h_specload_field as Handler<S>),
                PrefetchAddr::ArrayElem { .. } => Op::new(h::h_specload_elem as Handler<S>),
            };
            op.a = r(dst);
            pack_prefetch_addr(&mut op, addr);
            (op, Kind::Plain)
        }
    };
    DecOp {
        op,
        kind,
        sites: [site, 0],
    }
}

fn pack_prefetch_addr<S: TraceSink>(op: &mut Op<S>, addr: PrefetchAddr) {
    match addr {
        PrefetchAddr::FieldOf { base, delta } => {
            op.b = r(base);
            op.imm = delta;
        }
        PrefetchAddr::ArrayElem {
            arr,
            idx,
            scale,
            delta,
        } => {
            op.b = r(arr);
            op.c = r(idx);
            op.d = scale as u32;
            op.imm = delta;
        }
    }
}

fn lower_term<S: TraceSink>(term: &Terminator) -> DecOp<S> {
    let (op, kind) = match *term {
        // a=target block (patched to a pc).
        Terminator::Jump(t) => {
            let mut op = Op::new(h::h_jump as Handler<S>);
            op.a = t.index() as u32;
            (op, Kind::Jump)
        }
        // a=cond, b=then block, c=else block (both patched to pcs).
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            let mut op = Op::new(h::h_branch as Handler<S>);
            op.a = r(cond);
            op.b = then_bb.index() as u32;
            op.c = else_bb.index() as u32;
            (op, Kind::Branch)
        }
        // a=ret reg+1 (0 = none).
        Terminator::Return(v) => {
            let mut op = Op::new(h::h_ret as Handler<S>);
            op.a = v.map_or(0, |x| r(x) + 1);
            (op, Kind::Plain)
        }
        Terminator::Unreachable => (Op::new(h::h_unreachable as Handler<S>), Kind::Plain),
    };
    // A terminator never faults: it has no site.
    DecOp {
        op,
        kind,
        sites: [0; 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_stays_below_the_sentinels() {
        check_len(0);
        check_len(h::SWITCH - 1);
    }

    #[test]
    #[should_panic(expected = "leave no room for the loop's sentinels")]
    fn a_body_as_long_as_a_sentinel_is_refused() {
        check_len(h::SWITCH);
    }
}
