//! Pre-decoding: lowering a [`Function`] into a flat array of threaded ops.
//!
//! Each op is a fixed-size word carrying a handler `fn` pointer and packed
//! operands; the run loop is then one indirect call per instruction instead
//! of a branch tree over the `Instr` enum. Decoding resolves everything
//! that is static at install time: field offsets and element types (the
//! degenerate monomorphic case of a field inline cache — this IR has one
//! class per field, so the "cache" never misses and bakes to a constant),
//! static addresses, class sizes, and branch targets (as flat pcs).
//!
//! Pipeline: lower each block to ops → peephole-fuse adjacent pairs
//! ([`crate::fuse`]) → flatten blocks in id order → patch branch targets
//! from block ids to flat pcs.

use std::sync::Arc;

use spf_heap::{static_addr, Layout, Value};
use spf_ir::{
    packed, Const, Function, Instr, InstrRef, PrefetchAddr, PrefetchKind, Program, Reg, Terminator,
    Ty,
};
use spf_trace::TraceSink;

use crate::dispatch::{self as h, Handler};

/// One threaded op: a handler plus packed operands.
///
/// Operand meaning is per-handler (documented at each `lower` arm); `site`
/// and `site2` carry packed [`InstrRef`]s for error/profile attribution of
/// the op's first and (when fused) second component.
pub(crate) struct Op<S: TraceSink> {
    pub handler: Handler<S>,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub d: u32,
    pub ext: u32,
    pub imm: i64,
    pub site: u64,
    pub site2: u64,
}

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
            site: 0,
            site2: 0,
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

/// A decoded op plus its kind; the kind is dropped once targets are
/// patched.
pub(crate) struct DecOp<S: TraceSink> {
    pub op: Op<S>,
    pub kind: Kind,
}

/// A function body lowered to threaded code. Shared (via `Arc`) between
/// every frame executing the body, across the whole VM, and — through
/// [`crate::Predecoded`] — across VMs on worker threads.
pub(crate) struct ThreadedCode<S: TraceSink> {
    /// The source IR (kept for site registration, GC reg typing via
    /// `reg_template`, external analyses, and re-decoding).
    pub src: Arc<Function>,
    /// The flat op array; block entries are op indices ("pcs").
    pub ops: Box<[Op<S>]>,
    /// Flat pc of the function's entry block.
    pub entry_pc: u32,
    /// Zero values per register, copied into each new frame.
    pub reg_template: Box<[Value]>,
    /// Indices of `Ref`-typed registers (GC root scan set).
    pub ref_regs: Box<[u32]>,
    /// Flattened call argument lists; each call op holds a (start, len)
    /// window.
    pub arg_pool: Box<[u32]>,
    /// Number of call sites; each gets a dense local PIC slot in `ext`,
    /// mapped to a per-VM slot via the installing VM's `pic_base`.
    pub call_sites: u32,
    /// Superinstructions formed by the fusion pass (host-side statistic).
    pub fused: u32,
}

/// Decodes `src` into threaded code. `fuse` enables superinstruction
/// fusion; either way the simulated semantics are identical.
pub(crate) fn decode<S: TraceSink>(
    program: &Program,
    layout: &Layout,
    src: &Arc<Function>,
    fuse: bool,
) -> ThreadedCode<S> {
    let func = src.as_ref();
    let reg_count = func.reg_count();
    let mut arg_pool: Vec<u32> = Vec::new();
    let mut call_sites: u32 = 0;
    let mut blocks: Vec<Vec<DecOp<S>>> = Vec::new();
    for bid in func.block_ids() {
        let block = func.block(bid);
        let mut ops = Vec::with_capacity(block.instrs.len() + 1);
        for (i, instr) in block.instrs.iter().enumerate() {
            let site = InstrRef::new(bid, i).pack();
            let d = lower(
                program,
                layout,
                instr,
                site,
                reg_count,
                &mut arg_pool,
                &mut call_sites,
            );
            ops.push(d);
        }
        ops.push(lower_term(&block.term, reg_count));
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
    let reg_template: Box<[Value]> = (0..func.reg_count())
        .map(|i| Value::zero_of(func.reg_ty(Reg::new(i))))
        .collect();
    let ref_regs: Box<[u32]> = (0..func.reg_count())
        .filter(|&i| func.reg_ty(Reg::new(i)) == Ty::Ref)
        .map(|i| i as u32)
        .collect();
    ThreadedCode {
        src: Arc::clone(src),
        entry_pc: block_entry[func.entry().index()],
        ops: ops.into_boxed_slice(),
        reg_template,
        ref_regs,
        arg_pool: arg_pool.into_boxed_slice(),
        call_sites,
        fused,
    }
}

fn lower<S: TraceSink>(
    program: &Program,
    layout: &Layout,
    instr: &Instr,
    site: u64,
    reg_count: usize,
    arg_pool: &mut Vec<u32>,
    call_sites: &mut u32,
) -> DecOp<S> {
    // SAFETY CONTRACT: every register operand packed into an op goes
    // through this validator. Frames allocate their register file at
    // exactly `reg_template.len() == reg_count`, so handlers may index
    // registers unchecked ([`crate::dispatch::Ctx::reg`]). A pass emitting
    // an out-of-range register is caught here, at install time, instead of
    // becoming UB on the hot path.
    let r = move |reg: Reg| -> u32 {
        assert!(
            reg.index() < reg_count,
            "decode: register r{} out of range (function has {reg_count})",
            reg.index()
        );
        reg.index() as u32
    };
    let (mut op, kind) = match *instr {
        // a=dst, imm=payload, ext=const kind (ext is only read by the fused
        // Const+Bin handler; singletons are specialized per kind).
        Instr::Const { dst, value } => {
            let (handler, imm, kind_code): (Handler<S>, i64, u8) = match value {
                Const::I32(x) => (h::h_const_i32, x as i64, packed::CONST_I32),
                Const::I64(x) => (h::h_const_i64, x, packed::CONST_I64),
                Const::F64(x) => (h::h_const_f64, x.to_bits() as i64, packed::CONST_F64),
                Const::Null => (h::h_const_null, 0, packed::CONST_NULL),
            };
            let mut op = Op::new(handler);
            op.a = r(dst);
            op.imm = imm;
            op.ext = kind_code as u32;
            (op, Kind::Const)
        }
        // a=dst, b=src.
        Instr::Move { dst, src } => {
            let mut op = Op::new(h::h_move as Handler<S>);
            op.a = r(dst);
            op.b = r(src);
            (op, Kind::Move)
        }
        // a=dst, b=lhs, c=rhs, ext=binop.
        Instr::Bin { dst, op: bop, a, b } => {
            let mut op = Op::new(h::bin_handler::<S>(bop.code()));
            op.a = r(dst);
            op.b = r(a);
            op.c = r(b);
            op.ext = bop.code() as u32;
            (op, Kind::Bin)
        }
        // a=dst, b=src, ext=unop.
        Instr::Un { dst, op: uop, src } => {
            let mut op = Op::new(h::un_handler::<S>(uop.code()));
            op.a = r(dst);
            op.b = r(src);
            op.ext = uop.code() as u32;
            (op, Kind::Plain)
        }
        // a=dst, b=lhs, c=rhs, ext=cmpop.
        Instr::Cmp { dst, op: cop, a, b } => {
            let mut op = Op::new(h::cmp_handler::<S>(cop.code()));
            op.a = r(dst);
            op.b = r(a);
            op.c = r(b);
            op.ext = cop.code() as u32;
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
        // a=src, b=static index, imm=static address.
        Instr::PutStatic { sid, src } => {
            let mut op = Op::new(h::h_putstatic as Handler<S>);
            op.a = r(src);
            op.b = sid.index() as u32;
            op.imm = static_addr(sid) as i64;
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
        // count, ext=local PIC slot.
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
            op.ext = *call_sites;
            *call_sites += 1;
            (op, Kind::Plain)
        }
        // FieldOf: b=base, imm=delta. ArrayElem: b=arr, c=idx, d=scale,
        // imm=delta. Handler picks the prefetch kind via const generic.
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
            pack_prefetch_addr(&mut op, addr, reg_count);
            (op, Kind::Plain)
        }
        // a=dst, address operands as for Prefetch.
        Instr::SpecLoad { dst, addr } => {
            let mut op = match addr {
                PrefetchAddr::FieldOf { .. } => Op::new(h::h_specload_field as Handler<S>),
                PrefetchAddr::ArrayElem { .. } => Op::new(h::h_specload_elem as Handler<S>),
            };
            op.a = r(dst);
            pack_prefetch_addr(&mut op, addr, reg_count);
            (op, Kind::Plain)
        }
    };
    op.site = site;
    DecOp { op, kind }
}

fn pack_prefetch_addr<S: TraceSink>(op: &mut Op<S>, addr: PrefetchAddr, reg_count: usize) {
    let r = |reg: Reg| -> u32 {
        assert!(reg.index() < reg_count, "decode: register out of range");
        reg.index() as u32
    };
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

fn lower_term<S: TraceSink>(term: &Terminator, reg_count: usize) -> DecOp<S> {
    let r = |reg: Reg| -> u32 {
        assert!(reg.index() < reg_count, "decode: register out of range");
        reg.index() as u32
    };
    match *term {
        // a=target block (patched to a pc).
        Terminator::Jump(t) => {
            let mut op = Op::new(h::h_jump as Handler<S>);
            op.a = t.index() as u32;
            DecOp {
                op,
                kind: Kind::Jump,
            }
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
            DecOp {
                op,
                kind: Kind::Branch,
            }
        }
        // a=ret reg+1 (0 = none).
        Terminator::Return(v) => {
            let mut op = Op::new(h::h_ret as Handler<S>);
            op.a = v.map_or(0, |x| r(x) + 1);
            DecOp {
                op,
                kind: Kind::Plain,
            }
        }
        Terminator::Unreachable => DecOp {
            op: Op::new(h::h_unreachable as Handler<S>),
            kind: Kind::Plain,
        },
    }
}
