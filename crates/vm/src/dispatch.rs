//! Direct-threaded dispatch: the execution context, the handler functions
//! the decoder threads function bodies onto, and the shared component
//! bodies both singleton and superinstruction handlers are built from.
//!
//! Every handler charges the simulated clock and touches the memory system
//! in exactly the order the old `match *instr` interpreter did; fused
//! handlers are literal concatenations of the same `#[inline(always)]`
//! components, so the cycle/counter/memory-op sequence of a fused pair is
//! bit-identical to executing the two ops singly. The only thing that
//! changes is host-side work per simulated instruction.

use spf_heap::{
    apply_bin, apply_cmp, apply_conv, apply_un, Value, ARRAY_DATA_OFFSET, ARRAY_LENGTH_OFFSET, NULL,
};
use spf_ir::{
    packed::unpack_reg_pair, BinOp, CmpOp, Conv, ElemTy, Instr, InstrRef, MethodId, PrefetchAddr,
    PrefetchKind, Reg, Ty, UnOp,
};
use spf_trace::{SiteId, TraceSink};

use crate::config::{CALL_OVERHEAD, COMPILED_INSTR_COST, INTERP_COST_MULTIPLIER};
use crate::decode::{Op, ThreadedCode};
use crate::error::VmError;
use crate::twin::Access;
use crate::vm::{body, Vm};

/// Handler signature. The op is a borrow into the current frame's threaded
/// code, passed alongside so variable-length operands (call argument lists)
/// and the cold fault sites can live in the code's side tables. The last
/// argument is the pc of the following op and the result the pc to run
/// next — a fall-through returns its argument, a jump its target — so the
/// run loop's cursor never leaves its register. Two values no pc can take
/// (`decode::check_len`) end the inner loop instead.
pub(crate) type Handler<S> = fn(&mut Vm<S>, &mut Ctx, &Op<S>, &ThreadedCode<S>, usize) -> usize;

/// Returned in place of a pc: the top frame changed (call or return), so
/// re-fetch the threaded code and resume at [`Ctx::pc`].
pub(crate) const SWITCH: usize = usize::MAX - 1;

/// Returned in place of a pc: execution finished; the result is in
/// [`Ctx::halt`].
pub(crate) const HALT: usize = usize::MAX;

/// Register-resident interpreter state: the live counters the old loop kept
/// in locals, plus a pointer to the top frame's register window (so the hot
/// path never chases `frames.last()` and the stack's base).
///
/// `#[repr(C)]` pins the field order, which is chosen for the host's store
/// buffer: what every handler touches sits in the first cache line, and
/// `seg_retired` and `term_retired` are kept apart. Side by side, LLVM
/// merges the two `+= 1` of a terminator-fused handler into one 16-byte
/// load/add/store, which cannot be forwarded from the 8-byte `seg_retired`
/// store the previous handler has just made and stalls on it.
#[repr(C)]
pub(crate) struct Ctx {
    /// Where the new top frame resumes: written by [`reload_ctx`] and read
    /// by the run loop once per [`SWITCH`]. Between switches the cursor is
    /// the handlers' argument and result, not this field.
    pub pc: usize,
    /// Live simulated clock (authoritative; `stats.cycles` is synchronized
    /// at call/alloc boundaries exactly as the old loop did).
    pub cycles: u64,
    /// Cycle cost per instruction in the current frame.
    pub cur_cost: u64,
    /// Non-terminator instructions retired since the last per-method
    /// flush; folded into `comp_retired`/`interp_retired` there (the
    /// compiled/interpreted split is constant between frame switches, so
    /// the hot path skips the per-instruction branch).
    pub seg_retired: u64,
    /// The current frame's register window: the last `nregs` slots of
    /// `Vm::stack`, one untagged word each ([`Value::to_bits`]; the
    /// handler the decoder chose knows each operand's type). Re-derived by
    /// [`enter_window`] whenever the stack may have been resized or
    /// borrowed as a whole (see [`Ctx::reg`]).
    pub regs: *mut u64,
    pub nregs: usize,
    /// Terminators retired (instructions are counted via `seg_retired`;
    /// the total retired count is derived as interpreted + compiled +
    /// terminators when the counters are written back at halt).
    pub term_retired: u64,
    /// Value of `cycles` at the last per-method flush; the cycles accrued
    /// by the current frame segment are `cycles - frame_start` (every
    /// charge adds to `cycles`, so the delta needs no second accumulator
    /// on the hot path). Allocation/GC charges, which the old loop kept
    /// out of the frame attribution, advance `frame_start` in lockstep
    /// (`unsync_for_alloc`).
    pub frame_start: u64,
    /// Instructions retired while interpreting (terminators excluded).
    pub interp_retired: u64,
    /// Instructions retired in compiled code (terminators excluded).
    pub comp_retired: u64,
    /// Whether the current frame runs compiled code.
    pub cur_compiled: bool,
    /// Method of the current frame.
    pub cur_mid: MethodId,
    /// Set when execution halts (normal return from the entry frame or a
    /// fault).
    pub halt: Option<Result<Option<Value>, VmError>>,
}

impl Ctx {
    /// Reads a register without a bounds check and without a type check.
    ///
    /// SAFETY: `decode::decode` runs `spf_ir::verify` over every body
    /// before lowering it, which rejects any register operand at or past
    /// the function's register count (and any operand whose declared type
    /// is not the one the chosen handler reads it as), and every frame's
    /// window is pushed at exactly `reg_count` slots, so a decoded operand
    /// can never be out of range (the debug assertion re-checks that).
    /// `regs` points into `Vm::stack`, which only two operations resize: a
    /// call (`h_call` pushes the arguments and `Vm::activate` the rest of
    /// the callee's window; either may reallocate) and a return (`h_ret`
    /// truncates the returning window). Both, like the allocator (whose GC
    /// forwards the stack in place), are followed by [`enter_window`]
    /// before the next register access, and nothing else touches the stack
    /// while the run loop is live.
    #[inline(always)]
    pub(crate) fn reg(&self, i: u32) -> u64 {
        debug_assert!((i as usize) < self.nregs);
        unsafe { *self.regs.add(i as usize) }
    }

    /// Writes a register without a bounds check (safety as for [`Ctx::reg`]).
    #[inline(always)]
    pub(crate) fn set_reg(&mut self, i: u32, bits: u64) {
        debug_assert!((i as usize) < self.nregs);
        unsafe { *self.regs.add(i as usize) = bits }
    }

    /// Reads a register as the value of type `ty` it holds.
    #[inline(always)]
    fn value(&self, i: u32, ty: Ty) -> Value {
        Value::from_bits(ty, self.reg(i))
    }
}

/// Points `ctx` at the top frame's register window, which starts at
/// `base` and runs to the top of the stack.
#[inline(always)]
fn enter_window<S: TraceSink>(vm: &mut Vm<S>, ctx: &mut Ctx, base: usize) {
    let window = &mut vm.stack[base..];
    ctx.nregs = window.len();
    ctx.regs = window.as_mut_ptr();
}

/// Charges one instruction: clock, frame attribution, retired counters.
#[inline(always)]
fn charge_instr(ctx: &mut Ctx) {
    ctx.cycles += ctx.cur_cost;
    ctx.seg_retired += 1;
}

/// Charges one terminator: like an instruction but without the
/// compiled/interpreted retirement split (matching the old loop).
#[inline(always)]
fn charge_term(ctx: &mut Ctx) {
    ctx.cycles += ctx.cur_cost;
    ctx.term_retired += 1;
}

/// Flushes `frame_acc` into the current method's per-method attribution
/// (the old `flush_frame!`), and into each shadow's (see the `twin`
/// module).
#[inline(always)]
pub(crate) fn flush_frame_acc<S: TraceSink>(vm: &mut Vm<S>, ctx: &mut Ctx) {
    let acc = ctx.cycles - ctx.frame_start;
    if !S::ENABLED && !vm.shadows.is_empty() {
        vm.flush_shadows(ctx.cur_mid, ctx.cur_compiled, acc);
    }
    let pm = &mut vm.stats.per_method[ctx.cur_mid.index()];
    if ctx.cur_compiled {
        pm.compiled += acc;
        ctx.comp_retired += ctx.seg_retired;
    } else {
        pm.interpreted += acc;
        ctx.interp_retired += ctx.seg_retired;
    }
    ctx.frame_start = ctx.cycles;
    ctx.seg_retired = 0;
}

/// Halts execution with `res`, flushing the pending frame attribution (the
/// old `finish!`; the run loop writes the global counters on [`HALT`]).
#[cold]
pub(crate) fn halt<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    res: Result<Option<Value>, VmError>,
) -> usize {
    flush_frame_acc(vm, ctx);
    ctx.halt = Some(res);
    HALT
}

/// Faulting component exit: records the error and reports failure.
#[cold]
fn fail<S: TraceSink>(vm: &mut Vm<S>, ctx: &mut Ctx, e: VmError) -> bool {
    halt(vm, ctx, Err(e));
    false
}

/// Refreshes `ctx` from the (new) top frame after a push or pop (the old
/// `reload!`).
#[inline]
pub(crate) fn reload_ctx<S: TraceSink>(vm: &mut Vm<S>, ctx: &mut Ctx) {
    let f = *vm.frames.last().expect("frame");
    let code = body(&vm.codes, f.code);
    ctx.pc = f.pc;
    ctx.frame_start = ctx.cycles;
    ctx.cur_mid = f.method;
    ctx.cur_compiled = code.compiled;
    ctx.cur_cost = if code.compiled {
        COMPILED_INSTR_COST
    } else {
        COMPILED_INSTR_COST * INTERP_COST_MULTIPLIER
    };
    enter_window(vm, ctx, f.base);
}

/// Makes one memory access at the live clock and returns its latency.
/// Every shadow memory system (see the `twin` module) makes it too, at its
/// own clock.
#[inline(always)]
fn mem_access<S: TraceSink>(vm: &mut Vm<S>, ctx: &Ctx, access: Access, addr: u64) -> u64 {
    let lat = access.apply(&mut vm.mem, addr, ctx.cycles);
    if !S::ENABLED && !vm.shadows.is_empty() {
        vm.shadow_access(access, addr, ctx.cycles, lat);
    }
    lat
}

/// Names the IR position of component 0 or 1 of the op before `next`
/// without reading it: the packed [`InstrRef`]s live in
/// [`ThreadedCode::sites`], which only the fault, traced and adaptive
/// branches ever load. Components take this handle instead of the site, so
/// the straight path carries no load for it.
pub(crate) type SiteOf<'a, S> = (&'a ThreadedCode<S>, usize, usize);

#[inline(always)]
fn site_at<S: TraceSink>((tc, next, component): SiteOf<'_, S>) -> InstrRef {
    InstrRef::unpack(tc.sites[next - 1][component])
}

// ---------------------------------------------------------------------------
// Component bodies. Each mirrors one arm of the old `match *instr` exactly
// (same clock charges, same memory-system calls, same error order) and is
// shared between its singleton handler and every superinstruction that
// includes it.
// ---------------------------------------------------------------------------

/// A typed operator code, as `decode::lower` packs it into `op.ext` and
/// the selectors below bake it into a handler instance: the operator's
/// packed code in the low nibble, the type of its operands above it. The
/// IR is statically typed and verified at decode, so the handler builds
/// the evaluator's `Value`s from untagged words with the type a constant,
/// and the evaluator's `match` on it folds away.
pub(crate) fn typed(op: u8, ty: Ty) -> u8 {
    op | match ty {
        Ty::I32 => 0x00,
        Ty::I64 => 0x10,
        Ty::F64 => 0x20,
        Ty::Ref => 0x30,
    }
}

/// The operand type of a [`typed`] code.
#[inline(always)]
fn ty_of(code: u8) -> Ty {
    match code >> 4 {
        0 => Ty::I32,
        1 => Ty::I64,
        2 => Ty::F64,
        _ => Ty::Ref,
    }
}

#[inline(always)]
fn do_bin<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    dst: u32,
    code: u8,
    ra: u32,
    rb: u32,
    site: SiteOf<'_, S>,
) -> bool {
    let ty = ty_of(code);
    let (x, y) = (ctx.value(ra, ty), ctx.value(rb, ty));
    match apply_bin(BinOp::from_code(code & 0xf), x, y) {
        Some(v) => {
            ctx.set_reg(dst, v.to_bits());
            true
        }
        // Bodies are verified, so operand types agree and `None` can only
        // be a zero divisor.
        None => fail(vm, ctx, VmError::DivisionByZero { at: site_at(site) }),
    }
}

#[inline(always)]
fn do_cmp(ctx: &mut Ctx, dst: u32, code: u8, ra: u32, rb: u32) -> i32 {
    let ty = ty_of(code);
    let (x, y) = (ctx.value(ra, ty), ctx.value(rb, ty));
    let flag = apply_cmp(CmpOp::from_code(code & 0xf), x, y)
        .expect("verifier rejects mixed-type compares");
    ctx.set_reg(dst, flag as u32 as u64);
    flag
}

#[inline(always)]
fn do_move(ctx: &mut Ctx, dst: u32, src: u32) {
    let bits = ctx.reg(src);
    ctx.set_reg(dst, bits);
}

/// The null check every dereference starts with: the address in `reg`, or
/// the halted `NullPointer` fault.
#[inline(always)]
fn non_null<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    reg: u32,
    site: SiteOf<'_, S>,
) -> Option<u64> {
    let a = ctx.reg(reg);
    if a == NULL {
        fail(vm, ctx, VmError::NullPointer { at: site_at(site) });
        return None;
    }
    Some(a)
}

#[inline(always)]
fn do_getfield<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    dst: u32,
    obj: u32,
    off: u64,
    ty: ElemTy,
    site: SiteOf<'_, S>,
) -> bool {
    let Some(a) = non_null(vm, ctx, obj, site) else {
        return false;
    };
    let addr = a + off;
    let lat = mem_access(vm, ctx, Access::Load, addr);
    ctx.cycles += lat;
    match vm.heap.load_bits(addr, ty) {
        Some(bits) => {
            ctx.set_reg(dst, bits);
            true
        }
        None => fail(vm, ctx, VmError::BadAccess { addr }),
    }
}

/// The address of element `idx` of the array in `arr`, after the null and
/// bounds checks `ALoad` and `AStore` share.
#[inline(always)]
fn elem_slot<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    arr: u32,
    idx: u32,
    elem: ElemTy,
    site: SiteOf<'_, S>,
) -> Option<u64> {
    let a = non_null(vm, ctx, arr, site)?;
    let i = ctx.reg(idx) as i32;
    let len = vm.heap.array_len(a);
    if i < 0 || i as u64 >= len {
        fail(
            vm,
            ctx,
            VmError::IndexOutOfBounds {
                at: site_at(site),
                index: i,
                len,
            },
        );
        return None;
    }
    Some(a + ARRAY_DATA_OFFSET + i as u64 * elem.size())
}

#[inline(always)]
fn do_aload<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    dst: u32,
    arr: u32,
    idx: u32,
    elem: ElemTy,
    site: SiteOf<'_, S>,
) -> bool {
    let Some(addr) = elem_slot(vm, ctx, arr, idx, elem, site) else {
        return false;
    };
    let lat = mem_access(vm, ctx, Access::Load, addr);
    ctx.cycles += lat;
    match vm.heap.load_bits(addr, elem) {
        Some(bits) => {
            ctx.set_reg(dst, bits);
            true
        }
        None => fail(vm, ctx, VmError::BadAccess { addr }),
    }
}

/// Shared tail of a prefetch op — the `index`-th of its body — after its
/// charge. A `target` gets site attribution for tracing, adaptive
/// usefulness probing (this VM's and its guarded twins'), then the actual
/// memory-system prefetch. Every shadow (see the `twin` module) then
/// makes the op at its own clock, or takes it back out if its code lacks
/// the op.
#[inline(always)]
fn prefetch_op<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    site: SiteOf<'_, S>,
    index: u32,
    target: Option<spf_heap::Addr>,
    kind: PrefetchKind,
) {
    let lat = match target {
        Some(target) => {
            if S::ENABLED {
                let site_ref = site_at(site);
                let id = vm.site_ids.get(&(ctx.cur_mid, site_ref));
                vm.mem.set_site(id.copied().unwrap_or(SiteId::UNKNOWN));
            }
            if vm.guarded() {
                let block = site_at(site).block.index() as u32;
                vm.probe_issue((ctx.cur_mid, block), index, target, kind, false);
            }
            Access::prefetch(kind).apply(&mut vm.mem, target, ctx.cycles)
        }
        None => 0,
    };
    if !S::ENABLED && !vm.shadows.is_empty() {
        vm.shadow_prefetch(index, kind, target, (ctx.cycles, ctx.cur_cost), lat, false);
    }
    ctx.cycles += lat;
}

/// `FieldOf { base, delta }` address computation; `None` when the base is
/// null (the prefetch is then silently skipped).
#[inline(always)]
fn field_addr(ctx: &Ctx, base: u32, delta: i64) -> Option<spf_heap::Addr> {
    let a = ctx.reg(base);
    (a != NULL).then(|| a.wrapping_add(delta as u64))
}

/// `ArrayElem { arr, idx, scale, delta }` address computation.
#[inline(always)]
fn elem_addr(ctx: &Ctx, arr: u32, idx: u32, scale: u32, delta: i64) -> Option<spf_heap::Addr> {
    let (a, i) = (ctx.reg(arr), ctx.reg(idx) as i32);
    (a != NULL).then(|| {
        a.wrapping_add((i as i64).wrapping_mul(scale as i64) as u64)
            .wrapping_add(delta as u64)
    })
}

#[inline(always)]
fn do_specload<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    site: SiteOf<'_, S>,
    target: Option<spf_heap::Addr>,
) {
    prefetch_op(vm, ctx, site, op.ext, target, PrefetchKind::GuardedLoad);
    // A speculative load never faults: an invalid address reads null.
    let v = target.map_or(NULL, |t| vm.heap.load_bits(t, ElemTy::Ref).unwrap_or(NULL));
    ctx.set_reg(op.a, v);
}

// ---------------------------------------------------------------------------
// Singleton handlers, one per decoded opcode.
// Operand packing per handler is documented in `decode::lower`.
// ---------------------------------------------------------------------------

/// Every constant kind is one handler: `imm` holds the slot word.
pub(crate) fn h_const<S: TraceSink>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    ctx.set_reg(op.a, op.imm as u64);
    next
}

pub(crate) fn h_move<S: TraceSink>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    do_move(ctx, op.a, op.b);
    next
}

pub(crate) fn h_bin<S: TraceSink, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    if do_bin(vm, ctx, op.a, B, op.b, op.c, (tc, next, 0)) {
        next
    } else {
        HALT
    }
}

pub(crate) fn h_un<S: TraceSink, const U: u8>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let v = apply_un(UnOp::from_code(U & 0xf), ctx.value(op.b, ty_of(U)))
        .expect("verifier rejects other unops");
    ctx.set_reg(op.a, v.to_bits());
    next
}

pub(crate) fn h_cmp<S: TraceSink, const C: u8>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    do_cmp(ctx, op.a, C, op.b, op.c);
    next
}

pub(crate) fn h_convert<S: TraceSink, const C: u8>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let conv = Conv::from_code(C);
    let v = apply_conv(conv, ctx.value(op.b, conv.signature().0))
        .expect("verifier rejects other conversions");
    ctx.set_reg(op.a, v.to_bits());
    next
}

pub(crate) fn h_getfield<S: TraceSink, const TY: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    if do_getfield(
        vm,
        ctx,
        op.a,
        op.b,
        op.imm as u64,
        ElemTy::from_code(TY),
        (tc, next, 0),
    ) {
        next
    } else {
        HALT
    }
}

pub(crate) fn h_putfield<S: TraceSink, const TY: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let Some(a) = non_null(vm, ctx, op.a, (tc, next, 0)) else {
        return HALT;
    };
    let addr = a + op.imm as u64;
    let lat = mem_access(vm, ctx, Access::Store, addr);
    ctx.cycles += lat;
    if !vm
        .heap
        .store_bits(addr, ElemTy::from_code(TY), ctx.reg(op.b))
    {
        return halt(vm, ctx, Err(VmError::BadAccess { addr }));
    }
    next
}

pub(crate) fn h_getstatic<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let lat = mem_access(vm, ctx, Access::Load, op.imm as u64);
    ctx.cycles += lat;
    ctx.set_reg(op.a, vm.statics[op.b as usize].to_bits());
    next
}

pub(crate) fn h_putstatic<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let lat = mem_access(vm, ctx, Access::Store, op.imm as u64);
    ctx.cycles += lat;
    // Statics stay `Value`s (the inspector and the GC read them as such):
    // the word is typed by the static's declared type, carried in `ext`.
    let ty = ElemTy::from_code(op.ext as u8).reg_ty();
    vm.statics[op.b as usize] = ctx.value(op.a, ty);
    next
}

pub(crate) fn h_aload<S: TraceSink, const TY: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let site = (tc, next, 0);
    if do_aload(vm, ctx, op.a, op.b, op.c, ElemTy::from_code(TY), site) {
        next
    } else {
        HALT
    }
}

/// The AStore component: null/bounds checks, the store access, and the
/// element write. Shared verbatim between the singleton and fused forms.
#[inline(always)]
fn do_astore<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    arr: u32,
    idx: u32,
    src: u32,
    elem: ElemTy,
    site: SiteOf<'_, S>,
) -> bool {
    let Some(addr) = elem_slot(vm, ctx, arr, idx, elem, site) else {
        return false;
    };
    let lat = mem_access(vm, ctx, Access::Store, addr);
    ctx.cycles += lat;
    if !vm.heap.store_bits(addr, elem, ctx.reg(src)) {
        return fail(vm, ctx, VmError::BadAccess { addr });
    }
    true
}

pub(crate) fn h_astore<S: TraceSink, const TY: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let site = (tc, next, 0);
    if do_astore(vm, ctx, op.a, op.b, op.c, ElemTy::from_code(TY), site) {
        next
    } else {
        HALT
    }
}

pub(crate) fn h_arraylen<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let Some(a) = non_null(vm, ctx, op.b, (tc, next, 0)) else {
        return HALT;
    };
    let lat = mem_access(vm, ctx, Access::Load, a + ARRAY_LENGTH_OFFSET);
    ctx.cycles += lat;
    // The `I32` result is the length's low half, as a slot word.
    ctx.set_reg(op.a, vm.heap.array_len(a) as u32 as u64);
    next
}

/// Syncs the live clock back into the VM so the allocator (which may GC:
/// clock charges; the registers it roots and forwards are already in the
/// VM's stack) sees consistent state; inverse of `unsync_for_alloc`.
#[inline(always)]
fn sync_for_alloc<S: TraceSink>(vm: &mut Vm<S>, ctx: &Ctx) {
    vm.stats.cycles = ctx.cycles;
}

#[inline(always)]
fn unsync_for_alloc<S: TraceSink>(vm: &mut Vm<S>, ctx: &mut Ctx) {
    // Allocation/GC cycles stay out of the per-method frame attribution
    // (as in the old loop): advance `frame_start` by the same amount the
    // allocator advanced the clock.
    ctx.frame_start += vm.stats.cycles - ctx.cycles;
    ctx.cycles = vm.stats.cycles;
    let base = vm.frames.last().expect("frame").base;
    enter_window(vm, ctx, base);
}

pub(crate) fn h_new<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    // The allocator may GC, which charges the clock and moves objects.
    sync_for_alloc(vm, ctx);
    let res = vm.alloc_object(spf_ir::ClassId::new(op.b as usize));
    unsync_for_alloc(vm, ctx);
    let a = match res {
        Ok(a) => a,
        Err(e) => return halt(vm, ctx, Err(e)),
    };
    let size = op.imm as u64;
    let lat = mem_access(vm, ctx, Access::Store, a);
    let cost = lat + 4 + size / 32;
    ctx.cycles += cost;
    ctx.set_reg(op.a, a);
    next
}

pub(crate) fn h_newarray<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let n = ctx.reg(op.b) as i32;
    if n < 0 {
        return halt(
            vm,
            ctx,
            Err(VmError::IndexOutOfBounds {
                at: site_at((tc, next, 0)),
                index: n,
                len: 0,
            }),
        );
    }
    let elem = ElemTy::from_code(op.ext as u8);
    // The allocator may GC, which charges the clock and moves objects.
    sync_for_alloc(vm, ctx);
    let res = vm.alloc_array(elem, n as u64);
    unsync_for_alloc(vm, ctx);
    let a = match res {
        Ok(a) => a,
        Err(e) => return halt(vm, ctx, Err(e)),
    };
    let size = spf_heap::Layout::array_size(elem, n as u64);
    let lat = mem_access(vm, ctx, Access::Store, a);
    let cost = lat + 4 + size / 32;
    ctx.cycles += cost;
    ctx.set_reg(op.a, a);
    next
}

pub(crate) fn h_call<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    ctx.cycles += CALL_OVERHEAD;
    flush_frame_acc(vm, ctx);
    // Persist the cursor so the callee's return resumes after this call.
    let f = vm.frames.last_mut().expect("frame");
    f.pc = next;
    let base = f.base;
    // The arguments go straight from this window to the top of the stack,
    // where the callee's window will start. A push may reallocate the
    // stack, so they are read by index and `ctx.regs` is dead from here
    // until `reload_ctx`.
    for &r in &tc.arg_pool[op.c as usize..(op.c + op.d) as usize] {
        let v = vm.stack[base + r as usize];
        vm.stack.push(v);
    }
    // `call_into` may JIT-compile, which charges the clock.
    vm.stats.cycles = ctx.cycles;
    let callee = MethodId::new(op.b as usize);
    let ret_dst = if op.a == 0 {
        None
    } else {
        Some(Reg::new((op.a - 1) as usize))
    };
    match vm.call_into(callee, op.d as usize, ret_dst) {
        Ok(()) => {
            ctx.cycles = vm.stats.cycles;
            reload_ctx(vm, ctx);
            SWITCH
        }
        Err(e) => {
            // The clock grew by the (failed) resolution's charges after the
            // flush above; keep them out of the frame attribution, exactly
            // as the old loop's zeroed accumulator did.
            ctx.cycles = vm.stats.cycles;
            ctx.frame_start = ctx.cycles;
            halt(vm, ctx, Err(e))
        }
    }
}

pub(crate) fn h_prefetch_field<S: TraceSink, const GUARDED: bool>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let target = field_addr(ctx, op.b, op.imm);
    let kind = if GUARDED {
        PrefetchKind::GuardedLoad
    } else {
        PrefetchKind::Hardware
    };
    prefetch_op(vm, ctx, (tc, next, 0), op.ext, target, kind);
    next
}

pub(crate) fn h_prefetch_elem<S: TraceSink, const GUARDED: bool>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let target = elem_addr(ctx, op.b, op.c, op.d, op.imm);
    let kind = if GUARDED {
        PrefetchKind::GuardedLoad
    } else {
        PrefetchKind::Hardware
    };
    prefetch_op(vm, ctx, (tc, next, 0), op.ext, target, kind);
    next
}

pub(crate) fn h_specload_field<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let target = field_addr(ctx, op.b, op.imm);
    do_specload(vm, ctx, op, (tc, next, 0), target);
    next
}

pub(crate) fn h_specload_elem<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let target = elem_addr(ctx, op.b, op.c, op.d, op.imm);
    do_specload(vm, ctx, op, (tc, next, 0), target);
    next
}

/// The handler of `instr`, a prefetch op the VM's own cell lacks (see
/// `decode::decode`).
pub(crate) fn ghost_handler<S: TraceSink>(instr: &Instr) -> Handler<S> {
    use PrefetchKind::{GuardedLoad, Hardware};
    let elem = |addr: &PrefetchAddr| matches!(addr, PrefetchAddr::ArrayElem { .. });
    match instr {
        Instr::Prefetch { addr, kind } => match (elem(addr), kind) {
            (false, Hardware) => h_ghost::<S, false, false, false>,
            (false, GuardedLoad) => h_ghost::<S, false, true, false>,
            (true, Hardware) => h_ghost::<S, true, false, false>,
            (true, GuardedLoad) => h_ghost::<S, true, true, false>,
        },
        Instr::SpecLoad { addr, .. } if elem(addr) => h_ghost::<S, true, true, true>,
        Instr::SpecLoad { .. } => h_ghost::<S, false, true, true>,
        _ => unreachable!("only a prefetch op is a ghost"),
    }
}

/// A prefetch op the VM's own cell lacks and some twin's code has — of an
/// `ArrayElem` address if `ELEM`, a guarded load if `GUARDED`, a
/// `SpecLoad` if `SPEC`. It charges this VM nothing: the guarded twins
/// whose code has it probe it, and the shadows whose code has it make it
/// at their own clock (see the `twin` module). A `SpecLoad` still writes
/// its register, which only their ops read.
pub(crate) fn h_ghost<S: TraceSink, const ELEM: bool, const GUARDED: bool, const SPEC: bool>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    let target = if ELEM {
        elem_addr(ctx, op.b, op.c, op.d, op.imm)
    } else {
        field_addr(ctx, op.b, op.imm)
    };
    let kind = if GUARDED {
        PrefetchKind::GuardedLoad
    } else {
        PrefetchKind::Hardware
    };
    if let Some(target) = target.filter(|_| vm.guarded()) {
        let block = site_at((tc, next, 0)).block.index() as u32;
        vm.probe_issue((ctx.cur_mid, block), op.ext, target, kind, true);
    }
    vm.shadow_prefetch(op.ext, kind, target, (ctx.cycles, ctx.cur_cost), 0, true);
    if SPEC {
        let v = target.map_or(NULL, |t| vm.heap.load_bits(t, ElemTy::Ref).unwrap_or(NULL));
        ctx.set_reg(op.a, v);
    }
    next
}

// --------------------------------- Terminators -----------------------------

pub(crate) fn h_jump<S: TraceSink>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    _next: usize,
) -> usize {
    charge_term(ctx);
    op.a as usize
}

pub(crate) fn h_branch<S: TraceSink>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    _next: usize,
) -> usize {
    charge_term(ctx);
    let taken = ctx.reg(op.a) as i32 != 0;
    (if taken { op.b } else { op.c }) as usize
}

pub(crate) fn h_ret<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    _next: usize,
) -> usize {
    charge_term(ctx);
    flush_frame_acc(vm, ctx);
    let f = vm.frames.pop().expect("frame");
    let value = if op.a == 0 {
        None
    } else {
        Some(ctx.reg(op.a - 1))
    };
    vm.stack.truncate(f.base);
    match vm.frames.last() {
        Some(caller) => {
            if let (Some(dst), Some(val)) = (f.ret_dst, value) {
                vm.stack[caller.base + dst.index()] = val;
            }
        }
        None => {
            // The entry frame's result leaves the VM as a `Value`, typed
            // by the body's declared return type.
            let ty = tc.src.ret_ty();
            ctx.halt = Some(Ok(value.map(|bits| {
                Value::from_bits(ty.expect("verified: only a typed body returns"), bits)
            })));
            return HALT;
        }
    }
    reload_ctx(vm, ctx);
    SWITCH
}

pub(crate) fn h_unreachable<S: TraceSink>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    _op: &Op<S>,
    _tc: &ThreadedCode<S>,
    _next: usize,
) -> usize {
    charge_term(ctx);
    halt(vm, ctx, Err(VmError::UnreachableExecuted))
}

// ------------------------------ Superinstructions --------------------------
//
// Each fused handler is the exact concatenation of its components,
// including both charge steps, so counters and memory-op interleavings are
// bit-identical to the unfused pair. Operand packings are documented in
// `fuse`.

/// `Cmp` + `Branch` on the comparison result (the loop back-edge pattern).
pub(crate) fn h_cmp_branch<S: TraceSink, const C: u8>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    _next: usize,
) -> usize {
    charge_instr(ctx);
    let (ra, rb) = unpack_reg_pair(op.c);
    let flag = do_cmp(ctx, op.a, C, ra.index() as u32, rb.index() as u32);
    charge_term(ctx);
    (if flag != 0 { op.b } else { op.d }) as usize
}

/// `Const` + `Bin` (constant-operand arithmetic).
pub(crate) fn h_const_bin<S: TraceSink, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    ctx.set_reg(op.a, op.imm as u64);
    charge_instr(ctx);
    if do_bin(vm, ctx, op.b, B, op.c, op.d, (tc, next, 1)) {
        next
    } else {
        HALT
    }
}

/// `GetField` + `Bin` (load-then-compute).
pub(crate) fn h_getfield_bin<S: TraceSink, const TY: u8, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    if !do_getfield(
        vm,
        ctx,
        op.a,
        op.b,
        op.imm as u64,
        ElemTy::from_code(TY),
        (tc, next, 0),
    ) {
        return HALT;
    }
    charge_instr(ctx);
    let (ra, rb) = unpack_reg_pair(op.d);
    if do_bin(
        vm,
        ctx,
        op.c,
        B,
        ra.index() as u32,
        rb.index() as u32,
        (tc, next, 1),
    ) {
        next
    } else {
        HALT
    }
}

/// `Bin` + `ALoad` (index-then-load).
pub(crate) fn h_bin_aload<S: TraceSink, const TY: u8, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let (ra, rb) = unpack_reg_pair(op.d);
    if !do_bin(
        vm,
        ctx,
        op.a,
        B,
        ra.index() as u32,
        rb.index() as u32,
        (tc, next, 0),
    ) {
        return HALT;
    }
    charge_instr(ctx);
    let (dst, arr) = unpack_reg_pair(op.b);
    if do_aload(
        vm,
        ctx,
        dst.index() as u32,
        arr.index() as u32,
        op.c,
        ElemTy::from_code(TY),
        (tc, next, 1),
    ) {
        next
    } else {
        HALT
    }
}

/// Fused Bin + Move: a=bin dst, b=bin lhs, c=bin rhs, ext=binop,
/// d=pack(move dst, move src).
pub(crate) fn h_bin_move<S: TraceSink, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    if !do_bin(vm, ctx, op.a, B, op.b, op.c, (tc, next, 0)) {
        return HALT;
    }
    charge_instr(ctx);
    let (dst, src) = unpack_reg_pair(op.d);
    do_move(ctx, dst.index() as u32, src.index() as u32);
    next
}

/// Fused Move + Jump terminator: b=move dst, c=move src, a=jump target
/// (block id until the flattener patches it — the merged op keeps
/// `Kind::Jump`).
pub(crate) fn h_move_jump<S: TraceSink>(
    _vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    _tc: &ThreadedCode<S>,
    _next: usize,
) -> usize {
    charge_instr(ctx);
    do_move(ctx, op.b, op.c);
    charge_term(ctx);
    op.a as usize
}

/// Fused ALoad + Bin: a=aload dst, b=pack(arr, idx), c=bin dst,
/// d=pack(bin lhs, bin rhs), ext=elem | binop<<8.
pub(crate) fn h_aload_bin<S: TraceSink, const TY: u8, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let (arr, idx) = unpack_reg_pair(op.b);
    if !do_aload(
        vm,
        ctx,
        op.a,
        arr.index() as u32,
        idx.index() as u32,
        ElemTy::from_code(TY),
        (tc, next, 0),
    ) {
        return HALT;
    }
    charge_instr(ctx);
    let (ra, rb) = unpack_reg_pair(op.d);
    if do_bin(
        vm,
        ctx,
        op.c,
        B,
        ra.index() as u32,
        rb.index() as u32,
        (tc, next, 1),
    ) {
        next
    } else {
        HALT
    }
}

/// Fused Move + ALoad: c=pack(move dst, move src), a=aload dst,
/// b=pack(arr, idx), ext=elem.
pub(crate) fn h_move_aload<S: TraceSink, const TY: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    let (dst, src) = unpack_reg_pair(op.c);
    do_move(ctx, dst.index() as u32, src.index() as u32);
    charge_instr(ctx);
    let (arr, idx) = unpack_reg_pair(op.b);
    if do_aload(
        vm,
        ctx,
        op.a,
        arr.index() as u32,
        idx.index() as u32,
        ElemTy::from_code(TY),
        (tc, next, 1),
    ) {
        next
    } else {
        HALT
    }
}

/// Second-round fusion of [`h_bin_move`] + Jump terminator: the operand
/// layout of `h_bin_move` unchanged, with the jump target (block id until
/// patched — `Kind::BinMoveJump`) in `imm`.
pub(crate) fn h_bin_move_jump<S: TraceSink, const B: u8>(
    vm: &mut Vm<S>,
    ctx: &mut Ctx,
    op: &Op<S>,
    tc: &ThreadedCode<S>,
    next: usize,
) -> usize {
    charge_instr(ctx);
    if !do_bin(vm, ctx, op.a, B, op.b, op.c, (tc, next, 0)) {
        return HALT;
    }
    charge_instr(ctx);
    let (dst, src) = unpack_reg_pair(op.d);
    do_move(ctx, dst.index() as u32, src.index() as u32);
    charge_term(ctx);
    op.imm as usize
}

// ------------------------ Decode-time specialization ------------------------
//
// The decoder picks a handler instance with the typed operator /
// element-type code baked in as a const generic, so `from_code`, the
// operation match and the operand-type match const-fold into straight-line
// code per (operator, type). The generic bodies above remain the single
// source of semantics; these selectors only enumerate the (small, closed)
// code spaces. A code outside a table is one `spf_ir::verify` rejects, so
// decode never asks for it.

/// Expands a `match` on `$code` over the listed literal codes, selecting
/// `$h::<S, code>` (or `$h::<S, $pre, code>`).
macro_rules! select {
    ([$($c:literal)*], $code:expr, $h:ident) => {
        match $code {
            $($c => $h::<S, $c>,)*
            c => panic!("decode: no {} instance for code {c:#x}", stringify!($h)),
        }
    };
    ([$($c:literal)*], $code:expr, $h:ident, $pre:literal) => {
        match $code {
            $($c => $h::<S, $pre, $c>,)*
            c => panic!("decode: no {} instance for code {c:#x}", stringify!($h)),
        }
    };
}

/// The 26 valid [`typed`] `BinOp` codes: all 11 on `I32` and on `I64`,
/// the four arithmetic ones on `F64`.
macro_rules! bin_select {
    ($($args:tt)*) => {
        select!([0x00 0x01 0x02 0x03 0x04 0x05 0x06 0x07 0x08 0x09 0x0a
                 0x10 0x11 0x12 0x13 0x14 0x15 0x16 0x17 0x18 0x19 0x1a
                 0x20 0x21 0x22 0x23], $($args)*)
    };
}

/// The 24 [`typed`] `CmpOp` codes: six operators on each register type.
macro_rules! cmp_select {
    ($($args:tt)*) => {
        select!([0x00 0x01 0x02 0x03 0x04 0x05 0x10 0x11 0x12 0x13 0x14 0x15
                 0x20 0x21 0x22 0x23 0x24 0x25 0x30 0x31 0x32 0x33 0x34 0x35], $($args)*)
    };
}

/// The five `ElemTy` codes.
macro_rules! elem_select {
    ($($args:tt)*) => { select!([0 1 2 3 4], $($args)*) };
}

/// Selects `$h::<S, ELEM, BIN>` for an `ElemTy` code and a typed `BinOp`
/// code.
macro_rules! elem_bin_select {
    ($elem:expr, $bop:expr, $h:ident) => {
        match $elem {
            0 => bin_select!($bop, $h, 0),
            1 => bin_select!($bop, $h, 1),
            2 => bin_select!($bop, $h, 2),
            3 => bin_select!($bop, $h, 3),
            _ => bin_select!($bop, $h, 4),
        }
    };
}

/// Selects the [`h_bin`] instance for a typed `BinOp` code.
pub(crate) fn bin_handler<S: TraceSink>(code: u8) -> Handler<S> {
    bin_select!(code, h_bin)
}

/// Selects the [`h_cmp`] instance for a typed `CmpOp` code.
pub(crate) fn cmp_handler<S: TraceSink>(code: u8) -> Handler<S> {
    cmp_select!(code, h_cmp)
}

/// Selects the [`h_un`] instance for a typed `UnOp` code: `Neg` on the
/// three numeric types, `Not` on the two integer ones.
pub(crate) fn un_handler<S: TraceSink>(code: u8) -> Handler<S> {
    select!([0x00 0x01 0x10 0x11 0x20], code, h_un)
}

/// Selects the [`h_convert`] instance for a `Conv` code.
pub(crate) fn conv_handler<S: TraceSink>(code: u8) -> Handler<S> {
    select!([0 1 2 3 4 5], code, h_convert)
}

/// Selects the [`h_getfield`] instance for an `ElemTy` code.
pub(crate) fn getfield_handler<S: TraceSink>(code: u8) -> Handler<S> {
    elem_select!(code, h_getfield)
}

/// Selects the [`h_putfield`] instance for an `ElemTy` code.
pub(crate) fn putfield_handler<S: TraceSink>(code: u8) -> Handler<S> {
    elem_select!(code, h_putfield)
}

/// Selects the [`h_aload`] instance for an `ElemTy` code.
pub(crate) fn aload_handler<S: TraceSink>(code: u8) -> Handler<S> {
    elem_select!(code, h_aload)
}

/// Selects the [`h_astore`] instance for an `ElemTy` code.
pub(crate) fn astore_handler<S: TraceSink>(code: u8) -> Handler<S> {
    elem_select!(code, h_astore)
}

/// Selects the [`h_cmp_branch`] instance for a typed `CmpOp` code.
pub(crate) fn cmp_branch_handler<S: TraceSink>(code: u8) -> Handler<S> {
    cmp_select!(code, h_cmp_branch)
}

/// Selects the [`h_const_bin`] instance for a typed `BinOp` code.
pub(crate) fn const_bin_handler<S: TraceSink>(bop: u8) -> Handler<S> {
    bin_select!(bop, h_const_bin)
}

/// Selects the [`h_getfield_bin`] instance for an `ElemTy` and a typed
/// `BinOp` code.
pub(crate) fn getfield_bin_handler<S: TraceSink>(elem: u8, bop: u8) -> Handler<S> {
    elem_bin_select!(elem, bop, h_getfield_bin)
}

/// Selects the [`h_bin_aload`] instance for an `ElemTy` and a typed
/// `BinOp` code.
pub(crate) fn bin_aload_handler<S: TraceSink>(elem: u8, bop: u8) -> Handler<S> {
    elem_bin_select!(elem, bop, h_bin_aload)
}

/// Selects the [`h_bin_move`] instance for a typed `BinOp` code.
pub(crate) fn bin_move_handler<S: TraceSink>(bop: u8) -> Handler<S> {
    bin_select!(bop, h_bin_move)
}

/// Selects the [`h_aload_bin`] instance for an `ElemTy` and a typed
/// `BinOp` code.
pub(crate) fn aload_bin_handler<S: TraceSink>(elem: u8, bop: u8) -> Handler<S> {
    elem_bin_select!(elem, bop, h_aload_bin)
}

/// Selects the [`h_move_aload`] instance for an `ElemTy` code.
pub(crate) fn move_aload_handler<S: TraceSink>(elem: u8) -> Handler<S> {
    elem_select!(elem, h_move_aload)
}

/// Selects the [`h_bin_move_jump`] instance for a typed `BinOp` code.
pub(crate) fn bin_move_jump_handler<S: TraceSink>(bop: u8) -> Handler<S> {
    bin_select!(bop, h_bin_move_jump)
}
