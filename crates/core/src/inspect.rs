//! Object inspection: ultra-lightweight profiling by partial interpretation
//! (paper §3.2).
//!
//! When the JIT compiles a method, the actual values of its parameters are
//! available. The inspector interprets the method from its entry using those
//! values, **without causing any side effects**:
//!
//! * stores go to a *shadow table* keyed by address, never to the real heap
//!   (the paper's "copy of the stack frame" is our copied register file,
//!   and its "hash table" of updated addresses is [`Inspector`]'s shadow
//!   map);
//! * allocations go to a *private heap* at a distinct address range;
//! * method invocations are skipped, their results `unknown`;
//! * any instruction with an `unknown` operand produces `unknown`.
//!
//! Loops encountered *before* the target loop have their bodies interpreted
//! only once; the target loop is interpreted [`INSPECT_ITERATIONS`] times
//! (the paper's 20) while the addresses used by the candidate loads are
//! recorded.

use std::collections::{HashMap, HashSet};

use spf_heap::{
    apply_bin, apply_cmp, apply_conv, apply_un, static_addr, Addr, Heap, Value, NULL,
    PRIVATE_HEAP_BASE,
};
use spf_ir::loops::{LoopForest, LoopId};
use spf_ir::{BlockId, ElemTy, Function, Instr, InstrRef, PrefetchAddr, Program, Terminator};

use crate::codegen::access_addr;
use crate::options::INSPECT_ITERATIONS;
use crate::pipeline::MAX_INSPECT_STEPS;

/// Cap on visits of a loop header *nested inside the target loop* per
/// target-loop iteration, protecting the step budget from large inner
/// loops.
const NESTED_HEADER_CAP: u32 = 64;

/// The address trace gathered by one inspection.
#[derive(Clone, Debug, Default)]
pub struct InspectionResult {
    /// Per load site: `(target-loop iteration, address)` in execution order.
    pub traces: HashMap<InstrRef, Vec<(u32, Addr)>>,
    /// Number of target-loop iterations interpreted.
    pub iterations: u32,
    /// Instructions interpreted.
    pub steps: u64,
    /// Total visits of each nested loop header (for trip-count estimates).
    pub nested_header_visits: HashMap<BlockId, u64>,
    /// Whether interpretation stopped because the step budget ran out.
    pub hit_step_budget: bool,
}

impl InspectionResult {
    /// Average trip count of the nested loop with header `h` per target
    /// iteration (visits include the final exit test, hence the `- 1`).
    pub fn avg_nested_trips(&self, h: BlockId) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        let visits = *self.nested_header_visits.get(&h).unwrap_or(&0) as f64;
        (visits / self.iterations as f64 - 1.0).max(0.0)
    }
}

/// The partial interpreter. Borrowed state only — inspection never mutates
/// the program, the heap, or the statics.
pub struct Inspector<'a> {
    program: &'a Program,
    func: &'a Function,
    heap: &'a Heap,
    statics: &'a [Value],
    forest: &'a LoopForest,
}

impl std::fmt::Debug for Inspector<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inspector")
            .field("func", &self.func.name())
            .finish_non_exhaustive()
    }
}

enum Flow {
    Goto(BlockId),
    Stop,
}

impl<'a> Inspector<'a> {
    /// Creates an inspector for `func` of `program` over the given heap and
    /// statics snapshot.
    pub fn new(
        program: &'a Program,
        func: &'a Function,
        heap: &'a Heap,
        statics: &'a [Value],
        forest: &'a LoopForest,
    ) -> Self {
        Inspector {
            program,
            func,
            heap,
            statics,
            forest,
        }
    }

    /// Partially interprets the method with `args`, recording the addresses
    /// used by the loads in `record` while inside loop `target`.
    pub fn run(
        &self,
        args: &[Value],
        target: LoopId,
        record: &HashSet<InstrRef>,
    ) -> InspectionResult {
        assert_eq!(
            args.len(),
            self.func.param_count(),
            "argument count mismatch"
        );
        let target_info = self.forest.info(target);
        let target_header = target_info.header;
        // Classify every other loop relative to the target.
        let mut ancestors: HashSet<LoopId> = HashSet::new();
        let mut nested: HashSet<LoopId> = HashSet::new();
        for lid in self.forest.postorder() {
            if lid == target {
                continue;
            }
            let info = self.forest.info(lid);
            if info.contains(target_header) {
                ancestors.insert(lid);
            } else if target_info.contains(info.header) {
                nested.insert(lid);
            }
        }

        let mut regs: Vec<Option<Value>> = vec![None; self.func.reg_count()];
        for (i, a) in args.iter().enumerate() {
            regs[i] = Some(*a);
        }
        let mut shadow: HashMap<Addr, Option<Value>> = HashMap::new();
        let mut private = Heap::with_base(
            self.heap.layout_tables().clone(),
            1 << 20,
            PRIVATE_HEAP_BASE,
        );
        let mut result = InspectionResult::default();
        let mut entries: HashMap<BlockId, u32> = HashMap::new(); // outside loops
        let mut entries_this_iter: HashMap<BlockId, u32> = HashMap::new(); // nested loops

        let mut cur = self.func.entry();
        'outer: loop {
            // --- block-entry bookkeeping --------------------------------
            if cur == target_header {
                result.iterations += 1;
                entries_this_iter.clear();
                if result.iterations > INSPECT_ITERATIONS {
                    break;
                }
            } else if let Some(lid) = self.forest.innermost(cur) {
                let info = self.forest.info(lid);
                if info.header == cur {
                    if nested.contains(&lid) {
                        *entries_this_iter.entry(cur).or_insert(0) += 1;
                        *result.nested_header_visits.entry(cur).or_insert(0) += 1;
                    } else if !ancestors.contains(&lid) {
                        *entries.entry(cur).or_insert(0) += 1;
                    }
                }
            }

            let in_target = target_info.contains(cur);

            // --- instructions -------------------------------------------
            let block = self.func.block(cur);
            for (i, instr) in block.instrs.iter().enumerate() {
                result.steps += 1;
                if result.steps > MAX_INSPECT_STEPS {
                    result.hit_step_budget = true;
                    break 'outer;
                }
                let site = InstrRef::new(cur, i);
                self.step(
                    instr,
                    site,
                    in_target,
                    record,
                    &mut regs,
                    &mut shadow,
                    &mut private,
                    &mut result,
                );
            }

            // --- terminator ---------------------------------------------
            match self.resolve(
                cur,
                &block.term,
                &regs,
                target,
                &ancestors,
                &nested,
                &entries,
                &entries_this_iter,
            ) {
                Flow::Goto(next) => {
                    // A header entry that immediately leaves the loop was
                    // the exit test, not an iteration.
                    if cur == target_header && !target_info.contains(next) {
                        result.iterations = result.iterations.saturating_sub(1);
                    }
                    cur = next;
                }
                Flow::Stop => break,
            }
        }
        // Iterations were counted on header entry; the last entry that
        // overflowed the budget is not a recorded iteration.
        result.iterations = result.iterations.min(INSPECT_ITERATIONS);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        instr: &Instr,
        site: InstrRef,
        in_target: bool,
        record: &HashSet<InstrRef>,
        regs: &mut [Option<Value>],
        shadow: &mut HashMap<Addr, Option<Value>>,
        private: &mut Heap,
        result: &mut InspectionResult,
    ) {
        let record_addr = |addr: Addr, result: &mut InspectionResult| {
            if in_target && record.contains(&site) {
                let iter = result.iterations.saturating_sub(1);
                result.traces.entry(site).or_default().push((iter, addr));
            }
        };
        match instr {
            Instr::Const { dst, value } => {
                regs[dst.index()] = Some(Value::from(*value));
            }
            Instr::Move { dst, src } => regs[dst.index()] = regs[src.index()],
            Instr::Bin { dst, op, a, b } => {
                regs[dst.index()] = match (regs[a.index()], regs[b.index()]) {
                    (Some(x), Some(y)) => apply_bin(*op, x, y),
                    _ => None,
                };
            }
            Instr::Un { dst, op, src } => {
                regs[dst.index()] = regs[src.index()].and_then(|v| apply_un(*op, v));
            }
            Instr::Cmp { dst, op, a, b } => {
                regs[dst.index()] = match (regs[a.index()], regs[b.index()]) {
                    (Some(x), Some(y)) => apply_cmp(*op, x, y).map(Value::I32),
                    _ => None,
                };
            }
            Instr::Convert { dst, conv, src } => {
                regs[dst.index()] = regs[src.index()].and_then(|v| apply_conv(*conv, v));
            }
            Instr::GetField { dst, field, .. } => {
                regs[dst.index()] = self.addr_in(instr, regs).and_then(|addr| {
                    record_addr(addr, result);
                    self.read_mem(shadow, private, addr, self.program.field(*field).ty)
                });
            }
            Instr::PutField { src, .. } | Instr::AStore { src, .. } => {
                if let Some(addr) = self.addr_in(instr, regs) {
                    shadow.insert(addr, regs[src.index()]);
                }
            }
            Instr::GetStatic { dst, sid } => {
                let addr = static_addr(*sid);
                record_addr(addr, result);
                regs[dst.index()] = match shadow.get(&addr) {
                    Some(v) => *v,
                    None => self.statics.get(sid.index()).copied(),
                };
            }
            Instr::PutStatic { sid, src } => {
                shadow.insert(static_addr(*sid), regs[src.index()]);
            }
            Instr::ALoad { dst, elem, .. } => {
                regs[dst.index()] = self.addr_in(instr, regs).and_then(|addr| {
                    record_addr(addr, result);
                    self.read_mem(shadow, private, addr, *elem)
                });
            }
            Instr::ArrayLen { dst, .. } => {
                regs[dst.index()] = self.addr_in(instr, regs).and_then(|addr| {
                    record_addr(addr, result);
                    self.read_mem(shadow, private, addr, ElemTy::I64)
                        .map(|v| Value::I32(v.as_i64() as i32))
                });
            }
            Instr::New { dst, class } => {
                regs[dst.index()] = private.alloc_object(*class).map(Value::Ref);
            }
            Instr::NewArray { dst, elem, len } => {
                regs[dst.index()] = match regs[len.index()] {
                    Some(Value::I32(n)) if n >= 0 => {
                        private.alloc_array(*elem, n as u64).map(Value::Ref)
                    }
                    _ => None,
                };
            }
            Instr::Call { dst, .. } => {
                // §3.2: "we interpret a method invocation by simply skipping
                // it and assuming that the return value, if any, is unknown".
                if let Some(d) = dst {
                    regs[d.index()] = None;
                }
            }
            Instr::Prefetch { .. } => {}
            Instr::SpecLoad { dst, .. } => regs[dst.index()] = None,
        }
    }

    /// The address the heap access `instr` uses under `regs`: its `A(L)`
    /// ([`access_addr`]) evaluated the way the VM evaluates a prefetch's.
    /// `None` when the base is unknown or null, or the index unknown.
    fn addr_in(&self, instr: &Instr, regs: &[Option<Value>]) -> Option<Addr> {
        let base_of = |reg: spf_ir::Reg| match regs[reg.index()] {
            Some(Value::Ref(a)) if a != NULL => Some(a),
            _ => None,
        };
        match access_addr(self.heap.layout_tables(), instr)? {
            PrefetchAddr::FieldOf { base, delta } => {
                Some(base_of(base)?.wrapping_add(delta as u64))
            }
            PrefetchAddr::ArrayElem {
                arr,
                idx,
                scale,
                delta,
            } => {
                let Some(Value::I32(i)) = regs[idx.index()] else {
                    return None;
                };
                let offset = (i as i64).wrapping_mul(scale as i64).wrapping_add(delta);
                Some(base_of(arr)?.wrapping_add(offset as u64))
            }
        }
    }

    fn read_mem(
        &self,
        shadow: &HashMap<Addr, Option<Value>>,
        private: &Heap,
        addr: Addr,
        ty: ElemTy,
    ) -> Option<Value> {
        if let Some(v) = shadow.get(&addr) {
            return *v;
        }
        if addr >= PRIVATE_HEAP_BASE {
            private.try_read(addr, ty)
        } else {
            self.heap.try_read(addr, ty)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &self,
        cur: BlockId,
        term: &Terminator,
        regs: &[Option<Value>],
        target: LoopId,
        ancestors: &HashSet<LoopId>,
        nested: &HashSet<LoopId>,
        entries: &HashMap<BlockId, u32>,
        entries_this_iter: &HashMap<BlockId, u32>,
    ) -> Flow {
        match term {
            Terminator::Jump(t) => Flow::Goto(*t),
            Terminator::Return(_) | Terminator::Unreachable => Flow::Stop,
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                // Force-exit rule for exhausted loops: prefer the arm that
                // leaves the innermost exhausted loop containing `cur`.
                let mut containing: Vec<LoopId> = self
                    .forest
                    .postorder()
                    .into_iter()
                    .filter(|&l| self.forest.info(l).contains(cur))
                    .collect();
                containing.sort_by_key(|&l| self.forest.info(l).block_count());
                for lid in containing {
                    if lid == target || ancestors.contains(&lid) {
                        continue;
                    }
                    let info = self.forest.info(lid);
                    let exhausted = if nested.contains(&lid) {
                        entries_this_iter.get(&info.header).copied().unwrap_or(0)
                            >= NESTED_HEADER_CAP
                    } else {
                        entries.get(&info.header).copied().unwrap_or(0) >= 2
                    };
                    if exhausted {
                        let then_in = info.contains(*then_bb);
                        let else_in = info.contains(*else_bb);
                        if then_in != else_in {
                            return Flow::Goto(if then_in { *else_bb } else { *then_bb });
                        }
                    }
                }
                match regs[cond.index()] {
                    Some(Value::I32(v)) => Flow::Goto(if v != 0 { *then_bb } else { *else_bb }),
                    // Unknown condition: take the `then` arm. In the paper's
                    // motivating example the common path (a failed compare
                    // that `continue`s the outer loop) is the taken arm, and
                    // inspection has no side effects, so a wrong guess only
                    // costs profile accuracy.
                    _ => Flow::Goto(*then_bb),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_heap::{Layout, ARRAY_DATA_OFFSET};
    use spf_ir::cfg::Cfg;
    use spf_ir::dom::DomTree;
    use spf_ir::{MethodId, ProgramBuilder, Ty};

    /// Builds a program with an array of `Node { next, v }` objects and a
    /// method `walk(arr)` summing `arr[i].v` over a loop, plus a real heap
    /// populated with `n` nodes allocated back to back.
    struct Fixture {
        program: Program,
        method: MethodId,
        heap: Heap,
        arr: Addr,
        node_size: u64,
    }

    fn fixture(n: i32) -> Fixture {
        let mut pb = ProgramBuilder::new();
        let (node_cls, nf) = pb.add_class("Node", &[("v", ElemTy::I32), ("pad", ElemTy::I64)]);
        let mut b = pb.function("walk", &[Ty::Ref], Some(Ty::I32));
        let arr = b.param(0);
        let sum = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(sum, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |b| b.arraylen(arr),
            |b, i| {
                let node = b.aload(arr, i, ElemTy::Ref);
                let v = b.getfield(node, nf[0]);
                let s = b.add(sum, v);
                b.move_(sum, s);
            },
        );
        b.ret(Some(sum));
        let method = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let node_size = layout.class_size(node_cls);
        let mut heap = Heap::new(layout, 1 << 20);
        let arr_addr = heap.alloc_array(ElemTy::Ref, n as u64).unwrap();
        for i in 0..n {
            let node = heap.alloc_object(node_cls).unwrap();
            heap.write(
                arr_addr + ARRAY_DATA_OFFSET + 8 * i as u64,
                ElemTy::Ref,
                Value::Ref(node),
            )
            .unwrap();
            heap.write(
                node + heap.layout_tables().field_offset(nf[0]),
                ElemTy::I32,
                Value::I32(i),
            )
            .unwrap();
        }
        Fixture {
            program,
            method,
            heap,
            arr: arr_addr,
            node_size,
        }
    }

    fn inspect(fx: &Fixture) -> (InspectionResult, Vec<InstrRef>) {
        let func = fx.program.method(fx.method).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let record: Vec<InstrRef> = func
            .instr_sites()
            .filter(|&s| func.instr(s).is_ldg_load())
            .collect();
        let set: HashSet<InstrRef> = record.iter().copied().collect();
        let insp = Inspector::new(&fx.program, func, &fx.heap, &[], &forest);
        let res = insp.run(&[Value::Ref(fx.arr)], forest.roots()[0], &set);
        (res, record)
    }

    #[test]
    fn records_twenty_iterations() {
        let fx = fixture(100);
        let (res, _) = inspect(&fx);
        assert_eq!(res.iterations, 20);
        assert!(!res.hit_step_budget);
    }

    #[test]
    fn aload_addresses_have_constant_stride() {
        let fx = fixture(100);
        let (res, record) = inspect(&fx);
        let func = fx.program.method(fx.method).func();
        let aload_site = record
            .iter()
            .copied()
            .find(|&s| matches!(func.instr(s), Instr::ALoad { .. }))
            .unwrap();
        let trace = &res.traces[&aload_site];
        assert_eq!(trace.len(), 20);
        for (k, w) in trace.windows(2).enumerate() {
            assert_eq!(w[1].1 - w[0].1, 8, "iteration {k}");
        }
    }

    #[test]
    fn getfield_addresses_stride_by_node_size() {
        let fx = fixture(100);
        let (res, record) = inspect(&fx);
        let func = fx.program.method(fx.method).func();
        let gf_site = record
            .iter()
            .copied()
            .find(|&s| matches!(func.instr(s), Instr::GetField { .. }))
            .unwrap();
        let trace = &res.traces[&gf_site];
        assert_eq!(trace.len(), 20);
        for w in trace.windows(2) {
            assert_eq!(w[1].1 - w[0].1, fx.node_size);
        }
    }

    #[test]
    fn short_loop_stops_at_exit() {
        let fx = fixture(5);
        let (res, _) = inspect(&fx);
        assert_eq!(res.iterations, 5, "loop exits after 5 iterations");
    }

    #[test]
    fn no_side_effects_on_real_heap() {
        // A method that stores into the array should leave the heap intact.
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("clobber", &[Ty::Ref], None);
        let arr = b.param(0);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |b| b.arraylen(arr),
            |b, i| {
                let c = b.const_i32(-1);
                b.astore(arr, i, c, ElemTy::I32);
            },
        );
        let m = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let mut heap = Heap::new(layout, 1 << 16);
        let arr_addr = heap.alloc_array(ElemTy::I32, 8).unwrap();
        for i in 0..8u64 {
            heap.write(
                arr_addr + ARRAY_DATA_OFFSET + 4 * i,
                ElemTy::I32,
                Value::I32(7),
            )
            .unwrap();
        }
        let func = program.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let insp = Inspector::new(&program, func, &heap, &[], &forest);
        let res = insp.run(&[Value::Ref(arr_addr)], forest.roots()[0], &HashSet::new());
        assert_eq!(res.iterations, 8);
        for i in 0..8u64 {
            assert_eq!(
                heap.read(arr_addr + ARRAY_DATA_OFFSET + 4 * i, ElemTy::I32)
                    .unwrap(),
                Value::I32(7),
                "heap unchanged"
            );
        }
    }

    #[test]
    fn shadow_writes_are_visible_to_later_reads() {
        // x.v = 9; sum += x.v  — the read must see the shadowed 9.
        let mut pb = ProgramBuilder::new();
        let (ncls, nf) = pb.add_class("N", &[("v", ElemTy::I32)]);
        let mut b = pb.function("rw", &[Ty::Ref, Ty::I32], Some(Ty::I32));
        let obj = b.param(0);
        let n = b.param(1);
        let out = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(out, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                let nine = b.const_i32(9);
                b.putfield(obj, nf[0], nine);
                let v = b.getfield(obj, nf[0]);
                let s = b.add(out, v);
                b.move_(out, s);
            },
        );
        b.ret(Some(out));
        let m = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let mut heap = Heap::new(layout, 1 << 16);
        let o = heap.alloc_object(ncls).unwrap();
        let func = program.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let gf = func
            .instr_sites()
            .find(|&s| matches!(func.instr(s), Instr::GetField { .. }))
            .unwrap();
        let set: HashSet<InstrRef> = [gf].into_iter().collect();
        let insp = Inspector::new(&program, func, &heap, &[], &forest);
        let res = insp.run(&[Value::Ref(o), Value::I32(5)], forest.roots()[0], &set);
        assert_eq!(res.iterations, 5);
        // The real heap still holds 0.
        assert_eq!(
            heap.read(o + heap.layout_tables().field_offset(nf[0]), ElemTy::I32)
                .unwrap(),
            Value::I32(0)
        );
    }

    #[test]
    fn allocations_go_to_private_heap() {
        let mut pb = ProgramBuilder::new();
        let (ncls, nf) = pb.add_class("N", &[("v", ElemTy::I32)]);
        let mut b = pb.function("mk", &[Ty::I32], Some(Ty::I32));
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
                let o = b.new_object(ncls);
                b.putfield(o, nf[0], i);
                let v = b.getfield(o, nf[0]);
                let s = b.add(acc, v);
                b.move_(acc, s);
            },
        );
        b.ret(Some(acc));
        let m = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let heap = Heap::new(layout, 1 << 16);
        let used_before = heap.used();
        let func = program.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let insp = Inspector::new(&program, func, &heap, &[], &forest);
        let res = insp.run(&[Value::I32(6)], forest.roots()[0], &HashSet::new());
        assert_eq!(res.iterations, 6);
        assert_eq!(heap.used(), used_before, "real heap untouched");
    }

    #[test]
    fn pre_target_loop_runs_once() {
        // A warm-up loop precedes the target loop; its body must execute
        // exactly once under inspection.
        let mut pb = ProgramBuilder::new();
        let sid = pb.add_static("count", ElemTy::I32);
        let mut b = pb.function("two_loops", &[Ty::I32], None);
        let n = b.param(0);
        // Pre-loop: count += 1 each iteration.
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                let c = b.getstatic(sid);
                let one = b.const_i32(1);
                let c2 = b.add(c, one);
                b.putstatic(sid, c2);
            },
        );
        // Target loop.
        b.for_i32(0, 1, CmpOp::Lt, |_| n, |_, _| {});
        let m = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let heap = Heap::new(layout, 1 << 12);
        let func = program.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        // Target = the loop in program order whose header comes second.
        let target = *forest
            .roots()
            .iter()
            .max_by_key(|&&l| forest.info(l).header)
            .unwrap();
        let statics = [Value::I32(0)];
        let insp = Inspector::new(&program, func, &heap, &statics, &forest);
        let res = insp.run(&[Value::I32(1000)], target, &HashSet::new());
        // The pre-loop ran once (not 1000 times): very few steps consumed.
        assert!(res.steps < 400, "steps = {}", res.steps);
        assert_eq!(res.iterations, 20);
    }

    #[test]
    fn unknown_branch_takes_then_arm() {
        // cond depends on a skipped call; loop body increments a counter in
        // the then arm... build: for i<n { if unknown { } else { } } and
        // verify inspection completes 20 iterations without diverging.
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("opaque", &[], Some(Ty::I32));
        let mut cb = pb.define(callee);
        let one = cb.const_i32(1);
        cb.ret(Some(one));
        cb.finish();
        let mut b = pb.function("u", &[Ty::I32], None);
        let n = b.param(0);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                let c = b.call(callee, &[]);
                b.if_else(c, |_| {}, |_| {});
            },
        );
        let m = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let heap = Heap::new(layout, 1 << 12);
        let func = program.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let insp = Inspector::new(&program, func, &heap, &[], &forest);
        let res = insp.run(&[Value::I32(100)], forest.roots()[0], &HashSet::new());
        assert_eq!(res.iterations, 20);
    }

    #[test]
    fn step_budget_is_respected() {
        // Each outer iteration runs a nested loop up to its header cap
        // with a long body, so the paper's 20 outer iterations cost more
        // steps than the budget allows.
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("nested", &[Ty::I32], Some(Ty::I32));
        let n = b.param(0);
        let acc = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(acc, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, _| {
                b.for_i32(
                    0,
                    1,
                    CmpOp::Lt,
                    |_| n,
                    |b, j| {
                        for _ in 0..50 {
                            let s = b.add(acc, j);
                            b.move_(acc, s);
                        }
                    },
                );
            },
        );
        b.ret(Some(acc));
        let m = b.finish();
        let program = pb.finish();
        let heap = Heap::new(Layout::compute(&program), 1 << 12);
        let func = program.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let outer = *forest
            .roots()
            .first()
            .expect("the outer loop is the only root");
        let insp = Inspector::new(&program, func, &heap, &[], &forest);
        let res = insp.run(&[Value::I32(1_000)], outer, &HashSet::new());
        assert!(res.hit_step_budget);
        assert!(res.steps <= MAX_INSPECT_STEPS + 1);
        assert!(res.iterations < INSPECT_ITERATIONS, "{}", res.iterations);
    }

    use spf_ir::CmpOp;
}

#[cfg(test)]
mod interprocedural_tests {
    use super::*;
    use spf_heap::{Layout, ARRAY_DATA_OFFSET};
    use spf_ir::cfg::Cfg;
    use spf_ir::dom::DomTree;
    use spf_ir::{CmpOp, ProgramBuilder, Ty};

    /// A loop whose element loads go through a helper call:
    /// `node = get(arr, i); v = node.data`. The call is skipped, so the
    /// node reference is unknown and no addresses are recorded.
    fn fixture() -> (Program, spf_ir::MethodId, Heap, Addr) {
        let mut pb = ProgramBuilder::new();
        let (ncls, nf) = pb.add_class("N", &[("data", ElemTy::I32), ("pad", ElemTy::I64)]);
        let get = {
            let mut b = pb.function("get", &[Ty::Ref, Ty::I32], Some(Ty::Ref));
            let arr = b.param(0);
            let i = b.param(1);
            let v = b.aload(arr, i, ElemTy::Ref);
            b.ret(Some(v));
            b.finish()
        };
        let mut b = pb.function("walk", &[Ty::Ref], Some(Ty::I32));
        let arr = b.param(0);
        let acc = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(acc, z);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |b| b.arraylen(arr),
            |b, i| {
                let node = b.call(get, &[arr, i]);
                let v = b.getfield(node, nf[0]);
                let s = b.add(acc, v);
                b.move_(acc, s);
            },
        );
        b.ret(Some(acc));
        let walk = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let mut heap = Heap::new(layout, 1 << 20);
        let arr = heap.alloc_array(ElemTy::Ref, 64).unwrap();
        for i in 0..64u64 {
            let n = heap.alloc_object(ncls).unwrap();
            heap.write(arr + ARRAY_DATA_OFFSET + 8 * i, ElemTy::Ref, Value::Ref(n))
                .unwrap();
        }
        (program, walk, heap, arr)
    }

    fn inspect() -> (InspectionResult, Option<InstrRef>) {
        let (program, walk, heap, arr) = fixture();
        let func = program.method(walk).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let gf_site = func
            .instr_sites()
            .find(|&s| matches!(func.instr(s), Instr::GetField { .. }));
        let record: HashSet<InstrRef> = gf_site.into_iter().collect();
        let insp = Inspector::new(&program, func, &heap, &[], &forest);
        let res = insp.run(&[Value::Ref(arr)], forest.roots()[0], &record);
        (res, gf_site)
    }

    #[test]
    fn skipped_calls_leave_addresses_unknown() {
        let (res, gf) = inspect();
        assert!(
            !res.traces.contains_key(&gf.unwrap()),
            "call result unknown -> no addresses recorded"
        );
    }
}
