//! GC × prefetching interaction: collections move objects (sliding
//! compaction), which invalidates previously learned absolute addresses —
//! but never correctness, and the preserved allocation order keeps the
//! strides the prefetches rely on.

use stride_prefetch::heap::Value;
use stride_prefetch::ir::{CmpOp, Conv, ElemTy, ProgramBuilder, Ty};
use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::vm::{Vm, VmConfig};

/// Builds a program that allocates garbage between useful nodes, forcing
/// collections, then repeatedly walks the surviving structure.
fn build() -> (stride_prefetch::ir::Program, stride_prefetch::ir::MethodId) {
    let mut pb = ProgramBuilder::new();
    let (node, nf) = pb.add_class(
        "Node",
        &[
            ("v", ElemTy::I32),
            ("data", ElemTy::Ref),
            ("pad0", ElemTy::I64),
            ("pad1", ElemTy::I64),
            ("pad2", ElemTy::I64),
            ("pad3", ElemTy::I64),
            ("pad4", ElemTy::I64),
            ("pad5", ElemTy::I64),
            ("pad6", ElemTy::I64),
        ],
    );
    let walk = {
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
                let n = b.aload(arr, i, ElemTy::Ref);
                let v = b.getfield(n, nf[0]);
                let d = b.getfield(n, nf[1]);
                let zero = b.const_i32(0);
                let d0 = b.aload(d, zero, ElemTy::I32);
                let s1 = b.add(acc, v);
                let s2 = b.add(s1, d0);
                b.move_(acc, s2);
            },
        );
        b.ret(Some(acc));
        b.finish()
    };
    let main = {
        let mut b = pb.function("main", &[], Some(Ty::I32));
        let n = b.const_i32(2000);
        let arr = b.new_array(ElemTy::Ref, n);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                // Garbage between live pairs: freed by GC, leaving uniform
                // gaps that sliding compaction closes.
                let _garbage = b.new_object(node);
                let keep = b.new_object(node);
                let one = b.const_i32(4);
                let data = b.new_array(ElemTy::I32, one);
                b.putfield(keep, nf[0], i);
                b.putfield(keep, nf[1], data);
                let zero = b.const_i32(0);
                b.astore(data, zero, i, ElemTy::I32);
                b.astore(arr, i, keep, ElemTy::Ref);
            },
        );
        let acc = b.new_reg(Ty::I32);
        let z = b.const_i32(0);
        b.move_(acc, z);
        let reps = b.const_i32(6);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| reps,
            |b, _| {
                let s = b.call(walk, &[arr]);
                let t = b.add(acc, s);
                b.move_(acc, t);
            },
        );
        b.ret(Some(acc));
        b.finish()
    };
    (pb.finish(), main)
}

#[test]
fn gc_under_prefetching_is_correct_and_strides_survive() {
    let mut outs = Vec::new();
    for options in [PrefetchOptions::off(), PrefetchOptions::inter_intra()] {
        let (program, main) = build();
        let mut vm = Vm::new(
            program,
            VmConfig {
                // Small heap: allocation churn forces several collections.
                heap_bytes: 600 << 10,
                prefetch: options,
                ..VmConfig::default()
            },
            ProcessorConfig::athlon_mp(),
        );
        let a = vm.call(main, &[]).expect("first run");
        let b = vm.call(main, &[]).expect("second run");
        assert_eq!(a, b, "deterministic across runs");
        assert!(vm.stats().gc_count > 0, "collections must have happened");
        outs.push(a);
    }
    assert_eq!(outs[0], outs[1], "GC + prefetching preserve semantics");
    assert_eq!(outs[0], Some(Value::I32(6 * 2 * (0..2000).sum::<i32>())));
}

// ---------------------------------------------------------------------
// GC over register windows: every frame of a deep recursion keeps a live
// reference in its window of the VM's one register stack; a collection at
// the deepest level must root exactly those (through the `ref_regs` of the
// body each frame runs) and forward them in place.
// ---------------------------------------------------------------------

const DEPTH: i32 = 40;
const JUNK: i32 = 4000;

/// `ping(n, stale, moved)` and `pong(n, stale, moved)` recurse into each
/// other `n` deep, each frame holding its own `Cell`; the deepest frame
/// calls `junk`, which allocates `JUNK` unreachable cells. The two bodies
/// keep their reference in different registers, and both carry two `i64`s
/// that the test sets to addresses: `stale` names a dead object, `moved`
/// the live cell of the outermost frame, which the collection slides.
/// Registers are untagged, so only the body's register map tells the
/// collector that these two words are not references; each frame adds the
/// low half of `moved` to the checksum after the collection.
fn build_recursion() -> (
    stride_prefetch::ir::Program,
    [stride_prefetch::ir::MethodId; 2],
    stride_prefetch::ir::ClassId,
) {
    let mut pb = ProgramBuilder::new();
    let (cell, cf) = pb.add_class("Cell", &[("v", ElemTy::I32), ("pad", ElemTy::I64)]);
    let make = {
        let mut b = pb.function("make", &[], Some(Ty::Ref));
        let c = b.new_object(cell);
        b.ret(Some(c));
        b.finish()
    };
    let junk = {
        let mut b = pb.function("junk", &[Ty::I32], Some(Ty::I32));
        let k = b.param(0);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| k,
            |b, i| {
                let t = b.new_object(cell);
                b.putfield(t, cf[0], i);
            },
        );
        let zero = b.const_i32(0);
        b.ret(Some(zero));
        b.finish()
    };
    let ping = pb.declare("ping", &[Ty::I32, Ty::I64, Ty::I64], Some(Ty::I32));
    let pong = pb.declare("pong", &[Ty::I32, Ty::I64, Ty::I64], Some(Ty::I32));
    for (me, other, scratch) in [(ping, pong, 0), (pong, ping, 3)] {
        let mut b = pb.define(me);
        let (n, stale, moved) = (b.param(0), b.param(1), b.param(2));
        // Non-reference temporaries ahead of the reference (so it sits at
        // a different index in each body), all holding the stale pattern.
        for _ in 0..scratch {
            b.add(stale, stale);
            b.sub(stale, stale);
        }
        let mine = b.new_object(cell);
        b.putfield(mine, cf[0], n);
        let below = b.new_reg(Ty::I32);
        let zero = b.const_i32(0);
        let bottom = b.le(n, zero);
        b.if_else(
            bottom,
            |b| {
                let k = b.const_i32(JUNK);
                let r = b.call(junk, &[k]);
                b.move_(below, r);
            },
            |b| {
                let one = b.const_i32(1);
                let m = b.sub(n, one);
                let r = b.call(other, &[m, stale, moved]);
                b.move_(below, r);
            },
        );
        // Read back through the (possibly moved) reference.
        let v = b.getfield(mine, cf[0]);
        let sum = b.add(below, v);
        let low = b.convert(Conv::I64ToI32, moved);
        let sum = b.add(sum, low);
        b.ret(Some(sum));
        b.finish();
    }
    (pb.finish(), [make, ping], cell)
}

#[test]
fn gc_mid_recursion_roots_and_forwards_every_register_window() {
    use stride_prefetch::trace::{RingSink, TraceEvent, TraceSink};
    let run = |heap_bytes: usize| {
        let (program, [make, ping], cell) = build_recursion();
        let mut vm = Vm::with_sink(
            program,
            VmConfig {
                heap_bytes,
                ..VmConfig::default()
            },
            ProcessorConfig::pentium4(),
            RingSink::with_capacity(1 << 12),
        );
        // A dead object whose address every frame then carries as an i64,
        // beside the address the outermost frame's cell is about to get:
        // the next allocation. The first collection frees the dead object
        // below it, so that cell slides down onto `dead`.
        let Some(Value::Ref(dead)) = vm.call(make, &[]).unwrap() else {
            panic!("make returns a reference");
        };
        let cell_bytes = vm.heap().layout_tables().class_size(cell);
        let moved = dead + cell_bytes;
        let args = [
            Value::I32(DEPTH),
            Value::I64(dead as i64),
            Value::I64(moved as i64),
        ];
        let out = vm.call(ping, &args).expect("recursion completes");
        if vm.stats().gc_count == 0 {
            // Nothing moved: `moved` is still the outermost frame's cell,
            // whose first field holds that frame's `n`.
            assert_eq!(vm.heap().walk().nth(1), Some(moved));
            let v = moved + stride_prefetch::heap::OBJECT_HEADER_SIZE;
            assert_eq!(vm.heap().read(v, ElemTy::I32), Ok(Value::I32(DEPTH)));
        }
        let slides: Vec<(u64, u64)> = (vm.sink().snapshot().iter())
            .filter_map(|e| match *e {
                TraceEvent::GcSlide {
                    live_bytes,
                    moved_objects,
                    ..
                } => Some((live_bytes, moved_objects)),
                _ => None,
            })
            .collect();
        (out, vm.stats().gc_count, cell_bytes, slides, moved)
    };
    let (small, small_gcs, cell_bytes, slides, moved) = run(48 << 10);
    let (large, large_gcs, ..) = run(16 << 20);
    assert_eq!(large_gcs, 0, "the reference run never collects");
    assert!(small_gcs > 0, "the small heap must collect mid-recursion");
    // Every frame read its own cell back through a forwarded reference and
    // found the `i64` beside it unchanged: forwarding that word too would
    // have turned `moved` into `moved - cell_bytes` in every frame.
    assert_eq!(small, large, "checksum survives the collections");
    let carried = (moved as i32).wrapping_mul(DEPTH + 1);
    let expected = (0..=DEPTH).sum::<i32>().wrapping_add(carried);
    assert_eq!(small, Some(Value::I32(expected)));

    // Every collection ran inside `junk` under DEPTH + 1 live frames: the
    // roots are one cell per frame plus the one `junk` holds — not the dead
    // object the `stale` slots name, and nothing a wrong body's register
    // map would have picked up or missed.
    assert_eq!(slides.len() as u64, small_gcs);
    let live = (DEPTH as u64 + 2) * cell_bytes;
    for (i, &(live_bytes, _)) in slides.iter().enumerate() {
        assert_eq!(live_bytes, live, "collection {i}");
    }
    // The dead object sat below every live cell, so the first collection
    // slid them all — the one `moved` names included.
    assert_eq!(slides[0].1, DEPTH as u64 + 2, "the first collection");
}
