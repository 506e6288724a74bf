//! Adaptive reprofiling end to end: a workload whose strides change when
//! a GC slide compacts the heap must trigger guard-detected staleness
//! *per loop* — the stale loops' prefetch sites are patched to no-ops
//! while the rest of the compiled body keeps executing, and the stale
//! loops alone are re-inspected and repatched through the normal
//! pipeline — with every compilation generation passing the static lint
//! and the trace events reconciling exactly with the VM's counters.
//! Whole-method deopts never happen anymore: `stats.deopts` stays 0.

use stride_prefetch::bench::checks;
use stride_prefetch::heap::Value;
use stride_prefetch::ir::{CmpOp, ElemTy, FieldId, MethodId, Program, ProgramBuilder, Ty};
use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::trace::{attribute, RingSink, TraceEvent, TraceSink};
use stride_prefetch::vm::{Vm, VmConfig};

const ELEMS: i32 = 1500;
const WALKS_BEFORE_GC: i32 = 3;
const WALKS_AFTER_GC: i32 = 5;
const CHURN: i32 = 40_000;

/// Adds the `Node` class: a small payload plus padding so the GC slide
/// changes the inter-object stride by a full object size.
fn add_node_class(pb: &mut ProgramBuilder) -> (stride_prefetch::ir::ClassId, Vec<FieldId>) {
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
    (node, nf.to_vec())
}

/// The array walk whose compiled strides go stale when the heap slides:
/// an inter-object access (`n.v`), an indirection (`n.data[0]`), and the
/// loop the prefetch guards attach to.
fn add_walk(pb: &mut ProgramBuilder, nf: &[FieldId]) -> MethodId {
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
}

/// Builds a program in three phases: construct an array of nodes with a
/// dead "garbage twin" allocated before each live node (so live nodes sit
/// two allocations apart), walk it enough times for the JIT to compile
/// `walk` against that gapped layout, churn allocations until GC slides
/// the survivors together (halving the stride), then walk again so the
/// stale loops are invalidated, patched to no-ops, and repatched.
fn build() -> (Program, MethodId, MethodId) {
    let mut pb = ProgramBuilder::new();
    let (node, nf) = add_node_class(&mut pb);
    let walk = add_walk(&mut pb, &nf);
    let main = {
        let mut b = pb.function("main", &[], Some(Ty::I32));
        let n = b.const_i32(ELEMS);
        let arr = b.new_array(ElemTy::Ref, n);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                let _garbage = b.new_object(node);
                let keep = b.new_object(node);
                let four = b.const_i32(4);
                let data = b.new_array(ElemTy::I32, four);
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
        // Phase A: the JIT compiles `walk` against the gapped layout.
        let pre = b.const_i32(WALKS_BEFORE_GC);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| pre,
            |b, _| {
                let s = b.call(walk, &[arr]);
                let t = b.add(acc, s);
                b.move_(acc, t);
            },
        );
        // Phase B: allocation churn forces collections; the first one
        // frees the garbage twins and slides the survivors together.
        let churn = b.const_i32(CHURN);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| churn,
            |b, _| {
                let _tmp = b.new_object(node);
            },
        );
        // Phase C: the compiled strides are stale; guards must notice.
        let post = b.const_i32(WALKS_AFTER_GC);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| post,
            |b, _| {
                let s = b.call(walk, &[arr]);
                let t = b.add(acc, s);
                b.move_(acc, t);
            },
        );
        b.ret(Some(acc));
        b.finish()
    };
    (pb.finish(), main, walk)
}

fn config() -> VmConfig {
    VmConfig {
        // Large enough that phase A runs without GC (the compiled strides
        // reflect the gapped layout), small enough that phase B collects.
        heap_bytes: 1200 << 10,
        prefetch: PrefetchOptions::adaptive(),
        ..VmConfig::default()
    }
}

fn expected_checksum() -> i32 {
    (WALKS_BEFORE_GC + WALKS_AFTER_GC) * 2 * (0..ELEMS).sum::<i32>()
}

#[test]
fn gc_slide_invalidates_loops_and_repatches_without_deopt() {
    let (program, main, walk) = build();
    let mut vm = Vm::new(program, config(), ProcessorConfig::athlon_mp());
    let out = vm.call(main, &[]).expect("adaptive run");
    assert_eq!(out, Some(Value::I32(expected_checksum())));

    assert!(vm.stats().gc_count > 0, "churn must force collections");
    assert!(vm.heap().gc_epoch() >= 1, "a collection must move objects");
    assert!(
        vm.stats().loop_deopts >= 1,
        "the GC slide must invalidate the stale walk loop"
    );
    assert!(
        vm.stats().loop_repatches >= 1,
        "the invalidated loop must re-enter through a repatch"
    );
    assert_eq!(
        vm.stats().deopts,
        0,
        "invalidation is per-loop; the method must never deopt whole"
    );
    assert_eq!(
        vm.stats().recompiles,
        0,
        "per-loop repatching must not force a full recompilation"
    );
    assert!(
        vm.stats().reagreed >= 1,
        "re-inspection must re-agree on the compacted strides"
    );
    assert!(
        vm.is_compiled(walk),
        "walk must still be compiled after invalidation and repatch"
    );

    // The repatched generation re-derived prefetchable strides.
    assert!(
        vm.reports()
            .iter()
            .any(|r| r.generation > 0 && r.total_prefetches > 0),
        "no generation > 0 report with prefetches: {:?}",
        vm.reports()
            .iter()
            .map(|r| (r.method.clone(), r.generation, r.total_prefetches))
            .collect::<Vec<_>>()
    );

    // Every compilation generation — including the patched (prefetches
    // stripped from stale loops) and repatched ones — passes the
    // structural verifier and the full static lint.
    let found = checks::generations(&vm, &ProcessorConfig::athlon_mp());
    assert_eq!(found.violations, Vec::<String>::new());
    let walk_generations = vm
        .compiled_generations()
        .filter(|(_, _, func)| func.name() == "walk")
        .count();
    assert!(
        walk_generations >= 3,
        "walk must have a generation-0 body, a patched body, and a \
         repatched body, got {walk_generations}"
    );
}

#[test]
fn adaptive_counters_reconcile_with_trace_events() {
    let (program, main, _walk) = build();
    let mut vm = Vm::with_sink(
        program,
        config(),
        ProcessorConfig::athlon_mp(),
        RingSink::with_capacity(1 << 19),
    );
    let out = vm.call(main, &[]).expect("traced adaptive run");
    assert_eq!(out, Some(Value::I32(expected_checksum())));
    assert_eq!(vm.sink().lost(), 0, "ring must hold the complete trace");

    let events = vm.sink().snapshot();
    let seen = attribute(&events);
    let s = vm.stats();
    assert_eq!(s.deopts, 0, "whole-method deopts are gone");
    // One Recompile / LoopInvalidated / LoopRepatched event per counted
    // recompile / loop invalidation / loop repatch.
    assert_eq!(
        checks::adaptive_counters(s.recompiles, s.loop_deopts, s.loop_repatches, &[&seen]),
        Vec::<String>::new()
    );
    assert!(seen.loop_invalidated >= 1 && seen.loop_repatched >= 1);

    // Patched and repatched generations register fresh sites tagged with
    // their generation, so later runtime events attribute to the newest
    // body.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::SiteRegistered { generation, .. } if *generation > 0)),
        "repatching must re-register its sites under the new generation"
    );
}

#[test]
fn adaptive_preserves_semantics_vs_baseline() {
    let (program, main, _walk) = build();
    let mut vm = Vm::new(
        program,
        VmConfig {
            prefetch: PrefetchOptions::off(),
            ..config()
        },
        ProcessorConfig::athlon_mp(),
    );
    let out = vm.call(main, &[]).expect("baseline run");
    assert_eq!(out, Some(Value::I32(expected_checksum())));
    assert_eq!(vm.stats().deopts, 0, "guards are inert outside Adaptive");
    assert_eq!(vm.stats().recompiles, 0);
    assert_eq!(vm.stats().loop_deopts, 0);
    assert_eq!(vm.stats().loop_repatches, 0);
}

/// How many times the no-churn fixture walks the array per `main` call.
/// Enough invocations that within one call the JIT compiles `walk`
/// (threshold 2), and after an injected epoch bump the stale loop is
/// patched and then — once the per-loop backoff (base 2 invocations) is
/// served — repatched.
const SIMPLE_WALKS: i32 = 8;

/// The stranded-interpreter regression fixture: the same node walk but
/// with no garbage twins and no churn, so nothing ever collects on its
/// own — staleness comes only from the injected GC-epoch advance.
fn build_simple() -> (Program, MethodId, MethodId) {
    let mut pb = ProgramBuilder::new();
    let (node, nf) = add_node_class(&mut pb);
    let walk = add_walk(&mut pb, &nf);
    let main = {
        let mut b = pb.function("main", &[], Some(Ty::I32));
        let n = b.const_i32(ELEMS);
        let arr = b.new_array(ElemTy::Ref, n);
        b.for_i32(
            0,
            1,
            CmpOp::Lt,
            |_| n,
            |b, i| {
                let keep = b.new_object(node);
                let four = b.const_i32(4);
                let data = b.new_array(ElemTy::I32, four);
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
        let reps = b.const_i32(SIMPLE_WALKS);
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
    (pb.finish(), main, walk)
}

/// Regression for the db/ADAPTIVE stranded-interpreter cell: under
/// whole-method deopt, a single GC-epoch staleness verdict threw the
/// entire method back to the interpreter and the recompile backoff was
/// never served, so the hot walk ran interpreted (10x cost) to the end
/// of the run. Per-loop invalidation must instead patch only the stale
/// loop's prefetch sites, keep the body compiled and executing, and
/// repatch the loop — with zero whole-method deopts or recompiles.
#[test]
fn single_epoch_staleness_patches_loops_but_keeps_the_body_compiled() {
    let (program, main, walk) = build_simple();
    let mut vm = Vm::new(
        program,
        VmConfig {
            // Roomy: nothing may collect on its own, so the only epoch
            // advance is the injected one.
            heap_bytes: 64 << 20,
            prefetch: PrefetchOptions::adaptive(),
            ..VmConfig::default()
        },
        ProcessorConfig::athlon_mp(),
    );
    let per_call = Some(Value::I32(SIMPLE_WALKS * 2 * (0..ELEMS).sum::<i32>()));

    let out = vm.call(main, &[]).expect("warm run");
    assert_eq!(out, per_call);
    assert_eq!(
        vm.stats().gc_count,
        0,
        "fixture must not collect on its own"
    );
    assert!(vm.is_compiled(walk), "walk must be hot enough to compile");
    assert_eq!(
        vm.stats().loop_deopts,
        0,
        "no staleness before the epoch bump"
    );
    let interp_before = vm.stats().per_method[walk.index()].interpreted;

    // A single external GC-epoch advance — the exact trigger that used to
    // strand the whole method in the interpreter.
    vm.inject_heap_move();

    let out = vm.call(main, &[]).expect("post-move run");
    assert_eq!(out, per_call, "patched and repatched bodies stay correct");
    assert!(
        vm.stats().loop_deopts >= 1,
        "the epoch bump must invalidate the walk loop's guard"
    );
    assert_eq!(
        vm.stats().deopts,
        0,
        "single epoch bump, zero whole-method deopts"
    );
    assert_eq!(
        vm.stats().recompiles,
        0,
        "single epoch bump, zero full recompiles"
    );
    assert!(
        vm.is_compiled(walk),
        "the patched body must stay installed and live"
    );
    assert_eq!(
        vm.stats().per_method[walk.index()].interpreted,
        interp_before,
        "the patched body must keep executing compiled — not one \
         interpreted cycle after the invalidation"
    );
    assert!(
        vm.stats().loop_repatches >= 1,
        "the stale loop must re-enter through a tier-2 repatch once its \
         backoff is served"
    );
}

/// db is the workload whole-method deopt used to strand in the
/// interpreter (~7x BASELINE cycles). Per-loop invalidation keeps the
/// body compiled, so ADAPTIVE must stay within 2x BASELINE on both
/// processors; a blow-up past that means the recovery path regressed.
#[test]
fn adaptive_db_stays_within_twice_baseline() {
    use stride_prefetch::bench::{run_workload, RunPlan};
    let db = stride_prefetch::workloads::all()
        .into_iter()
        .find(|s| s.name == "db")
        .expect("db workload exists");
    let plan = RunPlan {
        size: stride_prefetch::workloads::Size::Tiny,
        ..RunPlan::default()
    };
    for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
        let cycles = |options| run_workload(&db, &options, &proc, &plan).best_cycles;
        let (base, adapt) = (
            cycles(PrefetchOptions::off()),
            cycles(PrefetchOptions::adaptive()),
        );
        assert!(
            adapt <= 2 * base,
            "db/{}: ADAPTIVE {adapt} > 2x BASELINE {base}",
            proc.name
        );
    }
}
