//! The full optimization pass: loops → LDG → object inspection → stride
//! annotation → prefetch code generation (paper §3).

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use spf_heap::{Heap, Value};
use spf_ir::cfg::Cfg;
use spf_ir::defuse::UseDef;
use spf_ir::dom::DomTree;
use spf_ir::loops::LoopForest;
use spf_ir::{Function, InstrRef, Program};
use spf_memsim::ProcessorConfig;
use spf_trace::{NoopSink, SuppressReason, TraceEvent, TraceSink};

use crate::codegen::{apply_insertions, PrefetchCodegen};
use crate::inspect::{InspectionResult, Inspector};
use crate::ldg::{Ldg, LdgNodeId};
use crate::options::{PrefetchMode, PrefetchOptions};
use crate::report::{LoopReport, MethodReport, StrideCrossCheck};
use crate::stride::{annotate_ldg, resolve_stride};

/// Deterministic compile-time cost charged per instruction the object
/// inspector interprets. Like the adaptive recompile constants in
/// `spf-vm`, this is a *model* constant (host-independent), so the
/// inspection-cost counters are bit-identical across hosts.
pub const INSPECT_CYCLES_PER_STEP: u64 = 4;

/// Deterministic compile-time cost charged per address sample the
/// inspector records for a candidate load.
pub const INSPECT_CYCLES_PER_SAMPLE: u64 = 2;

/// A nested loop whose average trip count (per target-loop iteration) is
/// at most this is treated as part of the parent loop (§3).
const SMALL_TRIP_THRESHOLD: f64 = 16.0;

/// Minimum number of stride samples before a pattern is considered.
pub const MIN_SAMPLES: usize = 4;

/// Hard budget on interpreted instructions per inspection, keeping the
/// profile "ultra-lightweight".
pub const MAX_INSPECT_STEPS: u64 = 50_000;

/// Result of optimizing one method.
#[derive(Clone, Debug)]
pub struct OptimizeOutcome {
    /// The transformed function (identical to the input when nothing was
    /// profitable).
    pub func: Function,
    /// What the pass found and generated.
    pub report: MethodReport,
}

/// The stride-prefetching optimizer. One instance per configuration; it is
/// stateless across methods and can be reused.
#[derive(Clone, Debug, Default)]
pub struct StridePrefetcher {
    options: PrefetchOptions,
}

impl StridePrefetcher {
    /// Creates an optimizer with the given options.
    pub fn new(options: PrefetchOptions) -> Self {
        StridePrefetcher { options }
    }

    /// The configuration in use.
    pub fn options(&self) -> &PrefetchOptions {
        &self.options
    }

    /// Optimizes `func` of `program`, using the *actual argument values*
    /// `args` of the pending invocation and read access to the live heap
    /// and statics — the information that only a dynamic compiler has
    /// (paper §1).
    ///
    /// The traversal follows §3: loops are processed in postorder within
    /// each loop tree, trees in program order. Loads inside nested loops
    /// whose measured trip count is small are folded into the parent loop's
    /// pass; anchors already handled by an inner pass are skipped.
    pub fn optimize(
        &self,
        program: &Program,
        func: &Function,
        heap: &Heap,
        statics: &[Value],
        args: &[Value],
        proc: &ProcessorConfig,
    ) -> OptimizeOutcome {
        self.optimize_traced(program, func, heap, statics, args, proc, &mut NoopSink)
    }

    /// [`Self::optimize`], emitting one compile-time trace event per LDG
    /// built, loop inspected, candidate suppressed, and prefetch planned.
    /// With a `NoopSink` the instrumentation compiles out and this *is*
    /// `optimize`.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize_traced<S: TraceSink>(
        &self,
        program: &Program,
        func: &Function,
        heap: &Heap,
        statics: &[Value],
        args: &[Value],
        proc: &ProcessorConfig,
        sink: &mut S,
    ) -> OptimizeOutcome {
        self.run(program, func, heap, statics, args, proc, None, sink)
    }

    /// Per-loop repatch (DESIGN §15): re-runs the pipeline for *only* the
    /// loops whose header block index is in `due_headers`, on a body that
    /// may already carry live prefetch sites belonging to other loops.
    ///
    /// The due loops' own blocks must have been stripped of their sites
    /// first (the tier-1 patch does this); anchors elsewhere that already
    /// have an adjacent `Prefetch`/`SpecLoad` are pre-seeded into the
    /// codegen's `already` set, so surviving loops come through untouched
    /// and only the due loops' sites are re-planned from the current heap.
    #[allow(clippy::too_many_arguments)]
    pub fn reoptimize_loops<S: TraceSink>(
        &self,
        program: &Program,
        func: &Function,
        heap: &Heap,
        statics: &[Value],
        args: &[Value],
        proc: &ProcessorConfig,
        due_headers: &HashSet<u32>,
        sink: &mut S,
    ) -> OptimizeOutcome {
        self.run(
            program,
            func,
            heap,
            statics,
            args,
            proc,
            Some(due_headers),
            sink,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run<S: TraceSink>(
        &self,
        program: &Program,
        func: &Function,
        heap: &Heap,
        statics: &[Value],
        args: &[Value],
        proc: &ProcessorConfig,
        filter: Option<&HashSet<u32>>,
        sink: &mut S,
    ) -> OptimizeOutcome {
        let start = Instant::now();
        let mut report = MethodReport {
            method: func.name().to_string(),
            ..MethodReport::default()
        };
        if self.options.mode == PrefetchMode::Off {
            report.pass_nanos = start.elapsed().as_nanos();
            return OptimizeOutcome {
                func: func.clone(),
                report,
            };
        }
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        if forest.is_empty() {
            report.pass_nanos = start.elapsed().as_nanos();
            return OptimizeOutcome {
                func: func.clone(),
                report,
            };
        }
        let ud = UseDef::compute(func, &cfg);
        let codegen = PrefetchCodegen::new(heap.layout_tables(), proc, &self.options);

        let mut work = func.clone();
        let mut merged: HashMap<InstrRef, Vec<spf_ir::Instr>> = HashMap::new();
        let mut already: HashSet<InstrRef> = HashSet::new();
        if filter.is_some() {
            // Repatch runs on an already-optimized body: every anchor that
            // still has a site spliced right after it belongs to a loop
            // that survived, and must not be re-planned.
            for b in func.block_ids() {
                let instrs = &func.block(b).instrs;
                for i in 0..instrs.len() {
                    let is_site = |x: &spf_ir::Instr| {
                        matches!(
                            x,
                            spf_ir::Instr::Prefetch { .. } | spf_ir::Instr::SpecLoad { .. }
                        )
                    };
                    if !is_site(&instrs[i]) && instrs.get(i + 1).is_some_and(is_site) {
                        already.insert(InstrRef::new(b, i));
                    }
                }
            }
        }

        for target in forest.postorder() {
            if let Some(due) = filter {
                if !due.contains(&(forest.info(target).header.index() as u32)) {
                    continue;
                }
            }
            let mut ldg = Ldg::build(func, &ud, &forest, target);
            if ldg.is_empty() {
                continue;
            }
            let header = forest.info(target).header;
            if S::ENABLED {
                sink.emit(TraceEvent::LdgBuilt {
                    loop_header: header.index() as u32,
                    nodes: ldg.len() as u32,
                    edges: ldg.edges().len() as u32,
                });
            }
            // Static affine stride proofs. In the legacy modes these are
            // record-only (the cross-check below must not influence
            // codegen, so the pre-existing simulated numbers stay
            // bit-identical); in static-first mode they drive emission.
            let static_strides =
                spf_analysis::scev::loop_static_strides(func, &cfg, &dom, &forest, &ud, target);
            let static_first = self.options.mode.static_first();
            let mut static_sites = 0usize;
            if static_first {
                let ids: Vec<LdgNodeId> = ldg.node_ids().collect();
                for &id in &ids {
                    let site = ldg.node(id).site;
                    ldg.node_mut(id).static_stride = static_strides.get(&site).copied();
                }
                // A proved site skips inspection unless one of its LDG
                // successors is statically opaque: dereference-based and
                // intra-iteration pairing need the anchor's samples, so
                // such anchors stay recorded (and are tagged Hybrid).
                for &id in &ids {
                    if ldg.node(id).static_stride.is_none() {
                        continue;
                    }
                    let opaque_succ = ldg
                        .successors(id)
                        .any(|e| ldg.node(e.to).static_stride.is_none());
                    if !opaque_succ {
                        ldg.node_mut(id).recorded = false;
                        static_sites += 1;
                    }
                }
            }
            let record: HashSet<InstrRef> = ldg
                .node_ids()
                .filter(|&id| ldg.node(id).recorded)
                .map(|id| ldg.node(id).site)
                .collect();
            // When every candidate is proved, the inspector never runs —
            // the whole point of static-first: zero inspection budget.
            let inspection = if record.is_empty() {
                InspectionResult::default()
            } else {
                Inspector::new(program, func, heap, statics, &forest).run(args, target, &record)
            };
            annotate_ldg(&mut ldg, &inspection.traces);
            let mut stride_check = StrideCrossCheck::default();
            for id in ldg.node_ids() {
                let node = ldg.node(id);
                stride_check.record(static_strides.get(&node.site).copied(), node.inter_stride);
            }
            if static_first {
                // Precedence: the proof wins wherever both sides produced
                // a stride, and fills in for the uninspected proved sites.
                for id in ldg.node_ids().collect::<Vec<_>>() {
                    let node = ldg.node_mut(id);
                    node.inter_stride = resolve_stride(true, node.static_stride, node.inter_stride);
                }
            }
            // Deterministic inspection cost: charged as a counter (never
            // into the simulated clock — adaptive recompiles run inside
            // measured windows, so clock-charging would perturb the
            // pre-existing cells).
            let inspection_samples: u64 = inspection.traces.values().map(|t| t.len() as u64).sum();
            let inspection_cycles = INSPECT_CYCLES_PER_STEP * inspection.steps
                + INSPECT_CYCLES_PER_SAMPLE * inspection_samples;
            if S::ENABLED {
                sink.emit(TraceEvent::Inspected {
                    loop_header: header.index() as u32,
                    iterations: inspection.iterations,
                    steps: inspection.steps,
                    inter_patterns: ldg
                        .node_ids()
                        .filter(|&id| ldg.node(id).inter_stride.is_some())
                        .count() as u32,
                    intra_patterns: ldg
                        .edges()
                        .iter()
                        .filter(|e| e.intra_stride.is_some())
                        .count() as u32,
                });
            }

            // Fold-in rule (§3): loads in nested loops participate only if
            // the nested loop's measured trip count is small.
            let mut exclude: HashSet<LdgNodeId> = HashSet::new();
            for id in ldg.node_ids() {
                if let Some(inner) = ldg.node(id).innermost {
                    if inner != target {
                        let nested_header = forest.info(inner).header;
                        if inspection.avg_nested_trips(nested_header) > SMALL_TRIP_THRESHOLD {
                            exclude.insert(id);
                            if S::ENABLED {
                                let site = ldg.node(id).site;
                                sink.emit(TraceEvent::Suppressed {
                                    block: site.block.index() as u32,
                                    index: site.index,
                                    reason: SuppressReason::NestedTripCount,
                                });
                            }
                        }
                    }
                }
            }

            let (insertions, prefetches) =
                codegen.plan(&mut work, &ldg, &exclude, &mut already, sink);
            for (site, instrs) in insertions {
                merged.entry(site).or_default().extend(instrs);
            }
            // One provenance record per distinct prefetch anchor, for the
            // provenance lint (spf-lint, and the JIT's
            // debug_assertions check). Anchor sites reference the
            // pre-insertion body, so the record carries the address
            // registers directly.
            let mut site_provenance = Vec::new();
            let mut seen_anchors: HashSet<InstrRef> = HashSet::new();
            for g in &prefetches {
                if !seen_anchors.insert(g.anchor) {
                    continue;
                }
                let node = ldg.node(ldg.node_at(g.anchor).expect("anchor is an LDG node"));
                let mut addr_regs = Vec::new();
                func.instr(node.site).uses(&mut addr_regs);
                site_provenance.push(spf_analysis::SiteProvenance {
                    site: node.site,
                    provenance: g.provenance,
                    static_stride: node.static_stride,
                    installed_stride: node.inter_stride,
                    inspected: node.recorded,
                    addr_regs,
                });
            }
            report.loops.push(LoopReport {
                header: forest.info(target).header,
                depth: forest.depth(target),
                ldg_nodes: ldg.len(),
                ldg_edges: ldg.edges().len(),
                ldg_text: ldg.render(program, func),
                inspected_iterations: inspection.iterations,
                inspected_steps: inspection.steps,
                inter_patterns: ldg
                    .node_ids()
                    .filter(|&id| ldg.node(id).inter_stride.is_some())
                    .count(),
                intra_patterns: ldg
                    .edges()
                    .iter()
                    .filter(|e| e.intra_stride.is_some())
                    .count(),
                prefetches,
                stride_check,
                inspection_cycles,
                static_sites,
                site_provenance,
            });
        }

        apply_insertions(&mut work, &merged);
        #[cfg(debug_assertions)]
        if let Err(e) = spf_ir::verify::verify(program, &work) {
            panic!("prefetch insertion produced invalid IR: {e}");
        }
        #[cfg(debug_assertions)]
        {
            let pcfg = spf_analysis::ProvenanceConfig {
                static_first: self.options.mode.static_first(),
            };
            let records: Vec<_> = report.provenance_records().cloned().collect();
            let findings = spf_analysis::provenance::check(&work, &pcfg, &records);
            assert!(findings.is_empty(), "provenance lint failed: {findings:?}");
        }
        report.total_prefetches = report.count_prefetches();
        report.pass_nanos = start.elapsed().as_nanos();
        OptimizeOutcome { func: work, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_heap::{Heap, Layout, ARRAY_DATA_OFFSET};
    use spf_ir::{CmpOp, ElemTy, Instr, ProgramBuilder, Ty};

    /// arr[i] are Node refs allocated back to back; each Node has a `data`
    /// array co-allocated right after it. The loop chases
    /// arr[i] -> node.data -> data[0].
    fn fixture(permute: bool) -> (Program, spf_ir::MethodId, Heap, spf_heap::Addr) {
        let mut pb = ProgramBuilder::new();
        let (ncls, nf) = pb.add_class(
            "Node",
            &[
                ("data", ElemTy::Ref),
                ("pad0", ElemTy::I64),
                ("pad1", ElemTy::I64),
                ("pad2", ElemTy::I64),
                ("pad3", ElemTy::I64),
                ("pad4", ElemTy::I64),
                ("pad5", ElemTy::I64),
                ("pad6", ElemTy::I64),
                ("pad7", ElemTy::I64),
                ("pad8", ElemTy::I64),
                ("pad9", ElemTy::I64),
                ("pad10", ElemTy::I64),
                ("pad11", ElemTy::I64),
                ("pad12", ElemTy::I64),
                ("pad13", ElemTy::I64),
                ("pad14", ElemTy::I64),
                ("pad15", ElemTy::I64),
                ("pad16", ElemTy::I64),
                ("pad17", ElemTy::I64),
                ("pad18", ElemTy::I64),
            ],
        );
        let mut b = pb.function("chase", &[Ty::Ref], Some(Ty::I32));
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
                let data = b.getfield(node, nf[0]);
                let zero = b.const_i32(0);
                let v = b.aload(data, zero, ElemTy::I32);
                let s = b.add(sum, v);
                b.move_(sum, s);
            },
        );
        b.ret(Some(sum));
        let m = b.finish();
        let program = pb.finish();
        let layout = Layout::compute(&program);
        let mut heap = Heap::new(layout, 8 << 20);
        let n = 256u64;
        let arr_addr = heap.alloc_array(ElemTy::Ref, n).unwrap();
        let mut nodes = Vec::new();
        for _ in 0..n {
            let node = heap.alloc_object(ncls).unwrap();
            let data = heap.alloc_array(ElemTy::I32, 40).unwrap();
            heap.write(
                node + heap.layout_tables().field_offset(nf[0]),
                ElemTy::Ref,
                Value::Ref(data),
            )
            .unwrap();
            nodes.push(node);
        }
        if permute {
            // Deterministic shuffle so arr[i] has no usable stride.
            let len = nodes.len();
            for i in 0..len {
                nodes.swap(i, (i * 7 + 3) % len);
            }
        }
        for (i, &node) in nodes.iter().enumerate() {
            heap.write(
                arr_addr + ARRAY_DATA_OFFSET + 8 * i as u64,
                ElemTy::Ref,
                Value::Ref(node),
            )
            .unwrap();
        }
        (program, m, heap, arr_addr)
    }

    fn count_kinds(f: &Function) -> (usize, usize) {
        let mut prefetches = 0;
        let mut specs = 0;
        for s in f.instr_sites() {
            match f.instr(s) {
                Instr::Prefetch { .. } => prefetches += 1,
                Instr::SpecLoad { .. } => specs += 1,
                _ => {}
            }
        }
        (prefetches, specs)
    }

    #[test]
    fn off_mode_changes_nothing() {
        let (p, m, heap, arr) = fixture(false);
        let opt = StridePrefetcher::new(PrefetchOptions::off());
        let out = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        assert_eq!(&out.func, p.method(m).func());
        assert_eq!(out.report.total_prefetches, 0);
    }

    #[test]
    fn sequential_nodes_get_inter_prefetches() {
        let (p, m, heap, arr) = fixture(false);
        let opt = StridePrefetcher::new(PrefetchOptions::inter_intra());
        let out = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::athlon_mp(),
        );
        let (prefetches, _) = count_kinds(&out.func);
        assert!(prefetches > 0, "{}", out.report.render());
        // node getfield has inter stride (nodes sequential) -> the loop has
        // at least one inter pattern.
        assert!(
            out.report.loops[0].inter_patterns >= 1,
            "{}",
            out.report.render()
        );
    }

    #[test]
    fn permuted_nodes_need_dereference_prefetching() {
        let (p, m, heap, arr) = fixture(true);
        let opt = StridePrefetcher::new(PrefetchOptions::inter_intra());
        let out = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        let (prefetches, specs) = count_kinds(&out.func);
        assert!(
            specs >= 1,
            "expected a speculative load anchor:\n{}",
            out.report.render()
        );
        assert!(prefetches >= 1, "{}", out.report.render());
    }

    #[test]
    fn inter_mode_emits_no_spec_loads() {
        let (p, m, heap, arr) = fixture(true);
        let opt = StridePrefetcher::new(PrefetchOptions::inter());
        let out = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        let (_, specs) = count_kinds(&out.func);
        assert_eq!(specs, 0, "INTER emulates Wu: no dereference prefetching");
    }

    #[test]
    fn report_counts_match_function_contents() {
        let (p, m, heap, arr) = fixture(true);
        let opt = StridePrefetcher::new(PrefetchOptions::inter_intra());
        let out = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        let (prefetches, specs) = count_kinds(&out.func);
        assert_eq!(out.report.total_prefetches, prefetches + specs);
        assert!(out.report.pass_nanos > 0);
    }

    #[test]
    fn traced_optimize_mirrors_report() {
        use spf_trace::{RingSink, TraceEvent};
        let (p, m, heap, arr) = fixture(true);
        let opt = StridePrefetcher::new(PrefetchOptions::inter_intra());
        let mut sink = RingSink::default();
        let out = opt.optimize_traced(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
            &mut sink,
        );
        // The untraced pass produces the identical function and report.
        let plain = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        assert_eq!(out.func, plain.func);

        let events = sink.events();
        let planned: Vec<(u32, u32)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Planned { block, index, .. } => Some((*block, *index)),
                _ => None,
            })
            .collect();
        let reported: Vec<(u32, u32)> = out
            .report
            .loops
            .iter()
            .flat_map(|l| &l.prefetches)
            .map(|g| (g.anchor.block.index() as u32, g.anchor.index))
            .collect();
        assert_eq!(planned, reported, "one Planned event per report entry");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::LdgBuilt { .. })),
            "LDG construction traced"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Inspected { .. })),
            "inspection traced"
        );
    }

    #[test]
    fn stride_cross_check_classifies_fixture_loads() {
        // arr[i] is an affine walk: both static analysis and inspection see
        // stride 8 (agree). node.data is a pointer dereference: only
        // inspection can say anything about it.
        let (p, m, heap, arr) = fixture(false);
        let opt = StridePrefetcher::new(PrefetchOptions::inter_intra());
        let out = opt.optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        let totals = out.report.stride_check_totals();
        assert!(totals.agree >= 1, "{}", out.report.render());
        assert!(totals.dynamic_only >= 1, "{}", out.report.render());
        assert_eq!(totals.disagree, 0, "{}", out.report.render());
        assert_eq!(totals.agreement_rate(), Some(1.0));
    }

    #[test]
    fn static_first_skips_inspection_for_proved_sites() {
        let (p, m, heap, arr) = fixture(false);
        let run = |opts: PrefetchOptions| {
            StridePrefetcher::new(opts).optimize(
                &p,
                p.method(m).func(),
                &heap,
                &[],
                &[Value::Ref(arr)],
                &ProcessorConfig::pentium4(),
            )
        };
        let sf = run(PrefetchOptions::static_first());
        let ii = run(PrefetchOptions::inter_intra());
        // arr.length (loop-invariant) and arr[i] (affine) are provable;
        // arr.length has no LDG successors, so it skips inspection.
        assert!(sf.report.static_sites() >= 1, "{}", sf.report.render());
        assert_eq!(ii.report.static_sites(), 0);
        // The skipped site's samples are budget saved: strictly fewer
        // inspection cycles than the all-dynamic pipeline.
        assert!(
            sf.report.inspection_cycles() < ii.report.inspection_cycles(),
            "sf {} !< inter+intra {}",
            sf.report.inspection_cycles(),
            ii.report.inspection_cycles()
        );
        assert!(ii.report.inspection_cycles() > 0);
        // Every legacy-mode prefetch is Dynamic.
        use spf_analysis::Provenance;
        assert!(ii
            .report
            .loops
            .iter()
            .flat_map(|l| &l.prefetches)
            .all(|g| g.provenance == Provenance::Dynamic));
        spf_ir::verify::verify(&p, &sf.func).unwrap();
    }

    #[test]
    fn proved_anchor_with_opaque_successor_is_hybrid() {
        // Permuted list-of-nodes: arr[i]'s *address* walk is affine
        // (provable, stride 8) but the loaded pointers are shuffled, so
        // node.data needs the dynamic side. The proved anchor therefore
        // stays in the record set, and both its speculative-load anchor
        // and the dereference threaded through it are tagged Hybrid.
        let (p, m, heap, arr) = fixture(true);
        let out = StridePrefetcher::new(PrefetchOptions::static_first()).optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(arr)],
            &ProcessorConfig::pentium4(),
        );
        use spf_analysis::Provenance;
        let provs: Vec<Provenance> = out
            .report
            .loops
            .iter()
            .flat_map(|l| &l.prefetches)
            .map(|g| g.provenance)
            .collect();
        assert!(provs.contains(&Provenance::Hybrid), "{provs:?}");
        spf_ir::verify::verify(&p, &out.func).unwrap();
    }

    #[test]
    fn fully_proved_loop_never_runs_the_inspector() {
        // A pure affine walk: every LDG candidate is provable, so the
        // record set is empty and object inspection is skipped outright.
        let mut pb = ProgramBuilder::new();
        let mut b = pb.function("affine", &[Ty::Ref], Some(Ty::I64));
        let arr = b.param(0);
        let sum = b.new_reg(Ty::I64);
        let z = b.const_i64(0);
        b.move_(sum, z);
        // Step 8 over i64 elements: stride 64 bytes, profitably wide.
        b.for_i32(
            0,
            8,
            CmpOp::Lt,
            |b| b.arraylen(arr),
            |b, i| {
                let v = b.aload(arr, i, ElemTy::I64);
                let s = b.add(sum, v);
                b.move_(sum, s);
            },
        );
        b.ret(Some(sum));
        let m = b.finish();
        let p = pb.finish();
        let layout = Layout::compute(&p);
        let mut heap = Heap::new(layout, 1 << 20);
        let a = heap.alloc_array(ElemTy::I64, 4096).unwrap();

        let out = StridePrefetcher::new(PrefetchOptions::static_first()).optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(a)],
            &ProcessorConfig::athlon_mp(),
        );
        let lr = &out.report.loops[0];
        assert_eq!(lr.inspected_steps, 0, "{}", out.report.render());
        assert_eq!(lr.inspection_cycles, 0);
        assert_eq!(lr.static_sites, 2, "arr.length and arr[i]");
        // The proved stride is emitted anyway, tagged Static.
        use spf_analysis::Provenance;
        assert!(
            lr.prefetches
                .iter()
                .any(|g| g.provenance == Provenance::Static
                    && g.kind == crate::report::GeneratedKind::InterStride { stride: 64 }),
            "{}",
            out.report.render()
        );
        // The legacy pipeline pays inspection for the same loop.
        let ii = StridePrefetcher::new(PrefetchOptions::inter_intra()).optimize(
            &p,
            p.method(m).func(),
            &heap,
            &[],
            &[Value::Ref(a)],
            &ProcessorConfig::athlon_mp(),
        );
        assert!(ii.report.inspection_cycles() > 0);
        spf_ir::verify::verify(&p, &out.func).unwrap();
    }

    #[test]
    fn disagreement_resolution_prefers_the_proof_only_under_static_first() {
        // Organic static/dynamic disagreement is impossible by design —
        // scev's conservative guards bail out on every channel (masking,
        // conditional defs, wrapping arithmetic) where inspection could
        // see a different stride. This test therefore doctors the LDG
        // annotations to a synthetic disagreement (proof says 128,
        // inspection says 8) and checks the precedence rule end to end
        // through resolve_stride + codegen in both directions.
        let (p, m, heap, _arr) = fixture(false);
        let func = p.method(m).func();
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(func, &cfg);
        let forest = LoopForest::compute(func, &cfg, &dom);
        let ud = UseDef::compute(func, &cfg);
        let target = forest.postorder()[0];

        let emitted_stride = |static_first: bool| -> Vec<i64> {
            let mut ldg = Ldg::build(func, &ud, &forest, target);
            let aload = ldg
                .node_ids()
                .find(|&id| matches!(func.instr(ldg.node(id).site), Instr::ALoad { .. }))
                .unwrap();
            let node = ldg.node_mut(aload);
            node.static_stride = static_first.then_some(128);
            node.samples = 20;
            node.inter_stride = crate::stride::resolve_stride(static_first, Some(128), Some(8));
            let opts = if static_first {
                PrefetchOptions::static_first()
            } else {
                PrefetchOptions::inter_intra()
            };
            let proc = ProcessorConfig::athlon_mp();
            let codegen = PrefetchCodegen::new(heap.layout_tables(), &proc, &opts);
            let mut work = func.clone();
            let (_, prefetches) = codegen.plan(
                &mut work,
                &ldg,
                &HashSet::new(),
                &mut HashSet::new(),
                &mut spf_trace::NoopSink,
            );
            prefetches
                .iter()
                .filter_map(|g| match g.kind {
                    crate::report::GeneratedKind::InterStride { stride }
                    | crate::report::GeneratedKind::SpeculativeLoad { stride } => Some(stride),
                    _ => None,
                })
                .collect()
        };
        // Static-first: the installed stride is the proof's 128.
        assert!(emitted_stride(true).contains(&128));
        // Legacy: the dynamic 8 wins — but stride 8 is inside the cache
        // line, so the inter prefetch is suppressed entirely (no 128
        // leaks through either).
        let legacy = emitted_stride(false);
        assert!(!legacy.contains(&128), "{legacy:?}");
    }

    #[test]
    fn optimized_function_passes_speculation_lint() {
        let (p, m, heap, arr) = fixture(true);
        for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
            for opts in [
                PrefetchOptions::inter(),
                PrefetchOptions::inter_intra(),
                PrefetchOptions::static_first(),
            ] {
                let opt = StridePrefetcher::new(opts);
                let out = opt.optimize(
                    &p,
                    p.method(m).func(),
                    &heap,
                    &[],
                    &[Value::Ref(arr)],
                    &proc,
                );
                let config = spf_analysis::LintConfig {
                    guard_derefs: proc.swpf_drops_on_tlb_miss,
                };
                let findings = spf_analysis::lint(&out.func, &config);
                assert!(findings.is_empty(), "{findings:?}");
            }
        }
    }

    #[test]
    fn optimized_function_verifies() {
        let (p, m, heap, arr) = fixture(true);
        for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
            for opts in [
                PrefetchOptions::inter(),
                PrefetchOptions::inter_intra(),
                PrefetchOptions::static_first(),
            ] {
                let opt = StridePrefetcher::new(opts);
                let out = opt.optimize(
                    &p,
                    p.method(m).func(),
                    &heap,
                    &[],
                    &[Value::Ref(arr)],
                    &proc,
                );
                spf_ir::verify::verify(&p, &out.func).unwrap();
            }
        }
    }

    use spf_heap::Value;
}
