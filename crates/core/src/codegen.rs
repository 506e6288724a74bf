//! Generation of prefetching code from an annotated load dependence graph
//! (paper §3.3).
//!
//! Three code shapes are produced, anchored at a node `Lx` whose
//! inter-iteration stride is `d` and with scheduling distance `c`:
//!
//! * **inter-iteration stride prefetching** — when every LDG successor of
//!   `Lx` also has an inter-iteration pattern (or there is none):
//!   `prefetch(A(Lx) + d*c)`;
//! * **dereference-based prefetching** — when some successor `Ly` lacks an
//!   inter-iteration pattern: `a = spec_load(A(Lx) + d*c);
//!   prefetch(F[Lx,Ly](a))` where `F` adds the constant offset mapping the
//!   value loaded by `Lx` to the address used by `Ly`;
//! * **intra-iteration stride prefetching** — additionally, for every `Lz`
//!   with an intra-iteration pattern with `Ly` (directly or transitively):
//!   `prefetch(F[Lx,Ly](a) + S[Ly,Lz])`.
//!
//! Mapping to hardware instructions follows §3.3: plain prefetches use the
//! processor's prefetch instruction; the dereference-based and
//! intra-iteration prefetches use a guarded load on processors whose
//! prefetch instruction is cancelled by a DTLB miss (the Pentium 4), which
//! doubles as TLB priming.

use std::collections::{HashMap, HashSet};

use spf_heap::Layout;
use spf_ir::{Function, Instr, InstrRef, PrefetchAddr, PrefetchKind, Ty};
use spf_memsim::ProcessorConfig;
use spf_trace::{PlannedShape, SuppressReason, TraceEvent, TraceSink};

use crate::ldg::{Ldg, LdgNodeId};
use crate::options::{PrefetchMode, PrefetchOptions, DISTANCE};
use crate::pipeline::MIN_SAMPLES;
use crate::profit::{has_dependent, stride_is_profitable, IssuedLines};
use crate::report::{GeneratedKind, GeneratedPrefetch};

/// `A(L)`: the address the load or store `instr` uses, as the address form
/// the IR's prefetches take; `None` for instructions without a register
/// base (statics) and for everything that is not a memory access. The one
/// definition the code generator plans from and the inspector records by.
pub(crate) fn access_addr(layout: &Layout, instr: &Instr) -> Option<PrefetchAddr> {
    Some(match *instr {
        Instr::GetField { obj, field, .. } | Instr::PutField { obj, field, .. } => {
            PrefetchAddr::FieldOf {
                base: obj,
                delta: layout.field_offset(field) as i64,
            }
        }
        Instr::ALoad { arr, idx, elem, .. } | Instr::AStore { arr, idx, elem, .. } => {
            PrefetchAddr::ArrayElem {
                arr,
                idx,
                scale: elem.size() as u8,
                delta: spf_heap::ARRAY_DATA_OFFSET as i64,
            }
        }
        Instr::ArrayLen { arr, .. } => PrefetchAddr::FieldOf {
            base: arr,
            delta: spf_heap::ARRAY_LENGTH_OFFSET as i64,
        },
        _ => return None,
    })
}

fn suppressed(site: InstrRef, reason: SuppressReason) -> TraceEvent {
    TraceEvent::Suppressed {
        block: site.block.index() as u32,
        index: site.index,
        reason,
    }
}

fn planned(site: InstrRef, shape: PlannedShape, param: i64) -> TraceEvent {
    TraceEvent::Planned {
        block: site.block.index() as u32,
        index: site.index,
        shape,
        param,
    }
}

/// Plans and applies prefetch insertions for one method.
#[derive(Debug)]
pub struct PrefetchCodegen<'a> {
    layout: &'a Layout,
    proc: &'a ProcessorConfig,
    options: &'a PrefetchOptions,
}

impl<'a> PrefetchCodegen<'a> {
    /// Creates a code generator.
    pub fn new(
        layout: &'a Layout,
        proc: &'a ProcessorConfig,
        options: &'a PrefetchOptions,
    ) -> Self {
        PrefetchCodegen {
            layout,
            proc,
            options,
        }
    }

    /// The paper's mapping (§3.3): a guarded load for dereference-based
    /// and intra-iteration prefetches on processors that cancel prefetches
    /// on DTLB misses, and for any displacement beyond half a page (TLB
    /// priming); the hardware prefetch instruction otherwise.
    fn pick_kind(&self, dereference_like: bool, displacement: i64) -> PrefetchKind {
        let big_stride = displacement.unsigned_abs() > self.proc.page_bytes / 2;
        if (dereference_like && self.proc.swpf_drops_on_tlb_miss) || big_stride {
            PrefetchKind::GuardedLoad
        } else {
            PrefetchKind::Hardware
        }
    }

    /// Address expression of the data loaded by the instruction at `site`,
    /// displaced by `extra` bytes; `None` for loads without a register base
    /// (statics).
    fn addr_of(&self, func: &Function, site: InstrRef, extra: i64) -> Option<PrefetchAddr> {
        access_addr(self.layout, func.instr(site)).map(|addr| addr.with_extra_delta(extra))
    }

    /// The constant offset `F[Lx,Ly]`: maps the value loaded by `Lx` (a
    /// reference) to the address used by `Ly` (element 0 for an array
    /// load); `None` when `Ly`'s address is not a constant offset from that
    /// reference.
    fn f_offset(&self, func: &Function, ly: InstrRef) -> Option<i64> {
        access_addr(self.layout, func.instr(ly)).map(|addr| match addr {
            PrefetchAddr::FieldOf { delta, .. } | PrefetchAddr::ArrayElem { delta, .. } => delta,
        })
    }

    /// Plans prefetch insertions for one annotated loop LDG.
    ///
    /// `work` is the function being optimized (new registers for spec-loads
    /// are allocated on it); `exclude` are nodes folded out because their
    /// nested loop has a large trip count; `already` are anchor sites
    /// handled by an inner loop's pass; `sink` receives a
    /// [`TraceEvent::Suppressed`] / [`TraceEvent::Planned`] for every
    /// profitability decision (pass a `NoopSink` to compile them out).
    /// Returns `(site → instructions to insert after it, report entries)`.
    pub fn plan<S: TraceSink>(
        &self,
        work: &mut Function,
        ldg: &Ldg,
        exclude: &HashSet<LdgNodeId>,
        already: &mut HashSet<InstrRef>,
        sink: &mut S,
    ) -> (HashMap<InstrRef, Vec<Instr>>, Vec<GeneratedPrefetch>) {
        let mut insertions: HashMap<InstrRef, Vec<Instr>> = HashMap::new();
        let mut report = Vec::new();
        if self.options.mode == PrefetchMode::Off {
            return (insertions, report);
        }
        let line = self.proc.swpf_line_bytes();
        let mut issued = IssuedLines::new();
        let c = i64::from(DISTANCE);

        for lx in ldg.node_ids() {
            if exclude.contains(&lx) {
                continue;
            }
            let node = ldg.node(lx);
            if already.contains(&node.site) {
                continue;
            }
            let Some(d) = node.inter_stride else {
                continue;
            };
            if d == 0 {
                if S::ENABLED {
                    sink.emit(suppressed(node.site, SuppressReason::ZeroStride));
                }
                continue; // loop-invariant address
            }
            if !has_dependent(work, node.site) {
                if S::ENABLED {
                    sink.emit(suppressed(node.site, SuppressReason::NoDependent));
                }
                continue; // condition 1
            }
            let Some(anchor_addr) = self.addr_of(work, node.site, d * c) else {
                continue;
            };

            let successors: Vec<&crate::ldg::LdgEdge> = ldg
                .successors(lx)
                .filter(|e| !exclude.contains(&e.to))
                .collect();
            // A successor triggers dereference-based prefetching only if
            // it lacks an inter-iteration pattern *and* actually executed
            // often enough during inspection — prefetching for a load that
            // rarely runs (e.g. inside a rarely taken branch) is waste.
            let deref_worthy = |e: &&crate::ldg::LdgEdge| {
                let to = ldg.node(e.to);
                to.inter_stride.is_none() && to.samples >= MIN_SAMPLES
            };
            let needs_deref =
                self.options.mode.intra_patterns() && successors.iter().any(deref_worthy);

            if !needs_deref {
                // Plain inter-iteration stride prefetching. Condition 3
                // applies here: prefetching Lx's own data is useless when
                // the stride is within the line the previous iteration
                // already fetched. (A spec-load anchor below is exempt —
                // the paper's Figure 4 anchors on L4's 4-byte stride.)
                //
                // Condition 2 (line sharing) is checked against the *base
                // register* of the address: several field loads off the
                // same object apparently share its cache line, so only the
                // first gets a prefetch.
                let (claim_key, claim_off) = match anchor_addr {
                    PrefetchAddr::FieldOf { base, delta }
                    | PrefetchAddr::ArrayElem {
                        arr: base, delta, ..
                    } => (0x8000_0000 | base.index() as u32, delta),
                };
                if !stride_is_profitable(d, line) {
                    if S::ENABLED {
                        sink.emit(suppressed(node.site, SuppressReason::StrideTooSmall));
                    }
                    continue;
                }
                if !issued.claim(claim_key, claim_off, line) {
                    if S::ENABLED {
                        sink.emit(suppressed(node.site, SuppressReason::LineShared));
                    }
                    continue;
                }
                let kind = self.pick_kind(false, d * c);
                insertions
                    .entry(node.site)
                    .or_default()
                    .push(Instr::Prefetch {
                        addr: anchor_addr,
                        kind,
                    });
                already.insert(node.site);
                if S::ENABLED {
                    sink.emit(planned(node.site, PlannedShape::InterStride, d));
                }
                report.push(GeneratedPrefetch {
                    anchor: node.site,
                    kind: GeneratedKind::InterStride { stride: d },
                    mapped: kind,
                });
                continue;
            }

            // Dereference-based prefetching through a speculative load.
            let a = work.new_reg(Ty::Ref);
            let insert = insertions.entry(node.site).or_default();
            insert.push(Instr::SpecLoad {
                dst: a,
                addr: anchor_addr,
            });
            already.insert(node.site);
            if S::ENABLED {
                sink.emit(planned(node.site, PlannedShape::SpeculativeLoad, d));
            }
            report.push(GeneratedPrefetch {
                anchor: node.site,
                kind: GeneratedKind::SpeculativeLoad { stride: d },
                mapped: PrefetchKind::GuardedLoad,
            });
            for e in &successors {
                let ly = e.to;
                if !deref_worthy(e) {
                    continue; // covered by its own inter pattern, or cold
                }
                let Some(f_off) = self.f_offset(work, ldg.node(ly).site) else {
                    continue;
                };
                let anchor_key = lx.index() as u32;
                if issued.claim(anchor_key, f_off, line) {
                    let kind = self.pick_kind(true, 0);
                    insert.push(Instr::Prefetch {
                        addr: PrefetchAddr::FieldOf {
                            base: a,
                            delta: f_off,
                        },
                        kind,
                    });
                    if S::ENABLED {
                        sink.emit(planned(ldg.node(ly).site, PlannedShape::Dereference, f_off));
                    }
                    report.push(GeneratedPrefetch {
                        anchor: ldg.node(ly).site,
                        kind: GeneratedKind::Dereference { offset: f_off },
                        mapped: kind,
                    });
                } else if S::ENABLED {
                    sink.emit(suppressed(ldg.node(ly).site, SuppressReason::LineShared));
                }
                // Intra-iteration stride prefetching: Lz reachable from Ly
                // through edges with intra patterns, directly or
                // transitively.
                let mut stack: Vec<(LdgNodeId, i64)> = vec![(ly, 0)];
                let mut seen: HashSet<LdgNodeId> = [ly].into_iter().collect();
                while let Some((node_id, acc)) = stack.pop() {
                    for e2 in ldg.successors(node_id) {
                        let Some(s) = e2.intra_stride else { continue };
                        if exclude.contains(&e2.to) || !seen.insert(e2.to) {
                            continue;
                        }
                        let total = acc + s;
                        stack.push((e2.to, total));
                        let offset = f_off + total;
                        if !issued.claim(anchor_key, offset, line) {
                            if S::ENABLED {
                                sink.emit(suppressed(
                                    ldg.node(e2.to).site,
                                    SuppressReason::LineShared,
                                ));
                            }
                            continue;
                        }
                        let kind = self.pick_kind(true, total);
                        insert.push(Instr::Prefetch {
                            addr: PrefetchAddr::FieldOf {
                                base: a,
                                delta: offset,
                            },
                            kind,
                        });
                        if S::ENABLED {
                            sink.emit(planned(
                                ldg.node(e2.to).site,
                                PlannedShape::IntraStride,
                                total,
                            ));
                        }
                        report.push(GeneratedPrefetch {
                            anchor: ldg.node(e2.to).site,
                            kind: GeneratedKind::IntraStride { stride: total },
                            mapped: kind,
                        });
                    }
                }
            }
        }
        (insertions, report)
    }
}

/// Applies planned insertions: rebuilds `func`'s blocks with each planned
/// instruction sequence spliced in immediately after its anchor site.
pub fn apply_insertions(func: &mut Function, insertions: &HashMap<InstrRef, Vec<Instr>>) {
    if insertions.is_empty() {
        return;
    }
    for b in func.block_ids().collect::<Vec<_>>() {
        let needs: bool = insertions.keys().any(|s| s.block == b);
        if !needs {
            continue;
        }
        let old = std::mem::take(&mut func.block_mut(b).instrs);
        let mut rebuilt = Vec::with_capacity(old.len() + 4);
        for (i, instr) in old.into_iter().enumerate() {
            rebuilt.push(instr);
            if let Some(extra) = insertions.get(&InstrRef::new(b, i)) {
                rebuilt.extend(extra.iter().cloned());
            }
        }
        func.block_mut(b).instrs = rebuilt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::{ElemTy, ProgramBuilder};

    #[test]
    fn pick_kind_follows_processor() {
        let layout_program = spf_ir::Program::new();
        let layout = Layout::compute(&layout_program);
        let opts = PrefetchOptions::default();
        let p4 = ProcessorConfig::pentium4();
        let amp = ProcessorConfig::athlon_mp();
        let cg_p4 = PrefetchCodegen::new(&layout, &p4, &opts);
        let cg_amp = PrefetchCodegen::new(&layout, &amp, &opts);
        // Plain inter prefetch: hardware on both.
        assert_eq!(cg_p4.pick_kind(false, 256), PrefetchKind::Hardware);
        assert_eq!(cg_amp.pick_kind(false, 256), PrefetchKind::Hardware);
        // Dereference-like: guarded on the P4, hardware on the Athlon.
        assert_eq!(cg_p4.pick_kind(true, 0), PrefetchKind::GuardedLoad);
        assert_eq!(cg_amp.pick_kind(true, 0), PrefetchKind::Hardware);
        // Huge stride (> half page): guarded everywhere (TLB priming).
        assert_eq!(cg_amp.pick_kind(false, 3000), PrefetchKind::GuardedLoad);
    }

    #[test]
    fn apply_insertions_splices_after_site() {
        let mut pb = ProgramBuilder::new();
        let (_c, fs) = pb.add_class("N", &[("v", ElemTy::Ref)]);
        let mut b = pb.function("f", &[spf_ir::Ty::Ref], Some(spf_ir::Ty::Ref));
        let o = b.param(0);
        let v = b.getfield(o, fs[0]);
        b.ret(Some(v));
        let m = b.finish();
        let p = pb.finish();
        let mut f = p.method(m).func().clone();
        let site = f
            .instr_sites()
            .find(|&s| matches!(f.instr(s), Instr::GetField { .. }))
            .unwrap();
        let mut ins = HashMap::new();
        ins.insert(
            site,
            vec![Instr::Prefetch {
                addr: PrefetchAddr::FieldOf { base: o, delta: 64 },
                kind: PrefetchKind::Hardware,
            }],
        );
        let before = f.instr_count();
        apply_insertions(&mut f, &ins);
        assert_eq!(f.instr_count(), before + 1);
        let next = InstrRef::new(site.block, site.index as usize + 1);
        assert!(matches!(f.instr(next), Instr::Prefetch { .. }));
        spf_ir::verify::verify(&p, &f).unwrap();
    }
}
