//! Optimization reports: what the pass discovered and generated.
//!
//! Reports regenerate the paper's expository artifacts (Table 1's load
//! list, Figure 5's load dependence graph) and feed the compile-time
//! accounting of Figure 11.

use spf_ir::{BlockId, InstrRef, PrefetchKind};

/// The shape of one generated prefetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeneratedKind {
    /// `prefetch(A(Lx) + d*c)`.
    InterStride {
        /// The inter-iteration stride `d`.
        stride: i64,
    },
    /// `a = spec_load(A(Lx) + d*c)`.
    SpeculativeLoad {
        /// The anchor's inter-iteration stride `d`.
        stride: i64,
    },
    /// `prefetch(F[Lx,Ly](a))`.
    Dereference {
        /// The constant offset `F` adds.
        offset: i64,
    },
    /// `prefetch(F[Lx,Ly](a) + S[Ly,Lz])`.
    IntraStride {
        /// The accumulated intra-iteration stride `S`.
        stride: i64,
    },
}

impl std::fmt::Display for GeneratedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeneratedKind::InterStride { stride } => write!(f, "inter-stride d={stride}"),
            GeneratedKind::SpeculativeLoad { stride } => write!(f, "spec-load d={stride}"),
            GeneratedKind::Dereference { offset } => write!(f, "dereference F=+{offset}"),
            GeneratedKind::IntraStride { stride } => write!(f, "intra-stride S={stride}"),
        }
    }
}

/// One prefetch (or speculative load) the code generator emitted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GeneratedPrefetch {
    /// The load site the prefetch serves.
    pub anchor: InstrRef,
    /// Code shape.
    pub kind: GeneratedKind,
    /// Hardware mapping chosen (§3.3).
    pub mapped: PrefetchKind,
}

/// How statically-proven strides compare with inspection-derived ones for
/// the LDG candidates of one loop (or, summed, one method).
///
/// The static side comes from `spf-analysis`'s affine stride analysis
/// (SCEV-lite), the dynamic side from object inspection (§3.2). The
/// cross-check is record-only: it never changes what the code generator
/// emits, it just measures where each technique sees strides the other
/// cannot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StrideCrossCheck {
    /// Both sides proved the same stride.
    pub agree: usize,
    /// Both sides produced a stride, but different ones (e.g. inspection
    /// saw a data-dependent pattern the affine model cannot express).
    pub disagree: usize,
    /// Only the static analysis proved a stride (inspection saw too few
    /// samples or no dominant pattern).
    pub static_only: usize,
    /// Only inspection derived a stride — the paper's motivating case
    /// (pointer chases and other non-affine address streams).
    pub dynamic_only: usize,
}

impl StrideCrossCheck {
    /// Classifies one candidate given both sides' verdicts.
    pub fn record(&mut self, statically: Option<i64>, inspected: Option<i64>) {
        match (statically, inspected) {
            (Some(s), Some(d)) if s == d => self.agree += 1,
            (Some(_), Some(_)) => self.disagree += 1,
            (Some(_), None) => self.static_only += 1,
            (None, Some(_)) => self.dynamic_only += 1,
            (None, None) => {}
        }
    }

    /// Accumulates another tally into this one.
    pub fn add(&mut self, other: &StrideCrossCheck) {
        self.agree += other.agree;
        self.disagree += other.disagree;
        self.static_only += other.static_only;
        self.dynamic_only += other.dynamic_only;
    }

    /// Candidates the static analysis proved a stride for.
    pub fn static_total(&self) -> usize {
        self.agree + self.disagree + self.static_only
    }

    /// Candidates object inspection derived a stride for.
    pub fn inspected_total(&self) -> usize {
        self.agree + self.disagree + self.dynamic_only
    }

    /// Fraction of both-sided candidates where the strides match; `None`
    /// when no candidate was seen by both sides.
    pub fn agreement_rate(&self) -> Option<f64> {
        let both = self.agree + self.disagree;
        (both > 0).then(|| self.agree as f64 / both as f64)
    }
}

impl std::fmt::Display for StrideCrossCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "agree={} disagree={} static-only={} dyn-only={}",
            self.agree, self.disagree, self.static_only, self.dynamic_only
        )
    }
}

/// Per-loop findings.
#[derive(Clone, Debug)]
pub struct LoopReport {
    /// The loop's header block.
    pub header: BlockId,
    /// Nesting depth (1 = top level).
    pub depth: usize,
    /// Nodes in the load dependence graph.
    pub ldg_nodes: usize,
    /// Edges in the load dependence graph.
    pub ldg_edges: usize,
    /// Rendered LDG (Table 1 / Figure 5 style).
    pub ldg_text: String,
    /// Target-loop iterations interpreted by object inspection.
    pub inspected_iterations: u32,
    /// Instructions interpreted.
    pub inspected_steps: u64,
    /// Nodes with an inter-iteration stride pattern.
    pub inter_patterns: usize,
    /// Edges with an intra-iteration stride pattern.
    pub intra_patterns: usize,
    /// Prefetches generated for this loop.
    pub prefetches: Vec<GeneratedPrefetch>,
    /// Static-vs-inspected stride comparison over this loop's candidates.
    pub stride_check: StrideCrossCheck,
    /// Deterministic compile-time cost of object inspection for this loop
    /// (`INSPECT_CYCLES_PER_STEP` per interpreted instruction plus
    /// `INSPECT_CYCLES_PER_SAMPLE` per recorded address sample).
    pub inspection_cycles: u64,
}

/// Per-method findings plus compile-time accounting.
#[derive(Clone, Debug, Default)]
pub struct MethodReport {
    /// Method name.
    pub method: String,
    /// One entry per loop, in processing (postorder) order.
    pub loops: Vec<LoopReport>,
    /// Wall-clock nanoseconds spent in the prefetching pass (inspection +
    /// analysis + codegen) — the numerator of Figure 11's left bars.
    pub pass_nanos: u128,
    /// Total prefetches inserted.
    pub total_prefetches: usize,
    /// Compilation generation that produced this report: 0 for the first
    /// JIT of the method, +1 for every adaptive recompilation.
    pub generation: u32,
}

impl MethodReport {
    /// Sums the generated prefetches over all loops.
    pub fn count_prefetches(&self) -> usize {
        self.loops.iter().map(|l| l.prefetches.len()).sum()
    }

    /// Sums the static-vs-inspected stride tallies over all loops.
    pub fn stride_check_totals(&self) -> StrideCrossCheck {
        let mut total = StrideCrossCheck::default();
        for l in &self.loops {
            total.add(&l.stride_check);
        }
        total
    }

    /// Sums the deterministic inspection cost over all loops.
    pub fn inspection_cycles(&self) -> u64 {
        self.loops.iter().map(|l| l.inspection_cycles).sum()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "method {}: {} loop(s)", self.method, self.loops.len());
        for lr in &self.loops {
            let _ = writeln!(
                s,
                "  loop@{} depth={} ldg={}n/{}e inspected {} iters ({} steps) \
                 patterns inter={} intra={} prefetches={} strides[{}]",
                lr.header,
                lr.depth,
                lr.ldg_nodes,
                lr.ldg_edges,
                lr.inspected_iterations,
                lr.inspected_steps,
                lr.inter_patterns,
                lr.intra_patterns,
                lr.prefetches.len(),
                lr.stride_check
            );
            for p in &lr.prefetches {
                let _ = writeln!(s, "    {} @{} [{}]", p.kind, p.anchor, p.mapped);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(
            GeneratedKind::InterStride { stride: 128 }.to_string(),
            "inter-stride d=128"
        );
        assert_eq!(
            GeneratedKind::IntraStride { stride: 48 }.to_string(),
            "intra-stride S=48"
        );
    }

    #[test]
    fn report_render() {
        let r = MethodReport {
            method: "findInMemory".into(),
            loops: vec![LoopReport {
                header: BlockId::new(2),
                depth: 1,
                ldg_nodes: 11,
                ldg_edges: 8,
                ldg_text: String::new(),
                inspected_iterations: 20,
                inspected_steps: 900,
                inter_patterns: 1,
                intra_patterns: 2,
                prefetches: vec![],
                stride_check: StrideCrossCheck::default(),
                inspection_cycles: 3800,
            }],
            pass_nanos: 1000,
            total_prefetches: 0,
            generation: 0,
        };
        let text = r.render();
        assert!(text.contains("findInMemory"));
        assert!(text.contains("ldg=11n/8e"));
        assert!(text.contains("strides[agree=0"));
    }

    #[test]
    fn stride_cross_check_tally() {
        let mut c = StrideCrossCheck::default();
        c.record(Some(8), Some(8)); // agree
        c.record(Some(8), Some(16)); // disagree
        c.record(Some(4), None); // static only
        c.record(None, Some(160)); // dynamic only
        c.record(None, None); // neither side: not a candidate
        assert_eq!(c.agree, 1);
        assert_eq!(c.disagree, 1);
        assert_eq!(c.static_total(), 3);
        assert_eq!(c.inspected_total(), 3);
        assert_eq!(c.agreement_rate(), Some(0.5));
        let mut t = StrideCrossCheck::default();
        t.add(&c);
        t.add(&c);
        assert_eq!(t.dynamic_only, 2);
        assert_eq!(StrideCrossCheck::default().agreement_rate(), None);
    }
}
