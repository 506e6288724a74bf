//! Prefetch-site provenance lint.
//!
//! Static-first compilation (`PrefetchMode::StaticFirst` in `spf-core`)
//! emits prefetches from two sources: SCEV-lite affine stride *proofs*
//! (no inspection budget spent) and the paper's dynamic object
//! inspection (the fallback for statically-opaque loads). Every emitted
//! prefetch site is tagged with a [`Provenance`]:
//!
//! - [`Provenance::Static`] — the stride was proved statically and the
//!   site was *excluded* from object inspection;
//! - [`Provenance::Dynamic`] — the stride came from object inspection
//!   alone (every site in the four legacy modes);
//! - [`Provenance::Hybrid`] — a proved site that was deliberately kept
//!   in the inspection record set (its dereference successors are
//!   opaque, and intra-iteration pairing needs their samples), or a
//!   dynamic dereference target reached *through* a proved anchor.
//!
//! [`check`] rejects bodies where the tags are inconsistent with how the
//! compilation actually ran:
//!
//! 1. a `Static` site that was nonetheless inspected (wasted budget);
//! 2. a proved site whose installed stride differs from the proof —
//!    under static-first the proof has precedence, so a disagreement is
//!    a soundness bug, not a tuning choice (in the legacy modes the
//!    *dynamic* stride has precedence and the proof is record-only, so
//!    rule 2 never applies to `Dynamic` sites);
//! 3. a `Static` site whose address computation reads a speculative
//!    (`SpecLoad`-derived) value — a proof can only cover an address
//!    computed from architectural state, so this violates the same
//!    taint discipline `speclint` enforces;
//! 4. any non-`Dynamic` tag in a compilation that did not run
//!    static-first.
//!
//! The check runs for every compilation generation: under
//! `debug_assertions` inside `spf-vm`'s JIT, and over every installed
//! body in the `spf-lint` gate (which writes `STRIDE_provenance.jsonl`).

use spf_ir::bitset::BitSet;
use spf_ir::entities::Reg;
use spf_ir::func::Function;
use spf_ir::{Instr, InstrRef};

use crate::Finding;

/// Where a generated prefetch's stride came from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Provenance {
    /// Emitted purely from a static stride proof; the site skipped
    /// object inspection.
    Static,
    /// Emitted purely from object inspection (all legacy-mode sites).
    Dynamic,
    /// Partly static: a proved anchor that was still inspected for its
    /// opaque successors, or a dynamic target reached through a proved
    /// anchor.
    Hybrid,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Static => f.write_str("static"),
            Provenance::Dynamic => f.write_str("dynamic"),
            Provenance::Hybrid => f.write_str("hybrid"),
        }
    }
}

/// One emitted prefetch site with everything the provenance rules need,
/// recorded by the pipeline at code-generation time (the anchor sites
/// reference the pre-insertion body, so the record carries the address
/// registers instead of re-deriving them from shifted instruction
/// indices).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SiteProvenance {
    /// Anchor load site (in the pre-insertion body).
    pub site: InstrRef,
    /// The tag the code generator assigned.
    pub provenance: Provenance,
    /// Statically-proved inter-iteration stride, if any.
    pub static_stride: Option<i64>,
    /// The stride the installed prefetch actually uses, if the site got
    /// an inter-iteration prefetch.
    pub installed_stride: Option<i64>,
    /// Whether the site was in the object-inspection record set.
    pub inspected: bool,
    /// Registers the anchor's address computation reads.
    pub addr_regs: Vec<Reg>,
}

/// Configuration for [`check`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProvenanceConfig {
    /// Whether the compilation ran static-first (proofs drive emission).
    /// When `false`, every site must be tagged [`Provenance::Dynamic`].
    pub static_first: bool,
}

/// Flow-insensitive over-approximation of the registers that may carry a
/// `SpecLoad` result. Conservative by design: this backs a lint on
/// *generated* code, where speculative registers are fresh and feed only
/// prefetch addresses.
fn speculative_regs(func: &Function) -> BitSet {
    let mut taint = BitSet::new(func.reg_count());
    let mut changed = true;
    let mut used = Vec::new();
    while changed {
        changed = false;
        for b in func.block_ids() {
            for instr in &func.block(b).instrs {
                let dst = match instr {
                    Instr::SpecLoad { dst, .. } => Some(*dst),
                    _ => {
                        used.clear();
                        instr.uses(&mut used);
                        if used.iter().any(|r| taint.contains(r.index())) {
                            instr.dst()
                        } else {
                            None
                        }
                    }
                };
                if let Some(dst) = dst {
                    if !taint.contains(dst.index()) {
                        taint.insert(dst.index());
                        changed = true;
                    }
                }
            }
        }
    }
    taint
}

/// Checks one compiled body's provenance records against the rules in
/// the module docs. Returns every violation; empty means consistent.
pub fn check(
    func: &Function,
    config: &ProvenanceConfig,
    records: &[SiteProvenance],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let taint = speculative_regs(func);
    for r in records {
        let at = |msg: String| Finding::at(r.site.block, Some(r.site.index as usize), msg);
        if !config.static_first {
            if r.provenance != Provenance::Dynamic {
                findings.push(at(format!(
                    "{}: {} provenance in a non-static-first compilation",
                    func.name(),
                    r.provenance
                )));
            }
            // Legacy modes: the dynamic stride has precedence; a static
            // proof that disagrees is record-only, never a violation.
            continue;
        }
        match r.provenance {
            Provenance::Static => {
                if r.inspected {
                    findings.push(at(format!(
                        "{}: statically-proved site was nonetheless inspected (wasted budget)",
                        func.name()
                    )));
                }
                if r.static_stride.is_none() {
                    findings.push(at(format!(
                        "{}: site tagged static without a stride proof",
                        func.name()
                    )));
                }
                for reg in &r.addr_regs {
                    if taint.contains(reg.index()) {
                        findings.push(at(format!(
                            "{}: static-first prefetch address reads speculative value {reg}",
                            func.name()
                        )));
                    }
                }
            }
            Provenance::Hybrid => {
                if !r.inspected {
                    findings.push(at(format!(
                        "{}: site tagged hybrid but never inspected",
                        func.name()
                    )));
                }
            }
            Provenance::Dynamic => {
                if r.static_stride.is_some() {
                    findings.push(at(format!(
                        "{}: statically-proved site tagged dynamic under static-first",
                        func.name()
                    )));
                }
            }
        }
        // Soundness: wherever a proof exists, static-first must install
        // it. A mismatch means the precedence rule was violated.
        if let (Some(s), Some(d)) = (r.static_stride, r.installed_stride) {
            if s != d && r.provenance != Provenance::Dynamic {
                findings.push(at(format!(
                    "{}: static proof stride {s} disagrees with installed stride {d}",
                    func.name()
                )));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::types::Ty;
    use spf_ir::{PrefetchAddr, PrefetchKind, Terminator};

    /// A body with one `SpecLoad` feeding a prefetch — enough structure
    /// for the taint rule to have something to find.
    fn spec_fn() -> (Function, Reg, Reg) {
        let mut f = Function::with_signature("p", &[Ty::Ref], None);
        let head = f.params().next().unwrap();
        let spec = f.new_reg(Ty::Ref);
        let entry = f.entry();
        let blk = f.block_mut(entry);
        blk.instrs.push(Instr::SpecLoad {
            dst: spec,
            addr: PrefetchAddr::FieldOf {
                base: head,
                delta: 8,
            },
        });
        blk.instrs.push(Instr::Prefetch {
            addr: PrefetchAddr::FieldOf {
                base: spec,
                delta: 0,
            },
            kind: PrefetchKind::GuardedLoad,
        });
        blk.term = Terminator::Return(None);
        (f, head, spec)
    }

    fn site() -> InstrRef {
        InstrRef::new(spf_ir::BlockId::new(0), 0)
    }

    fn record(provenance: Provenance) -> SiteProvenance {
        SiteProvenance {
            site: site(),
            provenance,
            static_stride: None,
            installed_stride: None,
            inspected: false,
            addr_regs: Vec::new(),
        }
    }

    #[test]
    fn clean_static_first_records_pass() {
        let (f, head, _) = spec_fn();
        let cfg = ProvenanceConfig { static_first: true };
        let records = [
            SiteProvenance {
                static_stride: Some(80),
                installed_stride: Some(80),
                addr_regs: vec![head],
                ..record(Provenance::Static)
            },
            SiteProvenance {
                static_stride: Some(16),
                installed_stride: Some(16),
                inspected: true,
                ..record(Provenance::Hybrid)
            },
            SiteProvenance {
                installed_stride: Some(24),
                inspected: true,
                ..record(Provenance::Dynamic)
            },
        ];
        assert!(check(&f, &cfg, &records).is_empty());
    }

    #[test]
    fn inspected_static_site_is_wasted_budget() {
        let (f, ..) = spec_fn();
        let cfg = ProvenanceConfig { static_first: true };
        let records = [SiteProvenance {
            static_stride: Some(80),
            installed_stride: Some(80),
            inspected: true,
            ..record(Provenance::Static)
        }];
        let findings = check(&f, &cfg, &records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("wasted budget"));
    }

    #[test]
    fn proof_disagreeing_with_installed_stride_is_unsound() {
        let (f, ..) = spec_fn();
        let cfg = ProvenanceConfig { static_first: true };
        // Static-first precedence: the proof must win. An installed
        // stride that differs from the proof is flagged for Static and
        // Hybrid sites alike.
        for p in [Provenance::Static, Provenance::Hybrid] {
            let records = [SiteProvenance {
                static_stride: Some(80),
                installed_stride: Some(8),
                inspected: p == Provenance::Hybrid,
                ..record(p)
            }];
            let findings = check(&f, &cfg, &records);
            assert_eq!(findings.len(), 1, "{p:?}: {findings:?}");
            assert!(findings[0].message.contains("disagrees"));
        }
    }

    #[test]
    fn dynamic_precedence_in_legacy_modes_is_clean() {
        // The other direction of the precedence rule: in a legacy
        // (record-only) compilation the dynamic stride wins, so a
        // disagreeing proof on a Dynamic site is *not* a violation.
        let (f, ..) = spec_fn();
        let cfg = ProvenanceConfig {
            static_first: false,
        };
        let records = [SiteProvenance {
            static_stride: Some(80),
            installed_stride: Some(8),
            inspected: true,
            ..record(Provenance::Dynamic)
        }];
        assert!(check(&f, &cfg, &records).is_empty());
        // But a Static tag leaking into a legacy compilation is.
        let records = [SiteProvenance {
            static_stride: Some(80),
            installed_stride: Some(80),
            ..record(Provenance::Static)
        }];
        let findings = check(&f, &cfg, &records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("non-static-first"));
    }

    #[test]
    fn speculative_address_on_static_site_is_flagged() {
        let (f, _, spec) = spec_fn();
        let cfg = ProvenanceConfig { static_first: true };
        let records = [SiteProvenance {
            static_stride: Some(80),
            installed_stride: Some(80),
            addr_regs: vec![spec],
            ..record(Provenance::Static)
        }];
        let findings = check(&f, &cfg, &records);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("speculative"));
    }

    #[test]
    fn hybrid_requires_inspection_and_static_requires_proof() {
        let (f, ..) = spec_fn();
        let cfg = ProvenanceConfig { static_first: true };
        let findings = check(&f, &cfg, &[record(Provenance::Hybrid)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("never inspected"));
        let findings = check(&f, &cfg, &[record(Provenance::Static)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("without a stride proof"));
    }
}
