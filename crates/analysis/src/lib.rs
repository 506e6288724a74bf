//! Static analyses over the stride-prefetch IR.
//!
//! The paper derives strides *dynamically* by inspecting objects (§3.2)
//! exactly where static analysis is weak, but cites Wu et al. (PLDI'02) for
//! the many loops whose inter-iteration strides a compiler can prove
//! statically. This crate is that static counterpoint, three analyses on
//! one forward-dataflow engine over `spf-ir`'s CFG/dominator/def-use
//! infrastructure:
//!
//! - [`definite_init`] — a must-analysis proving every register use is
//!   assigned on all paths (the structural verifier only checks ranges);
//! - [`speclint`] — a taint analysis proving `SpecLoad` speculation never
//!   leaks into architectural state, plus prefetch-placement and
//!   guarded-load checks;
//! - [`scev`] — SCEV-lite induction-variable and affine-recurrence
//!   analysis producing statically-proven inter-iteration strides, which
//!   the pipeline records against object inspection as a cross-check
//!   that never changes the emitted code.
//!
//! The crate deliberately depends only on `spf-ir`: both the prefetch
//! pipeline (`spf-core`) and the VM (`spf-vm`) call into it.

pub mod dataflow;
pub mod definite_init;
pub mod scev;
pub mod speclint;

use spf_ir::cfg::Cfg;
use spf_ir::dom::DomTree;
use spf_ir::entities::BlockId;
use spf_ir::func::Function;
use spf_ir::loops::LoopForest;

/// One lint violation, anchored to an instruction site (or a block's
/// terminator when `index` is `None`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Block containing the offending instruction or terminator.
    pub block: BlockId,
    /// Instruction index within the block; `None` for the terminator.
    pub index: Option<u32>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    pub(crate) fn at(block: BlockId, index: Option<usize>, message: String) -> Self {
        Finding {
            block,
            index: index.map(|i| u32::try_from(i).expect("instruction index overflow")),
            message,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}:{}: {}", self.block, i, self.message),
            None => write!(f, "{}:term: {}", self.block, self.message),
        }
    }
}

/// Configuration for [`lint`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LintConfig {
    /// Whether dereference-based prefetches (those whose address comes
    /// from a speculative load) must be guarded loads: the paper's rule on
    /// a processor whose prefetch instruction is dropped on a DTLB miss
    /// (§3.3, the Pentium 4). Callers set it from the simulated processor.
    pub guard_derefs: bool,
}

/// Runs the full lint over one function: definite initialization plus the
/// speculation-safety and placement checks. Returns every violation found;
/// an empty vector means the function is clean.
pub fn lint(func: &Function, config: &LintConfig) -> Vec<Finding> {
    let cfg = Cfg::compute(func);
    let dom = DomTree::compute(func, &cfg);
    let forest = LoopForest::compute(func, &cfg, &dom);
    let mut findings = definite_init::check(func, &cfg);
    findings.extend(speclint::check(func, &cfg, &forest, config));
    findings
}
