//! Configuration of the prefetching algorithm.

use crate::codegen::GuardedPolicy;

/// Which stride patterns the optimizer exploits — the two configurations
/// evaluated in the paper's §4 plus "off" (the baseline).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PrefetchMode {
    /// No prefetching (the paper's BASELINE).
    Off,
    /// Inter-iteration stride prefetching only — the paper's limited
    /// emulation of Wu et al.'s stride prefetching (INTER).
    Inter,
    /// Inter- and intra-iteration stride prefetching (INTER+INTRA).
    #[default]
    InterIntra,
    /// INTER+INTRA code generation plus adaptive reprofiling: compiled
    /// prefetch sites carry runtime guards (GC epoch stamp and
    /// useless-prefetch counters); stale methods are deoptimized,
    /// re-inspected, and recompiled with fresh strides (ADAPTIVE).
    Adaptive,
    /// Static-first compilation: loads whose stride the SCEV-lite affine
    /// analysis *proves* are prefetched directly from the proof and
    /// excluded from object inspection; only statically-opaque loads go
    /// through the dynamic inspector. Carries the same adaptive guards as
    /// ADAPTIVE, so deoptimized methods recompile — and a recompile
    /// re-proves static sites instead of re-inspecting them
    /// (STATIC-FIRST).
    StaticFirst,
}

impl PrefetchMode {
    /// Whether the code generator exploits intra-iteration (dereference
    /// based) patterns in this mode. Adaptive generates the same code as
    /// INTER+INTRA; it differs only in when methods are (re)compiled.
    /// StaticFirst changes where strides come from, not which pattern
    /// classes are exploited.
    pub fn intra_patterns(self) -> bool {
        matches!(
            self,
            PrefetchMode::InterIntra | PrefetchMode::Adaptive | PrefetchMode::StaticFirst
        )
    }

    /// Whether compiled methods carry adaptive-reprofiling guards (GC
    /// epoch stamps and useless-prefetch counters) that can deoptimize
    /// and recompile the method.
    pub fn adaptive_guards(self) -> bool {
        matches!(self, PrefetchMode::Adaptive | PrefetchMode::StaticFirst)
    }

    /// Whether statically-proved strides drive emission and skip the
    /// dynamic inspector for the proved sites.
    pub fn static_first(self) -> bool {
        matches!(self, PrefetchMode::StaticFirst)
    }
}

impl std::fmt::Display for PrefetchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchMode::Off => f.write_str("BASELINE"),
            PrefetchMode::Inter => f.write_str("INTER"),
            PrefetchMode::InterIntra => f.write_str("INTER+INTRA"),
            PrefetchMode::Adaptive => f.write_str("ADAPTIVE"),
            PrefetchMode::StaticFirst => f.write_str("STATIC-FIRST"),
        }
    }
}

/// Tuning knobs of the algorithm; defaults are the paper's settings.
#[derive(Clone, PartialEq, Debug)]
pub struct PrefetchOptions {
    /// Pattern classes to exploit.
    pub mode: PrefetchMode,
    /// Iterations of the target loop to interpret ("We investigated the
    /// first 20 iterations of a given loop", §4).
    pub inspect_iterations: u32,
    /// Fraction of identical strides required to accept a pattern ("it
    /// matches 75% of the all collected strides", §4).
    pub majority: f64,
    /// Minimum number of stride samples before a pattern is considered.
    pub min_samples: usize,
    /// Scheduling distance in iterations ("We fixed the scheduling distance
    /// as one iteration", §4).
    pub distance: u32,
    /// Hard budget on interpreted instructions per inspection, keeping the
    /// profile "ultra-lightweight".
    pub max_inspect_steps: u64,
    /// How prefetches are mapped to hardware instructions (§3.3).
    pub guarded_policy: GuardedPolicy,
    /// Whether the profitability analysis runs (ablation knob; the paper
    /// always enables it).
    pub profitability: bool,
}

impl Default for PrefetchOptions {
    fn default() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::InterIntra,
            inspect_iterations: 20,
            majority: 0.75,
            min_samples: 4,
            distance: 1,
            max_inspect_steps: 50_000,
            guarded_policy: GuardedPolicy::Auto,
            profitability: true,
        }
    }
}

impl PrefetchOptions {
    /// The paper's INTER configuration.
    pub fn inter() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::Inter,
            ..Self::default()
        }
    }

    /// The paper's INTER+INTRA configuration.
    pub fn inter_intra() -> Self {
        Self::default()
    }

    /// The baseline: prefetching disabled.
    pub fn off() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::Off,
            ..Self::default()
        }
    }

    /// INTER+INTRA plus adaptive reprofiling guards (GC-staleness
    /// detection, deopt, and re-inspection).
    pub fn adaptive() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::Adaptive,
            ..Self::default()
        }
    }

    /// Static-first compilation: SCEV stride proofs drive emission and
    /// skip the inspector for proved sites; opaque loads still go through
    /// object inspection, and adaptive guards cover recompilation.
    pub fn static_first() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::StaticFirst,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = PrefetchOptions::default();
        assert_eq!(o.inspect_iterations, 20);
        assert!((o.majority - 0.75).abs() < 1e-9);
        assert_eq!(o.distance, 1);
        assert_eq!(o.mode, PrefetchMode::InterIntra);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PrefetchMode::Off.to_string(), "BASELINE");
        assert_eq!(PrefetchMode::Inter.to_string(), "INTER");
        assert_eq!(PrefetchMode::InterIntra.to_string(), "INTER+INTRA");
        assert_eq!(PrefetchMode::Adaptive.to_string(), "ADAPTIVE");
        assert_eq!(PrefetchMode::StaticFirst.to_string(), "STATIC-FIRST");
    }

    #[test]
    fn static_first_generates_like_inter_intra() {
        // StaticFirst changes where strides come from (proofs before
        // inspection), not which pattern classes are exploited.
        let s = PrefetchOptions::static_first();
        assert_eq!(s.mode, PrefetchMode::StaticFirst);
        assert!(s.mode.intra_patterns());
        assert!(s.mode.adaptive_guards());
        assert!(s.mode.static_first());
        assert!(!PrefetchMode::Adaptive.static_first());
        assert!(!PrefetchMode::InterIntra.adaptive_guards());
    }

    #[test]
    fn adaptive_generates_like_inter_intra() {
        // Adaptive changes *when* methods are (re)compiled, not what the
        // code generator emits; everything else matches the default.
        let a = PrefetchOptions::adaptive();
        assert_eq!(a.mode, PrefetchMode::Adaptive);
        let d = PrefetchOptions::default();
        assert_eq!(a.inspect_iterations, d.inspect_iterations);
        assert_eq!(a.guarded_policy, d.guarded_policy);
    }
}
