//! Configuration of the prefetching algorithm.

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
}

impl PrefetchMode {
    /// Whether the code generator exploits intra-iteration (dereference
    /// based) patterns in this mode. Adaptive generates the same code as
    /// INTER+INTRA; it differs only in when methods are (re)compiled.
    pub fn intra_patterns(self) -> bool {
        matches!(self, PrefetchMode::InterIntra | PrefetchMode::Adaptive)
    }

    /// Whether compiled methods carry adaptive-reprofiling guards (GC
    /// epoch stamps and useless-prefetch counters) that can deoptimize
    /// and recompile the method.
    pub fn adaptive_guards(self) -> bool {
        matches!(self, PrefetchMode::Adaptive)
    }
}

impl std::fmt::Display for PrefetchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchMode::Off => f.write_str("BASELINE"),
            PrefetchMode::Inter => f.write_str("INTER"),
            PrefetchMode::InterIntra => f.write_str("INTER+INTRA"),
            PrefetchMode::Adaptive => f.write_str("ADAPTIVE"),
        }
    }
}

/// Iterations of the target loop to interpret ("We investigated the first
/// 20 iterations of a given loop", §4).
pub const INSPECT_ITERATIONS: u32 = 20;

/// Fraction of identical strides required to accept a pattern ("it matches
/// 75% of the all collected strides", §4).
pub const MAJORITY: f64 = 0.75;

// At or below one half, two strides can both reach the majority, and the
// `max_by_key` over a `HashMap` in `dominant_stride` then picks one by hash
// order.
const _: () = assert!(MAJORITY > 0.5);

/// Scheduling distance in iterations ("We fixed the scheduling distance as
/// one iteration", §4).
pub const DISTANCE: u32 = 1;

/// The algorithm's configuration: which of the paper's modes runs. Its
/// other parameters are the paper's constants above.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PrefetchOptions {
    /// Pattern classes to exploit.
    pub mode: PrefetchMode,
}

impl PrefetchOptions {
    /// The paper's INTER configuration.
    pub fn inter() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::Inter,
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
        }
    }

    /// INTER+INTRA plus adaptive reprofiling guards (GC-staleness
    /// detection, deopt, and re-inspection).
    pub fn adaptive() -> Self {
        PrefetchOptions {
            mode: PrefetchMode::Adaptive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(PrefetchOptions::default().mode, PrefetchMode::InterIntra);
        assert_eq!(INSPECT_ITERATIONS, 20);
        assert_eq!(MAJORITY, 0.75);
        assert_eq!(DISTANCE, 1);
    }

    #[test]
    fn mode_display() {
        assert_eq!(PrefetchMode::Off.to_string(), "BASELINE");
        assert_eq!(PrefetchMode::Inter.to_string(), "INTER");
        assert_eq!(PrefetchMode::InterIntra.to_string(), "INTER+INTRA");
        assert_eq!(PrefetchMode::Adaptive.to_string(), "ADAPTIVE");
    }

    #[test]
    fn adaptive_generates_like_inter_intra() {
        // Adaptive changes *when* methods are (re)compiled, not what the
        // code generator emits.
        let a = PrefetchOptions::adaptive();
        assert_eq!(a.mode, PrefetchMode::Adaptive);
        assert!(a.mode.intra_patterns());
        assert!(a.mode.adaptive_guards());
        assert!(!PrefetchMode::InterIntra.adaptive_guards());
    }
}
