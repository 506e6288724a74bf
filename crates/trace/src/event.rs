//! The trace event vocabulary.
//!
//! Events are small `Copy` values so the ring buffer is a flat array and
//! emission is a couple of stores. Compile-time events are ordered with
//! respect to the [`TraceEvent::JitBegin`] of the method they belong to;
//! runtime events carry the simulated cycle at which they occurred.

use std::fmt::Write as _;

use crate::json::{events, Member, Str, Value};

/// Identifies one prefetch site: a `Prefetch` or `SpecLoad` instruction in
/// a compiled method body. Allocated by [`crate::SiteTable`]; ties every
/// runtime event back to the IR instruction (and loop) that generated it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub u32);

impl SiteId {
    /// Events emitted by a memory system whose driver never attributed the
    /// access to a site (e.g. a hand-driven simulator in a test).
    pub const UNKNOWN: SiteId = SiteId(u32::MAX);
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == SiteId::UNKNOWN {
            f.write_str("?")
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

impl Member for SiteId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }
    fn read(v: &Value<'_>, key: &str) -> Result<Self, String> {
        u32::read(v, key).map(SiteId)
    }
}

/// Which structure missed on a demand access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissLevel {
    /// L1 data cache.
    L1,
    /// L2 unified cache.
    L2,
    /// Data TLB.
    Dtlb,
}

/// Why the optimizer declined to generate a prefetch for a candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SuppressReason {
    /// The anchor's address is loop-invariant (stride 0).
    ZeroStride,
    /// No instruction depends on the load (paper §3.3, condition 1).
    NoDependent,
    /// The inter-iteration stride is within half a prefetched cache line
    /// (§3.3, condition 3 — covered by the hardware prefetcher).
    StrideTooSmall,
    /// A prefetch for the same cache line was already issued (§3.3,
    /// condition 2).
    LineShared,
    /// The load sits in a nested loop whose measured trip count is too
    /// large for the fold-in rule (§3).
    NestedTripCount,
}

/// Why the adaptive-reprofiling guards declared a loop's prefetch sites
/// stale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StaleReason {
    /// A sliding compaction moved objects since the method was compiled,
    /// so the inspected strides may no longer hold.
    GcMoved,
    /// The method's useless-prefetch ratio (issues finding the line
    /// already resident) crossed the staleness threshold.
    UselessRatio,
}

/// The kind of a fault injected by the serving chaos harness
/// (`spf-serve`'s `faults` module). Lives here — like [`StaleReason`] —
/// so trace events can carry it without the trace crate depending on the
/// serving crate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultKind {
    /// Forced heap moves bump every tenant's GC epoch each epoch of the
    /// window, driving adaptive-guard deopt waves.
    GcStorm,
    /// The background compile queue stops assigning jobs to workers.
    CompileStall,
    /// The shared code cache shrinks to a squeeze capacity for the
    /// window, evicting until the fleet fits.
    CacheSqueeze,
    /// One tenant receives a burst of extra requests on top of the base
    /// open-loop stream.
    TrafficBurst,
}

/// The code shape of a planned prefetch (mirrors the report's
/// `GeneratedKind` without depending on `spf-core`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlannedShape {
    /// `prefetch(A(Lx) + d*c)`.
    InterStride,
    /// `a = spec_load(A(Lx) + d*c)`.
    SpeculativeLoad,
    /// `prefetch(F[Lx,Ly](a))`.
    Dereference,
    /// `prefetch(F[Lx,Ly](a) + S[Ly,Lz])`.
    IntraStride,
}

/// Declares each enum's wire names once: `Display` prints the name, and as
/// a [`Member`] the enum is written as that name, quoted, and read back by
/// it.
macro_rules! wire_names {
    ($($ty:ident { $($variant:ident = $name:literal,)+ })+) => {$(
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(match self {$(
                    $ty::$variant => $name,
                )+})
            }
        }

        impl Member for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "\"{self}\"");
            }
            fn read(v: &Value<'_>, key: &str) -> Result<Self, String> {
                match v.as_str(key)? {
                    $($name => Ok($ty::$variant),)+
                    other => Err(format!("field \"{key}\": unknown name {}", Str(other))),
                }
            }
        }
    )+};
}

wire_names! {
    MissLevel {
        L1 = "L1",
        L2 = "L2",
        Dtlb = "Dtlb",
    }
    SuppressReason {
        ZeroStride = "zero-stride",
        NoDependent = "no-dependent",
        StrideTooSmall = "stride-too-small",
        LineShared = "line-shared",
        NestedTripCount = "nested-trip-count",
    }
    StaleReason {
        GcMoved = "gc-moved",
        UselessRatio = "useless-ratio",
    }
    FaultKind {
        GcStorm = "gc-storm",
        CompileStall = "compile-stall",
        CacheSqueeze = "cache-squeeze",
        TrafficBurst = "traffic-burst",
    }
    PlannedShape {
        InterStride = "inter-stride",
        SpeculativeLoad = "spec-load",
        Dereference = "dereference",
        IntraStride = "intra-stride",
    }
}

events! {
    /// One trace event. `line` fields are line-aligned simulated addresses;
    /// `now` is the simulated cycle of the event; `ready_at` the cycle an
    /// initiated fill completes.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TraceEvent {
        // ---- compile time -------------------------------------------------
        /// JIT compilation of a method begins; subsequent compile-time events
        /// belong to it until the next `JitBegin`.
        JitBegin = "jit_begin" {
            /// Method index in the program.
            method: u32,
        },
        /// A load dependence graph was built for one loop.
        LdgBuilt = "ldg_built" {
            /// The loop's header block index.
            loop_header: u32,
            /// LDG node count.
            nodes: u32,
            /// LDG edge count.
            edges: u32,
        },
        /// Object inspection ran for one loop.
        Inspected = "inspected" {
            /// The loop's header block index.
            loop_header: u32,
            /// Target-loop iterations interpreted.
            iterations: u32,
            /// Instructions interpreted.
            steps: u64,
            /// Nodes with an inter-iteration stride pattern.
            inter_patterns: u32,
            /// Edges with an intra-iteration stride pattern.
            intra_patterns: u32,
        },
        /// The profitability analysis suppressed a candidate prefetch.
        Suppressed = "suppressed" {
            /// Anchor load's block index.
            block: u32,
            /// Anchor load's instruction index within the block.
            index: u32,
            /// Why it was suppressed.
            reason: SuppressReason,
        },
        /// The code generator planned one prefetch (or speculative load).
        Planned = "planned" {
            /// Anchor load's block index.
            block: u32,
            /// Anchor load's instruction index within the block.
            index: u32,
            /// Code shape.
            shape: PlannedShape,
            /// Shape parameter: the stride `d`, offset `F`, or accumulated
            /// intra stride `S`.
            param: i64,
        },
        /// A prefetch site in a freshly compiled body was assigned an ID.
        SiteRegistered = "site_registered" {
            /// The new site ID.
            site: SiteId,
            /// Method index in the program.
            method: u32,
            /// Block index of the site.
            block: u32,
            /// Instruction index within the block.
            index: u32,
            /// Compilation generation of the body containing the site (0 for
            /// the first compilation, +1 per adaptive recompilation).
            generation: u32,
        },

        // ---- runtime ------------------------------------------------------
        /// A demand access missed in `level`.
        DemandMiss = "demand_miss" {
            /// Which structure missed.
            level: MissLevel,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
            /// Whether the access was a store.
            store: bool,
        },
        /// A software prefetch instruction was issued.
        SwpfIssued = "swpf_issued" {
            /// Issuing site.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
        },
        /// A software prefetch was cancelled by a DTLB miss (Pentium 4).
        SwpfDropped = "swpf_dropped" {
            /// Issuing site.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
        },
        /// A software prefetch initiated a fill of its target level.
        SwpfFill = "swpf_fill" {
            /// Issuing site.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
            /// Cycle at which the fill completes.
            ready_at: u64,
        },
        /// A software prefetch found its line already resident (no fill).
        SwpfRedundant = "swpf_redundant" {
            /// Issuing site.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
        },
        /// A guarded prefetch load was issued.
        GuardedIssued = "guarded_issued" {
            /// Issuing site.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
            /// Whether it primed a missing DTLB entry (§3.3 "TLB priming").
            tlb_primed: bool,
        },
        /// A guarded prefetch load initiated a fill.
        GuardedFill = "guarded_fill" {
            /// Issuing site.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
            /// Cycle at which the fill completes.
            ready_at: u64,
        },
        /// The hardware next-line prefetcher filled a line.
        HwPrefetchFill = "hw_prefetch_fill" {
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle.
            now: u64,
            /// Cycle at which the fill completes.
            ready_at: u64,
        },
        /// A demand access used a line that a software prefetch or guarded
        /// load had filled (first use only).
        PrefetchUsed = "prefetch_used" {
            /// The site whose fill was used.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle of the demand access.
            now: u64,
            /// Cycles the demand access still had to wait for the in-flight
            /// fill: 0 means the prefetch was timely (useful), >0 means it
            /// was issued too late.
            wait: u64,
        },
        /// A prefetched line was evicted from its target level before any
        /// demand access used it — the prefetch was issued too early.
        PrefetchEvicted = "prefetch_evicted" {
            /// The site whose fill was evicted.
            site: SiteId,
            /// Line-aligned address.
            line: u64,
            /// Simulated cycle of the eviction.
            now: u64,
        },
        // ---- adaptive reprofiling -----------------------------------------
        /// A method whose compiled body was discarded was compiled again.
        Recompile = "recompile" {
            /// Method index in the program.
            method: u32,
            /// The new generation (≥ 1).
            generation: u32,
            /// Simulated cycle.
            now: u64,
        },
        /// One loop of a compiled method went stale and its prefetch sites
        /// were patched to no-ops; the rest of the body stays live.
        LoopInvalidated = "loop_invalidated" {
            /// Method index in the program.
            method: u32,
            /// The stale loop's header block index (`u32::MAX` for the
            /// pseudo-loop holding straight-line sites).
            loop_header: u32,
            /// The loop's generation that went stale.
            generation: u32,
            /// Why.
            reason: StaleReason,
            /// Simulated cycle.
            now: u64,
        },
        /// A previously invalidated loop was re-inspected through the normal
        /// pipeline and its prefetch sites re-emitted into the live body.
        LoopRepatched = "loop_repatched" {
            /// Method index in the program.
            method: u32,
            /// The repatched loop's header block index.
            loop_header: u32,
            /// The loop's new generation (≥ 1).
            generation: u32,
            /// Simulated cycle.
            now: u64,
        },

        // ---- serving ------------------------------------------------------
        /// The serving layer enqueued a background compilation request for a
        /// tenant's hot method (the tenant keeps interpreting meanwhile).
        CompileEnqueued = "compile_enqueued" {
            /// Tenant (VM instance) index in the serving fleet.
            tenant: u32,
            /// Method index in the tenant's program.
            method: u32,
            /// Compilation-queue depth *after* this enqueue.
            depth: u32,
            /// Simulated serving-clock cycle.
            now: u64,
        },
        /// A background compilation finished and its body was installed into
        /// the tenant's VM (and the shared code cache).
        CompileInstalled = "compile_installed" {
            /// Tenant (VM instance) index in the serving fleet.
            tenant: u32,
            /// Method index in the tenant's program.
            method: u32,
            /// Simulated cycles between enqueue and install.
            wait: u64,
            /// Simulated serving-clock cycle.
            now: u64,
        },
        /// The bounded shared code cache evicted a tenant's compiled body to
        /// make room; the tenant falls back to the interpreter until a forced
        /// recompile lands.
        CodeCacheEvicted = "code_cache_evicted" {
            /// Tenant (VM instance) index in the serving fleet.
            tenant: u32,
            /// Method index in the tenant's program.
            method: u32,
            /// Compiled-body size (instruction count) released.
            instrs: u32,
            /// Simulated serving-clock cycle.
            now: u64,
        },
        /// A served request (one workload invocation on a tenant's VM)
        /// completed.
        RequestCompleted = "request_completed" {
            /// Tenant (VM instance) index in the serving fleet.
            tenant: u32,
            /// Request sequence number in arrival order.
            request: u32,
            /// Simulated cycles from arrival to completion (queueing +
            /// service).
            latency: u64,
            /// Simulated serving-clock cycle of completion.
            now: u64,
        },

        // ---- chaos / degradation ------------------------------------------
        /// The chaos harness activated a scheduled fault window.
        FaultInjected = "fault_injected" {
            /// What was injected.
            kind: FaultKind,
            /// Target tenant, or `u32::MAX` for a fleet-wide fault.
            tenant: u32,
            /// Simulated serving-clock cycle the window opened.
            now: u64,
            /// Simulated serving-clock cycle the window closes.
            until: u64,
        },
        /// Admission control shed an arriving request because the target
        /// tenant's queue was at its depth limit — a typed outcome instead of
        /// unbounded queueing latency.
        RequestShed = "request_shed" {
            /// Tenant (VM instance) index in the serving fleet.
            tenant: u32,
            /// Request sequence number in arrival order.
            request: u32,
            /// The tenant's queue depth at the shed decision.
            depth: u32,
            /// Simulated serving-clock cycle.
            now: u64,
        },
        /// A queued background compile exceeded its waiting deadline and was
        /// re-enqueued with exponential backoff instead of running stale.
        CompileRetried = "compile_retried" {
            /// Tenant (VM instance) index in the serving fleet.
            tenant: u32,
            /// Method index in the tenant's program.
            method: u32,
            /// Retry attempt number (1 for the first retry).
            attempt: u32,
            /// Simulated serving-clock cycle.
            now: u64,
        },
        /// A guard whose recompile budget was exhausted regained one credit
        /// after the configured number of stable GC epochs and re-armed.
        GuardRearmed = "guard_rearmed" {
            /// Tenant index, or `u32::MAX` when emitted by a standalone VM.
            tenant: u32,
            /// Method index in the program.
            method: u32,
            /// The guard's generation at re-arm time.
            generation: u32,
            /// Simulated serving-clock cycle (barrier time in serve runs).
            now: u64,
        },

        /// The garbage collector ran a sliding compaction.
        GcSlide = "gc_slide" {
            /// Simulated cycle.
            now: u64,
            /// Bytes live after compaction.
            live_bytes: u64,
            /// Bytes reclaimed.
            freed_bytes: u64,
            /// Live allocations whose address changed.
            moved_objects: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_id_display() {
        assert_eq!(SiteId(3).to_string(), "s3");
        assert_eq!(SiteId::UNKNOWN.to_string(), "?");
    }

    #[test]
    fn wire_names_and_site_ids_read_back_as_written() {
        fn check<T: Member + PartialEq + std::fmt::Debug>(values: &[T], written: &[&str]) {
            for (value, want) in values.iter().zip(written) {
                let mut text = String::new();
                value.write(&mut text);
                assert_eq!(text, *want);
                let parsed = crate::json::parse(&text).expect("a JSON value");
                assert_eq!(T::read(&parsed, "k").as_ref(), Ok(value));
            }
        }
        check(
            &[MissLevel::L1, MissLevel::L2, MissLevel::Dtlb],
            &["\"L1\"", "\"L2\"", "\"Dtlb\""],
        );
        check(
            &[StaleReason::GcMoved, StaleReason::UselessRatio],
            &["\"gc-moved\"", "\"useless-ratio\""],
        );
        check(&[PlannedShape::SpeculativeLoad], &["\"spec-load\""]);
        check(&[SiteId(7), SiteId::UNKNOWN], &["7", "4294967295"]);

        let unknown = crate::json::parse("\"L3\"").expect("a JSON value");
        assert_eq!(
            MissLevel::read(&unknown, "level"),
            Err("field \"level\": unknown name \"L3\"".to_string())
        );
        let number = crate::json::parse("1").expect("a JSON value");
        assert!(FaultKind::read(&number, "kind").is_err());
        assert!(SiteId::read(&unknown, "site").is_err());
    }

    #[test]
    fn events_stay_small() {
        // The ring buffer stores events by value; keep them cache-friendly.
        const { assert!(std::mem::size_of::<TraceEvent>() <= 40) };
    }
}
