//! Structured event tracing and per-prefetch-site effectiveness
//! attribution.
//!
//! The paper's evaluation (§4, Figures 8–10) argues from *per-mechanism*
//! evidence: which prefetch sites fire, which fire too early (the line is
//! evicted before its use), too late (the fill completes after the first
//! demand access), and which are cancelled by a DTLB miss. The rest of the
//! workspace only exposes whole-run aggregates (`MemStats`); this crate
//! supplies the missing object/site-centric layer:
//!
//! * [`TraceEvent`] — a small `Copy` event vocabulary covering both
//!   compile-time decisions (LDG construction, inspection verdicts,
//!   profitability suppressions, planned prefetches) and runtime events
//!   (miss events, software-prefetch issue/drop/fill, guarded-load TLB
//!   priming, hardware-prefetch fills, per-line use/eviction of prefetched
//!   data, GC slides).
//! * [`TraceSink`] — the emission interface. [`NoopSink`] has
//!   `ENABLED == false`, so every emission site guarded by
//!   `if S::ENABLED { … }` is removed by monomorphization: a simulator
//!   instantiated with the no-op sink compiles to *exactly* the untraced
//!   code. [`RingSink`] is a fixed-capacity flight recorder that
//!   overwrites its oldest events.
//! * [`SiteTable`] — maps stable [`SiteId`]s back to the IR instruction
//!   (method, block, index), the enclosing loop, and the prefetch shape
//!   that generated them.
//! * [`attribution`] — the aggregation pass that classifies every issued
//!   prefetch into exactly one of **useful / too-early / too-late /
//!   dropped**, per site — the paper's Figure 8 breakdown, but per
//!   prefetch site instead of per run.
//! * [`export`] — the JSONL event exporter.
//! * [`summary`] — a per-site summary record that round-trips through a
//!   JSONL file, with a renderer (the `spf-trace-report` CLI).
//! * [`deopt`] — the per-cell loop-invalidation/repatch aggregation
//!   (`spf-trace-report deopt-summary`), the diagnostic entry point for
//!   adaptive-mode cycle blow-ups.
//! * [`json`] — the one JSON reader and string-literal writer every
//!   artifact format of the workspace goes through.
//!
//! The crate is dependency-free on purpose: it sits below `spf-memsim` in
//! the workspace graph, so events name IR entities by their raw indices.

pub mod attribution;
pub mod deopt;
pub mod event;
pub mod export;
pub mod json;
pub mod sink;
pub mod site;
pub mod summary;

pub use attribution::{attribute, Attribution, SiteEffect};
pub use event::{
    FaultKind, MissLevel, PlannedShape, SiteId, StaleReason, SuppressReason, TraceEvent,
};
pub use sink::{NoopSink, RingSink, TraceSink};
pub use site::{SiteInfo, SiteKind, SiteTable};
pub use summary::SummaryRow;
