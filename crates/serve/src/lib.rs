//! Multi-tenant serving simulation for the stride-prefetching VM.
//!
//! The paper measures one workload at a time on an otherwise idle
//! machine. Production JITs live a harder life: hundreds of VM instances
//! share a box, compilation happens on background threads while the
//! application keeps interpreting, and compiled code competes for a
//! bounded shared code cache. This crate simulates that regime on top of
//! the existing deterministic VM:
//!
//! - [`traffic`] — a seeded open-loop request generator: each request is
//!   one workload invocation on one tenant's VM.
//! - [`cache`] — the bounded shared code cache with LRU eviction;
//!   capacity evictions force interpreter fallback and eventual
//!   recompilation, and credit spf-adapt's guards so they never burn the
//!   adaptive staleness budget.
//! - [`faults`] — deterministic chaos: a seeded [`faults::FaultPlan`]
//!   schedules GC storms, compile stalls, cache squeezes, and traffic
//!   bursts at exact epoch boundaries, each paired with a degradation
//!   mechanism (re-armable recompile budgets, compile deadlines with
//!   backoff retry, per-tenant cache quotas, admission-control load
//!   shedding), and [`faults::verify_recovery`] proves the fleet
//!   recovered after the last window.
//! - [`sim`] — the epoch-barrier fleet simulation: one serial
//!   coordinator dispatches, executes and folds requests in canonical
//!   tenant order, so results are bit-identical across host machines.
//! - [`report`] — integer-only latency percentiles (p50/p99/p999) and
//!   compilation-queue statistics, emitted as `SERVE_summary.json` and
//!   gated in CI by `git diff` of the committed copies, exactly like the
//!   120-cell matrix.
//!
//! The `spf-serve` binary in `spf-bench` drives [`sim::run`] over the
//! five prefetch modes and writes the artifact.

pub mod cache;
pub mod faults;
pub mod report;
pub mod sim;
pub mod traffic;

pub use cache::{CacheEntry, CodeCache};
pub use faults::{inject_bursts, verify_recovery, FaultPlan, FaultWindow, RecoveryReport};
pub use report::{percentile, ChaosRow, ModeReport, ServeSummary};
pub use sim::{run, ServeConfig, ServeOutcome};
pub use traffic::{generate, Request, TrafficConfig};
