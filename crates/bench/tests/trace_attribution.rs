//! End-to-end tracing invariants, from workload execution through
//! per-site attribution:
//!
//! 1. Tracing must never change the simulation — traced and untraced
//!    measurements are bit-identical.
//! 2. Every issued software prefetch is classified into exactly one
//!    bucket, and the per-site totals reconcile with the memory system's
//!    aggregate counters.
//! 3. Every prefetch site of the compiled code appears exactly once in
//!    the attribution table, and every runtime event resolves to a
//!    registered site.

use spf_bench::{checks, run_workload, run_workload_traced, Measurement, RunPlan, WorkloadTrace};
use spf_core::PrefetchOptions;
use spf_memsim::ProcessorConfig;
use spf_trace::{summary, TraceEvent};
use spf_workloads::Size;

fn tiny_plan() -> RunPlan {
    RunPlan {
        size: Size::Tiny,
        ..RunPlan::default()
    }
}

/// The cells the invariants are checked on: one pointer-chasing workload
/// on both processors under both prefetching configurations.
fn traced_cells() -> Vec<(PrefetchOptions, ProcessorConfig)> {
    let mut out = Vec::new();
    for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
        for options in [PrefetchOptions::inter(), PrefetchOptions::inter_intra()] {
            out.push((options, proc.clone()));
        }
    }
    out
}

fn db_spec() -> spf_workloads::WorkloadSpec {
    spf_workloads::all()
        .into_iter()
        .find(|s| s.name == "db")
        .expect("db workload exists")
}

#[test]
fn tracing_never_changes_the_measurement() {
    let plan = tiny_plan();
    let spec = db_spec();
    for (options, proc) in traced_cells() {
        let untraced = run_workload(&spec, &options, &proc, &plan);
        let (traced, _) = run_workload_traced(&spec, &options, &proc, &plan);
        let diff = traced.simulated_diff(&untraced);
        assert!(
            diff.is_empty(),
            "{}/{}: traced run diverged: {diff:?}",
            options.mode,
            proc.name
        );
    }
}

/// The partition and the reconciliations with the aggregate `MemStats`
/// counters, for one traced cell.
fn assert_classified_exactly_once(m: &Measurement, t: &WorkloadTrace) {
    let violations = checks::attribution(&m.mem, &t.attribution);
    let cell = format!("{}/{}", m.mode, m.processor);
    assert_eq!(violations, Vec::<String>::new(), "{cell}");
}

#[test]
fn every_issued_prefetch_is_classified_exactly_once() {
    let plan = tiny_plan();
    let spec = db_spec();
    let mut nonvacuous = false;
    for (options, proc) in traced_cells() {
        let (m, t) = run_workload_traced(&spec, &options, &proc, &plan);
        assert_eq!(t.lost, 0, "the default ring holds a whole tiny run");
        assert_classified_exactly_once(&m, &t);
        nonvacuous |= m.mem.swpf_issued + m.mem.guarded_loads > 0;
    }
    assert!(nonvacuous, "no cell issued any prefetch — test is vacuous");
}

/// The shared check must not go vacuous: drop one site's row and every
/// equality that site took part in is reported.
#[test]
fn attribution_check_reports_each_equality_a_missing_site_breaks() {
    let (m, t) = run_workload_traced(
        &db_spec(),
        &PrefetchOptions::inter_intra(),
        &ProcessorConfig::pentium4(),
        &tiny_plan(),
    );
    let mut attr = t.attribution.clone();
    let busiest = (0..attr.per_site.len())
        .max_by_key(|&i| attr.per_site[i].1.issued())
        .expect("db compiles prefetch sites");
    let (_, gone) = attr.per_site.remove(busiest);
    assert!(gone.issued() > 0, "the removed site must have issued");
    let violations = checks::attribution(&m.mem, &attr);
    let reported = |prefix: &str| violations.iter().any(|v| v.starts_with(prefix));
    assert!(reported("classified vs issued"), "{violations:?}");
    assert!(reported("per-site issued vs issued"), "{violations:?}");
    assert_eq!(reported("dropped vs "), gone.dropped() > 0);
    assert_eq!(reported("guarded vs "), gone.guarded_issued > 0);
    assert!(!reported("hw fills vs "), "not a per-site quantity");
    // ... and a lost hardware-fill event breaks the fifth.
    attr = t.attribution;
    attr.hw_prefetch_fills += 1;
    let violations = checks::attribution(&m.mem, &attr);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].starts_with("hw fills vs hw_prefetch_fills: "));
}

#[test]
fn attribution_stays_exact_when_the_ring_overflows() {
    // At Small the default ring is too short for db's best run; the
    // attribution is folded at emit and must not care.
    let plan = RunPlan {
        size: Size::Small,
        ..tiny_plan()
    };
    let (m, t) = run_workload_traced(
        &db_spec(),
        &PrefetchOptions::inter_intra(),
        &ProcessorConfig::pentium4(),
        &plan,
    );
    assert!(t.lost > 0, "the case needs an overflowing ring");
    assert!(m.mem.swpf_issued + m.mem.guarded_loads > 0);
    assert_classified_exactly_once(&m, &t);
}

#[test]
fn every_prefetch_site_appears_exactly_once() {
    let plan = tiny_plan();
    let spec = db_spec();
    let (m, t) = run_workload_traced(
        &spec,
        &PrefetchOptions::inter_intra(),
        &ProcessorConfig::pentium4(),
        &plan,
    );
    assert!(!t.sites.is_empty(), "db compiles prefetch sites");

    // Exactly one SiteRegistered compile-time event per table entry.
    let registered = t
        .compile_events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SiteRegistered { .. }))
        .count();
    assert_eq!(registered, t.sites.len());
    assert!(t
        .compile_events
        .iter()
        .any(|e| matches!(e, TraceEvent::JitBegin { .. })));

    // The summary lists each site exactly once, keyed by position.
    let run = format!("{}/{}/{}", m.name, m.mode, m.processor);
    let rows = summary::rows(&run, &t.attribution, &t.sites);
    let mut keys: Vec<_> = rows.iter().map(summary::SummaryRow::key).collect();
    keys.sort();
    let before = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), before, "duplicate site rows in the summary");

    // Every runtime event resolved to a registered site: no synthetic
    // `?` rows, and the summary covers the whole site table.
    assert!(
        rows.iter().all(|r| r.method != "?"),
        "runtime events fell outside the registered site table"
    );
    assert_eq!(rows.len(), t.sites.len());

    // The summary round-trips through its JSONL encoding.
    let parsed = summary::parse(&summary::emit(&rows)).unwrap();
    assert_eq!(parsed, rows);
}
