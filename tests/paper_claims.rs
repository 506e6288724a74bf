//! Qualitative claims of the paper's evaluation, asserted against the
//! simulator at reduced problem sizes. These check *shape* — who wins,
//! which mechanism fires — not absolute numbers (see EXPERIMENTS.md).

use stride_prefetch::bench::{matrix_json, run_workload, RunPlan};
use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::workloads::{self, Size};

fn spec(name: &str) -> workloads::WorkloadSpec {
    workloads::all()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
}

fn plan(size: Size) -> RunPlan {
    RunPlan {
        size,
        measured_runs: 1,
        ..RunPlan::default()
    }
}

/// §4.1: db — INTER is ineffective, INTER+INTRA is the headline winner,
/// and the DTLB miss events collapse on the Pentium 4 (Figure 10).
#[test]
fn db_headline_shape() {
    let spec = spec("db");
    let p4 = ProcessorConfig::pentium4();
    let plan = plan(Size::Small);
    let base = run_workload(&spec, &PrefetchOptions::off(), &p4, &plan);
    let inter = run_workload(&spec, &PrefetchOptions::inter(), &p4, &plan);
    let both = run_workload(&spec, &PrefetchOptions::inter_intra(), &p4, &plan);
    let inter_gain = inter.speedup_vs(&base) - 1.0;
    let both_gain = both.speedup_vs(&base) - 1.0;
    assert!(
        inter_gain.abs() < 0.02,
        "INTER must be ineffective on db, got {:+.1}%",
        inter_gain * 100.0
    );
    assert!(
        both_gain > 0.10,
        "INTER+INTRA must win big on db, got {:+.1}%",
        both_gain * 100.0
    );
    let dtlb_base = base.mem.dtlb_load_mpi(base.retired);
    let dtlb_both = both.mem.dtlb_load_mpi(both.retired);
    assert!(
        dtlb_both < dtlb_base / 2.0,
        "TLB priming must cut DTLB load MPI: {dtlb_base:.5} -> {dtlb_both:.5}"
    );
    assert!(
        both.mem.guarded_loads > 0,
        "P4 maps intra prefetches to guarded loads"
    );
}

/// §4.1: Euler has inter-iteration strides in its main data structures, so
/// INTER and INTER+INTRA behave alike and both help on the Athlon.
#[test]
fn euler_inter_equals_inter_intra() {
    let spec = spec("Euler");
    let amp = ProcessorConfig::athlon_mp();
    let plan = plan(Size::Small);
    let base = run_workload(&spec, &PrefetchOptions::off(), &amp, &plan);
    let inter = run_workload(&spec, &PrefetchOptions::inter(), &amp, &plan);
    let both = run_workload(&spec, &PrefetchOptions::inter_intra(), &amp, &plan);
    let gi = inter.speedup_vs(&base) - 1.0;
    let gb = both.speedup_vs(&base) - 1.0;
    assert!(
        gi > 0.0,
        "INTER helps Euler on the Athlon: {:+.2}%",
        gi * 100.0
    );
    assert!(
        (gi - gb).abs() < 0.03,
        "both configurations alike on Euler: {:+.2}% vs {:+.2}%",
        gi * 100.0,
        gb * 100.0
    );
}

/// §4.1: compress, javac, and Search "do not contain code fragments where
/// either intra- or inter-iteration stride prefetching are applicable".
#[test]
fn no_opportunity_benchmarks_get_no_prefetches() {
    let p4 = ProcessorConfig::pentium4();
    let plan = plan(Size::Tiny);
    for name in ["compress", "javac", "Search"] {
        let m = run_workload(&spec(name), &PrefetchOptions::inter_intra(), &p4, &plan);
        assert_eq!(m.prefetches_inserted, 0, "{name} must get no prefetches");
        assert_eq!(m.mem.swpf_issued, 0, "{name} must issue no prefetches");
    }
}

/// §4.1: MolDyn's molecule array fits in the L2, so prefetching into the
/// L2 (Pentium 4) cannot help while prefetching into the L1 (Athlon MP)
/// can — the target-level contrast.
#[test]
fn moldyn_target_level_contrast() {
    let spec = spec("MolDyn");
    let plan = plan(Size::Full); // needs the full working set (~100 KB)
    let p4 = run_workload(
        &spec,
        &PrefetchOptions::inter_intra(),
        &ProcessorConfig::pentium4(),
        &plan,
    );
    let p4_base = run_workload(
        &spec,
        &PrefetchOptions::off(),
        &ProcessorConfig::pentium4(),
        &plan,
    );
    let amp = run_workload(
        &spec,
        &PrefetchOptions::inter_intra(),
        &ProcessorConfig::athlon_mp(),
        &plan,
    );
    let amp_base = run_workload(
        &spec,
        &PrefetchOptions::off(),
        &ProcessorConfig::athlon_mp(),
        &plan,
    );
    let p4_gain = p4.speedup_vs(&p4_base) - 1.0;
    let amp_gain = amp.speedup_vs(&amp_base) - 1.0;
    assert!(
        amp_gain > p4_gain,
        "Athlon (prefetch to L1) must beat P4 (prefetch to L2) on MolDyn: \
         {:+.2}% vs {:+.2}%",
        amp_gain * 100.0,
        p4_gain * 100.0
    );
    assert!(p4_gain < 0.01, "P4 gains nothing: {:+.2}%", p4_gain * 100.0);
}

/// §4: the prefetching pass is "ultra-lightweight". The paper's < 3%-of-
/// JIT-time ratio depends on the size of the production JIT's other
/// passes (ours are tiny, so the *ratio* is not comparable — see
/// EXPERIMENTS.md); the absolute claims that transfer are: inspection
/// respects its step budget, and the whole pass costs at most a few
/// milliseconds per method.
#[test]
fn prefetch_pass_is_ultra_lightweight() {
    use stride_prefetch::trace::NoopSink;
    let p4 = ProcessorConfig::pentium4();
    for name in ["db", "jess", "Euler", "compress"] {
        let prep = spec(name).prepare(Size::Tiny);
        let mut vm = prep.vm(
            prep.vm_config(&PrefetchOptions::inter_intra()),
            &p4,
            NoopSink,
        );
        prep.warm(&mut vm, 2);
        for report in vm.reports() {
            assert!(
                report.pass_nanos < 200_000_000,
                "{name}/{}: pass took {} ms",
                report.method,
                report.pass_nanos / 1_000_000
            );
            for lr in &report.loops {
                assert!(
                    lr.inspected_steps <= stride_prefetch::prefetch::pipeline::MAX_INSPECT_STEPS,
                    "{name}/{}: inspection exceeded its step budget",
                    report.method
                );
            }
        }
    }
}

/// Table 3's mixed-mode spread: jack is interpreter-heavy, db and Euler
/// are compiled-code-heavy.
#[test]
fn compiled_code_fraction_spread() {
    let p4 = ProcessorConfig::pentium4();
    let plan = plan(Size::Tiny);
    let jack = run_workload(&spec("jack"), &PrefetchOptions::off(), &p4, &plan);
    let db = run_workload(&spec("db"), &PrefetchOptions::off(), &p4, &plan);
    assert!(
        jack.compiled_fraction < db.compiled_fraction,
        "jack ({:.2}) must be less compiled than db ({:.2})",
        jack.compiled_fraction,
        db.compiled_fraction
    );
    assert!(db.compiled_fraction > 0.8);
}

/// The committed full-size sweep, `BENCH_full.json`, keeps EXPERIMENTS.md's
/// shape checklist on both processors, so a regenerated file that breaks
/// a paper shape fails here rather than passing `git diff` once committed.
#[test]
fn the_full_size_sweep_keeps_the_shape_checklist() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_full.json");
    let text = std::fs::read_to_string(path).expect("the committed BENCH_full.json");
    assert!(text.contains(r#""size": "Full""#), "a full-size sweep");
    let cells = matrix_json::parse(&text).expect("a matrix file");
    let cycles = |name: &str, mode: &str, proc: &str| {
        let cell = cells
            .iter()
            .find(|c| c.name == name && c.mode == mode && c.processor == proc);
        cell.unwrap_or_else(|| panic!("no cell {name} / {mode} / {proc}"))
            .best_cycles
    };
    // The speedup of `mode` over BASELINE, minus one.
    let gain = |name: &str, mode: &str, proc: &str| {
        cycles(name, "BASELINE", proc) as f64 / cycles(name, mode, proc) as f64 - 1.0
    };
    for proc in ["Pentium 4", "Athlon MP"] {
        assert_eq!(
            cycles("db", "INTER", proc),
            cycles("db", "BASELINE", proc),
            "db: INTER gets nothing on the {proc}"
        );
        let db = gain("db", "INTER+INTRA", proc);
        assert!(
            db > 0.10,
            "db: INTER+INTRA wins big on the {proc}, got {db:+.3}"
        );
        assert_eq!(
            cycles("Euler", "INTER", proc),
            cycles("Euler", "INTER+INTRA", proc),
            "Euler: INTER is INTER+INTRA on the {proc}"
        );
        for name in ["compress", "jack", "javac", "MonteCarlo", "Search"] {
            for mode in ["INTER", "INTER+INTRA"] {
                assert_eq!(
                    cycles(name, mode, proc),
                    cycles(name, "BASELINE", proc),
                    "{name}: {mode} changes nothing on the {proc}"
                );
            }
        }
    }
    let (p4, athlon) = (
        gain("MolDyn", "INTER+INTRA", "Pentium 4"),
        gain("MolDyn", "INTER+INTRA", "Athlon MP"),
    );
    assert!(
        p4 <= 0.0 && athlon > 0.0,
        "MolDyn: prefetching to L2 does not pay, to L1 does: {p4:+.3} / {athlon:+.3}"
    );
    let rt = gain("RayTracer", "INTER+INTRA", "Pentium 4");
    assert!(
        rt > 0.10,
        "RayTracer wins big on the Pentium 4, got {rt:+.3}"
    );
}
