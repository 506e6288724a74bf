//! Serving-layer invariants, end to end through the public facade: fleet
//! results must be mode-invariant, and the `SERVE_summary.json` report
//! must round-trip. EXPERIMENTS.md's Serving
//! and Chaos tables are the renders of the committed baselines.

use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::serve::{report, sim, ModeReport, ServeConfig, ServeSummary};

fn small_fleet() -> ServeConfig {
    ServeConfig {
        tenants: 24,
        requests: 80,
        ..ServeConfig::default()
    }
}

#[test]
fn fleet_checksum_is_mode_invariant_and_summary_round_trips() {
    let cfg = small_fleet();
    let proc = ProcessorConfig::athlon_mp();
    let mut rows = Vec::new();
    let mut checksums = Vec::new();
    for opts in [
        PrefetchOptions::off(),
        PrefetchOptions::inter(),
        PrefetchOptions::inter_intra(),
        PrefetchOptions::adaptive(),
    ] {
        let out = sim::run(&cfg, &opts, &proc, 1);
        assert_eq!(out.latencies.len(), cfg.requests as usize);
        assert!(out.latencies.iter().all(|&l| l > 0), "{}", opts.mode);
        checksums.push(out.checksum);
        rows.push(ModeReport::from_outcome(&opts.mode.to_string(), &out));
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "prefetch mode changed a workload result: {checksums:?}"
    );

    let summary = ServeSummary {
        processor: proc.name.clone(),
        tenants: cfg.tenants as u64,
        requests: u64::from(cfg.requests),
        mean_interarrival: cfg.mean_interarrival,
        seed: cfg.seed,
        slot_cycles: cfg.slot_cycles,
        compile_workers: cfg.compile_workers as u64,
        cache_capacity_instrs: cfg.cache_capacity_instrs,
        modes: rows,
        chaos: vec![],
    };
    let parsed = report::parse(&report::emit(&summary)).expect("round trip");
    assert_eq!(parsed, summary);
    assert!(report::render(&summary).contains("ADAPTIVE"));
}

#[test]
fn experiments_tables_are_renders_of_the_committed_baselines() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |name: &str| {
        std::fs::read_to_string(format!("{root}/{name}")).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let experiments = read("EXPERIMENTS.md");
    for baseline in ["SERVE_baseline.json", "CHAOS_baseline.json"] {
        let summary = report::parse(&read(baseline)).unwrap_or_else(|e| panic!("{baseline}: {e}"));
        let table = format!("```\n{}```\n", report::render(&summary));
        assert!(
            experiments.contains(&table),
            "EXPERIMENTS.md lacks the render of {baseline}:\n{table}"
        );
    }
}
