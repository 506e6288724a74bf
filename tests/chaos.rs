//! Chaos-harness invariants, end to end through the public facade: the
//! seeded fault plan must be deterministic, a fault run must degrade
//! gracefully (typed sheds, compile retries, guard re-arms) and then
//! provably recover, and the `chaos` summary section must round-trip
//! while staying absent from fault-free reports.

use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::serve::{faults, report, sim, ChaosRow, ModeReport, ServeConfig};
use stride_prefetch::trace::TraceEvent;

fn chaos_fleet() -> ServeConfig {
    ServeConfig {
        tenants: 8,
        requests: 60,
        mean_interarrival: 50_000,
        chaos: Some(faults::DEFAULT_SEED),
        ..ServeConfig::default()
    }
}

#[test]
fn fault_runs_degrade_then_recover() {
    let cfg = chaos_fleet();
    let proc = ProcessorConfig::pentium4();
    let opts = PrefetchOptions::adaptive();
    let fault = sim::run(&cfg, &opts, &proc, 1);
    let nofault = sim::run(&ServeConfig { chaos: None, ..cfg }, &opts, &proc, 1);

    // Degradation fired and left a typed trail.
    assert!(fault.faults > 0, "no fault window activated");
    assert!(fault.rearms > 0, "no exhausted guard was re-armed");
    assert!(
        fault
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultInjected { .. })),
        "fault activations must be trace events"
    );
    assert_eq!(
        fault.checksum, nofault.checksum,
        "chaos may change timing, never results"
    );

    // Recovery is proven against the fault-free twin.
    let (base, plan) = sim::base_and_plan(&cfg);
    let recovery = faults::verify_recovery(&plan, cfg.slot_cycles, &base, &fault, &nofault)
        .expect("recovery invariants");
    assert_eq!(recovery.stranded_final, 0);
}

#[test]
fn chaos_summary_section_round_trips_and_stays_optional() {
    let cfg = chaos_fleet();
    let proc = ProcessorConfig::pentium4();
    let opts = PrefetchOptions::inter_intra();
    let fault = sim::run(&cfg, &opts, &proc, 1);

    let row = ModeReport::from_outcome(&opts.mode.to_string(), &fault);
    assert!(
        fault.latencies.len() >= cfg.requests as usize,
        "bursts only add requests"
    );
    assert_eq!(
        row.completed,
        (fault.latencies.len() - fault.shed.len()) as u64,
        "shed requests are excluded from the latency population"
    );

    let mut summary = report::parse(&report::emit(&sample_summary(vec![row.clone()], vec![])))
        .expect("fault-free round trip");
    assert!(
        summary.chaos.is_empty(),
        "fault-free summaries carry no chaos section"
    );
    assert!(
        !report::emit(&summary).contains("\"chaos\""),
        "fault-free files must stay byte-compatible with pre-chaos readers"
    );

    let chaos_row = ChaosRow {
        mode: opts.mode.to_string(),
        faults: fault.faults,
        shed: fault.shed.len() as u64,
        retries: fault.retries,
        rearms: fault.rearms,
        stranded_final: fault.stranded_final,
        completed: row.completed,
        p99: row.p99,
        recovery_at: 1_234_567,
        post_requests: 9,
        post_p99_ratio_milli: 1_005,
    };
    summary.chaos = vec![chaos_row];
    let parsed = report::parse(&report::emit(&summary)).expect("chaos round trip");
    assert_eq!(parsed, summary);
    assert!(report::render(&summary).contains("recovery invariants checked per mode"));
}

fn sample_summary(
    modes: Vec<ModeReport>,
    chaos: Vec<ChaosRow>,
) -> stride_prefetch::serve::ServeSummary {
    stride_prefetch::serve::ServeSummary {
        processor: "pentium4".to_string(),
        tenants: 8,
        requests: 60,
        mean_interarrival: 50_000,
        seed: 1,
        slot_cycles: 100_000,
        compile_workers: 2,
        cache_capacity_instrs: 8_192,
        modes,
        chaos,
    }
}

/// `fault_runs_degrade_then_recover` proves recovery at one seed on a
/// fleet whose traffic ends before the recovery point (last window end
/// plus 40 slots of grace), so its p99 bound is checked over no request
/// at all. This stream is sparse and long enough — windows start within
/// the first 70 % of it — that every mode keeps at least ten base
/// requests past the recovery point, and the invariants must hold for
/// every plan seed. One thread per mode: a run is ~4 s unoptimised.
#[test]
fn recovery_holds_across_chaos_seeds_on_a_nonempty_post_window() {
    let cfg = ServeConfig {
        tenants: 8,
        requests: 64,
        mean_interarrival: 600_000,
        ..ServeConfig::default()
    };
    let proc = ProcessorConfig::pentium4();
    // The worst `(post_p99_ratio_milli, cell)` over the seeds of one mode.
    let sweep = |opts: PrefetchOptions| {
        let nofault = sim::run(&cfg, &opts, &proc, 1);
        let seeds = (1..=6).map(|seed| {
            let fault_cfg = ServeConfig {
                chaos: Some(seed),
                ..cfg
            };
            let fault = sim::run(&fault_cfg, &opts, &proc, 1);
            let cell = format!("{} / chaos seed {seed}", opts.mode);
            let (base, plan) = sim::base_and_plan(&fault_cfg);
            let r = faults::verify_recovery(&plan, cfg.slot_cycles, &base, &fault, &nofault)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(fault.faults > 0, "{cell}: no fault window activated");
            assert_eq!(r.stranded_final, 0, "{cell}");
            assert!(
                r.post_requests >= 10,
                "{cell}: the p99 bound was checked on {} request(s)",
                r.post_requests
            );
            (r.post_p99_ratio_milli, cell)
        });
        seeds.max().expect("six seeds")
    };
    let worst = std::thread::scope(|s| {
        let modes = [
            PrefetchOptions::off(),
            PrefetchOptions::inter(),
            PrefetchOptions::inter_intra(),
            PrefetchOptions::adaptive(),
        ];
        let threads: Vec<_> = modes.map(|opts| s.spawn(|| sweep(opts))).into();
        let per_mode = threads.into_iter().map(|t| t.join().expect("mode sweep"));
        per_mode.max().expect("four modes")
    });
    println!(
        "worst post-recovery p99 ratio: {}.{:03}x ({}); bound {}.{:03}x + 4 slots",
        worst.0 / 1000,
        worst.0 % 1000,
        worst.1,
        faults::RECOVERY_P99_RATIO_MILLI / 1000,
        faults::RECOVERY_P99_RATIO_MILLI % 1000
    );
}
