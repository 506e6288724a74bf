//! Multi-tenant serving simulation driver.
//!
//! ```text
//! cargo run --release -p spf-bench --bin spf-serve
//! cargo run --release -p spf-bench --bin spf-serve -- --tenants 200 --requests 1000
//! cargo run --release -p spf-bench --bin spf-serve -- --chaos
//! ```
//!
//! Runs the `spf-serve` fleet simulation — hundreds of tenant VMs over
//! sharded heaps, a background compilation queue, and a bounded shared
//! code cache — once for each of the four prefetch modes (BASELINE,
//! INTER, INTER+INTRA, ADAPTIVE), prints the latency table, and writes
//! `SERVE_summary.json`.
//!
//! The simulation is serial and a pure function of its configuration, so
//! `scripts/regen.sh` rewrites the committed baselines byte for byte.
//!
//! `--chaos` additionally runs each mode a second time under the seeded
//! fault plan (GC storms, compile stalls, cache squeezes, traffic
//! bursts), checks the recovery invariants against the fault-free twin,
//! appends a `chaos` section to the summary, and with
//! `--fault-events-out` writes the chaos event stream as
//! `FAULT_events.jsonl`. A failed recovery invariant is exit 1.

use std::process::ExitCode;

use spf_bench::cli::{self, Serve};
use spf_bench::{matrix, write_artifact};
use spf_memsim::ProcessorConfig;
use spf_serve::{
    faults, report, sim, ChaosRow, ModeReport, ServeConfig, ServeOutcome, ServeSummary,
};
use spf_trace::{export, TraceEvent};

/// Events emitted only by the chaos machinery, for `FAULT_events.jsonl`.
fn chaos_events(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::FaultInjected { .. }
                    | TraceEvent::RequestShed { .. }
                    | TraceEvent::CompileRetried { .. }
                    | TraceEvent::GuardRearmed { .. }
            )
        })
        .cloned()
        .collect()
}

/// Reports on stderr how many requests a run served, and how many of
/// them its tenants simulated instead of reading a tenant twin's output.
fn print_shared(out: &ServeOutcome) {
    eprintln!(
        "serve: requests served {}, simulated {} ({} VM clones)",
        out.latencies.iter().filter(|&&l| l > 0).count(),
        out.simulated,
        out.clones
    );
}

fn sweep(args: &Serve) -> Result<(ServeSummary, String, String), String> {
    let proc = ProcessorConfig::pentium4();
    let mut rows = Vec::new();
    let mut chaos_rows = Vec::new();
    let mut events_text = String::new();
    let mut fault_events_text = String::new();
    // The chaos runs' base stream and fault plan are mode-independent:
    // derive them once, from the function `sim::run` derives them with.
    let chaos_cfg = ServeConfig {
        chaos: args.chaos,
        ..args.cfg
    };
    let (base, plan) = sim::base_and_plan(&chaos_cfg);
    for opts in matrix::modes() {
        eprintln!(
            "serve: {} tenants x {} requests, mode {}...",
            args.cfg.tenants, args.cfg.requests, opts.mode
        );
        let out = sim::run(&args.cfg, &opts, &proc, 1);
        print_shared(&out);
        if args.events_out.is_some() {
            events_text.push_str(&export::events_jsonl(&out.events, None));
        }
        rows.push(ModeReport::from_outcome(&opts.mode.to_string(), &out));
        if args.chaos.is_some() {
            eprintln!("serve: mode {} again, under the fault plan...", opts.mode);
            let fault = sim::run(&chaos_cfg, &opts, &proc, 1);
            print_shared(&fault);
            if args.fault_events_out.is_some() {
                fault_events_text
                    .push_str(&export::events_jsonl(&chaos_events(&fault.events), None));
            }
            let recovery =
                faults::verify_recovery(&plan, args.cfg.slot_cycles, &base, &fault, &out)
                    .map_err(|e| format!("mode {}: recovery invariant failed: {e}", opts.mode))?;
            let served = ModeReport::from_outcome(&opts.mode.to_string(), &fault);
            chaos_rows.push(ChaosRow {
                mode: opts.mode.to_string(),
                faults: fault.faults,
                shed: fault.shed.len() as u64,
                retries: fault.retries,
                rearms: fault.rearms,
                stranded_final: fault.stranded_final,
                completed: served.completed,
                p99: served.p99,
                recovery_at: recovery.recovery_at,
                post_requests: recovery.post_requests,
                post_p99_ratio_milli: recovery.post_p99_ratio_milli,
            });
        }
    }
    let summary = ServeSummary {
        processor: proc.name,
        tenants: args.cfg.tenants as u64,
        requests: u64::from(args.cfg.requests),
        mean_interarrival: args.cfg.mean_interarrival,
        seed: args.cfg.seed,
        slot_cycles: args.cfg.slot_cycles,
        compile_workers: args.cfg.compile_workers as u64,
        cache_capacity_instrs: args.cfg.cache_capacity_instrs,
        modes: rows,
        chaos: chaos_rows,
    };
    Ok((summary, events_text, fault_events_text))
}

fn main() -> ExitCode {
    let args = cli::from_env(cli::serve);
    let (summary, events_text, fault_events_text) = match sweep(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report::render(&summary));

    // Checksums must agree across modes: prefetching may only change
    // timing, never results.
    let first = summary.modes.first().map(|m| m.checksum);
    if summary.modes.iter().any(|m| Some(m.checksum) != first) {
        eprintln!("serve: FLEET CHECKSUM DIVERGED ACROSS MODES");
        return ExitCode::FAILURE;
    }

    let mut ok = true;
    for (path, text) in [
        (&args.out, report::emit(&summary)),
        (&args.events_out, events_text),
        (&args.fault_events_out, fault_events_text),
    ] {
        if let Some(Err(e)) = path.as_deref().map(|p| write_artifact(p, &text)) {
            ok = false;
            eprintln!("error: {e}");
        }
    }
    ExitCode::from(u8::from(!ok))
}
