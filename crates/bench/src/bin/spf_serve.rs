//! Multi-tenant serving simulation driver.
//!
//! ```text
//! cargo run --release -p spf-bench --bin spf-serve
//! cargo run --release -p spf-bench --bin spf-serve -- --tenants 200 --requests 1000
//! cargo run --release -p spf-bench --bin spf-serve -- --jobs 4 --chaos
//! ```
//!
//! Runs the `spf-serve` fleet simulation — hundreds of tenant VMs over
//! sharded heaps, a background compilation queue, and a bounded shared
//! code cache — once per prefetch mode (BASELINE, INTER, INTER+INTRA,
//! ADAPTIVE, STATIC-FIRST), prints the latency table, and writes
//! `SERVE_summary.json`. STATIC-FIRST exercises the compile-cost-aware
//! queue estimates: statically proved sites skip object inspection, so
//! its scheduled compile latencies come in below the legacy modes'.
//!
//! The simulation is bit-identical across `--jobs` values; CI
//! byte-compares the emitted files across two `--jobs` runs with `cmp`.
//!
//! `--chaos` additionally runs each mode a second time under the seeded
//! fault plan (GC storms, compile stalls, cache squeezes, traffic
//! bursts), checks the recovery invariants against the fault-free twin,
//! appends a `chaos` section to the summary, and with
//! `--fault-events-out` writes the chaos event stream as
//! `FAULT_events.jsonl`. A failed recovery invariant is exit 1.

use std::process::ExitCode;

use spf_bench::{matrix, out_dir};
use spf_core::PrefetchOptions;
use spf_memsim::ProcessorConfig;
use spf_serve::{
    faults, report, sim, traffic, ChaosConfig, ChaosRow, ModeReport, ServeConfig, ServeSummary,
    TrafficConfig,
};
use spf_trace::{export, TraceEvent};

struct Args {
    cfg: ServeConfig,
    proc: ProcessorConfig,
    jobs: usize,
    out: Option<String>,
    events_out: Option<String>,
    chaos: Option<ChaosConfig>,
    fault_events_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ServeConfig::default(),
        proc: ProcessorConfig::pentium4(),
        jobs: matrix::default_jobs(),
        out: Some("SERVE_summary.json".to_string()),
        events_out: None,
        chaos: None,
        fault_events_out: None,
    };
    let mut dir_flag: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{name} needs a non-negative integer, got {v:?}"))
        };
        match a.as_str() {
            "--tenants" => args.cfg.tenants = num("--tenants")?.max(1) as usize,
            "--requests" => args.cfg.requests = num("--requests")?.max(1) as u32,
            "--mean-interarrival" => args.cfg.mean_interarrival = num("--mean-interarrival")?,
            "--seed" => args.cfg.seed = num("--seed")?,
            "--slot-cycles" => args.cfg.slot_cycles = num("--slot-cycles")?.max(1),
            "--compile-workers" => {
                args.cfg.compile_workers = num("--compile-workers")?.max(1) as usize;
            }
            "--cache-instrs" => args.cfg.cache_capacity_instrs = num("--cache-instrs")?,
            "--jobs" => args.jobs = num("--jobs")?.max(1) as usize,
            "--processor" => {
                let v = it.next().ok_or("--processor needs a name")?;
                args.proc = match v.as_str() {
                    "pentium4" | "p4" => ProcessorConfig::pentium4(),
                    "athlon" | "athlonmp" => ProcessorConfig::athlon_mp(),
                    other => return Err(format!("unknown processor {other:?}")),
                };
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path (or - to disable)")?;
                args.out = if v == "-" { None } else { Some(v) };
            }
            "--events-out" => {
                args.events_out = Some(it.next().ok_or("--events-out needs a path")?);
            }
            "--chaos" => {
                args.chaos.get_or_insert_with(ChaosConfig::default);
            }
            "--chaos-seed" => {
                args.chaos.get_or_insert_with(ChaosConfig::default).seed = num("--chaos-seed")?;
            }
            "--fault-events-out" => {
                args.fault_events_out = Some(it.next().ok_or("--fault-events-out needs a path")?);
            }
            "--out-dir" => {
                dir_flag = Some(it.next().ok_or("--out-dir needs a directory")?);
            }
            word => {
                args.cfg.size = word
                    .parse()
                    .map_err(|_| format!("unknown argument {word:?}"))?;
            }
        }
    }
    if let Some(dir) = &dir_flag {
        args.out = args.out.map(|p| out_dir::join(dir, &p));
        args.events_out = args.events_out.map(|p| out_dir::join(dir, &p));
        args.fault_events_out = args.fault_events_out.map(|p| out_dir::join(dir, &p));
    }
    if args.fault_events_out.is_some() && args.chaos.is_none() {
        return Err("--fault-events-out requires --chaos".to_string());
    }
    Ok(args)
}

/// The five matrix modes, in the matrix's canonical order.
fn modes() -> [PrefetchOptions; 5] {
    [
        PrefetchOptions::off(),
        PrefetchOptions::inter(),
        PrefetchOptions::inter_intra(),
        PrefetchOptions::adaptive(),
        PrefetchOptions::static_first(),
    ]
}

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

fn sweep(args: &Args) -> Result<(ServeSummary, String, String), String> {
    let mut rows = Vec::new();
    let mut chaos_rows = Vec::new();
    let mut events_text = String::new();
    let mut fault_events_text = String::new();
    // The base stream and fault plan are mode-independent: recompute them
    // once, exactly as `sim::run` does internally.
    let base = traffic::generate(&TrafficConfig {
        tenants: args.cfg.tenants,
        requests: args.cfg.requests,
        mean_interarrival: args.cfg.mean_interarrival,
        seed: args.cfg.seed,
    });
    let horizon = base.last().map_or(args.cfg.slot_cycles, |r| r.arrival);
    for opts in modes() {
        eprintln!(
            "serve: {} tenants x {} requests, mode {}, {} job(s)...",
            args.cfg.tenants, args.cfg.requests, opts.mode, args.jobs
        );
        let out = sim::run(&args.cfg, &opts, &args.proc, args.jobs);
        if args.events_out.is_some() {
            events_text.push_str(&export::events_jsonl(&out.events, None));
        }
        rows.push(ModeReport::from_outcome(&opts.mode.to_string(), &out));
        if let Some(chaos) = &args.chaos {
            eprintln!("serve: mode {} again, under the fault plan...", opts.mode);
            let chaos_cfg = ServeConfig {
                chaos: Some(*chaos),
                ..args.cfg
            };
            let fault = sim::run(&chaos_cfg, &opts, &args.proc, args.jobs);
            if args.fault_events_out.is_some() {
                fault_events_text
                    .push_str(&export::events_jsonl(&chaos_events(&fault.events), None));
            }
            let plan = faults::generate(chaos, args.cfg.tenants, horizon, args.cfg.slot_cycles);
            let recovery =
                faults::verify_recovery(&plan, chaos, args.cfg.slot_cycles, &base, &fault, &out)
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
        processor: args.proc.name.clone(),
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: spf-serve [tiny|small|full] [--tenants N] [--requests N] \
                 [--mean-interarrival CYCLES] [--seed N] [--slot-cycles N] \
                 [--compile-workers N] [--cache-instrs N] [--processor pentium4|athlonmp] \
                 [--jobs N] [--out PATH|-] [--events-out PATH] \
                 [--chaos] [--chaos-seed N] [--fault-events-out PATH] [--out-dir DIR]"
            );
            return ExitCode::FAILURE;
        }
    };
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

    if let Some(path) = &args.out {
        out_dir::ensure_parent(path);
        match std::fs::write(path, report::emit(&summary)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.events_out {
        out_dir::ensure_parent(path);
        match std::fs::write(path, events_text) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.fault_events_out {
        out_dir::ensure_parent(path);
        match std::fs::write(path, fault_events_text) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
