//! The `serve-fleet` workload: `spf_serve::sim::run`, fault-free, under
//! BASELINE and ADAPTIVE. An open loop in simulated time (seeded arrivals,
//! latency counted from arrival), a closed loop on the host: the harness
//! waits for each run to return.
//!
//! Timed iterations serve the stream under ADAPTIVE, the mode with every
//! mechanism on. BASELINE serves it once, untimed, as the simulated
//! reference and for the cross-mode checksum: three timed iterations of
//! both modes do not fit the benchmark's time cap, and halving the stream
//! instead would leave p99 with five samples beyond it.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use spf_core::PrefetchOptions;
use spf_heap::shard_bytes;
use spf_memsim::{MemStats, ProcessorConfig};
use spf_serve::{percentile, report, sim, traffic, ModeReport, ServeConfig, ServeOutcome};
use spf_serve::{ServeSummary, TrafficConfig};
use spf_trace::NoopSink;
use spf_vm::{Vm, VmConfig};
use spf_workloads::Size;

use crate::matrix::{self, add_mem, sub_mem, Prepared};
use crate::report::{Report, Tally};
use crate::span::Tracer;
use crate::stats::highest_reportable_percentile;
use crate::timing::{self, Probe};

/// The fleet: 120 tenants and 1000 requests at `Tiny` on the Pentium 4,
/// everything else `ServeConfig`'s default. 1000 requests is the smallest
/// stream whose p99 has ten samples beyond it.
pub fn config(traffic_seed: u64) -> ServeConfig {
    ServeConfig {
        tenants: 120,
        requests: 1000,
        seed: traffic_seed,
        size: Size::Tiny,
        ..ServeConfig::default()
    }
}

fn modes() -> [PrefetchOptions; 2] {
    [PrefetchOptions::off(), PrefetchOptions::adaptive()]
}

/// The VM configuration `sim::run` gives a fault-free tenant.
fn tenant_config(cfg: &ServeConfig, p: &Prepared, options: &PrefetchOptions) -> VmConfig {
    VmConfig {
        heap_bytes: shard_bytes(p.heap_bytes, cfg.heap_shard_div, cfg.heap_floor_bytes),
        async_compile: true,
        ..p.vm_config(options)
    }
}

fn all_programs() -> Vec<&'static str> {
    spf_workloads::all().iter().map(|s| s.name).collect()
}

/// Constructs the fleet's tenant VMs the way `sim::run` does. Returns
/// them so the caller decides when 120 heap shards are released.
fn tenants(cfg: &ServeConfig, programs: &[Prepared]) -> Vec<Vm> {
    (0..cfg.tenants)
        .map(|i| {
            let p = &programs[i % programs.len()];
            Vm::from_predecoded(
                &p.pre,
                tenant_config(cfg, p, &PrefetchOptions::adaptive()),
                ProcessorConfig::pentium4(),
                NoopSink,
            )
        })
        .collect()
}

/// What a process pays before its first timed iteration: generate the
/// traffic, build and predecode the twelve programs, construct the 120
/// tenant VMs, and serve a twentieth of the stream once in both modes (a
/// full-size warm-up iteration does not fit the benchmark's time cap).
fn set_up(cfg: &ServeConfig) {
    black_box(traffic::generate(&TrafficConfig {
        tenants: cfg.tenants,
        requests: cfg.requests,
        mean_interarrival: cfg.mean_interarrival,
        seed: cfg.seed,
    }));
    let programs: Vec<Prepared> = spf_workloads::all()
        .iter()
        .map(|s| Prepared::new(s.name, (s.build)(cfg.size)))
        .collect();
    black_box(tenants(cfg, &programs));
    let warm = ServeConfig {
        requests: cfg.requests / 20,
        ..*cfg
    };
    for options in modes() {
        black_box(sim::run(&warm, &options, &ProcessorConfig::pentium4(), 1));
    }
}

/// One fleet run per mode, in [`modes`] order.
type Iteration = Vec<ServeOutcome>;

fn serve(cfg: &ServeConfig, options: &PrefetchOptions, jobs: usize) -> ServeOutcome {
    sim::run(cfg, options, &ProcessorConfig::pentium4(), jobs)
}

/// Everything simulated that two runs of one configuration must agree on.
fn same_outcome(a: &ServeOutcome, b: &ServeOutcome) -> bool {
    a.latencies == b.latencies
        && a.queue_depth_samples == b.queue_depth_samples
        && ModeReport::from_outcome("", a) == ModeReport::from_outcome("", b)
}

/// Requests a run served to completion. `sim::run` records a latency,
/// completion minus arrival and so above zero, for each of those and for
/// no other.
fn completed(o: &ServeOutcome) -> u64 {
    o.latencies.iter().filter(|&&l| l > 0).count() as u64
}

/// Requests of these runs that were shed or never completed.
fn failed_requests(cfg: &ServeConfig, runs: &[ServeOutcome]) -> u64 {
    runs.iter()
        .map(|o| u64::from(cfg.requests).saturating_sub(completed(o)))
        .sum()
}

/// Whether two modes answered differently: the fleet checksum folds every
/// tenant's, and prefetching may change timing only. Every request of a
/// diverged fleet counts as failed.
fn diverged(runs: &[ServeOutcome]) -> bool {
    runs.iter().any(|o| o.checksum != runs[0].checksum)
}

/// The untraced set: end-to-end metrics of the fleet.
pub fn untraced(seconds: f64, traffic_seed: u64, rep: &mut Report) -> (bool, Tally) {
    let cfg = config(traffic_seed);
    let mut probe = Probe::new();
    let set_ups = timing::set_ups(&mut probe, || set_up(&cfg));

    let [off, adaptive] = modes();
    let requests = u64::from(cfg.requests);
    // sim::run panics when a tenant faults, answers differently from its
    // first request or its program's expected checksum, or stalls.
    let serve_adaptive = || serve(&cfg, &adaptive, 1);
    let mut timed = timing::iterate(&mut probe, seconds, serve_adaptive, same_outcome);
    let mut tally = Tally {
        attempted: requests * (timed.iterations() + 1),
        failed: if timed.panicked { requests } else { 0 },
    };
    let Some(adaptive) = timed.first.take() else {
        return (false, tally);
    };
    let Ok(baseline) = catch_unwind(AssertUnwindSafe(|| serve(&cfg, &off, 1))) else {
        tally.failed += requests;
        return (false, tally);
    };
    let it = vec![baseline, adaptive];
    // An iteration that did not repeat the first has already failed the
    // run, so the first one's shed and unfinished requests stand for each.
    tally.failed += if diverged(&it) {
        tally.attempted
    } else {
        failed_requests(&cfg, &it[..1]) + timed.iterations() * failed_requests(&cfg, &it[1..])
    };
    let correct = timed.clean() && tally.failed == 0;

    let wall_s = timing::put_host_clock(rep, &set_ups, &timed.samples);
    rep.put("requests_per_s", completed(&it[1]) as f64 / wall_s);
    rep.put("failed_share", tally.failed as f64 / tally.attempted as f64);
    put_simulated(rep, &it);
    (correct, tally)
}

/// The simulated-clock end-to-end metrics. Both sets print them, so the
/// suite can check they agree.
fn put_simulated(rep: &mut Report, it: &Iteration) {
    let (baseline, adaptive) = (&it[0], &it[1]);
    let total = |o: &ServeOutcome| o.latencies.iter().sum::<u64>();
    let mut sorted = adaptive.latencies.clone();
    sorted.sort_unstable();
    rep.put("sim_cycles", (total(baseline) + total(adaptive)) as f64);
    // Both modes serve the same number of requests, so the ratio of the
    // totals is the ratio of the means.
    rep.put(
        "sim_speedup_geomean",
        total(baseline) as f64 / total(adaptive) as f64,
    );
    rep.put(
        "sim_latency_p50_cycles",
        percentile(&sorted, 50, 100) as f64,
    );
    rep.put(
        "sim_latency_p99_cycles",
        percentile(&sorted, 99, 100) as f64,
    );
    println!(
        "# {} latency percentiles over {} requests; highest with ten samples beyond it: {:?}",
        rep.workload.name,
        sorted.len(),
        highest_reportable_percentile(sorted.len())
    );
}

/// The traced set: per-layer metrics of the fleet.
pub fn traced(seed: u64, traffic_seed: u64, rep: &mut Report) -> Result<(bool, Tally), String> {
    let cfg = config(traffic_seed);
    let p4 = ProcessorConfig::pentium4();
    let mut t = Tracer::new();
    let mut correct = true;
    let mut tally = Tally::default();
    t.span("bench.traced_run", 0, |t| -> Result<(), String> {
        let (programs, build_nanos, predecode_nanos) =
            matrix::prepare(t, &all_programs(), cfg.size);
        rep.put("workloads.build_ms", build_nanos as f64 / 1e6);
        rep.put("vm.predecode_us", predecode_nanos as f64 / 1e3);
        let costs = matrix::common_layers(t, &programs, seed, rep);
        let (fleet, nanos) = t.timed("vm.new", 0, |_| tenants(&cfg, &programs));
        drop(fleet);
        rep.put("vm.new_us", nanos as f64 / 1e3);

        // The fleet itself, one span per mode.
        let mut runs = Vec::new();
        for (op, options) in modes().iter().enumerate() {
            runs.push(t.timed("serve.sim.run", op as u64, |_| serve(&cfg, options, 1)));
        }
        let it: Iteration = runs.iter().map(|(o, _)| o.clone()).collect();
        put_simulated(rep, &it);
        tally.attempted += 2 * u64::from(cfg.requests);
        tally.failed += if diverged(&it) {
            tally.attempted
        } else {
            failed_requests(&cfg, &it)
        };
        let (adaptive, adaptive_nanos) = &runs[1];
        rep.put("serve.sim.run_s.baseline", runs[0].1 as f64 / 1e9);
        rep.put("serve.sim.run_s.adaptive", *adaptive_nanos as f64 / 1e9);
        let both = |f: fn(&ServeOutcome) -> u64| (f(&it[0]) + f(&it[1])) as f64;
        let epochs = both(|o| o.epochs);
        let compiles = both(|o| o.compiles);
        rep.put("serve.sim.epochs", epochs);
        rep.put(
            "serve.sim.requests_per_epoch",
            2.0 * f64::from(cfg.requests) / epochs,
        );
        rep.put("serve.sim.compiles", compiles);
        rep.put("serve.sim.evictions", both(|o| o.evictions));
        rep.put(
            "serve.sim.recompile_share",
            both(|o| o.evictions) / compiles,
        );
        let depths: Vec<u32> = it
            .iter()
            .flat_map(|o| o.queue_depth_samples.iter().copied())
            .collect();
        rep.put(
            "serve.sim.queue_depth_mean",
            depths.iter().map(|&d| f64::from(d)).sum::<f64>() / depths.len() as f64,
        );
        rep.put(
            "serve.sim.queue_depth_max",
            f64::from(depths.iter().copied().max().unwrap_or(0)),
        );
        rep.put("serve.sim.loop_deopts", both(|o| o.loop_deopts));
        rep.put("serve.sim.stranded_final", both(|o| o.stranded_final));
        rep.put("serve.sim.shed", both(|o| o.shed.len() as u64));
        rep.put("adapt.loop_deopts", both(|o| o.loop_deopts));
        rep.put("adapt.loop_repatches", both(|o| o.loop_repatches));

        // Two host workers: must change nothing simulated, and (with at
        // most one request dispatched per epoch) little on the host.
        let (twice, nanos) = t.timed("serve.sim.run_jobs2", 1, |_| serve(&cfg, &modes()[1], 2));
        if !same_outcome(adaptive, &twice) {
            eprintln!("serve-fleet: jobs=2 changed a simulated number");
            correct = false;
        }
        rep.put(
            "serve.sim.jobs2_speedup",
            *adaptive_nanos as f64 / nanos as f64,
        );

        let summary = ServeSummary {
            processor: p4.name.clone(),
            tenants: cfg.tenants as u64,
            requests: u64::from(cfg.requests),
            mean_interarrival: cfg.mean_interarrival,
            seed: cfg.seed,
            slot_cycles: cfg.slot_cycles,
            compile_workers: cfg.compile_workers as u64,
            cache_capacity_instrs: cfg.cache_capacity_instrs,
            modes: modes()
                .iter()
                .zip(&it)
                .map(|(m, o)| ModeReport::from_outcome(&m.mode.to_string(), o))
                .collect(),
            chaos: Vec::new(),
        };
        let (text, nanos) = t.timed("serve.report.emit", 0, |_| report::emit(&summary));
        rep.put("serve.report.emit_us", nanos as f64 / 1e3);
        let (parsed, nanos) = t.timed("serve.report.parse", 0, |_| report::parse(&text));
        rep.put("serve.report.parse_us", nanos as f64 / 1e3);
        if parsed.as_ref() != Ok(&summary) {
            return Err("serve report did not round-trip".to_string());
        }

        // One tenant of each program, driven from here: the only view of
        // the VM, heap and memory model under a heap shard that the
        // fleet's public outcome does not give.
        let mut total = MemStats::default();
        let mut last = MemStats::default();
        let (mut warmup_nanos, mut steady_nanos, mut steady_retired) = (0, 0, 0);
        let (mut cycles, mut gc_count, mut gc_cycles) = (0, 0, 0);
        let (mut jit, mut pass) = (0u128, 0u128);
        let (mut compiled, mut prefetches, mut static_sites) = (0, 0, 0);
        let (mut compiled_cycles, mut exec_cycles) = (0, 0);
        let (mut fused, mut pic_hits, mut pic_lookups) = (0, 0, 0);
        // As many calls as a tenant serves requests, rounded up: the heap
        // shards are sized so that a collection comes late in that span.
        let rounds = (cfg.requests as usize).div_ceil(cfg.tenants);
        let compile_us = matrix::drive_compiles(
            t,
            &programs,
            rounds,
            |p| tenant_config(&cfg, p, &PrefetchOptions::adaptive()),
            |vm, calls| {
                let (prev, end) = (&calls[calls.len() - 2], &calls[calls.len() - 1]);
                warmup_nanos += calls[..calls.len() - 1]
                    .iter()
                    .map(|c| c.nanos)
                    .sum::<u64>();
                steady_nanos += end.nanos;
                steady_retired += end.stats.retired_instructions - prev.stats.retired_instructions;
                add_mem(&mut last, &sub_mem(&end.mem, &prev.mem));
                add_mem(&mut total, &end.mem);
                let s = &end.stats;
                cycles += s.cycles;
                gc_count += s.gc_count;
                gc_cycles += s.gc_cycles;
                jit += s.jit_nanos;
                pass += s.prefetch_pass_nanos;
                compiled += s.methods_compiled;
                static_sites += s.static_sites;
                prefetches += vm
                    .reports()
                    .iter()
                    .map(|r| r.total_prefetches as u64)
                    .sum::<u64>();
                for m in &s.per_method {
                    compiled_cycles += m.compiled;
                    exec_cycles += m.compiled + m.interpreted;
                }
                fused += vm.fused_op_count();
                let pic = vm.pic_stats();
                pic_hits += pic.hits;
                pic_lookups += pic.hits + pic.misses;
            },
        );
        rep.put(
            "core.compile_us_per_method",
            matrix::median_or_zero(&compile_us),
        );
        matrix::memsim_layers(
            rep,
            &total,
            cycles,
            &last,
            steady_nanos,
            steady_retired,
            &costs,
        );
        rep.put("vm.warmup_ms", warmup_nanos as f64 / 1e6);
        rep.put("vm.steady_ms", steady_nanos as f64 / 1e6);
        rep.put("vm.jit_ms", jit as f64 / 1e6);
        rep.put("vm.prefetch_pass_ms", pass as f64 / 1e6);
        rep.put(
            "core.pass_share_of_jit",
            matrix::ratio(pass as f64, jit as f64),
        );
        rep.put(
            "vm.compiled_fraction",
            compiled_cycles as f64 / exec_cycles as f64,
        );
        rep.put("vm.fused_ops", fused as f64);
        rep.put(
            "vm.pic_hit_rate",
            matrix::ratio(pic_hits as f64, pic_lookups as f64),
        );
        rep.put("heap.gc_count", gc_count as f64);
        rep.put("heap.gc_cycles", gc_cycles as f64);
        rep.put("core.compiles", compiled as f64);
        rep.put("core.prefetches_inserted", prefetches as f64);
        rep.put("core.static_sites", static_sites as f64);
        Ok(())
    })?;
    matrix::finish_trace(&t, rep)?;
    correct &= tally.failed == 0;
    Ok((correct, tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeConfig {
        ServeConfig {
            tenants: 12,
            requests: 40,
            ..config(7)
        }
    }

    #[test]
    fn the_fleet_is_the_one_the_issue_sizes() {
        let c = config(crate::manifest::TRAFFIC_SEED);
        let d = ServeConfig::default();
        assert_eq!((c.tenants, c.requests, c.size), (120, 1000, Size::Tiny));
        assert_eq!(
            (
                c.mean_interarrival,
                c.slot_cycles,
                c.compile_workers,
                c.cache_capacity_instrs
            ),
            (
                d.mean_interarrival,
                d.slot_cycles,
                d.compile_workers,
                d.cache_capacity_instrs
            )
        );
        assert!(c.chaos.is_none(), "fault-free");
        assert_eq!(modes()[0].mode.to_string(), "BASELINE");
        assert_eq!(modes()[1].mode.to_string(), "ADAPTIVE");
    }

    #[test]
    fn a_clean_iteration_fails_nothing_and_repeats_exactly() {
        let cfg = small();
        let both = |jobs| modes().map(|m| serve(&cfg, &m, jobs));
        let (a, b) = (both(1), both(2));
        assert_eq!(failed_requests(&cfg, &a), 0);
        assert!(!diverged(&a));
        assert!(a.iter().zip(&b).all(|(x, y)| same_outcome(x, y)));
        assert!(a[0].latencies.iter().all(|&l| l > 0));
    }

    #[test]
    fn shed_missing_and_diverged_requests_count_as_failed() {
        let cfg = small();
        let clean = modes().map(|m| serve(&cfg, &m, 1));
        assert_eq!(completed(&clean[1]), 40);
        let mut shed = clean.clone();
        shed[1].shed = vec![3, 9];
        shed[1].latencies[3] = 0;
        shed[1].latencies[9] = 0;
        assert_eq!(failed_requests(&cfg, &shed), 2);
        assert_eq!(completed(&shed[1]), 38);
        let mut missing = clean.clone();
        missing[0].latencies.truncate(30);
        assert_eq!(failed_requests(&cfg, &missing), 10);
        assert!(!same_outcome(&clean[0], &missing[0]));
        let mut other_answer = clean.clone();
        other_answer[1].checksum ^= 1;
        assert!(diverged(&other_answer) && !diverged(&clean));
    }
}
