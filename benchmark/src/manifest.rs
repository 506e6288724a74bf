//! What the benchmark measures: the workload table, the metric table, and
//! the two checks that keep them honest — `BENCHMARK.json` is exactly
//! what these tables render to, and the harness is built with the same
//! release profile as the repository it measures.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// Default `--seed`. It feeds every input stream the harness generates
/// (memsim address streams, the heap object graph, code-cache operations,
/// the traffic-generator kernel).
pub const DEFAULT_SEED: u64 = 0x5EED_5E17;

/// Traffic seed of the `serve-fleet` end-to-end run. Pinned rather than
/// taken from `--seed`: simulated latencies move by tens of percent
/// between traffic seeds, and every `sim_*` metric must repeat exactly
/// across the acceptance driver's runs, which differ only in `--seed`.
/// `--traffic-seed` overrides it; the README names the seed held out for
/// claims.
pub const TRAFFIC_SEED: u64 = 0x5EED_5E17;

/// `--seconds` / `run_seconds`: how long one run keeps timing iterations
/// (it always finishes the iteration it is in, and never stops before
/// [`MIN_ITERATIONS`]).
pub const RUN_SECONDS: u64 = 10;

/// Fewest timed iterations a host-clock median is taken over.
pub const MIN_ITERATIONS: usize = 3;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists: which layer does the work.
    pub why: &'static str,
    /// Table-3 programs of a matrix workload; empty for `serve-fleet`.
    pub programs: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "matrix-dispatch",
        why: "jess, mpegaudio, jack, MonteCarlo x 5 modes x 2 processors: at most 0.11 memory accesses per instruction, so interpreter dispatch does the work and a memsim change must not move it",
        programs: &["jess", "mpegaudio", "jack", "MonteCarlo"],
    },
    Workload {
        name: "matrix-memsim",
        why: "javac, MolDyn, mtrt, compress, Search x 5 x 2: 0.13-0.26 accesses per instruction, so the TLB/L1/L2 model does the work; block-batched charging shows here and bypasses matrix-dispatch",
        programs: &["javac", "MolDyn", "mtrt", "compress", "Search"],
    },
    Workload {
        name: "matrix-prefetch",
        why: "db, Euler, RayTracer x 5 x 2: the cells where the paper's pass fires (software_prefetch, guarded_load, TLB priming, per-loop guards); holds the headline INTER+INTRA speedup",
        programs: &["db", "Euler", "RayTracer"],
    },
    Workload {
        name: "serve-fleet",
        why: "120 tenant VMs, 1000 requests, ADAPTIVE timed and BASELINE as reference, jobs=1: the same vm used differently - async compile, code-cache eviction, 1/32 heap shards (the only GC), epoch barriers",
        programs: &[],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads an end-to-end metric is defined on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum On {
    All,
    Matrix,
    Serve,
}

impl On {
    pub fn covers(self, w: &Workload) -> bool {
        match self {
            On::All => true,
            On::Matrix => !w.programs.is_empty(),
            On::Serve => w.programs.is_empty(),
        }
    }
}

/// How far an end-to-end metric may get worse before it is a regression.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// A simulated-clock metric: it repeats exactly, and `--repeat-check`
    /// compares it for equality.
    Exact,
    /// A host-clock metric: this share of the parent's median.
    Share(f64),
    /// Reported, never judged: it moves with the host, not the code.
    Ungated,
}

impl Bound {
    /// The number `BENCHMARK.json` carries. For an exact metric that is
    /// the smallest bound a schema check is sure to take as non-zero.
    ///
    /// # Panics
    ///
    /// Panics for an ungated metric: the contract has no place for one.
    pub fn share(self) -> f64 {
        match self {
            Bound::Exact => 1e-6,
            Bound::Share(s) => s,
            Bound::Ungated => panic!("an ungated metric has no bound to declare"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// Measured with tracing off.
    EndToEnd { bound: Bound, on: On },
    /// Measured by the traced set, from outside the layer. No bound.
    Layer,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Definition, and for a layer metric which end-to-end metric it
    /// should move on which workload.
    pub what: &'static str,
}

const EXACT: Bound = Bound::Exact;

/// Bound of every metric that depends on the host. The issue asked for
/// 10 %; even scaled by the host-speed probe, ten runs on this shared 2-core
/// box spread by up to 13 % (see README, "Noise"), `peak_rss_mb` of
/// `serve-fleet` by 7 %, and the acceptance rule wants a spread of a third
/// of the bound at most.
pub const HOST: Bound = Bound::Share(0.25);

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    on: On,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound, on },
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
        what,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[Metric] = &[
    // ---- end to end -----------------------------------------------------
    e2e("setup_s", "s", Lower, HOST, On::All,
        "median of 3 set-ups, each scaled by the host-speed probe: IR build, predecode, one VM per cell or tenant, traffic generation, and one untimed warm-up iteration at reduced size"),
    e2e("wall_s", "s", Lower, HOST, On::All,
        "median over the timed iterations of wall time x host speed: all cells of the workload, or the fleet's request stream under ADAPTIVE, in seconds of the reference host"),
    e2e("host_speed", "ratio", Higher, Bound::Ungated, On::All,
        "median over the timed iterations of reference probe time / probe time measured beside the iteration; 1 is the reference host. A diagnostic: wall_s / host_speed is about what the clock read"),
    e2e("sim_minstr_per_s", "M/s", Higher, HOST, On::Matrix,
        "(warmup_runs + measured_runs) x sum over cells of retired / wall_s / 1e6, wall_s being the scaled one"),
    e2e("requests_per_s", "1/s", Higher, HOST, On::Serve,
        "requests one timed iteration completed (neither shed nor left unserved) / wall_s"),
    e2e("peak_rss_mb", "MB", Lower, HOST, On::All,
        "VmHWM of the benchmark process at exit"),
    e2e("sim_cycles", "cycles", Lower, EXACT, On::All,
        "sum over cells of best_cycles; on serve-fleet, sum of request latencies over both modes"),
    e2e("sim_speedup_geomean", "ratio", Higher, EXACT, On::All,
        "geomean over (program, processor) of BASELINE / INTER+INTRA best_cycles; on serve-fleet, BASELINE / ADAPTIVE mean latency"),
    e2e("sim_inspection_cycles", "cycles", Lower, EXACT, On::Matrix,
        "sum over cells of the deterministic compile-cost-model inspection cycles"),
    e2e("sim_latency_p50_cycles", "cycles", Lower, EXACT, On::Serve,
        "ADAPTIVE mode median request latency, nearest rank (spf_serve::percentile)"),
    e2e("sim_latency_p99_cycles", "cycles", Lower, EXACT, On::Serve,
        "ADAPTIVE mode p99 request latency; 1000 requests leave ten samples beyond it"),
    e2e("failed_share", "fraction", Lower, EXACT, On::All,
        "failed / attempted operations (cells, or requests)"),
    e2e("paper_sign_agree", "count", Higher, EXACT, On::Matrix,
        "(program, processor) pairs whose INTER+INTRA speedup sign matches the paper's Figs. 6-7 within a 0.5 % dead-band"),
    // ---- set-up and harness: feed setup_s everywhere ----------------------
    layer("workloads.build_ms", "ms", Lower, "building the workload's IR programs; setup_s, all workloads"),
    layer("ir.instrs", "count", Lower, "IR instructions over all methods of those programs"),
    layer("ir.analyses_us", "us", Lower, "CFG + dominators + loop forest + use-def over all methods; setup_s and core compile time"),
    layer("vm.predecode_us", "us", Lower, "Predecoded::new over the workload's programs; setup_s"),
    layer("vm.new_us", "us", Lower, "Vm::from_predecoded summed over cells or tenants; setup_s"),
    layer("bench.matrix_json.emit_us", "us", Lower, "matrix_json::emit of the workload's cells"),
    layer("bench.matrix_json.parse_us", "us", Lower, "matrix_json::parse of that text"),
    layer("bench.harness_overhead_s", "s", Lower, "run_cells wall minus the sum of its cells' wall_nanos; should stay under 1 % of wall_s"),
    layer("bench.tracing_overhead_s", "s", Lower, "wall of the harness's own spanned loop minus wall of run_cells over the same cells; 0 on serve-fleet, where the span wraps the very call the untraced set times"),
    // ---- vm: moves wall_s on matrix-dispatch most, matrix-memsim least ------
    layer("vm.warmup_ms", "ms", Lower, "warm-up calls (interpretation + JIT) summed over cells"),
    layer("vm.steady_ms", "ms", Lower, "measured calls summed over cells"),
    layer("vm.steady_ns_per_instr", "ns", Lower, "steady time / instructions retired in the measured calls"),
    layer("vm.jit_ms", "ms", Lower, "sum of VmStats.jit_nanos"),
    layer("vm.prefetch_pass_ms", "ms", Lower, "sum of VmStats.prefetch_pass_nanos"),
    layer("vm.compiled_fraction", "fraction", Higher, "cycles in compiled code / execution cycles, measured calls"),
    layer("vm.fused_ops", "count", Higher, "superinstructions in installed bodies, summed over VMs"),
    layer("vm.pic_hit_rate", "fraction", Higher, "call-site inline-cache hits / lookups"),
    layer("vm.dispatch_ns_per_instr_est", "ns", Lower, "steady_ns_per_instr minus the memsim estimate per instruction"),
    // ---- memsim, modelled counts (exact): explain sim_cycles ----------------
    layer("memsim.loads", "count", Lower, "demand loads, best run, summed over cells"),
    layer("memsim.stores", "count", Lower, "demand stores"),
    layer("memsim.l1_load_misses", "count", Lower, "L1 demand load misses"),
    layer("memsim.l2_load_misses", "count", Lower, "L2 demand load misses"),
    layer("memsim.dtlb_load_misses", "count", Lower, "DTLB demand load misses"),
    layer("memsim.swpf_issued", "count", Lower, "software prefetches issued"),
    layer("memsim.swpf_dropped_tlb", "count", Lower, "software prefetches cancelled by a DTLB miss"),
    layer("memsim.guarded_loads", "count", Lower, "guarded prefetch loads issued"),
    layer("memsim.hw_prefetch_fills", "count", Lower, "next-line hardware prefetcher fills"),
    layer("memsim.stall_cycles", "cycles", Lower, "memory stall cycles"),
    layer("memsim.stall_share", "fraction", Lower, "stall_cycles / sim_cycles"),
    // ---- memsim, host kernels: move wall_s on matrix-memsim ------------------
    layer("memsim.hit_ns", "ns", Lower, "host time per load, L1-resident seeded stream"),
    layer("memsim.l1miss_ns", "ns", Lower, "host time per load, L2-resident stream"),
    layer("memsim.l2miss_ns", "ns", Lower, "host time per load, random over 256 MiB"),
    layer("memsim.store_ns", "ns", Lower, "host time per store, L2-resident stream"),
    layer("memsim.swpf_ns", "ns", Lower, "host time per software_prefetch; wall_s on matrix-prefetch only"),
    layer("memsim.guarded_ns", "ns", Lower, "host time per guarded_load; wall_s on matrix-prefetch only"),
    layer("memsim.est_share", "fraction", Lower, "sum(count x kernel ns) / vm.steady_ms: the memory model's estimated share of steady time"),
    // ---- heap: moves requests_per_s and p99 on serve-fleet only --------------
    layer("heap.alloc_ns", "ns", Lower, "host time per alloc_object, seeded linked graph"),
    layer("heap.collect_ms", "ms", Lower, "one collect of that graph at a fixed survival rate"),
    layer("heap.moved_objects", "count", Lower, "objects that collection slid"),
    layer("heap.gc_count", "count", Lower, "sum of VmStats.gc_count"),
    layer("heap.gc_cycles", "cycles", Lower, "sum of VmStats.gc_cycles"),
    // ---- core / analysis: move requests_per_s on serve-fleet, and setup_s ----
    layer("core.compile_us_per_method", "us", Lower, "median compile_pending(mid) of an async-compile VM"),
    layer("core.compiles", "count", Lower, "methods compiled"),
    layer("core.prefetches_inserted", "count", Higher, "prefetches the pass inserted"),
    layer("core.static_sites", "count", Higher, "sites proved statically and never inspected"),
    layer("core.pass_share_of_jit", "fraction", Lower, "prefetch_pass_nanos / jit_nanos"),
    layer("core.ldg_build_us", "us", Lower, "median Ldg::build per loop"),
    layer("analysis.scev_us", "us", Lower, "median loop_static_strides per loop"),
    // ---- adapt: moves sim_cycles on matrix-prefetch, p50 on serve-fleet ------
    layer("adapt.loop_deopts", "count", Lower, "per-loop invalidations"),
    layer("adapt.loop_repatches", "count", Lower, "per-loop repatches"),
    layer("adapt.reagreed", "count", Higher, "repatches that re-agreed on a stride"),
    layer("adapt.host_overhead_ratio", "ratio", Lower, "ADAPTIVE / INTER+INTRA cell wall"),
    layer("adapt.cycle_ratio", "ratio", Lower, "ADAPTIVE / INTER+INTRA best_cycles"),
    // ---- trace: explains sim_speedup_geomean ----------------------------------
    layer("trace.overhead_ratio", "ratio", Lower, "run_cells_traced / run_cells wall over the INTER+INTRA cells; guards the zero-cost NoopSink claim"),
    layer("trace.events", "count", Lower, "runtime events of the best runs"),
    layer("trace.lost", "count", Lower, "events the ring dropped"),
    layer("trace.useful_share", "fraction", Higher, "issued prefetches whose fill settled before use, or were redundant"),
    layer("trace.too_early_share", "fraction", Lower, "issued prefetches evicted or never demanded"),
    layer("trace.too_late_share", "fraction", Lower, "issued prefetches the demand access waited on"),
    layer("trace.dropped_share", "fraction", Lower, "issued prefetches cancelled on a DTLB miss"),
    // ---- serve: moves requests_per_s and the percentiles on serve-fleet only --
    layer("serve.sim.run_s.baseline", "s", Lower, "sim::run wall, BASELINE"),
    layer("serve.sim.run_s.adaptive", "s", Lower, "sim::run wall, ADAPTIVE"),
    layer("serve.sim.epochs", "count", Lower, "epoch barriers, both modes"),
    layer("serve.sim.requests_per_epoch", "ratio", Higher, "requests / epochs"),
    layer("serve.sim.compiles", "count", Lower, "background compiles installed, both modes"),
    layer("serve.sim.evictions", "count", Lower, "code-cache evictions, both modes"),
    layer("serve.sim.recompile_share", "fraction", Lower, "evictions / compiles"),
    layer("serve.sim.queue_depth_mean", "count", Lower, "mean compile-queue depth per epoch"),
    layer("serve.sim.queue_depth_max", "count", Lower, "deepest compile queue"),
    layer("serve.sim.loop_deopts", "count", Lower, "per-loop invalidations across the fleet"),
    layer("serve.sim.stranded_final", "count", Lower, "loops invalidated and never repatched at run end"),
    layer("serve.sim.shed", "count", Lower, "requests shed by admission control"),
    layer("serve.sim.jobs2_speedup", "ratio", Higher, "ADAPTIVE wall at jobs=1 / wall at jobs=2"),
    layer("serve.traffic.generate_us", "us", Lower, "traffic::generate of the run's request count"),
    layer("serve.cache.op_ns", "ns", Lower, "host time per code-cache insert / touch / remove, seeded"),
    layer("serve.cache.evictions_per_insert", "ratio", Lower, "victims per insert in that kernel"),
    layer("serve.report.emit_us", "us", Lower, "report::emit of the two-mode summary"),
    layer("serve.report.parse_us", "us", Lower, "report::parse of that text"),
    // ---- self time by layer: spans minus their children -----------------------
    layer("self_s.bench", "s", Lower, "traced run time inside no layer call (harness + spf_bench)"),
    layer("self_s.workloads", "s", Lower, "self time of workloads.* spans"),
    layer("self_s.ir", "s", Lower, "self time of ir.* spans"),
    layer("self_s.vm", "s", Lower, "self time of vm.* spans; includes memsim, heap, core and adapt work done under a vm call"),
    layer("self_s.memsim", "s", Lower, "self time of memsim.* kernel spans"),
    layer("self_s.heap", "s", Lower, "self time of heap.* kernel spans"),
    layer("self_s.core", "s", Lower, "self time of core.* spans"),
    layer("self_s.analysis", "s", Lower, "self time of analysis.* spans"),
    layer("self_s.trace", "s", Lower, "self time of trace.* spans (run_cells_traced)"),
    layer("self_s.serve", "s", Lower, "self time of serve.* spans"),
    layer("self_s.coverage", "fraction", Higher, "sum of the self times / traced wall; 1 within rounding"),
    layer("traced_wall_s", "s", Lower, "wall of the whole traced run"),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

impl Metric {
    /// Whether `BENCHMARK.json` declares the metric. Its schema gives an
    /// end-to-end metric one bound and wants it on every workload and never
    /// zero, so a workload-specific one cannot be listed there, nor the
    /// `host_speed` diagnostic, nor `failed_share`, which is zero whenever
    /// the run is correct and which the result line carries as `attempted`
    /// and `failed`. Those are printed by `run.sh` and judged by
    /// `--repeat-check`.
    pub fn declared(&self) -> bool {
        match self.kind {
            Kind::Layer => true,
            Kind::EndToEnd { bound, on } => {
                on == On::All && bound != Bound::Ungated && self.name != "failed_share"
            }
        }
    }
}

/// Letters, digits, `_`, `.` and `-`; starts with a letter or digit; at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Letters, digits, `_`, `/`, `%`, `.` and `-`; at most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Checks the tables against the contract's limits on names, units and
/// reasons, so a malformed entry stops a run instead of reaching the
/// acceptance driver.
///
/// # Errors
///
/// The first entry outside a limit.
pub fn check_tables() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for name in METRICS
        .iter()
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
    {
        if !valid_name(name) {
            return Err(format!("{name:?} is not a valid name"));
        }
        if !seen.insert(name) {
            return Err(format!("{name} is declared twice"));
        }
    }
    if let Some(m) = METRICS.iter().find(|m| !valid_unit(m.unit)) {
        return Err(format!("{:?} is not a valid unit ({})", m.unit, m.name));
    }
    if let Some(w) = WORKLOADS
        .iter()
        .find(|w| w.why.len() > 200 || w.why.contains('\n'))
    {
        return Err(format!(
            "the reason for {} is not one line of 200 characters",
            w.name
        ));
    }
    Ok(())
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            json::escape(w.why),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<&Metric> = METRICS
        .iter()
        .filter(|m| m.kind != Kind::Layer && m.declared())
        .collect();
    for (i, m) in e2e.iter().enumerate() {
        let Kind::EndToEnd { bound, .. } = m.kind else {
            unreachable!("filtered to end-to-end metrics");
        };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound.share(),
            if i + 1 == e2e.len() { "" } else { "," }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<&Metric> = METRICS.iter().filter(|m| m.kind == Kind::Layer).collect();
    for (i, m) in layers.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 == layers.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `[profile.release]` table of a manifest as sorted `key = value`
/// lines, comments and blank lines dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut out: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    out.sort();
    out
}

/// Fails when the harness's release profile differs from the repository's:
/// path dependencies are compiled with the profile of the workspace that
/// depends on them, so a drifted copy would benchmark a different build.
///
/// # Errors
///
/// A description of the difference, or of the manifest that is missing.
pub fn check_profile_parity(root_manifest: &str, bench_manifest: &str) -> Result<(), String> {
    let root = release_profile(root_manifest);
    let bench = release_profile(bench_manifest);
    if root.is_empty() {
        return Err("root Cargo.toml has no [profile.release] table".to_string());
    }
    if root != bench {
        return Err(format!(
            "release profiles differ: root {root:?} vs benchmark {bench:?}"
        ));
    }
    Ok(())
}

/// Reads a file, naming it in the error.
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The paper's Figs. 6-7 INTER+INTRA speedups in percent, keyed by
/// (program, processor), from `paper_reference.json`.
pub struct PaperReference {
    pub dead_band_percent: f64,
    pub speedup_percent: Vec<(String, String, f64)>,
}

impl PaperReference {
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let dead_band_percent = doc
            .get("dead_band_percent")
            .and_then(Value::as_f64)
            .ok_or("paper_reference: dead_band_percent missing")?;
        let mut speedup_percent = Vec::new();
        let rows = doc
            .get("inter_intra_speedup_percent")
            .and_then(Value::as_obj)
            .ok_or("paper_reference: inter_intra_speedup_percent missing")?;
        for (program, by_proc) in rows {
            let by_proc = by_proc
                .as_obj()
                .ok_or_else(|| format!("paper_reference: {program} is not an object"))?;
            for (proc, v) in by_proc {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("paper_reference: {program}/{proc} is not a number"))?;
                speedup_percent.push((program.clone(), proc.clone(), v));
            }
        }
        Ok(PaperReference {
            dead_band_percent,
            speedup_percent,
        })
    }

    /// -1, 0 or +1: the sign of a speedup in percent, zero inside the
    /// dead-band.
    pub fn sign(&self, percent: f64) -> i8 {
        if percent > self.dead_band_percent {
            1
        } else if percent < -self.dead_band_percent {
            -1
        } else {
            0
        }
    }

    pub fn lookup(&self, program: &str, proc: &str) -> Option<f64> {
        self.speedup_percent
            .iter()
            .find(|(p, q, _)| p == program && q == proc)
            .map(|(_, _, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn repo_file(rel: &str) -> String {
        read(&format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"))).unwrap()
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        check_tables().unwrap();
        assert!(METRICS.iter().all(|m| !m.what.is_empty()));
        for bad in ["", "-x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be refused");
        }
        assert!(valid_name("serve.sim.run_s.baseline") && valid_name("0-a_b.c"));
        assert!(valid_unit("1/s") && valid_unit("M/s") && valid_unit("%"));
        assert!(!valid_unit("per second") && !valid_unit(""));
    }

    #[test]
    fn matrix_workloads_partition_the_twelve_programs() {
        let mut programs: Vec<&str> = WORKLOADS.iter().flat_map(|w| w.programs).copied().collect();
        let mut registry: Vec<&str> = spf_workloads::all().iter().map(|s| s.name).collect();
        assert_eq!(programs.len(), 12, "no program in two workloads");
        programs.sort_unstable();
        registry.sort_unstable();
        assert_eq!(programs, registry);
        let cells = spf_bench::matrix::cells(|_| true).len();
        assert_eq!(cells, 120);
        let ours: usize = WORKLOADS
            .iter()
            .map(|w| spf_bench::matrix::cells(|n| w.programs.contains(&n)).len())
            .sum();
        assert_eq!(ours, cells);
    }

    /// Every metric and workload the harness can print is declared in
    /// `BENCHMARK.json`, and the other way round: the committed file is
    /// byte for byte what the tables render to, and it parses back to the
    /// same names, units, directions and bounds.
    #[test]
    fn benchmark_json_is_what_the_tables_render() {
        let committed = repo_file("BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-manifest > BENCHMARK.json`"
        );
        let doc = json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names = |key: &str| -> BTreeSet<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let declared: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), declared);
        let declared = |layer: bool| -> BTreeSet<String> {
            METRICS
                .iter()
                .filter(|m| (m.kind == Kind::Layer) == layer && m.declared())
                .map(|m| m.name.to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), declared(false));
        assert_eq!(names("per_layer"), declared(true));
        for e in doc.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let m = metric(e.get("name").and_then(Value::as_str).unwrap()).unwrap();
            let Kind::EndToEnd { bound, .. } = m.kind else {
                panic!("{} is not end to end", m.name);
            };
            assert_eq!(e.get("bound").and_then(Value::as_f64), Some(bound.share()));
            assert!(bound.share() > 0.0 && bound.share() <= 0.25);
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                e.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
        }
        assert!(names("end_to_end").contains("setup_s"));
        // What the harness prints and the file cannot hold, by name, so
        // that a metric added to the table lands in the file or in this
        // list and nowhere else.
        let undeclared: Vec<&str> = METRICS
            .iter()
            .filter(|m| !m.declared())
            .map(|m| m.name)
            .collect();
        assert_eq!(
            undeclared,
            [
                "host_speed",
                "sim_minstr_per_s",
                "requests_per_s",
                "sim_inspection_cycles",
                "sim_latency_p50_cycles",
                "sim_latency_p99_cycles",
                "failed_share",
                "paper_sign_agree"
            ]
        );
        assert!(names("per_layer").len() <= 128 && names("end_to_end").len() <= 16);
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn release_profile_matches_the_repository() {
        let root = repo_file("Cargo.toml");
        let bench = repo_file("benchmark/Cargo.toml");
        check_profile_parity(&root, &bench).unwrap();
        assert_eq!(
            release_profile(&root),
            ["codegen-units = 1", "debug = true", "lto = \"thin\""]
        );
        let drifted = bench.replace("lto = \"thin\"", "lto = \"fat\"");
        assert!(check_profile_parity(&root, &drifted).is_err());
        let missing = bench.replace("codegen-units = 1", "");
        assert!(check_profile_parity(&root, &missing).is_err());
        assert!(check_profile_parity("", &bench).is_err());
    }

    #[test]
    fn paper_reference_covers_every_pair_and_signs_use_the_dead_band() {
        let r = PaperReference::parse(&repo_file("benchmark/paper_reference.json")).unwrap();
        assert_eq!(r.dead_band_percent, 0.5);
        assert_eq!(r.speedup_percent.len(), 24);
        for spec in spf_workloads::all() {
            for proc in ["Pentium 4", "Athlon MP"] {
                assert!(
                    r.lookup(spec.name, proc).is_some(),
                    "{} / {proc}",
                    spec.name
                );
            }
        }
        assert_eq!(r.sign(0.5), 0);
        assert_eq!(r.sign(-0.5), 0);
        assert_eq!(r.sign(0.51), 1);
        assert_eq!(r.sign(-2.6), -1);
        assert_eq!(r.lookup("RayTracer", "Athlon MP"), Some(-2.6));
        assert!(PaperReference::parse("{}").is_err());
    }
}
