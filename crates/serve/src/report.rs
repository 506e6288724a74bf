//! `SERVE_summary.json` — the serving simulation's latency and
//! compilation-queue report.
//!
//! Every statistic is an integer computed from simulated quantities
//! (nearest-rank percentiles, floored means, milli-scaled queue depth), so
//! the emitted file is byte-identical for byte-identical simulations —
//! CI compares a fresh run with the committed baseline using `cmp`, no
//! tolerance needed. The two row types' declarations are their schemas
//! ([`spf_trace::record`]); the document envelope is written and read
//! here.

use std::fmt::Write as _;

use spf_trace::json::{self, Str};

use crate::sim::ServeOutcome;

spf_trace::record! {
    /// One prefetch mode's serving statistics. All latency fields are in
    /// simulated cycles. The members with a default are absent from files
    /// written before invalidation went per-loop (`loop_*`) or before the
    /// chaos harness (`stranded`).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ModeReport {
        /// Prefetch mode (display form, e.g. `BASELINE` or `ADAPTIVE`).
        pub mode: String,
        /// Requests served.
        pub completed: u64,
        /// Median request latency.
        pub p50: u64,
        /// 99th-percentile request latency.
        pub p99: u64,
        /// 99.9th-percentile request latency.
        pub p999: u64,
        /// Worst request latency.
        pub max: u64,
        /// Mean request latency, floored.
        pub mean: u64,
        /// Deepest compilation queue observed at any epoch.
        pub queue_depth_max: u32,
        /// Mean compilation-queue depth × 1000, floored (integer so the file
        /// stays byte-comparable).
        pub queue_depth_mean_milli: u64,
        /// Background compilations installed.
        pub compiles: u64,
        /// Code-cache capacity evictions.
        pub evictions: u64,
        /// Full adaptive recompilations across the fleet.
        pub recompiles: u64,
        /// Per-loop invalidations across the fleet.
        #[default = 0]
        pub loop_deopts: u64,
        /// Per-loop repatches (tier-2 re-entries) across the fleet.
        #[default = 0]
        pub loop_repatches: u64,
        /// Loops still stranded (invalidated, never repatched) at run end —
        /// the `deopt-summary` stranding diagnostic made machine-checkable.
        /// Nonzero on a fault-free ADAPTIVE row is the db-blow-up signature.
        #[default = 0]
        pub stranded: u64,
        /// Fleet checksum (must agree across modes).
        pub checksum: i64,
    }
}

/// Nearest-rank percentile: the smallest element with at least
/// `num/den` of the distribution at or below it. `sorted` must be
/// ascending.
pub fn percentile(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (num * n).div_ceil(den).max(1);
    sorted[(rank - 1) as usize]
}

impl ModeReport {
    /// Condenses one simulation run into its report row. Shed requests
    /// never ran, so they are excluded from the latency distribution
    /// (the shed count is reported in the chaos section instead).
    pub fn from_outcome(mode: &str, out: &ServeOutcome) -> ModeReport {
        let shed: std::collections::HashSet<u32> = out.shed.iter().copied().collect();
        let mut sorted: Vec<u64> = out
            .latencies
            .iter()
            .enumerate()
            .filter(|(id, _)| !shed.contains(&(*id as u32)))
            .map(|(_, &l)| l)
            .collect();
        sorted.sort_unstable();
        let depth_sum: u64 = out.queue_depth_samples.iter().map(|&d| u64::from(d)).sum();
        ModeReport {
            mode: mode.to_string(),
            completed: sorted.len() as u64,
            p50: percentile(&sorted, 50, 100),
            p99: percentile(&sorted, 99, 100),
            p999: percentile(&sorted, 999, 1000),
            max: sorted.last().copied().unwrap_or(0),
            mean: if sorted.is_empty() {
                0
            } else {
                sorted.iter().sum::<u64>() / sorted.len() as u64
            },
            queue_depth_max: out.queue_depth_samples.iter().copied().max().unwrap_or(0),
            queue_depth_mean_milli: if out.queue_depth_samples.is_empty() {
                0
            } else {
                depth_sum * 1000 / out.queue_depth_samples.len() as u64
            },
            compiles: out.compiles,
            evictions: out.evictions,
            recompiles: out.recompiles,
            loop_deopts: out.loop_deopts,
            loop_repatches: out.loop_repatches,
            stranded: out.stranded_final,
            checksum: out.checksum,
        }
    }
}

spf_trace::record! {
    /// One prefetch mode's chaos-run statistics: the fault mix that fired,
    /// the degradation it triggered, and what [`crate::verify_recovery`]
    /// measured. Only present when the run injected faults.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ChaosRow {
        /// Prefetch mode (display form).
        pub mode: String,
        /// Fault windows that activated.
        pub faults: u64,
        /// Requests shed by admission control.
        pub shed: u64,
        /// Compile jobs re-queued after missing their deadline.
        pub retries: u64,
        /// Adaptive guard re-arms across the fleet.
        pub rearms: u64,
        /// Loops still stranded at run end (must be 0 after recovery).
        pub stranded_final: u64,
        /// Requests served (non-shed) in the fault run.
        pub completed: u64,
        /// Served-request p99 in the fault run.
        pub p99: u64,
        /// Cycle at which the recovery invariants were checked.
        pub recovery_at: u64,
        /// Base requests arriving after the recovery point.
        pub post_requests: u64,
        /// Post-recovery p99 as milli-ratio of the fault-free run's (1000 =
        /// parity; bounded by [`crate::faults::RECOVERY_P99_RATIO_MILLI`]).
        pub post_p99_ratio_milli: u64,
    }
}

/// The full `SERVE_summary.json`: the configuration that produced the
/// numbers plus one row per mode. Host-only facts (wall-clock) are
/// deliberately absent — two runs that should be bit-identical
/// produce byte-identical files.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeSummary {
    /// Processor model name.
    pub processor: String,
    /// Tenant VM count.
    pub tenants: u64,
    /// Requests in the stream.
    pub requests: u64,
    /// Mean inter-arrival gap in cycles.
    pub mean_interarrival: u64,
    /// Traffic seed.
    pub seed: u64,
    /// Epoch length in cycles.
    pub slot_cycles: u64,
    /// Background compiler workers.
    pub compile_workers: u64,
    /// Shared code-cache capacity in instructions.
    pub cache_capacity_instrs: u64,
    /// One row per prefetch mode, in run order.
    pub modes: Vec<ModeReport>,
    /// One chaos row per mode, in run order; empty for fault-free runs
    /// (and then absent from the emitted file).
    pub chaos: Vec<ChaosRow>,
}

/// Renders the summary as `SERVE_summary.json`.
pub fn emit(s: &ServeSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"spf-serve-summary-v1\",");
    let _ = writeln!(out, "  \"processor\": {},", Str(&s.processor));
    let _ = writeln!(out, "  \"tenants\": {},", s.tenants);
    let _ = writeln!(out, "  \"requests\": {},", s.requests);
    let _ = writeln!(out, "  \"mean_interarrival\": {},", s.mean_interarrival);
    let _ = writeln!(out, "  \"seed\": {},", s.seed);
    let _ = writeln!(out, "  \"slot_cycles\": {},", s.slot_cycles);
    let _ = writeln!(out, "  \"compile_workers\": {},", s.compile_workers);
    let _ = writeln!(
        out,
        "  \"cache_capacity_instrs\": {},",
        s.cache_capacity_instrs
    );
    out.push_str("  \"modes\": [\n");
    rows(&mut out, &s.modes, ModeReport::write);
    if !s.chaos.is_empty() {
        out.push_str(",\n  \"chaos\": [\n");
        rows(&mut out, &s.chaos, ChaosRow::write);
    }
    out.push_str("\n}\n");
    out
}

/// Appends one row per line, comma-separated, and the closing bracket.
fn rows<T>(out: &mut String, rows: &[T], write: fn(&T, &mut String)) {
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        write(row, out);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]");
}

/// Parses a file produced by [`emit`]. Unknown keys are ignored, so
/// future writers can add fields without breaking old readers.
///
/// # Errors
///
/// Returns a message naming the line of the first JSON error, or the
/// first missing or malformed field.
pub fn parse(text: &str) -> Result<ServeSummary, String> {
    let doc = json::parse(text)?;
    let top = ServeSummary {
        processor: doc.str("processor")?.to_string(),
        tenants: doc.opt_num("tenants", 0)?,
        requests: doc.opt_num("requests", 0)?,
        mean_interarrival: doc.opt_num("mean_interarrival", 0)?,
        seed: doc.opt_num("seed", 0)?,
        slot_cycles: doc.opt_num("slot_cycles", 0)?,
        compile_workers: doc.opt_num("compile_workers", 0)?,
        cache_capacity_instrs: doc.opt_num("cache_capacity_instrs", 0)?,
        modes: json::each("modes", doc.arr("modes")?, ModeReport::read)?,
        // Absent from fault-free files.
        chaos: json::each("chaos", doc.opt_arr("chaos")?, ChaosRow::read)?,
    };
    if top.modes.is_empty() {
        return Err("not a SERVE_summary.json: no mode rows".to_string());
    }
    Ok(top)
}

/// Renders the human-readable latency table.
pub fn render(s: &ServeSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} tenants, {} requests, mean gap {} cycles, {} compile workers, \
         cache {} instrs, {}",
        s.tenants,
        s.requests,
        s.mean_interarrival,
        s.compile_workers,
        s.cache_capacity_instrs,
        s.processor
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>12} {:>12} {:>10} {:>7} {:>9} {:>8} {:>7} {:>8} {:>8} {:>7}",
        "mode",
        "p50",
        "p99",
        "p999",
        "mean",
        "qdepth",
        "qmax",
        "compiles",
        "evicted",
        "recomp",
        "loop-inv",
        "loop-rep",
        "strand"
    );
    for m in &s.modes {
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>12} {:>12} {:>10} {:>7} {:>9} {:>8} {:>7} {:>8} {:>8} {:>7}",
            m.mode,
            m.p50,
            m.p99,
            m.p999,
            m.mean,
            format!(
                "{}.{:03}",
                m.queue_depth_mean_milli / 1000,
                m.queue_depth_mean_milli % 1000
            ),
            m.queue_depth_max,
            m.compiles,
            m.evictions,
            m.recompiles,
            m.loop_deopts,
            m.loop_repatches,
            m.stranded,
        );
    }
    if !s.chaos.is_empty() {
        let _ = writeln!(
            out,
            "\nchaos: fault injection active; recovery invariants checked per mode"
        );
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>6} {:>8} {:>7} {:>9} {:>12} {:>9} {:>15}",
            "mode",
            "faults",
            "shed",
            "retries",
            "rearms",
            "stranded",
            "p99",
            "post-req",
            "post-p99-ratio"
        );
        for c in &s.chaos {
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>6} {:>8} {:>7} {:>9} {:>12} {:>9} {:>15}",
                c.mode,
                c.faults,
                c.shed,
                c.retries,
                c.rearms,
                c.stranded_final,
                c.p99,
                c.post_requests,
                format!(
                    "{}.{:03}",
                    c.post_p99_ratio_milli / 1000,
                    c.post_p99_ratio_milli % 1000
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeSummary {
        ServeSummary {
            processor: "Pentium 4".to_string(),
            tenants: 120,
            requests: 600,
            mean_interarrival: 20_000,
            seed: 99,
            slot_cycles: 100_000,
            compile_workers: 2,
            cache_capacity_instrs: 4096,
            modes: vec![
                ModeReport {
                    mode: "BASELINE".to_string(),
                    completed: 600,
                    p50: 1_000,
                    p99: 9_000,
                    p999: 20_000,
                    max: 30_000,
                    mean: 2_000,
                    queue_depth_max: 7,
                    queue_depth_mean_milli: 1_250,
                    compiles: 40,
                    evictions: 3,
                    recompiles: 0,
                    loop_deopts: 0,
                    loop_repatches: 0,
                    stranded: 0,
                    checksum: -12345,
                },
                ModeReport {
                    mode: "ADAPTIVE".to_string(),
                    completed: 600,
                    p50: 900,
                    p99: 8_000,
                    p999: 18_000,
                    max: 28_000,
                    mean: 1_800,
                    queue_depth_max: 9,
                    queue_depth_mean_milli: 1_500,
                    compiles: 55,
                    evictions: 6,
                    recompiles: 2,
                    loop_deopts: 4,
                    loop_repatches: 3,
                    stranded: 1,
                    checksum: -12345,
                },
            ],
            chaos: Vec::new(),
        }
    }

    fn sample_with_chaos() -> ServeSummary {
        let mut s = sample();
        s.chaos = vec![ChaosRow {
            mode: "ADAPTIVE".to_string(),
            faults: 6,
            shed: 12,
            retries: 3,
            rearms: 5,
            stranded_final: 0,
            completed: 588,
            p99: 9_500,
            recovery_at: 4_000_000,
            post_requests: 80,
            post_p99_ratio_milli: 1_150,
        }];
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50, 100), 50);
        assert_eq!(percentile(&v, 99, 100), 99);
        assert_eq!(percentile(&v, 999, 1000), 100);
        assert_eq!(percentile(&v, 100, 100), 100);
        assert_eq!(percentile(&[42], 50, 100), 42);
        assert_eq!(percentile(&[], 50, 100), 0);
    }

    #[test]
    fn emit_parse_round_trip() {
        let s = sample();
        let text = emit(&s);
        let back = parse(&text).expect("round trip");
        assert_eq!(s, back);
    }

    #[test]
    fn chaos_section_round_trips() {
        let s = sample_with_chaos();
        let text = emit(&s);
        assert!(text.contains("\"chaos\": ["));
        let back = parse(&text).expect("round trip");
        assert_eq!(s, back);
    }

    #[test]
    fn fault_free_summary_has_no_chaos_section() {
        assert!(!emit(&sample()).contains("chaos"));
    }

    #[test]
    fn pre_chaos_mode_rows_parse_with_stranded_defaulted() {
        // A file written before the stranded field existed.
        let text = emit(&sample())
            .replace(", \"stranded\": 0", "")
            .replace(", \"stranded\": 1", "");
        let back = parse(&text).expect("backward compatible");
        assert_eq!(back.modes[0].stranded, 0);
        assert_eq!(back.modes[1].stranded, 0, "missing field defaults to 0");
    }

    #[test]
    fn pre_loop_mode_rows_parse_with_loop_fields_defaulted() {
        // A file written before invalidation went per-loop.
        let text = emit(&sample())
            .replace(", \"loop_deopts\": 0, \"loop_repatches\": 0", "")
            .replace(", \"loop_deopts\": 4, \"loop_repatches\": 3", "");
        let back = parse(&text).expect("backward compatible");
        assert_eq!(back.modes[0].loop_deopts, 0);
        assert_eq!(back.modes[1].loop_deopts, 0, "missing field defaults to 0");
        assert_eq!(back.modes[1].loop_repatches, 0);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let text = emit(&sample()).replace(
            "\"tenants\": 120,",
            "\"tenants\": 120,\n  \"novel_future_field\": 7,",
        );
        let back = parse(&text).expect("forward compatible");
        assert_eq!(back, sample());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("hello world").is_err());
        assert!(parse("{\"processor\": \"x\"}").is_err(), "no mode rows");
    }

    #[test]
    fn render_mentions_every_mode() {
        let table = render(&sample());
        assert!(table.contains("BASELINE"));
        assert!(table.contains("ADAPTIVE"));
        assert!(table.contains("120 tenants"));
    }
}
