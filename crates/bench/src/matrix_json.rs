//! `BENCH_matrix.json` — a machine-readable record of one matrix sweep.
//!
//! The emitter writes one JSON object per cell on its own line (so a
//! drifted cell is one changed line of `git diff`); the parser reads any
//! JSON document of that schema through [`spf_trace::json`]. A cell's
//! schema is [`CellSummary`]'s declaration ([`spf_trace::record`]).

use spf_trace::json;
use spf_workloads::Size;

use crate::matrix::CellResult;

spf_trace::record! {
    /// The per-cell numbers recorded in `BENCH_matrix.json`. The members
    /// with a default are absent from files older than the counter.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct CellSummary {
        /// Workload name.
        pub name: String,
        /// Prefetch mode (display form, e.g. `INTER+INTRA`).
        pub mode: String,
        /// Processor name.
        pub processor: String,
        /// Best steady-state simulated cycles.
        pub best_cycles: u64,
        /// Retired instructions in the best run.
        pub retired: u64,
        /// Full adaptive recompilations (zero outside the adaptive modes).
        #[default = 0]
        pub recompiles: u64,
        /// Per-loop invalidations (zero outside the adaptive modes).
        #[default = 0]
        pub loop_deopts: u64,
        /// Per-loop repatches (zero outside the adaptive modes).
        #[default = 0]
        pub loop_repatches: u64,
        /// Recompilations that re-agreed on prefetchable strides.
        #[default = 0]
        pub reagreed: u64,
        /// Deterministic inspection cycles charged by the compile-time cost
        /// model (zero under BASELINE).
        #[default = 0]
        pub inspection_cycles: u64,
        /// Always 0; kept so the committed `BENCH_baseline.json` lines stay
        /// byte-identical, until ROADMAP 4(C).
        #[default = 0]
        pub static_sites: u64,
        /// The workload's checksum.
        pub checksum: i32,
    }
}

impl From<&CellResult> for CellSummary {
    fn from(r: &CellResult) -> Self {
        let m = &r.measurement;
        CellSummary {
            name: m.name.clone(),
            mode: m.mode.to_string(),
            processor: m.processor.clone(),
            best_cycles: m.best_cycles,
            retired: m.retired,
            recompiles: m.recompiles,
            loop_deopts: m.loop_deopts,
            loop_repatches: m.loop_repatches,
            reagreed: m.reagreed,
            inspection_cycles: m.inspection_cycles,
            static_sites: m.static_sites,
            checksum: m.checksum,
        }
    }
}

/// Renders a sweep as `BENCH_matrix.json`: simulated cell rows in a
/// `size` envelope, so a sweep writes the same bytes on any host.
///
/// `_jobs` and `_total_wall_nanos` are ignored; `benchmark/src/matrix.rs:774`
/// still passes them (ROADMAP 4(B)).
pub fn emit(results: &[CellResult], size: Size, _jobs: usize, _total_wall_nanos: u128) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"size\": \"{size:?}\",\n"));
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    ");
        CellSummary::from(r).write(&mut s);
        s.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a file produced by [`emit`] back into its cells. Members the
/// declaration does not know, at the top level or in a cell, are ignored.
///
/// # Errors
///
/// Returns a message naming the line of the first JSON error, or the
/// first cell with a missing or malformed field.
pub fn parse(text: &str) -> Result<Vec<CellSummary>, String> {
    json::each("cells", json::parse(text)?.arr("cells")?, CellSummary::read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Measurement;
    use spf_core::PrefetchMode;
    use spf_memsim::MemStats;

    fn sample(name: &str, mode: PrefetchMode, cycles: u64) -> CellResult {
        CellResult {
            measurement: Measurement {
                name: name.to_string(),
                mode,
                processor: "Pentium 4".to_string(),
                best_cycles: cycles,
                retired: 1000,
                mem: MemStats::default(),
                compiled_fraction: 0.5,
                jit_fraction: 0.1,
                prefetch_pass_fraction: 0.2,
                prefetches_inserted: 3,
                stride_check: Default::default(),
                deopts: 0,
                recompiles: 0,
                loop_deopts: 0,
                loop_repatches: 0,
                reagreed: 0,
                inspection_cycles: 160,
                static_sites: 0,
                checksum: 42,
            },
            wall_nanos: 12_345,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let results = vec![
            sample("db", PrefetchMode::Off, 100),
            sample("db", PrefetchMode::InterIntra, 80),
        ];
        let text = emit(&results, Size::Tiny, 4, 99_999);
        let cells = parse(&text).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].name, "db");
        assert_eq!(cells[0].mode, "BASELINE");
        assert_eq!(cells[1].mode, "INTER+INTRA");
        assert_eq!(cells[1].best_cycles, 80);
        assert_eq!(cells[0].inspection_cycles, 160);
        assert_eq!(cells[0].static_sites, 0);
        assert_eq!(cells[0].checksum, 42);
    }

    #[test]
    fn parse_defaults_cost_model_fields_to_zero() {
        // A file emitted before the compile-time cost model existed.
        let text = emit(&[sample("db", PrefetchMode::Off, 100)], Size::Tiny, 1, 9)
            .replace(", \"inspection_cycles\": 160, \"static_sites\": 0", "");
        let cells = parse(&text).unwrap();
        assert_eq!(cells[0].inspection_cycles, 0);
        assert_eq!(cells[0].static_sites, 0);
    }

    #[test]
    fn parse_defaults_loop_fields_to_zero() {
        // A file emitted before invalidation went per-loop.
        let text = emit(&[sample("db", PrefetchMode::Off, 100)], Size::Tiny, 1, 9)
            .replace(", \"loop_deopts\": 0, \"loop_repatches\": 0", "");
        let cells = parse(&text).unwrap();
        assert_eq!(cells[0].loop_deopts, 0);
        assert_eq!(cells[0].loop_repatches, 0);
    }

    #[test]
    fn parse_rejects_malformed_cells() {
        let text = "{\"name\": \"db\", \"mode\": \"BASELINE\"}";
        assert!(parse(text).is_err());
    }
}
