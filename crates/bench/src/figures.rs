//! Regeneration of every table and figure of the paper's evaluation (§4).
//!
//! | artifact | paper content | function |
//! |---|---|---|
//! | Table 1 / Fig. 5 | loads + LDG of `findInMemory` | [`table1_and_fig5`] |
//! | Table 2 | processor parameters | [`table2`] |
//! | Table 3 | benchmark descriptions + compiled-code % | [`ExperimentData::table3`] |
//! | Fig. 6 | speedups on the Pentium 4 | [`ExperimentData::fig6`] |
//! | Fig. 7 | speedups on the Athlon MP | [`ExperimentData::fig7`] |
//! | Fig. 8 | L1 load MPI on the Pentium 4 | [`ExperimentData::fig8`] |
//! | Fig. 9 | L2 load MPI on the Pentium 4 | [`ExperimentData::fig9`] |
//! | Fig. 10 | DTLB load MPI on the Pentium 4 | [`ExperimentData::fig10`] |
//! | Fig. 11 | compile-time overheads | [`ExperimentData::fig11`] |

use std::fmt::Write as _;

use spf_core::{PrefetchMode, PrefetchOptions};
use spf_memsim::ProcessorConfig;
use spf_trace::NoopSink;
use spf_workloads::Size;

use crate::runner::Measurement;

/// All measurements needed for Tables 3 and Figures 6–11.
#[derive(Clone, Debug)]
pub struct ExperimentData {
    measurements: Vec<Measurement>,
    suites: Vec<(String, String, String)>, // name, description, suite
}

/// Assembles [`ExperimentData`] from already-collected measurements (e.g.
/// the parallel matrix runner's output), attaching Table 3 metadata from
/// the workload registry.
pub fn from_measurements(measurements: Vec<Measurement>) -> ExperimentData {
    let suites = spf_workloads::all()
        .into_iter()
        .filter(|s| measurements.iter().any(|m| m.name == s.name))
        .map(|s| {
            (
                s.name.to_string(),
                s.description.to_string(),
                s.suite.to_string(),
            )
        })
        .collect();
    ExperimentData {
        measurements,
        suites,
    }
}

impl ExperimentData {
    /// All measurements.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    fn get(&self, name: &str, proc: &str, mode: PrefetchMode) -> Option<&Measurement> {
        self.measurements
            .iter()
            .find(|m| m.name == name && m.processor == proc && m.mode == mode)
    }

    /// Names of the measured workloads, in Table 3 order.
    pub fn names(&self) -> Vec<&str> {
        self.suites.iter().map(|(n, ..)| n.as_str()).collect()
    }

    fn speedup_figure(&self, proc: &str, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{title}");
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:>14} {:>11} {:>13}",
            "program", "INTER", "INTER+INTRA", "ADAPTIVE", "STATIC-FIRST"
        );
        for name in self.names() {
            let base = self.get(name, proc, PrefetchMode::Off);
            let inter = self.get(name, proc, PrefetchMode::Inter);
            let both = self.get(name, proc, PrefetchMode::InterIntra);
            if let (Some(base), Some(inter), Some(both)) = (base, inter, both) {
                let relative = |mode| {
                    self.get(name, proc, mode).map_or("-".to_string(), |a| {
                        format!("{:>+.1}%", (a.speedup_vs(base) - 1.0) * 100.0)
                    })
                };
                let _ = writeln!(
                    s,
                    "{:<12} {:>+9.1}% {:>+13.1}% {:>11} {:>13}",
                    name,
                    (inter.speedup_vs(base) - 1.0) * 100.0,
                    (both.speedup_vs(base) - 1.0) * 100.0,
                    relative(PrefetchMode::Adaptive),
                    relative(PrefetchMode::StaticFirst)
                );
            }
        }
        s
    }

    /// Figure 6: speedup ratios on the Pentium 4.
    pub fn fig6(&self) -> String {
        self.speedup_figure(
            "Pentium 4",
            "Figure 6: speedup ratios on the Pentium 4 (baseline = no stride prefetching)",
        )
    }

    /// Figure 7: speedup ratios on the Athlon MP.
    pub fn fig7(&self) -> String {
        self.speedup_figure(
            "Athlon MP",
            "Figure 7: speedup ratios on the Athlon MP (baseline = no stride prefetching)",
        )
    }

    fn mpi_figure(&self, title: &str, metric: impl Fn(&Measurement) -> f64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{title}");
        let _ = writeln!(
            s,
            "{:<12} {:>12} {:>12}",
            "program", "BASELINE", "INTER+INTRA"
        );
        for name in self.names() {
            let base = self.get(name, "Pentium 4", PrefetchMode::Off);
            let both = self.get(name, "Pentium 4", PrefetchMode::InterIntra);
            if let (Some(base), Some(both)) = (base, both) {
                let _ = writeln!(
                    s,
                    "{:<12} {:>12.5} {:>12.5}",
                    name,
                    metric(base),
                    metric(both)
                );
            }
        }
        s
    }

    /// Figure 8: L1 cache load MPIs on the Pentium 4.
    pub fn fig8(&self) -> String {
        self.mpi_figure("Figure 8: L1 cache load MPIs on the Pentium 4", |m| {
            m.mem.l1_load_mpi(m.retired)
        })
    }

    /// Figure 9: L2 cache load MPIs on the Pentium 4.
    pub fn fig9(&self) -> String {
        self.mpi_figure("Figure 9: L2 cache load MPIs on the Pentium 4", |m| {
            m.mem.l2_load_mpi(m.retired)
        })
    }

    /// Figure 10: DTLB load MPIs on the Pentium 4.
    pub fn fig10(&self) -> String {
        self.mpi_figure("Figure 10: DTLB load MPIs on the Pentium 4", |m| {
            m.mem.dtlb_load_mpi(m.retired)
        })
    }

    /// Figure 11: prefetch-pass compile time relative to total JIT
    /// compilation time, and JIT time relative to total execution (Pentium
    /// 4, INTER+INTRA, warm-up phase).
    pub fn fig11(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 11: compilation time for prefetching and total JIT compilation time"
        );
        let _ = writeln!(
            s,
            "{:<12} {:>22} {:>22}",
            "program", "prefetch-pass/JIT (%)", "JIT/total time (%)"
        );
        for name in self.names() {
            if let Some(m) = self.get(name, "Pentium 4", PrefetchMode::InterIntra) {
                let _ = writeln!(
                    s,
                    "{:<12} {:>21.2}% {:>21.2}%",
                    name,
                    m.prefetch_pass_fraction * 100.0,
                    m.jit_fraction * 100.0
                );
            }
        }
        s
    }

    /// Table 3: benchmark descriptions and the fraction of execution time
    /// spent in compiled code (Pentium 4, baseline).
    pub fn table3(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Table 3: benchmarks (SPECjvm98 and JavaGrande v2.0 Section 3)"
        );
        let _ = writeln!(
            s,
            "{:<12} {:<36} {:<11} {:>16}",
            "program", "description", "suite", "compiled code %"
        );
        for (name, desc, suite) in &self.suites {
            if let Some(m) = self.get(name, "Pentium 4", PrefetchMode::Off) {
                let _ = writeln!(
                    s,
                    "{:<12} {:<36} {:<11} {:>15.1}%",
                    name,
                    desc,
                    suite,
                    m.compiled_fraction * 100.0
                );
            }
        }
        s
    }

    /// Static-vs-inspected stride cross-check, one row per (workload,
    /// analysing mode) on the Pentium 4: how many LDG candidates the
    /// affine analysis proved a stride for, how many object inspection
    /// derived one for, and how often they agree where both speak. Not a
    /// paper artifact — it quantifies the paper's premise that inspection
    /// covers access patterns static analysis cannot, and (per mode)
    /// where STATIC-FIRST's proofs relieve the inspector. BASELINE runs
    /// no analysis and is omitted.
    pub fn stride_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Stride sources: statically proven vs derived by object inspection"
        );
        let _ = writeln!(
            s,
            "{:<12} {:<12} {:>7} {:>10} {:>6} {:>9} {:>12} {:>9} {:>7}",
            "program",
            "mode",
            "static",
            "inspected",
            "agree",
            "disagree",
            "static-only",
            "dyn-only",
            "agree%"
        );
        for name in self.names() {
            for mode in [
                PrefetchMode::Inter,
                PrefetchMode::InterIntra,
                PrefetchMode::Adaptive,
                PrefetchMode::StaticFirst,
            ] {
                if let Some(m) = self.get(name, "Pentium 4", mode) {
                    let c = &m.stride_check;
                    let rate = match c.agreement_rate() {
                        Some(r) => format!("{:.0}%", r * 100.0),
                        None => "-".to_string(),
                    };
                    let _ = writeln!(
                        s,
                        "{:<12} {:<12} {:>7} {:>10} {:>6} {:>9} {:>12} {:>9} {:>7}",
                        name,
                        m.mode.to_string(),
                        c.static_total(),
                        c.inspected_total(),
                        c.agree,
                        c.disagree,
                        c.static_only,
                        c.dynamic_only,
                        rate
                    );
                }
            }
        }
        s
    }

    /// Compile-time cost model per workload (Pentium 4): deterministic
    /// inspection cycles under INTER+INTRA, ADAPTIVE, and STATIC-FIRST,
    /// plus the statically proved sites STATIC-FIRST excluded from the
    /// record set. Not a paper artifact — it quantifies what static-first
    /// compilation saves at compile time.
    pub fn static_first_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Static-first compile-time cost: inspection cycles by mode"
        );
        let _ = writeln!(
            s,
            "{:<12} {:>14} {:>12} {:>14} {:>13} {:>8}",
            "program", "INTER+INTRA", "ADAPTIVE", "STATIC-FIRST", "static-sites", "saved%"
        );
        for name in self.names() {
            let ii = self.get(name, "Pentium 4", PrefetchMode::InterIntra);
            let ad = self.get(name, "Pentium 4", PrefetchMode::Adaptive);
            let sf = self.get(name, "Pentium 4", PrefetchMode::StaticFirst);
            if let (Some(ii), Some(ad), Some(sf)) = (ii, ad, sf) {
                let saved = if ii.inspection_cycles == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{:.0}%",
                        (1.0 - sf.inspection_cycles as f64 / ii.inspection_cycles as f64) * 100.0
                    )
                };
                let _ = writeln!(
                    s,
                    "{:<12} {:>14} {:>12} {:>14} {:>13} {:>8}",
                    name,
                    ii.inspection_cycles,
                    ad.inspection_cycles,
                    sf.inspection_cycles,
                    sf.static_sites,
                    saved
                );
            }
        }
        s
    }

    /// Adaptive-reprofiling counters per workload (Pentium 4, ADAPTIVE):
    /// how often compiled loops had their prefetch sites invalidated and
    /// patched to no-ops, how often those loops were repatched through
    /// tier-2 re-entry, how often the whole method was recompiled, and how
    /// often re-inspection re-agreed on prefetchable strides. Not a paper
    /// artifact — it characterizes the guard machinery this reproduction
    /// adds on top of the paper's one-shot inspection. The `deopts` column
    /// stays for continuity with older runs; it is always 0 now that
    /// invalidation is per-loop.
    pub fn adaptive_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Adaptive reprofiling: per-loop invalidations, repatches, and re-agreements"
        );
        let _ = writeln!(
            s,
            "{:<12} {:>8} {:>9} {:>9} {:>12} {:>10}",
            "program", "deopts", "loop-inv", "loop-rep", "recompiles", "reagreed"
        );
        for name in self.names() {
            if let Some(m) = self.get(name, "Pentium 4", PrefetchMode::Adaptive) {
                let _ = writeln!(
                    s,
                    "{:<12} {:>8} {:>9} {:>9} {:>12} {:>10}",
                    name, m.deopts, m.loop_deopts, m.loop_repatches, m.recompiles, m.reagreed
                );
            }
        }
        s
    }
}

/// Table 2: parameters related to prefetching on the two processors.
pub fn table2() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 2: prefetch-related processor parameters");
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>13} {:>8} {:>13} {:>13}",
        "Processor", "L1 (KB)", "L1 line (B)", "L2 (KB)", "L2 line (B)", "#DTLB entries"
    );
    for cfg in crate::matrix::processors() {
        let _ = writeln!(s, "{}", cfg.table2_row());
    }
    s
}

/// Table 1 + Figure 5: the load instructions of jess's `findInMemory` and
/// its load dependence graph, regenerated by compiling the method with live
/// heap data and rendering the per-loop report.
pub fn table1_and_fig5() -> String {
    let spec = spf_workloads::all()
        .into_iter()
        .find(|s| s.name == "jess")
        .expect("jess workload");
    let jess = spec.prepare(Size::Tiny);
    let config = jess.vm_config(&PrefetchOptions::inter_intra());
    let mut vm = jess.vm(config, &ProcessorConfig::pentium4(), NoopSink);
    jess.warm(&mut vm, 2);
    let report = vm
        .reports()
        .iter()
        .find(|r| r.method == "findInMemory")
        .expect("findInMemory compiled");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 1 / Figure 5: load dependence graph of findInMemory()"
    );
    for lr in &report.loops {
        let _ = writeln!(
            s,
            "loop at {} (depth {}): {} nodes, {} edges",
            lr.header, lr.depth, lr.ldg_nodes, lr.ldg_edges
        );
        s.push_str(&lr.ldg_text);
        for p in &lr.prefetches {
            let _ = writeln!(s, "  generated: {} for {} [{}]", p.kind, p.anchor, p.mapped);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunPlan;

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        assert!(t.contains("Pentium 4"), "{t}");
        assert!(t.contains("Athlon MP"), "{t}");
        // P4 row: 8 KB L1, 64 B line, 256 KB L2, 128 B line, 64 entries.
        let p4_line = t.lines().find(|l| l.starts_with("Pentium 4")).unwrap();
        for v in ["8", "64", "256", "128"] {
            assert!(p4_line.contains(v), "{p4_line}");
        }
    }

    #[test]
    fn table1_mentions_the_motivating_loads() {
        let t = table1_and_fig5();
        assert!(t.contains("getfield"), "{t}");
        assert!(t.contains("->"), "ldg edges rendered: {t}");
        assert!(t.contains("spec-load"), "Figure 4 code generated: {t}");
    }

    #[test]
    fn figures_render_for_a_small_grid() {
        let plan = RunPlan {
            size: Size::Tiny,
            warmup_runs: 2,
            measured_runs: 1,
            timing_runs: 1,
        };
        let results = crate::matrix::run_matrix(&plan, 1, |n| n == "db" || n == "compress");
        let data = from_measurements(results.into_iter().map(|r| r.measurement).collect());
        let f6 = data.fig6();
        assert!(f6.contains("db"), "{f6}");
        assert!(f6.contains("compress"), "{f6}");
        let f8 = data.fig8();
        assert!(f8.contains("BASELINE"), "{f8}");
        let f11 = data.fig11();
        assert!(f11.contains("%"), "{f11}");
        let t3 = data.table3();
        assert!(t3.contains("Memory resident database"), "{t3}");
        // db's checksums agree across all ten configurations.
        let db: Vec<_> = data
            .measurements()
            .iter()
            .filter(|m| m.name == "db")
            .collect();
        assert_eq!(db.len(), 10);
        assert!(db.windows(2).all(|w| w[0].checksum == w[1].checksum));
        let at = data.adaptive_table();
        assert!(at.contains("db"), "{at}");
        assert!(at.contains("recompiles"), "{at}");
        // The stride-sources table breaks down per analysing mode.
        let st = data.stride_table();
        assert!(st.contains("STATIC-FIRST"), "{st}");
        assert!(st.contains("INTER+INTRA"), "{st}");
        // The cost-model table shows STATIC-FIRST below INTER+INTRA on a
        // workload with statically provable strides.
        let ct = data.static_first_table();
        assert!(ct.contains("saved%"), "{ct}");
        let sf = |name: &str, mode| data.get(name, "Pentium 4", mode).unwrap();
        use PrefetchMode::{InterIntra, StaticFirst};
        assert!(
            sf("compress", StaticFirst).inspection_cycles
                < sf("compress", InterIntra).inspection_cycles,
            "{ct}"
        );
        assert!(sf("compress", StaticFirst).static_sites > 0, "{ct}");
        assert_eq!(sf("compress", InterIntra).static_sites, 0);
    }
}
