//! `TRACE_summary.jsonl` — the per-site effectiveness record of a traced
//! run, and the rendering behind the `spf-trace-report` CLI.
//!
//! One JSON object per prefetch site per line: [`SummaryRow`]'s
//! declaration is the schema ([`crate::record`]).

use std::fmt::Write as _;

use crate::attribution::Attribution;
use crate::json;
use crate::site::{SiteInfo, SiteKind, SiteTable};

crate::record! {
    /// One prefetch site's effectiveness in one run.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct SummaryRow {
        /// The run key, `workload/mode/processor`.
        pub run: String,
        /// Site ID within the run.
        pub site: u32,
        /// Method name of the site.
        pub method: String,
        /// Block index of the site.
        pub block: u32,
        /// Instruction index within the block.
        pub index: u32,
        /// Innermost loop header block, or -1 if the site is not in a loop.
        pub loop_header: i64,
        /// Site kind (display form of [`SiteKind`]).
        pub kind: String,
        /// Compilation generation of the body containing the site (0 unless
        /// adaptive reprofiling recompiled the method; absent in summaries
        /// written before it existed).
        #[default = 0]
        pub generation: u32,
        /// Prefetches issued (software + guarded).
        pub issued: u64,
        /// Useful: settled before first use, or line already resident.
        pub useful: u64,
        /// Too early: evicted before use, or never demanded.
        pub too_early: u64,
        /// Too late: first use waited on the in-flight fill.
        pub too_late: u64,
        /// Dropped on a DTLB miss.
        pub dropped: u64,
        /// Guarded loads issued from this site.
        pub guarded_issued: u64,
        /// Guarded loads that primed a missing DTLB entry.
        pub guarded_tlb_primed: u64,
    }
}

impl SummaryRow {
    /// `method@bN.i` — the site's position.
    pub fn location(&self) -> String {
        format!("{}@b{}.{}", self.method, self.block, self.index)
    }
}

/// Builds the per-site rows for one run from its attribution and site
/// table. Sites that never fired are included with zero counters so the
/// report shows planned-but-idle sites; events attributed to
/// [`SiteId::UNKNOWN`](crate::SiteId::UNKNOWN) get a synthetic `?` row.
pub fn rows(run: &str, attr: &Attribution, sites: &SiteTable) -> Vec<SummaryRow> {
    let row = |info: &SiteInfo| {
        let e = attr.site(info.id);
        SummaryRow {
            run: run.to_string(),
            site: info.id.0,
            method: info.method.clone(),
            block: info.block,
            index: info.index,
            loop_header: info.loop_header.map_or(-1, i64::from),
            kind: info.kind.to_string(),
            generation: info.generation,
            issued: e.issued(),
            useful: e.useful(),
            too_early: e.too_early(),
            too_late: e.too_late(),
            dropped: e.dropped(),
            guarded_issued: e.guarded_issued,
            guarded_tlb_primed: e.guarded_tlb_primed,
        }
    };
    let mut out: Vec<SummaryRow> = sites.iter().map(row).collect();
    for (id, e) in &attr.per_site {
        if sites.get(*id).is_none() && e.issued() > 0 {
            let unknown = SiteInfo::new("?", 0, 0, 0, None, SiteKind::Unknown, 0);
            out.push(row(&SiteInfo { id: *id, ..unknown }));
        }
    }
    out
}

/// Renders rows as `TRACE_summary.jsonl` (one object per line).
pub fn emit(rows: &[SummaryRow]) -> String {
    let mut s = String::new();
    for r in rows {
        r.write(&mut s);
        s.push('\n');
    }
    s
}

/// Parses a file produced by [`emit`] back into its rows.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<SummaryRow>, String> {
    json::lines(text, |v| SummaryRow::read(v).map(Some))
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.0}%", part as f64 * 100.0 / whole as f64)
    }
}

/// Renders the per-site effectiveness table for one summary file.
pub fn render(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    let mut last_run = "";
    let mut totals = [0u64; 5];
    for r in rows {
        if r.run != last_run {
            if !last_run.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "== {} ==", r.run);
            let _ = writeln!(
                out,
                "{:<28} {:<10} {:>7} {:>8} {:>10} {:>9} {:>8} {:>8}",
                "site", "kind", "loop", "issued", "useful", "too-early", "too-late", "dropped"
            );
            last_run = &r.run;
        }
        let loop_col = if r.loop_header < 0 {
            "-".to_string()
        } else {
            format!("b{}", r.loop_header)
        };
        let gen_col = if r.generation == 0 {
            String::new()
        } else {
            format!(" g{}", r.generation)
        };
        let _ = writeln!(
            out,
            "{:<28} {:<10} {:>7} {:>8} {:>4} {:>5} {:>4} {:>4} {:>4} {:>3} {:>4} {:>3}",
            format!("s{} {}{}", r.site, r.location(), gen_col),
            r.kind,
            loop_col,
            r.issued,
            r.useful,
            pct(r.useful, r.issued),
            r.too_early,
            pct(r.too_early, r.issued),
            r.too_late,
            pct(r.too_late, r.issued),
            r.dropped,
            pct(r.dropped, r.issued),
        );
        totals[0] += r.issued;
        totals[1] += r.useful;
        totals[2] += r.too_early;
        totals[3] += r.too_late;
        totals[4] += r.dropped;
    }
    let _ = writeln!(
        out,
        "\ntotal: {} sites, {} issued ({} useful, {} too-early, {} too-late, {} dropped)",
        rows.len(),
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::attribute;
    use crate::event::{SiteId, TraceEvent};

    fn sample_rows() -> Vec<SummaryRow> {
        let mut sites = SiteTable::new();
        sites.register(SiteInfo::new(
            "findInMemory",
            2,
            4,
            1,
            Some(4),
            SiteKind::Swpf,
            0,
        ));
        sites.register(SiteInfo::new(
            "findInMemory",
            2,
            4,
            2,
            None,
            SiteKind::Guarded,
            1,
        ));
        let evs = vec![
            TraceEvent::SwpfIssued {
                site: SiteId(0),
                line: 0x100,
                now: 0,
            },
            TraceEvent::SwpfFill {
                site: SiteId(0),
                line: 0x100,
                now: 0,
                ready_at: 200,
            },
            TraceEvent::PrefetchUsed {
                site: SiteId(0),
                line: 0x100,
                now: 300,
                wait: 0,
            },
        ];
        rows("db/INTER/Pentium 4", &attribute(&evs), &sites)
    }

    #[test]
    fn rows_cover_idle_sites() {
        let rows = sample_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].issued, 1);
        assert_eq!(rows[0].useful, 1);
        assert_eq!(rows[1].issued, 0, "idle site still listed");
        assert_eq!(rows[1].loop_header, -1);
    }

    #[test]
    fn unknown_site_gets_synthetic_row() {
        let evs = vec![TraceEvent::SwpfIssued {
            site: SiteId::UNKNOWN,
            line: 0,
            now: 0,
        }];
        let rows = rows("t", &attribute(&evs), &SiteTable::new());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].method, "?");
        assert_eq!(rows[0].issued, 1);
    }

    #[test]
    fn emit_parse_round_trip() {
        let rows = sample_rows();
        let parsed = parse(&emit(&rows)).unwrap();
        assert_eq!(parsed, rows);
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        assert!(parse("{\"run\": \"db\", \"site\": 0}").is_err());
    }

    #[test]
    fn render_names_each_run_and_site() {
        let table = render(&sample_rows());
        assert!(table.contains("== db/INTER/Pentium 4 =="));
        assert!(table.contains("findInMemory@b4.1"));
    }
}
