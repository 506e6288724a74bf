//! `DEOPT_events.jsonl` — the per-cell adaptive-reprofiling event record,
//! and the aggregation behind `spf-trace-report deopt-summary`.
//!
//! Which loops lost their prefetch sites, and whether they got them back,
//! is in the trace stream ([`TraceEvent::LoopInvalidated`],
//! [`TraceEvent::LoopRepatched`], [`TraceEvent::Recompile`]) but scattered
//! across per-run dumps. This module extracts those events per cell,
//! round-trips them through a JSONL file ([`DeoptRow`]'s declaration is
//! its schema, see [`crate::record`]), and aggregates them into one row
//! per cell with a `stranded` column counting loops that were invalidated
//! more often than they were repatched, i.e. loops currently running with
//! their prefetch sites patched out.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::json;

crate::record! {
    /// One adaptive-reprofiling event of one cell (run). The members an
    /// `events_jsonl` line lacks default to `-`.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct DeoptRow {
        /// The run key, `workload/mode/processor`.
        #[default = "-".to_string()]
        pub run: String,
        /// Event tag: `recompile`, `loop_invalidated`, or `loop_repatched`.
        pub tag: String,
        /// Method index in the program.
        pub method: u32,
        /// Loop header block index for per-loop rows (`*` for the
        /// straight-line pseudo-loop), `-` for `recompile` rows.
        #[key = "loop"]
        #[default = "-".to_string()]
        pub loop_header: String,
        /// Compilation generation the event refers to.
        pub generation: u32,
        /// Staleness reason for `loop_invalidated` rows, `-` otherwise.
        #[default = "-".to_string()]
        pub reason: String,
        /// Simulated cycle of the event.
        pub now: u64,
    }
}

fn loop_key(header: u32) -> String {
    if header == u32::MAX {
        "*".to_string()
    } else {
        header.to_string()
    }
}

/// Extracts the adaptive-reprofiling rows of one run from its event
/// stream, in stream order.
pub fn rows(run: &str, events: &[TraceEvent]) -> Vec<DeoptRow> {
    events
        .iter()
        .filter_map(|ev| {
            let (method, lp, generation, reason, now) = match *ev {
                TraceEvent::Recompile {
                    method,
                    generation,
                    now,
                } => (method, "-".to_string(), generation, "-".to_string(), now),
                TraceEvent::LoopInvalidated {
                    method,
                    loop_header,
                    generation,
                    reason,
                    now,
                } => (
                    method,
                    loop_key(loop_header),
                    generation,
                    reason.to_string(),
                    now,
                ),
                TraceEvent::LoopRepatched {
                    method,
                    loop_header,
                    generation,
                    now,
                } => (
                    method,
                    loop_key(loop_header),
                    generation,
                    "-".to_string(),
                    now,
                ),
                _ => return None,
            };
            Some(DeoptRow {
                run: run.to_string(),
                tag: ev.tag().to_string(),
                method,
                loop_header: lp,
                generation,
                reason,
                now,
            })
        })
        .collect()
}

/// Renders rows as `DEOPT_events.jsonl` (one object per line).
pub fn emit(rows: &[DeoptRow]) -> String {
    let mut s = String::new();
    for r in rows {
        r.write(&mut s);
        s.push('\n');
    }
    s
}

/// Parses a file produced by [`emit`] back into its rows. Lines whose tag
/// is not an adaptive-reprofiling event are skipped, so a full
/// `events.jsonl` dump also parses: its rows have no `run` or `loop`
/// field and get `-`.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse(text: &str) -> Result<Vec<DeoptRow>, String> {
    json::lines(text, |v| {
        if !matches!(
            v.str("tag")?,
            "recompile" | "loop_invalidated" | "loop_repatched"
        ) {
            return Ok(None);
        }
        DeoptRow::read(v).map(Some)
    })
}

/// One cell's aggregated adaptive-reprofiling activity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeoptSummary {
    /// The run key, `workload/mode/processor`.
    pub run: String,
    /// Loop invalidations caused by a GC moving objects.
    pub gc_moved: u64,
    /// Loop invalidations caused by the useless-prefetch ratio.
    pub useless_ratio: u64,
    /// Whole-method recompilations.
    pub recompiles: u64,
    /// Per-loop invalidations (prefetch sites patched to no-ops, body
    /// kept live).
    pub loop_invalidated: u64,
    /// Per-loop repatches (stale loops re-inspected in place).
    pub loop_repatched: u64,
    /// Distinct methods with at least one event.
    pub methods: u64,
    /// Loops (keyed method+loop) invalidated more often than repatched —
    /// currently running with their prefetch sites patched out. A nonzero
    /// count on a slow ADAPTIVE cell is the db-blow-up signature.
    pub stranded: u64,
    /// Simulated cycle of the cell's first event.
    pub first_now: u64,
    /// Simulated cycle of the cell's last event.
    pub last_now: u64,
}

/// Aggregates rows into one summary per run, in first-seen run order.
pub fn aggregate(rows: &[DeoptRow]) -> Vec<DeoptSummary> {
    let mut order: Vec<String> = Vec::new();
    let mut by_run: BTreeMap<String, Vec<&DeoptRow>> = BTreeMap::new();
    for r in rows {
        if !by_run.contains_key(&r.run) {
            order.push(r.run.clone());
        }
        by_run.entry(r.run.clone()).or_default().push(r);
    }
    order
        .into_iter()
        .map(|run| {
            let rs = &by_run[&run];
            let mut s = DeoptSummary {
                run,
                gc_moved: 0,
                useless_ratio: 0,
                recompiles: 0,
                loop_invalidated: 0,
                loop_repatched: 0,
                methods: 0,
                stranded: 0,
                first_now: u64::MAX,
                last_now: 0,
            };
            // (invalidations, repatches) per (method, loop), in key order.
            let mut per_loop: BTreeMap<(u32, String), (u64, u64)> = BTreeMap::new();
            let mut methods: BTreeMap<u32, ()> = BTreeMap::new();
            for r in rs {
                methods.insert(r.method, ());
                let key = (r.method, r.loop_header.clone());
                match r.tag.as_str() {
                    "recompile" => s.recompiles += 1,
                    "loop_invalidated" => {
                        s.loop_invalidated += 1;
                        per_loop.entry(key).or_default().0 += 1;
                        match r.reason.as_str() {
                            "gc-moved" => s.gc_moved += 1,
                            "useless-ratio" => s.useless_ratio += 1,
                            _ => {}
                        }
                    }
                    "loop_repatched" => {
                        s.loop_repatched += 1;
                        per_loop.entry(key).or_default().1 += 1;
                    }
                    _ => {}
                }
                s.first_now = s.first_now.min(r.now);
                s.last_now = s.last_now.max(r.now);
            }
            s.methods = methods.len() as u64;
            s.stranded = per_loop.values().filter(|(inv, rp)| inv > rp).count() as u64;
            if s.first_now == u64::MAX {
                s.first_now = 0;
            }
            s
        })
        .collect()
}

/// Renders the per-cell table (one line per run plus a grand total).
pub fn render(summaries: &[DeoptSummary]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>9} {:>8} {:>10} {:>9} {:>9} {:>8} {:>9}",
        "run", "gc-moved", "useless", "recompiles", "loop-inv", "loop-rep", "methods", "stranded"
    );
    let mut t = [0u64; 6];
    for s in summaries {
        let _ = writeln!(
            out,
            "{:<36} {:>9} {:>8} {:>10} {:>9} {:>9} {:>8} {:>9}{}",
            s.run,
            s.gc_moved,
            s.useless_ratio,
            s.recompiles,
            s.loop_invalidated,
            s.loop_repatched,
            s.methods,
            s.stranded,
            if s.stranded > 0 { "  <- stranded" } else { "" },
        );
        t[0] += s.gc_moved;
        t[1] += s.useless_ratio;
        t[2] += s.recompiles;
        t[3] += s.loop_invalidated;
        t[4] += s.loop_repatched;
        t[5] += s.stranded;
    }
    let _ = writeln!(
        out,
        "\ntotal: {} cell(s), {} loop invalidation(s) ({} gc-moved, {} useless-ratio), \
         {} loop repatch(es), {} recompile(s), {} stranded loop(s)",
        summaries.len(),
        t[3],
        t[0],
        t[1],
        t[4],
        t[2],
        t[5],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SiteId, StaleReason};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::LoopInvalidated {
                method: 2,
                loop_header: 4,
                generation: 0,
                reason: StaleReason::GcMoved,
                now: 100,
            },
            TraceEvent::LoopRepatched {
                method: 2,
                loop_header: 4,
                generation: 1,
                now: 500,
            },
            TraceEvent::LoopInvalidated {
                method: 5,
                loop_header: 7,
                generation: 0,
                reason: StaleReason::UselessRatio,
                now: 900,
            },
            TraceEvent::Recompile {
                method: 5,
                generation: 1,
                now: 940,
            },
            // An unrelated runtime event that must be filtered out.
            TraceEvent::SwpfIssued {
                site: SiteId(0),
                line: 0x40,
                now: 950,
            },
        ]
    }

    #[test]
    fn rows_filter_the_adaptive_events() {
        let rs = rows("db/ADAPTIVE/Pentium 4", &sample_events());
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].tag, "loop_invalidated");
        assert_eq!(rs[0].loop_header, "4");
        assert_eq!(rs[0].reason, "gc-moved");
        assert_eq!(rs[1].tag, "loop_repatched");
        assert_eq!(rs[1].generation, 1);
        assert_eq!(rs[3].tag, "recompile");
        assert_eq!(rs[3].loop_header, "-");
    }

    #[test]
    fn straight_line_pseudo_loop_renders_as_star() {
        let rs = rows(
            "r",
            &[TraceEvent::LoopInvalidated {
                method: 1,
                loop_header: u32::MAX,
                generation: 0,
                reason: StaleReason::GcMoved,
                now: 1,
            }],
        );
        assert_eq!(rs[0].loop_header, "*");
    }

    #[test]
    fn emit_parse_round_trip() {
        let rs = rows("db/ADAPTIVE/Athlon MP", &sample_events());
        let parsed = parse(&emit(&rs)).unwrap();
        assert_eq!(parsed, rs);
    }

    #[test]
    fn parse_skips_foreign_tags_and_flags_bad_rows() {
        let text = "{\"tag\": \"swpf_issued\", \"site\": 0, \"line\": 64, \"now\": 1}\n\
                    {\"tag\": \"recompile\", \"method\": 1, \"generation\": 1, \"now\": 9}\n";
        let rs = parse(text).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].run, "-", "events.jsonl rows have no run key");
        assert_eq!(
            rs[0].loop_header, "-",
            "events.jsonl rows have no loop field"
        );
        assert!(parse("{\"tag\": \"recompile\", \"method\": 1}").is_err());
    }

    #[test]
    fn aggregate_counts_stranded_loops() {
        let rs = rows("db/ADAPTIVE/Pentium 4", &sample_events());
        let sums = aggregate(&rs);
        assert_eq!(sums.len(), 1);
        let s = &sums[0];
        assert_eq!(s.loop_invalidated, 2);
        assert_eq!(s.loop_repatched, 1);
        assert_eq!(s.recompiles, 1);
        assert_eq!(s.gc_moved, 1);
        assert_eq!(s.useless_ratio, 1);
        assert_eq!(s.methods, 2);
        assert_eq!(s.stranded, 1, "loop 7 of method 5 never came back");
        assert_eq!(s.first_now, 100);
        assert_eq!(s.last_now, 940);
    }

    #[test]
    fn per_loop_stranding_distinguishes_loops_of_one_method() {
        // Two loops of one method: one repatched, one not. Method-level
        // stranding would see 2 invalidations vs 1 repatch on the same
        // method; per-loop must see exactly one stranded loop.
        let evs = vec![
            TraceEvent::LoopInvalidated {
                method: 9,
                loop_header: 3,
                generation: 0,
                reason: StaleReason::GcMoved,
                now: 10,
            },
            TraceEvent::LoopInvalidated {
                method: 9,
                loop_header: 6,
                generation: 0,
                reason: StaleReason::GcMoved,
                now: 10,
            },
            TraceEvent::LoopRepatched {
                method: 9,
                loop_header: 3,
                generation: 1,
                now: 90,
            },
        ];
        let s = &aggregate(&rows("r", &evs))[0];
        assert_eq!(s.methods, 1);
        assert_eq!(s.stranded, 1);
    }

    #[test]
    fn aggregate_keeps_first_seen_run_order() {
        let mut rs = rows("b", &sample_events());
        rs.extend(rows("a", &sample_events()));
        let sums = aggregate(&rs);
        assert_eq!(sums[0].run, "b");
        assert_eq!(sums[1].run, "a");
    }

    #[test]
    fn render_marks_stranded_cells() {
        let rs = rows("db/ADAPTIVE/Pentium 4", &sample_events());
        let table = render(&aggregate(&rs));
        assert!(table.contains("<- stranded"), "{table}");
        assert!(table.contains("1 stranded loop(s)"), "{table}");
    }
}
