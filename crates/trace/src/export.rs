//! The trace exporter: [`events_jsonl`] writes one JSON object per event
//! per line — the archival format, trivially greppable and `jq`-able.

use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::json::Str;
use crate::site::SiteTable;

/// Appends the variant-specific fields of `ev` as `"key": value` pairs.
fn fields(out: &mut String, ev: &TraceEvent) {
    match *ev {
        TraceEvent::JitBegin { method } => {
            let _ = write!(out, "\"method\": {method}");
        }
        TraceEvent::LdgBuilt {
            loop_header,
            nodes,
            edges,
        } => {
            let _ = write!(
                out,
                "\"loop_header\": {loop_header}, \"nodes\": {nodes}, \"edges\": {edges}"
            );
        }
        TraceEvent::Inspected {
            loop_header,
            iterations,
            steps,
            inter_patterns,
            intra_patterns,
        } => {
            let _ = write!(
                out,
                "\"loop_header\": {loop_header}, \"iterations\": {iterations}, \
                 \"steps\": {steps}, \"inter_patterns\": {inter_patterns}, \
                 \"intra_patterns\": {intra_patterns}"
            );
        }
        TraceEvent::Suppressed {
            block,
            index,
            reason,
        } => {
            let _ = write!(
                out,
                "\"block\": {block}, \"index\": {index}, \"reason\": \"{reason}\""
            );
        }
        TraceEvent::Planned {
            block,
            index,
            shape,
            param,
        } => {
            let _ = write!(
                out,
                "\"block\": {block}, \"index\": {index}, \"shape\": \"{shape}\", \
                 \"param\": {param}"
            );
        }
        TraceEvent::SiteRegistered {
            site,
            method,
            block,
            index,
            generation,
        } => {
            let _ = write!(
                out,
                "\"site\": {}, \"method\": {method}, \"block\": {block}, \"index\": {index}, \
                 \"generation\": {generation}",
                site.0
            );
        }
        TraceEvent::DemandMiss {
            level,
            line,
            now,
            store,
        } => {
            let _ = write!(
                out,
                "\"level\": \"{level:?}\", \"line\": {line}, \"now\": {now}, \"store\": {store}"
            );
        }
        TraceEvent::SwpfIssued { site, line, now }
        | TraceEvent::SwpfDropped { site, line, now }
        | TraceEvent::SwpfRedundant { site, line, now } => {
            let _ = write!(
                out,
                "\"site\": {}, \"line\": {line}, \"now\": {now}",
                site.0
            );
        }
        TraceEvent::SwpfFill {
            site,
            line,
            now,
            ready_at,
        }
        | TraceEvent::GuardedFill {
            site,
            line,
            now,
            ready_at,
        } => {
            let _ = write!(
                out,
                "\"site\": {}, \"line\": {line}, \"now\": {now}, \"ready_at\": {ready_at}",
                site.0
            );
        }
        TraceEvent::GuardedIssued {
            site,
            line,
            now,
            tlb_primed,
        } => {
            let _ = write!(
                out,
                "\"site\": {}, \"line\": {line}, \"now\": {now}, \"tlb_primed\": {tlb_primed}",
                site.0
            );
        }
        TraceEvent::HwPrefetchFill {
            line,
            now,
            ready_at,
        } => {
            let _ = write!(
                out,
                "\"line\": {line}, \"now\": {now}, \"ready_at\": {ready_at}"
            );
        }
        TraceEvent::PrefetchUsed {
            site,
            line,
            now,
            wait,
        } => {
            let _ = write!(
                out,
                "\"site\": {}, \"line\": {line}, \"now\": {now}, \"wait\": {wait}",
                site.0
            );
        }
        TraceEvent::PrefetchEvicted { site, line, now } => {
            let _ = write!(
                out,
                "\"site\": {}, \"line\": {line}, \"now\": {now}",
                site.0
            );
        }
        TraceEvent::Recompile {
            method,
            generation,
            now,
        } => {
            let _ = write!(
                out,
                "\"method\": {method}, \"generation\": {generation}, \"now\": {now}"
            );
        }
        TraceEvent::LoopInvalidated {
            method,
            loop_header,
            generation,
            reason,
            now,
        } => {
            let _ = write!(
                out,
                "\"method\": {method}, \"loop_header\": {loop_header}, \
                 \"generation\": {generation}, \"reason\": \"{reason}\", \"now\": {now}"
            );
        }
        TraceEvent::LoopRepatched {
            method,
            loop_header,
            generation,
            now,
        } => {
            let _ = write!(
                out,
                "\"method\": {method}, \"loop_header\": {loop_header}, \
                 \"generation\": {generation}, \"now\": {now}"
            );
        }
        TraceEvent::CompileEnqueued {
            tenant,
            method,
            depth,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"method\": {method}, \"depth\": {depth}, \"now\": {now}"
            );
        }
        TraceEvent::CompileInstalled {
            tenant,
            method,
            wait,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"method\": {method}, \"wait\": {wait}, \"now\": {now}"
            );
        }
        TraceEvent::CodeCacheEvicted {
            tenant,
            method,
            instrs,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"method\": {method}, \"instrs\": {instrs}, \"now\": {now}"
            );
        }
        TraceEvent::RequestCompleted {
            tenant,
            request,
            latency,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"request\": {request}, \"latency\": {latency}, \
                 \"now\": {now}"
            );
        }
        TraceEvent::FaultInjected {
            kind,
            tenant,
            now,
            until,
        } => {
            let _ = write!(
                out,
                "\"kind\": \"{kind}\", \"tenant\": {tenant}, \"now\": {now}, \"until\": {until}"
            );
        }
        TraceEvent::RequestShed {
            tenant,
            request,
            depth,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"request\": {request}, \"depth\": {depth}, \"now\": {now}"
            );
        }
        TraceEvent::CompileRetried {
            tenant,
            method,
            attempt,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"method\": {method}, \"attempt\": {attempt}, \
                 \"now\": {now}"
            );
        }
        TraceEvent::GuardRearmed {
            tenant,
            method,
            generation,
            now,
        } => {
            let _ = write!(
                out,
                "\"tenant\": {tenant}, \"method\": {method}, \"generation\": {generation}, \
                 \"now\": {now}"
            );
        }
        TraceEvent::GcSlide {
            now,
            live_bytes,
            freed_bytes,
            moved_objects,
        } => {
            let _ = write!(
                out,
                "\"now\": {now}, \"live_bytes\": {live_bytes}, \"freed_bytes\": {freed_bytes}, \
                 \"moved_objects\": {moved_objects}"
            );
        }
    }
}

/// The site's human-readable location, if the table resolves it.
fn site_location(ev: &TraceEvent, sites: Option<&SiteTable>) -> Option<String> {
    let site = match *ev {
        TraceEvent::SwpfIssued { site, .. }
        | TraceEvent::SwpfDropped { site, .. }
        | TraceEvent::SwpfFill { site, .. }
        | TraceEvent::SwpfRedundant { site, .. }
        | TraceEvent::GuardedIssued { site, .. }
        | TraceEvent::GuardedFill { site, .. }
        | TraceEvent::PrefetchUsed { site, .. }
        | TraceEvent::PrefetchEvicted { site, .. } => site,
        _ => return None,
    };
    sites?.get(site).map(|info| info.location())
}

/// Renders events as JSONL, one object per line, oldest first. When a
/// [`SiteTable`] is supplied, site-carrying events gain a resolved
/// `"at"` location field.
pub fn events_jsonl(events: &[TraceEvent], sites: Option<&SiteTable>) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(out, "{{\"tag\": \"{}\", ", ev.tag());
        fields(&mut out, ev);
        if let Some(at) = site_location(ev, sites) {
            let _ = write!(out, ", \"at\": {}", Str(&at));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MissLevel, SiteId, SuppressReason};
    use crate::site::{SiteInfo, SiteKind};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::JitBegin { method: 2 },
            TraceEvent::Suppressed {
                block: 4,
                index: 1,
                reason: SuppressReason::StrideTooSmall,
            },
            TraceEvent::SwpfIssued {
                site: SiteId(0),
                line: 0x1c0,
                now: 10,
            },
            TraceEvent::SwpfFill {
                site: SiteId(0),
                line: 0x1c0,
                now: 10,
                ready_at: 210,
            },
            TraceEvent::DemandMiss {
                level: MissLevel::L1,
                line: 0x200,
                now: 20,
                store: false,
            },
        ]
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let text = events_jsonl(&sample(), None);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[2].contains("\"tag\": \"swpf_issued\""));
        assert!(lines[4].contains("\"level\": \"L1\""));
    }

    #[test]
    fn jsonl_resolves_sites() {
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
        let text = events_jsonl(&sample(), Some(&sites));
        assert!(text.contains("\"at\": \"findInMemory@b4.1\""));
    }
}
