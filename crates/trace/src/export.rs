//! The trace exporter: [`events_jsonl`] writes one JSON object per event
//! per line — the archival format, trivially greppable and `jq`-able. The
//! tag and the members come from the event's declaration (`events!`).

use std::fmt::Write as _;

use crate::event::TraceEvent;
use crate::json::Str;
use crate::site::SiteTable;

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
        ev.write_members(&mut out);
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
