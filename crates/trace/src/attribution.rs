//! The aggregation pass: from an event stream to a per-site
//! prefetch-effectiveness report.
//!
//! Every issued prefetch is classified into exactly one of four buckets,
//! reproducing the paper's Figure 8 taxonomy per *site* instead of per
//! run:
//!
//! * **dropped** — a software prefetch cancelled by a DTLB miss
//!   (Pentium 4 semantics);
//! * **too late** — the fill was still in flight when the first demand
//!   access arrived (`PrefetchUsed` with `wait > 0`);
//! * **too early** — the line was evicted from its target level before
//!   any demand use, or was never demanded at all before the run ended;
//! * **useful** — everything else: the fill settled before its first
//!   demand use, or the line was already resident (a redundant prefetch
//!   whose data was cache-resident when demanded).
//!
//! The buckets partition the issue count: for every site,
//! `useful + too_early + too_late + dropped == issued`, and summed over
//! sites the totals equal the `MemStats` aggregate counters — the
//! cross-check the integration tests enforce.

use crate::event::{SiteId, TraceEvent};

/// Per-site counters accumulated from the event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SiteEffect {
    /// Software prefetch instructions issued.
    pub swpf_issued: u64,
    /// Software prefetches cancelled by a DTLB miss.
    pub swpf_dropped: u64,
    /// Software prefetches that initiated a fill.
    pub swpf_fills: u64,
    /// Software prefetches whose line was already resident.
    pub swpf_redundant: u64,
    /// Guarded prefetch loads issued.
    pub guarded_issued: u64,
    /// Guarded loads that initiated a fill.
    pub guarded_fills: u64,
    /// Guarded loads that primed a missing DTLB entry.
    pub guarded_tlb_primed: u64,
    /// Fills used by a demand access after settling (timely).
    pub used_settled: u64,
    /// Fills used while still in flight (the demand access waited).
    pub used_waited: u64,
    /// Fills evicted from the target level before any use.
    pub evicted: u64,
}

impl SiteEffect {
    /// Prefetches issued from this site (software + guarded).
    pub fn issued(&self) -> u64 {
        self.swpf_issued + self.guarded_issued
    }

    /// Guarded loads whose line was already resident (no fill).
    pub fn guarded_redundant(&self) -> u64 {
        self.guarded_issued - self.guarded_fills
    }

    /// Fills never used and never evicted (still resident, unused, when
    /// the run ended).
    pub fn unused_at_end(&self) -> u64 {
        (self.swpf_fills + self.guarded_fills)
            .saturating_sub(self.used_settled + self.used_waited + self.evicted)
    }

    /// **useful**: fills settled before first use, plus redundant
    /// prefetches (the demanded data was already cache-resident).
    pub fn useful(&self) -> u64 {
        self.used_settled + self.swpf_redundant + self.guarded_redundant()
    }

    /// **too early**: evicted before use, or never demanded.
    pub fn too_early(&self) -> u64 {
        self.evicted + self.unused_at_end()
    }

    /// **too late**: first demand access waited on the in-flight fill.
    pub fn too_late(&self) -> u64 {
        self.used_waited
    }

    /// **dropped**: cancelled on a DTLB miss.
    pub fn dropped(&self) -> u64 {
        self.swpf_dropped
    }
}

/// The result of aggregating one event stream.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Per-site effects, ascending by site ID; [`SiteId::UNKNOWN`] last if
    /// present.
    pub per_site: Vec<(SiteId, SiteEffect)>,
    /// Demand L1 miss events observed.
    pub l1_misses: u64,
    /// Demand L2 miss events observed.
    pub l2_misses: u64,
    /// Demand DTLB miss events observed.
    pub dtlb_misses: u64,
    /// Hardware next-line prefetcher fills observed.
    pub hw_prefetch_fills: u64,
    /// GC sliding compactions observed.
    pub gc_slides: u64,
    /// Compile-time suppression events observed.
    pub suppressions: u64,
    /// Adaptive recompilations observed.
    pub recompiles: u64,
    /// Per-loop invalidations observed (stale loops patched to no-ops).
    pub loop_invalidated: u64,
    /// Per-loop repatches observed (stale loops re-inspected in place).
    pub loop_repatched: u64,
}

impl Attribution {
    /// The effect recorded for `site` (default-empty when absent).
    pub fn site(&self, site: SiteId) -> SiteEffect {
        self.per_site
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, e)| *e)
            .unwrap_or_default()
    }

    /// Sums a per-site field over all sites.
    pub fn total(&self, f: impl Fn(&SiteEffect) -> u64) -> u64 {
        self.per_site.iter().map(|(_, e)| f(e)).sum()
    }
}

impl Attribution {
    /// The effect slot of `site`, created on first use. `per_site` stays
    /// sorted by site id (so [`SiteId::UNKNOWN`] stays last): a binary
    /// search over a few dozen entries, cheap enough to run on every
    /// emitted event.
    fn effect(&mut self, site: SiteId) -> &mut SiteEffect {
        let i = match self.per_site.binary_search_by_key(&site, |(s, _)| *s) {
            Ok(i) => i,
            Err(i) => {
                self.per_site.insert(i, (site, SiteEffect::default()));
                i
            }
        };
        &mut self.per_site[i].1
    }

    /// Folds one more event of the stream into the aggregate. A pure
    /// fold: [`attribute`] runs it over a recorded stream, [`RingSink`]
    /// on every `emit`, so the streamed aggregate is exact even when the
    /// ring has long overwritten the events themselves.
    ///
    /// [`RingSink`]: crate::RingSink
    pub(crate) fn fold(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::SwpfIssued { site, .. } => self.effect(site).swpf_issued += 1,
            TraceEvent::SwpfDropped { site, .. } => self.effect(site).swpf_dropped += 1,
            TraceEvent::SwpfFill { site, .. } => self.effect(site).swpf_fills += 1,
            TraceEvent::SwpfRedundant { site, .. } => self.effect(site).swpf_redundant += 1,
            TraceEvent::GuardedIssued {
                site, tlb_primed, ..
            } => {
                let e = self.effect(site);
                e.guarded_issued += 1;
                e.guarded_tlb_primed += u64::from(tlb_primed);
            }
            TraceEvent::GuardedFill { site, .. } => self.effect(site).guarded_fills += 1,
            TraceEvent::PrefetchUsed { site, wait, .. } => {
                let e = self.effect(site);
                if wait > 0 {
                    e.used_waited += 1;
                } else {
                    e.used_settled += 1;
                }
            }
            TraceEvent::PrefetchEvicted { site, .. } => self.effect(site).evicted += 1,
            TraceEvent::DemandMiss { level, .. } => match level {
                crate::event::MissLevel::L1 => self.l1_misses += 1,
                crate::event::MissLevel::L2 => self.l2_misses += 1,
                crate::event::MissLevel::Dtlb => self.dtlb_misses += 1,
            },
            TraceEvent::HwPrefetchFill { .. } => self.hw_prefetch_fills += 1,
            TraceEvent::GcSlide { .. } => self.gc_slides += 1,
            TraceEvent::Suppressed { .. } => self.suppressions += 1,
            TraceEvent::Recompile { .. } => self.recompiles += 1,
            TraceEvent::LoopInvalidated { .. } => self.loop_invalidated += 1,
            TraceEvent::LoopRepatched { .. } => self.loop_repatched += 1,
            TraceEvent::JitBegin { .. }
            | TraceEvent::LdgBuilt { .. }
            | TraceEvent::Inspected { .. }
            | TraceEvent::Planned { .. }
            | TraceEvent::SiteRegistered { .. }
            | TraceEvent::CompileEnqueued { .. }
            | TraceEvent::CompileInstalled { .. }
            | TraceEvent::CodeCacheEvicted { .. }
            | TraceEvent::RequestCompleted { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::RequestShed { .. }
            | TraceEvent::CompileRetried { .. }
            | TraceEvent::GuardRearmed { .. } => {}
        }
    }
}

/// Aggregates an event stream (oldest first) into per-site effects.
///
/// Classification is exact when the stream is complete; if the producing
/// ring overwrote events, use the aggregate the sink folded at emit
/// ([`TraceSink::attribution`](crate::TraceSink::attribution)) instead.
pub fn attribute(events: &[TraceEvent]) -> Attribution {
    let mut out = Attribution::default();
    for ev in events {
        out.fold(ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: SiteId = SiteId(0);

    fn issue_and_fill(evs: &mut Vec<TraceEvent>, line: u64, now: u64, ready: u64) {
        evs.push(TraceEvent::SwpfIssued { site: S, line, now });
        evs.push(TraceEvent::SwpfFill {
            site: S,
            line,
            now,
            ready_at: ready,
        });
    }

    #[test]
    fn useful_prefetch() {
        let mut evs = Vec::new();
        issue_and_fill(&mut evs, 0x100, 10, 210);
        evs.push(TraceEvent::PrefetchUsed {
            site: S,
            line: 0x100,
            now: 500,
            wait: 0,
        });
        let a = attribute(&evs);
        let e = a.site(S);
        assert_eq!(e.useful(), 1);
        assert_eq!(e.too_early() + e.too_late() + e.dropped(), 0);
        assert_eq!(e.issued(), 1);
    }

    #[test]
    fn too_late_prefetch() {
        let mut evs = Vec::new();
        issue_and_fill(&mut evs, 0x100, 10, 210);
        evs.push(TraceEvent::PrefetchUsed {
            site: S,
            line: 0x100,
            now: 50,
            wait: 160,
        });
        let e = attribute(&evs).site(S);
        assert_eq!(e.too_late(), 1);
        assert_eq!(e.useful(), 0);
    }

    #[test]
    fn too_early_via_eviction_and_unused() {
        let mut evs = Vec::new();
        issue_and_fill(&mut evs, 0x100, 10, 210);
        evs.push(TraceEvent::PrefetchEvicted {
            site: S,
            line: 0x100,
            now: 400,
        });
        issue_and_fill(&mut evs, 0x200, 500, 700); // never used
        let e = attribute(&evs).site(S);
        assert_eq!(e.evicted, 1);
        assert_eq!(e.unused_at_end(), 1);
        assert_eq!(e.too_early(), 2);
        assert_eq!(e.issued(), 2);
    }

    #[test]
    fn dropped_and_redundant() {
        let evs = vec![
            TraceEvent::SwpfIssued {
                site: S,
                line: 0x100,
                now: 0,
            },
            TraceEvent::SwpfDropped {
                site: S,
                line: 0x100,
                now: 0,
            },
            TraceEvent::SwpfIssued {
                site: S,
                line: 0x200,
                now: 5,
            },
            TraceEvent::SwpfRedundant {
                site: S,
                line: 0x200,
                now: 5,
            },
        ];
        let e = attribute(&evs).site(S);
        assert_eq!(e.dropped(), 1);
        assert_eq!(e.useful(), 1, "redundant counts as useful");
        assert_eq!(
            e.useful() + e.too_early() + e.too_late() + e.dropped(),
            e.issued()
        );
    }

    #[test]
    fn guarded_loads_classify_like_prefetches() {
        let evs = vec![
            TraceEvent::GuardedIssued {
                site: S,
                line: 0x100,
                now: 0,
                tlb_primed: true,
            },
            TraceEvent::GuardedFill {
                site: S,
                line: 0x100,
                now: 0,
                ready_at: 200,
            },
            TraceEvent::PrefetchUsed {
                site: S,
                line: 0x100,
                now: 300,
                wait: 0,
            },
            TraceEvent::GuardedIssued {
                site: S,
                line: 0x100,
                now: 400,
                tlb_primed: false,
            },
        ];
        let e = attribute(&evs).site(S);
        assert_eq!(e.guarded_issued, 2);
        assert_eq!(e.guarded_tlb_primed, 1);
        assert_eq!(e.guarded_redundant(), 1);
        assert_eq!(e.useful(), 2);
        assert_eq!(
            e.useful() + e.too_early() + e.too_late() + e.dropped(),
            e.issued()
        );
    }

    #[test]
    fn buckets_partition_issues_across_sites() {
        let s1 = SiteId(1);
        let mut evs = Vec::new();
        issue_and_fill(&mut evs, 0x100, 0, 200);
        evs.push(TraceEvent::SwpfIssued {
            site: s1,
            line: 0x300,
            now: 1,
        });
        evs.push(TraceEvent::SwpfDropped {
            site: s1,
            line: 0x300,
            now: 1,
        });
        let a = attribute(&evs);
        assert_eq!(a.per_site.len(), 2);
        let issued = a.total(SiteEffect::issued);
        let classified = a.total(SiteEffect::useful)
            + a.total(SiteEffect::too_early)
            + a.total(SiteEffect::too_late)
            + a.total(SiteEffect::dropped);
        assert_eq!(issued, 2);
        assert_eq!(classified, issued);
    }

    #[test]
    fn run_level_counters() {
        let evs = vec![
            TraceEvent::DemandMiss {
                level: crate::event::MissLevel::L1,
                line: 0,
                now: 0,
                store: false,
            },
            TraceEvent::DemandMiss {
                level: crate::event::MissLevel::Dtlb,
                line: 0,
                now: 0,
                store: true,
            },
            TraceEvent::HwPrefetchFill {
                line: 0,
                now: 0,
                ready_at: 10,
            },
            TraceEvent::GcSlide {
                now: 5,
                live_bytes: 100,
                freed_bytes: 50,
                moved_objects: 2,
            },
        ];
        let a = attribute(&evs);
        assert_eq!(a.l1_misses, 1);
        assert_eq!(a.dtlb_misses, 1);
        assert_eq!(a.hw_prefetch_fills, 1);
        assert_eq!(a.gc_slides, 1);
    }

    #[test]
    fn adaptive_events_count_at_run_level() {
        let evs = vec![
            TraceEvent::LoopInvalidated {
                method: 3,
                loop_header: 4,
                generation: 0,
                reason: crate::event::StaleReason::GcMoved,
                now: 100,
            },
            TraceEvent::LoopRepatched {
                method: 3,
                loop_header: 4,
                generation: 1,
                now: 200,
            },
            TraceEvent::Recompile {
                method: 3,
                generation: 1,
                now: 250,
            },
        ];
        let a = attribute(&evs);
        assert_eq!(a.loop_invalidated, 1);
        assert_eq!(a.loop_repatched, 1);
        assert_eq!(a.recompiles, 1);
        assert!(a.per_site.is_empty(), "adaptive events are run-level");
    }
}
