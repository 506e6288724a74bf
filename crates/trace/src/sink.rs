//! Trace sinks: where events go.
//!
//! The sink is a *type parameter* of every traced component, not a trait
//! object: the instrumentation hot paths are written as
//! `if S::ENABLED { sink.emit(…) }`, so instantiating a component with
//! [`NoopSink`] (the default everywhere) erases both the branch and the
//! event construction at monomorphization time. Tracing off therefore
//! costs literally zero instructions — the hard invariant the bench
//! harness asserts by diffing traced against untraced simulated numbers.

use crate::attribution::Attribution;
use crate::event::TraceEvent;

/// Receives trace events.
pub trait TraceSink {
    /// Whether this sink records anything. Emission sites are guarded by
    /// `if S::ENABLED`, so a `false` here removes the instrumentation at
    /// compile time.
    const ENABLED: bool;

    /// Records one event.
    fn emit(&mut self, event: TraceEvent);

    /// Discards all recorded events (called by `MemorySystem::reset`
    /// between benchmark runs so no events leak across matrix cells).
    fn clear(&mut self);

    /// A copy of the held events, oldest first. Empty for sinks that keep
    /// nothing; lets generic harnesses read a trace back without naming
    /// the concrete sink type.
    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Events lost to capacity since the last [`clear`](Self::clear)
    /// (non-zero means [`snapshot`](Self::snapshot) is truncated).
    fn lost(&self) -> u64 {
        0
    }

    /// The per-site aggregate of *every* event emitted since the last
    /// [`clear`](Self::clear), lost ones included. Empty for sinks that
    /// keep nothing.
    fn attribution(&self) -> Attribution {
        Attribution::default()
    }
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn clear(&mut self) {}
}

/// A fixed-capacity flight recorder: keeps the most recent `capacity`
/// events, overwriting the oldest once full. [`RingSink::overwritten`]
/// reports how many were lost, so consumers can tell a complete trace
/// from a truncated one. Every event is also folded into a running
/// [`Attribution`] as it arrives, so the per-site numbers never depend
/// on the capacity.
#[derive(Clone, Debug)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    /// Total events ever emitted (including overwritten ones).
    total: u64,
    /// Aggregate of all `total` events.
    folded: Attribution,
}

/// Default ring capacity (~10 MB of events), sized for the tiny experiment
/// size. It is *not* enough at small — the benchmark's traced run of
/// `matrix-memsim` lost 347 794 events to overwrites — so a consumer that
/// needs the whole *stream* must check [`TraceSink::lost`] or size its own
/// ring with [`RingSink::with_capacity`]; [`TraceSink::attribution`] is
/// exact regardless.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

impl Default for RingSink {
    fn default() -> Self {
        RingSink::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: Vec::new(),
            capacity,
            head: 0,
            total: 0,
            folded: Attribution::default(),
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events emitted since creation or the last [`clear`], including
    /// ones that have since been overwritten.
    ///
    /// [`clear`]: TraceSink::clear
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events lost to capacity (oldest-first overwrites).
    pub fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

impl TraceSink for RingSink {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        self.total += 1;
        self.folded.fold(&event);
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
        self.folded = Attribution::default();
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.events()
    }

    fn lost(&self) -> u64 {
        self.overwritten()
    }

    fn attribution(&self) -> Attribution {
        self.folded.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SiteId;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::SwpfIssued {
            site: SiteId(0),
            line: 0,
            now: n,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = RingSink::with_capacity(3);
        for n in 0..5 {
            r.emit(ev(n));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        assert_eq!(r.overwritten(), 2);
        assert_eq!(
            r.events(),
            [ev(2), ev(3), ev(4)],
            "oldest events were overwritten"
        );
    }

    #[test]
    fn ring_below_capacity_is_in_order() {
        let mut r = RingSink::with_capacity(8);
        for n in 0..3 {
            r.emit(ev(n));
        }
        assert_eq!(r.events(), [ev(0), ev(1), ev(2)]);
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn attribution_survives_overwrites_and_matches_the_batch_fold() {
        let mut small = RingSink::with_capacity(3);
        let mut big = RingSink::with_capacity(64);
        for n in 0..20 {
            for r in [&mut small, &mut big] {
                // Sites first seen out of order, the unknown one included.
                r.emit(TraceEvent::SwpfIssued {
                    site: [SiteId(2), SiteId::UNKNOWN, SiteId(0)][n as usize % 3],
                    line: n,
                    now: n,
                });
                r.emit(TraceEvent::HwPrefetchFill {
                    line: n,
                    now: n,
                    ready_at: n,
                });
            }
        }
        assert_eq!(small.overwritten(), 37);
        let exact = crate::attribute(&big.events());
        assert_eq!(exact.total(|e| e.swpf_issued), 20);
        let ids: Vec<SiteId> = exact.per_site.iter().map(|(s, _)| *s).collect();
        assert_eq!(ids, [SiteId(0), SiteId(2), SiteId::UNKNOWN]);
        assert_eq!(small.attribution().per_site, exact.per_site);
        assert_eq!(small.attribution().hw_prefetch_fills, 20);
        assert!(
            crate::attribute(&small.events()).total(|e| e.swpf_issued) < 20,
            "the surviving events alone undercount"
        );
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = RingSink::with_capacity(2);
        for n in 0..5 {
            r.emit(ev(n));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
        assert!(r.attribution().per_site.is_empty());
        r.emit(ev(9));
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopSink::ENABLED) };
        const { assert!(RingSink::ENABLED) };
        let mut n = NoopSink;
        n.emit(ev(0)); // must be a no-op, not a panic
        n.clear();
    }
}
