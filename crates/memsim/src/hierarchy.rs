//! The two-level memory hierarchy with DTLB and prefetch semantics.

use std::collections::HashMap;

use spf_trace::{MissLevel, NoopSink, SiteId, TraceEvent, TraceSink};

use crate::cache::{Cache, Lookup};
use crate::config::{CacheLevel, ProcessorConfig};
use crate::stats::MemStats;
use crate::tlb::Tlb;

/// Issue cost, in cycles, of a software prefetch instruction.
pub const SWPF_ISSUE_COST: u64 = 1;

/// Issue cost, in cycles, of a guarded prefetch load (address check plus
/// the load µops; the fill itself is overlapped, as on an out-of-order
/// machine).
pub const GUARDED_LOAD_COST: u64 = 2;

/// A simulated L1/L2/DTLB memory system for one processor.
///
/// Demand accesses ([`load`](Self::load), [`store`](Self::store)) return the
/// access latency in cycles, which the execution engine adds to its cycle
/// counter — an in-order, stall-on-use timing model. Prefetches are
/// non-blocking: they initiate fills whose completion times are tracked per
/// line, so a demand access arriving before the fill completes waits only
/// for the remainder.
///
/// The sink type parameter selects tracing. With the default [`NoopSink`]
/// every `if S::ENABLED` guard below is compile-time false, so the traced
/// instrumentation — event construction, pending-fill bookkeeping, the
/// site register — vanishes at monomorphization and the simulator is
/// bit-identical to the untraced build. With an enabled sink (e.g.
/// `RingSink`), every miss, prefetch issue/drop/fill, first use or
/// eviction of a prefetched line, and hardware-prefetch fill is emitted,
/// attributed to the prefetch site last set via [`Self::set_site`].
#[derive(Clone, Debug)]
pub struct MemorySystem<S: TraceSink = NoopSink> {
    cfg: ProcessorConfig,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    stats: MemStats,
    sink: S,
    /// Site of the prefetch instruction currently executing (attribution
    /// register; [`SiteId::UNKNOWN`] outside prefetch dispatch).
    cur_site: SiteId,
    /// Prefetch fills resident in L1 and not yet demanded, by line-aligned
    /// address. Only populated when `S::ENABLED`.
    pending_l1: HashMap<u64, SiteId>,
    /// Prefetch fills resident in L2 and not yet demanded (Pentium 4
    /// software prefetches target the L2). Only populated when
    /// `S::ENABLED`.
    pending_l2: HashMap<u64, SiteId>,
}

impl MemorySystem {
    /// Creates an untraced memory system for `cfg`.
    pub fn new(cfg: ProcessorConfig) -> Self {
        MemorySystem::with_sink(cfg, NoopSink)
    }
}

impl<S: TraceSink> MemorySystem<S> {
    /// Creates a memory system for `cfg` emitting into `sink`.
    pub fn with_sink(cfg: ProcessorConfig, sink: S) -> Self {
        MemorySystem {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            tlb: Tlb::new(cfg.dtlb_entries, cfg.page_bytes),
            stats: MemStats::default(),
            sink,
            cur_site: SiteId::UNKNOWN,
            pending_l1: HashMap::new(),
            pending_l2: HashMap::new(),
            cfg,
        }
    }

    /// The processor configuration.
    pub fn config(&self) -> &ProcessorConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The trace sink, mutably (the VM emits compile-time and GC events
    /// through the memory system's sink so one stream orders everything).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Sets the prefetch site the next [`Self::software_prefetch`] /
    /// [`Self::guarded_load`] calls are attributed to. A no-op (and
    /// compiled out) when tracing is disabled.
    #[inline]
    pub fn set_site(&mut self, site: SiteId) {
        if S::ENABLED {
            self.cur_site = site;
        }
    }

    /// An untraced memory system in this one's state: the same caches,
    /// TLB and counters, without the sink and its attribution state.
    pub fn untraced(&self) -> MemorySystem {
        MemorySystem {
            cfg: self.cfg.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            tlb: self.tlb.clone(),
            stats: self.stats,
            sink: NoopSink,
            cur_site: SiteId::UNKNOWN,
            pending_l1: HashMap::new(),
            pending_l2: HashMap::new(),
        }
    }

    /// Clears caches, TLB, counters, pending attributions, and the trace
    /// sink (between benchmark runs — events must not leak from one matrix
    /// cell into the next).
    pub fn reset(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.tlb.flush();
        self.stats = MemStats::default();
        if S::ENABLED {
            self.sink.clear();
            self.cur_site = SiteId::UNKNOWN;
            self.pending_l1.clear();
            self.pending_l2.clear();
        }
    }

    /// Line-aligned address at `level`.
    fn line_of(&self, level: CacheLevel, addr: u64) -> u64 {
        let bytes = match level {
            CacheLevel::L1 => self.cfg.l1.line_bytes,
            CacheLevel::L2 => self.cfg.l2.line_bytes,
        };
        addr & !(bytes - 1)
    }

    /// Records the first demand use of a pending prefetched line (if
    /// `addr`'s line is one) at `level`.
    #[cold]
    fn note_use(&mut self, level: CacheLevel, addr: u64, now: u64, wait: u64) {
        let line = self.line_of(level, addr);
        let pending = match level {
            CacheLevel::L1 => &mut self.pending_l1,
            CacheLevel::L2 => &mut self.pending_l2,
        };
        if let Some(site) = pending.remove(&line) {
            self.sink.emit(TraceEvent::PrefetchUsed {
                site,
                line,
                now,
                wait,
            });
        }
    }

    /// Records the eviction of a pending prefetched line, given the victim
    /// address an install at `level` reported.
    #[cold]
    fn note_evict(&mut self, level: CacheLevel, victim: Option<u64>, now: u64) {
        let Some(line) = victim else { return };
        let pending = match level {
            CacheLevel::L1 => &mut self.pending_l1,
            CacheLevel::L2 => &mut self.pending_l2,
        };
        if let Some(site) = pending.remove(&line) {
            self.sink
                .emit(TraceEvent::PrefetchEvicted { site, line, now });
        }
    }

    /// Registers a prefetch fill at `level` as pending first use.
    fn note_fill(&mut self, level: CacheLevel, addr: u64) {
        let line = self.line_of(level, addr);
        let site = self.cur_site;
        match level {
            CacheLevel::L1 => self.pending_l1.insert(line, site),
            CacheLevel::L2 => self.pending_l2.insert(line, site),
        };
    }

    #[cold]
    fn emit_demand_miss(&mut self, level: MissLevel, addr: u64, now: u64, store: bool) {
        let line = match level {
            MissLevel::L1 => self.line_of(CacheLevel::L1, addr),
            MissLevel::L2 => self.line_of(CacheLevel::L2, addr),
            MissLevel::Dtlb => addr & !(self.cfg.page_bytes - 1),
        };
        self.sink.emit(TraceEvent::DemandMiss {
            level,
            line,
            now,
            store,
        });
    }

    /// A demand access, probed inline in the caller: when the page is the
    /// DTLB's most recent and the line its L1 set's most recent with the
    /// fill complete, the general path below would find both in their
    /// first slot, move nothing and charge one settled hit — so that is
    /// all this does, reading the same two slots and keeping no state of
    /// its own. Everything else is [`Self::demand_general`].
    #[inline(always)]
    fn demand_access(&mut self, addr: u64, now: u64, is_load: bool) -> u64 {
        if self.tlb.is_front(addr) && self.l1.front_settled(addr, now) {
            if S::ENABLED && !self.pending_l1.is_empty() {
                self.note_use(CacheLevel::L1, addr, now, 0);
            }
            let latency = self.cfg.l1.hit_latency;
            self.stats.stall_cycles += latency;
            return latency;
        }
        self.demand_general(addr, now, is_load)
    }

    /// The demand access in general: a DTLB hit followed by a settled L1
    /// hit takes exactly one branch-predictable path with one
    /// stall-counter add. Everything else (TLB walks, L1/L2 misses,
    /// in-flight fills) falls through to the outlined
    /// [`Self::demand_slow`].
    #[inline(never)]
    fn demand_general(&mut self, addr: u64, now: u64, is_load: bool) -> u64 {
        let tlb_hit = self.tlb.lookup(addr);
        if !tlb_hit {
            self.tlb.insert(addr);
            if is_load {
                self.stats.dtlb_load_misses += 1;
            } else {
                self.stats.dtlb_store_misses += 1;
            }
            if S::ENABLED {
                self.emit_demand_miss(MissLevel::Dtlb, addr, now, !is_load);
            }
        }
        let l1 = self.l1.lookup(addr, now);
        if tlb_hit {
            if let Lookup::Hit { wait: 0 } = l1 {
                if S::ENABLED && !self.pending_l1.is_empty() {
                    self.note_use(CacheLevel::L1, addr, now, 0);
                }
                let latency = self.cfg.l1.hit_latency;
                self.stats.stall_cycles += latency;
                return latency;
            }
        }
        let base = if tlb_hit {
            0
        } else {
            self.cfg.tlb_miss_penalty
        };
        self.demand_slow(addr, now, is_load, base, l1)
    }

    /// The demand-access slow path: everything below a settled L1 hit.
    /// `latency` carries the TLB-walk penalty (0 on a TLB hit) and `l1`
    /// the probe result the fast path already obtained — the probe must
    /// not be repeated, its LRU update has already happened.
    #[cold]
    fn demand_slow(
        &mut self,
        addr: u64,
        now: u64,
        is_load: bool,
        mut latency: u64,
        l1: Lookup,
    ) -> u64 {
        match l1 {
            Lookup::Hit { wait } => {
                if S::ENABLED {
                    self.note_use(CacheLevel::L1, addr, now, wait);
                }
                latency += self.cfg.l1.hit_latency + wait;
            }
            Lookup::Miss => {
                if is_load {
                    self.stats.l1_load_misses += 1;
                } else {
                    self.stats.l1_store_misses += 1;
                }
                if S::ENABLED {
                    self.emit_demand_miss(MissLevel::L1, addr, now, !is_load);
                }
                match self.l2.lookup(addr, now) {
                    Lookup::Hit { wait } => {
                        if S::ENABLED {
                            self.note_use(CacheLevel::L2, addr, now, wait);
                        }
                        let lat = self.cfg.l2.hit_latency + wait;
                        latency += lat;
                        let victim = self.l1.install(addr, now + lat);
                        if S::ENABLED {
                            self.note_evict(CacheLevel::L1, victim, now);
                        }
                    }
                    Lookup::Miss => {
                        if is_load {
                            self.stats.l2_load_misses += 1;
                        } else {
                            self.stats.l2_store_misses += 1;
                        }
                        if S::ENABLED {
                            self.emit_demand_miss(MissLevel::L2, addr, now, !is_load);
                        }
                        let lat = self.cfg.mem_latency;
                        latency += lat;
                        let v2 = self.l2.install(addr, now + lat);
                        let v1 = self.l1.install(addr, now + lat);
                        if S::ENABLED {
                            self.note_evict(CacheLevel::L2, v2, now);
                            self.note_evict(CacheLevel::L1, v1, now);
                        }
                        if self.cfg.hw_prefetch {
                            // Simple next-line hardware prefetcher into L2.
                            let next = addr + self.cfg.l2.line_bytes;
                            if !self.l2.contains(next) && self.tlb.contains(next) {
                                let ready = now + lat + self.cfg.mem_latency;
                                let victim = self.l2.install(next, ready);
                                self.stats.hw_prefetch_fills += 1;
                                if S::ENABLED {
                                    self.sink.emit(TraceEvent::HwPrefetchFill {
                                        line: self.line_of(CacheLevel::L2, next),
                                        now,
                                        ready_at: ready,
                                    });
                                    self.note_evict(CacheLevel::L2, victim, now);
                                }
                            }
                        }
                    }
                }
            }
        }
        self.stats.stall_cycles += latency;
        latency
    }

    /// A demand load of any width within one line; returns its latency.
    #[inline(always)]
    pub fn load(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.loads += 1;
        self.demand_access(addr, now, true)
    }

    /// A demand store (write-allocate, treated like a read for fills).
    #[inline(always)]
    pub fn store(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.stores += 1;
        self.demand_access(addr, now, false)
    }

    /// Latency of filling a line into a higher level: the L2's hit latency
    /// when the line is already L2-resident, the full memory latency
    /// otherwise.
    fn fill_latency(&self, addr: u64) -> u64 {
        if self.l2.contains(addr) {
            self.cfg.l2.hit_latency
        } else {
            self.cfg.mem_latency
        }
    }

    /// A software prefetch instruction for the line containing `addr`.
    ///
    /// Fills [`ProcessorConfig::swpf_target`]. On a DTLB miss the prefetch
    /// is cancelled when [`ProcessorConfig::swpf_drops_on_tlb_miss`] (the
    /// Pentium 4 behaviour) and otherwise performs the page walk (Athlon).
    /// Returns the issue cost in cycles.
    pub fn software_prefetch(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.swpf_issued += 1;
        let site = self.cur_site;
        let line = self.line_of(self.cfg.swpf_target, addr);
        if S::ENABLED {
            self.sink.emit(TraceEvent::SwpfIssued { site, line, now });
        }
        if !self.tlb.contains(addr) {
            if self.cfg.swpf_drops_on_tlb_miss {
                self.stats.swpf_dropped_tlb += 1;
                if S::ENABLED {
                    self.sink.emit(TraceEvent::SwpfDropped { site, line, now });
                }
                return SWPF_ISSUE_COST;
            }
            self.tlb.insert(addr);
        }
        match self.cfg.swpf_target {
            CacheLevel::L1 => {
                if !self.l1.contains(addr) {
                    self.stats.swpf_fills += 1;
                    let ready = now + self.fill_latency(addr);
                    if !self.l2.contains(addr) {
                        let victim = self.l2.install(addr, ready);
                        if S::ENABLED {
                            self.note_evict(CacheLevel::L2, victim, now);
                        }
                    }
                    let victim = self.l1.install(addr, ready);
                    if S::ENABLED {
                        self.note_evict(CacheLevel::L1, victim, now);
                        self.note_fill(CacheLevel::L1, addr);
                        self.sink.emit(TraceEvent::SwpfFill {
                            site,
                            line,
                            now,
                            ready_at: ready,
                        });
                    }
                } else if S::ENABLED {
                    self.sink
                        .emit(TraceEvent::SwpfRedundant { site, line, now });
                }
            }
            CacheLevel::L2 => {
                if !self.l2.contains(addr) {
                    self.stats.swpf_fills += 1;
                    let ready = now + self.cfg.mem_latency;
                    let victim = self.l2.install(addr, ready);
                    if S::ENABLED {
                        self.note_evict(CacheLevel::L2, victim, now);
                        self.note_fill(CacheLevel::L2, addr);
                        self.sink.emit(TraceEvent::SwpfFill {
                            site,
                            line,
                            now,
                            ready_at: ready,
                        });
                    }
                } else if S::ENABLED {
                    self.sink
                        .emit(TraceEvent::SwpfRedundant { site, line, now });
                }
            }
        }
        SWPF_ISSUE_COST
    }

    /// A guarded prefetch load: a real (but speculative) load that fills
    /// the L1 and L2 and *primes the DTLB* on a miss — the paper's "TLB
    /// priming" mapping for intra-iteration prefetches on the Pentium 4
    /// (§3.3). Returns the issue cost; the fill is overlapped.
    pub fn guarded_load(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.guarded_loads += 1;
        let site = self.cur_site;
        let line = self.line_of(CacheLevel::L1, addr);
        let mut tlb_primed = false;
        if !self.tlb.lookup(addr) {
            self.tlb.insert(addr);
            self.stats.guarded_load_tlb_fills += 1;
            tlb_primed = true;
        }
        if S::ENABLED {
            self.sink.emit(TraceEvent::GuardedIssued {
                site,
                line,
                now,
                tlb_primed,
            });
        }
        if !self.l1.contains(addr) {
            self.stats.guarded_load_fills += 1;
            let ready = now + self.fill_latency(addr);
            if !self.l2.contains(addr) {
                let victim = self.l2.install(addr, ready);
                if S::ENABLED {
                    self.note_evict(CacheLevel::L2, victim, now);
                }
            }
            let victim = self.l1.install(addr, ready);
            if S::ENABLED {
                self.note_evict(CacheLevel::L1, victim, now);
                self.note_fill(CacheLevel::L1, addr);
                self.sink.emit(TraceEvent::GuardedFill {
                    site,
                    line,
                    now,
                    ready_at: ready,
                });
            }
        }
        GUARDED_LOAD_COST
    }

    /// Whether the line containing `addr` is resident at `level`.
    pub fn line_present(&self, level: CacheLevel, addr: u64) -> bool {
        match level {
            CacheLevel::L1 => self.l1.contains(addr),
            CacheLevel::L2 => self.l2.contains(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_trace::{attribute, RingSink};

    fn p4() -> MemorySystem {
        MemorySystem::new(ProcessorConfig::pentium4())
    }

    fn athlon() -> MemorySystem {
        MemorySystem::new(ProcessorConfig::athlon_mp())
    }

    #[test]
    fn cold_load_misses_everywhere() {
        let mut m = p4();
        let lat = m.load(0x10_0000, 0);
        assert_eq!(m.stats().l1_load_misses, 1);
        assert_eq!(m.stats().l2_load_misses, 1);
        assert_eq!(m.stats().dtlb_load_misses, 1);
        assert!(lat >= m.config().mem_latency);
    }

    #[test]
    fn second_load_hits_l1() {
        let mut m = p4();
        let first = m.load(0x10_0000, 0);
        let second = m.load(0x10_0008, first);
        assert_eq!(second, m.config().l1.hit_latency);
        assert_eq!(m.stats().l1_load_misses, 1);
    }

    #[test]
    fn p4_swpf_fills_l2_not_l1() {
        let mut m = p4();
        m.load(0x10_0000, 0); // prime TLB for the page
        m.software_prefetch(0x10_0400, 10);
        assert!(m.line_present(CacheLevel::L2, 0x10_0400));
        assert!(!m.line_present(CacheLevel::L1, 0x10_0400));
        assert_eq!(m.stats().swpf_fills, 1);
    }

    #[test]
    fn athlon_swpf_fills_l1() {
        let mut m = athlon();
        m.load(0x10_0000, 0);
        m.software_prefetch(0x10_0400, 10);
        assert!(m.line_present(CacheLevel::L1, 0x10_0400));
        assert!(m.line_present(CacheLevel::L2, 0x10_0400));
    }

    #[test]
    fn p4_swpf_dropped_on_tlb_miss() {
        let mut m = p4();
        m.software_prefetch(0x40_0000, 0); // page never touched
        assert_eq!(m.stats().swpf_dropped_tlb, 1);
        assert!(!m.line_present(CacheLevel::L2, 0x40_0000));
    }

    #[test]
    fn athlon_swpf_walks_on_tlb_miss() {
        let mut m = athlon();
        m.software_prefetch(0x40_0000, 0);
        assert_eq!(m.stats().swpf_dropped_tlb, 0);
        assert!(m.line_present(CacheLevel::L1, 0x40_0000));
        // And the page is now resident, so a demand load takes no TLB miss.
        let before = m.stats().dtlb_load_misses;
        m.load(0x40_0000, 1_000);
        assert_eq!(m.stats().dtlb_load_misses, before);
    }

    #[test]
    fn guarded_load_primes_tlb_and_l1() {
        let mut m = p4();
        let cost = m.guarded_load(0x40_0000, 0);
        assert_eq!(cost, GUARDED_LOAD_COST);
        assert_eq!(m.stats().guarded_load_tlb_fills, 1);
        assert!(m.line_present(CacheLevel::L1, 0x40_0000));
        // Demand load long after: TLB hit, L1 hit, no new miss events.
        let lat = m.load(0x40_0000, 10_000);
        assert_eq!(lat, m.config().l1.hit_latency);
        assert_eq!(m.stats().dtlb_load_misses, 0);
        assert_eq!(m.stats().l1_load_misses, 0);
    }

    #[test]
    fn too_late_prefetch_waits_partially() {
        let mut m = p4();
        m.load(0x10_0000, 0); // prime page
        let l2_misses_before = m.stats().l2_load_misses;
        m.software_prefetch(0x10_0800, 100);
        // Demand load 50 cycles later: line is in flight, waits ~150.
        let lat = m.load(0x10_0800, 150);
        let expected_wait = (100 + m.config().mem_latency) - 150;
        // L1 misses (P4 prefetch fills L2 only), L2 "hits" with a wait.
        assert_eq!(lat, m.config().l2.hit_latency + expected_wait);
        assert_eq!(
            m.stats().l2_load_misses,
            l2_misses_before,
            "no new L2 miss event"
        );
    }

    #[test]
    fn timely_prefetch_eliminates_stall() {
        let mut m = p4();
        m.load(0x10_0000, 0);
        m.software_prefetch(0x10_0800, 100);
        let lat = m.load(0x10_0800, 100 + m.config().mem_latency + 10);
        assert_eq!(lat, m.config().l2.hit_latency);
    }

    #[test]
    fn hw_prefetcher_fetches_next_line() {
        let mut m = p4();
        m.load(0x10_0000, 0);
        assert!(m.stats().hw_prefetch_fills >= 1);
        assert!(m.line_present(CacheLevel::L2, 0x10_0000 + 128));
    }

    #[test]
    fn reset_clears_state() {
        let mut m = p4();
        m.load(0x10_0000, 0);
        m.reset();
        assert_eq!(m.stats().loads, 0);
        assert!(!m.line_present(CacheLevel::L2, 0x10_0000));
    }

    // ---- tracing ------------------------------------------------------

    fn traced_p4() -> MemorySystem<RingSink> {
        MemorySystem::with_sink(ProcessorConfig::pentium4(), RingSink::default())
    }

    /// Replays the same access sequence against a traced and an untraced
    /// system and asserts identical latencies and stats.
    #[test]
    fn tracing_never_changes_simulated_numbers() {
        let mut plain = p4();
        let mut traced = traced_p4();
        let mut now = [0u64; 2];
        for i in 0..2_000u64 {
            let addr = 0x10_0000 + (i % 97) * 1_037;
            for (k, lat) in [plain.load(addr, now[0]), traced.load(addr, now[1])]
                .into_iter()
                .enumerate()
            {
                now[k] += lat;
            }
            if i % 7 == 0 {
                now[0] += plain.software_prefetch(addr + 4096, now[0]);
                now[1] += traced.software_prefetch(addr + 4096, now[1]);
            }
            if i % 13 == 0 {
                now[0] += plain.guarded_load(addr + 8192, now[0]);
                now[1] += traced.guarded_load(addr + 8192, now[1]);
            }
        }
        assert_eq!(now[0], now[1], "latency streams diverged");
        assert_eq!(plain.stats(), traced.stats(), "counters diverged");
        assert!(traced.sink().total() > 0, "traced run emitted events");
    }

    /// The traced counters reconcile with `MemStats`: every issued
    /// software prefetch is classified exactly once.
    #[test]
    fn attribution_reconciles_with_stats() {
        let mut m = traced_p4();
        let mut now = 0u64;
        m.set_site(SiteId(1));
        for i in 0..600u64 {
            let addr = 0x20_0000 + (i % 53) * 911;
            now += m.load(addr, now);
            now += m.software_prefetch(addr + 2048, now);
            if i % 5 == 0 {
                now += m.guarded_load(addr + 16384, now);
            }
        }
        let events = m.sink().events();
        assert_eq!(m.sink().overwritten(), 0, "ring must not truncate here");
        let attr = attribute(&events);
        let stats = m.stats();
        assert_eq!(
            attr.total(|e| e.swpf_issued),
            stats.swpf_issued,
            "issue events match the counter"
        );
        assert_eq!(attr.total(|e| e.swpf_dropped), stats.swpf_dropped_tlb);
        assert_eq!(attr.total(|e| e.swpf_fills), stats.swpf_fills);
        assert_eq!(attr.total(|e| e.guarded_issued), stats.guarded_loads);
        assert_eq!(attr.total(|e| e.guarded_fills), stats.guarded_load_fills);
        assert_eq!(
            attr.total(|e| e.guarded_tlb_primed),
            stats.guarded_load_tlb_fills
        );
        assert_eq!(attr.hw_prefetch_fills, stats.hw_prefetch_fills);
        assert_eq!(attr.l1_misses, stats.l1_load_misses + stats.l1_store_misses);
        // Exhaustive classification: the four buckets partition issues.
        let classified = attr.total(|e| e.useful())
            + attr.total(|e| e.too_early())
            + attr.total(|e| e.too_late())
            + attr.total(|e| e.dropped());
        assert_eq!(
            classified,
            stats.swpf_issued + stats.guarded_loads,
            "every issued prefetch classified exactly once"
        );
    }

    #[test]
    fn events_attribute_to_the_set_site() {
        let mut m = traced_p4();
        m.load(0x10_0000, 0); // prime page
        m.set_site(SiteId(7));
        m.software_prefetch(0x10_0400, 10);
        m.load(0x10_0400, 10_000); // settled use
        let attr = attribute(&m.sink().events());
        let e = attr.site(SiteId(7));
        assert_eq!(e.swpf_issued, 1);
        assert_eq!(e.useful(), 1);
    }

    #[test]
    fn eviction_classifies_too_early() {
        // Athlon: its prefetch instruction page-walks instead of dropping,
        // and fills the (small) L1, so prefetches to a region that is
        // never demand-accessed conflict each other out before any use.
        let mut m = MemorySystem::with_sink(ProcessorConfig::athlon_mp(), RingSink::default());
        m.set_site(SiteId(3));
        let mut now = 0;
        for i in 0..4_000u64 {
            let addr = 0x100_0000 + i * 64;
            now += m.load(addr, now);
            now += m.software_prefetch(0x500_0000 + i * 64, now);
        }
        let attr = attribute(&m.sink().events());
        let e = attr.site(SiteId(3));
        assert!(e.evicted > 0, "expected evictions, got {e:?}");
        assert!(e.too_early() > 0);
        assert_eq!(e.used_settled + e.used_waited, 0, "never demanded");
    }

    #[test]
    fn reset_clears_sink_and_pending() {
        let mut m = traced_p4();
        m.load(0x10_0000, 0);
        m.set_site(SiteId(2));
        m.software_prefetch(0x10_0400, 10);
        assert!(m.sink().total() > 0);
        m.reset();
        assert_eq!(m.sink().total(), 0, "reset clears the sink");
        m.load(0x10_0400, 0);
        let attr = attribute(&m.sink().events());
        assert!(
            attr.per_site.is_empty(),
            "no stale pending attribution survives reset: {attr:?}"
        );
    }
}
