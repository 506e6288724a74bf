//! The whole [`MemorySystem`] against a reference written to be read: this
//! file, top to bottom, is the definition of the memory model (DESIGN.md
//! §2), with none of the shipped layout tricks — recency is a timestamp,
//! a set is an unordered list, every access takes the one general road.
//! The shipped hierarchy must return the same latency for every operation
//! and the same counters, on streams with the locality of the benchmark
//! matrix: most demand accesses re-touch the page and the line touched
//! last, which is exactly the case the shipped fast paths special-case.

use spf_memsim::{CacheLevel, CacheParams, MemStats, MemorySystem, ProcessorConfig};
use spf_testkit::Rng;

// ---------------------------------------------------------------------
// Timestamp LRU: the one replacement policy of the TLB and both caches.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Entry {
    key: u64,
    /// Cycle the entry's fill completes (caches only).
    ready_at: u64,
    /// Reading of the list's clock at the entry's last use.
    used: u64,
}

#[derive(Clone)]
struct Lru {
    capacity: usize,
    entries: Vec<Entry>,
    clock: u64,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            entries: Vec::new(),
            clock: 0,
        }
    }

    fn get(&self, key: u64) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// The entry used last.
    fn front(&self) -> Option<&Entry> {
        self.entries.iter().max_by_key(|e| e.used)
    }

    /// A use of `key`: stamps it, and gives its fill time if present.
    fn touch(&mut self, key: u64) -> Option<u64> {
        self.clock += 1;
        let e = self.entries.iter_mut().find(|e| e.key == key)?;
        e.used = self.clock;
        Some(e.ready_at)
    }

    /// Makes `key` present and the most recent. One already there keeps
    /// the earlier of its fill times; otherwise, when full, the entry
    /// unused for longest makes room.
    fn put(&mut self, key: u64, ready_at: u64) {
        self.clock += 1;
        let used = self.clock;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            *e = Entry {
                key,
                ready_at: e.ready_at.min(ready_at),
                used,
            };
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = (0..self.capacity).min_by_key(|&i| self.entries[i].used);
            self.entries.swap_remove(lru.expect("capacity is not zero"));
        }
        self.entries.push(Entry {
            key,
            ready_at,
            used,
        });
    }
}

/// A set-associative cache: a line lives in set `line mod sets`.
struct RefCache {
    p: CacheParams,
    sets: Vec<Lru>,
}

impl RefCache {
    fn new(p: CacheParams) -> Self {
        RefCache {
            p,
            sets: vec![Lru::new(p.assoc as usize); p.sets() as usize],
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.p.line_bytes;
        ((line % self.p.sets()) as usize, line)
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, line) = self.locate(addr);
        self.sets[set].get(line).is_some()
    }

    /// A demand probe: on a hit, the cycles left until the fill completes.
    fn touch(&mut self, addr: u64, now: u64) -> Option<u64> {
        let (set, line) = self.locate(addr);
        let ready_at = self.sets[set].touch(line)?;
        Some(ready_at.saturating_sub(now))
    }

    fn fill(&mut self, addr: u64, ready_at: u64) {
        let (set, line) = self.locate(addr);
        self.sets[set].put(line, ready_at);
    }
}

// ---------------------------------------------------------------------
// The hierarchy.
// ---------------------------------------------------------------------

/// What the streams exercised, counted here so the shipped types need no
/// counter: a demand access is a *front hit* when its page is the DTLB's
/// most recent and its line is its L1 set's most recent with the fill
/// complete — the access that moves nothing.
#[derive(Default, Debug)]
struct Seen {
    demand: u64,
    front_hits: u64,
    other_settled_hits: u64,
    waited_fills: u64,
}

struct Reference {
    cfg: ProcessorConfig,
    l1: RefCache,
    l2: RefCache,
    tlb: Lru,
    stats: MemStats,
    seen: Seen,
}

impl Reference {
    fn new(cfg: ProcessorConfig) -> Self {
        Reference {
            l1: RefCache::new(cfg.l1),
            l2: RefCache::new(cfg.l2),
            tlb: Lru::new(cfg.dtlb_entries as usize),
            stats: MemStats::default(),
            seen: Seen::default(),
            cfg,
        }
    }

    /// A load or a store (write-allocate: a store fills like a load).
    /// In-order, stall-on-use: the latency is the page walk, if any, plus
    /// the hit latency of the level that has the line, plus whatever is
    /// left of that line's fill.
    fn demand(&mut self, addr: u64, now: u64, is_load: bool) -> u64 {
        let page = addr / self.cfg.page_bytes;
        let (set, line) = self.l1.locate(addr);
        let front_page = self.tlb.front().is_some_and(|e| e.key == page);
        let front_way = self.l1.sets[set]
            .front()
            .is_some_and(|e| e.key == line && e.ready_at <= now);
        let count = |load: &mut u64, store: &mut u64| *(if is_load { load } else { store }) += 1;
        let s = &mut self.stats;
        count(&mut s.loads, &mut s.stores);
        let mut latency = 0;
        let tlb_hit = self.tlb.touch(page).is_some();
        if !tlb_hit {
            self.tlb.put(page, 0);
            count(&mut s.dtlb_load_misses, &mut s.dtlb_store_misses);
            latency += self.cfg.tlb_miss_penalty;
        }
        let mut waited = 0;
        if let Some(wait) = self.l1.touch(addr, now) {
            latency += self.cfg.l1.hit_latency + wait;
            waited = wait;
        } else {
            count(&mut s.l1_load_misses, &mut s.l1_store_misses);
            if let Some(wait) = self.l2.touch(addr, now) {
                let fill = self.cfg.l2.hit_latency + wait;
                latency += fill;
                waited = wait;
                self.l1.fill(addr, now + fill);
            } else {
                count(&mut s.l2_load_misses, &mut s.l2_store_misses);
                let fill = self.cfg.mem_latency;
                latency += fill;
                self.l2.fill(addr, now + fill);
                self.l1.fill(addr, now + fill);
                // The hardware prefetcher: an L2 miss also fetches the next
                // L2 line, unless that would need a page walk.
                let next = addr + self.cfg.l2.line_bytes;
                let next_page = next / self.cfg.page_bytes;
                if self.cfg.hw_prefetch
                    && !self.l2.contains(next)
                    && self.tlb.get(next_page).is_some()
                {
                    self.l2.fill(next, now + fill + self.cfg.mem_latency);
                    s.hw_prefetch_fills += 1;
                }
            }
        }
        s.stall_cycles += latency;
        self.seen.demand += 1;
        self.seen.waited_fills += u64::from(waited > 0);
        if front_page && front_way {
            self.seen.front_hits += 1;
        } else if latency == self.cfg.l1.hit_latency {
            self.seen.other_settled_hits += 1;
        }
        latency
    }

    /// Fills L1 (and L2 beneath it) with the line of `addr`, from the L2
    /// if it is there, else from memory; `true` if the L1 lacked it.
    fn fill_l1(&mut self, addr: u64, now: u64) -> bool {
        if self.l1.contains(addr) {
            return false;
        }
        let ready = now
            + if self.l2.contains(addr) {
                self.cfg.l2.hit_latency
            } else {
                self.l2.fill(addr, now + self.cfg.mem_latency);
                self.cfg.mem_latency
            };
        self.l1.fill(addr, ready);
        true
    }

    /// The prefetch instruction: costs one cycle, never stalls. Without a
    /// DTLB entry the Pentium 4 cancels it, the Athlon walks the page
    /// table; the Pentium 4 fills the L2 only, the Athlon the L1.
    fn software_prefetch(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.swpf_issued += 1;
        let page = addr / self.cfg.page_bytes;
        if self.tlb.get(page).is_none() {
            if self.cfg.swpf_drops_on_tlb_miss {
                self.stats.swpf_dropped_tlb += 1;
                return 1;
            }
            self.tlb.put(page, 0);
        }
        let filled = match self.cfg.swpf_target {
            CacheLevel::L1 => self.fill_l1(addr, now),
            CacheLevel::L2 => {
                let absent = !self.l2.contains(addr);
                if absent {
                    self.l2.fill(addr, now + self.cfg.mem_latency);
                }
                absent
            }
        };
        self.stats.swpf_fills += u64::from(filled);
        1
    }

    /// The guarded load of §3.3: a real load whose result nobody waits
    /// for. It costs two cycles, uses the DTLB like a load — priming the
    /// entry when it is missing — and fills the L1.
    fn guarded_load(&mut self, addr: u64, now: u64) -> u64 {
        self.stats.guarded_loads += 1;
        let page = addr / self.cfg.page_bytes;
        if self.tlb.touch(page).is_none() {
            self.tlb.put(page, 0);
            self.stats.guarded_load_tlb_fills += 1;
        }
        let filled = self.fill_l1(addr, now);
        self.stats.guarded_load_fills += u64::from(filled);
        2
    }
}

// ---------------------------------------------------------------------
// The differential.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Op {
    Load,
    Store,
    Prefetch,
    Guarded,
}

struct Run {
    real: MemorySystem,
    model: Reference,
    now: u64,
    ops: u64,
}

impl Run {
    fn step(&mut self, op: Op, addr: u64) {
        let now = self.now;
        let (got, want) = match op {
            Op::Load => (
                self.real.load(addr, now),
                self.model.demand(addr, now, true),
            ),
            Op::Store => (
                self.real.store(addr, now),
                self.model.demand(addr, now, false),
            ),
            Op::Prefetch => (
                self.real.software_prefetch(addr, now),
                self.model.software_prefetch(addr, now),
            ),
            Op::Guarded => (
                self.real.guarded_load(addr, now),
                self.model.guarded_load(addr, now),
            ),
        };
        assert_eq!(got, want, "op {}: {op:?} {addr:#x} at {now}", self.ops);
        self.now += got + 1;
        self.ops += 1;
        if self.ops.is_multiple_of(1000) {
            assert_eq!(
                *self.real.stats(),
                self.model.stats,
                "after {} ops",
                self.ops
            );
        }
    }

    fn access(&mut self, rng: &mut Rng, addr: u64) {
        let op = if rng.chance(1, 4) {
            Op::Store
        } else {
            Op::Load
        };
        self.step(op, addr);
    }
}

/// Replays 600 seeded phases, each one of the matrix's access shapes, on
/// `cfg`; returns what the reference saw and counted.
fn replay(cfg: ProcessorConfig, seed: u64) -> (Seen, MemStats) {
    // A 16 MB heap: 4096 pages, far past either DTLB and either L2.
    const BASE: u64 = 0x1000_0000;
    const SPAN: u64 = 16 << 20;
    let mut rng = Rng::new(seed);
    let mut r = Run {
        real: MemorySystem::new(cfg.clone()),
        model: Reference::new(cfg),
        now: 0,
        ops: 0,
    };
    for _ in 0..600 {
        let start = BASE + rng.below(SPAN - (1 << 20)) / 8 * 8;
        match rng.index(5) {
            // Runs on one line: the fields of one object.
            0 => {
                for _ in 0..rng.usize_in(4, 24) {
                    let addr = (start & !63) + rng.below(8) * 8;
                    r.access(&mut rng, addr);
                }
            }
            // Two pages alternating: an object and the array it indexes.
            1 => {
                let other = BASE + rng.below(SPAN) / 8 * 8;
                for k in 0..rng.u64_in(8, 48) {
                    r.access(&mut rng, start + k / 4 * 8);
                    r.access(&mut rng, other + k * 8);
                }
            }
            // A strided walk; the short strides stay on a line for a while.
            2 => {
                let stride = *rng.pick(&[4, 8, 8, 16, 24, 64, 136]);
                for k in 0..rng.u64_in(32, 256) {
                    r.step(Op::Load, start + k * stride);
                }
            }
            // Pointer chasing over more pages than either DTLB holds, two
            // fields read per node.
            3 => {
                for _ in 0..rng.usize_in(50, 300) {
                    let node = BASE + rng.below(400) * 4096 + rng.below(64) * 64;
                    r.step(Op::Load, node);
                    r.access(&mut rng, node + 8);
                }
            }
            // Prefetches a few elements ahead of a demand stream, close
            // enough that some fills are still in flight when demanded.
            _ => {
                let op = *rng.pick(&[Op::Prefetch, Op::Guarded]);
                let stride = *rng.pick(&[64, 128, 192, 1088, 4160]);
                let ahead = rng.u64_in(1, 8) * stride;
                for k in 0..rng.u64_in(16, 128) {
                    let elem = start + k * stride;
                    r.step(op, elem + ahead);
                    r.step(Op::Load, elem);
                    r.access(&mut rng, elem + 8);
                }
            }
        }
    }
    assert_eq!(*r.real.stats(), r.model.stats, "at the end");
    (r.model.seen, r.model.stats)
}

#[test]
fn the_shipped_hierarchy_is_the_reference_on_streams_with_the_matrix_locality() {
    for (cfg, seed) in [
        (ProcessorConfig::pentium4(), 0x5EED_0001),
        (ProcessorConfig::athlon_mp(), 0x5EED_0002),
    ] {
        let name = cfg.name.clone();
        let (seen, stats) = replay(cfg, seed);
        // Not vacuous: the case the fast paths serve is common, and it is
        // not all there is.
        let share = seen.front_hits as f64 / seen.demand as f64;
        assert!((0.30..=0.90).contains(&share), "{name}: {seen:?}");
        assert!(seen.other_settled_hits > 0, "{name}: {seen:?}");
        assert!(seen.waited_fills > 0, "{name}: {seen:?}");
        for (what, n) in [
            ("L1 misses", stats.l1_load_misses),
            ("L2 misses", stats.l2_load_misses),
            ("DTLB misses", stats.dtlb_load_misses),
            ("store misses", stats.l1_store_misses),
            ("prefetch fills", stats.swpf_fills),
            ("guarded fills", stats.guarded_load_fills),
            ("primed DTLB entries", stats.guarded_load_tlb_fills),
            ("hardware prefetches", stats.hw_prefetch_fills),
        ] {
            assert!(n > 0, "{name}: no {what} in {stats:?}");
        }
        let dropped = stats.swpf_dropped_tlb > 0;
        assert_eq!(dropped, name == "Pentium 4", "{name}: {stats:?}");
    }
}
