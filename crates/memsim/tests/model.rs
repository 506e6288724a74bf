//! Model-based property tests: the flat-array [`Cache`] and the
//! fixed-capacity [`Tlb`] must behave exactly like naive reference models
//! (recency-ordered lists) on random operation streams — hits, misses,
//! waits, evictions, victim addresses, and LRU decisions all included.

use spf_memsim::cache::{Cache, Lookup};
use spf_memsim::config::CacheParams;
use spf_memsim::{ProcessorConfig, Tlb};
use spf_testkit::{cases, Rng};

mod pools;
use pools::{buckets, colliding_pages, home};

// ---------------------------------------------------------------------
// Reference cache: per-set recency-ordered `Vec`s, most recent at the
// back. This is an executable restatement of "set-associative LRU with
// fill timestamps" with none of the production layout tricks.
// ---------------------------------------------------------------------

struct RefCache {
    sets: Vec<Vec<(u64, u64)>>, // (tag, ready_at), LRU order per set
    assoc: usize,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
}

impl RefCache {
    fn new(p: CacheParams) -> Self {
        let sets = p.sets();
        RefCache {
            sets: vec![Vec::new(); sets as usize],
            assoc: p.assoc as usize,
            line_shift: p.line_bytes.trailing_zeros(),
            set_shift: (sets - 1).count_ones(),
            set_mask: sets - 1,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }

    fn lookup(&mut self, addr: u64, now: u64) -> Lookup {
        let (s, tag) = self.locate(addr);
        let set = &mut self.sets[s];
        match set.iter().position(|(t, _)| *t == tag) {
            Some(i) => {
                let entry = set.remove(i);
                set.push(entry);
                Lookup::Hit {
                    wait: entry.1.saturating_sub(now),
                }
            }
            None => Lookup::Miss,
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (s, tag) = self.locate(addr);
        self.sets[s].iter().any(|(t, _)| *t == tag)
    }

    /// Returns the line-aligned address of the line evicted, if any.
    fn install(&mut self, addr: u64, ready_at: u64) -> Option<u64> {
        let (s, tag) = self.locate(addr);
        let assoc = self.assoc;
        let set = &mut self.sets[s];
        match set.iter().position(|(t, _)| *t == tag) {
            Some(i) => {
                let (t, r) = set.remove(i);
                set.push((t, r.min(ready_at)));
                None
            }
            None => {
                let victim = (set.len() == assoc).then(|| {
                    let (lru_tag, _) = set.remove(0); // least recently used
                    ((lru_tag << self.set_shift) | s as u64) << self.line_shift
                });
                set.push((tag, ready_at));
                victim
            }
        }
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

fn arb_cache_params(rng: &mut Rng) -> CacheParams {
    let line_bytes = 1u64 << rng.u64_in(5, 7); // 32..128 B
    let assoc = 1u32 << rng.u64_in(0, 2); // 1..4 ways
    let sets = 1u64 << rng.u64_in(0, 3); // 1..8 sets
    CacheParams {
        size_bytes: sets * assoc as u64 * line_bytes,
        line_bytes,
        assoc,
        hit_latency: 1,
    }
}

/// Runs `steps` random operations drawn from `pool` against both caches,
/// flushing both once in about `4 * flush_one_in` of them.
fn check_cache(rng: &mut Rng, params: CacheParams, pool: &[u64], steps: usize, flush_one_in: u64) {
    let mut real = Cache::new(params);
    let mut model = RefCache::new(params);
    let mut now = 0u64;
    for _ in 0..steps {
        let addr = pool[rng.index(pool.len())];
        match rng.index(4) {
            0 => {
                let ready = now + rng.u64_in(0, 99);
                assert_eq!(
                    real.install(addr, ready),
                    model.install(addr, ready),
                    "victim of install({addr:#x}) with {params:?}"
                );
            }
            1 => assert_eq!(
                real.contains(addr),
                model.contains(addr),
                "contains({addr:#x}) with {params:?}"
            ),
            2 if rng.chance(1, flush_one_in) => {
                real.flush();
                model.flush();
            }
            _ => {
                assert_eq!(
                    real.lookup(addr, now),
                    model.lookup(addr, now),
                    "lookup({addr:#x}) at {now} with {params:?}"
                );
            }
        }
        now += rng.u64_in(0, 9);
    }
}

#[test]
fn cache_matches_reference_model() {
    cases(128, "flat cache matches list-LRU reference", |rng| {
        let params = arb_cache_params(rng);
        // A small address pool forces set conflicts and evictions.
        let pool: Vec<u64> = (0..24).map(|_| rng.u64_in(0, 0x2000)).collect();
        let steps = rng.usize_in(50, 399);
        check_cache(rng, params, &pool, steps, 20);
    });
}

/// The four cache geometries the simulator ships (P4 4-way 64 B / 8-way
/// 128 B, Athlon 2-way / 16-way 64 B), each with a pool that packs three
/// sets with one and a half times their ways and flushes some thousand
/// operations apart, so every way of a 16-way set fills and the victim is
/// decided by recency among all of them.
#[test]
fn shipped_cache_geometries_match_reference_model() {
    let (p4, athlon) = (ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp());
    for params in [p4.l1, p4.l2, athlon.l1, athlon.l2] {
        cases(16, "shipped cache geometry matches reference", |rng| {
            let sets = params.sets();
            let set_stride = params.line_bytes;
            let tag_stride = sets * params.line_bytes;
            let tags = u64::from(params.assoc) * 3 / 2 + 1;
            let mut pool = Vec::new();
            for _ in 0..3 {
                let set = rng.below(sets);
                for tag in 0..tags {
                    let offset = rng.below(params.line_bytes);
                    pool.push(tag * tag_stride + set * set_stride + offset);
                }
            }
            check_cache(rng, params, &pool, 6_000, 500);
        });
    }
}

// ---------------------------------------------------------------------
// Reference TLB: one recency-ordered list of pages.
// ---------------------------------------------------------------------

struct RefTlb {
    pages: Vec<u64>, // LRU order, most recent at the back
    capacity: usize,
    page_shift: u32,
}

impl RefTlb {
    fn new(entries: usize, page_bytes: u64) -> Self {
        RefTlb {
            pages: Vec::new(),
            capacity: entries,
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    fn lookup(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        match self.pages.iter().position(|&p| p == page) {
            Some(i) => {
                self.pages.remove(i);
                self.pages.push(page);
                true
            }
            None => false,
        }
    }

    fn contains(&self, addr: u64) -> bool {
        self.pages.contains(&(addr >> self.page_shift))
    }

    fn insert(&mut self, addr: u64) {
        let page = addr >> self.page_shift;
        if let Some(i) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(i);
        } else if self.pages.len() == self.capacity {
            self.pages.remove(0);
        }
        self.pages.push(page);
    }

    fn flush(&mut self) {
        self.pages.clear();
    }
}

const PAGE_BYTES: u64 = 4096;

/// Runs `steps` random operations over `pages` against both TLBs,
/// flushing both once in about `4 * flush_one_in` of them.
fn check_tlb(rng: &mut Rng, entries: u32, pages: &[u64], steps: usize, flush_one_in: u64) {
    let mut real = Tlb::new(entries, PAGE_BYTES);
    let mut model = RefTlb::new(entries as usize, PAGE_BYTES);
    run_tlb(rng, &mut real, &mut model, pages, steps, flush_one_in);
}

/// [`check_tlb`]'s operation loop, on TLBs the caller made.
fn run_tlb(
    rng: &mut Rng,
    real: &mut Tlb,
    model: &mut RefTlb,
    pages: &[u64],
    steps: usize,
    flush_one_in: u64,
) {
    for _ in 0..steps {
        let addr = pages[rng.index(pages.len())] * PAGE_BYTES + rng.u64_in(0, PAGE_BYTES - 1);
        match rng.index(4) {
            0 => {
                real.insert(addr);
                model.insert(addr);
            }
            1 => assert_eq!(
                real.contains(addr),
                model.contains(addr),
                "contains({addr:#x})"
            ),
            2 if rng.chance(1, flush_one_in) => {
                real.flush();
                model.flush();
            }
            _ => assert_eq!(real.lookup(addr), model.lookup(addr), "lookup({addr:#x})"),
        }
    }
}

#[test]
fn tlb_matches_reference_model() {
    cases(
        128,
        "fixed-capacity TLB matches list-LRU reference",
        |rng| {
            let entries = rng.u64_in(1, 8) as u32;
            // Few distinct pages so reuse, eviction, and re-insertion all occur.
            let pages: Vec<u64> = (0..12).map(|_| rng.u64_in(0, 19)).collect();
            let steps = rng.usize_in(50, 399);
            check_tlb(rng, entries, &pages, steps, 20);
        },
    );
}

/// The shipped DTLB sizes (P4 64 entries, Athlon 256), over one and a
/// half times as many pages as entries, with flushes some ten thousand
/// operations apart so the TLB fills and evicts in between.
#[test]
fn shipped_tlb_sizes_match_reference_model() {
    for entries in [
        ProcessorConfig::pentium4().dtlb_entries,
        ProcessorConfig::athlon_mp().dtlb_entries,
    ] {
        cases(8, "shipped TLB size matches reference", |rng| {
            let pages: Vec<u64> = (0..u64::from(entries) * 3 / 2).collect();
            check_tlb(rng, entries, &pages, 30_000, 2_500);
        });
    }
}

// ---------------------------------------------------------------------
// Page pools that stress the TLB's page → slot index.
// ---------------------------------------------------------------------

#[test]
fn restated_index_hash_is_the_tlbs() {
    assert_eq!(
        [0, 1, 2, 233, 144].map(|p| home(p, 256)),
        [0, 158, 60, 0, 255]
    );
    assert_eq!([1, 2, 3].map(|p| home(p, 1024)), [632, 241, 874]);
}

/// Pools whose pages all hash to the index's last bucket, or to the four
/// buckets around its end, one to three times the capacity: probe chains
/// run off the end of the table and wrap to its start, and each eviction's
/// backward shift moves entries across that seam.
#[test]
fn colliding_pages_match_reference_model() {
    for entries in [1, 3, 8, 64, 256] {
        cases(8, "TLB over colliding pages matches reference", |rng| {
            let last = buckets(entries) - 1;
            let homes = if rng.bool() {
                vec![last]
            } else {
                vec![last - 1, last, 0, 1]
            };
            let count = entries as usize * rng.usize_in(1, 3) + rng.usize_in(0, 2);
            let pages = colliding_pages(entries, &homes, rng.below(1 << 20), count);
            check_tlb(rng, entries, &pages, 4_000, 500);
        });
    }
}

/// The shipped DTLB sizes over two to four times as many pages as entries,
/// spread over a wide range, never flushed: once the TLB is full every
/// insert of a page not resident evicts the LRU page and re-indexes.
#[test]
fn oversubscribed_shipped_tlbs_match_reference_model() {
    for entries in [
        ProcessorConfig::pentium4().dtlb_entries,
        ProcessorConfig::athlon_mp().dtlb_entries,
    ] {
        cases(8, "oversubscribed TLB matches reference", |rng| {
            let count = u64::from(entries) * rng.u64_in(2, 4);
            let pages: Vec<u64> = (0..count).map(|_| rng.below(1 << 36)).collect();
            check_tlb(rng, entries, &pages, 20_000, u64::MAX);
        });
    }
}

/// A stream over pages colliding around the index's end, a flush of both
/// TLBs in its middle, then the same pool again: the flush empties the
/// index with the list, and the refill takes slots from the first again.
#[test]
fn a_flush_mid_stream_then_reuse_matches_reference_model() {
    for entries in [
        ProcessorConfig::pentium4().dtlb_entries,
        ProcessorConfig::athlon_mp().dtlb_entries,
    ] {
        cases(8, "TLB flushed mid-stream matches reference", |rng| {
            let last = buckets(entries) - 1;
            let count = entries as usize * 2;
            let pages = colliding_pages(entries, &[last, 0], rng.below(1 << 20), count);
            let mut real = Tlb::new(entries, PAGE_BYTES);
            let mut model = RefTlb::new(entries as usize, PAGE_BYTES);
            run_tlb(rng, &mut real, &mut model, &pages, 5_000, u64::MAX);
            real.flush();
            model.flush();
            assert!(pages.iter().all(|p| !real.contains(p * PAGE_BYTES)));
            run_tlb(rng, &mut real, &mut model, &pages, 5_000, u64::MAX);
        });
    }
}
