//! A set-associative cache with LRU replacement and per-line fill
//! timestamps.
//!
//! Hot-path layout: structure of arrays, one slot per line; set `s`
//! occupies slots `s * assoc .. (s + 1) * assoc`, most recently used way
//! first. Recency *is* the position — a hit moves its way to the front of
//! the set and the victim is always the last way. Uses of a set's lines
//! are totally ordered in time, so this is exact LRU with no timestamps,
//! and a repeat hit on the front way changes nothing. A lookup scans only
//! the dense `tags`; `ready_at` is read on a hit. An empty way holds
//! `INVALID`, which no address maps to, so it needs no separate valid
//! bit; installs fill from the front, hence the valid ways are a prefix
//! and the last way is empty whenever any is.

use crate::config::CacheParams;

/// Tag of an empty way. A real tag is an address shifted right by at least
/// one bit (asserted in [`Cache::new`]), so it is never all ones.
const INVALID: u64 = u64::MAX;

/// Result of a cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// Line present; `wait` extra cycles until an in-flight fill completes
    /// (0 for a settled line).
    Hit {
        /// Extra cycles to wait for an in-flight fill.
        wait: u64,
    },
    /// Line absent.
    Miss,
}

/// A set-associative, LRU, write-allocate cache.
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    /// Tag per way, each set MRU first; [`INVALID`] marks an empty way.
    tags: Box<[u64]>,
    /// Cycle at which the way's fill completes, parallel to `tags`. A
    /// demand access before this time waits for the remainder — this is
    /// how prefetch timeliness ("not too late") is modelled.
    ready_at: Box<[u64]>,
    assoc: usize,
    set_mask: u64,
    set_shift: u32,
    line_shift: u32,
}

impl Cache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent, or is a single one-byte
    /// line per way (whose tags would be whole addresses).
    pub fn new(params: CacheParams) -> Self {
        let sets = params.sets();
        let assoc = params.assoc as usize;
        let set_shift = (sets - 1).count_ones();
        let line_shift = params.line_bytes.trailing_zeros();
        assert!(
            set_shift + line_shift > 0,
            "line_bytes x sets must exceed 1: a tag must be shorter than an address"
        );
        let ways = sets as usize * assoc;
        Cache {
            params,
            tags: vec![INVALID; ways].into_boxed_slice(),
            ready_at: vec![0; ways].into_boxed_slice(),
            assoc,
            set_mask: sets - 1,
            set_shift,
            line_shift,
        }
    }

    /// The cache's geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    #[inline(always)]
    fn set_base_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize * self.assoc,
            line >> self.set_shift,
        )
    }

    /// Moves way `k` of the set at `base` to the front (most recent).
    #[inline(always)]
    fn promote(&mut self, base: usize, k: usize) {
        self.tags[base..=base + k].rotate_right(1);
        self.ready_at[base..=base + k].rotate_right(1);
    }

    /// Looks up `addr`, updating LRU state on a hit.
    #[inline]
    pub fn lookup(&mut self, addr: u64, now: u64) -> Lookup {
        let (base, tag) = self.set_base_and_tag(addr);
        let set = &self.tags[base..base + self.assoc];
        let Some(k) = set.iter().position(|&t| t == tag) else {
            return Lookup::Miss;
        };
        if k != 0 {
            self.promote(base, k);
        }
        Lookup::Hit {
            wait: self.ready_at[base].saturating_sub(now),
        }
    }

    /// Whether the line containing `addr` is its set's most recent way and
    /// its fill is complete at `now`: the case in which [`Self::lookup`]
    /// returns `Hit { wait: 0 }` and moves nothing.
    #[inline(always)]
    pub(crate) fn front_settled(&self, addr: u64, now: u64) -> bool {
        let (base, tag) = self.set_base_and_tag(addr);
        self.tags[base] == tag && self.ready_at[base] <= now
    }

    /// Whether the line containing `addr` is present (no LRU update).
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (base, tag) = self.set_base_and_tag(addr);
        self.tags[base..base + self.assoc].contains(&tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    /// `ready_at` is the cycle its fill completes. Re-installing an already
    /// present line only tightens its `ready_at` (a demand fill of an
    /// in-flight prefetch). Returns the line-aligned address of the valid
    /// line evicted to make room, if any (used for prefetch-eviction
    /// attribution).
    pub fn install(&mut self, addr: u64, ready_at: u64) -> Option<u64> {
        let (base, tag) = self.set_base_and_tag(addr);
        let set = &self.tags[base..base + self.assoc];
        if let Some(k) = set.iter().position(|&t| t == tag) {
            self.promote(base, k);
            self.ready_at[base] = self.ready_at[base].min(ready_at);
            return None;
        }
        // The last way is empty if any is, else the least recently used.
        let last = self.assoc - 1;
        let victim = self.tags[base + last];
        self.promote(base, last);
        self.tags[base] = tag;
        self.ready_at[base] = ready_at;
        (victim != INVALID).then(|| {
            let set_index = (base / self.assoc) as u64;
            ((victim << self.set_shift) | set_index) << self.line_shift
        })
    }

    /// Invalidates everything (used between benchmark runs).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B
        Cache::new(CacheParams {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x1000, 0), Lookup::Miss);
        c.install(0x1000, 0);
        assert_eq!(c.lookup(0x1000, 10), Lookup::Hit { wait: 0 });
        // Same line, different offset.
        assert_eq!(c.lookup(0x103f, 10), Lookup::Hit { wait: 0 });
        // Next line misses.
        assert_eq!(c.lookup(0x1040, 10), Lookup::Miss);
    }

    #[test]
    fn in_flight_fill_waits() {
        let mut c = small();
        c.install(0x2000, 150);
        assert_eq!(c.lookup(0x2000, 100), Lookup::Hit { wait: 50 });
        assert_eq!(c.lookup(0x2000, 200), Lookup::Hit { wait: 0 });
    }

    #[test]
    fn the_front_probe_sees_what_a_lookup_would_not_move() {
        let mut c = small();
        c.install(0x0000, 150);
        c.install(0x0100, 0); // same set, now in front
        assert!(c.front_settled(0x013f, 0) && !c.front_settled(0x0000, 200));
        let _ = c.lookup(0x0000, 100);
        // In front, but its fill completes at 150.
        assert!(!c.front_settled(0x0000, 149) && c.front_settled(0x0000, 150));
        c.flush();
        assert!(!c.front_settled(0x0000, 150));
    }

    #[test]
    fn lru_eviction() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets * line = 256).
        assert_eq!(c.install(0x0000, 0), None);
        assert_eq!(c.install(0x0100, 0), None);
        let _ = c.lookup(0x0000, 1); // make 0x0000 most recent
        let victim = c.install(0x0200, 0); // evicts 0x0100 (LRU)
        assert_eq!(victim, Some(0x0100), "victim line address is returned");
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0100));
        assert!(c.contains(0x0200));
    }

    #[test]
    fn eviction_reports_line_aligned_victim() {
        let mut c = small();
        // Offsets within the line must not leak into the victim address.
        c.install(0x0011, 0);
        c.install(0x0108, 0);
        let victim = c.install(0x0207, 0);
        assert_eq!(victim, Some(0x0000));
    }

    #[test]
    fn reinstall_tightens_ready_at() {
        let mut c = small();
        c.install(0x3000, 500);
        c.install(0x3000, 100); // demand fill while prefetch in flight
        assert_eq!(c.lookup(0x3000, 100), Lookup::Hit { wait: 0 });
    }

    #[test]
    fn flush_clears() {
        let mut c = small();
        c.install(0x1000, 0);
        c.flush();
        assert_eq!(c.lookup(0x1000, 0), Lookup::Miss);
    }

    #[test]
    #[should_panic(expected = "a tag must be shorter than an address")]
    fn whole_address_tags_rejected_at_construction() {
        // One set of one-byte lines: the tag of address `u64::MAX` would
        // be the empty-way marker.
        let _ = Cache::new(CacheParams {
            size_bytes: 2,
            line_bytes: 1,
            assoc: 2,
            hit_latency: 1,
        });
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        // Fill all four sets; each line stays resident.
        for s in 0..4u64 {
            c.install(s * 64, 0);
        }
        for s in 0..4u64 {
            assert!(c.contains(s * 64), "set {s}");
        }
    }
}
