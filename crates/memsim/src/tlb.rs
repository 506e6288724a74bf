//! A fully associative, exact-LRU data TLB in which every operation takes
//! constant time. Storage is two boxed slices sized at construction —
//! nothing allocates after `new`:
//!
//! - `index` maps a page to its slot by open addressing: a power of two at
//!   least four times the entry count (256 buckets for the Pentium 4's 64
//!   entries, 1 024 for the Athlon's 256), Fibonacci-hashed and probed
//!   linearly. A removal shifts the rest of its probe chain back instead
//!   of leaving a tombstone, so a probe ends at the first empty bucket.
//! - `slots` hold the pages, and their `prev` / `next` fields link every
//!   slot into one list from `head` to `tail`: the `len` live slots first,
//!   most recently used first, then the free ones.
//!
//! A hit moves its slot to the head. A miss takes the tail slot — a free
//! one while any is left, else the least recently used, whose page leaves
//! the index — and moves it to the head. Uses of a page are totally
//! ordered in time and the list keeps exactly that order, so this is exact
//! LRU with no timestamps, and a repeat hit on the head changes nothing.

/// An empty `index` bucket; [`Tlb::new`] keeps every slot number below it.
const EMPTY: u16 = u16::MAX;

/// The page a slot holds, if it is live, and its list neighbours towards
/// `head` and towards `tail`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page: u64,
    prev: u16,
    next: u16,
}

/// A fully associative translation lookaside buffer.
#[derive(Clone, Debug)]
pub struct Tlb {
    slots: Box<[Slot]>,
    head: u16,
    tail: u16,
    len: usize,
    /// Page → slot, `EMPTY` where no live page sits.
    index: Box<[u16]>,
    /// `64 − log2(index.len())`: a page's home bucket is the top bits of
    /// its Fibonacci hash.
    hash_shift: u32,
    page_shift: u32,
}

impl Tlb {
    /// Creates a TLB with `entries` slots for pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above 65 535 (slot numbers are
    /// `u16`s), or if `page_bytes` is not a power of two.
    pub fn new(entries: u32, page_bytes: u64) -> Self {
        assert!(entries > 0, "dtlb_entries must be at least 1");
        assert!(
            entries <= u32::from(EMPTY),
            "dtlb_entries must be at most 65535"
        );
        let last = (entries - 1) as u16;
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let buckets = (entries as usize * 4).next_power_of_two();
        Tlb {
            slots: (0..=last)
                .map(|s| Slot {
                    page: 0,
                    prev: s.wrapping_sub(1),
                    next: s.wrapping_add(1),
                })
                .collect(),
            head: 0,
            tail: last,
            len: 0,
            index: vec![EMPTY; buckets].into_boxed_slice(),
            hash_shift: 64 - buckets.trailing_zeros(),
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    #[inline(always)]
    fn page(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// The bucket a probe for `page` starts at.
    #[inline(always)]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hash_shift) as usize
    }

    /// The bucket holding `page`, or the empty one its probe ends at.
    #[inline(always)]
    fn bucket(&self, page: u64) -> usize {
        let mask = self.index.len() - 1;
        let mut b = self.home(page);
        loop {
            let s = self.index[b];
            if s == EMPTY || self.slots[usize::from(s)].page == page {
                return b;
            }
            b = (b + 1) & mask;
        }
    }

    /// Slot of `page`, if resident.
    #[inline(always)]
    fn slot(&self, page: u64) -> Option<u16> {
        let s = self.index[self.bucket(page)];
        (s != EMPTY).then_some(s)
    }

    /// Moves slot `s` to the head of the list.
    #[inline(always)]
    fn touch(&mut self, s: u16) {
        if s == self.head {
            return;
        }
        let Slot { prev, next, .. } = self.slots[usize::from(s)];
        self.slots[usize::from(prev)].next = next;
        if s == self.tail {
            self.tail = prev;
        } else {
            self.slots[usize::from(next)].prev = prev;
        }
        self.slots[usize::from(s)].next = self.head;
        self.slots[usize::from(self.head)].prev = s;
        self.head = s;
    }

    /// Takes resident `page` out of the index. Each later entry of its
    /// probe chain moves back into the hole if the hole lies on its probe.
    fn unindex(&mut self, page: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.bucket(page);
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let s = self.index[b];
            if s == EMPTY {
                break;
            }
            let home = self.home(self.slots[usize::from(s)].page);
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = s;
                hole = b;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Looks up the page of `addr`; returns whether it hit (updating LRU).
    #[inline(always)]
    pub fn lookup(&mut self, addr: u64) -> bool {
        match self.slot(self.page(addr)) {
            Some(s) => {
                self.touch(s);
                true
            }
            None => false,
        }
    }

    /// Whether the page of `addr` is the most recently used one: the case
    /// in which [`Self::lookup`] hits and moves nothing.
    #[inline(always)]
    pub(crate) fn is_front(&self, addr: u64) -> bool {
        self.len > 0 && self.slots[usize::from(self.head)].page == self.page(addr)
    }

    /// Whether the page of `addr` is resident (no LRU update).
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.slot(self.page(addr)).is_some()
    }

    /// Inserts the page of `addr`, evicting the LRU entry if full.
    pub fn insert(&mut self, addr: u64) {
        let page = self.page(addr);
        if let Some(s) = self.slot(page) {
            return self.touch(s);
        }
        let s = self.tail;
        if self.len == self.slots.len() {
            self.unindex(self.slots[usize::from(s)].page);
        } else {
            self.len += 1;
        }
        self.slots[usize::from(s)].page = page;
        let b = self.bucket(page);
        self.index[b] = s;
        self.touch(s);
    }

    /// Empties the TLB.
    pub fn flush(&mut self) {
        self.len = 0;
        self.index.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_testkit::cases;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.lookup(0x1000));
        t.insert(0x1000);
        assert!(t.lookup(0x1234)); // same page
        assert!(!t.lookup(0x2000)); // next page
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = Tlb::new(2, 4096);
        t.insert(0x0000);
        t.insert(0x1000);
        assert!(t.lookup(0x0000)); // touch page 0
        t.insert(0x2000); // evicts page 1
        assert!(t.contains(0x0000));
        assert!(!t.contains(0x1000));
        assert!(t.contains(0x2000));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(2, 4096);
        t.insert(0x0000);
        t.flush();
        assert!(!t.contains(0x0000));
    }

    #[test]
    fn only_a_live_first_slot_is_the_front() {
        let mut t = Tlb::new(2, 4096);
        // An empty TLB's storage reads as page 0, which is not resident.
        assert!(!t.is_front(0x0000));
        t.insert(0x1000);
        t.insert(0x2000);
        assert!(t.is_front(0x2fff) && !t.is_front(0x1000));
        assert!(t.lookup(0x1000) && t.is_front(0x1000));
        t.flush();
        assert!(!t.is_front(0x1000));
    }

    /// After every operation of a random stream, `is_front` holds for
    /// exactly the most recent page of a move-to-front list model, over
    /// pools of up to four times the capacity.
    #[test]
    fn is_front_is_the_models_most_recent_page() {
        cases(32, "is_front names the model's most recent page", |rng| {
            let entries = rng.u64_in(1, 64) as usize;
            let pool = rng.u64_in(1, 4 * entries as u64);
            let mut t = Tlb::new(entries as u32, 4096);
            let mut mru: Vec<u64> = Vec::new(); // most recent first
            for _ in 0..1_000 {
                let page = rng.below(pool);
                let addr = page * 4096 + rng.below(4096);
                let at = mru.iter().position(|&p| p == page);
                match rng.index(8) {
                    0 if rng.chance(1, 20) => {
                        t.flush();
                        mru.clear();
                    }
                    0..=2 => {
                        t.insert(addr);
                        if let Some(i) = at {
                            mru.remove(i);
                        } else if mru.len() == entries {
                            mru.pop();
                        }
                        mru.insert(0, page);
                    }
                    _ => {
                        assert_eq!(t.lookup(addr), at.is_some());
                        if let Some(i) = at {
                            mru.remove(i);
                            mru.insert(0, page);
                        }
                    }
                }
                for probe in 0..pool {
                    assert_eq!(t.is_front(probe * 4096), mru.first() == Some(&probe));
                }
            }
        });
    }

    /// `tests/model.rs` restates the index hash to pick pages that collide
    /// in it; these homes pin both copies.
    #[test]
    fn index_hash_is_pinned() {
        let p4 = Tlb::new(64, 4096); // 256 buckets
        assert_eq!(
            [0, 1, 2, 233, 144].map(|p| p4.home(p)),
            [0, 158, 60, 0, 255]
        );
        let athlon = Tlb::new(256, 4096); // 1 024 buckets
        assert_eq!([1, 2, 3].map(|p| athlon.home(p)), [632, 241, 874]);
    }

    #[test]
    #[should_panic(expected = "dtlb_entries must be at least 1")]
    fn zero_entries_rejected_at_construction() {
        let _ = Tlb::new(0, 4096);
    }

    #[test]
    #[should_panic(expected = "dtlb_entries must be at most 65535")]
    fn entries_beyond_a_u16_slot_number_rejected_at_construction() {
        let _ = Tlb::new(65_536, 4096);
    }

    #[test]
    fn insert_never_grows_past_capacity() {
        let mut t = Tlb::new(3, 4096);
        for p in 0..32u64 {
            t.insert(p * 4096);
        }
        // Only the three most recent pages are resident.
        assert!(t.contains(31 * 4096));
        assert!(t.contains(30 * 4096));
        assert!(t.contains(29 * 4096));
        assert!(!t.contains(28 * 4096));
    }
}
