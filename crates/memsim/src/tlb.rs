//! A fully associative, LRU data TLB.
//!
//! Hot-path layout: `pages[..len]` holds the resident pages most recently
//! used first, in a boxed slice sized at construction — nothing allocates
//! after `new`. Recency *is* the position: a hit moves its page to the
//! front, the victim is whatever sits in the last slot. Uses of a page
//! are totally ordered in time, so this is exact LRU with no timestamps,
//! and a repeat hit on the front page changes nothing at all.

/// A fully associative translation lookaside buffer.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Fixed-capacity storage; only `pages[..len]` is live, MRU first.
    pages: Box<[u64]>,
    len: usize,
    page_shift: u32,
}

impl Tlb {
    /// Creates a TLB with `entries` slots for pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: u32, page_bytes: u64) -> Self {
        assert!(entries > 0, "dtlb_entries must be at least 1");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            pages: vec![0; entries as usize].into_boxed_slice(),
            len: 0,
            page_shift: page_bytes.trailing_zeros(),
        }
    }

    #[inline(always)]
    fn page(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Slot of `page` among the live entries.
    #[inline(always)]
    fn position(&self, page: u64) -> Option<usize> {
        self.pages[..self.len].iter().position(|&p| p == page)
    }

    /// Looks up the page of `addr`; returns whether it hit (updating LRU).
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> bool {
        match self.position(self.page(addr)) {
            Some(0) => true,
            Some(k) => {
                self.pages[..=k].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// Whether the page of `addr` is the most recently used one: the case
    /// in which [`Self::lookup`] hits and moves nothing.
    #[inline(always)]
    pub(crate) fn is_front(&self, addr: u64) -> bool {
        self.pages[..self.len].first() == Some(&self.page(addr))
    }

    /// Whether the page of `addr` is resident (no LRU update).
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.position(self.page(addr)).is_some()
    }

    /// Inserts the page of `addr`, evicting the LRU entry if full.
    pub fn insert(&mut self, addr: u64) {
        let page = self.page(addr);
        // The slot that ends up in front: the page's own if resident,
        // else a fresh one while any is free, else the last (the LRU).
        let k = self.position(page).unwrap_or_else(|| {
            self.len = (self.len + 1).min(self.pages.len());
            self.len - 1
        });
        self.pages[..=k].rotate_right(1);
        self.pages[0] = page;
    }

    /// Empties the TLB.
    pub fn flush(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "dtlb_entries must be at least 1")]
    fn zero_entries_rejected_at_construction() {
        let _ = Tlb::new(0, 4096);
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
