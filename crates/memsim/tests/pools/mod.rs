//! Page pools that stress the DTLB's page → slot index, shared by the
//! TLB's own model test (`model.rs`) and the whole-hierarchy reference
//! (`reference.rs`).

/// The TLB's index hash, restated: the home bucket of `page` in an index
/// of `buckets` (a power of two) is the top bits of its Fibonacci hash.
/// `model.rs::restated_index_hash_is_the_tlbs` and
/// `tlb::tests::index_hash_is_pinned` pin the same homes, so the two
/// copies cannot drift apart unseen.
pub fn home(page: u64, buckets: u64) -> u64 {
    page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - buckets.trailing_zeros())
}

/// Index buckets of a TLB with `entries` entries.
pub fn buckets(entries: u32) -> u64 {
    (u64::from(entries) * 4).next_power_of_two()
}

/// The first `count` pages from `start` up whose home is among `homes`.
pub fn colliding_pages(entries: u32, homes: &[u64], start: u64, count: usize) -> Vec<u64> {
    let buckets = buckets(entries);
    (start..)
        .filter(|&p| homes.contains(&home(p, buckets)))
        .take(count)
        .collect()
}
