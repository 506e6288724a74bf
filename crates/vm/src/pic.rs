//! Polymorphic inline caches for call-site body resolution.
//!
//! This IR has direct calls only, so the polymorphism a call site sees is
//! not receiver classes but *code revisions*: each method's installed body
//! changes over time (interpreted original → JIT generation 0 → adaptive
//! deopt back to the original → generation 1 → …). Every mutation of the
//! installed body bumps the method's revision counter, and a PIC way is a
//! `(revision, body index)` pair — so a hit can skip the `compiled[mid]`
//! lookup and the body selection, while any stale way misses by
//! construction (and so never resolves to a body the arena has freed).
//! Since bodies are named by index, that is all a hit saves: the cache
//! stands in front of one index load, and is kept because
//! `vm.pic_hit_rate` is a benchmark-pinned metric (DESIGN.md §11).
//!
//! Caches are 2-way with a move-to-front monomorphic fast path (way 0);
//! overflowing the second way marks the site megamorphic, which disables
//! the cache and routes every call through the full resolution slow path.
//! PIC state is host-only: hits and misses resolve to the identical body
//! the slow path would pick, so simulated numbers never depend on cache
//! state.

use crate::vm::CodeId;

/// One cache way: the resolved target for a method code revision.
#[derive(Clone, Copy)]
pub(crate) struct PicWay {
    pub rev: u32,
    pub target: CodeId,
}

/// A per-call-site inline cache.
#[derive(Default)]
pub(crate) struct CallPic {
    pub ways: [Option<PicWay>; 2],
    pub megamorphic: bool,
}

impl CallPic {
    /// Looks up the target cached for `rev`. A hit in way 1 swaps it to
    /// way 0, keeping the monomorphic common case a single compare.
    #[inline(always)]
    pub fn lookup(&mut self, rev: u32) -> Option<CodeId> {
        if self.megamorphic {
            return None;
        }
        if let Some(w) = self.ways[0] {
            if w.rev == rev {
                return Some(w.target);
            }
        }
        if let Some(w) = self.ways[1] {
            if w.rev == rev {
                self.ways.swap(0, 1);
                return Some(w.target);
            }
        }
        None
    }

    /// Records the slow path's resolution for `rev`. A revision already
    /// held is left alone (the slow path re-resolves a cached interpreted
    /// body on every call past the compile threshold while its compile is
    /// pending, and must not spend a way each time). With both ways full
    /// of other revisions the site goes megamorphic and the cache is
    /// dropped.
    pub fn insert(&mut self, rev: u32, target: CodeId) {
        if self.megamorphic || self.ways.iter().flatten().any(|w| w.rev == rev) {
            return;
        }
        let way = PicWay { rev, target };
        if self.ways[0].is_none() {
            self.ways[0] = Some(way);
        } else if self.ways[1].is_none() {
            // New entry becomes the monomorphic way.
            self.ways.swap(0, 1);
            self.ways[0] = Some(way);
        } else {
            self.megamorphic = true;
            self.ways = [None, None];
        }
    }
}

/// Host-side PIC effectiveness counters (see [`crate::Vm::pic_stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PicStats {
    /// Calls resolved by a cache hit.
    pub hits: u64,
    /// Calls that took the full resolution slow path.
    pub misses: u64,
    /// Call sites with PIC slots allocated.
    pub sites: usize,
    /// Sites that overflowed both ways and disabled their cache.
    pub megamorphic_sites: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reinserting_a_held_revision_spends_no_way() {
        let mut pic = CallPic::default();
        for _ in 0..5 {
            pic.insert(7, 1);
        }
        assert!(!pic.megamorphic);
        assert_eq!(pic.lookup(7), Some(1));
        pic.insert(8, 2);
        for _ in 0..5 {
            pic.insert(7, 1);
            pic.insert(8, 2);
        }
        assert!(!pic.megamorphic, "two revisions fit two ways");
        assert_eq!((pic.lookup(7), pic.lookup(8)), (Some(1), Some(2)));
        // Only a third *distinct* revision overflows the cache.
        pic.insert(9, 3);
        assert!(pic.megamorphic);
        assert_eq!(pic.lookup(9), None);
    }
}
