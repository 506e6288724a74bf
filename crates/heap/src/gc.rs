//! Mark-sweep garbage collection with sliding compaction.
//!
//! The paper relies on the collector preserving allocation order: "Live
//! objects are packed by sliding compaction, which does not change their
//! internal order on the heap. Thus, the garbage collector usually preserves
//! constant strides among the live objects" (§4). This collector compacts by
//! sliding live allocations toward the heap base in address order, so the
//! relative order — and, for equal-sized garbage gaps, the strides — of
//! survivors are preserved.

use std::collections::{HashMap, HashSet};

use spf_ir::ElemTy;

use crate::heap::Heap;
use crate::layout::{ARRAY_BIT, ARRAY_DATA_OFFSET, TAG_MASK};
use crate::value::{Addr, NULL};

/// Statistics for one collection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CollectStats {
    /// Bytes occupied by live allocations after compaction.
    pub live_bytes: u64,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Number of live allocations.
    pub live_objects: u64,
    /// Number of reclaimed allocations.
    pub freed_objects: u64,
    /// Live allocations whose address changed during sliding.
    pub moved_objects: u64,
}

/// Maps pre-collection addresses of live allocations to their post-sliding
/// addresses. The VM uses it to fix up its stack and static roots.
#[derive(Clone, Debug, Default)]
pub struct Forwarding {
    map: HashMap<Addr, Addr>,
}

impl Forwarding {
    /// New address of a (pre-collection) header address. Null maps to null;
    /// addresses of dead or unknown allocations map to themselves.
    pub fn forward(&self, addr: Addr) -> Addr {
        if addr == NULL {
            return NULL;
        }
        self.map.get(&addr).copied().unwrap_or(addr)
    }

    /// Number of forwarded (live) allocations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no allocation survived.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Heap {
    /// Collects garbage: marks from `roots`, slides live allocations toward
    /// the base preserving address order, updates every reference stored in
    /// the heap, and returns statistics plus the root forwarding table.
    ///
    /// Callers must rewrite their own roots through the returned
    /// [`Forwarding`].
    pub fn collect(&mut self, roots: &[Addr]) -> (CollectStats, Forwarding) {
        // --- mark ---------------------------------------------------------
        let mut stack: Vec<Addr> = roots.iter().copied().filter(|&a| a != NULL).collect();
        for &r in &stack {
            debug_assert!(self.contains(r), "root {r:#x} outside heap");
        }
        let mut marked = 0u64;
        while let Some(addr) = stack.pop() {
            if addr == NULL || !self.contains(addr) || self.is_marked(addr) {
                continue;
            }
            self.set_mark(addr, true);
            marked += 1;
            self.push_refs(addr, &mut stack);
        }

        // --- compute forwarding addresses (address order = sliding) --------
        let mut forwarding = Forwarding::default();
        let mut live: Vec<(Addr, u64)> = Vec::new(); // (old addr, size)
        let mut new_cursor = self.base;
        let mut freed_bytes = 0u64;
        let mut freed_objects = 0u64;
        for addr in self.walk_addrs() {
            let size = self.alloc_size_unmarked(addr);
            if self.is_marked(addr) {
                forwarding.map.insert(addr, new_cursor);
                live.push((addr, size));
                new_cursor += size;
            } else {
                freed_bytes += size;
                freed_objects += 1;
            }
        }

        // --- update references stored in live allocations ------------------
        for &(addr, _) in &live {
            let w = self.read_u64(addr) & !crate::layout::MARK_BIT;
            if w & ARRAY_BIT != 0 {
                if crate::layout::tag_elem(w & TAG_MASK) == ElemTy::Ref {
                    let len = self.array_len(addr);
                    for i in 0..len {
                        let slot = addr + ARRAY_DATA_OFFSET + i * 8;
                        let v = self.read_u64(slot);
                        self.write_u64(slot, forwarding.forward(v));
                    }
                }
            } else {
                let cid = spf_ir::ClassId::new((w & TAG_MASK) as usize);
                for off in self.layout.ref_map(cid).to_vec() {
                    let v = self.read_u64(addr + off);
                    self.write_u64(addr + off, forwarding.forward(v));
                }
            }
        }

        // --- slide (in increasing address order; overlaps are safe because
        // destinations never exceed sources) and clear marks ---------------
        let mut moved_objects = 0u64;
        for &(old, size) in &live {
            self.set_mark(old, false);
            let new = forwarding.forward(old);
            if new != old {
                moved_objects += 1;
                let src = (old - self.base) as usize;
                let dst = (new - self.base) as usize;
                self.data.copy_within(src..src + size as usize, dst);
            }
        }
        self.top = (new_cursor - self.base) as usize;
        if moved_objects > 0 {
            self.gc_epoch += 1;
        }

        let stats = CollectStats {
            live_bytes: self.top as u64,
            freed_bytes,
            live_objects: marked,
            freed_objects,
            moved_objects,
        };
        (stats, forwarding)
    }

    /// Whether [`Heap::collect`] would mark every address of `targets`
    /// from `roots` alone — so that adding `targets` to `roots` keeps
    /// nothing more alive. Changes nothing.
    pub fn reaches(&self, roots: &[Addr], targets: &[Addr]) -> bool {
        let mut seen = HashSet::new();
        let mut stack = roots.to_vec();
        while let Some(addr) = stack.pop() {
            if addr == NULL || !self.contains(addr) || !seen.insert(addr) {
                continue;
            }
            self.push_refs(addr, &mut stack);
        }
        targets.iter().all(|t| seen.contains(t))
    }

    /// Pushes the non-null references stored in the allocation at `addr`.
    fn push_refs(&self, addr: Addr, stack: &mut Vec<Addr>) {
        let w = self.read_u64(addr) & !crate::layout::MARK_BIT;
        if w & ARRAY_BIT != 0 {
            if crate::layout::tag_elem(w & TAG_MASK) == ElemTy::Ref {
                let len = self.array_len(addr);
                for i in 0..len {
                    let v = self.read_u64(addr + ARRAY_DATA_OFFSET + i * 8);
                    if v != NULL {
                        stack.push(v);
                    }
                }
            }
        } else {
            let cid = spf_ir::ClassId::new((w & TAG_MASK) as usize);
            for &off in self.layout.ref_map(cid) {
                let v = self.read_u64(addr + off);
                if v != NULL {
                    stack.push(v);
                }
            }
        }
    }

    /// Like [`Heap::walk`] but collecting into a `Vec` first, because the
    /// collector mutates headers while iterating.
    fn walk_addrs(&self) -> Vec<Addr> {
        self.walk_unmarked().collect()
    }

    /// Header-size computation that masks the mark bit.
    fn alloc_size_unmarked(&self, addr: Addr) -> u64 {
        let w = self.read_u64(addr) & !crate::layout::MARK_BIT;
        if w & ARRAY_BIT != 0 {
            crate::layout::Layout::array_size(
                crate::layout::tag_elem(w & TAG_MASK),
                self.array_len(addr),
            )
            .next_multiple_of(8)
        } else {
            self.layout
                .class_size(spf_ir::ClassId::new((w & TAG_MASK) as usize))
                .next_multiple_of(8)
        }
    }

    fn walk_unmarked(&self) -> impl Iterator<Item = Addr> + '_ {
        let mut cursor = self.base;
        let end = self.base + self.top as u64;
        std::iter::from_fn(move || {
            if cursor >= end {
                return None;
            }
            let addr = cursor;
            cursor += self.alloc_size_unmarked(addr);
            Some(addr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::value::Value;
    use spf_ir::Program;

    fn setup() -> (Heap, spf_ir::ClassId, u64) {
        let mut p = Program::new();
        let (c, fs) = p.add_class("Node", &[("next", ElemTy::Ref), ("v", ElemTy::I32)]);
        let layout = Layout::compute(&p);
        let off_next = layout.field_offset(fs[0]);
        (Heap::new(layout, 1 << 16), c, off_next)
    }

    #[test]
    fn unreachable_objects_are_freed() {
        let (mut h, c, _) = setup();
        let a = h.alloc_object(c).unwrap();
        let _dead = h.alloc_object(c).unwrap();
        let (stats, fwd) = h.collect(&[a]);
        assert_eq!(stats.live_objects, 1);
        assert_eq!(stats.freed_objects, 1);
        assert_eq!(fwd.forward(a), a, "first object does not move");
        assert_eq!(h.used(), h.layout_tables().class_size(c));
    }

    #[test]
    fn sliding_preserves_order_and_updates_refs() {
        let (mut h, c, off_next) = setup();
        // a -> dead -> b -> c, with a.next = b, b.next = c.
        let a = h.alloc_object(c).unwrap();
        let dead = h.alloc_object(c).unwrap();
        let b = h.alloc_object(c).unwrap();
        let c2 = h.alloc_object(c).unwrap();
        h.write(a + off_next, ElemTy::Ref, Value::Ref(b)).unwrap();
        h.write(b + off_next, ElemTy::Ref, Value::Ref(c2)).unwrap();
        let _ = dead;
        let (stats, fwd) = h.collect(&[a]);
        assert_eq!(stats.live_objects, 3);
        let (na, nb, nc) = (fwd.forward(a), fwd.forward(b), fwd.forward(c2));
        assert!(na < nb && nb < nc, "address order preserved");
        // b and c2 slid down by exactly the dead object's size.
        let size = h.layout_tables().class_size(c);
        assert_eq!(nb, b - size);
        assert_eq!(nc, c2 - size);
        // Stored references were rewritten.
        assert_eq!(h.read(na + off_next, ElemTy::Ref).unwrap(), Value::Ref(nb));
        assert_eq!(h.read(nb + off_next, ElemTy::Ref).unwrap(), Value::Ref(nc));
    }

    #[test]
    fn reaches_follows_stored_references_and_marks_nothing() {
        let (mut h, c, off_next) = setup();
        let a = h.alloc_object(c).unwrap();
        let b = h.alloc_object(c).unwrap();
        let lone = h.alloc_object(c).unwrap();
        h.write(a + off_next, ElemTy::Ref, Value::Ref(b)).unwrap();
        assert!(h.reaches(&[a], &[a, b]));
        assert!(!h.reaches(&[a], &[lone]));
        assert!(!h.reaches(&[b], &[a]));
        // Nothing was marked: a collection from `a` still frees `lone`.
        let (stats, _) = h.collect(&[a]);
        assert_eq!((stats.live_objects, stats.freed_objects), (2, 1));
    }

    #[test]
    fn strides_preserved_when_gaps_are_uniform() {
        // Allocate pairs (object, dead padding); after GC the live objects
        // keep a constant stride — the paper's §4 observation.
        let (mut h, c, _) = setup();
        let mut live = Vec::new();
        for _ in 0..8 {
            live.push(h.alloc_object(c).unwrap());
            let _pad = h.alloc_object(c).unwrap();
        }
        let (_, fwd) = h.collect(&live);
        let news: Vec<Addr> = live.iter().map(|&a| fwd.forward(a)).collect();
        let stride = news[1] - news[0];
        for w in news.windows(2) {
            assert_eq!(w[1] - w[0], stride, "constant stride after compaction");
        }
        assert_eq!(stride, h.layout_tables().class_size(c));
    }

    #[test]
    fn ref_arrays_are_traced_and_updated() {
        let (mut h, c, _) = setup();
        let _dead = h.alloc_object(c).unwrap();
        let arr = h.alloc_array(ElemTy::Ref, 2).unwrap();
        let o = h.alloc_object(c).unwrap();
        let slot0 = arr + ARRAY_DATA_OFFSET;
        h.write(slot0, ElemTy::Ref, Value::Ref(o)).unwrap();
        let (stats, fwd) = h.collect(&[arr]);
        assert_eq!(stats.live_objects, 2);
        let narr = fwd.forward(arr);
        assert_eq!(
            h.read(narr + ARRAY_DATA_OFFSET, ElemTy::Ref).unwrap(),
            Value::Ref(fwd.forward(o))
        );
        assert_eq!(h.array_len(narr), 2);
    }

    #[test]
    fn cycles_are_collected_once_unreachable() {
        let (mut h, c, off_next) = setup();
        let a = h.alloc_object(c).unwrap();
        let b = h.alloc_object(c).unwrap();
        h.write(a + off_next, ElemTy::Ref, Value::Ref(b)).unwrap();
        h.write(b + off_next, ElemTy::Ref, Value::Ref(a)).unwrap();
        let (stats, _) = h.collect(&[]);
        assert_eq!(stats.live_objects, 0);
        assert_eq!(stats.freed_objects, 2);
        assert_eq!(h.used(), 0);
    }

    #[test]
    fn epoch_bumps_only_when_objects_move() {
        let (mut h, c, _) = setup();
        assert_eq!(h.gc_epoch(), 0);
        // Only live objects, nothing slides: epoch unchanged.
        let a = h.alloc_object(c).unwrap();
        let b = h.alloc_object(c).unwrap();
        h.collect(&[a, b]);
        assert_eq!(h.gc_epoch(), 0, "no movement, no staleness");
        // A dead gap before a survivor forces sliding: epoch bumps.
        let _dead = h.alloc_object(c).unwrap();
        let keep = h.alloc_object(c).unwrap();
        let (stats, _) = h.collect(&[a, b, keep]);
        assert!(stats.moved_objects > 0);
        assert_eq!(h.gc_epoch(), 1, "compaction invalidates strides");
    }

    #[test]
    fn allocation_after_gc_reuses_space() {
        let (mut h, c, _) = setup();
        let keep = h.alloc_object(c).unwrap();
        for _ in 0..10 {
            h.alloc_object(c).unwrap();
        }
        let used_before = h.used();
        let (_, fwd) = h.collect(&[keep]);
        assert!(h.used() < used_before);
        let fresh = h.alloc_object(c).unwrap();
        assert_eq!(fresh, fwd.forward(keep) + h.layout_tables().class_size(c));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::layout::Layout;
    use crate::value::Value;
    use spf_ir::{ElemTy, Program};

    // Builds a heap of `n` nodes (`Node { next: Ref, v: i32 }`) whose
    // `next` edges are given by `edges[i] (mod n)` (or null), then collects
    // with `roots` and checks that every node reachable from the roots
    // survives with its value and topology intact, in preserved address
    // order.
    #[test]
    fn gc_preserves_reachable_graphs() {
        spf_testkit::cases(64, "gc preserves reachable graphs", |rng| {
            let n = rng.usize_in(1, 39);
            let edges = rng.vec(1, 39, |r| r.chance(1, 2).then(|| r.index(64)));
            let root_picks = rng.vec(0, 7, |r| r.index(64));
            let mut p = Program::new();
            let (cls, fs) = p.add_class("Node", &[("next", ElemTy::Ref), ("v", ElemTy::I32)]);
            let layout = Layout::compute(&p);
            let off_next = layout.field_offset(fs[0]);
            let off_v = layout.field_offset(fs[1]);
            let mut heap = Heap::new(layout, 1 << 16);
            let nodes: Vec<Addr> = (0..n).map(|_| heap.alloc_object(cls).unwrap()).collect();
            for (i, &a) in nodes.iter().enumerate() {
                heap.write(a + off_v, ElemTy::I32, Value::I32(i as i32))
                    .unwrap();
                let next = edges.get(i).copied().flatten().map(|e| nodes[e % n]);
                heap.write(a + off_next, ElemTy::Ref, Value::Ref(next.unwrap_or(NULL)))
                    .unwrap();
            }
            let roots: Vec<Addr> = root_picks.iter().map(|&r| nodes[r % n]).collect();

            // Reference reachability + per-node (value, next-id) snapshot.
            let idx_of = |a: Addr| nodes.iter().position(|&x| x == a);
            let mut reach = vec![false; n];
            let mut stack: Vec<usize> = roots.iter().filter_map(|&r| idx_of(r)).collect();
            while let Some(i) = stack.pop() {
                if reach[i] {
                    continue;
                }
                reach[i] = true;
                if let Some(e) = edges.get(i).copied().flatten() {
                    stack.push(e % n);
                }
            }

            let (stats, fwd) = heap.collect(&roots);
            assert_eq!(
                stats.live_objects as usize,
                reach.iter().filter(|&&r| r).count()
            );

            // Surviving nodes keep their values and edges; order preserved.
            let mut last_new = 0;
            for (i, &old) in nodes.iter().enumerate() {
                if !reach[i] {
                    continue;
                }
                let new = fwd.forward(old);
                assert!(new >= last_new, "sliding preserves order");
                last_new = new;
                assert_eq!(
                    heap.read(new + off_v, ElemTy::I32).unwrap(),
                    Value::I32(i as i32)
                );
                let next = heap
                    .read(new + off_next, ElemTy::Ref)
                    .unwrap()
                    .as_ref_addr();
                match edges.get(i).copied().flatten() {
                    Some(e) => assert_eq!(next, fwd.forward(nodes[e % n])),
                    None => assert_eq!(next, NULL),
                }
            }
        });
    }
}
