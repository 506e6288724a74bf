//! The simulated heap: bump allocation and typed memory access.

use std::sync::Arc;

use spf_ir::{ClassId, ElemTy};

use crate::layout::{
    elem_tag, tag_elem, Layout, ARRAY_BIT, ARRAY_LENGTH_OFFSET, MARK_BIT, TAG_MASK,
};
use crate::value::{Addr, Value, NULL};

/// Default base address of the heap (addresses below it are invalid, which
/// keeps null-pointer arithmetic from aliasing real objects).
pub const DEFAULT_HEAP_BASE: Addr = 0x10_0000;

/// Base address of the static-variable area (distinct from the heap; the VM
/// stores static values itself but reports accesses at these addresses to
/// the memory simulator).
pub const STATICS_BASE: Addr = 0x1000;

/// Base address used for the *private heap* of object inspection: objects
/// the partial interpreter allocates live here, far from real heap
/// addresses, so they can never be confused with program data.
pub const PRIVATE_HEAP_BASE: Addr = 1 << 44;

/// The simulated address of static slot `sid`.
pub fn static_addr(sid: spf_ir::StaticId) -> Addr {
    STATICS_BASE + 8 * sid.index() as Addr
}

/// Errors reported by heap operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeapError {
    /// Allocation does not fit even after a collection.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
    },
    /// A typed access touched an address outside the allocated heap.
    BadAccess {
        /// The faulting address.
        addr: Addr,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            HeapError::BadAccess { addr } => write!(f, "bad heap access at {addr:#x}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// The simulated heap.
///
/// Objects and arrays are allocated with a bump pointer, so back-to-back
/// allocations are adjacent in the address space — the property stride
/// prefetching exploits.
#[derive(Debug)]
pub struct Heap {
    pub(crate) base: Addr,
    /// The backing store, shared with every clone until one side writes
    /// (see [`Heap::clone`]).
    data: Arc<Vec<u8>>,
    pub(crate) top: usize,
    pub(crate) layout: Layout,
    pub(crate) allocated_bytes_total: u64,
    pub(crate) allocation_count: u64,
    pub(crate) gc_epoch: u64,
}

/// A clone shares the backing store: it costs no copy until one side
/// writes. The first write on either side — a store, an allocation's
/// zero-fill or header, a collection's marks and slides — gives that side
/// a store of its own: the allocated prefix `data[..top]` copied into a
/// fresh zeroed buffer. Every allocation zero-fills its storage (see
/// `bump`), so the stale bytes a compaction leaves above `top` are never
/// read, and a fresh buffer faults in only the pages the prefix touches.
impl Clone for Heap {
    fn clone(&self) -> Self {
        Heap {
            base: self.base,
            data: Arc::clone(&self.data),
            top: self.top,
            layout: self.layout.clone(),
            allocated_bytes_total: self.allocated_bytes_total,
            allocation_count: self.allocation_count,
            gc_epoch: self.gc_epoch,
        }
    }
}

/// Splits a workload's configured heap budget across `shards` tenant VMs:
/// `full / shards`, clamped to at least `floor` (a tenant must still fit
/// its live set) and at most `full`, rounded up to 8-byte granularity.
/// Backing stores are allocated eagerly, so a serving fleet of hundreds of
/// tenants *must* shard — and the small shards are the point: they produce
/// the per-tenant GC churn (sliding compactions bump `gc_epoch`) that
/// exercises adaptive reprofiling under serving load.
pub fn shard_bytes(full: usize, shards: usize, floor: usize) -> usize {
    let per = full / shards.max(1);
    per.clamp(floor.min(full), full).next_multiple_of(8)
}

/// The panic of the header accessors, kept out of line so the inlined
/// copies carry only a call.
#[cold]
#[inline(never)]
fn bad_access(what: &str, addr: Addr) -> ! {
    panic!("bad heap {what} at {addr:#x}")
}

impl Heap {
    /// Creates a heap of `capacity` bytes at the default base address.
    pub fn new(layout: Layout, capacity: usize) -> Self {
        Self::with_base(layout, capacity, DEFAULT_HEAP_BASE)
    }

    /// Creates a heap at a caller-chosen base address (used for the private
    /// heap of object inspection).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 8-byte aligned or is null.
    pub fn with_base(layout: Layout, capacity: usize, base: Addr) -> Self {
        assert!(
            base != NULL && base.is_multiple_of(8),
            "heap base must be aligned and non-null"
        );
        Heap {
            base,
            // `Arc::new` moves the vector, so the zeroed buffer is not
            // touched: its pages fault in as allocations reach them.
            data: Arc::new(vec![0; capacity]),
            top: 0,
            layout,
            allocated_bytes_total: 0,
            allocation_count: 0,
            gc_epoch: 0,
        }
    }

    /// The heap's base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Bytes currently allocated (bump-pointer offset).
    pub fn used(&self) -> u64 {
        self.top as u64
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// The whole backing store: the allocated prefix `[..used()]`, then
    /// free space no access can reach.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Names the backing store: two heaps return the same key exactly
    /// when they share one store, a clone neither side has written since.
    pub fn store_key(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// The backing store, to write: a store shared with a clone is first
    /// replaced by a copy of the allocated prefix over a fresh zeroed
    /// buffer, so the other side's bytes never change.
    #[inline(always)]
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        if Arc::strong_count(&self.data) != 1 {
            self.unshare();
        }
        Arc::get_mut(&mut self.data).expect("a heap's store is its own after unsharing")
    }

    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        let mut data = vec![0; self.data.len()];
        data[..self.top].copy_from_slice(&self.data[..self.top]);
        self.data = Arc::new(data);
    }

    /// Running total of bytes ever allocated (monotonic; GC does not reduce
    /// it).
    pub fn allocated_bytes_total(&self) -> u64 {
        self.allocated_bytes_total
    }

    /// Number of allocations performed.
    pub fn allocation_count(&self) -> u64 {
        self.allocation_count
    }

    /// The GC epoch: incremented by every collection that moves at least
    /// one live allocation. Strides learned by object inspection are only
    /// trustworthy within a single epoch — a bumped epoch means compaction
    /// may have changed inter-object distances, so compiled prefetch sites
    /// stamped with an older epoch are stale.
    pub fn gc_epoch(&self) -> u64 {
        self.gc_epoch
    }

    /// Bumps the GC epoch without running a collection, modeling an
    /// external compaction that moved objects behind the VM's back (the
    /// serving chaos harness injects GC storms this way). Addresses are
    /// untouched — only the staleness stamp advances, so every compiled
    /// method guarded against an older epoch re-inspects on its next
    /// invocation.
    pub fn force_move_epoch(&mut self) {
        self.gc_epoch += 1;
    }

    /// The layout tables.
    pub fn layout_tables(&self) -> &Layout {
        &self.layout
    }

    fn bump(&mut self, size: u64) -> Option<Addr> {
        let size = size.next_multiple_of(8);
        if self.top as u64 + size > self.data.len() as u64 {
            return None;
        }
        let addr = self.base + self.top as u64;
        // Zero the storage: it may contain stale bytes from before a GC.
        let top = self.top;
        self.data_mut()[top..top + size as usize].fill(0);
        self.top += size as usize;
        self.allocated_bytes_total += size;
        self.allocation_count += 1;
        Some(addr)
    }

    /// Allocates an instance of `class`; `None` means a GC is needed.
    pub fn alloc_object(&mut self, class: ClassId) -> Option<Addr> {
        let size = self.layout.class_size(class);
        let addr = self.bump(size)?;
        self.write_u64(addr, class.index() as u64);
        Some(addr)
    }

    /// Allocates an array; `None` means a GC is needed.
    pub fn alloc_array(&mut self, elem: ElemTy, len: u64) -> Option<Addr> {
        let size = Layout::array_size(elem, len);
        let addr = self.bump(size)?;
        self.write_u64(addr, ARRAY_BIT | elem_tag(elem));
        self.write_u64(addr + ARRAY_LENGTH_OFFSET, len);
        Some(addr)
    }

    /// The one bounds rule: the offset of `addr` in `data` when all of
    /// `[addr, addr + size)` is allocated memory, `data[..top]`. An address
    /// below `base` wraps to an offset past any `top`, so it fails the same
    /// compare as an address beyond it.
    #[inline(always)]
    fn offset_of(&self, addr: Addr, size: u64) -> Option<usize> {
        let off = usize::try_from(addr.wrapping_sub(self.base)).ok()?;
        let room = self.data.get(..self.top)?.get(off..)?.len();
        (room as u64 >= size).then_some(off)
    }

    /// Loads the element of type `ty` at `addr` as the word a register
    /// slot holds for it ([`Value::to_bits`]: an `I8` sign-extends to its
    /// `I32`), or `None` outside allocated memory. The interpreter's
    /// handlers inline this; [`Heap::read`] is the same access as a
    /// [`Value`].
    #[inline(always)]
    pub fn load_bits(&self, addr: Addr, ty: ElemTy) -> Option<u64> {
        let at = &self.data[self.offset_of(addr, ty.size())?..];
        Some(match ty {
            ElemTy::I8 => *at.first()? as i8 as i32 as u32 as u64,
            ElemTy::I32 => u32::from_le_bytes(*at.first_chunk()?) as u64,
            ElemTy::I64 | ElemTy::F64 | ElemTy::Ref => u64::from_le_bytes(*at.first_chunk()?),
        })
    }

    /// Stores the low `ty.size()` bytes of a register word at `addr`;
    /// `false` (and nothing written) outside allocated memory.
    #[inline(always)]
    pub fn store_bits(&mut self, addr: Addr, ty: ElemTy, bits: u64) -> bool {
        let Some(off) = self.offset_of(addr, ty.size()) else {
            return false;
        };
        let Some(at) = self.data_mut()[off..].get_mut(..ty.size() as usize) else {
            return false;
        };
        at.copy_from_slice(&bits.to_le_bytes()[..at.len()]);
        true
    }

    #[inline(always)]
    pub(crate) fn read_u64(&self, addr: Addr) -> u64 {
        match self.load_bits(addr, ElemTy::I64) {
            Some(w) => w,
            None => bad_access("read", addr),
        }
    }

    pub(crate) fn write_u64(&mut self, addr: Addr, v: u64) {
        if !self.store_bits(addr, ElemTy::I64, v) {
            bad_access("write", addr);
        }
    }

    /// Reads a typed value.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadAccess`] outside allocated memory.
    pub fn read(&self, addr: Addr, ty: ElemTy) -> Result<Value, HeapError> {
        self.load_bits(addr, ty)
            .map(|bits| Value::from_bits(ty.reg_ty(), bits))
            .ok_or(HeapError::BadAccess { addr })
    }

    /// Reads a typed value, or `None` when the access is invalid or
    /// `addr` is null: the read object inspection and guarded loads need,
    /// which never faults.
    pub fn try_read(&self, addr: Addr, ty: ElemTy) -> Option<Value> {
        if addr == NULL {
            return None;
        }
        self.read(addr, ty).ok()
    }

    /// Whether `[addr, addr+size)` lies within allocated memory.
    pub fn is_valid_range(&self, addr: Addr, size: u64) -> bool {
        self.offset_of(addr, size).is_some()
    }

    /// Writes a typed value.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::BadAccess`] outside allocated memory.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not match `ty` (verified programs never do
    /// this).
    pub fn write(&mut self, addr: Addr, ty: ElemTy, value: Value) -> Result<(), HeapError> {
        assert!(
            value.ty() == ty.reg_ty(),
            "type mismatch writing {value:?} as {ty}"
        );
        if self.store_bits(addr, ty, value.to_bits()) {
            Ok(())
        } else {
            Err(HeapError::BadAccess { addr })
        }
    }

    /// Whether `addr` is the address of a live allocation's header (i.e.
    /// within the allocated range; headers are not distinguished from
    /// interiors here).
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base + self.top as u64
    }

    /// Whether the allocation at `addr` (a header address) is an array.
    pub fn is_array(&self, addr: Addr) -> bool {
        self.read_u64(addr) & ARRAY_BIT != 0
    }

    /// Class of the object whose header is at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is an array header.
    pub fn class_of(&self, addr: Addr) -> ClassId {
        let w = self.read_u64(addr);
        assert!(w & ARRAY_BIT == 0, "class_of on array at {addr:#x}");
        ClassId::new((w & TAG_MASK) as usize)
    }

    /// Element type of the array whose header is at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not an array header.
    pub fn array_elem(&self, addr: Addr) -> ElemTy {
        let w = self.read_u64(addr);
        assert!(w & ARRAY_BIT != 0, "array_elem on object at {addr:#x}");
        tag_elem(w & TAG_MASK)
    }

    /// Length of the array whose header is at `addr`.
    #[inline(always)]
    pub fn array_len(&self, addr: Addr) -> u64 {
        self.read_u64(addr + ARRAY_LENGTH_OFFSET)
    }

    /// Size in bytes of the allocation whose header is at `addr`.
    pub fn alloc_size(&self, addr: Addr) -> u64 {
        let w = self.read_u64(addr);
        if w & ARRAY_BIT != 0 {
            Layout::array_size(tag_elem(w & TAG_MASK), self.array_len(addr))
        } else {
            self.layout
                .class_size(ClassId::new((w & (TAG_MASK)) as usize))
        }
    }

    pub(crate) fn is_marked(&self, addr: Addr) -> bool {
        self.read_u64(addr) & MARK_BIT != 0
    }

    pub(crate) fn set_mark(&mut self, addr: Addr, on: bool) {
        let w = self.read_u64(addr);
        self.write_u64(addr, if on { w | MARK_BIT } else { w & !MARK_BIT });
    }

    /// Iterates over the header addresses of all allocations in address
    /// order.
    pub fn walk(&self) -> HeapWalk<'_> {
        HeapWalk {
            heap: self,
            cursor: self.base,
        }
    }
}

/// Iterator over allocation header addresses; see [`Heap::walk`].
#[derive(Debug)]
pub struct HeapWalk<'a> {
    heap: &'a Heap,
    cursor: Addr,
}

impl Iterator for HeapWalk<'_> {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        if self.cursor >= self.heap.base + self.heap.top as u64 {
            return None;
        }
        let addr = self.cursor;
        self.cursor += self.heap.alloc_size(addr).next_multiple_of(8);
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_ir::Program;

    fn token_program() -> (Program, ClassId, Vec<spf_ir::FieldId>) {
        let mut p = Program::new();
        let (c, fs) = p.add_class("Token", &[("size", ElemTy::I32), ("facts", ElemTy::Ref)]);
        (p, c, fs)
    }

    #[test]
    fn bump_allocation_is_contiguous() {
        let (p, c, _) = token_program();
        let mut h = Heap::new(Layout::compute(&p), 1 << 16);
        let a = h.alloc_object(c).unwrap();
        let b = h.alloc_object(c).unwrap();
        let size = h.layout_tables().class_size(c);
        assert_eq!(b - a, size, "objects allocated back-to-back");
        assert_eq!(h.allocation_count(), 2);
    }

    #[test]
    fn field_read_write() {
        let (p, c, fs) = token_program();
        let layout = Layout::compute(&p);
        let off = layout.field_offset(fs[0]);
        let mut h = Heap::new(layout, 1 << 16);
        let a = h.alloc_object(c).unwrap();
        h.write(a + off, ElemTy::I32, Value::I32(42)).unwrap();
        assert_eq!(h.read(a + off, ElemTy::I32).unwrap(), Value::I32(42));
    }

    #[test]
    fn arrays() {
        let (p, _, _) = token_program();
        let mut h = Heap::new(Layout::compute(&p), 1 << 16);
        let a = h.alloc_array(ElemTy::I32, 10).unwrap();
        assert!(h.is_array(a));
        assert_eq!(h.array_len(a), 10);
        assert_eq!(h.array_elem(a), ElemTy::I32);
        let e3 = a + crate::layout::ARRAY_DATA_OFFSET + 3 * 4;
        h.write(e3, ElemTy::I32, Value::I32(-7)).unwrap();
        assert_eq!(h.read(e3, ElemTy::I32).unwrap(), Value::I32(-7));
    }

    #[test]
    fn i8_sign_extension() {
        let (p, _, _) = token_program();
        let mut h = Heap::new(Layout::compute(&p), 1 << 16);
        let a = h.alloc_array(ElemTy::I8, 4).unwrap();
        let e0 = a + crate::layout::ARRAY_DATA_OFFSET;
        h.write(e0, ElemTy::I8, Value::I32(-1)).unwrap();
        assert_eq!(h.read(e0, ElemTy::I8).unwrap(), Value::I32(-1));
    }

    #[test]
    fn out_of_memory_returns_none() {
        let (p, c, _) = token_program();
        let mut h = Heap::new(Layout::compute(&p), 64);
        assert!(h.alloc_object(c).is_some()); // 24 bytes
        assert!(h.alloc_object(c).is_some());
        assert!(h.alloc_object(c).is_none());
    }

    #[test]
    fn bad_access_reported() {
        let (p, _, _) = token_program();
        let h = Heap::new(Layout::compute(&p), 64);
        assert!(matches!(
            h.read(12, ElemTy::I32),
            Err(HeapError::BadAccess { .. })
        ));
        assert_eq!(h.try_read(12, ElemTy::I32), None);
        assert_eq!(h.try_read(NULL, ElemTy::Ref), None);
    }

    const ELEMS: [ElemTy; 5] = [
        ElemTy::I8,
        ElemTy::I32,
        ElemTy::I64,
        ElemTy::F64,
        ElemTy::Ref,
    ];

    #[test]
    fn word_and_value_accessors_share_one_bounds_rule() {
        let (p, _, _) = token_program();
        spf_testkit::cases(64, "load_bits/store_bits agree with read/write", |rng| {
            // Half the backing store allocated, so `top` and `capacity`
            // are different edges.
            let mut h = Heap::new(Layout::compute(&p), 512);
            let len = rng.u64_in(1, 20);
            h.alloc_array(ElemTy::I64, len).unwrap();
            for w in 0..h.used() / 8 {
                h.write_u64(h.base() + 8 * w, rng.u64());
            }
            let (base, top, cap) = (h.base(), h.base() + h.used(), h.base() + h.capacity());
            let near = |rng: &mut spf_testkit::Rng, edge: Addr| {
                edge.wrapping_add(rng.u64_in(0, 16)).wrapping_sub(8)
            };
            for _ in 0..64 {
                let addr = match rng.index(7) {
                    0 => rng.u64_in(0, base - 1),
                    1 => near(rng, base),
                    2 => rng.u64_in(base, top - 1),
                    3 => near(rng, top),
                    4 => near(rng, cap),
                    5 => rng.u64_in(cap, cap + (1 << 40)),
                    _ => u64::MAX - rng.u64_in(0, 8),
                };
                let ty = *rng.pick(&ELEMS);
                let inside = addr >= base && addr <= top - ty.size();
                let read = h.read(addr, ty);
                assert_eq!(read.is_ok(), inside, "{ty} at {addr:#x}");
                assert_eq!(
                    h.load_bits(addr, ty),
                    read.ok().map(Value::to_bits),
                    "{ty} at {addr:#x}"
                );
                assert_eq!(h.is_valid_range(addr, ty.size()), inside);
                // A store succeeds exactly when the write does, changes
                // nothing when it fails, and is read back by `read`.
                let bits = Value::from_bits(ty.reg_ty(), rng.u64()).to_bits();
                let value = Value::from_bits(ty.reg_ty(), bits);
                let mut by_value = h.clone();
                assert_eq!(by_value.write(addr, ty, value).is_ok(), inside);
                assert_eq!(h.store_bits(addr, ty, bits), inside);
                assert_eq!(h.data, by_value.data, "{ty} at {addr:#x}");
                if inside {
                    let stored = h.read(addr, ty).unwrap();
                    if ty == ElemTy::I8 {
                        // Only the low byte is stored; it loads sign-extended.
                        assert_eq!(stored, Value::I32(bits as i8 as i32));
                        assert_eq!(h.load_bits(addr, ty), Some(bits as i8 as i32 as u32 as u64));
                    } else {
                        assert_eq!(stored.to_bits(), bits);
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "bad heap read at 0x100ff8")]
    fn array_len_of_a_bad_header_panics() {
        let (p, _, _) = token_program();
        let h = Heap::new(Layout::compute(&p), 64);
        h.array_len(DEFAULT_HEAP_BASE + 0xff0);
    }

    #[test]
    fn shard_bytes_divides_clamps_and_aligns() {
        // 128 MB across 50 tenants, 2 MB floor: plain division (aligned).
        assert_eq!(
            shard_bytes(128 << 20, 50, 2 << 20),
            ((128 << 20) / 50usize).next_multiple_of(8)
        );
        // Floor kicks in when the division goes below the live set.
        assert_eq!(shard_bytes(8 << 20, 100, 2 << 20), 2 << 20);
        // Never exceeds the full budget, even with a silly floor.
        assert_eq!(shard_bytes(1 << 20, 1, 64 << 20), 1 << 20);
        // Zero shards is treated as one; result stays 8-byte aligned.
        assert_eq!(shard_bytes(4096, 0, 0), 4096);
        assert_eq!(shard_bytes(1000, 3, 0) % 8, 0);
    }

    #[test]
    fn a_write_on_either_side_of_a_clone_leaves_the_other_unchanged() {
        let (p, c, fs) = token_program();
        let layout = Layout::compute(&p);
        let off = layout.field_offset(fs[0]);
        spf_testkit::cases(64, "a store, an allocation or a GC unshares", |rng| {
            let mut h = Heap::new(layout.clone(), 1 << 12);
            let objs: Vec<Addr> = (0..rng.u64_in(2, 8))
                .map(|_| h.alloc_object(c).unwrap())
                .collect();
            for &a in &objs {
                h.write(a + off, ElemTy::I32, Value::I32(rng.i32_in(1, 1000)))
                    .unwrap();
            }
            let mut clone = h.clone();
            assert_eq!(clone.store_key(), h.store_key(), "a clone shares");
            let (writer, other) = if rng.bool() {
                (&mut h, &clone)
            } else {
                (&mut clone, &h)
            };
            let before = other.bytes().to_vec();
            match rng.index(3) {
                0 => {
                    let a = *rng.pick(&objs);
                    writer.write(a + off, ElemTy::I32, Value::I32(-1)).unwrap();
                }
                1 => {
                    writer.alloc_object(c).unwrap();
                }
                _ => {
                    // Only the last object survives, so it slides down.
                    let (stats, _) = writer.collect(&objs[objs.len() - 1..]);
                    assert_eq!(stats.moved_objects, 1);
                }
            }
            assert_ne!(writer.store_key(), other.store_key(), "the write unshared");
            assert!(other.bytes() == &before[..], "the other side's bytes");
        });
    }

    #[test]
    fn unsharing_copies_the_allocated_prefix_over_zeros() {
        let (p, c, fs) = token_program();
        let layout = Layout::compute(&p);
        let off = layout.field_offset(fs[0]);
        let mut h = Heap::new(layout, 1 << 12);
        let a = h.alloc_object(c).unwrap();
        let b = h.alloc_object(c).unwrap();
        h.write(a + off, ElemTy::I32, Value::I32(7)).unwrap();
        h.write(b + off, ElemTy::I32, Value::I32(9)).unwrap();
        // `b` slides onto `a`, leaving its old bytes above `top`.
        let (_, fwd) = h.collect(&[b]);
        let top = h.used() as usize;
        assert!(h.bytes()[top..].iter().any(|&x| x != 0), "stale bytes");

        let mut clone = h.clone();
        clone.force_move_epoch();
        assert_eq!(clone.store_key(), h.store_key(), "an epoch is no write");
        clone
            .write(fwd.forward(b) + off, ElemTy::I32, Value::I32(9))
            .unwrap();
        assert_ne!(clone.store_key(), h.store_key());
        assert_eq!(clone.capacity(), h.capacity());
        assert_eq!(clone.bytes()[..top], h.bytes()[..top], "the prefix");
        assert!(clone.bytes()[top..].iter().all(|&x| x == 0), "zeros above");
    }

    #[test]
    fn walk_visits_all_allocations() {
        let (p, c, _) = token_program();
        let mut h = Heap::new(Layout::compute(&p), 1 << 16);
        let a = h.alloc_object(c).unwrap();
        let b = h.alloc_array(ElemTy::Ref, 3).unwrap();
        let c2 = h.alloc_object(c).unwrap();
        assert_eq!(h.walk().collect::<Vec<_>>(), vec![a, b, c2]);
    }
}
