//! Object model, simulated heap, and order-preserving compacting GC.
//!
//! The paper's stride patterns come from *allocation order*: "constructors
//! in an object-oriented language tend to allocate a bunch of related
//! objects" (§1), and the JVM's garbage collector uses "sliding compaction,
//! which does not change their internal order on the heap. Thus, the garbage
//! collector usually preserves constant strides among the live objects"
//! (§4). This crate reproduces both properties:
//!
//! * [`Heap`] allocates objects with a bump pointer, so consecutive
//!   allocations are adjacent;
//! * [`Heap::collect`] is a mark-sweep collector with *sliding compaction*
//!   that preserves address order of surviving objects.
//!
//! Addresses are simulated 64-bit addresses ([`Addr`]); they index into the
//! heap's backing store and are what the memory-system simulator sees.
//!
//! # Example
//!
//! ```
//! use spf_heap::{Heap, Layout, Value};
//! use spf_ir::{ElemTy, Program};
//!
//! let mut program = Program::new();
//! let (node, fields) = program.add_class("Node", &[("v", ElemTy::I32)]);
//! let layout = Layout::compute(&program);
//! let off = layout.field_offset(fields[0]);
//! let mut heap = Heap::new(layout, 4096);
//!
//! // Back-to-back allocations are adjacent: the stride the paper exploits.
//! let a = heap.alloc_object(node).unwrap();
//! let b = heap.alloc_object(node).unwrap();
//! assert_eq!(b - a, heap.layout_tables().class_size(node));
//!
//! heap.write(a + off, ElemTy::I32, Value::I32(7)).unwrap();
//! assert_eq!(heap.read(a + off, ElemTy::I32).unwrap(), Value::I32(7));
//!
//! // Collect with `a` as the only root: `b` is reclaimed, `a` survives.
//! let (stats, fwd) = heap.collect(&[a]);
//! assert_eq!(stats.live_objects, 1);
//! assert_eq!(fwd.forward(a), a);
//! ```

pub mod gc;
pub mod heap;
pub mod layout;
pub mod value;

pub use gc::{CollectStats, Forwarding};
pub use heap::{
    shard_bytes, static_addr, Heap, HeapError, HeapRead, DEFAULT_HEAP_BASE, PRIVATE_HEAP_BASE,
    STATICS_BASE,
};
pub use layout::{Layout, ARRAY_DATA_OFFSET, ARRAY_LENGTH_OFFSET, OBJECT_HEADER_SIZE};
pub use value::{apply_bin, apply_cmp, apply_conv, apply_un, Addr, Value, NULL};
