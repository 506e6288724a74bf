//! Stride prefetching by dynamically inspecting objects (PLDI 2003).
//!
//! This crate is the paper's contribution. Given a method about to be
//! JIT-compiled — with the *actual values of its parameters* in hand — the
//! optimizer:
//!
//! 1. builds a loop nesting forest and walks it in postorder (§3);
//! 2. for each loop, builds a **load dependence graph** ([`ldg`]) whose
//!    nodes are the reference-chasing loads in the loop and whose edges are
//!    direct data dependences (§3.1);
//! 3. performs **object inspection** ([`inspect`]): partially interprets the
//!    method from its entry, side-effect-free, running the target loop a
//!    small number of times and recording the addresses each candidate load
//!    touches (§3.2);
//! 4. detects **inter-iteration** stride patterns on nodes and
//!    **intra-iteration** stride patterns on adjacent pairs ([`stride`]);
//! 5. generates prefetching code ([`codegen`]) — plain stride prefetches,
//!    dereference-based prefetches through a speculative load, and
//!    intra-iteration stride prefetches — subject to a profitability
//!    analysis ([`profit`]) and the hardware-mapping rules of §3.3.
//!
//! The one-call entry point is [`StridePrefetcher::optimize`].
//!
//! # Example
//!
//! ```
//! use spf_core::{PrefetchOptions, StridePrefetcher};
//! use spf_heap::{Heap, Layout, Value, ARRAY_DATA_OFFSET};
//! use spf_ir::{CmpOp, ElemTy, ProgramBuilder, Ty};
//! use spf_memsim::ProcessorConfig;
//!
//! // A loop over an array of 80-byte objects, allocated back to back.
//! let mut pb = ProgramBuilder::new();
//! let (node, nf) = pb.add_class("Node", &[
//!     ("v", ElemTy::F64), ("p0", ElemTy::I64), ("p1", ElemTy::I64),
//!     ("p2", ElemTy::I64), ("p3", ElemTy::I64), ("p4", ElemTy::I64),
//!     ("p5", ElemTy::I64), ("p6", ElemTy::I64),
//! ]);
//! let mut b = pb.function("sum", &[Ty::Ref], Some(Ty::I32));
//! let arr = b.param(0);
//! let acc = b.new_reg(Ty::F64);
//! let z = b.const_f64(0.0);
//! b.move_(acc, z);
//! b.for_i32(0, 1, CmpOp::Lt, |b| b.arraylen(arr), |b, i| {
//!     let o = b.aload(arr, i, ElemTy::Ref);
//!     let v = b.getfield(o, nf[0]);
//!     let s = b.add(acc, v);
//!     b.move_(acc, s);
//! });
//! let out = b.convert(spf_ir::Conv::F64ToI32, acc);
//! b.ret(Some(out));
//! let sum = b.finish();
//! let program = pb.finish();
//!
//! // Live heap data: what the JIT sees at compile time.
//! let mut heap = Heap::new(Layout::compute(&program), 1 << 20);
//! let a = heap.alloc_array(ElemTy::Ref, 64).unwrap();
//! for i in 0..64 {
//!     let n = heap.alloc_object(node).unwrap();
//!     heap.write(a + ARRAY_DATA_OFFSET + 8 * i, ElemTy::Ref, Value::Ref(n)).unwrap();
//! }
//!
//! // Optimize with the actual argument values (object inspection!).
//! let opt = StridePrefetcher::new(PrefetchOptions::inter_intra());
//! let outcome = opt.optimize(
//!     &program,
//!     program.method(sum).func(),
//!     &heap,
//!     &[],
//!     &[Value::Ref(a)],
//!     &ProcessorConfig::athlon_mp(),
//! );
//! assert!(outcome.report.total_prefetches > 0);
//! ```

pub mod codegen;
pub mod inspect;
pub mod ldg;
pub mod options;
pub mod pipeline;
pub mod profit;
pub mod report;
pub mod stride;

pub use inspect::{InspectionResult, Inspector};
pub use ldg::{Ldg, LdgNodeId};
pub use options::{PrefetchMode, PrefetchOptions, INSPECT_ITERATIONS};
pub use pipeline::{
    OptimizeOutcome, StridePrefetcher, INSPECT_CYCLES_PER_SAMPLE, INSPECT_CYCLES_PER_STEP,
};
pub use report::{LoopReport, MethodReport, StrideCrossCheck};
