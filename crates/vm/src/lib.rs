//! The mixed-mode execution engine ("the JVM").
//!
//! [`Vm`] interprets the IR against the simulated heap and memory system,
//! charging cycles per instruction plus memory latencies — an in-order,
//! stall-on-use timing model. Methods start out interpreted (at a cycle
//! multiplier); when a method's invocation count reaches the compile
//! threshold the VM "JIT-compiles" it: it runs the stride-prefetching
//! optimizer *with the actual arguments of the pending invocation* (the
//! paper's key enabler) and thereafter executes the optimized body at
//! compiled-code cost.
//!
//! The VM also:
//!
//! * triggers the mark-sweep-compact GC when allocation fails, forwarding
//!   every root in its frames and statics;
//! * counts retired instructions and per-method cycle attribution (the
//!   paper's Table 3 "% of time in compiled code").

pub mod config;
pub(crate) mod decode;
pub(crate) mod dispatch;
pub mod error;
pub(crate) mod fuse;
pub mod passes;
pub mod predecode;
pub mod stats;
pub mod twin;
pub mod vm;

pub use config::VmConfig;
pub use error::VmError;
pub use predecode::Predecoded;
/// The sink parameter of [`Vm`] and [`Predecoded`], re-exported so a crate
/// that builds VMs generically need not depend on `spf-trace`.
pub use spf_trace::{NoopSink, TraceSink};
pub use stats::{PicStats, VmStats};
pub use twin::Twin;
pub use vm::Vm;
