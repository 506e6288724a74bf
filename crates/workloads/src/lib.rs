//! Miniature reproductions of the paper's benchmark suite (Table 3):
//! SPECjvm98 plus Section 3 of JavaGrande v2.0.
//!
//! Each workload is a program written in the `spf-ir` builder API whose
//! *memory behaviour* reproduces what the paper reports for the original:
//! which loads have inter-/intra-iteration stride patterns, how large the
//! working set is relative to each processor's caches and DTLB, and how
//! much of the run is spent in compiled code. The module-level docs of each
//! workload explain the correspondence.
//!
//! Use [`registry::all`] to enumerate them, or the individual `build_*`
//! functions for a specific one.

pub mod common;
pub mod compress;
pub mod db;
pub mod euler;
pub mod jack;
pub mod javac;
pub mod jess;
pub mod moldyn;
pub mod montecarlo;
pub mod mpegaudio;
pub mod mtrt;
pub mod raytracer;
pub mod registry;
pub mod search;

pub use common::{BuiltWorkload, Prepared, Size, Suite, WorkloadSpec};
pub use registry::all;
