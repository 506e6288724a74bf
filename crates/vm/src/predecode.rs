//! Shared pre-decoded programs.
//!
//! Decoding a program's method bodies into threaded code is pure
//! per-program work; [`Predecoded`] does it once and lets any number of
//! VMs — including VMs on different worker threads — share the result via
//! `Arc`. The benchmark matrix prepares one `Predecoded` per workload and
//! constructs all of that workload's cells from it, instead of re-cloning
//! and re-decoding every method body per VM construction.

use std::sync::Arc;

use spf_heap::Layout;
use spf_ir::Program;
use spf_trace::{NoopSink, TraceSink};

use crate::decode::{decode, ThreadedCode};

/// A program plus its pre-decoded method bodies and heap layout, sharable
/// across VMs (and threads: the contents are immutable after
/// construction).
pub struct Predecoded<S: TraceSink = NoopSink> {
    program: Arc<Program>,
    layout: Layout,
    bodies: Vec<Arc<ThreadedCode<S>>>,
    fused: bool,
}

impl<S: TraceSink> Predecoded<S> {
    /// Pre-decodes `program` with superinstruction fusion enabled (the
    /// default configuration).
    pub fn new(program: Program) -> Self {
        Self::with_fusion(program, true)
    }

    /// Pre-decodes `program`, fusing superinstructions iff `fuse`. VMs
    /// built from this `Predecoded` inherit the fusion setting for the
    /// bodies they JIT-install later, keeping one VM internally
    /// consistent.
    pub fn with_fusion(program: Program, fuse: bool) -> Self {
        let program = Arc::new(program);
        let layout = Layout::compute(&program);
        let bodies = program
            .method_ids()
            .map(|m| {
                let src = Arc::new(program.method(m).func().clone());
                Arc::new(decode(&program, &layout, &src, fuse, &[]))
            })
            .collect();
        Predecoded {
            program,
            layout,
            bodies,
            fused: fuse,
        }
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub(crate) fn program_arc(&self) -> &Arc<Program> {
        &self.program
    }

    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    pub(crate) fn bodies(&self) -> &[Arc<ThreadedCode<S>>] {
        &self.bodies
    }

    pub(crate) fn fused(&self) -> bool {
        self.fused
    }
}
