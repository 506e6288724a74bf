//! `spf-lint` — runs the static analyses over every registry workload.
//!
//! ```text
//! cargo run --release -p spf-bench --bin spf-lint                 # full size
//! cargo run --release -p spf-bench --bin spf-lint -- tiny         # quicker
//! cargo run --release -p spf-bench --bin spf-lint -- tiny db      # one workload
//! ```
//!
//! For each workload the original (pre-JIT) method bodies are checked by
//! [`spf_bench::checks::originals`]. Then every cell of the matrix
//! ([`spf_bench::matrix::cells`]) is warmed up so the JIT compiles its hot
//! methods, and [`spf_bench::checks::generations`] verifies and lints
//! every compiled *generation* of it — patched, repatched and
//! recompiled bodies included, not just the bodies still installed.
//! Findings go to stdout; any violation, and an artifact that could not
//! be written, makes the process exit nonzero.
//!
//! One artifact lands in the current directory, one JSON line per
//! (workload, processor, mode) cell: the static-vs-inspected stride
//! cross-check totals in `STRIDE_agreement.jsonl`. It is simulated only,
//! so `spf-lint tiny` at the repository root rewrites the committed copy
//! byte for byte, in a debug build as in a release one.

use std::process::ExitCode;

use spf_bench::cli::emit;
use spf_bench::{checks, cli, matrix, write_artifact};
use spf_core::StrideCrossCheck;
use spf_trace::NoopSink;

spf_trace::record! {
    /// One cell's line of `STRIDE_agreement.jsonl`: its
    /// [`StrideCrossCheck`] totals over the cell's compiled methods.
    pub struct AgreementRow {
        pub name: String,
        pub mode: String,
        pub processor: String,
        pub agree: usize,
        pub disagree: usize,
        pub static_only: usize,
        pub dynamic_only: usize,
    }
}

fn main() -> ExitCode {
    let args = cli::from_env(cli::lint);
    let cells = matrix::cells(|n| args.only.as_deref().is_none_or(|o| o == n));

    let mut violations = 0;
    let mut compiled_total = 0;
    let mut grand = StrideCrossCheck::default();
    let mut agreement = String::new();
    // A workload's cells are adjacent; they share one prepared program.
    for group in cells.chunk_by(|a, b| a.spec.name == b.spec.name) {
        let name = group[0].spec.name;
        let prep = group[0].spec.prepare(args.size);
        for (i, cell) in group.iter().enumerate() {
            let (mode, proc) = (cell.options.mode, &cell.proc);
            let mut vm = prep.vm(prep.vm_config(&cell.options), proc, NoopSink);
            if i == 0 {
                // Original bodies are mode- and processor-independent:
                // check them once per workload.
                for v in checks::originals(name, vm.program()) {
                    violations += 1;
                    emit(&v);
                }
            }
            prep.warm(&mut vm, 2);
            let found = checks::generations(&vm, proc);
            for v in &found.violations {
                violations += 1;
                emit(&format!("{name}/{mode}/{}: {v}", proc.name));
            }
            compiled_total += found.compiled;
            let mut strides = StrideCrossCheck::default();
            for r in vm.reports() {
                strides.add(&r.stride_check_totals());
            }
            grand.add(&strides);
            AgreementRow {
                name: name.to_string(),
                mode: mode.to_string(),
                processor: proc.name.clone(),
                agree: strides.agree,
                disagree: strides.disagree,
                static_only: strides.static_only,
                dynamic_only: strides.dynamic_only,
            }
            .write(&mut agreement);
            agreement.push('\n');
        }
    }

    let written = write_artifact("STRIDE_agreement.jsonl", &agreement);
    if let Err(e) = &written {
        eprintln!("error: {e}");
    }
    emit(&format!(
        "spf-lint: {} cell(s), {compiled_total} compiled method(s), \
         strides[{grand}], {violations} violation(s)",
        cells.len()
    ));
    ExitCode::from(u8::from(written.is_err() || violations > 0))
}
