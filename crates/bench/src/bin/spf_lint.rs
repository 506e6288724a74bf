//! `spf-lint` — runs the static analyses over every registry workload.
//!
//! ```text
//! cargo run --release -p spf-bench --bin spf-lint                 # full size
//! cargo run --release -p spf-bench --bin spf-lint -- tiny         # quicker
//! cargo run --release -p spf-bench --bin spf-lint -- tiny db      # one workload
//! cargo run -p spf-bench --bin spf-lint -- tiny --agreement-out -
//! cargo run -p spf-bench --bin spf-lint -- tiny --provenance
//! ```
//!
//! For each workload the original (pre-JIT) method bodies are checked
//! against the structural verifier ([`spf_ir::verify::verify_all`]) and the
//! full static lint. Then, for every prefetch mode × simulated processor,
//! the workload is warmed up so the JIT compiles its hot methods, and each
//! *compiled* body — after folding, DCE, and prefetch insertion — is
//! linted again with the guarded-policy discipline resolved for that
//! processor. Under the modes that carry adaptive guards (ADAPTIVE,
//! STATIC-FIRST) every compilation *generation* is linted
//! (deoptimized-and-recompiled bodies included), not just the bodies still
//! installed. Each generation also runs the provenance lint
//! ([`spf_analysis::provenance::check`]): every emitted prefetch site is
//! tagged static/dynamic/hybrid and checked for wasted inspection budget,
//! proof-vs-installed-stride soundness, and speculation-safety of
//! statically-derived addresses. Verifier errors go to **stderr** (before
//! any lint output for the same body); lint and provenance findings go to
//! stdout. Any violation makes the process exit nonzero.
//!
//! Unless disabled with `--agreement-out -`, the static-vs-inspected stride
//! cross-check totals of each (workload, processor, mode) cell are written
//! as JSON lines to `STRIDE_agreement.jsonl`. With `--provenance`, per-cell
//! provenance tallies are additionally written to `STRIDE_provenance.jsonl`.
//! `--out-dir DIR` redirects every relative artifact path into `DIR`
//! (created if missing).

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use spf_analysis::{lint, LintConfig, Provenance, ProvenanceConfig, SiteProvenance};
use spf_core::{PrefetchOptions, StrideCrossCheck};
use spf_memsim::ProcessorConfig;
use spf_vm::{Vm, VmConfig};
use spf_workloads::Size;

struct Args {
    size: Size,
    only: Option<String>,
    agreement_out: Option<String>,
    provenance_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: Size::Full,
        only: None,
        agreement_out: Some("STRIDE_agreement.jsonl".to_string()),
        provenance_out: None,
    };
    let mut out_dir: Option<String> = None;
    let mut it = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--agreement-out" => {
                let v = it
                    .next()
                    .ok_or("--agreement-out needs a path (or - to disable)")?;
                args.agreement_out = if v == "-" { None } else { Some(v) };
            }
            "--provenance" => {
                args.provenance_out = Some("STRIDE_provenance.jsonl".to_string());
            }
            "--provenance-out" => {
                let v = it
                    .next()
                    .ok_or("--provenance-out needs a path (or - to disable)")?;
                args.provenance_out = if v == "-" { None } else { Some(v) };
            }
            "--out-dir" => {
                out_dir = Some(it.next().ok_or("--out-dir needs a directory")?);
            }
            _ => positional.push(a),
        }
    }
    if let Some(dir) = &out_dir {
        args.agreement_out = args
            .agreement_out
            .map(|p| spf_bench::out_dir::join(dir, &p));
        args.provenance_out = args
            .provenance_out
            .map(|p| spf_bench::out_dir::join(dir, &p));
    }
    if let Some(s) = positional.first() {
        args.size = s.parse()?;
    }
    args.only = positional.get(1).cloned();
    if let Some(only) = &args.only {
        if !spf_workloads::all().iter().any(|s| s.name == *only) {
            let names: Vec<_> = spf_workloads::all().iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {only:?}; known workloads: {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// Prints to stdout without panicking when the pipe closes early.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(text.as_bytes());
    let _ = out.write_all(b"\n");
}

/// Checks a workload's original (pre-optimization) method bodies: the
/// structural verifier plus the full lint with no policy constraint.
/// Verifier errors are reported on stderr, before any lint findings for
/// the same body. Returns the number of violations.
fn check_originals(name: &str, program: &spf_ir::program::Program) -> usize {
    let mut violations = 0;
    for mid in program.method_ids() {
        let func = program.method(mid).func();
        for e in spf_ir::verify::verify_all(program, func) {
            violations += 1;
            eprintln!("{name}: {}: verify: {e}", func.name());
        }
        for f in lint(func, &LintConfig::default()) {
            violations += 1;
            emit(&format!("{name}: {}: lint: {f}", func.name()));
        }
    }
    violations
}

/// Per-cell provenance tallies: how many emitted prefetch sites carry each
/// tag across all compiled generations of the cell.
#[derive(Clone, Copy, Default)]
struct ProvenanceTally {
    r#static: usize,
    dynamic: usize,
    hybrid: usize,
}

impl ProvenanceTally {
    fn add(&mut self, records: &[SiteProvenance]) {
        for r in records {
            match r.provenance {
                Provenance::Static => self.r#static += 1,
                Provenance::Dynamic => self.dynamic += 1,
                Provenance::Hybrid => self.hybrid += 1,
            }
        }
    }
}

/// Warms one (workload, processor, mode) cell until the JIT has compiled
/// its hot methods, lints every compiled body under the policy discipline
/// resolved for `proc`, and runs the provenance lint over every
/// compilation generation. Returns the violation count, the cell's stride
/// cross-check totals, the compiled-generation count, and the provenance
/// tallies.
fn check_cell(
    spec: &spf_workloads::WorkloadSpec,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    size: Size,
) -> (usize, StrideCrossCheck, usize, ProvenanceTally) {
    let built = (spec.build)(size);
    let mut vm = Vm::new(
        built.program,
        VmConfig {
            heap_bytes: built.heap_bytes,
            prefetch: options.clone(),
            compile_threshold: built.compile_threshold,
            ..VmConfig::default()
        },
        proc.clone(),
    );
    let mut checksum = 0;
    for _ in 0..2 {
        checksum = vm
            .call(built.entry, &[])
            .unwrap_or_else(|e| panic!("{} faulted: {e}", spec.name))
            .expect("entry returns a checksum")
            .as_i32();
    }
    if let Some(expected) = built.expected {
        assert_eq!(checksum, expected, "{} checksum", spec.name);
    }

    let policy = options
        .guarded_policy
        .lint_check(proc.swpf_drops_on_tlb_miss);
    let config = LintConfig { policy };
    let pcfg = ProvenanceConfig {
        static_first: options.mode.static_first(),
    };
    let mut violations = 0;
    let mut compiled = 0;
    let mut tally = ProvenanceTally::default();
    // Every compilation the VM ever installed: under the adaptive-guard
    // modes this includes deoptimized-and-recompiled generations, not
    // just the bodies currently live. Reports are paired with bodies by
    // (method name, generation) — the history and the report list are not
    // positionally aligned when bodies are installed out of band.
    for (_mid, generation, func) in vm.compiled_generations() {
        compiled += 1;
        // Verifier errors go to stderr, before this body's lint output.
        for e in spf_ir::verify::verify_all(vm.program(), func) {
            violations += 1;
            eprintln!(
                "{}/{}/{}: {} g{generation}: verify: {e}",
                spec.name,
                options.mode,
                proc.name,
                func.name()
            );
        }
        for f in lint(func, &config) {
            violations += 1;
            emit(&format!(
                "{}/{}/{}: {} g{generation}: lint: {f}",
                spec.name,
                options.mode,
                proc.name,
                func.name()
            ));
        }
        let records: Vec<SiteProvenance> = vm
            .reports()
            .iter()
            .filter(|r| r.method == func.name() && r.generation == generation)
            .flat_map(|r| r.provenance_records().cloned())
            .collect();
        tally.add(&records);
        for f in spf_analysis::provenance::check(func, &pcfg, &records) {
            violations += 1;
            emit(&format!(
                "{}/{}/{}: {} g{generation}: provenance: {f}",
                spec.name,
                options.mode,
                proc.name,
                func.name()
            ));
        }
    }

    let mut strides = StrideCrossCheck::default();
    for r in vm.reports() {
        strides.add(&r.stride_check_totals());
    }
    (violations, strides, compiled, tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: spf-lint [tiny|small|full [WORKLOAD]] [--agreement-out PATH|-] \
                 [--provenance] [--provenance-out PATH|-] [--out-dir DIR]"
            );
            return ExitCode::FAILURE;
        }
    };
    let keep = |n: &str| args.only.as_deref().is_none_or(|o| o == n);

    let mut violations = 0;
    let mut cells = 0;
    let mut compiled_total = 0;
    let mut grand = StrideCrossCheck::default();
    let mut grand_tally = ProvenanceTally::default();
    let mut agreement = String::new();
    let mut provenance = String::new();
    for spec in spf_workloads::all() {
        if !keep(spec.name) {
            continue;
        }
        // Original bodies are mode- and processor-independent: check once.
        let built = (spec.build)(args.size);
        violations += check_originals(spec.name, &built.program);

        for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
            for options in [
                PrefetchOptions::off(),
                PrefetchOptions::inter(),
                PrefetchOptions::inter_intra(),
                PrefetchOptions::adaptive(),
                PrefetchOptions::static_first(),
            ] {
                let (v, strides, compiled, tally) = check_cell(&spec, &options, &proc, args.size);
                violations += v;
                cells += 1;
                compiled_total += compiled;
                grand.add(&strides);
                grand_tally.r#static += tally.r#static;
                grand_tally.dynamic += tally.dynamic;
                grand_tally.hybrid += tally.hybrid;
                let _ = writeln!(
                    agreement,
                    "{{\"name\": \"{}\", \"mode\": \"{}\", \"processor\": \"{}\", \
                     \"agree\": {}, \"disagree\": {}, \"static_only\": {}, \
                     \"dynamic_only\": {}}}",
                    spec.name,
                    options.mode,
                    proc.name,
                    strides.agree,
                    strides.disagree,
                    strides.static_only,
                    strides.dynamic_only
                );
                let _ = writeln!(
                    provenance,
                    "{{\"name\": \"{}\", \"mode\": \"{}\", \"processor\": \"{}\", \
                     \"static\": {}, \"dynamic\": {}, \"hybrid\": {}}}",
                    spec.name, options.mode, proc.name, tally.r#static, tally.dynamic, tally.hybrid
                );
            }
        }
    }

    if let Some(path) = &args.agreement_out {
        spf_bench::out_dir::ensure_parent(path);
        match std::fs::write(path, &agreement) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if let Some(path) = &args.provenance_out {
        spf_bench::out_dir::ensure_parent(path);
        match std::fs::write(path, &provenance) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    emit(&format!(
        "spf-lint: {cells} cell(s), {compiled_total} compiled method(s), \
         strides[{grand}], provenance[static {} / dynamic {} / hybrid {}], \
         {violations} violation(s)",
        grand_tally.r#static, grand_tally.dynamic, grand_tally.hybrid
    ));
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
