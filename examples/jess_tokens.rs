//! The paper's motivating example, end to end (paper §2, Figures 1–5).
//!
//! Runs the jess miniature, JIT-compiles `findInMemory` with live heap
//! data, and prints:
//!
//! * the load dependence graph (Table 1 / Figure 5);
//! * the generated prefetching code — the speculative load of
//!   `&tv.v[i] + c*d`, the dereference-based prefetch of the future token,
//!   and (on the Athlon, whose lines are smaller than a Token) the
//!   intra-iteration stride prefetch of its facts array (Figure 4);
//! * the measured effect of each configuration.
//!
//! ```text
//! cargo run --release --example jess_tokens
//! ```

use stride_prefetch::memsim::ProcessorConfig;
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::trace::NoopSink;
use stride_prefetch::workloads::{self, Size};

fn main() {
    let spec = workloads::all()
        .into_iter()
        .find(|s| s.name == "jess")
        .expect("jess workload");

    println!("== Figure 4/5: what the JIT generates for findInMemory ==\n");
    let jess = spec.prepare(Size::Tiny);
    let config = jess.vm_config(&PrefetchOptions::inter_intra());
    let mut vm = jess.vm(config, &ProcessorConfig::athlon_mp(), NoopSink);
    // The second call crosses the compile threshold: the JIT inspects
    // the live heap the first call built.
    jess.warm(&mut vm, 2);
    let report = vm
        .reports()
        .iter()
        .find(|r| r.method == "findInMemory")
        .expect("findInMemory compiled");
    println!("{}", report.render());
    for lr in &report.loops {
        if lr.ldg_nodes > 0 {
            println!("load dependence graph of loop at {}:", lr.header);
            println!("{}", lr.ldg_text);
        }
    }

    println!("== speedups (Size::Small, steady state) ==\n");
    let jess = spec.prepare(Size::Small);
    for proc in [ProcessorConfig::pentium4(), ProcessorConfig::athlon_mp()] {
        let mut cycles = Vec::new();
        for options in [
            PrefetchOptions::off(),
            PrefetchOptions::inter(),
            PrefetchOptions::inter_intra(),
        ] {
            let mut vm = jess.vm(jess.vm_config(&options), &proc, NoopSink);
            jess.warm(&mut vm, 2);
            vm.reset_measurement();
            jess.warm(&mut vm, 1);
            cycles.push(vm.stats().cycles);
        }
        println!(
            "{:<10} BASELINE {:>12} | INTER {:>+6.2}% | INTER+INTRA {:>+6.2}%",
            proc.name,
            cycles[0],
            (cycles[0] as f64 / cycles[1] as f64 - 1.0) * 100.0,
            (cycles[0] as f64 / cycles[2] as f64 - 1.0) * 100.0,
        );
    }
    println!(
        "\nAs in the paper, INTER finds nothing to exploit (the token array is\n\
         churned), while INTER+INTRA prefetches through the speculative load."
    );
}
