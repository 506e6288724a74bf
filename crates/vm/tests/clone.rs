//! A cloned `Vm` is the same VM: the same steps on the original and on
//! the clone give the same statistics, memory statistics, checksums,
//! reports and stranded loops, and the clone's heap is the original's
//! allocated prefix over zeros. Exercised the way a serving tenant runs —
//! ADAPTIVE, background compilation, a heap shard — and cloned at every
//! kind of state a tenant passes through.

use spf_core::{MethodReport, PrefetchOptions};
use spf_heap::shard_bytes;
use spf_ir::MethodId;
use spf_memsim::ProcessorConfig;
use spf_vm::{NoopSink, Vm, VmConfig};
use spf_workloads::{Prepared, Size};

fn tiny(name: &str) -> Prepared {
    spf_workloads::all()
        .into_iter()
        .find(|s| s.name == name)
        .expect("a registered workload")
        .prepare(Size::Tiny)
}

/// A serving tenant's VM: ADAPTIVE, compiling in the background, on a
/// 1/32 shard of the workload's heap with a 2 MiB floor.
fn tenant(prep: &Prepared) -> Vm {
    let base = prep.vm_config(&PrefetchOptions::adaptive());
    let config = VmConfig {
        heap_bytes: shard_bytes(base.heap_bytes, 32, 2 << 20),
        async_compile: true,
        ..base
    };
    prep.vm(config, &ProcessorConfig::pentium4(), NoopSink)
}

/// Serves `calls` requests, installing each compile request right after
/// the call that raised it; returns the checksums.
fn serve(prep: &Prepared, vm: &mut Vm, calls: usize) -> Vec<i32> {
    (0..calls)
        .map(|_| {
            let checksum = prep.warm(vm, 1);
            for method in vm.take_compile_requests() {
                vm.compile_pending(method);
            }
            checksum
        })
        .collect()
}

/// Each report without its host time.
fn simulated(reports: &[MethodReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let r = MethodReport {
                pass_nanos: 0,
                ..r.clone()
            };
            format!("{r:?}")
        })
        .collect()
}

/// Clones `vm`, checks the clone's heap, then serves the same requests
/// on both and checks that they agree.
fn check_clone(prep: &Prepared, mut vm: Vm, when: &str) {
    let name = prep.name();
    let mut clone = vm.clone();
    let (heap, copy) = (vm.heap(), clone.heap());
    let top = heap.used() as usize;
    assert_eq!(copy.used(), heap.used(), "{name}, {when}: top");
    assert_eq!(copy.capacity(), heap.capacity(), "{name}, {when}: capacity");
    assert_eq!(copy.gc_epoch(), heap.gc_epoch(), "{name}, {when}: epoch");
    assert!(
        copy.bytes()[..top] == heap.bytes()[..top],
        "{name}, {when}: the allocated prefix"
    );
    assert!(
        copy.bytes()[top..].iter().all(|&b| b == 0),
        "{name}, {when}: zero above the prefix"
    );

    let ours = serve(prep, &mut vm, 6);
    let theirs = serve(prep, &mut clone, 6);
    assert_eq!(ours, theirs, "{name}, {when}: checksums");
    assert_eq!(
        vm.stats().simulated(),
        clone.stats().simulated(),
        "{name}, {when}: VmStats"
    );
    assert_eq!(
        vm.mem_stats(),
        clone.mem_stats(),
        "{name}, {when}: MemStats"
    );
    assert_eq!(
        simulated(vm.reports()),
        simulated(clone.reports()),
        "{name}, {when}: reports"
    );
    assert_eq!(
        vm.stranded_count(),
        clone.stranded_count(),
        "{name}, {when}: stranded loops"
    );
}

/// A tenant after three requests: the calls that crossed the compile
/// threshold left their requests pending, none installed.
fn warmed(prep: &Prepared) -> Vm {
    let mut vm = tenant(prep);
    for _ in 0..3 {
        prep.warm(&mut vm, 1);
    }
    assert!(vm.pending_compile_count() > 0, "{}: requests", prep.name());
    vm
}

/// A warmed tenant with its pending compiles installed.
fn installed(prep: &Prepared) -> Vm {
    let mut vm = warmed(prep);
    for method in vm.take_compile_requests() {
        vm.compile_pending(method);
    }
    assert!(vm.stats().methods_compiled > 0, "{}: installs", prep.name());
    vm
}

/// A tenant that served requests until its first collection.
fn collected(prep: &Prepared) -> Vm {
    let mut vm = tenant(prep);
    for _ in 0..200 {
        if vm.stats().gc_count > 0 {
            return vm;
        }
        serve(prep, &mut vm, 1);
    }
    panic!("{}: no collection in 200 requests", prep.name())
}

/// Clones a tenant after warm-up, a background install, an eviction, a
/// collection and an injected heap move.
fn clones_reproduce(name: &str) {
    let prep = tiny(name);
    check_clone(&prep, warmed(&prep), "after warm-up");
    check_clone(&prep, installed(&prep), "after compile_pending");

    let mut vm = installed(&prep);
    let compiled = (0..vm.program().method_count())
        .map(MethodId::new)
        .find(|&m| vm.is_compiled(m))
        .expect("a compiled method");
    assert!(vm.evict_compiled(compiled).is_some());
    check_clone(&prep, vm, "after evict_compiled");

    check_clone(&prep, collected(&prep), "after a GC");
    let mut vm = collected(&prep);
    vm.inject_heap_move();
    check_clone(&prep, vm, "after inject_heap_move");
}

#[test]
fn a_clone_of_db_is_the_same_vm() {
    clones_reproduce("db");
}

#[test]
fn a_clone_of_jess_is_the_same_vm() {
    clones_reproduce("jess");
}

#[test]
fn a_clone_of_javac_is_the_same_vm() {
    clones_reproduce("javac");
}
