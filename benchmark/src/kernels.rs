//! Small seeded kernels against single layers' public APIs. Each reports
//! host time per operation, measured from outside the layer; the traced
//! set runs them on every workload so a layer's unit costs sit next to
//! the counts the workload drives through it.

use std::hint::black_box;
use std::time::Instant;

use spf_core::Ldg;
use spf_heap::{Heap, Layout, Value};
use spf_ir::cfg::Cfg;
use spf_ir::defuse::UseDef;
use spf_ir::dom::DomTree;
use spf_ir::loops::LoopForest;
use spf_ir::{ElemTy, Program};
use spf_memsim::{MemorySystem, ProcessorConfig};
use spf_serve::{traffic, CodeCache, TrafficConfig};
use spf_testkit::Rng;

use crate::span::Tracer;
use crate::stats::median;

/// Times each kernel is repeated; the median repetition is reported.
const REPS: usize = 5;

/// Host nanoseconds per operation of the memory model, Pentium 4 config.
pub struct MemsimCosts {
    pub hit_ns: f64,
    pub l1miss_ns: f64,
    pub l2miss_ns: f64,
    pub store_ns: f64,
    pub swpf_ns: f64,
    pub guarded_ns: f64,
}

/// Line-aligned addresses drawn uniformly from `[base, base + span)`.
fn stream(rng: &mut Rng, base: u64, span: u64, n: usize) -> Vec<u64> {
    (0..n).map(|_| base + (rng.below(span) & !63)).collect()
}

/// Median nanoseconds per element of `addrs` over [`REPS`] runs of
/// `pass`, each on a memory system `prime` has prepared.
fn per_access(
    addrs: &[u64],
    prime: impl Fn(&mut MemorySystem),
    pass: impl Fn(&mut MemorySystem, &[u64]) -> u64,
) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut mem = MemorySystem::new(ProcessorConfig::pentium4());
            prime(&mut mem);
            let t0 = Instant::now();
            black_box(pass(&mut mem, black_box(addrs)));
            t0.elapsed().as_nanos() as f64 / addrs.len() as f64
        })
        .collect();
    median(&samples)
}

fn loads(mem: &mut MemorySystem, addrs: &[u64]) -> u64 {
    let mut now = 0u64;
    for &a in addrs {
        now += 1 + mem.load(a, now);
    }
    now
}

/// Replays seeded address streams through `MemorySystem`'s four entry
/// points. Working sets are chosen against the *modelled* Pentium 4 (8 KB
/// L1, 256 KB L2, 64-entry DTLB), so each stream stays on one path of the
/// model: the MRU hit path, the L1-miss/L2-hit path, the full miss path.
pub fn memsim(t: &mut Tracer, seed: u64) -> MemsimCosts {
    const N: usize = 1 << 17;
    const BASE: u64 = 0x4000_0000;
    let mut rng = Rng::new(seed ^ 0x6d65_6d73);
    let l1_resident = stream(&mut rng, BASE, 4 << 10, N);
    let l2_resident = stream(&mut rng, BASE, 128 << 10, N);
    let everywhere = stream(&mut rng, BASE, 256 << 20, N);
    // 60 pages fit the 64-entry DTLB; one load per page primes it while
    // leaving almost every line of the region out of the L2, so each
    // prefetch below takes the fill path, not the dropped or redundant one.
    const PAGES: u64 = 60;
    let primed_pages = stream(&mut rng, BASE, PAGES * 4096, (PAGES * 4096 / 128) as usize);
    let prime_tlb = |mem: &mut MemorySystem| {
        for p in 0..PAGES {
            mem.load(BASE + p * 4096, 0);
        }
    };
    let warm_l2 = |mem: &mut MemorySystem| {
        loads(mem, &l2_resident);
    };
    t.span("memsim.kernels", 0, |_| MemsimCosts {
        hit_ns: per_access(&l1_resident, |_| (), loads),
        l1miss_ns: per_access(&l2_resident, warm_l2, loads),
        l2miss_ns: per_access(&everywhere, |_| (), loads),
        store_ns: per_access(&l2_resident, warm_l2, |mem, addrs| {
            let mut now = 0u64;
            for &a in addrs {
                now += 1 + mem.store(a, now);
            }
            now
        }),
        swpf_ns: per_access(&primed_pages, prime_tlb, |mem, addrs| {
            let mut now = 0u64;
            for &a in addrs {
                now += mem.software_prefetch(a, now);
            }
            now
        }),
        guarded_ns: per_access(
            &everywhere,
            |_| (),
            |mem, addrs| {
                let mut now = 0u64;
                for &a in addrs {
                    now += mem.guarded_load(a, now);
                }
                now
            },
        ),
    })
}

/// Allocation and collection costs of the heap.
pub struct HeapCosts {
    pub alloc_ns: f64,
    pub collect_ms: f64,
    pub moved_objects: u64,
}

/// Allocates a seeded linked-object graph — one object in four stays
/// reachable, chained through `next` in allocation order — then collects
/// it once. Survivors are scattered, so sliding compaction moves nearly
/// all of them.
pub fn heap(t: &mut Tracer, seed: u64) -> HeapCosts {
    const OBJECTS: usize = 200_000;
    let mut program = Program::new();
    let (node, fields) = program.add_class("Node", &[("next", ElemTy::Ref), ("v", ElemTy::I32)]);
    let layout = Layout::compute(&program);
    let next = layout.field_offset(fields[0]);
    let mut runs = Vec::new();
    for rep in 0..REPS {
        let mut rng = Rng::new(seed ^ 0x6865_6170);
        let mut heap = Heap::new(layout.clone(), 16 << 20);
        let (head, alloc_nanos) = t.timed("heap.alloc", rep as u64, |_| {
            let head = heap.alloc_object(node).expect("heap sized for the graph");
            let mut tail = head;
            for _ in 1..OBJECTS {
                let obj = heap.alloc_object(node).expect("heap sized for the graph");
                if rng.chance(1, 4) {
                    heap.write(tail + next, ElemTy::Ref, Value::Ref(obj))
                        .expect("field of a live object");
                    tail = obj;
                }
            }
            head
        });
        let ((stats, _), collect_nanos) =
            t.timed("heap.collect", rep as u64, |_| heap.collect(&[head]));
        runs.push((alloc_nanos, collect_nanos, stats.moved_objects));
    }
    let of = |f: fn(&(u64, u64, u64)) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    HeapCosts {
        alloc_ns: of(|r| r.0 as f64) / OBJECTS as f64,
        collect_ms: of(|r| r.1 as f64) / 1e6,
        moved_objects: runs[0].2,
    }
}

/// Cost of the shared code cache's bookkeeping.
pub struct CacheCosts {
    pub op_ns: f64,
    pub evictions_per_insert: f64,
}

/// A seeded insert / touch / remove mix against a cache of the fleet's
/// default capacity, with bodies sized like the fleet's (tens to hundreds
/// of instructions), so it runs full and every insert evicts.
pub fn code_cache(t: &mut Tracer, seed: u64, capacity_instrs: u64) -> CacheCosts {
    const OPS: usize = 50_000;
    let mut samples = Vec::new();
    let mut per_insert = 0.0;
    for rep in 0..REPS {
        let mut rng = Rng::new(seed ^ 0x6361_6368);
        let mut cache = CodeCache::new(capacity_instrs);
        let (mut inserts, mut victims) = (0u64, 0u64);
        let ((), nanos) = t.timed("serve.cache.kernel", rep as u64, |_| {
            for now in 0..OPS as u64 {
                let tenant = rng.below(120) as u32;
                let method = rng.below(12) as u32;
                match rng.below(4) {
                    0 => cache.touch_tenant(tenant, now),
                    1 => drop(black_box(cache.remove(tenant, method))),
                    _ => {
                        // Remove-before-insert, as the simulation does for
                        // a refreshed body.
                        cache.remove(tenant, method);
                        inserts += 1;
                        victims +=
                            cache.insert(tenant, method, 40 + rng.below(360), now).len() as u64;
                    }
                }
            }
        });
        samples.push(nanos as f64 / OPS as f64);
        per_insert = victims as f64 / inserts as f64;
    }
    CacheCosts {
        op_ns: median(&samples),
        evictions_per_insert: per_insert,
    }
}

/// Median microseconds of one `traffic::generate` call.
pub fn traffic_generate(t: &mut Tracer, seed: u64, tenants: usize, requests: u32) -> f64 {
    let cfg = TrafficConfig {
        tenants,
        requests,
        mean_interarrival: 300_000,
        seed,
    };
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let (reqs, nanos) = t.timed("serve.traffic.generate", rep as u64, |_| {
                traffic::generate(black_box(&cfg))
            });
            black_box(reqs);
            nanos as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Static-analysis costs over a set of programs.
#[derive(Default)]
pub struct AnalysisCosts {
    pub instrs: u64,
    pub analyses_us: f64,
    pub ldg_build_us: f64,
    pub scev_us: f64,
}

/// CFG, dominators, loop forest and use-def for every method of
/// `programs`, then `Ldg::build` and `loop_static_strides` per loop.
pub fn analyses(t: &mut Tracer, programs: &[&Program]) -> AnalysisCosts {
    let mut out = AnalysisCosts::default();
    let (mut ldg, mut scev) = (Vec::new(), Vec::new());
    let mut analyses_nanos = 0u64;
    for (op, program) in programs.iter().enumerate() {
        for mid in program.method_ids() {
            let func = program.method(mid).func();
            out.instrs += func.instr_sites().count() as u64;
            let ((cfg, dom, forest, ud), nanos) = t.timed("ir.analyses", op as u64, |_| {
                let cfg = Cfg::compute(func);
                let dom = DomTree::compute(func, &cfg);
                let forest = LoopForest::compute(func, &cfg, &dom);
                let ud = UseDef::compute(func, &cfg);
                (cfg, dom, forest, ud)
            });
            analyses_nanos += nanos;
            for target in forest.postorder() {
                let (g, nanos) = t.timed("core.ldg_build", op as u64, |_| {
                    Ldg::build(func, &ud, &forest, target)
                });
                black_box(g);
                ldg.push(nanos as f64 / 1e3);
                let (strides, nanos) = t.timed("analysis.scev", op as u64, |_| {
                    spf_analysis::scev::loop_static_strides(func, &cfg, &dom, &forest, &ud, target)
                });
                black_box(strides);
                scev.push(nanos as f64 / 1e3);
            }
        }
    }
    out.analyses_us = analyses_nanos as f64 / 1e3;
    if !ldg.is_empty() {
        out.ldg_build_us = median(&ldg);
        out.scev_us = median(&scev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memsim_streams_stay_on_their_path_of_the_model() {
        // The kernels are only meaningful if the working sets hit the
        // modelled level they are named for.
        let mut rng = Rng::new(1);
        let p4 = ProcessorConfig::pentium4;
        let addrs = stream(&mut rng, 0x4000_0000, 4 << 10, 4096);
        let mut mem = MemorySystem::new(p4());
        loads(&mut mem, &addrs);
        assert!(mem.stats().l1_load_misses <= 64, "L1-resident stream");

        let addrs = stream(&mut rng, 0x4000_0000, 128 << 10, 1 << 15);
        let mut mem = MemorySystem::new(p4());
        loads(&mut mem, &addrs);
        let warm = *mem.stats();
        loads(&mut mem, &addrs);
        let s = mem.stats();
        let (l1, l2) = (
            s.l1_load_misses - warm.l1_load_misses,
            s.l2_load_misses - warm.l2_load_misses,
        );
        assert!(
            l1 > (1 << 15) * 8 / 10,
            "L2-resident stream misses the L1: {l1}"
        );
        assert_eq!(l2, 0, "and hits the L2");

        let addrs = stream(&mut rng, 0x4000_0000, 256 << 20, 1 << 14);
        let mut mem = MemorySystem::new(p4());
        loads(&mut mem, &addrs);
        assert!(
            mem.stats().l2_load_misses > (1 << 14) * 9 / 10,
            "random stream misses"
        );
    }

    #[test]
    fn prefetch_kernel_takes_the_fill_path() {
        let mut mem = MemorySystem::new(ProcessorConfig::pentium4());
        for p in 0..60u64 {
            mem.load(0x4000_0000 + p * 4096, 0);
        }
        let mut rng = Rng::new(2);
        let addrs = stream(&mut rng, 0x4000_0000, 60 * 4096, 1920);
        for &a in &addrs {
            mem.software_prefetch(a, 0);
        }
        let s = mem.stats();
        assert_eq!(s.swpf_dropped_tlb, 0, "every page was primed");
        assert!(
            s.swpf_fills > 1000,
            "most prefetches fill: {}",
            s.swpf_fills
        );
    }

    #[test]
    fn heap_kernel_keeps_a_quarter_and_moves_it() {
        let h = heap(&mut Tracer::new(), 3);
        assert!(
            h.moved_objects > 40_000 && h.moved_objects < 60_000,
            "{}",
            h.moved_objects
        );
        assert!(h.alloc_ns > 0.0 && h.collect_ms > 0.0);
    }

    #[test]
    fn kernels_are_functions_of_the_seed() {
        let a = code_cache(&mut Tracer::new(), 9, 8192).evictions_per_insert;
        let b = code_cache(&mut Tracer::new(), 9, 8192).evictions_per_insert;
        let c = code_cache(&mut Tracer::new(), 10, 8192).evictions_per_insert;
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a > 0.5, "the cache runs full: {a}");
    }

    #[test]
    fn analyses_find_the_loops_of_a_real_program() {
        let built = (spf_workloads::all()[3].build)(spf_workloads::Size::Tiny);
        let c = analyses(&mut Tracer::new(), &[&built.program]);
        assert!(c.instrs > 100 && c.analyses_us > 0.0);
        assert!(c.ldg_build_us > 0.0 && c.scev_us > 0.0, "db has loops");
    }
}
