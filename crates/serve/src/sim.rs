//! The epoch-barrier serving simulation.
//!
//! Hundreds of tenant VMs — each a full mixed-mode [`spf_vm::Vm`] over its
//! own heap shard — serve an open-loop request stream. Time advances in
//! *epochs*: at each epoch barrier one coordinator absorbs arrivals,
//! completes and schedules background compilations, evicts from the shared
//! code cache, dispatches at most one request per idle tenant, runs the
//! dispatched requests in tenant order, and folds their results back.
//!
//! Every step runs serially in canonical tenant/worker order, so the
//! simulation is a pure function of [`ServeConfig`] — bit-identical across
//! host machines. That property is what lets CI gate serving latency
//! numbers the same way `bench_diff` gates the matrix.

use std::collections::VecDeque;

use spf_adapt::AdaptConfig;
use spf_core::PrefetchOptions;
use spf_heap::shard_bytes;
use spf_ir::MethodId;
use spf_memsim::ProcessorConfig;
use spf_trace::{FaultKind, NoopSink, TraceEvent};
use spf_vm::{Vm, VmConfig};
use spf_workloads::{all, Prepared, Size};

use crate::cache::{CacheEntry, CodeCache};
use crate::faults::{self, FaultPlan};
use crate::traffic::{self, Request, TrafficConfig};

/// Serving-simulation configuration: everything that influences a
/// simulated number.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of tenant VMs. Tenant `i` runs workload `i % 12` from the
    /// Table 3 registry.
    pub tenants: usize,
    /// Total requests in the open-loop stream.
    pub requests: u32,
    /// Mean request inter-arrival gap in cycles.
    pub mean_interarrival: u64,
    /// Traffic seed.
    pub seed: u64,
    /// Epoch length: barriers land on multiples of this many cycles.
    pub slot_cycles: u64,
    /// Dedicated background compiler workers draining the shared queue.
    pub compile_workers: usize,
    /// Shared code-cache capacity in compiled instructions.
    pub cache_capacity_instrs: u64,
    /// Per-tenant heap = `shard_bytes(workload_heap, heap_shard_div,
    /// heap_floor_bytes)` — tenants get a slice of the standalone heap,
    /// bounded below so small workloads still fit.
    pub heap_shard_div: usize,
    /// Lower bound on a tenant heap shard, in bytes.
    pub heap_floor_bytes: usize,
    /// Workload problem size.
    pub size: Size,
    /// Chaos mode: the seed of the fault plan (usually
    /// [`faults::DEFAULT_SEED`]); the fault mix is the constants of
    /// [`faults`]. `None` (the default) takes the exact legacy code paths
    /// — fault-free runs stay byte-identical to pre-chaos builds.
    pub chaos: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: 120,
            requests: 600,
            mean_interarrival: 300_000,
            seed: 0x5EED_5E17,
            slot_cycles: 100_000,
            compile_workers: 2,
            cache_capacity_instrs: 8_192,
            heap_shard_div: 32,
            heap_floor_bytes: 2 << 20,
            size: Size::Tiny,
            chaos: None,
        }
    }
}

/// What one [`run`] produced.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Per-request latency (completion − arrival) in cycles, indexed by
    /// request id.
    pub latencies: Vec<u64>,
    /// Compilation-queue depth (waiting + in service) sampled once per
    /// epoch.
    pub queue_depth_samples: Vec<u32>,
    /// Serve-level trace events (enqueues, installs, evictions, request
    /// completions) in simulation order.
    pub events: Vec<TraceEvent>,
    /// Background compilations installed.
    pub compiles: u64,
    /// Code-cache capacity evictions.
    pub evictions: u64,
    /// Full adaptive recompilations summed over all tenant VMs.
    pub recompiles: u64,
    /// Per-loop invalidations (prefetch sites patched to no-ops, body
    /// kept compiled) summed over all tenant VMs.
    pub loop_deopts: u64,
    /// Per-loop repatches (stale loops re-inspected and their sites
    /// re-emitted into the installed body) summed over all tenant VMs.
    pub loop_repatches: u64,
    /// Order-sensitive fold of every tenant's workload checksum — equal
    /// across modes, or the fleet diverged.
    pub checksum: i64,
    /// Number of epoch barriers executed.
    pub epochs: u64,
    /// Request ids shed by admission control, in shed order (empty
    /// without chaos).
    pub shed: Vec<u32>,
    /// Shed cycle of each entry in `shed` (parallel vector).
    pub shed_times: Vec<u64>,
    /// Compile jobs re-queued after missing their deadline.
    pub retries: u64,
    /// Adaptive guard re-arms across the fleet.
    pub rearms: u64,
    /// Fault windows that activated.
    pub faults: u64,
    /// Loops still stranded (invalidated, not yet repatched) at run end
    /// — the `deopt-summary` stranding diagnostic, surfaced
    /// machine-checkably.
    pub stranded_final: u64,
    /// Fleet stranded-loop count sampled once per epoch (chaos runs
    /// only; empty otherwise).
    pub stranded_samples: Vec<u64>,
}

/// One tenant: a VM plus its request queue and serving clock.
struct Tenant<'w> {
    vm: Vm,
    /// The workload the tenant serves (shared with its `i % 12` peers).
    prep: &'w Prepared,
    /// First observed checksum; later requests must reproduce it.
    checksum: Option<i32>,
    queue: VecDeque<Request>,
    /// Serving-clock cycle at which the tenant finishes its current
    /// request (idle when `<= now`).
    free_at: u64,
}

/// A background compile request waiting in, or being served by, the
/// shared compilation queue.
#[derive(Clone, Copy)]
struct CompileJob {
    tenant: u32,
    method: MethodId,
    cost: u64,
    enqueued_at: u64,
    /// Deadline retries so far (chaos mode; always 0 otherwise).
    attempts: u32,
    /// Earliest cycle a worker may pick the job up (retry backoff;
    /// always 0 without chaos, making assignment exactly FIFO).
    not_before: u64,
}

/// The shared state every barrier step works on. Each step is a method
/// written once; the epoch loop and the chaos cooldown of [`run`] differ
/// only in which steps they call.
struct Fleet<'w> {
    tenants: Vec<Tenant<'w>>,
    cache: CodeCache,
    queue: VecDeque<CompileJob>,
    /// `workers[w]` holds the job worker `w` finishes at `finish_at`.
    workers: Vec<Option<(u64, CompileJob)>>,
    out: ServeOutcome,
}

impl Fleet<'_> {
    /// Evicts code-cache `victims` from their VMs.
    fn evict(&mut self, victims: Vec<CacheEntry>, now: u64) {
        for victim in victims {
            self.tenants[victim.tenant as usize]
                .vm
                .evict_compiled(MethodId::new(victim.method as usize));
            self.out.evictions += 1;
            self.out.events.push(TraceEvent::CodeCacheEvicted {
                tenant: victim.tenant,
                method: victim.method,
                instrs: victim.instrs as u32,
                now,
            });
        }
    }

    /// Completes finished background compiles, in worker order: install
    /// into the owning VM, charge the shared code cache, and evict LRU
    /// victims from their VMs.
    fn complete_compiles(&mut self, now: u64) {
        for w in 0..self.workers.len() {
            let Some((finish_at, job)) = self.workers[w] else {
                continue;
            };
            if finish_at > now {
                continue;
            }
            self.workers[w] = None;
            let installed = self.tenants[job.tenant as usize]
                .vm
                .compile_pending(job.method);
            let Some(instrs) = installed else {
                continue; // request withdrawn (method no longer pending)
            };
            let method = job.method.index() as u32;
            self.out.compiles += 1;
            self.out.events.push(TraceEvent::CompileInstalled {
                tenant: job.tenant,
                method,
                wait: now - job.enqueued_at,
                now,
            });
            // A per-loop repatch refreshes a body that never left the
            // cache; drop the stale entry so the insert below re-accounts
            // the new size instead of double-counting.
            self.cache.remove(job.tenant, method);
            let victims = self.cache.insert(job.tenant, method, instrs, now);
            self.evict(victims, now);
        }
    }

    /// Hands waiting jobs to idle compiler workers: the first eligible
    /// job in queue order (exact FIFO without chaos, since every
    /// `not_before` is then 0). A compile-stall window (`stalled`) parks
    /// the workers; in-flight compiles still finish.
    fn assign_workers(&mut self, now: u64, stalled: bool) {
        for slot in self.workers.iter_mut() {
            if slot.is_none() && !stalled {
                if let Some(i) = self.queue.iter().position(|j| j.not_before <= now) {
                    let job = self.queue.remove(i).expect("index from position");
                    *slot = Some((now + job.cost, job));
                }
            }
        }
    }

    /// Moves tenant `ti`'s fresh compile requests onto the shared queue,
    /// recording a `CompileEnqueued` event for each when `announce`.
    fn enqueue_requests(&mut self, ti: usize, now: u64, announce: bool) {
        let vm = &mut self.tenants[ti].vm;
        let requests = vm.take_compile_requests();
        let costs: Vec<u64> = (requests.iter())
            .map(|&mid| vm.compile_cost_estimate(mid))
            .collect();
        for (method, cost) in requests.into_iter().zip(costs) {
            self.queue.push_back(CompileJob {
                tenant: ti as u32,
                method,
                cost,
                enqueued_at: now,
                attempts: 0,
                not_before: 0,
            });
            if announce {
                let depth = self.queue_depth();
                self.out.events.push(TraceEvent::CompileEnqueued {
                    tenant: ti as u32,
                    method: method.index() as u32,
                    depth,
                    now,
                });
            }
        }
    }

    /// Chaos: the recovery sweep. Methods with stranded (invalidated,
    /// never repatched) loops are re-enqueued from their retained
    /// invalidation arguments — the degradation pairing for GC storms,
    /// and the mechanism that drives the stranded count back to zero.
    fn recovery_sweep(&mut self, now: u64, announce: bool) {
        for ti in 0..self.tenants.len() {
            self.tenants[ti].vm.reenqueue_stranded();
            self.enqueue_requests(ti, now, announce);
        }
    }

    /// Loops stranded across the fleet right now.
    fn stranded(&self) -> u64 {
        self.tenants.iter().map(|t| t.vm.stranded_count()).sum()
    }

    /// Compilation-queue depth: waiting plus in service.
    fn queue_depth(&self) -> u32 {
        let busy = self.workers.iter().filter(|w| w.is_some()).count();
        (self.queue.len() + busy) as u32
    }

    /// The earliest future cycle at which the compile machinery needs a
    /// barrier: a worker finishing, or a backed-off job becoming
    /// eligible (chaos only — `not_before` is 0 otherwise). Without the
    /// latter a queue of backed-off jobs plus an otherwise idle fleet
    /// would stall. `u64::MAX` when there is none.
    fn next_compile_event(&self, now: u64) -> u64 {
        let finishes = self.workers.iter().flatten().map(|w| w.0);
        let backoffs = self.queue.iter().map(|j| j.not_before);
        finishes
            .chain(backoffs.filter(|&t| t > now))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// Runs the serving simulation: `cfg.requests` requests over
/// `cfg.tenants` VMs under `options`. `_jobs` is ignored: the simulation
/// is serial, and the parameter stays only for callers that still pass a
/// host worker count.
///
/// # Panics
///
/// Panics if a tenant workload faults, produces inconsistent checksums
/// across requests, or the simulation stalls (no future event while
/// requests remain — a scheduler bug).
pub fn run(
    cfg: &ServeConfig,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    _jobs: usize,
) -> ServeOutcome {
    assert!(cfg.tenants > 0, "need at least one tenant");
    assert!(cfg.compile_workers > 0, "need at least one compiler worker");
    assert!(cfg.slot_cycles > 0, "epochs must advance");

    let specs = all();
    // Build and pre-decode each distinct workload once; tenants share the
    // decoded bodies exactly like the benchmark matrix does.
    let workloads: Vec<Prepared> = specs
        .iter()
        .take(cfg.tenants.min(specs.len()))
        .map(|spec| spec.prepare(cfg.size))
        .collect();

    let chaos = cfg.chaos;
    let tenants: Vec<Tenant> = (0..cfg.tenants)
        .map(|i| {
            let prep = &workloads[i % workloads.len()];
            let base = prep.vm_config(options);
            // Chaos runs harden the adaptive policy: a deliberately tight
            // recompile budget (so GC storms exhaust it and exercise the
            // re-arm path) and retained deopt arguments (so the recovery
            // sweep can recompile stranded methods). Fault-free runs keep
            // the exact legacy configuration.
            let mut adapt = AdaptConfig::default();
            if chaos.is_some() {
                adapt.max_recompiles = faults::ADAPT_MAX_RECOMPILES;
                adapt.rearm_stable_epochs = faults::REARM_STABLE_EPOCHS;
            }
            // A tenant gets a shard of the standalone heap and compiles
            // in the background; the rest is the workload's own config.
            let config = VmConfig {
                heap_bytes: shard_bytes(base.heap_bytes, cfg.heap_shard_div, cfg.heap_floor_bytes),
                async_compile: true,
                retain_deopt_args: chaos.is_some(),
                adapt,
                ..base
            };
            Tenant {
                vm: prep.vm(config, proc, NoopSink),
                prep,
                checksum: None,
                queue: VecDeque::new(),
                free_at: 0,
            }
        })
        .collect();

    let base_requests = traffic::generate(&TrafficConfig {
        tenants: cfg.tenants,
        requests: cfg.requests,
        mean_interarrival: cfg.mean_interarrival,
        seed: cfg.seed,
    });
    // The fault plan spans the base stream's arrival horizon; burst
    // requests take ids after every base id, so base latencies stay
    // directly comparable with a fault-free run's.
    let horizon = base_requests.last().map_or(cfg.slot_cycles, |r| r.arrival);
    let plan = match chaos {
        Some(seed) => faults::generate(seed, cfg.tenants, horizon, cfg.slot_cycles),
        None => FaultPlan::default(),
    };
    let base_len = base_requests.len() as u32;
    let requests = match chaos {
        Some(_) => faults::inject_bursts(&base_requests, &plan),
        None => base_requests,
    };

    let mut fleet = Fleet {
        tenants,
        cache: CodeCache::with_quota(
            cfg.cache_capacity_instrs,
            chaos.map_or(0, |_| faults::TENANT_QUOTA_INSTRS),
        ),
        queue: VecDeque::new(),
        workers: vec![None; cfg.compile_workers],
        out: ServeOutcome {
            latencies: vec![0; requests.len()],
            queue_depth_samples: Vec::new(),
            events: Vec::new(),
            compiles: 0,
            evictions: 0,
            recompiles: 0,
            loop_deopts: 0,
            loop_repatches: 0,
            checksum: 0,
            epochs: 0,
            shed: Vec::new(),
            shed_times: Vec::new(),
            retries: 0,
            rearms: 0,
            faults: 0,
            stranded_final: 0,
            stranded_samples: Vec::new(),
        },
    };

    let mut now = 0u64;
    let mut next_arrival = 0usize; // first not-yet-absorbed request
    let mut completed = 0usize;
    // Windows whose activation has been announced (pointer over the
    // start-sorted schedule).
    let mut next_fault = 0usize;
    while completed < requests.len() {
        fleet.out.epochs += 1;

        // 0. Chaos: announce newly active fault windows, apply the cache
        //    squeeze, and drive GC storms — all serially at the barrier.
        if chaos.is_some() {
            while next_fault < plan.windows.len() && plan.windows[next_fault].start <= now {
                let w = plan.windows[next_fault];
                next_fault += 1;
                fleet.out.faults += 1;
                fleet.out.events.push(TraceEvent::FaultInjected {
                    kind: w.kind,
                    tenant: w.tenant,
                    now,
                    until: w.end,
                });
            }
            let desired = if plan.is_active(FaultKind::CacheSqueeze, now) {
                faults::SQUEEZE_CAPACITY_INSTRS
            } else {
                cfg.cache_capacity_instrs
            };
            if fleet.cache.capacity() != desired {
                let victims = fleet.cache.set_capacity(desired);
                fleet.evict(victims, now);
            }
            if plan.is_active(FaultKind::GcStorm, now) {
                for t in &mut fleet.tenants {
                    t.vm.inject_heap_move();
                }
            }
        }

        // 1. Absorb arrivals up to the barrier into per-tenant queues.
        //    Chaos adds admission control: *surge* (burst-injected)
        //    arrivals beyond the per-tenant depth limit are shed (typed
        //    outcome, excluded from the latency distribution) instead of
        //    queuing unboundedly. Contracted base traffic always queues,
        //    so every shed happens inside a burst window and the
        //    shed-decay recovery invariant holds by construction.
        while next_arrival < requests.len() && requests[next_arrival].arrival <= now {
            let r = requests[next_arrival];
            next_arrival += 1;
            let queue = &mut fleet.tenants[r.tenant as usize].queue;
            let depth = queue.len();
            if chaos.is_some() && r.id >= base_len && depth >= faults::ADMISSION_MAX_DEPTH {
                completed += 1;
                fleet.out.shed.push(r.id);
                fleet.out.shed_times.push(now);
                fleet.out.events.push(TraceEvent::RequestShed {
                    tenant: r.tenant,
                    request: r.id,
                    depth: depth as u32,
                    now,
                });
                continue;
            }
            queue.push_back(r);
        }

        // 2. Complete finished background compiles.
        fleet.complete_compiles(now);

        // 2b. Chaos: jobs that waited past the compile deadline re-enter
        //     the queue with exponential backoff (and count as retries) —
        //     the degradation pairing for compile-stall windows.
        if chaos.is_some() {
            for job in fleet.queue.iter_mut() {
                if job.not_before <= now && now - job.enqueued_at >= faults::COMPILE_DEADLINE_CYCLES
                {
                    job.attempts += 1;
                    job.not_before = now + (faults::RETRY_BACKOFF_BASE << job.attempts.min(10));
                    job.enqueued_at = now;
                    fleet.out.retries += 1;
                    fleet.out.events.push(TraceEvent::CompileRetried {
                        tenant: job.tenant,
                        method: job.method.index() as u32,
                        attempt: job.attempts,
                        now,
                    });
                }
            }
        }

        // 3. Hand waiting jobs to idle compiler workers.
        fleet.assign_workers(now, plan.is_active(FaultKind::CompileStall, now));

        // 4. Dispatch one queued request per idle tenant, in tenant order.
        let mut dispatched: Vec<(usize, Request)> = Vec::new();
        for (ti, t) in fleet.tenants.iter_mut().enumerate() {
            if t.free_at <= now {
                if let Some(r) = t.queue.pop_front() {
                    dispatched.push((ti, r));
                }
            }
        }

        // 5. Execute the dispatched requests, in tenant order.
        let results: Vec<(u64, i32)> = (dispatched.iter())
            .map(|&(ti, _)| {
                let t = &mut fleet.tenants[ti];
                let before = t.vm.stats().cycles;
                let value = t.prep.warm(&mut t.vm, 1);
                (t.vm.stats().cycles - before, value)
            })
            .collect();

        // 6. Barrier: fold results back into shared state, in tenant
        //    order.
        for (&(ti, req), (service, value)) in dispatched.iter().zip(results) {
            let t = &mut fleet.tenants[ti];
            let first = *t.checksum.get_or_insert(value);
            assert_eq!(
                value,
                first,
                "tenant {ti} ({}) diverged between requests",
                t.prep.name()
            );
            let completion = now + service;
            t.free_at = completion;
            fleet.out.latencies[req.id as usize] = completion - req.arrival;
            completed += 1;
            fleet.out.events.push(TraceEvent::RequestCompleted {
                tenant: ti as u32,
                request: req.id,
                latency: completion - req.arrival,
                now,
            });
            fleet.enqueue_requests(ti, now, true);
            if chaos.is_some() {
                for (method, generation) in fleet.tenants[ti].vm.take_rearmed() {
                    fleet.out.rearms += 1;
                    fleet.out.events.push(TraceEvent::GuardRearmed {
                        tenant: ti as u32,
                        method,
                        generation,
                        now,
                    });
                }
            }
            // The tenant just ran: refresh its cache entries' recency and
            // drop entries whose body the VM deopted away on its own.
            fleet.cache.touch_tenant(ti as u32, now);
            let vm = &fleet.tenants[ti].vm;
            let dead: Vec<u32> = fleet
                .cache
                .tenant_entries(ti as u32)
                .filter(|e| !vm.is_compiled(MethodId::new(e.method as usize)))
                .map(|e| e.method)
                .collect();
            for m in dead {
                fleet.cache.remove(ti as u32, m);
            }
        }

        // 6b. Chaos: the recovery sweep.
        if chaos.is_some() {
            fleet.recovery_sweep(now, true);
        }

        // 7. Sample the compilation-queue depth (and, under chaos, the
        //    fleet stranded-method count).
        let depth = fleet.queue_depth();
        fleet.out.queue_depth_samples.push(depth);
        if chaos.is_some() {
            let stranded = fleet.stranded();
            fleet.out.stranded_samples.push(stranded);
        }

        // 8. Advance to the next epoch barrier: at least one slot, or
        //    straight to the next interesting time (rounded up to a slot
        //    multiple) when the fleet is idle. Fault edges are events too
        //    (activation must land on its exact barrier).
        if completed == requests.len() {
            break;
        }
        let mut next_event = fleet.next_compile_event(now);
        if next_arrival < requests.len() {
            next_event = next_event.min(requests[next_arrival].arrival);
        }
        for t in fleet.tenants.iter().filter(|t| !t.queue.is_empty()) {
            next_event = next_event.min(t.free_at);
        }
        if let Some(b) = plan.next_boundary_after(now) {
            next_event = next_event.min(b);
        }
        assert!(
            next_event != u64::MAX,
            "serve simulation stalled at cycle {now} with {} requests outstanding",
            requests.len() - completed
        );
        now = (now + cfg.slot_cycles).max(next_event.next_multiple_of(cfg.slot_cycles));
    }

    // Chaos cooldown: the last request may complete mid-window, leaving
    // methods stranded and compiles queued. Keep running barrier-only
    // epochs — recovery sweep, steps 2 and 3, advance; no requests are
    // left to dispatch, no new fault is announced, no job is retried and
    // enqueues go unannounced — until the sweep has drained every
    // stranded method and the compile queue is empty. This is what makes
    // `stranded_final == 0` a guarantee rather than a race against the
    // traffic tail.
    if chaos.is_some() {
        let mut spins = 0u32;
        loop {
            fleet.recovery_sweep(now, false);
            let stranded = fleet.stranded();
            if stranded == 0 && fleet.queue_depth() == 0 {
                break;
            }
            spins += 1;
            assert!(
                spins < 10_000,
                "chaos cooldown failed to converge: {stranded} stranded, {} queued",
                fleet.queue.len()
            );
            fleet.out.epochs += 1;
            fleet.out.stranded_samples.push(stranded);
            fleet.complete_compiles(now);
            fleet.assign_workers(now, plan.is_active(FaultKind::CompileStall, now));
            let mut next_event = fleet.next_compile_event(now);
            if let Some(b) = plan.next_boundary_after(now) {
                next_event = next_event.min(b);
            }
            now = if next_event == u64::MAX {
                now + cfg.slot_cycles
            } else {
                (now + cfg.slot_cycles).max(next_event.next_multiple_of(cfg.slot_cycles))
            };
        }
    }

    let mut out = fleet.out;
    for t in &fleet.tenants {
        let s = t.vm.stats();
        out.recompiles += s.recompiles;
        out.loop_deopts += s.loop_deopts;
        out.loop_repatches += s.loop_repatches;
        out.stranded_final += t.vm.stranded_count();
        out.checksum = out
            .checksum
            .wrapping_mul(31)
            .wrapping_add(i64::from(t.checksum.unwrap_or(0)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeConfig {
        ServeConfig {
            tenants: 8,
            requests: 40,
            mean_interarrival: 50_000,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_every_request() {
        let cfg = tiny_cfg();
        let opts = PrefetchOptions::inter_intra();
        let out = run(&cfg, &opts, &ProcessorConfig::pentium4(), 1);
        assert_eq!(out.latencies.len(), 40);
        assert!(out.latencies.iter().all(|&l| l > 0));
    }

    #[test]
    fn background_compilation_happens() {
        let cfg = tiny_cfg();
        let out = run(
            &cfg,
            &PrefetchOptions::inter_intra(),
            &ProcessorConfig::pentium4(),
            1,
        );
        assert!(out.compiles > 0, "hot entries must get compiled");
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, TraceEvent::CompileEnqueued { .. })),
            "compiles must pass through the queue"
        );
    }

    #[test]
    fn tiny_cache_forces_evictions() {
        let cfg = ServeConfig {
            cache_capacity_instrs: 64,
            ..tiny_cfg()
        };
        let out = run(
            &cfg,
            &PrefetchOptions::inter_intra(),
            &ProcessorConfig::pentium4(),
            1,
        );
        assert!(out.evictions > 0, "a 64-instr cache cannot hold the fleet");
    }

    #[test]
    fn checksum_is_mode_invariant() {
        let cfg = tiny_cfg();
        let proc = ProcessorConfig::pentium4();
        let off = run(&cfg, &PrefetchOptions::off(), &proc, 1);
        let ada = run(&cfg, &PrefetchOptions::adaptive(), &proc, 1);
        assert_eq!(
            off.checksum, ada.checksum,
            "prefetching must never change results"
        );
        assert_eq!(off.latencies.len(), ada.latencies.len());
    }

    fn chaos_cfg() -> ServeConfig {
        ServeConfig {
            tenants: 8,
            requests: 60,
            mean_interarrival: 50_000,
            chaos: Some(faults::DEFAULT_SEED),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn chaos_injects_faults_and_recovers() {
        let cfg = chaos_cfg();
        let proc = ProcessorConfig::pentium4();
        let fault = run(&cfg, &PrefetchOptions::adaptive(), &proc, 1);
        assert!(fault.faults > 0, "the default mix must schedule windows");
        assert!(
            fault.rearms > 0,
            "the default mix must exhaust and re-arm at least one guard"
        );
        assert_eq!(
            fault.stranded_final, 0,
            "recovery sweep must drain every stranded method"
        );
        assert_eq!(
            fault.latencies.len() as u64,
            u64::from(cfg.requests)
                + fault
                    .events
                    .iter()
                    .filter(|e| matches!(
                        e,
                        TraceEvent::FaultInjected {
                            kind: FaultKind::TrafficBurst,
                            ..
                        }
                    ))
                    .count() as u64
                    * u64::from(faults::BURST_REQUESTS),
            "every burst request is accounted for"
        );
        // The fault-free twin shares the traffic; recovery must hold.
        let nofault = run(
            &ServeConfig { chaos: None, ..cfg },
            &PrefetchOptions::adaptive(),
            &proc,
            1,
        );
        assert_eq!(fault.checksum, nofault.checksum, "faults changed results");
        // Recompute the base traffic and plan exactly as `run` does.
        let base = traffic::generate(&TrafficConfig {
            tenants: cfg.tenants,
            requests: cfg.requests,
            mean_interarrival: cfg.mean_interarrival,
            seed: cfg.seed,
        });
        let horizon = base.last().map_or(cfg.slot_cycles, |r| r.arrival);
        let plan = faults::generate(faults::DEFAULT_SEED, cfg.tenants, horizon, cfg.slot_cycles);
        let report = faults::verify_recovery(&plan, cfg.slot_cycles, &base, &fault, &nofault)
            .expect("recovery invariants must hold");
        assert_eq!(report.stranded_final, 0);
    }

    #[test]
    fn chaos_exercises_degradation_paths() {
        let cfg = ServeConfig {
            tenants: 6,
            requests: 60,
            mean_interarrival: 50_000,
            chaos: Some(faults::DEFAULT_SEED),
            ..ServeConfig::default()
        };
        let out = run(
            &cfg,
            &PrefetchOptions::adaptive(),
            &ProcessorConfig::pentium4(),
            1,
        );
        assert!(
            !out.shed.is_empty(),
            "bursts past the admission depth must shed"
        );
        assert_eq!(out.shed.len(), out.shed_times.len());
        assert!(out.loop_deopts > 0, "GC storms must stale loop guards");
        assert_eq!(out.stranded_final, 0, "and recovery must still drain");
        assert!(
            out.loop_repatches >= out.loop_deopts,
            "every invalidated loop must re-enter through a repatch"
        );
        assert!(
            out.loop_repatches > 0,
            "invalidated loops must recover through tier-2 re-entry"
        );
        assert_eq!(
            out.stranded_samples.last().copied().unwrap_or(1),
            0,
            "the final sample shows the drained fleet"
        );
    }
}
