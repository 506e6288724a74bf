//! The epoch-barrier serving simulation.
//!
//! Hundreds of tenants — each a full mixed-mode [`spf_vm::Vm`] over its
//! own heap shard — serve an open-loop request stream. Time advances in
//! *epochs*: at each epoch barrier one coordinator absorbs arrivals,
//! completes and schedules background compilations, evicts from the shared
//! code cache, and then, in one pass in tenant order, hands each idle
//! tenant one queued request, serves it and folds its result back.
//!
//! Every step runs serially in canonical tenant/worker order, so the
//! simulation is a pure function of [`ServeConfig`] — bit-identical across
//! host machines. That property is what lets CI gate serving latency
//! numbers the way it gates the matrix: `git diff` of a rewritten file.
//!
//! **Tenant twins.** A tenant VM's state is a pure function of its program
//! and the `Step`s applied to it since it was built: requests served,
//! compiles installed, bodies evicted and the chaos steps. So a tenant
//! holds a *history*, not a VM. The fleet interns histories as a tree, one
//! node per distinct `(parent, step)`, and keeps VM states by history,
//! each with the output of the step that reached it. `Fleet::step` is
//! the only code path that changes a tenant: when the step's child state
//! exists the tenant moves to it and reads the stored output; otherwise
//! the step runs on the tenant's own state — in place when no other
//! tenant occupies that state or can still reach it, on a clone
//! otherwise. All tenants of a program start on one state.
//!
//! A state is kept while a tenant occupies it or occupies a proper prefix
//! of its history, found by walking its ancestors up to the program's
//! root. When more states than tenants are kept, the unoccupied state
//! furthest ahead of its nearest occupied ancestor goes first, so the
//! fleet never holds more VMs than a fleet of one VM per tenant. A stored
//! output is what the tenant's own VM would have produced, so no
//! simulated number depends on the sharing.

use std::collections::{HashMap, VecDeque};

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
    /// Number of tenants. Tenant `i` runs workload `i % 12` from the
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
    /// Requests the fleet ran on a VM; every other served request read
    /// the output a tenant with the same history had stored (host-side
    /// statistic: no simulated number depends on it).
    pub simulated: u64,
    /// VM states cloned so that a step could run while other tenants
    /// keep the state it started from (host-side statistic).
    pub clones: u64,
}

/// One step of a tenant VM's history (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Step {
    /// Serve a request: call the workload's entry method once.
    Serve,
    /// Install the pending background compile of a method
    /// ([`Vm::compile_pending`]).
    Install(MethodId),
    /// Evict a method's compiled body ([`Vm::evict_compiled`]).
    Evict(MethodId),
    /// Chaos: a GC storm advances the heap epoch
    /// ([`Vm::inject_heap_move`]).
    HeapMove,
    /// Chaos: re-enqueue the methods with stranded loops
    /// ([`Vm::reenqueue_stranded`]).
    Reenqueue,
}

/// What a step produced besides the VM's next state.
#[derive(Clone, Debug, Default)]
struct Output {
    /// `Serve`: simulated cycles the request took.
    service: u64,
    /// `Serve`: the workload checksum the request returned.
    checksum: i32,
    /// `Serve` and `Reenqueue`: the compile requests the step raised, in
    /// request order, with their costs.
    requests: Vec<(MethodId, u64)>,
    /// `Serve` under chaos: the guard re-arms, `(method, generation)`.
    rearms: Vec<(u32, u32)>,
    /// `Install`: the installed body's instruction count, or `None` when
    /// the request was withdrawn.
    installed: Option<u64>,
}

impl Step {
    /// Applies the step to `vm`, a VM of `prep`'s program. The drains of
    /// what it raised are part of the step, so no state holds undrained
    /// requests or re-arms: a `Serve` or `Reenqueue` drains the compile
    /// requests and a chaos `Serve` the re-arms, exactly where the epoch
    /// loop consumes them.
    fn apply(self, vm: &mut Vm, prep: &Prepared, chaos: bool) -> Output {
        let mut out = Output::default();
        match self {
            Step::Serve => {
                let before = vm.stats().cycles;
                out.checksum = prep.warm(vm, 1);
                out.service = vm.stats().cycles - before;
                if chaos {
                    out.rearms = vm.take_rearmed();
                }
            }
            Step::Install(method) => out.installed = vm.compile_pending(method),
            Step::Evict(method) => {
                vm.evict_compiled(method);
            }
            Step::HeapMove => vm.inject_heap_move(),
            Step::Reenqueue => {
                vm.reenqueue_stranded();
            }
        }
        if matches!(self, Step::Serve | Step::Reenqueue) {
            let requests = vm.take_compile_requests();
            out.requests = (requests.into_iter())
                .map(|mid| (mid, vm.compile_cost_estimate(mid)))
                .collect();
        }
        out
    }
}

/// A kept VM state and the output of the step that reached it.
struct State {
    vm: Vm,
    output: Output,
}

/// A node of the history tree: the history one step shorter, and the
/// number of steps since the VM was built.
#[derive(Clone, Copy)]
struct Node {
    parent: Option<u32>,
    len: u32,
}

/// One tenant: a history plus its request queue and serving clock.
struct Tenant<'w> {
    /// The tenant's history: its VM is the state kept for this node.
    at: u32,
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
    /// The history tree, by node id: the roots are the programs' freshly
    /// built VMs.
    nodes: Vec<Node>,
    /// The child of each `(node, step)` taken so far.
    children: HashMap<(u32, Step), u32>,
    /// The kept state of each node, if any.
    states: Vec<Option<Box<State>>>,
    /// Tenants at each node.
    occupants: Vec<u32>,
    /// The nodes that hold a state, in the order they got it.
    kept: Vec<u32>,
    chaos: bool,
    cache: CodeCache,
    queue: VecDeque<CompileJob>,
    /// `workers[w]` holds the job worker `w` finishes at `finish_at`.
    workers: Vec<Option<(u64, CompileJob)>>,
    out: ServeOutcome,
}

impl Fleet<'_> {
    /// Tenant `ti`'s VM.
    fn vm(&self, ti: usize) -> &Vm {
        let state = self.states[self.tenants[ti].at as usize].as_ref();
        &state.expect("an occupied history keeps its state").vm
    }

    /// Applies `step` to tenant `ti` — the one code path that changes a
    /// tenant — and returns the step's output (see the module docs).
    fn step(&mut self, ti: usize, step: Step) -> Output {
        let from = self.tenants[ti].at;
        let child = match self.children.get(&(from, step)) {
            Some(&child) => child,
            None => {
                let child = self.nodes.len() as u32;
                self.nodes.push(Node {
                    parent: Some(from),
                    len: self.nodes[from as usize].len + 1,
                });
                self.states.push(None);
                self.occupants.push(0);
                self.children.insert((from, step), child);
                child
            }
        };
        if self.states[child as usize].is_none() {
            let parent = self.nodes[from as usize].parent;
            let shared =
                self.occupants[from as usize] > 1 || self.nearest_occupied(parent).is_some();
            let mut vm = if shared {
                self.out.clones += 1;
                self.vm(ti).clone()
            } else {
                self.kept.retain(|&n| n != from);
                let state = self.states[from as usize].take();
                state.expect("an occupied history keeps its state").vm
            };
            let output = step.apply(&mut vm, self.tenants[ti].prep, self.chaos);
            if step == Step::Serve {
                self.out.simulated += 1;
            }
            self.states[child as usize] = Some(Box::new(State { vm, output }));
            self.kept.push(child);
        }
        self.occupants[from as usize] -= 1;
        self.occupants[child as usize] += 1;
        self.tenants[ti].at = child;
        self.retain();
        let state = self.states[child as usize].as_ref();
        state
            .expect("an occupied history keeps its state")
            .output
            .clone()
    }

    /// The nearest history at or above `node` that a tenant occupies;
    /// `None` when no tenant can reach `node` any more.
    fn nearest_occupied(&self, node: Option<u32>) -> Option<u32> {
        let mut at = node;
        while let Some(n) = at {
            if self.occupants[n as usize] > 0 {
                return Some(n);
            }
            at = self.nodes[n as usize].parent;
        }
        None
    }

    /// The retention rule: drops every state no tenant can reach, then,
    /// while more states than tenants are kept, the one furthest ahead of
    /// its nearest occupied ancestor (the newest of equals).
    fn retain(&mut self) {
        let mut kept: Vec<(u32, u32)> = Vec::with_capacity(self.kept.len());
        for &n in &self.kept {
            let len = self.nodes[n as usize].len;
            match self.nearest_occupied(Some(n)) {
                Some(o) => kept.push((n, len - self.nodes[o as usize].len)),
                None => self.states[n as usize] = None,
            }
        }
        while kept.len() > self.tenants.len() {
            let (i, &(n, _)) = (kept.iter().enumerate())
                .max_by_key(|&(i, &(_, d))| (d, i))
                .expect("more states than tenants");
            self.states[n as usize] = None;
            kept.remove(i);
        }
        self.kept = kept.into_iter().map(|(n, _)| n).collect();
    }

    /// Evicts code-cache `victims` from their VMs.
    fn evict(&mut self, victims: Vec<CacheEntry>, now: u64) {
        for victim in victims {
            let method = MethodId::new(victim.method as usize);
            self.step(victim.tenant as usize, Step::Evict(method));
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
            let installed = self.step(job.tenant as usize, Step::Install(job.method));
            let Some(instrs) = installed.installed else {
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

    /// Moves the compile `requests` a step of tenant `ti` raised onto the
    /// shared queue, recording a `CompileEnqueued` event for each when
    /// `announce`.
    fn enqueue_requests(
        &mut self,
        ti: usize,
        requests: Vec<(MethodId, u64)>,
        now: u64,
        announce: bool,
    ) {
        for (method, cost) in requests {
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
    /// and the mechanism that drives the stranded count back to zero. A
    /// tenant with no stranded loop takes no step: re-enqueueing would
    /// raise nothing.
    fn recovery_sweep(&mut self, now: u64, announce: bool) {
        for ti in 0..self.tenants.len() {
            if self.vm(ti).stranded_count() > 0 {
                let requests = self.step(ti, Step::Reenqueue).requests;
                self.enqueue_requests(ti, requests, now, announce);
            }
        }
    }

    /// Loops stranded across the fleet right now.
    fn stranded(&self) -> u64 {
        (0..self.tenants.len())
            .map(|ti| self.vm(ti).stranded_count())
            .sum()
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

/// The open-loop base stream of `cfg` and the fault plan injected into it
/// (empty when `cfg.chaos` is `None`): [`run`] serves exactly these, and
/// [`faults::verify_recovery`] judges a run against them.
///
/// The plan spans the base stream's arrival horizon; burst requests take
/// ids after every base id, so base latencies stay directly comparable
/// with a fault-free run's.
pub fn base_and_plan(cfg: &ServeConfig) -> (Vec<Request>, FaultPlan) {
    let base = traffic::generate(&TrafficConfig {
        tenants: cfg.tenants,
        requests: cfg.requests,
        mean_interarrival: cfg.mean_interarrival,
        seed: cfg.seed,
    });
    let horizon = base.last().map_or(cfg.slot_cycles, |r| r.arrival);
    let plan = cfg.chaos.map_or_else(FaultPlan::default, |seed| {
        faults::generate(seed, cfg.tenants, horizon, cfg.slot_cycles)
    });
    (base, plan)
}

/// Runs the serving simulation: `cfg.requests` requests over
/// `cfg.tenants` tenants under `options`. `_jobs` is ignored: the
/// simulation is serial, and the parameter stays only for callers that
/// still pass a host worker count.
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
    let workloads = prepare(cfg);
    serve(cfg, options, proc, &workloads).outcome()
}

/// Builds and pre-decodes each distinct workload of `cfg`'s fleet once;
/// its VMs share the decoded bodies exactly like the benchmark matrix
/// does.
fn prepare(cfg: &ServeConfig) -> Vec<Prepared> {
    let specs = all();
    specs
        .iter()
        .take(cfg.tenants.min(specs.len()))
        .map(|spec| spec.prepare(cfg.size))
        .collect()
}

/// A freshly built tenant VM of `prep` under `options`.
fn tenant_vm(
    cfg: &ServeConfig,
    prep: &Prepared,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
) -> Vm {
    let chaos = cfg.chaos.is_some();
    let base = prep.vm_config(options);
    // Chaos runs harden the adaptive policy: a deliberately tight
    // recompile budget (so GC storms exhaust it and exercise the re-arm
    // path) and retained deopt arguments (so the recovery sweep can
    // recompile stranded methods). Fault-free runs keep the exact legacy
    // configuration.
    let mut adapt = AdaptConfig::default();
    if chaos {
        adapt.max_recompiles = faults::ADAPT_MAX_RECOMPILES;
        adapt.rearm_stable_epochs = faults::REARM_STABLE_EPOCHS;
    }
    // A tenant gets a shard of the standalone heap and compiles in the
    // background; the rest is the workload's own config.
    let config = VmConfig {
        heap_bytes: shard_bytes(base.heap_bytes, cfg.heap_shard_div, cfg.heap_floor_bytes),
        async_compile: true,
        retain_deopt_args: chaos,
        adapt,
        ..base
    };
    prep.vm(config, proc, NoopSink)
}

/// Serves `cfg`'s stream on a fleet of `workloads` and returns the fleet
/// as the run left it.
fn serve<'w>(
    cfg: &ServeConfig,
    options: &PrefetchOptions,
    proc: &ProcessorConfig,
    workloads: &'w [Prepared],
) -> Fleet<'w> {
    assert!(cfg.tenants > 0, "need at least one tenant");
    assert!(cfg.compile_workers > 0, "need at least one compiler worker");
    assert!(cfg.slot_cycles > 0, "epochs must advance");

    let chaos = cfg.chaos;
    // Node `p` is program `p`'s freshly built VM, where all its tenants
    // start.
    let tenants: Vec<Tenant> = (0..cfg.tenants)
        .map(|i| Tenant {
            at: (i % workloads.len()) as u32,
            prep: &workloads[i % workloads.len()],
            checksum: None,
            queue: VecDeque::new(),
            free_at: 0,
        })
        .collect();
    let mut occupants = vec![0; workloads.len()];
    for t in &tenants {
        occupants[t.at as usize] += 1;
    }

    let (base_requests, plan) = base_and_plan(cfg);
    let base_len = base_requests.len() as u32;
    let requests = match chaos {
        Some(_) => faults::inject_bursts(&base_requests, &plan),
        None => base_requests,
    };

    let mut fleet = Fleet {
        tenants,
        nodes: vec![
            Node {
                parent: None,
                len: 0,
            };
            workloads.len()
        ],
        children: HashMap::new(),
        states: (workloads.iter())
            .map(|prep| {
                let vm = tenant_vm(cfg, prep, options, proc);
                let output = Output::default();
                Some(Box::new(State { vm, output }))
            })
            .collect(),
        occupants,
        kept: (0..workloads.len() as u32).collect(),
        chaos: chaos.is_some(),
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
            simulated: 0,
            clones: 0,
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
                for ti in 0..fleet.tenants.len() {
                    fleet.step(ti, Step::HeapMove);
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

        // 4. Dispatch one queued request to each idle tenant, serve it and
        //    fold its result back into shared state, in tenant order.
        for ti in 0..fleet.tenants.len() {
            if fleet.tenants[ti].free_at > now {
                continue;
            }
            let Some(req) = fleet.tenants[ti].queue.pop_front() else {
                continue;
            };
            let served = fleet.step(ti, Step::Serve);
            let t = &mut fleet.tenants[ti];
            let first = *t.checksum.get_or_insert(served.checksum);
            assert_eq!(
                served.checksum,
                first,
                "tenant {ti} ({}) diverged between requests",
                t.prep.name()
            );
            let completion = now + served.service;
            t.free_at = completion;
            fleet.out.latencies[req.id as usize] = completion - req.arrival;
            completed += 1;
            fleet.out.events.push(TraceEvent::RequestCompleted {
                tenant: ti as u32,
                request: req.id,
                latency: completion - req.arrival,
                now,
            });
            fleet.enqueue_requests(ti, served.requests, now, true);
            for (method, generation) in served.rearms {
                fleet.out.rearms += 1;
                fleet.out.events.push(TraceEvent::GuardRearmed {
                    tenant: ti as u32,
                    method,
                    generation,
                    now,
                });
            }
            // The tenant just ran: refresh its cache entries' recency.
            fleet.cache.touch_tenant(ti as u32, now);
        }

        // 4b. Chaos: the recovery sweep.
        if chaos.is_some() {
            fleet.recovery_sweep(now, true);
        }

        // 5. Sample the compilation-queue depth (and, under chaos, the
        //    fleet stranded-method count).
        let depth = fleet.queue_depth();
        fleet.out.queue_depth_samples.push(depth);
        if chaos.is_some() {
            let stranded = fleet.stranded();
            fleet.out.stranded_samples.push(stranded);
        }

        // 6. Advance to the next epoch barrier: at least one slot, or
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

    fleet
}

impl Fleet<'_> {
    /// The run's outcome: the fleet's record plus what each tenant's VM
    /// holds at the end.
    fn outcome(self) -> ServeOutcome {
        let (mut recompiles, mut loop_deopts, mut loop_repatches) = (0, 0, 0);
        let (mut stranded_final, mut checksum) = (0, 0i64);
        for (ti, t) in self.tenants.iter().enumerate() {
            let vm = self.vm(ti);
            let s = vm.stats();
            recompiles += s.recompiles;
            loop_deopts += s.loop_deopts;
            loop_repatches += s.loop_repatches;
            stranded_final += vm.stranded_count();
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(i64::from(t.checksum.unwrap_or(0)));
        }
        ServeOutcome {
            recompiles,
            loop_deopts,
            loop_repatches,
            stranded_final,
            checksum,
            ..self.out
        }
    }
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

    /// Serves `cfg` under ADAPTIVE, then replays each tenant's history
    /// step by step on a freshly built VM of its own: it must reach the
    /// VM the fleet holds for the tenant, and the tenant's checksum.
    /// Returns the requests served and the `Serve` steps simulated.
    fn replay_every_tenant(cfg: &ServeConfig) -> (u64, u64) {
        let (options, proc) = (PrefetchOptions::adaptive(), ProcessorConfig::pentium4());
        let workloads = prepare(cfg);
        let fleet = serve(cfg, &options, &proc, &workloads);
        let parent: HashMap<u32, (u32, Step)> = (fleet.children.iter())
            .map(|(&(from, step), &child)| (child, (from, step)))
            .collect();
        for (ti, t) in fleet.tenants.iter().enumerate() {
            let mut steps = Vec::new();
            let mut at = t.at;
            while let Some(&(from, step)) = parent.get(&at) {
                steps.push(step);
                at = from;
            }
            assert_eq!(at as usize, ti % workloads.len(), "tenant {ti}'s root");
            let mut vm = tenant_vm(cfg, t.prep, &options, &proc);
            let mut checksum = None;
            for &step in steps.iter().rev() {
                let output = step.apply(&mut vm, t.prep, fleet.chaos);
                if step == Step::Serve {
                    checksum = Some(output.checksum);
                }
            }
            let held = fleet.vm(ti);
            assert_eq!(
                vm.stats().simulated(),
                held.stats().simulated(),
                "tenant {ti}: VmStats after {} steps",
                steps.len()
            );
            assert_eq!(vm.mem_stats(), held.mem_stats(), "tenant {ti}: MemStats");
            assert_eq!(checksum, t.checksum, "tenant {ti}: checksum");
        }
        // Every compiled body is in the code cache and every entry is a
        // compiled body: no VM drops a body the cache did not evict.
        let compiled: usize = (0..fleet.tenants.len())
            .map(|ti| {
                let vm = fleet.vm(ti);
                let methods = vm.program().method_ids();
                methods.filter(|&m| vm.is_compiled(m)).count()
            })
            .sum();
        assert_eq!(fleet.cache.len(), compiled, "code-cache entries");
        let out = fleet.outcome();
        let served = out.latencies.iter().filter(|&&l| l > 0).count() as u64;
        (served, out.simulated)
    }

    /// A fleet of 36 tenants, three per program.
    fn shared_cfg() -> ServeConfig {
        ServeConfig {
            tenants: 36,
            requests: 120,
            mean_interarrival: 50_000,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn tenant_twins_replay_on_fresh_vms() {
        let (served, simulated) = replay_every_tenant(&shared_cfg());
        // Pinned, so that a change that silently stops sharing fails.
        assert_eq!((served, simulated), (120, 72));
    }

    #[test]
    fn tenant_twins_replay_on_fresh_vms_under_chaos() {
        let cfg = ServeConfig {
            chaos: Some(faults::DEFAULT_SEED),
            ..shared_cfg()
        };
        let (served, simulated) = replay_every_tenant(&cfg);
        assert_eq!((served, simulated), (128, 111));
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
        let (base, plan) = base_and_plan(&cfg);
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
