//! The simulated clock is a pure function of the program: no value read
//! from the host's clock reaches `stats.cycles`, `jit_cycles` or the `now`
//! of any event, nor Figure 11's prefetch-pass share. Host time survives
//! only in `jit_nanos` / `prefetch_pass_nanos`.

use std::time::Duration;

use stride_prefetch::bench::{run_workload_traced, RunPlan};
use stride_prefetch::memsim::{MemStats, ProcessorConfig};
use stride_prefetch::prefetch::PrefetchOptions;
use stride_prefetch::trace::{RingSink, TraceEvent, TraceSink};
use stride_prefetch::vm::VmStats;
use stride_prefetch::workloads::{Size, WorkloadSpec};

/// A ring that makes every JIT compilation take `delay` longer on the
/// host: `JitBegin` is emitted inside the compile's timed window.
struct SlowJit {
    ring: RingSink,
    delay: Duration,
}

impl TraceSink for SlowJit {
    const ENABLED: bool = true;

    fn emit(&mut self, event: TraceEvent) {
        if matches!(event, TraceEvent::JitBegin { .. }) {
            std::thread::sleep(self.delay);
        }
        self.ring.emit(event);
    }

    fn clear(&mut self) {
        self.ring.clear();
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.snapshot()
    }

    fn lost(&self) -> u64 {
        self.ring.lost()
    }
}

/// Euler under ADAPTIVE invalidates and repatches loops during warm-up,
/// so its event stream carries `now` stamps taken after JIT charges.
fn euler() -> WorkloadSpec {
    stride_prefetch::workloads::all()
        .into_iter()
        .find(|s| s.name == "Euler")
        .expect("Euler workload exists")
}

/// Asserts two event streams equal, naming the first difference only (a
/// failing `assert_eq!` on whole streams prints megabytes).
fn assert_same_events(a: &[TraceEvent], b: &[TraceEvent]) {
    let diff = a.iter().zip(b).position(|(x, y)| x != y);
    assert_eq!(diff.map(|i| (i, a[i], b[i])), None, "first differing event");
    assert_eq!(a.len(), b.len());
}

/// Two warm-up calls of Euler / ADAPTIVE / Pentium 4 with every compile
/// slowed by `delay`.
fn warm_up(delay: Duration) -> (VmStats, MemStats, Vec<TraceEvent>) {
    let euler = euler().prepare(Size::Tiny);
    let sink = SlowJit {
        ring: RingSink::default(),
        delay,
    };
    let config = euler.vm_config(&PrefetchOptions::adaptive());
    let mut vm = euler.vm(config, &ProcessorConfig::pentium4(), sink);
    euler.warm(&mut vm, 2);
    assert_eq!(vm.sink().lost(), 0, "the ring holds a tiny warm-up");
    (vm.stats().clone(), *vm.mem_stats(), vm.sink().snapshot())
}

#[test]
fn a_slowed_pipeline_changes_only_the_host_time_fields() {
    let delay = Duration::from_millis(2);
    let (fast, fast_mem, fast_events) = warm_up(Duration::ZERO);
    let (slow, slow_mem, slow_events) = warm_up(delay);
    assert!(fast.methods_compiled > 0 && fast.jit_cycles > 0);
    assert!(
        slow.jit_nanos >= delay.as_nanos() * u128::from(slow.methods_compiled),
        "the slowdown must land inside the JIT's timed window"
    );
    assert_eq!(fast.simulated(), slow.simulated());
    // Figure 11(a) is read from the cost model, not the host clock.
    assert!(fast.prefetch_pass_fraction() > 0.0);
    assert_eq!(fast.prefetch_pass_fraction(), slow.prefetch_pass_fraction());
    assert_eq!(fast_mem, slow_mem);
    assert!(
        fast_events
            .iter()
            .any(|e| matches!(e, TraceEvent::LoopInvalidated { .. })),
        "the stream must carry a `now` stamped after a JIT charge"
    );
    assert_same_events(&fast_events, &slow_events);
}

#[test]
fn back_to_back_traced_runs_agree_on_events_and_jit_fraction() {
    let plan = RunPlan {
        size: Size::Tiny,
        ..RunPlan::default()
    };
    let run = || {
        run_workload_traced(
            &euler(),
            &PrefetchOptions::adaptive(),
            &ProcessorConfig::pentium4(),
            &plan,
        )
    };
    let (a, ta) = run();
    let (b, tb) = run();
    assert_eq!(ta.warm_lost, 0);
    assert_same_events(&ta.compile_events, &tb.compile_events);
    assert!(a.jit_fraction > 0.0);
    assert_eq!(a.jit_fraction, b.jit_fraction);
    assert_eq!(a.simulated_diff(&b), Vec::<String>::new());
}
