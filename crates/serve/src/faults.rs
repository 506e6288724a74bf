//! Deterministic fault injection for the serving simulation.
//!
//! Chaos testing usually trades reproducibility for realism: faults fire
//! from timers and the run that exposed a bug can never be replayed. This
//! module keeps the realism and discards the non-determinism. A
//! [`FaultPlan`] is generated up front from a seeded [`spf_testkit::Rng`]
//! as a set of [`FaultWindow`]s aligned to epoch-barrier boundaries, so an
//! injected fault lands at exactly the same simulated cycle on every
//! host — chaos runs are `cmp`-gated in CI just like fault-free ones.
//!
//! The seed is the one setting; the fault mix is this module's constants
//! (`GC_STORMS`, `COMPILE_STALLS`, `CACHE_SQUEEZES` and `TRAFFIC_BURSTS`
//! windows, `BURST_REQUESTS` per burst). Four fault kinds, each paired
//! with a degradation mechanism in [`crate::sim`]:
//!
//! * **GC storm** — every tenant's heap is forced through a move epoch at
//!   each barrier inside the window, mass-staling adaptive guards. Paired
//!   with spf-adapt's re-armable budgets and the recovery sweep
//!   ([`spf_vm::Vm::reenqueue_stranded`]), which recompiles stranded
//!   methods from their retained deopt arguments.
//! * **Compile stall** — the background compiler workers stop picking up
//!   jobs (in-flight compiles still finish). Paired with compile-request
//!   deadlines: a job waiting past `COMPILE_DEADLINE_CYCLES` re-enters
//!   the queue with exponential backoff instead of wedging the FIFO.
//! * **Cache squeeze** — the shared code cache shrinks mid-run to
//!   `SQUEEZE_CAPACITY_INSTRS`, evicting down to the new
//!   capacity; per-tenant quotas keep one tenant from monopolizing what
//!   is left.
//! * **Traffic burst** — extra requests for one tenant inside the window.
//!   Paired with queue-depth admission control: *surge* arrivals beyond
//!   `ADMISSION_MAX_DEPTH` are shed with a typed
//!   [`spf_trace::TraceEvent::RequestShed`] outcome instead of growing
//!   the tail unboundedly. Contracted base traffic is never shed — it
//!   queues behind whatever surge was admitted — so sheds stop the
//!   instant the burst window closes.
//!
//! [`verify_recovery`] closes the loop: after the last window (plus a
//! grace period) the stranded-method count must be zero, sheds must have
//! stopped, and the p99 of post-recovery requests must be within a fixed
//! bound of the same requests' p99 in the fault-free run.

use spf_testkit::Rng;
use spf_trace::FaultKind;

use crate::sim::ServeOutcome;
use crate::traffic::Request;

/// Fault-plan seed of `spf-serve --chaos` (`--chaos-seed` picks another).
pub const DEFAULT_SEED: u64 = 0xC4A0_5C4A;

/// GC-storm windows per plan.
pub(crate) const GC_STORMS: u32 = 3;

/// Compile-stall windows per plan.
pub(crate) const COMPILE_STALLS: u32 = 1;

/// Cache-squeeze windows per plan.
pub(crate) const CACHE_SQUEEZES: u32 = 1;

/// Per-tenant traffic-burst windows per plan.
pub(crate) const TRAFFIC_BURSTS: u32 = 2;

/// Extra requests injected per burst window.
pub(crate) const BURST_REQUESTS: u32 = 30;

/// A compile job waiting longer than this re-enters the queue with
/// backoff (and counts as a retry).
pub(crate) const COMPILE_DEADLINE_CYCLES: u64 = 400_000;

/// Surge (burst-injected) arrivals beyond this per-tenant queue depth are
/// shed; base traffic always queues.
pub(crate) const ADMISSION_MAX_DEPTH: usize = 4;

/// One scheduled fault: `kind` is active on cycles `start <= now < end`.
/// Both bounds are epoch-slot multiples, so activation and deactivation
/// land exactly on barriers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FaultWindow {
    /// First active cycle (slot multiple).
    pub start: u64,
    /// First cycle past the window (slot multiple).
    pub end: u64,
    /// What breaks.
    pub kind: FaultKind,
    /// Target tenant for per-tenant kinds; `u32::MAX` means fleet-wide.
    pub tenant: u32,
}

/// The full schedule, sorted by `(start, end, kind, tenant)`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// Scheduled windows, sorted.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Whether any window of `kind` is active at `now`.
    pub fn is_active(&self, kind: FaultKind, now: u64) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == kind && w.start <= now && now < w.end)
    }

    /// The windows of `kind`, in schedule order.
    pub fn of_kind(&self, kind: FaultKind) -> impl Iterator<Item = &FaultWindow> {
        self.windows.iter().filter(move |w| w.kind == kind)
    }

    /// The earliest window boundary (start or end) strictly after `now`,
    /// if any — the simulation folds this into its next-event time so no
    /// barrier skips an activation edge.
    pub fn next_boundary_after(&self, now: u64) -> Option<u64> {
        self.windows
            .iter()
            .flat_map(|w| [w.start, w.end])
            .filter(|&b| b > now)
            .min()
    }

    /// End of the last window (0 for an empty plan): the earliest cycle
    /// at which recovery can begin.
    pub fn last_end(&self) -> u64 {
        self.windows.iter().map(|w| w.end).max().unwrap_or(0)
    }
}

/// Generates the fault schedule of plan `seed` for a run expected to span
/// `horizon` cycles with `slot`-cycle epochs. Pure function of its inputs:
/// same seed, same plan. Windows of the same `(kind, tenant)` never overlap
/// (a window that cannot be placed after 16 draws is dropped); windows
/// start no later than ~70% of the horizon so recovery has room.
pub fn generate(seed: u64, tenants: usize, horizon: u64, slot: u64) -> FaultPlan {
    assert!(slot > 0, "fault windows need a slot grid");
    assert!(tenants > 0, "fault plans need at least one tenant");
    let mut rng = Rng::new(seed);
    let max_start_slot = ((horizon * 7 / 10) / slot).max(1);
    let mut windows: Vec<FaultWindow> = Vec::new();
    let mut place = |rng: &mut Rng, kind: FaultKind, count: u32, per_tenant: bool| {
        for _ in 0..count {
            for _attempt in 0..16 {
                let start_slot = rng.u64_in(1, max_start_slot);
                let dur_slots = rng.u64_in(2, 6);
                let tenant = if per_tenant {
                    rng.index(tenants) as u32
                } else {
                    u32::MAX
                };
                let w = FaultWindow {
                    start: start_slot * slot,
                    end: (start_slot + dur_slots) * slot,
                    kind,
                    tenant,
                };
                let clashes = windows.iter().any(|o| {
                    o.kind == w.kind && o.tenant == w.tenant && o.start < w.end && w.start < o.end
                });
                if !clashes {
                    windows.push(w);
                    break;
                }
            }
        }
    };
    place(&mut rng, FaultKind::GcStorm, GC_STORMS, false);
    place(&mut rng, FaultKind::CompileStall, COMPILE_STALLS, false);
    place(&mut rng, FaultKind::CacheSqueeze, CACHE_SQUEEZES, false);
    place(&mut rng, FaultKind::TrafficBurst, TRAFFIC_BURSTS, true);
    windows.sort_by_key(|w| (w.start, w.end, w.kind, w.tenant));
    FaultPlan { windows }
}

/// Injects the plan's traffic bursts into a base request stream. The
/// `BURST_REQUESTS` of a burst are spread evenly over its window, target
/// the window's tenant, and take ids *after* every base id — so base
/// request `i` keeps id `i` and its latency stays directly comparable with
/// the fault-free run's. The result is sorted by `(arrival, id)` as the
/// simulation requires.
pub fn inject_bursts(base: &[Request], plan: &FaultPlan) -> Vec<Request> {
    let mut out = base.to_vec();
    let mut next_id = base.len() as u32;
    for w in plan.of_kind(FaultKind::TrafficBurst) {
        let gap = ((w.end - w.start) / u64::from(BURST_REQUESTS)).max(1);
        let mut arrival = w.start;
        for _ in 0..BURST_REQUESTS {
            if arrival >= w.end {
                break;
            }
            out.push(Request {
                id: next_id,
                tenant: w.tenant,
                arrival,
            });
            next_id += 1;
            arrival += gap;
        }
    }
    out.sort_by_key(|r| (r.arrival, r.id));
    out
}

/// Code-cache capacity, in instructions, while a squeeze window is active.
pub(crate) const SQUEEZE_CAPACITY_INSTRS: u64 = 1_024;

/// Base delay of a compile job's deadline retry; doubles per attempt
/// (`base << attempts`).
pub(crate) const RETRY_BACKOFF_BASE: u64 = 50_000;

/// Per-tenant code-cache quota of a chaos run, in instructions.
pub(crate) const TENANT_QUOTA_INSTRS: u64 = 2_048;

/// [`spf_adapt::AdaptConfig::rearm_stable_epochs`] of every chaos tenant:
/// disarmed guards re-arm after this many stable GC epochs.
pub(crate) const REARM_STABLE_EPOCHS: u64 = 2;

/// [`spf_adapt::AdaptConfig::max_recompiles`] of every chaos tenant: low,
/// so GC storms actually exhaust budgets and the re-arm path is
/// exercised, not just available.
pub(crate) const ADAPT_MAX_RECOMPILES: u32 = 1;

/// Grace period after the last fault window, in epoch slots, before the
/// recovery invariants must hold.
pub(crate) const RECOVERY_GRACE_SLOTS: u64 = 40;

/// Upper bound on post-recovery p99 as a ratio of the fault-free run's
/// p99, in milli (2000 = 2.0×). The absolute slack of a few epoch slots
/// in [`verify_recovery`] covers tiny-denominator cases.
pub const RECOVERY_P99_RATIO_MILLI: u64 = 2_000;

/// What [`verify_recovery`] measured while checking the invariants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// Loops still stranded (invalidated, never repatched) at run end.
    pub stranded_final: u64,
    /// Requests shed over the whole run.
    pub shed: u64,
    /// Cycle at which recovery must hold: last window end plus grace.
    pub recovery_at: u64,
    /// Base requests arriving at or after `recovery_at`.
    pub post_requests: u64,
    /// Their p99 latency in the fault run.
    pub post_p99_fault: u64,
    /// Their p99 latency in the fault-free run.
    pub post_p99_nofault: u64,
    /// `post_p99_fault * 1000 / post_p99_nofault` (0 when no post-window
    /// requests exist).
    pub post_p99_ratio_milli: u64,
}

/// Checks the recovery invariants of a fault run against its fault-free
/// twin: stranded loops drained to zero, no sheds after the recovery
/// point, and post-recovery p99 within [`RECOVERY_P99_RATIO_MILLI`] (plus
/// four slots of absolute slack) of the fault-free run. `base` is the
/// *uninjected* request stream — ids below `base.len()` mean the same
/// request in both outcomes.
///
/// # Errors
///
/// Returns a message describing the first violated invariant.
pub fn verify_recovery(
    plan: &FaultPlan,
    slot: u64,
    base: &[Request],
    fault: &ServeOutcome,
    nofault: &ServeOutcome,
) -> Result<RecoveryReport, String> {
    let recovery_at = plan.last_end() + RECOVERY_GRACE_SLOTS * slot;
    let mut report = RecoveryReport {
        stranded_final: fault.stranded_final,
        shed: fault.shed.len() as u64,
        recovery_at,
        post_requests: 0,
        post_p99_fault: 0,
        post_p99_nofault: 0,
        post_p99_ratio_milli: 0,
    };
    if fault.stranded_final != 0 {
        return Err(format!(
            "{} loops still stranded (invalidated, never repatched) at run end",
            fault.stranded_final
        ));
    }
    if let Some(&last) = fault.shed_times.iter().max() {
        if last >= recovery_at {
            return Err(format!(
                "request shed at cycle {last}, at or after the recovery point {recovery_at}"
            ));
        }
    }
    // Post-recovery p99, over base requests both runs served.
    let shed: std::collections::HashSet<u32> = fault.shed.iter().copied().collect();
    let mut fl: Vec<u64> = Vec::new();
    let mut nl: Vec<u64> = Vec::new();
    for r in base {
        if r.arrival >= recovery_at && !shed.contains(&r.id) {
            fl.push(fault.latencies[r.id as usize]);
            nl.push(nofault.latencies[r.id as usize]);
        }
    }
    report.post_requests = fl.len() as u64;
    if !fl.is_empty() {
        fl.sort_unstable();
        nl.sort_unstable();
        report.post_p99_fault = crate::report::percentile(&fl, 99, 100);
        report.post_p99_nofault = crate::report::percentile(&nl, 99, 100);
        report.post_p99_ratio_milli = report.post_p99_fault * 1000 / report.post_p99_nofault.max(1);
        let bound = report.post_p99_nofault * RECOVERY_P99_RATIO_MILLI / 1000 + 4 * slot;
        if report.post_p99_fault > bound {
            return Err(format!(
                "post-recovery p99 {} exceeds bound {bound} (fault-free p99 {})",
                report.post_p99_fault, report.post_p99_nofault
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_testkit::cases;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        cases(64, "fault plan determinism", |r| {
            let seed = r.u64();
            let tenants = r.usize_in(1, 200);
            let horizon = r.u64_in(10, 2_000) * 1_000;
            let slot = r.u64_in(1, 20) * 500;
            let a = generate(seed, tenants, horizon, slot);
            let b = generate(seed, tenants, horizon, slot);
            assert_eq!(a, b, "same inputs must yield the same plan");
            for w in windows_pairs(&a) {
                assert!(
                    (w.0.start, w.0.end, w.0.kind, w.0.tenant)
                        <= (w.1.start, w.1.end, w.1.kind, w.1.tenant),
                    "schedule must be sorted"
                );
            }
        });
    }

    fn windows_pairs(p: &FaultPlan) -> impl Iterator<Item = (&FaultWindow, &FaultWindow)> {
        p.windows.windows(2).map(|w| (&w[0], &w[1]))
    }

    #[test]
    fn windows_are_slot_aligned_and_disjoint_per_kind_and_tenant() {
        cases(64, "fault plan shape", |r| {
            let seed = r.u64();
            let tenants = r.usize_in(1, 100);
            let horizon = r.u64_in(10, 5_000) * 1_000;
            let slot = r.u64_in(1, 10) * 1_000;
            let plan = generate(seed, tenants, horizon, slot);
            for w in &plan.windows {
                assert_eq!(w.start % slot, 0, "start off the slot grid");
                assert_eq!(w.end % slot, 0, "end off the slot grid");
                assert!(w.start < w.end, "empty window");
            }
            for (i, a) in plan.windows.iter().enumerate() {
                for b in &plan.windows[i + 1..] {
                    if a.kind == b.kind && a.tenant == b.tenant {
                        assert!(
                            a.end <= b.start || b.end <= a.start,
                            "overlap: {a:?} vs {b:?}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn bursts_preserve_base_ids_and_sortedness() {
        cases(32, "burst injection", |r| {
            let seed = r.u64();
            let tenants = r.usize_in(1, 30);
            let base = crate::traffic::generate(&crate::traffic::TrafficConfig {
                tenants,
                requests: r.u64_in(1, 200) as u32,
                mean_interarrival: 10_000,
                seed: r.u64(),
            });
            let horizon = r.u64_in(10, 4_000) * 1_000;
            let slot = r.u64_in(1, 20) * 5_000;
            let plan = generate(seed, tenants, horizon, slot);
            let all = inject_bursts(&base, &plan);
            // Every placed burst window adds its full complement.
            let bursts = plan.of_kind(FaultKind::TrafficBurst).count();
            assert!(bursts >= 1, "the first burst window never clashes");
            assert_eq!(all.len(), base.len() + bursts * BURST_REQUESTS as usize);
            // Base requests survive untouched (same id, tenant, arrival).
            for b in &base {
                assert!(all.contains(b), "base request lost: {b:?}");
            }
            // Ids are unique and burst ids all follow the base range.
            let mut ids: Vec<u32> = all.iter().map(|q| q.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), all.len(), "duplicate ids");
            for q in &all {
                if q.id as usize >= base.len() {
                    assert!((q.tenant as usize) < tenants);
                }
            }
            for w in all.windows(2) {
                assert!(
                    (w[0].arrival, w[0].id) < (w[1].arrival, w[1].id),
                    "stream must stay sorted"
                );
            }
        });
    }

    #[test]
    fn next_boundary_walks_every_edge() {
        let plan = generate(DEFAULT_SEED, 10, 5_000_000, 100_000);
        assert!(!plan.windows.is_empty());
        let mut now = 0;
        let mut seen = 0;
        while let Some(b) = plan.next_boundary_after(now) {
            assert!(b > now);
            now = b;
            seen += 1;
        }
        assert_eq!(now, plan.last_end());
        assert!(seen >= plan.windows.len(), "every window has two edges");
    }
}
