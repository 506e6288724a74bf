//! Adaptive reprofiling: deciding *when* the strides learned by one-shot
//! object inspection stop being trustworthy, and *whether* re-inspecting
//! is still worth it.
//!
//! The paper compiles prefetches from a single inspection at JIT time and
//! trusts them forever. That is sound only while the heap keeps the shape
//! the inspector saw: a sliding compaction can change inter-object
//! distances, and later program phases can walk the same loop over
//! differently laid-out data. This crate holds the policy half of the
//! adaptive loop; the mechanism (per-loop site patching, re-inspection,
//! repatching) lives in `spf-vm`.
//!
//! Staleness belongs to *loops*, not methods: the strides the inspector
//! learned are per-loop facts, so when they rot only that loop's prefetch
//! sites need to go. Every compiled method gets a [`MethodGuard`] holding
//! one loop guard per loop that owns prefetch sites (plus a
//! straight-line pseudo-loop, [`NO_LOOP`]); each loop guard stamps the GC
//! epoch at compile time and counts useless-prefetch issues attributed to
//! the sites it owns:
//!
//! * [`AdaptState::check_stale`] turns those observations into the *set*
//!   of stale loops, each with a [`StaleReason`]: the epoch moved, or the
//!   loop's useless ratio crossed the threshold after enough samples. The
//!   VM then patches only those loops' sites to no-ops — the rest of the
//!   compiled body keeps executing;
//! * a bounded repatch budget and exponential backoff *per loop*
//!   ([`AdaptState::on_patch`] / [`AdaptState::loops_due`]) prevent a
//!   loop whose heap churns every run from oscillating between
//!   invalidation and repatch forever — once a loop's budget is spent its
//!   guard disarms and the loop keeps running unprefetched.
//!
//! The state machine is deterministic and lives entirely on simulated
//! counters (GC epochs, invocation counts, issue counts), so adaptive
//! runs are bit-identical across hosts and across traced/untraced
//! execution.

use std::collections::BTreeMap;

use spf_trace::StaleReason;

/// The pseudo-loop header owning prefetch sites that sit outside every
/// loop (straight-line code).
pub const NO_LOOP: u32 = u32::MAX;

/// A loop is stale when `useless / issued` exceeds this fraction (with at
/// least [`MIN_ISSUES`] issues observed).
pub const USELESS_THRESHOLD: f64 = 0.5;

/// Minimum prefetch issues before a loop's useless ratio is trusted.
pub const MIN_ISSUES: u64 = 64;

/// Invocations to wait before the first repatch after an invalidation;
/// doubles with every repatch already used (exponential backoff).
pub const BACKOFF_BASE: u64 = 2;

/// The knobs of the adaptive-reprofiling policy that chaos runs harden;
/// the rest of the policy is the constants above.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Total adaptive repatches allowed per loop; once spent, that loop's
    /// guard disarms and its current (patched or live) state is kept.
    pub max_recompiles: u32,
    /// Re-arm horizon in GC epochs; 0 disables re-arming (disarmed loop
    /// guards stay disarmed forever). When non-zero:
    ///
    /// * a loop guard whose budget disarmed it regains **one** repatch
    ///   credit once the GC epoch has advanced this far past the disarm
    ///   point, and resumes staleness checking;
    /// * an invalidated loop's invocation backoff is waived once the
    ///   epoch has advanced this far past the invalidation — the heap
    ///   churned on, so the verdict that triggered the backoff is moot
    ///   and the loop may be repatched early.
    pub rearm_stable_epochs: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            max_recompiles: 4,
            rearm_stable_epochs: 0,
        }
    }
}

/// One stale-loop verdict from [`AdaptState::check_stale`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StaleLoop {
    /// The stale loop's header block index (or [`NO_LOOP`]).
    pub header: u32,
    /// The loop generation that went stale.
    pub generation: u32,
    /// Why.
    pub reason: StaleReason,
}

/// Guard state of one loop of a compiled method.
#[derive(Clone, Debug)]
struct LoopGuard {
    /// GC epoch stamped when this loop's sites were last (re)emitted.
    epoch_at_compile: u64,
    /// Loop generation: 0 when the method body it was born in was
    /// installed, +1 per repatch (and per full-body recompile, which
    /// re-inspects this loop too).
    generation: u32,
    /// Issues across the loop's sites (current generation).
    issued: u64,
    /// Useless issues — the line was already resident (current
    /// generation).
    useless: u64,
    /// Invocation count before which a repatch is not allowed (backoff).
    resume_at: u64,
    /// Whether the loop is invalidated (sites patched to no-ops) and not
    /// yet repatched — "stranded" if this persists.
    stale: bool,
    /// GC epoch at the last invalidation (backoff re-arm clock).
    stale_epoch: u64,
    /// Whether the guard disarmed after spending the repatch budget.
    disabled: bool,
    /// GC epoch at which the budget disarmed the guard (re-arm clock).
    disabled_at_epoch: u64,
    /// Repatches *credited back* because a code-cache eviction forced a
    /// full-body recompile: granted when that recompile lands, so an
    /// eviction never followed by a recompile earns nothing.
    cache_evictions: u32,
    /// Budget credits granted by re-arming (one per re-arm cycle).
    rearm_credits: u32,
}

impl LoopGuard {
    fn fresh(epoch: u64) -> Self {
        LoopGuard {
            epoch_at_compile: epoch,
            generation: 0,
            issued: 0,
            useless: 0,
            resume_at: 0,
            stale: false,
            stale_epoch: 0,
            disabled: false,
            disabled_at_epoch: 0,
            cache_evictions: 0,
            rearm_credits: 0,
        }
    }

    /// The useless-prefetch ratio of the current generation (0 when
    /// nothing was issued).
    fn useless_ratio(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useless as f64 / self.issued as f64
        }
    }
}

/// Guard state of one compiled method: an install counter plus one
/// loop guard per site-owning loop.
#[derive(Clone, Debug)]
pub struct MethodGuard {
    /// Install generation of the method body: 0 for the first JIT, +1
    /// per installed body (full recompile, per-loop patch, or repatch).
    /// Keys the compiled-generation history `spf-lint` walks.
    generation: u32,
    /// Per-loop guards, keyed by loop header ([`NO_LOOP`] last). Ordered
    /// so every walk over loops is deterministic.
    loops: BTreeMap<u32, LoopGuard>,
    /// The owning loop header of every block of the compiled body
    /// ([`NO_LOOP`] outside any loop), for issue attribution. Patches and
    /// repatches only add or remove instructions, so one compile's
    /// ownership holds for every body installed until the next.
    block_owner: Vec<u32>,
    /// Whether the method currently has an installed compiled body.
    compiled: bool,
    /// Set by [`AdaptState::on_evicted`], consumed by the next
    /// [`AdaptState::on_compile`]: the recompile in flight was forced by
    /// a cache eviction and must not burn the loops' staleness budgets.
    pending_evict: bool,
}

impl MethodGuard {
    /// Headers of the loops currently invalidated and not repatched,
    /// ascending.
    pub fn stale_loops(&self) -> Vec<u32> {
        self.loops
            .iter()
            .filter(|(_, l)| l.stale)
            .map(|(&h, _)| h)
            .collect()
    }
}

/// Guard state for every method of one VM, plus the adaptive counters the
/// experiment report exposes.
#[derive(Clone, Debug, Default)]
pub struct AdaptState {
    cfg: AdaptConfig,
    /// Indexed by method; `None` (or past the end) until the method's
    /// first compile. Dense because the VM probes it on every call.
    guards: Vec<Option<MethodGuard>>,
    /// `(method, loop generation)` of re-arms since the last
    /// [`AdaptState::take_rearmed`] drain, in re-arm order.
    rearmed_log: Vec<(u32, u32)>,
}

impl AdaptState {
    /// Creates guard state with the given policy.
    pub fn new(cfg: AdaptConfig) -> Self {
        AdaptState {
            cfg,
            guards: Vec::new(),
            rearmed_log: Vec::new(),
        }
    }

    /// The guard of `method`, if it was ever compiled under guards.
    pub fn guard(&self, method: usize) -> Option<&MethodGuard> {
        self.guards.get(method)?.as_ref()
    }

    fn guard_mut(&mut self, method: usize) -> Option<&mut MethodGuard> {
        self.guards.get_mut(method)?.as_mut()
    }

    /// Records a full (re)compilation of `method` at GC epoch `epoch`:
    /// `block_owner` names the owning loop header of every block of the
    /// new body and `site_blocks` the blocks that carry a prefetch site
    /// (repeats allowed), so the loops owning those blocks get guards.
    /// Returns the new install generation: 0 for the first compile, +1
    /// per install.
    ///
    /// Loop guards carry their budget state (generation, eviction and
    /// re-arm credits, disarm state) across full recompiles keyed by
    /// header — a full recompile re-inspects every loop, so each
    /// surviving loop's generation bumps — while counters and epoch
    /// stamps reset. When the recompile was forced by a cache eviction
    /// ([`AdaptState::on_evicted`]), each carried loop is credited one
    /// eviction repatch so capacity churn does not burn staleness budget.
    pub fn on_compile(
        &mut self,
        method: usize,
        epoch: u64,
        block_owner: Vec<u32>,
        site_blocks: impl IntoIterator<Item = u32>,
    ) -> u32 {
        if self.guards.len() <= method {
            self.guards.resize_with(method + 1, || None);
        }
        let slot = &mut self.guards[method];
        // A guard already exists exactly when a compile already happened:
        // this install is then a recompile of the whole body.
        let recompile = slot.is_some();
        let g = slot.get_or_insert_with(|| MethodGuard {
            generation: 0,
            loops: BTreeMap::new(),
            block_owner: Vec::new(),
            compiled: true,
            pending_evict: false,
        });
        g.generation += u32::from(recompile);
        g.compiled = true;
        let credit = std::mem::take(&mut g.pending_evict);
        let old = std::mem::take(&mut g.loops);
        for block in site_blocks {
            let header = block_owner[block as usize];
            g.loops
                .entry(header)
                .or_insert_with(|| match old.get(&header) {
                    Some(prev) => LoopGuard {
                        generation: prev.generation + 1,
                        epoch_at_compile: epoch,
                        issued: 0,
                        useless: 0,
                        stale: false,
                        resume_at: 0,
                        // A recompile forced by a cache eviction, not by a
                        // staleness verdict, is credited back now — and only
                        // now, so an eviction whose forced recompile never
                        // happens cannot refund the budget.
                        cache_evictions: prev.cache_evictions + u32::from(credit),
                        ..prev.clone()
                    },
                    None => LoopGuard::fresh(epoch),
                });
        }
        g.block_owner = block_owner;
        g.generation
    }

    /// Records one prefetch issue from a site in block `block` of
    /// `method`; `useless` means the line was already resident when
    /// issued. The issue is attributed to the loop that owns the block.
    pub fn record_issue(&mut self, method: usize, block: u32, useless: bool) {
        if let Some(g) = self.guard_mut(method) {
            let Some(owner) = g.block_owner.get(block as usize) else {
                return;
            };
            if let Some(l) = g.loops.get_mut(owner) {
                l.issued += 1;
                l.useless += u64::from(useless);
            }
        }
    }

    /// Evaluates the loop guards of a compiled `method` against the
    /// current GC `epoch`. Returns the stale loops (ascending by header),
    /// each with its verdict; empty when the method is fresh, unguarded,
    /// uncompiled, or every triggered guard disarmed. Spending a loop's
    /// last budget slot disarms that loop's guard instead of reporting it
    /// stale.
    pub fn check_stale(&mut self, method: usize, epoch: u64) -> Vec<StaleLoop> {
        let cfg = self.cfg;
        // Not `guard_mut`: a re-arm below also writes `self.rearmed_log`.
        let Some(g) = self.guards.get_mut(method).and_then(Option::as_mut) else {
            return Vec::new();
        };
        if !g.compiled {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (&header, l) in &mut g.loops {
            if l.stale {
                continue; // already invalidated, waiting for repatch
            }
            if l.disabled {
                if cfg.rearm_stable_epochs == 0
                    || epoch.saturating_sub(l.disabled_at_epoch) < cfg.rearm_stable_epochs
                {
                    continue;
                }
                // Re-arm: the heap has churned through the stability
                // horizon since the disarm, so the budget verdict is stale
                // too. Grant exactly one credit and resume watching; if
                // the next verdict exhausts the budget again the guard
                // disarms at the *new* epoch, which damps oscillation to
                // one repatch per horizon.
                l.disabled = false;
                l.rearm_credits += 1;
                self.rearmed_log.push((method as u32, l.generation));
            }
            let reason = if l.epoch_at_compile != epoch {
                StaleReason::GcMoved
            } else if l.issued >= MIN_ISSUES && l.useless_ratio() > USELESS_THRESHOLD {
                StaleReason::UselessRatio
            } else {
                continue;
            };
            let credits = u64::from(l.cache_evictions) + u64::from(l.rearm_credits);
            if u64::from(l.generation).saturating_sub(credits) >= u64::from(cfg.max_recompiles) {
                // Budget spent: keep the loop as it stands and stop
                // watching it. Repatches forced by code-cache eviction
                // are credited back — they were capacity decisions, not
                // adaptive staleness ones — and so is each re-arm credit.
                l.disabled = true;
                l.disabled_at_epoch = epoch;
                continue;
            }
            out.push(StaleLoop {
                header,
                generation: l.generation,
                reason,
            });
        }
        out
    }

    /// Records that the VM patched the given stale loops' prefetch sites
    /// to no-ops at `invocations` total invocations and GC `epoch`: each
    /// loop's repatch is gated behind an exponentially growing backoff
    /// window (waivable by epoch-based re-arm, see
    /// [`AdaptConfig::rearm_stable_epochs`]) and its counters reset.
    /// Returns the method's new install generation (the patched body is
    /// a new installed body).
    pub fn on_patch(
        &mut self,
        method: usize,
        headers: &[u32],
        invocations: u64,
        epoch: u64,
    ) -> u32 {
        let Some(g) = self.guard_mut(method) else {
            return 0;
        };
        for &header in headers {
            if let Some(l) = g.loops.get_mut(&header) {
                l.stale = true;
                l.stale_epoch = epoch;
                let backoff = BACKOFF_BASE << l.generation.min(32);
                l.resume_at = invocations + backoff;
                l.issued = 0;
                l.useless = 0;
            }
        }
        g.generation += 1;
        g.generation
    }

    /// The invalidated loops of `method` whose backoff has been served at
    /// `invocations` total invocations (or waived by
    /// [`AdaptConfig::rearm_stable_epochs`] stable GC epochs since the
    /// invalidation), ascending by header. Empty for unguarded or
    /// uncompiled methods.
    pub fn loops_due(&self, method: usize, invocations: u64, epoch: u64) -> Vec<u32> {
        let Some(g) = self.guard(method) else {
            return Vec::new();
        };
        if !g.compiled {
            return Vec::new();
        }
        g.loops
            .iter()
            .filter(|(_, l)| {
                l.stale
                    && (invocations >= l.resume_at
                        || (self.cfg.rearm_stable_epochs > 0
                            && epoch.saturating_sub(l.stale_epoch) >= self.cfg.rearm_stable_epochs))
            })
            .map(|(&h, _)| h)
            .collect()
    }

    /// Records a repatch of one loop of `method` at GC `epoch`: its
    /// counters restart and its generation bumps (burning one budget
    /// slot). Returns the loop's new generation. The caller bumps the
    /// method install generation once per repatched *body* via
    /// [`AdaptState::on_repatch_install`].
    pub fn on_repatch(&mut self, method: usize, header: u32, epoch: u64) -> u32 {
        let Some(l) = self
            .guard_mut(method)
            .and_then(|g| g.loops.get_mut(&header))
        else {
            return 0;
        };
        l.generation += 1;
        l.epoch_at_compile = epoch;
        l.stale = false;
        l.resume_at = 0;
        l.issued = 0;
        l.useless = 0;
        l.generation
    }

    /// Bumps and returns the method install generation after a repatch
    /// installed a new body (one bump per body, however many loops it
    /// repatched).
    pub fn on_repatch_install(&mut self, method: usize) -> u32 {
        self.guard_mut(method).map_or(0, |g| {
            g.generation += 1;
            g.generation
        })
    }

    /// Records that the shared code cache evicted `method`'s compiled
    /// body. The method falls back to the interpreter (no body to guard)
    /// and the *next* full recompile is marked eviction-forced: each
    /// loop's credit is granted by [`AdaptState::on_compile`] when that
    /// recompile actually lands, never on the eviction itself — repeated
    /// evictions of the same method across generations each refund at
    /// most the one recompile they forced. No backoff applies — the body
    /// was healthy, just cold.
    pub fn on_evicted(&mut self, method: usize) {
        if let Some(g) = self.guard_mut(method) {
            if g.compiled {
                g.compiled = false;
                g.pending_evict = true;
            }
        }
    }

    /// Drains the `(method, loop generation)` re-arm log accumulated
    /// since the last drain, in re-arm order.
    pub fn take_rearmed(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.rearmed_log)
    }

    /// Number of loops currently stranded: invalidated by an adaptive
    /// staleness verdict and not repatched since (their prefetch sites
    /// are patched out). This is the same condition `spf-trace-report
    /// deopt-summary` counts from the event stream (invalidations >
    /// repatches per loop), read directly off the guard state.
    pub fn stranded(&self) -> u64 {
        self.guards
            .iter()
            .flatten()
            .flat_map(|g| g.loops.values())
            .filter(|l| l.stale)
            .count() as u64
    }

    /// The ids of methods with at least one stranded loop, ascending.
    pub fn stranded_methods(&self) -> Vec<usize> {
        let stranded = |g: &MethodGuard| g.loops.values().any(|l| l.stale);
        (0..self.guards.len())
            .filter(|&m| self.guards[m].as_ref().is_some_and(stranded))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One loop with one site, in its header block.
    fn one_loop(header: u32) -> Vec<(u32, u32)> {
        vec![(header, header)]
    }

    /// Loop 2 owns sites in blocks 2 and 3, loop 6 one in block 6.
    fn two_loops() -> Vec<(u32, u32)> {
        vec![(2, 2), (3, 2), (6, 6)]
    }

    /// Compiles a body given as `(block, header)` for every site-bearing
    /// block; every other block is straight-line code.
    fn compile(a: &mut AdaptState, method: usize, epoch: u64, body: &[(u32, u32)]) -> u32 {
        let blocks = body.iter().map(|&(b, _)| b + 1).max().unwrap_or(0);
        let mut owners = vec![NO_LOOP; blocks as usize];
        for &(b, h) in body {
            owners[b as usize] = h;
        }
        a.on_compile(method, epoch, owners, body.iter().map(|&(b, _)| b))
    }

    fn loop_guard(a: &AdaptState, method: usize, header: u32) -> &LoopGuard {
        &a.guard(method).unwrap().loops[&header]
    }

    fn headers(stale: &[StaleLoop]) -> Vec<u32> {
        stale.iter().map(|s| s.header).collect()
    }

    #[test]
    fn first_compile_is_generation_zero() {
        let mut a = AdaptState::new(AdaptConfig::default());
        assert_eq!(compile(&mut a, 3, 0, &one_loop(4)), 0);
        assert_eq!(a.guard(3).unwrap().generation, 0);
        assert_eq!(loop_guard(&a, 3, 4).generation, 0);
        assert_eq!(a.guard(3).unwrap().block_owner[4], 4);
    }

    #[test]
    fn epoch_bump_marks_every_sited_loop_stale_once() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &two_loops());
        assert!(a.check_stale(0, 0).is_empty(), "same epoch is fresh");
        let stale = a.check_stale(0, 1);
        assert_eq!(headers(&stale), vec![2, 6]);
        assert!(stale.iter().all(|s| s.reason == StaleReason::GcMoved));
        a.on_patch(0, &[2, 6], 10, 1);
        assert!(
            a.check_stale(0, 1).is_empty(),
            "invalidated loops are not re-reported"
        );
        assert_eq!(a.on_repatch(0, 2, 1), 1);
        a.on_repatch_install(0);
        assert!(
            a.check_stale(0, 1).is_empty(),
            "repatched loop is fresh at the new epoch; loop 6 still stale"
        );
        assert_eq!(a.guard(0).unwrap().stale_loops(), vec![6]);
    }

    #[test]
    fn useless_ratio_is_attributed_to_the_owning_loop() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &two_loops());
        // All useless traffic lands on loop 2's blocks.
        for k in 1..MIN_ISSUES {
            a.record_issue(0, 2 + (k % 2) as u32, true);
        }
        assert!(a.check_stale(0, 0).is_empty(), "below MIN_ISSUES");
        a.record_issue(0, 2, false);
        // Loop 6 stays healthy even while loop 2 crosses the threshold.
        a.record_issue(0, 6, false);
        let stale = a.check_stale(0, 0);
        assert_eq!(headers(&stale), vec![2]);
        assert_eq!(stale[0].reason, StaleReason::UselessRatio);
        let l = loop_guard(&a, 0, 2);
        assert_eq!((l.issued, l.useless), (MIN_ISSUES, MIN_ISSUES - 1));
        assert_eq!(loop_guard(&a, 0, 6).issued, 1);
    }

    #[test]
    fn exactly_half_useless_is_not_stale() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &one_loop(0));
        for _ in 0..MIN_ISSUES / 2 {
            a.record_issue(0, 0, true);
            a.record_issue(0, 0, false);
        }
        assert_eq!(loop_guard(&a, 0, 0).issued, MIN_ISSUES, "ratio is trusted");
        assert!(a.check_stale(0, 0).is_empty(), "threshold is strict");
    }

    #[test]
    fn unowned_site_issues_are_ignored() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &one_loop(2));
        a.record_issue(0, 9, true); // past the body's last block
        a.record_issue(0, 1, true); // straight-line block, no guard owns it
        assert_eq!(loop_guard(&a, 0, 2).issued, 0);
    }

    #[test]
    fn backoff_grows_exponentially_per_loop() {
        let cfg = AdaptConfig {
            max_recompiles: 8,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &one_loop(4));
        a.on_patch(0, &[4], 100, 1);
        assert!(a.loops_due(0, 100 + BACKOFF_BASE - 1, 1).is_empty());
        assert_eq!(
            a.loops_due(0, 100 + BACKOFF_BASE, 1),
            vec![4],
            "gen 0 waits BACKOFF_BASE"
        );
        a.on_repatch(0, 4, 1);
        a.on_repatch_install(0);
        a.on_patch(0, &[4], 200, 2);
        assert!(a.loops_due(0, 200 + 2 * BACKOFF_BASE - 1, 2).is_empty());
        assert_eq!(
            a.loops_due(0, 200 + 2 * BACKOFF_BASE, 2),
            vec![4],
            "gen 1 waits 2*BACKOFF_BASE"
        );
    }

    #[test]
    fn budget_disarms_loop_guards_instead_of_looping() {
        let cfg = AdaptConfig {
            max_recompiles: 2,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        let (mut epoch, mut invocations) = (0, 0);
        compile(&mut a, 0, epoch, &one_loop(4));
        for expect_gen in 1..=2 {
            epoch += 1;
            assert_eq!(headers(&a.check_stale(0, epoch)), vec![4]);
            a.on_patch(0, &[4], invocations, epoch);
            invocations += BACKOFF_BASE << (expect_gen - 1);
            assert_eq!(a.loops_due(0, invocations, epoch), vec![4]);
            assert_eq!(a.on_repatch(0, 4, epoch), expect_gen);
            a.on_repatch_install(0);
        }
        // Budget (2 repatches) spent: a further epoch bump disarms.
        epoch += 1;
        assert!(a.check_stale(0, epoch).is_empty());
        assert!(a.check_stale(0, epoch + 1).is_empty(), "stays disarmed");
        assert_eq!(loop_guard(&a, 0, 4).generation, 2);
        assert!(loop_guard(&a, 0, 4).disabled);
        assert!(a.guard(0).unwrap().compiled, "the body never left");
    }

    #[test]
    fn budgets_are_independent_across_loops() {
        let cfg = AdaptConfig {
            max_recompiles: 1,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &two_loops());
        // Burn loop 2's budget; loop 6 stays untouched (its guard also
        // fires each epoch but is repatched along with loop 2 here).
        assert_eq!(headers(&a.check_stale(0, 1)), vec![2, 6]);
        a.on_patch(0, &[2], 0, 1);
        a.on_repatch(0, 2, 1);
        a.on_repatch_install(0);
        // Epoch 2: loop 2's budget (1 repatch) is spent and disarms; loop
        // 6 — never repatched — still reports.
        let stale = a.check_stale(0, 2);
        assert_eq!(headers(&stale), vec![6]);
        assert!(loop_guard(&a, 0, 2).disabled);
        assert!(!loop_guard(&a, 0, 6).disabled);
    }

    #[test]
    fn eviction_recompiles_do_not_burn_the_staleness_budget() {
        let cfg = AdaptConfig {
            max_recompiles: 2,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &one_loop(4));
        // Two cache evictions, each followed by the forced recompile.
        for _ in 0..2 {
            a.on_evicted(0);
            assert!(a.check_stale(0, 0).is_empty(), "no body to guard");
            compile(&mut a, 0, 0, &one_loop(4));
        }
        let l = loop_guard(&a, 0, 4);
        assert_eq!(l.generation, 2);
        assert_eq!(l.cache_evictions, 2);
        // The full adaptive budget (2) is still available: two GC-staleness
        // repatches fire before the guard disarms.
        let mut epoch = 0;
        for expect_gen in 3..=4 {
            epoch += 1;
            assert_eq!(headers(&a.check_stale(0, epoch)), vec![4]);
            a.on_patch(0, &[4], 0, epoch);
            assert_eq!(a.on_repatch(0, 4, epoch), expect_gen);
            a.on_repatch_install(0);
        }
        epoch += 1;
        assert!(a.check_stale(0, epoch).is_empty(), "budget now spent");
    }

    #[test]
    fn evicted_method_is_not_checked_until_recompiled() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 3, 0, &one_loop(2));
        a.on_evicted(3);
        assert!(
            a.check_stale(3, 99).is_empty(),
            "evicted body cannot be stale: there is nothing installed"
        );
        assert!(a.loops_due(3, 1_000, 99).is_empty());
        compile(&mut a, 3, 99, &one_loop(2));
        assert_eq!(headers(&a.check_stale(3, 100)), vec![2]);
    }

    #[test]
    fn eviction_of_unguarded_method_is_a_noop() {
        let mut a = AdaptState::new(AdaptConfig::default());
        a.on_evicted(11);
        assert!(a.guard(11).is_none());
    }

    #[test]
    fn unguarded_methods_are_never_stale() {
        let mut a = AdaptState::new(AdaptConfig::default());
        assert!(a.check_stale(7, 99).is_empty());
        assert!(a.loops_due(7, 0, 0).is_empty());
    }

    #[test]
    fn methods_without_sites_never_go_stale() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &[]);
        assert!(
            a.check_stale(0, 50).is_empty(),
            "no sites, nothing to invalidate"
        );
        assert_eq!(a.guard(0).unwrap().generation, 0);
    }

    #[test]
    fn repeated_evictions_credit_only_landed_recompiles() {
        // Regression (kept from the method-guard era): `on_evicted` used
        // to grant the budget credit immediately, so a body evicted twice
        // before its recompile landed banked credits it never earned. The
        // credit must be counted when the eviction-forced recompile
        // actually installs.
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &one_loop(4));
        a.on_evicted(0);
        a.on_evicted(0); // churn: evicted again before any recompile
        assert_eq!(loop_guard(&a, 0, 4).cache_evictions, 0);
        compile(&mut a, 0, 0, &one_loop(4));
        assert_eq!(
            loop_guard(&a, 0, 4).cache_evictions,
            1,
            "two raw evictions, one forced recompile, one credit"
        );
        a.on_evicted(0);
        assert_eq!(loop_guard(&a, 0, 4).cache_evictions, 1);
        compile(&mut a, 0, 0, &one_loop(4));
        assert_eq!(loop_guard(&a, 0, 4).cache_evictions, 2);
    }

    #[test]
    fn staleness_repatch_consumes_no_evict_credit() {
        let mut a = AdaptState::new(AdaptConfig::default());
        compile(&mut a, 0, 0, &one_loop(4));
        a.on_patch(0, &[4], 10, 1);
        a.on_repatch(0, 4, 1);
        a.on_repatch_install(0);
        assert_eq!(loop_guard(&a, 0, 4).cache_evictions, 0);
    }

    #[test]
    fn budget_rearm_grants_one_credit_per_stable_window() {
        let cfg = AdaptConfig {
            max_recompiles: 1,
            rearm_stable_epochs: 3,
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &one_loop(4));
        // Spend the 1-repatch budget.
        assert_eq!(headers(&a.check_stale(0, 1)), vec![4]);
        a.on_patch(0, &[4], 0, 1);
        a.on_repatch(0, 4, 1);
        a.on_repatch_install(0);
        // Budget spent: the next epoch bump disarms instead of firing.
        assert!(a.check_stale(0, 2).is_empty());
        assert!(loop_guard(&a, 0, 4).disabled);
        // Still disarmed while fewer than `rearm_stable_epochs` have
        // passed since the disarm point.
        assert!(a.check_stale(0, 3).is_empty());
        assert!(a.check_stale(0, 4).is_empty());
        // Epoch 5 = disarm(2) + 3: re-arms with one credit and the
        // staleness verdict fires again in the same call.
        assert_eq!(headers(&a.check_stale(0, 5)), vec![4]);
        let l = loop_guard(&a, 0, 4);
        assert!(!l.disabled);
        assert_eq!(l.rearm_credits, 1);
        assert_eq!(a.take_rearmed(), vec![(0, 1)]);
        assert_eq!(a.take_rearmed(), vec![], "drain is destructive");
        // The credit funds exactly one more repatch, then the guard
        // disarms again and a second stable window re-arms it again.
        a.on_patch(0, &[4], 0, 5);
        a.on_repatch(0, 4, 5);
        a.on_repatch_install(0);
        assert!(a.check_stale(0, 6).is_empty());
        assert!(loop_guard(&a, 0, 4).disabled);
        assert_eq!(headers(&a.check_stale(0, 9)), vec![4]);
        assert_eq!(a.take_rearmed(), vec![(0, 2)]);
    }

    #[test]
    fn rearm_disabled_by_default_keeps_legacy_disarm_forever() {
        let cfg = AdaptConfig {
            max_recompiles: 1,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &one_loop(4));
        assert_eq!(headers(&a.check_stale(0, 1)), vec![4]);
        a.on_patch(0, &[4], 0, 1);
        a.on_repatch(0, 4, 1);
        a.on_repatch_install(0);
        assert!(a.check_stale(0, 2).is_empty());
        assert!(a.check_stale(0, 1_000_000).is_empty(), "no re-arm at 0");
        assert_eq!(a.take_rearmed(), vec![]);
    }

    #[test]
    fn stable_epochs_waive_invalidation_backoff() {
        let cfg = AdaptConfig {
            rearm_stable_epochs: 2,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &one_loop(4));
        a.on_patch(0, &[4], 100, 5);
        assert!(a.loops_due(0, 101, 5).is_empty(), "inside backoff");
        assert!(a.loops_due(0, 101, 6).is_empty(), "one epoch is not enough");
        assert_eq!(
            a.loops_due(0, 101, 7),
            vec![4],
            "two stable epochs waive the invocation backoff"
        );
        assert_eq!(a.loops_due(0, 2_000, 5), vec![4], "backoff served normally");
    }

    #[test]
    fn stranded_counts_stale_loops_and_sorts_methods() {
        let mut a = AdaptState::new(AdaptConfig::default());
        for m in [9usize, 2, 5] {
            compile(&mut a, m, 0, &one_loop(3));
            a.on_patch(m, &[3], 0, 1);
        }
        assert_eq!(a.stranded(), 3);
        assert_eq!(a.stranded_methods(), vec![2, 5, 9]);
        a.on_repatch(5, 3, 1);
        a.on_repatch_install(5);
        assert_eq!(a.stranded(), 2);
        assert_eq!(a.stranded_methods(), vec![2, 9]);
        // Two stale loops of one method count twice but list the method
        // once.
        compile(&mut a, 7, 0, &two_loops());
        a.on_patch(7, &[2, 6], 0, 1);
        assert_eq!(a.stranded(), 4);
        assert_eq!(a.stranded_methods(), vec![2, 7, 9]);
        // An eviction alone does not strand: nothing was invalidated.
        compile(&mut a, 8, 1, &one_loop(0));
        a.on_evicted(8);
        assert_eq!(a.stranded(), 4);
    }

    #[test]
    fn full_recompile_clears_staleness_and_carries_budget() {
        let cfg = AdaptConfig {
            max_recompiles: 2,
            ..AdaptConfig::default()
        };
        let mut a = AdaptState::new(cfg);
        compile(&mut a, 0, 0, &one_loop(4));
        a.on_patch(0, &[4], 0, 1);
        assert_eq!(a.stranded(), 1);
        // The serving sweep may full-recompile a stranded method (e.g.
        // after an eviction): the fresh body clears staleness but the
        // loop's generation advanced, so the budget is not reset.
        a.on_evicted(0);
        compile(&mut a, 0, 1, &one_loop(4));
        assert_eq!(a.stranded(), 0);
        let l = loop_guard(&a, 0, 4);
        assert_eq!(l.generation, 1);
        assert_eq!(l.cache_evictions, 1, "eviction-forced install credits");
    }
}
