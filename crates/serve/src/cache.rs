//! The bounded shared code cache.
//!
//! Production JVMs give all compiler threads one fixed-size code cache;
//! when it fills, cold compiled methods are flushed and their owners fall
//! back to lower tiers until recompiled. This model does the same over the
//! serving fleet: capacity is measured in compiled-body *instructions*
//! (the simulator's notion of code size), eviction is LRU with a
//! deterministic tie-break, and the victim's tenant VM is told via
//! [`spf_vm::Vm::evict_compiled`] by the simulation loop — which also
//! credits the adaptive guards so a capacity eviction never burns the
//! staleness recompile budget.
//!
//! All mutations happen at simulation barriers on one thread, so the
//! cache needs no interior synchronization.

/// One resident compiled body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheEntry {
    /// Owning tenant index.
    pub tenant: u32,
    /// Method index within the tenant's program.
    pub method: u32,
    /// Code size in instructions.
    pub instrs: u64,
    /// Serving-clock cycle of the last touch (insert or tenant activity).
    pub last_touch: u64,
    /// Monotone insertion/touch sequence number — breaks `last_touch`
    /// ties deterministically (many touches happen at the same barrier).
    seq: u64,
}

/// A bounded, LRU-evicting code cache shared by every tenant.
#[derive(Clone, Debug)]
pub struct CodeCache {
    capacity: u64,
    /// Per-tenant residency cap in instructions; 0 disables quotas (the
    /// legacy behavior — one tenant may fill the whole cache).
    quota: u64,
    used: u64,
    seq: u64,
    entries: Vec<CacheEntry>,
}

impl CodeCache {
    /// Creates a cache holding at most `capacity` compiled instructions,
    /// with no per-tenant quota.
    pub fn new(capacity: u64) -> Self {
        CodeCache::with_quota(capacity, 0)
    }

    /// Creates a cache with a per-tenant residency quota layered on the
    /// global capacity (0 disables the quota).
    pub fn with_quota(capacity: u64, quota: u64) -> Self {
        CodeCache {
            capacity,
            quota,
            used: 0,
            seq: 0,
            entries: Vec::new(),
        }
    }

    /// Instructions currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The per-tenant quota (0 = disabled).
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// Instructions currently resident for `tenant`.
    pub fn tenant_used(&self, tenant: u32) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.tenant == tenant)
            .map(|e| e.instrs)
            .sum()
    }

    /// Rebounds the cache to `capacity` mid-run (a chaos squeeze, or the
    /// squeeze ending), evicting LRU entries until the residency fits.
    /// Returns the victims in eviction order; growing evicts nothing.
    pub fn set_capacity(&mut self, capacity: u64) -> Vec<CacheEntry> {
        self.capacity = capacity;
        let mut evicted = Vec::new();
        while self.used > self.capacity && self.evict_lru(|_| true, &mut evicted) {}
        evicted
    }

    /// Moves the least-recently-used `eligible` entry into `evicted`;
    /// returns whether there was one.
    fn evict_lru(
        &mut self,
        eligible: impl Fn(&CacheEntry) -> bool,
        evicted: &mut Vec<CacheEntry>,
    ) -> bool {
        let victim = (self.entries.iter().enumerate())
            .filter(|(_, e)| eligible(e))
            .min_by_key(|(_, e)| (e.last_touch, e.seq))
            .map(|(i, _)| i);
        let Some(victim) = victim else {
            return false;
        };
        let e = self.entries.swap_remove(victim);
        self.used -= e.instrs;
        evicted.push(e);
        true
    }

    /// Number of resident bodies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks every resident body of `tenant` as used at `now` (the tenant
    /// just ran a request through its compiled code).
    pub fn touch_tenant(&mut self, tenant: u32, now: u64) {
        for e in &mut self.entries {
            if e.tenant == tenant {
                e.last_touch = now;
                self.seq += 1;
                e.seq = self.seq;
            }
        }
    }

    /// Removes `tenant`'s entry for `method`, so that a per-loop repatch's
    /// refreshed body is charged once at its new size. Returns the freed
    /// instructions.
    pub fn remove(&mut self, tenant: u32, method: u32) -> Option<u64> {
        let i = self
            .entries
            .iter()
            .position(|e| e.tenant == tenant && e.method == method)?;
        let e = self.entries.swap_remove(i);
        self.used -= e.instrs;
        Some(e.instrs)
    }

    /// Inserts a freshly compiled body, evicting least-recently-used
    /// entries of *other* bodies until it fits. Returns the victims in
    /// eviction order. A body larger than the whole capacity is admitted
    /// alone (the alternative — refusing to cache — would recompile it
    /// forever).
    pub fn insert(&mut self, tenant: u32, method: u32, instrs: u64, now: u64) -> Vec<CacheEntry> {
        debug_assert!(
            !self
                .entries
                .iter()
                .any(|e| e.tenant == tenant && e.method == method),
            "double insert of t{tenant}/m{method}"
        );
        let mut evicted = Vec::new();
        // Quota pass first: the inserting tenant evicts its *own* LRU
        // bodies until it fits its allowance, so one tenant's spill never
        // costs another tenant code. A body bigger than the whole quota
        // is admitted alone, mirroring the capacity rule below.
        while self.quota > 0
            && self.tenant_used(tenant) + instrs > self.quota
            && self.evict_lru(|e| e.tenant == tenant, &mut evicted)
        {}
        while self.used + instrs > self.capacity && self.evict_lru(|_| true, &mut evicted) {}
        self.seq += 1;
        self.entries.push(CacheEntry {
            tenant,
            method,
            instrs,
            last_touch: now,
            seq: self.seq,
        });
        self.used += instrs;
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_lru() {
        let mut c = CodeCache::new(100);
        assert!(c.insert(0, 0, 40, 10).is_empty());
        assert!(c.insert(1, 0, 40, 20).is_empty());
        assert_eq!(c.used(), 80);
        // Touch tenant 0 so tenant 1 becomes the LRU victim.
        c.touch_tenant(0, 30);
        let evicted = c.insert(2, 0, 40, 40);
        assert_eq!(evicted.len(), 1);
        assert_eq!((evicted[0].tenant, evicted[0].method), (1, 0));
        assert_eq!(c.used(), 80);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn ties_break_by_sequence() {
        let mut c = CodeCache::new(100);
        c.insert(0, 0, 50, 5);
        c.insert(1, 0, 50, 5); // same touch time, later seq
        let evicted = c.insert(2, 0, 50, 5);
        assert_eq!(evicted[0].tenant, 0, "earlier seq is the LRU");
    }

    #[test]
    fn oversized_body_is_admitted_alone() {
        let mut c = CodeCache::new(10);
        c.insert(0, 0, 5, 1);
        let evicted = c.insert(1, 0, 99, 2);
        assert_eq!(evicted.len(), 1, "everything else is flushed");
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 99, "over capacity, by design");
        // The next insert flushes the giant.
        let evicted = c.insert(2, 0, 5, 3);
        assert_eq!(evicted[0].instrs, 99);
    }

    #[test]
    fn remove_frees_space() {
        let mut c = CodeCache::new(100);
        c.insert(0, 3, 60, 1);
        assert_eq!(c.remove(0, 3), Some(60));
        assert_eq!(c.remove(0, 3), None);
        assert_eq!(c.used(), 0);
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 100);
    }

    #[test]
    fn quota_evicts_own_tenant_first() {
        let mut c = CodeCache::with_quota(1_000, 30);
        assert!(c.insert(0, 0, 20, 1).is_empty());
        assert!(c.insert(1, 0, 20, 2).is_empty());
        // Tenant 0's second body busts its 30-instr quota: its own m0 is
        // the victim, tenant 1 is untouched, global capacity is far off.
        let evicted = c.insert(0, 1, 20, 3);
        assert_eq!(evicted.len(), 1);
        assert_eq!((evicted[0].tenant, evicted[0].method), (0, 0));
        assert_eq!(c.tenant_used(0), 20);
        assert_eq!(c.tenant_used(1), 20);
        assert_eq!(c.quota(), 30);
    }

    #[test]
    fn body_over_quota_is_admitted_alone_for_its_tenant() {
        let mut c = CodeCache::with_quota(1_000, 30);
        c.insert(0, 0, 10, 1);
        let evicted = c.insert(0, 1, 99, 2);
        assert_eq!(evicted.len(), 1, "only the tenant's own body goes");
        assert_eq!(c.tenant_used(0), 99, "over quota, by design");
    }

    #[test]
    fn set_capacity_shrinks_by_lru_and_grows_free() {
        let mut c = CodeCache::new(100);
        c.insert(0, 0, 40, 10);
        c.insert(1, 0, 40, 20);
        let evicted = c.set_capacity(50);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].tenant, 0, "oldest touch goes first");
        assert_eq!(c.used(), 40);
        assert_eq!(c.capacity(), 50);
        assert!(c.set_capacity(200).is_empty(), "growing evicts nothing");
        assert_eq!(c.capacity(), 200);
    }
}
