//! The per-rank plan cache: inspection and workspace kept warm across
//! job submissions — gang-scoped and bounded.
//!
//! Building a job's execution plan is the expensive prologue of every
//! CCSD iteration: inspect the tile space into chain metadata and
//! collectively create and fill the Global Arrays. None of it depends on
//! anything but the tile geometry, the kernel set and the **gang** it is
//! sharded over — so a persistent daemon caches plans keyed exactly that
//! way, and a repeat submission skips straight to execution. (The task
//! graph is not cached: the variant texts are compiled Rust, and wiring
//! a graph over a plan takes a few microseconds.) Workspace arrays
//! (and the tile cache's retained blocks of their frozen inputs) stay
//! resident between jobs, which is the service layer's whole reason to
//! exist: the second tenant to ask about a molecule pays only the compute.
//!
//! Cache coherence across ranks is by construction: all members of a
//! gang execute that gang's jobs in the same relative order (the
//! gateway assigns every seq of a dispatch under one lock), lookups are
//! deterministic, and plan construction is collective over the gang —
//! so the gang's members hit, miss, **and evict** in lockstep, and the
//! collective calls inside a miss (array creation, fills, sync) line
//! up. That is why eviction is scoped *per gang mask*: a mask's members
//! share exactly the mask's lookup sequence, while an eviction policy
//! over the whole per-rank cache would act on sequences that differ
//! between ranks (rank 0 never sees gang `{2,3}`'s lookups) and
//! diverge. Evicting destroys the plan's arrays — handles are
//! allocation-order ids and are never reused; the store tombstones them
//! so a late chaos duplicate reads zeros instead of hanging.

use ccsd::DistRank;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Residency budget for the plan cache. Both limits are **per gang
/// mask** (the unit over which eviction decisions replicate across
/// ranks); `0` means unbounded. The just-inserted plan is never evicted,
/// so a budget of 1 entry degenerates to "no reuse across geometries"
/// rather than thrashing the current job.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCacheConfig {
    /// Maximum resident plans per gang mask (`0` = unbounded).
    pub max_entries: usize,
    /// Maximum workspace bytes per gang mask (`0` = unbounded).
    pub max_bytes: u64,
}

/// What makes two jobs share a plan: gang, geometry and kernel set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Gang mask the workspace is sharded over.
    pub gang: u64,
    /// Kernel bitmask, in the wire order of `spec::KERNEL_ORDER`.
    pub kernels: u64,
    /// The full tile geometry, field for field.
    pub occ: usize,
    pub virt: usize,
    pub tile: usize,
    pub spread: usize,
    pub irreps: u8,
    pub seed: u64,
}

/// One cached plan: the attached problem instance (inspection +
/// workspace over the daemon's shared endpoint).
pub struct CachedPlan {
    /// The problem instance; jobs run through
    /// [`DistRank::run_variant_graph`].
    pub drank: Arc<DistRank>,
    /// Wall nanoseconds the collective build took (the cost a hit
    /// skips).
    pub build_ns: u64,
    /// Global bytes of the workspace's four tensors (every rank computes
    /// the same value, so byte-budget evictions agree).
    pub bytes: u64,
}

impl CachedPlan {
    /// Wrap a freshly attached instance.
    pub fn new(drank: Arc<DistRank>, build_ns: u64) -> Self {
        let ws = drank.workspace();
        let bytes = 8
            * (ws.t2_layout.len() + ws.v_layout.len() + ws.v_oo_layout.len() + ws.i2_layout.len())
                as u64;
        Self {
            drank,
            build_ns,
            bytes,
        }
    }

    /// Release the plan's workspace arrays: shards dropped, ids
    /// tombstoned, retained cache entries freed. Only the evictor calls
    /// this, after the plan's last job has fully settled on this rank.
    fn destroy(&self) {
        let ws = self.drank.workspace();
        for h in [ws.t2, ws.v, ws.v_oo, ws.i2] {
            ws.ga.destroy(h);
        }
    }
}

/// One gang mask's residency bookkeeping: keys in recency order (least
/// recent first) and resident workspace bytes.
#[derive(Default)]
struct MaskLru {
    recency: Vec<PlanKey>,
    bytes: u64,
}

/// The rank's plan cache with hit/miss/eviction accounting.
pub struct PlanCache {
    cfg: PlanCacheConfig,
    map: Mutex<HashMap<PlanKey, Arc<CachedPlan>>>,
    lru: Mutex<HashMap<u64, MaskLru>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    purges: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(PlanCacheConfig::default())
    }
}

impl PlanCache {
    /// Cache bounded by `cfg` (the default config is unbounded).
    pub fn new(cfg: PlanCacheConfig) -> Self {
        Self {
            cfg,
            map: Mutex::new(HashMap::new()),
            lru: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            purges: AtomicU64::new(0),
        }
    }

    /// Look up `key`, building and inserting via `build` on a miss.
    /// Returns the plan and whether it was a hit. The build runs under
    /// the cache lock — correct here because one executor thread per
    /// rank is the only caller, and the build's collectives must not
    /// interleave with another lookup anyway. A miss that pushes the
    /// key's gang over its entry or byte budget evicts that gang's
    /// least-recently-used plans (destroying their arrays) until it
    /// fits — deterministically, so every member of the gang evicts the
    /// same plans at the same point in its job sequence.
    pub fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Arc<CachedPlan>,
    ) -> (Arc<CachedPlan>, bool) {
        let mut map = self.map.lock().unwrap();
        let mut lru = self.lru.lock().unwrap();
        let bucket = lru.entry(key.gang).or_default();
        if let Some(plan) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let pos = bucket.recency.iter().position(|k| *k == key).unwrap();
            let k = bucket.recency.remove(pos);
            bucket.recency.push(k);
            return (plan.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = build();
        bucket.bytes += plan.bytes;
        bucket.recency.push(key.clone());
        map.insert(key, plan.clone());
        while bucket.recency.len() > 1 && self.over_budget(bucket) {
            let victim = bucket.recency.remove(0);
            let evicted = map.remove(&victim).expect("lru key lost its plan");
            bucket.bytes -= evicted.bytes;
            evicted.destroy();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        (plan, false)
    }

    fn over_budget(&self, bucket: &MaskLru) -> bool {
        (self.cfg.max_entries > 0 && bucket.recency.len() > self.cfg.max_entries)
            || (self.cfg.max_bytes > 0 && bucket.bytes > self.cfg.max_bytes)
    }

    /// Drop (and destroy) the plan for `key`, if resident. Called when
    /// a run over the plan was poisoned by a gang member's death: the
    /// detector completed its blocked gets with zeros, so the plan's
    /// workspace — and the retained cache entries over it — may hold
    /// garbage. Every surviving member of the gang observes the same
    /// dead mask after the run and purges in lockstep, preserving the
    /// cache-coherence-by-construction invariant. Returns whether a
    /// plan was dropped.
    pub fn purge(&self, key: &PlanKey) -> bool {
        let mut map = self.map.lock().unwrap();
        let mut lru = self.lru.lock().unwrap();
        let Some(plan) = map.remove(key) else {
            return false;
        };
        if let Some(bucket) = lru.get_mut(&key.gang) {
            if let Some(pos) = bucket.recency.iter().position(|k| k == key) {
                bucket.recency.remove(pos);
            }
            bucket.bytes = bucket.bytes.saturating_sub(plan.bytes);
        }
        plan.destroy();
        self.purges.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Plans purged after poisoned runs so far.
    pub fn purges(&self) -> u64 {
        self.purges.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Plans evicted (and their arrays destroyed) so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct plans resident.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
