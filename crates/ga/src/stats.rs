//! Operation counters for auditing executions (how many gets/accs/nxtvals
//! a given execution model issued, and how many bytes moved).
//!
//! The counters are kept per thread: each thread adds to its own slot,
//! padded to cache lines of its own, and a read sums the slots. A get on
//! one worker therefore writes no line another worker's get writes —
//! with one shared word per counter, every get of a two-worker rank paid
//! four cache-line transfers just to be counted.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-thread slots, here and in [`crate::DistStore`]'s array views: more
/// than the threads of one rank (application, comm progress, a handful of
/// workers). Threads beyond that share slots, which stays exact (the
/// slots are atomic) and costs only the sharing.
pub(crate) const SLOTS: usize = 16;

/// The calling thread's slot, handed out round-robin on first use.
pub(crate) fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

/// The counters, in slot order.
#[derive(Clone, Copy)]
enum C {
    Gets,
    GetBytes,
    Puts,
    PutBytes,
    Accs,
    AccBytes,
    Nxtvals,
    LocalBytes,
    RemoteBytes,
    CacheHits,
    CacheJoins,
    CacheMisses,
    CacheInvalidations,
    CacheHitBytes,
    RemoteGetBytes,
    StaleReads,
    CacheRetained,
    VerifyGetBytes,
}

const NAMES: [&str; 18] = [
    "gets",
    "get_bytes",
    "puts",
    "put_bytes",
    "accs",
    "acc_bytes",
    "nxtvals",
    "local_bytes",
    "remote_bytes",
    "cache_hits",
    "cache_joins",
    "cache_misses",
    "cache_invalidations",
    "cache_hit_bytes",
    "remote_get_bytes",
    "stale_reads",
    "cache_retained",
    "verify_get_bytes",
];

/// One thread's counters.
#[derive(Default)]
#[repr(align(128))]
struct Slot([AtomicU64; NAMES.len()]);

/// Thread-safe operation counters.
pub struct GaStats {
    slots: Box<[Slot]>,
}

impl Default for GaStats {
    fn default() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }
    }
}

impl std::fmt::Debug for GaStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("GaStats");
        for (i, name) in NAMES.iter().enumerate() {
            d.field(name, &self.sum_at(i));
        }
        d.finish()
    }
}

impl GaStats {
    fn add(&self, c: C, n: u64) {
        self.slots[thread_slot()].0[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn sum_at(&self, i: usize) -> u64 {
        self.slots
            .iter()
            .map(|s| s.0[i].load(Ordering::Relaxed))
            .sum()
    }

    fn sum(&self, c: C) -> u64 {
        self.sum_at(c as usize)
    }

    pub(crate) fn record_get(&self, bytes: usize) {
        self.add(C::Gets, 1);
        self.add(C::GetBytes, bytes as u64);
    }
    pub(crate) fn record_put(&self, bytes: usize) {
        self.add(C::Puts, 1);
        self.add(C::PutBytes, bytes as u64);
    }
    pub(crate) fn record_acc(&self, bytes: usize) {
        self.add(C::Accs, 1);
        self.add(C::AccBytes, bytes as u64);
    }
    pub(crate) fn record_nxtval(&self) {
        self.add(C::Nxtvals, 1);
    }
    /// Split the bytes of one operation by whether they stayed on the
    /// calling rank or crossed rank boundaries. The in-process backend
    /// counts everything as local (there is no wire); the distributed
    /// backend splits by shard ownership.
    pub(crate) fn record_locality(&self, local: usize, remote: usize) {
        self.add(C::LocalBytes, local as u64);
        self.add(C::RemoteBytes, remote as u64);
    }

    /// Number of `get` operations.
    pub fn gets(&self) -> u64 {
        self.sum(C::Gets)
    }
    /// Bytes read by `get` operations.
    pub fn get_bytes(&self) -> u64 {
        self.sum(C::GetBytes)
    }
    /// Number of `put` operations.
    pub fn puts(&self) -> u64 {
        self.sum(C::Puts)
    }
    /// Bytes written by `put` operations.
    pub fn put_bytes(&self) -> u64 {
        self.sum(C::PutBytes)
    }
    /// Number of accumulate operations.
    pub fn accs(&self) -> u64 {
        self.sum(C::Accs)
    }
    /// Bytes accumulated.
    pub fn acc_bytes(&self) -> u64 {
        self.sum(C::AccBytes)
    }
    /// Number of NXTVAL acquisitions.
    pub fn nxtvals(&self) -> u64 {
        self.sum(C::Nxtvals)
    }
    /// Bytes of get/put/acc traffic whose owner was the calling rank.
    pub fn local_bytes(&self) -> u64 {
        self.sum(C::LocalBytes)
    }
    /// Bytes of get/put/acc traffic that crossed rank boundaries.
    pub fn remote_bytes(&self) -> u64 {
        self.sum(C::RemoteBytes)
    }

    // ---- tile-cache counters (distributed read path) ----

    pub(crate) fn record_cache_hit(&self, bytes: usize) {
        self.add(C::CacheHits, 1);
        self.add(C::CacheHitBytes, bytes as u64);
    }
    pub(crate) fn record_cache_join(&self, bytes: usize) {
        self.add(C::CacheJoins, 1);
        self.add(C::CacheHitBytes, bytes as u64);
    }
    pub(crate) fn record_cache_miss(&self) {
        self.add(C::CacheMisses, 1);
    }
    pub(crate) fn record_cache_invalidations(&self, n: u64) {
        self.add(C::CacheInvalidations, n);
    }
    pub(crate) fn record_remote_get_bytes(&self, bytes: usize) {
        self.add(C::RemoteGetBytes, bytes as u64);
    }
    pub(crate) fn record_stale_read(&self) {
        self.add(C::StaleReads, 1);
    }
    pub(crate) fn record_cache_retained(&self, n: u64) {
        self.add(C::CacheRetained, n);
    }
    pub(crate) fn record_verify_get_bytes(&self, bytes: usize) {
        self.add(C::VerifyGetBytes, bytes as u64);
    }

    /// Gets served entirely from the local tile cache.
    pub fn cache_hits(&self) -> u64 {
        self.sum(C::CacheHits)
    }
    /// Gets that joined an in-flight fill of the same block and shared
    /// its wire transfer.
    pub fn cache_joins(&self) -> u64 {
        self.sum(C::CacheJoins)
    }
    /// Gets that missed the cache and fetched over the wire.
    pub fn cache_misses(&self) -> u64 {
        self.sum(C::CacheMisses)
    }
    /// Cached blocks dropped because a local or incoming Put/Acc
    /// overlapped them (or a sync flushed them).
    pub fn cache_invalidations(&self) -> u64 {
        self.sum(C::CacheInvalidations)
    }
    /// Bytes served from cached blocks (hits and joins).
    pub fn cache_hit_bytes(&self) -> u64 {
        self.sum(C::CacheHitBytes)
    }
    /// Remote bytes the get path requested from the comm endpoint for
    /// the application's reads. With [`Self::verify_get_bytes`] it
    /// reconciles against the endpoint's `get_req_bytes`.
    pub fn remote_get_bytes(&self) -> u64 {
        self.sum(C::RemoteGetBytes)
    }
    /// Remote bytes the `verify_reads` oracle fetched to re-check cache
    /// hits (zero with verification off).
    pub fn verify_get_bytes(&self) -> u64 {
        self.sum(C::VerifyGetBytes)
    }
    /// Verified cache hits whose cached block differed from the owner's
    /// shard (must stay zero; counted only in `verify_reads` mode).
    pub fn stale_reads(&self) -> u64 {
        self.sum(C::StaleReads)
    }
    /// Entries of frozen (read-only) arrays that survived a sync flush,
    /// summed over flushes — the epoch-retention payoff.
    pub fn cache_retained(&self) -> u64 {
        self.sum(C::CacheRetained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_has_a_name() {
        assert_eq!(C::VerifyGetBytes as usize + 1, NAMES.len());
        let stats = GaStats::default();
        stats.record_cache_retained(7);
        stats.record_verify_get_bytes(8);
        let shown = format!("{stats:?}");
        assert!(shown.contains("cache_retained: 7") && shown.contains("verify_get_bytes: 8"));
    }
}
