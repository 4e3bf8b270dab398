//! Pooled tile memory for the data path.
//!
//! Every task body in the chain data path works on short-lived `Vec<f64>`
//! tile buffers: operand tiles pulled from the Global Array, private C
//! accumulators, sort scratch, GEMM packing panels. Allocating these per
//! task puts the allocator's lock and page-zeroing on the critical path of
//! every GEMM — the same class of overhead the paper attributes to the
//! original code's per-call buffer management. [`TilePool`] is a sharded
//! free-list allocator: buffers are checked out by size class, recycled on
//! release, and after a warm-up pass the steady state serves every request
//! from a free list — zero heap allocations per task.
//!
//! Sharding mirrors [`crate::shard::ShardMap`]: each shard is a small
//! padded mutex around `size class -> free list` plus its own counters,
//! and each thread that touches the pool is handed its own home shard in
//! turn, so concurrent checkouts by different workers touch different
//! locks and different cache lines — a checkout's whole footprint is its
//! home shard. Homes are handed out per native run, not per thread for
//! life: every worker forgets its home as a run starts (`rehome`), the
//! calling thread — worker 0 of every run — included, so a run's workers
//! take consecutive homes and never share one. A checkout that misses
//! its home shard scans the others before allocating fresh — recycled
//! buffers are never stranded on a home no worker holds any more (a
//! spawned worker's, once its thread has exited), which keeps repeat
//! runs miss-free even though the homes change between runs.
//! [`TilePool::stats`] sums the shards' counters.

use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use ptg::Payload;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest pooled size class (doubles). Requests below this still round
/// up to it; buffers whose capacity fell below it are dropped on recycle
/// rather than pooled.
const MIN_CLASS: usize = 8;

/// Snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from a free list.
    pub hits: u64,
    /// Checkouts that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers returned to a free list.
    pub recycles: u64,
    /// Copy-on-write clones taken by [`TilePool::own`] because the
    /// payload was still shared.
    pub cow_clones: u64,
    /// Bytes of fresh capacity ever allocated through the pool.
    pub bytes_allocated: u64,
}

impl PoolStats {
    /// Fraction of checkouts served without allocating (1.0 when warm).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }

    fn add(&mut self, o: &PoolStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.recycles += o.recycles;
        self.cow_clones += o.cow_clones;
        self.bytes_allocated += o.bytes_allocated;
    }
}

/// One shard: free lists by size class, and the counters of the
/// operations that took this shard's lock.
#[derive(Default)]
struct Shard {
    free: HashMap<usize, Vec<Vec<f64>>>,
    stats: PoolStats,
}

impl Shard {
    fn pop(&mut self, class: usize) -> Option<Vec<f64>> {
        self.free.get_mut(&class).and_then(Vec::pop)
    }
}

/// Sharded free-list allocator for `f64` tile buffers.
pub struct TilePool {
    shards: Vec<CachePadded<Mutex<Shard>>>,
    /// Next home shard to hand a newly arriving thread.
    next_home: AtomicUsize,
}

thread_local! {
    /// The pool this thread last used and its home shard there.
    static HOME: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Forget the calling thread's home shard: its next checkout or recycle,
/// in any pool, takes a fresh home round-robin. Every worker of a native
/// run calls this as it starts, the calling thread included, so a run's
/// workers take consecutive homes, exactly as threads spawned for the
/// run would.
pub(crate) fn rehome() {
    HOME.with(|h| h.set((0, 0)));
}

impl Default for TilePool {
    fn default() -> Self {
        Self::new(8)
    }
}

/// Size class of a requested length: next power of two, floored at
/// [`MIN_CLASS`]. Every buffer in class `c`'s free list has capacity
/// `>= c`.
fn class_of(len: usize) -> usize {
    len.next_power_of_two().max(MIN_CLASS)
}

impl TilePool {
    /// Pool with at least `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(Shard::default())))
                .collect(),
            next_home: AtomicUsize::new(0),
        }
    }

    /// The calling thread's home shard: handed out round-robin the first
    /// time a thread checks out or recycles here (and again if it used
    /// another pool since), so the first `shards` threads each get their
    /// own.
    pub(crate) fn home(&self) -> usize {
        let me = self as *const Self as usize;
        HOME.with(|h| {
            let (pool, home) = h.get();
            if pool == me {
                return home;
            }
            let home = self.next_home.fetch_add(1, Ordering::Relaxed) % self.shards.len();
            h.set((me, home));
            home
        })
    }

    fn lock(&self, idx: usize) -> MutexGuard<'_, Shard> {
        self.shards[idx].lock()
    }

    /// Check out a buffer of class `class`: a free one from the home
    /// shard, else from any other shard, else a fresh allocation. Each
    /// hit is counted in the shard it came from, a miss in the home
    /// shard.
    fn take(&self, class: usize) -> Option<Vec<f64>> {
        let home = self.home();
        let n = self.shards.len();
        for off in 0..n {
            let mut shard = self.lock((home + off) % n);
            if let Some(v) = shard.pop(class) {
                shard.stats.hits += 1;
                return Some(v);
            }
        }
        let mut shard = self.lock(home);
        shard.stats.misses += 1;
        shard.stats.bytes_allocated += (class * 8) as u64;
        None
    }

    /// Check out a zeroed buffer of exactly `len` elements (capacity is
    /// the size class, so recycling round-trips by class).
    pub fn checkout(&self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let class = class_of(len);
        let mut v = self
            .take(class)
            .unwrap_or_else(|| Vec::with_capacity(class));
        v.clear();
        v.resize(len, 0.0);
        v
    }

    /// Check out a buffer of `len` elements with **unspecified contents**
    /// (stale values from its previous tenant), skipping the zeroing
    /// pass of [`checkout`]. For consumers that fully overwrite the
    /// buffer — scatter/overwrite GEMM writebacks, `sort_4` staging
    /// tiles — the zero fill is a wasted round trip over the tile.
    pub fn checkout_dirty(&self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let class = class_of(len);
        let mut v = self
            .take(class)
            .unwrap_or_else(|| Vec::with_capacity(class));
        // Only elements past the previous length (still within the
        // initialized capacity class after a recycle round trip, but
        // possibly never written) need a defined value.
        if v.len() < len {
            v.resize(len, 0.0);
        } else {
            v.truncate(len);
        }
        v
    }

    /// Return a buffer to the pool. Buffers too small to pool are dropped.
    pub fn recycle(&self, v: Vec<f64>) {
        // Class from the capacity, rounded *down*, so everything filed
        // under class c really has capacity >= c even for buffers the
        // pool did not originally allocate.
        let cap = v.capacity();
        if cap < MIN_CLASS {
            return;
        }
        let class = if cap.is_power_of_two() {
            cap
        } else {
            cap.next_power_of_two() / 2
        };
        let mut shard = self.lock(self.home());
        shard.stats.recycles += 1;
        shard.free.entry(class).or_default().push(v);
    }

    /// Recycle the buffer behind `p` if this was the last reference;
    /// otherwise just drop the reference.
    pub fn release(&self, p: Payload) {
        if let Ok(v) = std::sync::Arc::try_unwrap(p) {
            self.recycle(v);
        }
    }

    /// Take ownership of a payload's buffer: in-place when this is the
    /// last reference, copy-on-write through the pool when it is still
    /// shared (counted in [`PoolStats::cow_clones`]).
    pub fn own(&self, p: Payload) -> Vec<f64> {
        match std::sync::Arc::try_unwrap(p) {
            Ok(v) => v,
            Err(shared) => {
                self.lock(self.home()).stats.cow_clones += 1;
                let mut v = self.checkout(shared.len());
                v.copy_from_slice(&shared);
                v
            }
        }
    }

    /// Counter snapshot: the shards' counters, summed.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for i in 0..self.shards.len() {
            total.add(&self.lock(i).stats);
        }
        total
    }

    /// Free buffers currently held, across all shards and classes.
    pub fn free_buffers(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock(i).free.values().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn checkout_recycle_roundtrip_hits() {
        let pool = TilePool::new(4);
        let v = pool.checkout(100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(pool.stats().misses, 1);
        pool.recycle(v);
        // Same class (128) is served from the free list, zeroed again.
        let mut v2 = pool.checkout(70);
        assert_eq!(v2.len(), 70);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        v2[0] = 3.0;
        pool.recycle(v2);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn checkout_dirty_skips_the_zero_pass() {
        let pool = TilePool::new(2);
        let mut v = pool.checkout(100);
        v.iter_mut().for_each(|x| *x = 7.0);
        pool.recycle(v);
        // Dirty checkout from the free list: stale contents survive
        // within the previous length, new elements are defined.
        let d = pool.checkout_dirty(100);
        assert_eq!(d.len(), 100);
        assert!(d.iter().all(|&x| x == 7.0), "stale contents expected");
        pool.recycle(d);
        let d2 = pool.checkout_dirty(120);
        assert_eq!(d2.len(), 120);
        assert!(d2[100..].iter().all(|&x| x == 0.0), "growth is defined");
        // A miss still returns a fully defined buffer.
        let m = pool.checkout_dirty(1000);
        assert_eq!(m.len(), 1000);
        assert!(m.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn distinct_classes_do_not_mix() {
        let pool = TilePool::new(2);
        pool.recycle(vec![0.0; 64]); // class 64
        let v = pool.checkout(100); // class 128: must miss
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
        pool.recycle(v);
        let _ = pool.checkout(33); // class 64: hit
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn foreign_capacity_files_under_floor_class() {
        let pool = TilePool::new(2);
        let mut v = Vec::with_capacity(100); // not a power of two
        v.resize(100, 1.0);
        pool.recycle(v); // filed under class 64
        let got = pool.checkout(60);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(got.len(), 60);
        assert!(got.iter().all(|&x| x == 0.0), "checkout must zero");
    }

    #[test]
    fn own_unique_reuses_shared_clones() {
        let pool = TilePool::new(2);
        let unique: Payload = Arc::new(vec![1.0; 32]);
        let v = pool.own(unique);
        assert_eq!(v, vec![1.0; 32]);
        assert_eq!(pool.stats().cow_clones, 0);

        let shared: Payload = Arc::new(vec![2.0; 32]);
        let keep = shared.clone();
        let w = pool.own(shared);
        assert_eq!(w, vec![2.0; 32]);
        assert_eq!(*keep, vec![2.0; 32]);
        assert_eq!(pool.stats().cow_clones, 1);
    }

    #[test]
    fn release_recycles_only_last_ref() {
        let pool = TilePool::new(2);
        let p: Payload = Arc::new(pool.checkout(16));
        let q = p.clone();
        pool.release(p);
        assert_eq!(pool.free_buffers(), 0);
        pool.release(q);
        assert_eq!(pool.free_buffers(), 1);
        assert_eq!(pool.stats().recycles, 1);
    }

    #[test]
    fn cross_shard_fallback_finds_other_threads_buffers() {
        // Recycle from many different threads (different home shards),
        // then check out everything from this one: the fallback scan must
        // find every buffer without a single miss.
        let pool = Arc::new(TilePool::new(8));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || pool.recycle(vec![0.0; 256]));
            }
        });
        let before = pool.stats().misses;
        let got: Vec<_> = (0..8).map(|_| pool.checkout(256)).collect();
        assert_eq!(got.len(), 8);
        assert_eq!(pool.stats().misses, before);
        assert_eq!(pool.stats().hits, 8);
    }

    #[test]
    fn threads_get_distinct_home_shards() {
        let pool = TilePool::new(8);
        let homes: Vec<usize> = std::thread::scope(|s| {
            let a = s.spawn(|| pool.home());
            let b = s.spawn(|| pool.home());
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        assert_ne!(homes[0], homes[1]);
        // A thread keeps its home from call to call.
        let mine = pool.home();
        assert_eq!(pool.home(), mine);
    }

    #[test]
    fn zero_length_checkout_is_free() {
        let pool = TilePool::new(1);
        let v = pool.checkout(0);
        assert!(v.is_empty());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        pool.recycle(v); // capacity 0: dropped, not pooled
        assert_eq!(pool.free_buffers(), 0);
        assert!((s.hit_rate() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let pool = TilePool::new(4);
        // Warm-up: the working set is two live buffers of each of three
        // sizes.
        for _ in 0..2 {
            let a = pool.checkout(40);
            let b = pool.checkout(40);
            let c = pool.checkout(500);
            let d = pool.checkout(9000);
            pool.recycle(a);
            pool.recycle(b);
            pool.recycle(c);
            pool.recycle(d);
        }
        let warm = pool.stats();
        for _ in 0..100 {
            let a = pool.checkout(40);
            let b = pool.checkout(40);
            let c = pool.checkout(500);
            let d = pool.checkout(9000);
            pool.recycle(a);
            pool.recycle(b);
            pool.recycle(c);
            pool.recycle(d);
        }
        let s = pool.stats();
        assert_eq!(s.misses, warm.misses, "steady state must not allocate");
        assert_eq!(s.bytes_allocated, warm.bytes_allocated);
        assert_eq!(s.hits, warm.hits + 400);
    }
}
