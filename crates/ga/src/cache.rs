//! Per-rank read-through tile cache for distributed GA gets.
//!
//! CCSD reads are block-shaped and read-mostly: the `t2`/`v` operand
//! tensors are frozen once filled, and many chains (and every later run)
//! re-fetch the same blocks. The cache keys completed gets by
//! `(array, offset, len)` — the TCE hash-block identity — and serves
//! repeats from local memory, turning the dominant wire cost into a
//! memcpy, or into nothing for a reader that takes the shared block.
//!
//! Coherence (documented in DESIGN.md §4.6) is invalidate-on-mutate plus
//! flush-at-sync: any local Put/Acc and any *incoming* Put/Acc applied to
//! this rank's shard drops every overlapping entry immediately (so a
//! rank always reads its own writes, and reads of locally-owned data
//! mutated by a peer refetch), while third-party mutations to other
//! ranks' shards become visible exactly where GA's relaxed model makes
//! them visible: at `sync`, which flushes the gang's entries — all but
//! those of frozen arrays, which nobody can write and so never go stale.
//!
//! Request coalescing lives here too: the first reader of an uncached
//! block installs an in-flight [`Fill`] and owns the wire transfer;
//! later readers of the same block park a [`Waiter`] on it, and the one
//! completion serves everyone. This is the only place identical reads
//! merge — whole-block requests, before they ever split by owner; the
//! comm endpoint below transfers every get it is handed.

use crate::stats::GaStats;
use crate::{GaGetCallback, GaSharedCallback};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Tile-cache tuning knobs.
#[derive(Debug, Clone)]
pub struct TileCacheConfig {
    /// Byte budget for cached blocks; FIFO eviction beyond it (default
    /// 256 MiB — comfortably the working set of the bench scales).
    pub capacity_bytes: usize,
    /// Paranoia mode for chaos gates: every hit also fetches the block
    /// fresh from its owners and counts a `stale_read` on mismatch.
    pub verify_reads: bool,
}

impl Default for TileCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 256 * 1024 * 1024,
            verify_reads: false,
        }
    }
}

/// Cache key: the block identity of one get.
type Key = (usize, usize, usize); // (array, offset, len)

/// How a read wants its block: in its own buffer, or as a shared
/// immutable block — which a hit serves with the cached block itself.
pub(crate) enum Reader {
    Owned(GaGetCallback),
    Shared(GaSharedCallback),
}

impl Reader {
    /// The callback for a freshly assembled buffer of this reader's.
    pub(crate) fn into_owned(self) -> GaGetCallback {
        match self {
            Reader::Owned(cb) => cb,
            Reader::Shared(cb) => Box::new(move |buf| cb(Arc::new(buf))),
        }
    }
}

/// A reader parked on an in-flight fill: its destination buffer and
/// completion callback, served by the fill owner's completion.
pub(crate) struct Waiter {
    pub buf: Vec<f64>,
    pub cb: GaGetCallback,
}

/// One in-flight block fetch that later identical reads coalesce onto.
pub(crate) struct Fill {
    key: Key,
    waiters: Mutex<Vec<Waiter>>,
}

enum Slot {
    Ready(Arc<Vec<f64>>),
    Filling(Arc<Fill>),
}

/// One array's entries, by `(offset, len)`.
type Blocks = HashMap<(usize, usize), Slot>;

struct CacheState {
    /// Entries grouped by array, so an invalidation visits only the
    /// written array's blocks (a `WRITE_C` accumulate never walks the
    /// retained blocks of the frozen operands).
    arrays: HashMap<usize, Blocks>,
    /// FIFO eviction order of Ready entries.
    order: VecDeque<Key>,
    bytes: usize,
}

impl CacheState {
    fn get(&self, &(a, o, l): &Key) -> Option<&Slot> {
        self.arrays.get(&a)?.get(&(o, l))
    }

    fn insert(&mut self, (a, o, l): Key, slot: Slot) {
        self.arrays.entry(a).or_default().insert((o, l), slot);
    }

    fn remove(&mut self, &(a, o, l): &Key) -> Option<Slot> {
        let blocks = self.arrays.get_mut(&a)?;
        let slot = blocks.remove(&(o, l));
        if blocks.is_empty() {
            self.arrays.remove(&a);
        }
        slot
    }

    /// Drop `array`'s entries that `doomed(offset, len)` selects; the
    /// number dropped.
    fn drop_where(&mut self, array: usize, doomed: impl Fn(usize, usize) -> bool) -> u64 {
        let Some(blocks) = self.arrays.get_mut(&array) else {
            return 0;
        };
        let (mut n, mut freed) = (0u64, 0usize);
        blocks.retain(|&(o, l), slot| {
            if !doomed(o, l) {
                return true;
            }
            if matches!(slot, Slot::Ready(_)) {
                freed += l * 8;
            }
            n += 1;
            false
        });
        if blocks.is_empty() {
            self.arrays.remove(&array);
        }
        self.bytes -= freed;
        n
    }
}

/// Outcome of a cache lookup; buffer and reader flow back to the
/// caller on the paths where the caller still completes the read.
pub(crate) enum Lookup {
    /// Cached: hand `data` to the reader (copied into `buf`, or shared).
    Hit {
        data: Arc<Vec<f64>>,
        buf: Vec<f64>,
        cb: Reader,
    },
    /// Parked on an in-flight fill; the fill owner completes this reader.
    Joined,
    /// Miss: the caller owns the transfer and must call
    /// [`TileCache::complete`] with this fill when the block lands.
    Fill {
        fill: Arc<Fill>,
        buf: Vec<f64>,
        cb: Reader,
    },
}

/// The per-rank read-through cache. Shared between the owning `Ga` (read
/// path) and its `DistStore` (invalidation on incoming mutations).
pub struct TileCache {
    cfg: TileCacheConfig,
    stats: Arc<GaStats>,
    state: Mutex<CacheState>,
}

impl TileCache {
    pub(crate) fn new(cfg: TileCacheConfig, stats: Arc<GaStats>) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            stats,
            state: Mutex::new(CacheState {
                arrays: HashMap::new(),
                order: VecDeque::new(),
                bytes: 0,
            }),
        })
    }

    pub(crate) fn verify_reads(&self) -> bool {
        self.cfg.verify_reads
    }

    /// Look up `key`, registering as a waiter or installing a fresh fill
    /// on miss. Counters are recorded here; the caller acts on the
    /// returned variant.
    pub(crate) fn lookup(&self, key: Key, buf: Vec<f64>, cb: Reader) -> Lookup {
        let mut st = self.state.lock();
        match st.get(&key) {
            Some(Slot::Ready(data)) => {
                let data = data.clone();
                drop(st);
                self.stats.record_cache_hit(key.2 * 8);
                Lookup::Hit { data, buf, cb }
            }
            Some(Slot::Filling(fill)) => {
                let cb = cb.into_owned();
                fill.waiters.lock().push(Waiter { buf, cb });
                drop(st);
                self.stats.record_cache_join(key.2 * 8);
                Lookup::Joined
            }
            None => {
                let fill = Arc::new(Fill {
                    key,
                    waiters: Mutex::new(Vec::new()),
                });
                st.insert(key, Slot::Filling(fill.clone()));
                drop(st);
                self.stats.record_cache_miss();
                Lookup::Fill { fill, buf, cb }
            }
        }
    }

    /// The completion of `fill`'s wire transfer: deposit the assembled
    /// block, serve every reader parked on it, then the owner's `cb`.
    pub(crate) fn completion(
        self: &Arc<Self>,
        fill: Arc<Fill>,
        cb: GaGetCallback,
    ) -> GaGetCallback {
        let cache = self.clone();
        Box::new(move |assembled: Vec<f64>| {
            for mut w in cache.complete(&fill, &assembled) {
                w.buf.copy_from_slice(&assembled);
                (w.cb)(w.buf);
            }
            cb(assembled);
        })
    }

    /// Deposit a completed fill's block and collect its parked waiters.
    /// If the entry was invalidated (or replaced by a newer fill) while
    /// in flight, the block is *not* cached — the waiters still get the
    /// data they asked for, but no later read can hit the pre-mutation
    /// copy.
    pub(crate) fn complete(&self, fill: &Arc<Fill>, data: &[f64]) -> Vec<Waiter> {
        let mut st = self.state.lock();
        let still_ours = matches!(
            st.get(&fill.key),
            Some(Slot::Filling(f)) if Arc::ptr_eq(f, fill)
        );
        if still_ours {
            st.insert(fill.key, Slot::Ready(Arc::new(data.to_vec())));
            st.order.push_back(fill.key);
            st.bytes += fill.key.2 * 8;
            // FIFO eviction; in-flight fills are never evicted.
            while st.bytes > self.cfg.capacity_bytes {
                let Some(old) = st.order.pop_front() else {
                    break;
                };
                if matches!(st.get(&old), Some(Slot::Ready(_))) {
                    st.remove(&old);
                    st.bytes -= old.2 * 8;
                }
            }
        }
        // Waiters are taken under the cache lock so no new reader can
        // register between the map update and the drain.
        let waiters = std::mem::take(&mut *fill.waiters.lock());
        drop(st);
        waiters
    }

    /// Drop every entry of `array` overlapping `[offset, offset+len)` —
    /// called on local mutations *and* on incoming Put/Acc applied to
    /// this rank's shard. In-flight fills are detached (their completion
    /// will not be cached).
    pub(crate) fn invalidate_overlap(&self, array: usize, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let n = self
            .state
            .lock()
            .drop_where(array, |o, l| o < end && offset < o + l);
        if n > 0 {
            self.stats.record_cache_invalidations(n);
        }
    }

    /// Drop every entry of `array` (collective `zero`, `destroy`).
    pub(crate) fn invalidate_array(&self, array: usize) {
        let n = self.state.lock().drop_where(array, |_, _| true);
        if n > 0 {
            self.stats.record_cache_invalidations(n);
        }
    }

    /// The `sync` boundary of the gang whose id namespace is `tag`,
    /// where GA's relaxed model makes the gang's mutations globally
    /// visible: drop the gang's entries, except those of the `frozen`
    /// arrays. Nobody can write a frozen array, so its blocks stay exact
    /// across epochs — that retention is what lets every run after the
    /// first over the same operands start warm. Another concurrent
    /// gang's entries are untouched: its sync makes only its own
    /// mutations visible, and flushing here would be a cross-job
    /// perturbation (the hazard the namespaced ids exist to prevent).
    pub(crate) fn flush_scope(&self, tag: u32, frozen: &[usize]) {
        let mut st = self.state.lock();
        let CacheState {
            arrays,
            order,
            bytes,
        } = &mut *st;
        let mut dropped_bytes = 0usize;
        let (mut flushed, mut retained) = (0u64, 0u64);
        arrays.retain(|&a, blocks| {
            if crate::distga::ns_tag(a) != tag {
                return true; // another gang's scope: untouched
            }
            if frozen.contains(&a) {
                retained += blocks.len() as u64;
                return true;
            }
            for (&(_, l), slot) in blocks.iter() {
                if matches!(slot, Slot::Ready(_)) {
                    dropped_bytes += l * 8;
                }
            }
            flushed += blocks.len() as u64;
            false
        });
        order.retain(|&(a, o, l)| arrays.get(&a).is_some_and(|b| b.contains_key(&(o, l))));
        *bytes -= dropped_bytes;
        drop(st);
        if flushed > 0 {
            self.stats.record_cache_invalidations(flushed);
        }
        if retained > 0 {
            self.stats.record_cache_retained(retained);
        }
    }

    /// Cached bytes right now (tests).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.state.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> Arc<TileCache> {
        TileCache::new(
            TileCacheConfig {
                capacity_bytes: cap,
                verify_reads: false,
            },
            Arc::new(GaStats::default()),
        )
    }

    fn nop_cb() -> Reader {
        Reader::Owned(Box::new(|_| {}))
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let c = cache(1 << 20);
        let key = (0, 8, 4);
        let Lookup::Fill { fill, .. } = c.lookup(key, vec![0.0; 4], nop_cb()) else {
            panic!("first lookup must miss");
        };
        // A second reader of the same block parks on the fill.
        assert!(matches!(
            c.lookup(key, vec![0.0; 4], nop_cb()),
            Lookup::Joined
        ));
        let waiters = c.complete(&fill, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(waiters.len(), 1);
        match c.lookup(key, vec![0.0; 4], nop_cb()) {
            Lookup::Hit { data, .. } => assert_eq!(*data, vec![1.0, 2.0, 3.0, 4.0]),
            _ => panic!("third lookup must hit"),
        }
        assert_eq!(c.stats.cache_hits(), 1);
        assert_eq!(c.stats.cache_joins(), 1);
        assert_eq!(c.stats.cache_misses(), 1);
    }

    #[test]
    fn overlap_invalidation_is_range_exact() {
        let c = cache(1 << 20);
        for off in [0usize, 10, 20] {
            let Lookup::Fill { fill, .. } = c.lookup((3, off, 10), vec![0.0; 10], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[off as f64; 10]);
        }
        // Touches [10, 20) only.
        c.invalidate_overlap(3, 15, 3);
        assert!(matches!(
            c.lookup((3, 0, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup((3, 20, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert!(matches!(
            c.lookup((3, 10, 10), vec![0.0; 10], nop_cb()),
            Lookup::Fill { .. }
        ));
        // Other arrays untouched.
        c.invalidate_overlap(4, 0, 100);
        assert!(matches!(
            c.lookup((3, 0, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
        assert_eq!(c.stats.cache_invalidations(), 1);
    }

    #[test]
    fn invalidated_fill_is_not_cached() {
        let c = cache(1 << 20);
        let key = (0, 0, 2);
        let Lookup::Fill { fill, .. } = c.lookup(key, vec![0.0; 2], nop_cb()) else {
            panic!("miss expected");
        };
        // Mutation lands while the fill is in flight.
        c.invalidate_overlap(0, 1, 1);
        let waiters = c.complete(&fill, &[9.0, 9.0]);
        assert!(waiters.is_empty());
        // The stale block must not have been cached.
        assert!(matches!(
            c.lookup(key, vec![0.0; 2], nop_cb()),
            Lookup::Fill { .. }
        ));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let c = cache(3 * 10 * 8); // room for three 10-element blocks
        for off in [0usize, 10, 20, 30] {
            let Lookup::Fill { fill, .. } = c.lookup((0, off, 10), vec![0.0; 10], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[0.0; 10]);
        }
        assert!(c.resident_bytes() <= 3 * 10 * 8);
        // Oldest block evicted, newest resident.
        assert!(matches!(
            c.lookup((0, 0, 10), vec![0.0; 10], nop_cb()),
            Lookup::Fill { .. }
        ));
        assert!(matches!(
            c.lookup((0, 30, 10), vec![0.0; 10], nop_cb()),
            Lookup::Hit { .. }
        ));
    }

    #[test]
    fn frozen_arrays_survive_flush_but_others_do_not() {
        let c = cache(1 << 20);
        for (a, off) in [(1usize, 0usize), (1, 8), (2, 0)] {
            let Lookup::Fill { fill, .. } = c.lookup((a, off, 4), vec![0.0; 4], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[a as f64; 4]);
        }
        c.flush_scope(0, &[1]);
        // Frozen array 1 stays warm; array 2 is flushed.
        for off in [0, 8] {
            match c.lookup((1, off, 4), vec![0.0; 4], nop_cb()) {
                Lookup::Hit { data, .. } => assert_eq!(*data, vec![1.0; 4]),
                _ => panic!("a frozen array's block must survive the flush"),
            }
        }
        assert!(matches!(
            c.lookup((2, 0, 4), vec![0.0; 4], nop_cb()),
            Lookup::Fill { .. }
        ));
        assert_eq!(c.resident_bytes(), 2 * 4 * 8);
        assert_eq!(c.stats.cache_retained(), 2);
        // Another namespace's sync leaves this one's entries alone.
        c.flush_scope(1, &[]);
        assert_eq!(c.resident_bytes(), 2 * 4 * 8);
        // Dropping the array (destroy) drops its retained blocks.
        c.invalidate_array(1);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn invalidating_one_array_leaves_the_others_alone() {
        let c = cache(1 << 20);
        let fill = |a: usize, off: usize| {
            let Lookup::Fill { fill, .. } = c.lookup((a, off, 4), vec![0.0; 4], nop_cb()) else {
                panic!("miss expected");
            };
            c.complete(&fill, &[a as f64; 4]);
        };
        // Array 1 is frozen and retained across a sync; array 2 is
        // written every run.
        fill(1, 0);
        fill(1, 4);
        c.flush_scope(0, &[1]);
        fill(2, 0);
        fill(2, 4);
        c.invalidate_overlap(2, 0, 8);
        assert_eq!(c.stats.cache_invalidations(), 2);
        fill(2, 0);
        c.invalidate_array(2);
        assert_eq!(c.stats.cache_invalidations(), 3);
        // An array with no entries at all is a no-op.
        c.invalidate_overlap(7, 0, 100);
        c.invalidate_array(7);
        assert_eq!(c.stats.cache_invalidations(), 3);
        for off in [0, 4] {
            match c.lookup((1, off, 4), vec![0.0; 4], nop_cb()) {
                Lookup::Hit { data, .. } => assert_eq!(*data, vec![1.0; 4]),
                _ => panic!("array 1's retained block was dropped by array 2's writes"),
            }
        }
        assert_eq!(c.resident_bytes(), 2 * 4 * 8);
    }

    #[test]
    fn flush_empties_everything() {
        let c = cache(1 << 20);
        let Lookup::Fill { fill, .. } = c.lookup((1, 0, 4), vec![0.0; 4], nop_cb()) else {
            panic!("miss expected");
        };
        c.complete(&fill, &[1.0; 4]);
        c.flush_scope(0, &[]);
        assert_eq!(c.resident_bytes(), 0);
        assert!(matches!(
            c.lookup((1, 0, 4), vec![0.0; 4], nop_cb()),
            Lookup::Fill { .. }
        ));
    }
}
