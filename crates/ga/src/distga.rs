//! The shard store: one logical node's slice of every array.
//!
//! A distributed rank holds one [`DistStore`], and the comm progress
//! engine answers remote `Get`/`Put`/`Acc`/`NxtVal` active messages
//! against it — the real shape of GA's data server. An in-process
//! [`crate::Ga`] holds one per logical node. [`crate::Ga`] methods split
//! every range by owner: pieces of a held store short-circuit to memcpy,
//! remote pieces go on the wire.

use crate::cache::TileCache;
use crate::dist::Distribution;
use crate::stats::{thread_slot, SLOTS};
use crate::{GaGetCallback, GangView};
use comm::{Endpoint, ShardStore, WireSlice};
use parking_lot::{Condvar as PlCondvar, Mutex};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

/// Array ids are namespaced by gang tag: `id = (tag << NS_SHIFT) | idx`,
/// where `idx` is the allocation ordinal *within* that gang's namespace.
/// Tag 0 is the full mesh (the PR-8 layout, so single-gang runs are
/// bit-identical); a job gang's tag packs its leader rank and size.
/// Concurrent gangs therefore can never collide on an array id, which is
/// what makes allocation-order handles safe when disjoint jobs create
/// arrays at unrelated times.
pub(crate) const NS_SHIFT: u32 = 18;

/// Namespace tag of an array id.
pub(crate) fn ns_tag(h: usize) -> u32 {
    (h >> NS_SHIFT) as u32
}

struct DistArray {
    dist: Distribution,
    /// Global offsets of this rank's shard (the gang-logical node's owned
    /// range — precomputed because the store does not know which logical
    /// node this rank is within each array's gang).
    owned: Range<usize>,
    /// This rank's owned slice, indexed by `global - owned.start`.
    shard: Mutex<Vec<f64>>,
    /// Set once by [`crate::Ga::freeze`], never cleared: the array's one
    /// read-only flag, which every `Ga` instance over this store reads —
    /// the write guard, and the sync flush that keeps its cached blocks
    /// (a `Release` store in `freeze`, `Acquire` loads in both readers).
    frozen: AtomicBool,
}

impl DistArray {
    fn new(dist: Distribution, owned: Range<usize>, shard: Vec<f64>) -> Arc<Self> {
        Arc::new(Self {
            dist,
            owned,
            shard: Mutex::new(shard),
            frozen: AtomicBool::new(false),
        })
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Copy the owned global range `[offset, offset+out.len())` out.
    fn copy_out(&self, offset: usize, out: &mut [f64]) {
        let s = offset - self.owned.start;
        out.copy_from_slice(&self.shard.lock()[s..s + out.len()]);
    }
}

/// The store's live arrays as one thread slot sees them, on cache lines
/// of its own.
#[derive(Default)]
#[repr(align(128))]
struct View(Mutex<BTreeMap<u32, Arc<DistArray>>>);

#[derive(Default)]
struct StoreState {
    arrays: HashMap<u32, Arc<DistArray>>,
    /// Next allocation ordinal per namespace tag.
    next_idx: HashMap<u32, u32>,
    /// Destroyed ids (plan-cache eviction). Kept as tombstones so a late
    /// or duplicated wire request against a destroyed array is answered
    /// with zeros / dropped instead of waiting 30s for a create that
    /// will never come.
    destroyed: HashSet<u32>,
}

/// One logical node's shards of every created array. On a rank the comm
/// progress engine holds one reference (to serve remote requests) and
/// the owning [`crate::Ga`] another (for in-place pieces); an in-process
/// [`crate::Ga`] holds one store per node and no endpoint.
pub struct DistStore {
    rank: usize,
    state: Mutex<StoreState>,
    /// Per thread slot, a copy of `state.arrays`. Every lookup goes
    /// through the caller's view first, so the all-local read path takes
    /// no store-wide lock and bumps no shared refcount: it borrows the
    /// array under a lock only its own thread slot takes. Writers
    /// (create, destroy) refresh every view under the state
    /// lock, so a destroyed array leaves every view at once — no thread
    /// keeps it alive.
    views: Box<[View]>,
    created: PlCondvar,
    /// The owning `Ga`'s tile cache, attached at `init_dist_cfg`. Every
    /// shard mutation — the local fast paths *and* incoming `Put`/`Acc`
    /// active messages, which the progress engine applies through the
    /// same methods — invalidates overlapping cached blocks here.
    cache: OnceLock<Arc<TileCache>>,
}

impl DistStore {
    /// Empty store for `rank` of `nranks`.
    pub fn new(rank: usize, nranks: usize) -> Arc<Self> {
        assert!(rank < nranks, "rank {rank} out of range for {nranks}");
        Arc::new(Self {
            rank,
            state: Mutex::new(StoreState::default()),
            views: (0..SLOTS).map(|_| View::default()).collect(),
            created: PlCondvar::new(),
            cache: OnceLock::new(),
        })
    }

    pub(crate) fn attach_cache(&self, cache: Arc<TileCache>) {
        let _ = self.cache.set(cache);
    }

    /// This store's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The next array id of namespace `tag`. Collective over the gang's
    /// members: each member allocates the next id in the namespace, so
    /// members agree on ids as long as they process the gang's jobs in
    /// the same order.
    pub(crate) fn next_id(&self, tag: u32) -> usize {
        let mut st = self.state.lock();
        let idx = st.next_idx.entry(tag).or_insert(0);
        assert!(*idx < (1 << NS_SHIFT), "namespace {tag} exhausted");
        let id = ((tag as usize) << NS_SHIFT) | *idx as usize;
        *idx += 1;
        id
    }

    /// Allocate this store's shard of array `id`: `len` elements
    /// distributed over `nodes` logical nodes, of which this store holds
    /// `node`.
    pub(crate) fn insert(&self, id: usize, len: usize, nodes: usize, node: usize) {
        let dist = Distribution::new(len, nodes);
        let owned = dist.range_of(node);
        let shard = vec![0.0; owned.len()];
        let mut st = self.state.lock();
        st.arrays
            .insert(id as u32, DistArray::new(dist, owned, shard));
        self.refresh_views(&st);
        self.created.notify_all();
    }

    /// Make every view a copy of `st.arrays` (the caller holds the state
    /// lock, so views change in the order the state does).
    fn refresh_views(&self, st: &StoreState) {
        for v in self.views.iter() {
            *v.0.lock() = st.arrays.iter().map(|(&id, a)| (id, a.clone())).collect();
        }
    }

    /// Drop the array's shard and tombstone its id (plan-cache
    /// eviction). Safe only after every gang member has passed the
    /// settle barrier of every job that used the array; late *wire*
    /// traffic against the id (chaos duplicates) is served zeros or
    /// dropped via the tombstone.
    pub fn destroy(&self, h: usize) {
        {
            let mut st = self.state.lock();
            st.arrays.remove(&(h as u32));
            st.destroyed.insert(h as u32);
            self.refresh_views(&st);
        }
        self.created.notify_all();
        if let Some(c) = self.cache.get() {
            c.invalidate_array(h);
        }
    }

    /// `None` means destroyed. Looked up in the calling thread's view,
    /// else in the store's state (see [`Self::with_array`]).
    fn array(&self, h: usize) -> Option<Arc<DistArray>> {
        self.with_array(h, |a| a.cloned())
    }

    /// Run `f` on array `h` (`None`: destroyed) as the calling thread's
    /// view holds it — borrowed, no store lock, no refcount — falling
    /// back to the store's state when the view lacks it (destroyed, or
    /// not created here yet). `f` runs under the view's lock, so it must
    /// be short and must not call back into the store.
    fn with_array<R>(&self, h: usize, f: impl FnOnce(Option<&Arc<DistArray>>) -> R) -> R {
        let view = self.views[thread_slot()].0.lock();
        match view.get(&(h as u32)) {
            Some(a) => f(Some(a)),
            None => {
                drop(view);
                f(self.wait_for(h).as_ref())
            }
        }
    }

    /// The state's view of `h`. A missing id that is not tombstoned is
    /// awaited: creates are collective by convention but not
    /// synchronized, so a remote request can reach the progress thread
    /// before this rank's application thread has made the matching
    /// `create`. The request itself proves the create is coming.
    fn wait_for(&self, h: usize) -> Option<Arc<DistArray>> {
        let mut st = self.state.lock();
        loop {
            if let Some(a) = st.arrays.get(&(h as u32)) {
                return Some(a.clone());
            }
            if st.destroyed.contains(&(h as u32)) {
                return None;
            }
            if self
                .created
                .wait_for(&mut st, std::time::Duration::from_secs(30))
                .timed_out()
            {
                panic!(
                    "array {h} never created on rank {} ({} exist)",
                    self.rank,
                    st.arrays.len()
                );
            }
        }
    }

    /// For application paths that must never touch a destroyed array
    /// (only late wire duplicates legitimately can).
    fn used_after_destroy(&self, h: usize) -> ! {
        panic!("array {h} used after destroy on rank {}", self.rank)
    }

    /// As [`Self::array`], for application paths.
    fn live(&self, h: usize) -> Arc<DistArray> {
        self.array(h).unwrap_or_else(|| self.used_after_destroy(h))
    }

    pub(crate) fn dist_of(&self, h: usize) -> Distribution {
        self.live(h).dist.clone()
    }

    /// Mark `h` read-only for the rest of its life.
    pub(crate) fn freeze(&self, h: usize) {
        self.live(h).frozen.store(true, Ordering::Release);
    }

    /// As [`Self::dist_of`], for a caller about to mutate `h`: panics,
    /// naming `op` and the array, when `h` is frozen.
    pub(crate) fn dist_for_write(&self, h: usize, op: &str) -> Distribution {
        self.with_array(h, |a| {
            let a = a.unwrap_or_else(|| self.used_after_destroy(h));
            assert!(!a.is_frozen(), "{op} on frozen array {h}");
            a.dist.clone()
        })
    }

    /// The frozen arrays of namespace `tag`: the ones whose cached blocks
    /// outlive that gang's sync.
    pub(crate) fn frozen_in(&self, tag: u32) -> Vec<usize> {
        let st = self.state.lock();
        (st.arrays.iter())
            .filter(|(&id, a)| ns_tag(id as usize) == tag && a.is_frozen())
            .map(|(&id, _)| id as usize)
            .collect()
    }

    /// Copy the locally-owned global range `[offset, offset+out.len())`
    /// into `out`. The range must lie inside this rank's shard. A
    /// destroyed array reads as zeros (late duplicate gets after a plan
    /// eviction).
    pub(crate) fn read_local(&self, h: usize, offset: usize, out: &mut [f64]) {
        self.with_array(h, |a| match a {
            Some(a) => a.copy_out(offset, out),
            None => out.fill(0.0),
        })
    }

    /// The all-local get, resolved with one lookup: copy `[offset,
    /// offset+out.len())` into `out` if this rank owns all of it, else
    /// return false with `out` untouched. An application read, so a
    /// destroyed array panics.
    pub(crate) fn read_owned(&self, h: usize, offset: usize, out: &mut [f64]) -> bool {
        self.with_array(h, |a| {
            let Some(a) = a else {
                self.used_after_destroy(h)
            };
            let owned = offset >= a.owned.start && offset + out.len() <= a.owned.end;
            if owned {
                a.copy_out(offset, out);
            }
            owned
        })
    }

    /// Run `f` over this rank's whole shard of `h` in place — its owned
    /// global range and the slice holding it — under the shard's lock.
    pub(crate) fn with_shard<R>(
        &self,
        h: usize,
        f: impl FnOnce(std::ops::Range<usize>, &[f64]) -> R,
    ) -> R {
        let a = self.live(h);
        let shard = a.shard.lock();
        f(a.owned.clone(), &shard)
    }

    /// Frozen arrays are written by no rank (freezing is collective, and
    /// every `Ga` write guards at its caller), so an incoming write to
    /// one is a broken contract, not a race.
    pub(crate) fn write_local(&self, h: usize, offset: usize, data: &[f64]) {
        let Some(a) = self.array(h) else {
            return; // destroyed: late duplicate is dropped
        };
        debug_assert!(!a.is_frozen(), "write to frozen array {h}");
        let s = a.owned.start;
        a.shard.lock()[offset - s..offset - s + data.len()].copy_from_slice(data);
        // Invalidate *after* the shard holds the new value: a concurrent
        // reader either hits the doomed entry (pre-write value, allowed
        // before the write completes) or refetches post-write data —
        // never caches stale data past the mutation.
        if let Some(c) = self.cache.get() {
            c.invalidate_overlap(h, offset, data.len());
        }
    }

    pub(crate) fn acc_local(&self, h: usize, offset: usize, data: &[f64], alpha: f64) {
        let Some(a) = self.array(h) else {
            return; // destroyed: late duplicate is dropped
        };
        debug_assert!(!a.is_frozen(), "accumulate into frozen array {h}");
        let s = a.owned.start;
        {
            let mut shard = a.shard.lock();
            for (dst, x) in shard[offset - s..offset - s + data.len()]
                .iter_mut()
                .zip(data)
            {
                *dst += alpha * x;
            }
        }
        if let Some(c) = self.cache.get() {
            c.invalidate_overlap(h, offset, data.len());
        }
    }

    /// [`crate::Ga::zero`]'s local half: called on the application
    /// thread only, so a frozen array panics at its caller here.
    pub(crate) fn zero_local(&self, h: usize) {
        if let Some(a) = self.array(h) {
            assert!(!a.is_frozen(), "zero on frozen array {h}");
            a.shard.lock().fill(0.0);
        }
        if let Some(c) = self.cache.get() {
            c.invalidate_array(h);
        }
    }
}

/// The progress engine's view: offsets arrive global, exactly as the
/// requester computed them from the shared [`Distribution`].
impl ShardStore for DistStore {
    fn read(&self, array: u32, offset: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.read_local(array as usize, offset, &mut out);
        out
    }
    fn write(&self, array: u32, offset: usize, data: &[f64]) {
        self.write_local(array as usize, offset, data);
    }
    fn accumulate(&self, array: u32, offset: usize, data: &[f64], alpha: f64) {
        self.acc_local(array as usize, offset, data, alpha);
    }
}

/// Gather state of one multi-owner asynchronous get: remote pieces land
/// out of order; the last one releases the assembled buffer to the
/// callback (on the progress thread).
pub(crate) struct Assembly {
    state: StdMutex<AssemblyState>,
}

struct AssemblyState {
    buf: Vec<f64>,
    remaining: usize,
    cb: Option<GaGetCallback>,
}

impl Assembly {
    /// `buf` holds any locally-copied pieces already; `remaining` remote
    /// pieces are still in flight. `remaining` must be nonzero (callers
    /// with no remote pieces invoke the callback directly).
    pub(crate) fn new(buf: Vec<f64>, remaining: usize, cb: GaGetCallback) -> Arc<Self> {
        Arc::new(Self {
            state: StdMutex::new(AssemblyState {
                buf,
                remaining,
                cb: Some(cb),
            }),
        })
    }

    /// Deposit one remote piece at buffer position `at`, decoding the
    /// wire payload straight into the assembly buffer (no intermediate
    /// allocation).
    pub(crate) fn fill(&self, at: usize, data: WireSlice<'_>) {
        let finished = {
            let mut st = self.state.lock().unwrap();
            let n = data.len();
            data.copy_into(&mut st.buf[at..at + n]);
            st.remaining -= 1;
            if st.remaining == 0 {
                Some((std::mem::take(&mut st.buf), st.cb.take().unwrap()))
            } else {
                None
            }
        };
        if let Some((buf, cb)) = finished {
            cb(buf);
        }
    }
}

/// Block until an async get completes (the synchronous entry points wrap
/// the asynchronous machinery with this).
pub(crate) struct WaitSlot {
    state: StdMutex<Option<Vec<f64>>>,
    cv: Condvar,
}

impl WaitSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: StdMutex::new(None),
            cv: Condvar::new(),
        })
    }
    /// Completion for a `Ga`-level async get (assembled block).
    pub(crate) fn callback(self: &Arc<Self>) -> GaGetCallback {
        let slot = self.clone();
        Box::new(move |data| {
            *slot.state.lock().unwrap() = Some(data);
            slot.cv.notify_all();
        })
    }

    /// Completion for a raw endpoint get (one wire piece).
    pub(crate) fn wire_callback(self: &Arc<Self>) -> comm::GetCallback {
        let slot = self.clone();
        Box::new(move |data: WireSlice<'_>| {
            *slot.state.lock().unwrap() = Some(data.to_vec());
            slot.cv.notify_all();
        })
    }
    pub(crate) fn wait(&self) -> Vec<f64> {
        let mut got = self.state.lock().unwrap();
        while got.is_none() {
            got = self.cv.wait(got).unwrap();
        }
        got.take().unwrap()
    }
}

/// Collective reset of a gang's shared NXTVAL counter (owned by the gang
/// leader): gang barriers bracket the leader's reset so no member can
/// draw a stale value on either side. Disjoint gangs have distinct
/// leaders, so concurrent jobs never share a counter.
pub(crate) fn nxtval_reset_collective(ep: &Endpoint, view: &GangView) {
    ep.barrier_gang(view.mask);
    if view.my_node == 0 {
        ep.nxtval_reset(view.members[0]);
    }
    ep.barrier_gang(view.mask);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// A `len`-element array over `nodes` nodes, of which `store` holds
    /// `node`'s shard.
    fn create(store: &DistStore, len: usize, nodes: usize, node: usize) -> usize {
        let id = store.next_id(0);
        store.insert(id, len, nodes, node);
        id
    }

    #[test]
    fn destroy_frees_the_shard_and_earlier_readers_read_zeros() {
        let store = DistStore::new(0, 1);
        let h = create(&store, 8, 1, 0);
        store.write_local(h, 0, &[1.0; 8]);
        let shard = Arc::downgrade(&store.array(h).unwrap());
        let (read_tx, read_rx) = channel();
        let (gone_tx, gone_rx) = channel();
        std::thread::scope(|s| {
            let store: &DistStore = &store;
            let reader = s.spawn(move || {
                let before = ShardStore::read(store, h as u32, 2, 4);
                read_tx.send(()).unwrap();
                gone_rx.recv().unwrap();
                (before, ShardStore::read(store, h as u32, 2, 4))
            });
            read_rx.recv().unwrap();
            store.destroy(h);
            // The reader is alive and has looked the array up: nothing it
            // keeps may hold the shard past the destroy.
            let pinned = shard.upgrade().is_some();
            gone_tx.send(()).unwrap();
            let (before, after) = reader.join().unwrap();
            assert!(!pinned, "a view still pins the shard");
            assert_eq!(before, vec![1.0; 4]);
            assert_eq!(after, vec![0.0; 4], "a destroyed array reads as zeros");
        });
    }

    #[test]
    #[should_panic(expected = "used after destroy")]
    fn an_application_read_of_a_destroyed_array_panics() {
        let store = DistStore::new(0, 1);
        let h = create(&store, 8, 1, 0);
        let mut out = [0.0; 4];
        assert!(store.read_owned(h, 0, &mut out));
        store.destroy(h);
        store.read_owned(h, 0, &mut out);
    }

    #[test]
    fn only_the_owned_range_reads_locally() {
        let store = DistStore::new(1, 2);
        let h = create(&store, 10, 2, 1); // rank 1 owns [5, 10)
        store.write_local(h, 5, &[7.0; 5]);
        let mut out = [0.0; 3];
        assert!(store.read_owned(h, 6, &mut out));
        assert_eq!(out, [7.0; 3]);
        let mut out = [-1.0; 3];
        assert!(!store.read_owned(h, 3, &mut out), "[3, 6) is partly remote");
        assert_eq!(out, [-1.0; 3], "a refused read leaves the buffer alone");
    }
}
