//! A Global-Arrays-like toolkit.
//!
//! NWChem's TCE-generated code stores every tensor as a 1-D Global Array
//! that is block-distributed across nodes, addressed through a hash index
//! (`GET_HASH_BLOCK` / `ADD_HASH_BLOCK`), load-balanced with a shared
//! `NXTVAL` counter, and introspected with `ga_distribution`/`ga_access`.
//! This crate implements those facilities for a *logical* cluster living in
//! one process: data is real (so numerics are exact), node boundaries are
//! real (so ownership queries drive task placement and the simulator's
//! communication model), and every operation is counted (so executions can
//! be audited).
//!
//! * [`Ga`] — the toolkit instance: create arrays, query distributions,
//!   get/put/accumulate, `nxtval`.
//! * [`HashIndex`] — the TCE hash map from block key to `(offset, size)`.
//! * [`GaStats`] — operation counters.
//!
//! Two backends share the `Ga` API. [`Ga::init`] keeps all logical nodes
//! in one process (exact numerics, auditable ownership, no wire).
//! [`Ga::init_dist`] holds only this rank's shard ([`DistStore`]) and
//! routes remote ranges through a [`comm::Endpoint`]: local pieces
//! short-circuit to memcpy, remote pieces become one-sided active
//! messages, and `NXTVAL` becomes a fetch-and-add on rank 0's counter
//! shard instead of a process-global atomic.
//!
//! The distributed read path is fronted by a per-rank read-through
//! [`cache::TileCache`]: completed gets are kept keyed by
//! `(array, offset, len)`, repeats are served locally, concurrent reads
//! of one block share a single wire transfer, and any local or incoming
//! `Put`/`Acc` invalidates overlapping entries (coherence contract in
//! DESIGN.md §4.6). An array declared read-only with [`Ga::freeze`]
//! refuses every write, so its cached blocks outlive `sync`.

pub mod cache;
pub mod dist;
pub mod distga;
pub mod hash;
mod read;
pub mod stats;

pub use cache::TileCacheConfig;
pub use dist::Distribution;
pub use distga::DistStore;
pub use hash::HashIndex;
pub use stats::GaStats;

use cache::{Reader, TileCache};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Logical node index.
pub type NodeId = usize;

/// Completion callback of an asynchronous get: receives the assembled
/// block. Runs on the calling thread when the read is satisfied locally
/// (cache hit or all-local range), on the progress thread otherwise.
pub type GaGetCallback = Box<dyn FnOnce(Vec<f64>) + Send>;

/// Completion callback of [`Ga::get_shared_async`]: receives the block
/// as a shared immutable buffer, the tile cache's own on a hit.
pub type GaSharedCallback = Box<dyn FnOnce(Arc<Vec<f64>>) + Send>;

/// Handle to one global array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaHandle(usize);

/// A gang-scoped view of the mesh: the rank subset one job runs on, in
/// gang-logical node numbering. All distribution arithmetic below runs
/// in logical node indices `0..members.len()`; only the wire hop
/// translates a logical owner to its real rank (`members[node]`). The
/// full mesh is the identity view (tag 0), which reproduces the PR-8
/// layout bit for bit.
#[derive(Clone)]
pub struct GangView {
    /// Array-id namespace tag: 0 for the full mesh, else
    /// `(leader_rank << 7) | gang_size` — unique per live gang shape, so
    /// concurrent gangs can never collide on an array id.
    pub tag: u32,
    /// Real rank of each gang-logical node, ascending.
    pub members: Arc<Vec<usize>>,
    /// This rank's gang-logical node index.
    pub my_node: usize,
    /// Member bitmask, the gang-barrier group key.
    pub mask: u64,
}

impl GangView {
    /// The identity view: every rank, logical == real.
    pub fn full(rank: usize, nranks: usize) -> Self {
        Self {
            tag: 0,
            members: Arc::new((0..nranks).collect()),
            my_node: rank,
            mask: comm::full_mask(nranks),
        }
    }

    /// The view of gang `mask` as seen from `rank` (which must be a
    /// member). The full mask folds onto the identity view so
    /// single-gang configurations keep the tag-0 namespace.
    pub fn from_mask(rank: usize, nranks: usize, mask: u64) -> Self {
        if mask == comm::full_mask(nranks) {
            return Self::full(rank, nranks);
        }
        let members: Vec<usize> = comm::mask_members(mask).collect();
        assert!(members.len() < 128, "gang size exceeds the tag encoding");
        let tag = ((members[0] as u32) << 7) | members.len() as u32;
        let my_node = members
            .iter()
            .position(|&r| r == rank)
            .unwrap_or_else(|| panic!("rank {rank} is not a member of gang {mask:#b}"));
        Self {
            tag,
            members: Arc::new(members),
            my_node,
            mask,
        }
    }
}

/// One block-distributed array: node `i` owns the contiguous slice
/// `[chunk*i, chunk*(i+1))` (last node takes the remainder), mirroring
/// GA's default regular distribution.
struct Array {
    /// Ownership arithmetic, shared with the structural-only code paths.
    dist: Distribution,
    /// Per-node owned segments, guarded individually so that concurrent
    /// accumulates to different nodes do not serialize (and accumulates to
    /// the same node do, as in GA).
    segments: Vec<Mutex<Vec<f64>>>,
    /// Set by [`Ga::freeze`]; every write checks it.
    frozen: AtomicBool,
}

/// Storage strategy behind a [`Ga`] instance.
enum Backend {
    /// All nodes' segments live in this process.
    Local {
        arrays: Mutex<Vec<Arc<Array>>>,
        nxtval: AtomicI64,
    },
    /// Only this rank's shards live here; other ranks are reached through
    /// the comm endpoint, and `NXTVAL` lives on the gang leader.
    Dist {
        ep: Arc<comm::Endpoint>,
        store: Arc<DistStore>,
        cache: Arc<TileCache>,
        view: GangView,
    },
}

/// The Global Arrays toolkit instance for a logical cluster of `nodes`.
pub struct Ga {
    nodes: usize,
    backend: Backend,
    stats: Arc<GaStats>,
}

impl Ga {
    /// Initialize the toolkit for a cluster of `nodes >= 1` logical nodes,
    /// all resident in this process.
    pub fn init(nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        Self {
            nodes,
            backend: Backend::Local {
                arrays: Mutex::new(Vec::new()),
                nxtval: AtomicI64::new(0),
            },
            stats: Arc::new(GaStats::default()),
        }
    }

    /// Initialize the distributed backend for one rank with the default
    /// tile-cache configuration. `store` must be the same [`DistStore`]
    /// the endpoint serves (the endpoint answers remote requests against
    /// it; `Ga` takes the local fast path).
    pub fn init_dist(ep: Arc<comm::Endpoint>, store: Arc<DistStore>) -> Self {
        Self::init_dist_cfg(ep, store, TileCacheConfig::default())
    }

    /// As [`Self::init_dist`], with explicit tile-cache configuration.
    /// The cache is attached to `store` so incoming `Put`/`Acc` active
    /// messages invalidate overlapping cached blocks as they are applied.
    pub fn init_dist_cfg(
        ep: Arc<comm::Endpoint>,
        store: Arc<DistStore>,
        cache_cfg: TileCacheConfig,
    ) -> Self {
        assert_eq!(ep.rank(), store.rank(), "endpoint and store disagree");
        let stats = Arc::new(GaStats::default());
        let cache = TileCache::new(cache_cfg, stats.clone());
        store.attach_cache(cache.clone());
        let view = GangView::full(ep.rank(), ep.nranks());
        Self {
            nodes: ep.nranks(),
            backend: Backend::Dist {
                ep,
                store,
                cache,
                view,
            },
            stats,
        }
    }

    /// A second toolkit instance over the *same* endpoint, shard store,
    /// tile cache and counters — how the service layer materializes one
    /// workspace per cached plan while all of them run on a single
    /// persistent rank daemon. The cache must be shared rather than
    /// re-attached (the store's `attach_cache` is first-set-wins), so
    /// invalidations and retained frozen blocks stay coherent across
    /// every instance.
    /// Panics on a local-backend instance, which owns its segments and
    /// cannot be shared this way.
    pub fn dist_share(&self) -> Self {
        match &self.backend {
            Backend::Local { .. } => panic!("dist_share requires the distributed backend"),
            Backend::Dist {
                ep,
                store,
                cache,
                view,
            } => Self {
                nodes: self.nodes,
                backend: Backend::Dist {
                    ep: ep.clone(),
                    store: store.clone(),
                    cache: cache.clone(),
                    view: view.clone(),
                },
                stats: self.stats.clone(),
            },
        }
    }

    /// As [`Self::dist_share`], but scoped to the gang `mask`: arrays
    /// created through the returned instance are distributed over the
    /// gang's members only (gang-logical node indices, namespaced ids),
    /// `sync` is a gang barrier plus a scope-local cache flush, and
    /// `NXTVAL` lives on the gang leader. The calling rank must be a
    /// member.
    pub fn dist_share_gang(&self, mask: u64) -> Self {
        match &self.backend {
            Backend::Local { .. } => panic!("dist_share_gang requires the distributed backend"),
            Backend::Dist {
                ep, store, cache, ..
            } => {
                let view = GangView::from_mask(ep.rank(), ep.nranks(), mask);
                Self {
                    nodes: view.members.len(),
                    backend: Backend::Dist {
                        ep: ep.clone(),
                        store: store.clone(),
                        cache: cache.clone(),
                        view,
                    },
                    stats: self.stats.clone(),
                }
            }
        }
    }

    /// The gang view this instance is scoped to (identity on the full
    /// mesh; `None` in local mode).
    pub fn gang_view(&self) -> Option<&GangView> {
        match &self.backend {
            Backend::Local { .. } => None,
            Backend::Dist { view, .. } => Some(view),
        }
    }

    /// Number of logical nodes.
    pub fn nnodes(&self) -> usize {
        self.nodes
    }

    /// This process's rank (0 in local mode, where every node is local).
    pub fn rank(&self) -> usize {
        match &self.backend {
            Backend::Local { .. } => 0,
            Backend::Dist { ep, .. } => ep.rank(),
        }
    }

    /// True when running over the wire.
    pub fn is_dist(&self) -> bool {
        matches!(self.backend, Backend::Dist { .. })
    }

    /// The comm endpoint in distributed mode.
    pub fn endpoint(&self) -> Option<&Arc<comm::Endpoint>> {
        match &self.backend {
            Backend::Local { .. } => None,
            Backend::Dist { ep, .. } => Some(ep),
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &GaStats {
        &self.stats
    }

    /// Create a zero-initialized array of `len` elements. Collective in
    /// distributed mode: every rank must create the same arrays in the
    /// same order.
    pub fn create(&self, len: usize) -> GaHandle {
        match &self.backend {
            Backend::Local { arrays, .. } => {
                let dist = Distribution::new(len, self.nodes);
                let segments = (0..self.nodes)
                    .map(|n| Mutex::new(vec![0.0; dist.range_of(n).len()]))
                    .collect();
                let mut arrays = arrays.lock();
                arrays.push(Arc::new(Array {
                    dist,
                    segments,
                    frozen: AtomicBool::new(false),
                }));
                GaHandle(arrays.len() - 1)
            }
            Backend::Dist { store, view, .. } => {
                GaHandle(store.create_gang(view.tag, len, view.members.len(), view.my_node))
            }
        }
    }

    /// Drop the array's shard and cached blocks (retained frozen ones
    /// too) and tombstone its id (plan-cache eviction). Distributed mode
    /// only; collective over the owning gang by the same convention as
    /// [`Self::create`]. Late wire duplicates against the id read zeros
    /// instead of hanging.
    pub fn destroy(&self, h: GaHandle) {
        if let Backend::Dist { store, cache, .. } = &self.backend {
            cache.invalidate_array(h.0);
            store.destroy(h.0);
        }
    }

    /// Declare `h` read-only for the rest of its life. From here on
    /// `put`, `put_collective`, `acc`, `acc_local` and `zero` on it panic
    /// at the caller, and its cached blocks survive every `sync` — sound,
    /// because no rank can write it. Collective by the same convention as
    /// [`Self::create`]: every rank freezes the same arrays in the same
    /// order, once no rank writes them any more (a remote write still in
    /// flight must be fenced by a `sync` first). The flag lives with the
    /// array, so every instance over the same store sees it.
    pub fn freeze(&self, h: GaHandle) {
        match &self.backend {
            Backend::Local { .. } => self.array(h).frozen.store(true, Ordering::Release),
            Backend::Dist { store, .. } => store.freeze(h.0),
        }
    }

    fn array(&self, h: GaHandle) -> Arc<Array> {
        match &self.backend {
            Backend::Local { arrays, .. } => arrays.lock()[h.0].clone(),
            Backend::Dist { .. } => unreachable!("local array in dist mode"),
        }
    }

    /// As [`Self::array`], for a caller about to mutate `h` with `op`.
    fn array_for_write(&self, h: GaHandle, op: &str) -> Arc<Array> {
        let a = self.array(h);
        assert!(
            !a.frozen.load(Ordering::Acquire),
            "{op} on frozen array {}",
            h.0
        );
        a
    }

    fn dist_of_any(&self, h: GaHandle) -> Distribution {
        match &self.backend {
            Backend::Local { arrays, .. } => arrays.lock()[h.0].dist.clone(),
            Backend::Dist { store, .. } => store.dist_of(h.0),
        }
    }

    /// Total length of the array.
    pub fn len_of(&self, h: GaHandle) -> usize {
        self.dist_of_any(h).len()
    }

    /// Clone of the array's block distribution (for structural queries).
    pub fn dist_of(&self, h: GaHandle) -> Distribution {
        self.dist_of_any(h)
    }

    /// `ga_distribution`: the range of global offsets owned by `node`.
    pub fn distribution(&self, h: GaHandle, node: NodeId) -> Range<usize> {
        self.dist_of_any(h).range_of(node)
    }

    /// Owner of a single global offset.
    pub fn owner_of(&self, h: GaHandle, offset: usize) -> NodeId {
        self.dist_of_any(h).owner_of(offset)
    }

    /// Split `[offset, offset+len)` into per-owner pieces
    /// `(node, global_subrange)` — the information used to instantiate one
    /// `WRITE_C(i)` task per owner node (paper Figure 8).
    pub fn owners_of(&self, h: GaHandle, offset: usize, len: usize) -> Vec<(NodeId, Range<usize>)> {
        self.dist_of_any(h).owners_of(offset, len)
    }

    /// `ga_access`: borrow in place the shard of `h` that `node` owns —
    /// `f` receives the node's owned global range and the slice holding
    /// it, with no copy and no buffer. `None` when that shard does not
    /// live in this process (distributed mode, a node other than this
    /// rank's). The shard's lock is held while `f` runs, so writers to
    /// it wait: keep `f` short, and call no `Ga` operation from it (a
    /// local read holds its thread's array view while it takes a shard
    /// lock, so the reverse order could deadlock).
    pub fn access<R>(
        &self,
        h: GaHandle,
        node: NodeId,
        f: impl FnOnce(Range<usize>, &[f64]) -> R,
    ) -> Option<R> {
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array(h);
                let seg = a.segments[node].lock();
                Some(f(a.dist.range_of(node), &seg))
            }
            Backend::Dist { store, view, .. } => {
                (node == view.my_node).then(|| store.with_shard(h.0, f))
            }
        }
    }

    /// Read `[offset, offset+len)` into a fresh buffer (the data-movement
    /// half of `GET_HASH_BLOCK`).
    pub fn get(&self, h: GaHandle, offset: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.get_into(h, offset, &mut out);
        out
    }

    /// As [`Self::get`], but into a caller-provided buffer: the pooled
    /// data path reuses tile buffers across tasks instead of allocating
    /// one per call.
    pub fn get_into(&self, h: GaHandle, offset: usize, out: &mut [f64]) {
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array(h);
                for (node, range) in a.dist.owners_of(offset, out.len()) {
                    let seg = a.segments[node].lock();
                    let s = a.dist.range_of(node).start;
                    out[range.start - offset..range.end - offset]
                        .copy_from_slice(&seg[range.start - s..range.end - s]);
                }
                self.stats.record_locality(out.len() * 8, 0);
            }
            Backend::Dist { .. } => self.dist_get_into(h, offset, out),
        }
        self.stats.record_get(out.len() * 8);
    }

    /// Asynchronous get: assembles `[offset, offset+len)` (local pieces by
    /// memcpy, remote pieces over the wire at priority `prio`) and hands
    /// the buffer to `cb`. With no remote pieces — or a tile-cache hit —
    /// `cb` runs on the calling thread before returning; otherwise it
    /// runs on the progress thread when the last piece lands. This is the
    /// prefetch entry point: reader tasks post these and retire, and
    /// completions re-enter the runtime.
    pub fn get_async(&self, h: GaHandle, offset: usize, len: usize, prio: i64, cb: GaGetCallback) {
        self.get_async_into(h, offset, vec![0.0; len], prio, cb);
    }

    /// As [`Self::get_async`], reading into a caller-provided buffer
    /// (whose length is the read length) so the pooled data path reuses
    /// tile buffers instead of allocating one per call.
    pub fn get_async_into(
        &self,
        h: GaHandle,
        offset: usize,
        mut buf: Vec<f64>,
        prio: i64,
        cb: GaGetCallback,
    ) {
        let len = buf.len();
        self.stats.record_get(len * 8);
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array(h);
                for (node, range) in a.dist.owners_of(offset, len) {
                    let seg = a.segments[node].lock();
                    let s = a.dist.range_of(node).start;
                    buf[range.start - offset..range.end - offset]
                        .copy_from_slice(&seg[range.start - s..range.end - s]);
                }
                self.stats.record_locality(len * 8, 0);
                cb(buf);
            }
            Backend::Dist { .. } => {
                self.dist_fetch(h, offset, buf, prio, Reader::Owned(cb));
            }
        }
    }

    /// As [`Self::get_async_into`], for a reader that only reads the
    /// block: it arrives as a shared immutable buffer, and a tile-cache
    /// hit hands over the cache's own block instead of copying it into
    /// `buf`. `buf` then goes unused and is returned, for the caller to
    /// recycle; on every other path it carries the block and `None` is
    /// returned.
    pub fn get_shared_async(
        &self,
        h: GaHandle,
        offset: usize,
        buf: Vec<f64>,
        prio: i64,
        cb: GaSharedCallback,
    ) -> Option<Vec<f64>> {
        match &self.backend {
            Backend::Local { .. } => {
                self.get_async_into(h, offset, buf, prio, Reader::Shared(cb).into_owned());
                None
            }
            Backend::Dist { .. } => {
                self.stats.record_get(buf.len() * 8);
                self.dist_fetch(h, offset, buf, prio, Reader::Shared(cb))
            }
        }
    }

    /// Overwrite `[offset, offset+len)` with `data`.
    pub fn put(&self, h: GaHandle, offset: usize, data: &[f64]) {
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array_for_write(h, "put");
                for (node, range) in a.dist.owners_of(offset, data.len()) {
                    let mut seg = a.segments[node].lock();
                    let s = a.dist.range_of(node).start;
                    let src = &data[range.start - offset..range.end - offset];
                    seg[range.start - s..range.end - s].copy_from_slice(src);
                }
                self.stats.record_locality(data.len() * 8, 0);
            }
            Backend::Dist {
                ep,
                store,
                cache,
                view,
            } => {
                let dist = store.dist_for_write(h.0, "put");
                // Invalidate before the pieces go out so this rank never
                // serves its own pre-write copy from cache again
                // (read-your-writes; DESIGN.md §4.6). Local pieces also
                // invalidate inside `write_local`, which is what covers
                // *incoming* puts from other ranks.
                cache.invalidate_overlap(h.0, offset, data.len());
                let me = view.my_node;
                let (mut local_b, mut remote_b) = (0, 0);
                for (node, range) in dist.owners_of(offset, data.len()) {
                    let src = &data[range.start - offset..range.end - offset];
                    if node == me {
                        store.write_local(h.0, range.start, src);
                        local_b += range.len() * 8;
                    } else {
                        ep.put(view.members[node], h.0 as u32, range.start, src);
                        remote_b += range.len() * 8;
                    }
                }
                self.stats.record_locality(local_b, remote_b);
            }
        }
        self.stats.record_put(data.len() * 8);
    }

    /// Collective overwrite: every rank calls this with identical
    /// arguments, and each writes only the part of the range it owns —
    /// how the tensors are materialized without moving bytes. Equivalent
    /// to [`Self::put`] in local mode.
    pub fn put_collective(&self, h: GaHandle, offset: usize, data: &[f64]) {
        match &self.backend {
            Backend::Local { .. } => self.put(h, offset, data),
            Backend::Dist {
                store, cache, view, ..
            } => {
                let dist = store.dist_for_write(h.0, "put_collective");
                // The collective write mutates every rank's shard, but
                // only the local piece generates an invalidation hook —
                // drop the whole range here so cached copies of the
                // remotely-rewritten pieces cannot survive.
                cache.invalidate_overlap(h.0, offset, data.len());
                let me = view.my_node;
                let mut written = 0;
                for (node, range) in dist.owners_of(offset, data.len()) {
                    if node == me {
                        store.write_local(
                            h.0,
                            range.start,
                            &data[range.start - offset..range.end - offset],
                        );
                        written += range.len() * 8;
                    }
                }
                self.stats.record_put(written);
                self.stats.record_locality(written, 0);
            }
        }
    }

    /// Atomic accumulate: `ga[offset..] += alpha * data` (the
    /// `ADD_HASH_BLOCK` primitive). Atomicity granularity is the owner
    /// node's segment lock, as in GA. In distributed mode remote pieces
    /// are asynchronous; completion is observed through [`Self::sync`].
    pub fn acc(&self, h: GaHandle, offset: usize, data: &[f64], alpha: f64) {
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array_for_write(h, "acc");
                for (node, range) in a.dist.owners_of(offset, data.len()) {
                    let mut seg = a.segments[node].lock();
                    let s = a.dist.range_of(node).start;
                    let src = &data[range.start - offset..range.end - offset];
                    for (dst, x) in seg[range.start - s..range.end - s].iter_mut().zip(src) {
                        *dst += alpha * x;
                    }
                }
                self.stats.record_locality(data.len() * 8, 0);
            }
            Backend::Dist {
                ep,
                store,
                cache,
                view,
            } => {
                let dist = store.dist_for_write(h.0, "acc");
                cache.invalidate_overlap(h.0, offset, data.len());
                let me = view.my_node;
                let (mut local_b, mut remote_b) = (0, 0);
                for (node, range) in dist.owners_of(offset, data.len()) {
                    let src = &data[range.start - offset..range.end - offset];
                    if node == me {
                        store.acc_local(h.0, range.start, src, alpha);
                        local_b += range.len() * 8;
                    } else {
                        ep.acc(view.members[node], h.0 as u32, range.start, src, alpha);
                        remote_b += range.len() * 8;
                    }
                }
                self.stats.record_locality(local_b, remote_b);
            }
        }
        self.stats.record_acc(data.len() * 8);
    }

    /// Accumulate into only the part of `[offset, offset+len)` owned by
    /// `node` — what one `WRITE_C(i)` instance does with its slice of the
    /// incoming `C_sorted` matrix. No-op if `node` owns none of the range.
    pub fn acc_local(&self, h: GaHandle, node: NodeId, offset: usize, data: &[f64], alpha: f64) {
        let dist = match &self.backend {
            Backend::Local { .. } => self.array_for_write(h, "acc_local").dist.clone(),
            Backend::Dist { store, .. } => store.dist_for_write(h.0, "acc_local"),
        };
        let r = dist.range_of(node);
        let (lo, hi) = (r.start, r.end);
        let begin = offset.max(lo);
        let end = (offset + data.len()).min(hi);
        if begin >= end {
            return;
        }
        let src = &data[begin - offset..end - offset];
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array(h);
                let mut seg = a.segments[node].lock();
                for (dst, x) in seg[begin - lo..end - lo].iter_mut().zip(src) {
                    *dst += alpha * x;
                }
                self.stats.record_locality(src.len() * 8, 0);
            }
            Backend::Dist {
                ep,
                store,
                cache,
                view,
            } => {
                cache.invalidate_overlap(h.0, begin, end - begin);
                if node == view.my_node {
                    store.acc_local(h.0, begin, src, alpha);
                    self.stats.record_locality(src.len() * 8, 0);
                } else {
                    ep.acc(view.members[node], h.0 as u32, begin, src, alpha);
                    self.stats.record_locality(0, src.len() * 8);
                }
            }
        }
        self.stats.record_acc((end - begin) * 8);
    }

    /// Snapshot the full array. In distributed mode this pulls every
    /// remote shard (test/analysis helper; not a GA operation).
    pub fn snapshot(&self, h: GaHandle) -> Vec<f64> {
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array(h);
                let mut out = Vec::with_capacity(a.dist.len());
                for seg in &a.segments {
                    out.extend_from_slice(&seg.lock());
                }
                out
            }
            Backend::Dist { .. } => {
                let len = self.len_of(h);
                self.get(h, 0, len)
            }
        }
    }

    /// Zero the array in place. Collective in distributed mode: each rank
    /// zeroes its own shard (bracket with [`Self::sync`] as needed).
    pub fn zero(&self, h: GaHandle) {
        match &self.backend {
            Backend::Local { .. } => {
                let a = self.array_for_write(h, "zero");
                for seg in &a.segments {
                    seg.lock().fill(0.0);
                }
            }
            Backend::Dist { store, cache, .. } => {
                // Every rank zeroes its own shard (a frozen one panics
                // there), so no invalidation AM arrives for the remote
                // pieces — drop the whole array.
                store.zero_local(h.0);
                cache.invalidate_array(h.0);
            }
        }
    }

    /// `NXTVAL`: the shared work-stealing counter. Every call atomically
    /// returns the next value — "each MPI rank will atomically acquire a
    /// single unit of work each time". This is the global hot spot the
    /// paper identifies as unscalable; in distributed mode it is a real
    /// one: a fetch-and-add served by rank 0's progress thread.
    pub fn nxtval(&self) -> i64 {
        self.stats.record_nxtval();
        match &self.backend {
            Backend::Local { nxtval, .. } => nxtval.fetch_add(1, Ordering::Relaxed),
            Backend::Dist { ep, view, .. } => ep.nxtval(view.members[0]),
        }
    }

    /// Reset the NXTVAL counter (done between the seven work levels).
    /// Collective in distributed mode — over the gang: barriers bracket
    /// the leader's reset so no member can draw a stale value on either
    /// side.
    pub fn nxtval_reset(&self) {
        match &self.backend {
            Backend::Local { nxtval, .. } => nxtval.store(0, Ordering::Relaxed),
            Backend::Dist { ep, view, .. } => distga::nxtval_reset_collective(ep, view),
        }
    }

    /// Fence this rank's outstanding writes, then a gang barrier — GA's
    /// `sync`, scoped to this instance's gang. No-op in local mode,
    /// where every operation is immediately visible. The sync boundary
    /// is where GA's relaxed model makes third-party mutations visible,
    /// so the gang's slice of the tile cache is flushed here — all but
    /// the blocks of frozen arrays, which no rank can have written (other
    /// concurrent gangs' entries are untouched — their coherence epochs
    /// are their own syncs).
    pub fn sync(&self) {
        if let Backend::Dist {
            ep,
            store,
            cache,
            view,
        } = &self.backend
        {
            ep.sync_gang(view.mask);
            cache.flush_scope(view.tag, &store.frozen_in(view.tag));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_covers_array_disjointly() {
        let ga = Ga::init(3);
        let h = ga.create(10);
        let d: Vec<_> = (0..3).map(|n| ga.distribution(h, n)).collect();
        assert_eq!(d[0], 0..4);
        assert_eq!(d[1], 4..8);
        assert_eq!(d[2], 8..10);
    }

    #[test]
    fn owner_queries() {
        let ga = Ga::init(3);
        let h = ga.create(10);
        assert_eq!(ga.owner_of(h, 0), 0);
        assert_eq!(ga.owner_of(h, 3), 0);
        assert_eq!(ga.owner_of(h, 4), 1);
        assert_eq!(ga.owner_of(h, 9), 2);
        let owners = ga.owners_of(h, 2, 7); // [2, 9)
        assert_eq!(owners, vec![(0, 2..4), (1, 4..8), (2, 8..9)]);
    }

    #[test]
    fn get_put_roundtrip_across_boundaries() {
        let ga = Ga::init(4);
        let h = ga.create(17);
        let data: Vec<f64> = (0..9).map(|x| x as f64).collect();
        ga.put(h, 3, &data);
        assert_eq!(ga.get(h, 3, 9), data);
        // Unwritten parts stay zero.
        assert_eq!(ga.get(h, 0, 3), vec![0.0; 3]);
    }

    #[test]
    fn access_borrows_each_nodes_shard_in_place() {
        let ga = Ga::init(3);
        let h = ga.create(10);
        ga.put(h, 0, &(0..10).map(f64::from).collect::<Vec<_>>());
        let gets = ga.stats().gets();
        let seen: Vec<_> = (0..3)
            .map(|n| ga.access(h, n, |r, s| (r, s.to_vec())).unwrap())
            .collect();
        assert_eq!(seen[0], (0..4, vec![0.0, 1.0, 2.0, 3.0]));
        assert_eq!(seen[1], (4..8, vec![4.0, 5.0, 6.0, 7.0]));
        assert_eq!(seen[2], (8..10, vec![8.0, 9.0]));
        assert_eq!(ga.stats().gets(), gets, "a borrow is not a get");
    }

    #[test]
    fn acc_accumulates_with_alpha() {
        let ga = Ga::init(2);
        let h = ga.create(6);
        ga.acc(h, 1, &[1.0, 1.0, 1.0, 1.0], 2.0);
        ga.acc(h, 3, &[10.0], 1.0);
        assert_eq!(ga.snapshot(h), vec![0.0, 2.0, 2.0, 12.0, 2.0, 0.0]);
    }

    #[test]
    fn acc_local_only_touches_owned_part() {
        let ga = Ga::init(2);
        let h = ga.create(8); // node0: 0..4, node1: 4..8
        let data = vec![1.0; 6]; // global [1, 7)
        ga.acc_local(h, 0, 1, &data, 1.0);
        assert_eq!(ga.snapshot(h), vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        ga.acc_local(h, 1, 1, &data, 1.0);
        assert_eq!(ga.snapshot(h), vec![0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]);
        // Sum of per-owner acc_local == one global acc.
        let ga2 = Ga::init(2);
        let h2 = ga2.create(8);
        ga2.acc(h2, 1, &data, 1.0);
        assert_eq!(ga.snapshot(h), ga2.snapshot(h2));
    }

    #[test]
    fn nxtval_monotone() {
        let ga = Ga::init(1);
        assert_eq!(ga.nxtval(), 0);
        assert_eq!(ga.nxtval(), 1);
        ga.nxtval_reset();
        assert_eq!(ga.nxtval(), 0);
        assert_eq!(ga.stats().nxtvals(), 3);
    }

    #[test]
    fn stats_count_bytes() {
        let ga = Ga::init(2);
        let h = ga.create(10);
        ga.get(h, 0, 5);
        ga.acc(h, 0, &[1.0; 4], 1.0);
        assert_eq!(ga.stats().get_bytes(), 40);
        assert_eq!(ga.stats().acc_bytes(), 32);
        assert_eq!(ga.stats().gets(), 1);
    }

    #[test]
    fn stats_stay_exact_under_concurrent_gets() {
        // Each thread counts into its own slot; reads sum the slots.
        let ga = Ga::init(2);
        let h = ga.create(16);
        std::thread::scope(|s| {
            for t in 0..4 {
                let ga = &ga;
                s.spawn(move || {
                    for i in 0..10_000 {
                        ga.get(h, (t + i) % 8, 5);
                    }
                });
            }
        });
        assert_eq!(ga.stats().gets(), 40_000);
        assert_eq!(ga.stats().get_bytes(), 40_000 * 40);
        assert_eq!(ga.stats().local_bytes(), 40_000 * 40);
    }

    #[test]
    fn concurrent_accs_are_atomic() {
        use std::sync::Arc;
        let ga = Arc::new(Ga::init(3));
        let h = ga.create(32);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ga = ga.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        ga.acc(h, 0, &vec![1.0; 32], 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(ga.snapshot(h).iter().all(|&x| x == 1000.0));
    }
}
