//! A Global-Arrays-like toolkit.
//!
//! NWChem's TCE-generated code stores every tensor as a 1-D Global Array
//! that is block-distributed across nodes, addressed through a hash index
//! (`GET_HASH_BLOCK` / `ADD_HASH_BLOCK`), load-balanced with a shared
//! `NXTVAL` counter, and introspected with `ga_distribution`/`ga_access`.
//! This crate implements those facilities with real data (so numerics
//! are exact), real node boundaries (so ownership queries drive task
//! placement and the simulator's communication model), and every
//! operation counted (so executions can be audited).
//!
//! * [`Ga`] — the toolkit instance: create arrays, query distributions,
//!   get/put/accumulate, `nxtval`.
//! * [`HashIndex`] — the TCE hash map from block key to `(offset, size)`.
//! * [`GaStats`] — operation counters.
//!
//! There is one data path. Each logical node's shards live in a
//! [`DistStore`], and every operation splits its range by owner: a piece
//! whose node's store this process holds is served in place (memcpy or
//! an accumulate under that shard's lock), and every other piece is a
//! one-sided active message through a [`comm::Endpoint`]. [`Ga::init`]
//! holds the stores of all its logical nodes in one process, so no piece
//! is remote and it has no endpoint; [`Ga::init_dist`] holds only this
//! rank's store. `NXTVAL` is a fetch-and-add on the gang leader's counter
//! when there is an endpoint, and a local atomic when there is not.
//!
//! Remote reads are fronted by a per-rank read-through
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
use distga::WaitSlot;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, Ordering};
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

/// The wire half of a distributed instance: the endpoint that reaches the
/// shards this process does not hold, this rank's tile cache in front of
/// them, and the gang the instance is scoped to.
struct Wire {
    ep: Arc<comm::Endpoint>,
    cache: Arc<TileCache>,
    view: GangView,
}

/// The Global Arrays toolkit instance for a logical cluster of `nodes`.
pub struct Ga {
    nodes: usize,
    /// The shard stores this process holds, of logical nodes `first..`:
    /// every node's in process, this rank's alone over the wire. An
    /// array's piece on a held node is served in place, any other piece
    /// through [`Wire`].
    first: NodeId,
    stores: Vec<Arc<DistStore>>,
    wire: Option<Wire>,
    /// `NXTVAL` when there is no endpoint to hold it.
    nxtval: AtomicI64,
    stats: Arc<GaStats>,
}

impl Ga {
    /// Initialize the toolkit for a cluster of `nodes >= 1` logical nodes,
    /// all resident in this process: one shard store per node, so no
    /// piece of any range is remote.
    pub fn init(nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        Self {
            nodes,
            first: 0,
            stores: (0..nodes).map(|n| DistStore::new(n, nodes)).collect(),
            wire: None,
            nxtval: AtomicI64::new(0),
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
            first: view.my_node,
            stores: vec![store],
            wire: Some(Wire { ep, cache, view }),
            nxtval: AtomicI64::new(0),
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
    /// Panics on an instance without an endpoint, whose `NXTVAL` counter
    /// is its own.
    pub fn dist_share(&self) -> Self {
        self.share(self.wire().view.clone())
    }

    /// As [`Self::dist_share`], but scoped to the gang `mask`: arrays
    /// created through the returned instance are distributed over the
    /// gang's members only (gang-logical node indices, namespaced ids),
    /// `sync` is a gang barrier plus a scope-local cache flush, and
    /// `NXTVAL` lives on the gang leader. The calling rank must be a
    /// member.
    pub fn dist_share_gang(&self, mask: u64) -> Self {
        let ep = &self.wire().ep;
        self.share(GangView::from_mask(ep.rank(), ep.nranks(), mask))
    }

    fn share(&self, view: GangView) -> Self {
        let w = self.wire();
        Self {
            nodes: view.members.len(),
            first: view.my_node,
            stores: self.stores.clone(),
            wire: Some(Wire {
                ep: w.ep.clone(),
                cache: w.cache.clone(),
                view,
            }),
            nxtval: AtomicI64::new(0),
            stats: self.stats.clone(),
        }
    }

    /// The endpoint side, for a piece no held store owns: only an
    /// instance with an endpoint has such pieces.
    fn wire(&self) -> &Wire {
        self.wire.as_ref().expect("this Ga has no endpoint")
    }

    /// The tile cache, which only an instance with an endpoint has.
    fn cache(&self) -> Option<&TileCache> {
        self.wire.as_ref().map(|w| &*w.cache)
    }

    /// Node `node`'s shard store, if this process holds it.
    fn store(&self, node: NodeId) -> Option<&DistStore> {
        let i = node.checked_sub(self.first)?;
        self.stores.get(i).map(|s| &**s)
    }

    /// The held stores with their logical nodes.
    fn held(&self) -> impl Iterator<Item = (NodeId, &DistStore)> {
        (self.first..).zip(self.stores.iter().map(|s| &**s))
    }

    /// The first held store: every held store knows each array's
    /// distribution and frozen flag.
    fn home(&self) -> &DistStore {
        &self.stores[0]
    }

    /// The gang view this instance is scoped to (identity on the full
    /// mesh; `None` without an endpoint).
    pub fn gang_view(&self) -> Option<&GangView> {
        self.wire.as_ref().map(|w| &w.view)
    }

    /// Number of logical nodes.
    pub fn nnodes(&self) -> usize {
        self.nodes
    }

    /// This process's rank (0 without an endpoint, where every node is
    /// local).
    pub fn rank(&self) -> usize {
        self.wire.as_ref().map_or(0, |w| w.ep.rank())
    }

    /// True when running over the wire.
    pub fn is_dist(&self) -> bool {
        self.wire.is_some()
    }

    /// The comm endpoint in distributed mode.
    pub fn endpoint(&self) -> Option<&Arc<comm::Endpoint>> {
        self.wire.as_ref().map(|w| &w.ep)
    }

    /// Operation counters.
    pub fn stats(&self) -> &GaStats {
        &self.stats
    }

    /// Create a zero-initialized array of `len` elements. Collective in
    /// distributed mode: every rank must create the same arrays in the
    /// same order. Every held store gets the array under one id.
    pub fn create(&self, len: usize) -> GaHandle {
        let tag = self.gang_view().map_or(0, |v| v.tag);
        let id = self.home().next_id(tag);
        for (node, store) in self.held() {
            store.insert(id, len, self.nodes, node);
        }
        GaHandle(id)
    }

    /// Drop the array's shards and cached blocks (retained frozen ones
    /// too) and tombstone its id (plan-cache eviction). Collective over
    /// the owning gang by the same convention as [`Self::create`]. Late
    /// wire duplicates against the id read zeros instead of hanging.
    pub fn destroy(&self, h: GaHandle) {
        if let Some(c) = self.cache() {
            c.invalidate_array(h.0);
        }
        for (_, store) in self.held() {
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
        for (_, store) in self.held() {
            store.freeze(h.0);
        }
    }

    /// Total length of the array.
    pub fn len_of(&self, h: GaHandle) -> usize {
        self.dist_of(h).len()
    }

    /// Clone of the array's block distribution (for structural queries).
    pub fn dist_of(&self, h: GaHandle) -> Distribution {
        self.home().dist_of(h.0)
    }

    /// `ga_distribution`: the range of global offsets owned by `node`.
    pub fn distribution(&self, h: GaHandle, node: NodeId) -> Range<usize> {
        self.dist_of(h).range_of(node)
    }

    /// Owner of a single global offset.
    pub fn owner_of(&self, h: GaHandle, offset: usize) -> NodeId {
        self.dist_of(h).owner_of(offset)
    }

    /// Split `[offset, offset+len)` into per-owner pieces
    /// `(node, global_subrange)` — the information used to instantiate one
    /// `WRITE_C(i)` task per owner node (paper Figure 8).
    pub fn owners_of(&self, h: GaHandle, offset: usize, len: usize) -> Vec<(NodeId, Range<usize>)> {
        self.dist_of(h).owners_of(offset, len)
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
        self.store(node).map(|s| s.with_shard(h.0, f))
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
    /// one per call. A range the first held store owns outright is one
    /// memcpy; any other goes through [`Self::get_async`]'s path and is
    /// waited on here.
    pub fn get_into(&self, h: GaHandle, offset: usize, out: &mut [f64]) {
        self.stats.record_get(out.len() * 8);
        if self.home().read_owned(h.0, offset, out) {
            self.stats.record_locality(out.len() * 8, 0);
        } else {
            let slot = WaitSlot::new();
            let cb = Reader::Owned(slot.callback());
            self.fetch(h, offset, vec![0.0; out.len()], i64::MAX, cb);
            out.copy_from_slice(&slot.wait());
        }
    }

    /// Asynchronous get: assembles `[offset, offset+len)` (held pieces by
    /// memcpy, remote pieces over the wire at priority `prio`) and hands
    /// the buffer to `cb`. With no remote pieces — or a tile-cache hit —
    /// `cb` runs on the calling thread before returning; otherwise it
    /// runs on the progress thread when the last piece lands. This is the
    /// prefetch entry point: reader tasks post these and retire, and
    /// completions re-enter the runtime.
    pub fn get_async(&self, h: GaHandle, offset: usize, len: usize, prio: i64, cb: GaGetCallback) {
        self.stats.record_get(len * 8);
        self.fetch(h, offset, vec![0.0; len], prio, Reader::Owned(cb));
    }

    /// As [`Self::get_async`] into a caller-provided buffer (whose length
    /// is the read length), for a reader that only reads the block: it
    /// arrives as a shared immutable buffer, and a tile-cache hit hands
    /// over the cache's own block instead of copying it into `buf`. `buf`
    /// then goes unused and is returned, for the caller to recycle; on
    /// every other path it carries the block and `None` is returned.
    pub fn get_shared_async(
        &self,
        h: GaHandle,
        offset: usize,
        buf: Vec<f64>,
        prio: i64,
        cb: GaSharedCallback,
    ) -> Option<Vec<f64>> {
        self.stats.record_get(buf.len() * 8);
        self.fetch(h, offset, buf, prio, Reader::Shared(cb))
    }

    /// Overwrite `[offset, offset+len)` with `data`.
    pub fn put(&self, h: GaHandle, offset: usize, data: &[f64]) {
        self.write(h, offset, data, None, "put");
        self.stats.record_put(data.len() * 8);
    }

    /// Collective overwrite: every rank calls this with identical
    /// arguments, and each writes only the part of the range its held
    /// stores own — how the tensors are materialized without moving
    /// bytes. Equivalent to [`Self::put`] without an endpoint.
    pub fn put_collective(&self, h: GaHandle, offset: usize, data: &[f64]) {
        let dist = self.home().dist_for_write(h.0, "put_collective");
        // The collective write mutates every rank's shard, but only the
        // local pieces generate an invalidation hook — drop the whole
        // range here so cached copies of the remotely-rewritten pieces
        // cannot survive.
        if let Some(c) = self.cache() {
            c.invalidate_overlap(h.0, offset, data.len());
        }
        let mut written = 0;
        for (node, range) in dist.owners_of(offset, data.len()) {
            if let Some(store) = self.store(node) {
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

    /// Atomic accumulate: `ga[offset..] += alpha * data` (the
    /// `ADD_HASH_BLOCK` primitive). Atomicity granularity is the owner
    /// node's shard lock, as in GA. Remote pieces are asynchronous;
    /// completion is observed through [`Self::sync`].
    pub fn acc(&self, h: GaHandle, offset: usize, data: &[f64], alpha: f64) {
        self.write(h, offset, data, Some(alpha), "acc");
        self.stats.record_acc(data.len() * 8);
    }

    /// [`Self::put`] (`alpha` `None`) or [`Self::acc`], split by owner.
    fn write(&self, h: GaHandle, offset: usize, data: &[f64], alpha: Option<f64>, op: &str) {
        let dist = self.home().dist_for_write(h.0, op);
        // Invalidate before the pieces go out so this rank never serves
        // its own pre-write copy from cache again (read-your-writes;
        // DESIGN.md §4.6). Held pieces also invalidate inside the store,
        // which is what covers *incoming* writes from other ranks.
        if let Some(c) = self.cache() {
            c.invalidate_overlap(h.0, offset, data.len());
        }
        let (mut local_b, mut remote_b) = (0, 0);
        for (node, range) in dist.owners_of(offset, data.len()) {
            let src = &data[range.start - offset..range.end - offset];
            let (l, r) = self.write_piece(h, node, range.start, src, alpha);
            (local_b, remote_b) = (local_b + l, remote_b + r);
        }
        self.stats.record_locality(local_b, remote_b);
    }

    /// Apply one owner's piece — in place when this process holds
    /// `node`'s shard, else one-sided over the wire — and return its
    /// `(local, remote)` bytes.
    fn write_piece(
        &self,
        h: GaHandle,
        node: NodeId,
        start: usize,
        src: &[f64],
        alpha: Option<f64>,
    ) -> (usize, usize) {
        let bytes = src.len() * 8;
        if let Some(store) = self.store(node) {
            match alpha {
                None => store.write_local(h.0, start, src),
                Some(a) => store.acc_local(h.0, start, src, a),
            }
            return (bytes, 0);
        }
        let w = self.wire();
        let to = w.view.members[node];
        match alpha {
            None => w.ep.put(to, h.0 as u32, start, src),
            Some(a) => w.ep.acc(to, h.0 as u32, start, src, a),
        }
        (0, bytes)
    }

    /// Accumulate into only the part of `[offset, offset+len)` owned by
    /// `node` — what one `WRITE_C(i)` instance does with its slice of the
    /// incoming `C_sorted` matrix. No-op if `node` owns none of the range.
    pub fn acc_local(&self, h: GaHandle, node: NodeId, offset: usize, data: &[f64], alpha: f64) {
        let r = self.home().dist_for_write(h.0, "acc_local").range_of(node);
        let begin = offset.max(r.start);
        let end = (offset + data.len()).min(r.end);
        if begin >= end {
            return;
        }
        if let Some(c) = self.cache() {
            c.invalidate_overlap(h.0, begin, end - begin);
        }
        let src = &data[begin - offset..end - offset];
        let (l, r) = self.write_piece(h, node, begin, src, Some(alpha));
        self.stats.record_locality(l, r);
        self.stats.record_acc((end - begin) * 8);
    }

    /// Snapshot the full array: one get of all of it (test/analysis
    /// helper; not a GA operation).
    pub fn snapshot(&self, h: GaHandle) -> Vec<f64> {
        self.get(h, 0, self.len_of(h))
    }

    /// Zero the array in place. Collective in distributed mode: each rank
    /// zeroes its own shard (bracket with [`Self::sync`] as needed).
    pub fn zero(&self, h: GaHandle) {
        // Every rank zeroes its own shard (a frozen one panics there), so
        // no invalidation AM arrives for the remote pieces — drop the
        // whole array.
        for (_, store) in self.held() {
            store.zero_local(h.0);
        }
        if let Some(c) = self.cache() {
            c.invalidate_array(h.0);
        }
    }

    /// `NXTVAL`: the shared work-stealing counter. Every call atomically
    /// returns the next value — "each MPI rank will atomically acquire a
    /// single unit of work each time". This is the global hot spot the
    /// paper identifies as unscalable; over the wire it is a real one: a
    /// fetch-and-add served by the gang leader's progress thread.
    pub fn nxtval(&self) -> i64 {
        self.stats.record_nxtval();
        match &self.wire {
            Some(w) => w.ep.nxtval(w.view.members[0]),
            None => self.nxtval.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Reset the NXTVAL counter (done between the seven work levels).
    /// Collective in distributed mode — over the gang: barriers bracket
    /// the leader's reset so no member can draw a stale value on either
    /// side.
    pub fn nxtval_reset(&self) {
        match &self.wire {
            Some(w) => distga::nxtval_reset_collective(&w.ep, &w.view),
            None => self.nxtval.store(0, Ordering::Relaxed),
        }
    }

    /// Fence this rank's outstanding writes, then a gang barrier — GA's
    /// `sync`, scoped to this instance's gang. No-op without an endpoint,
    /// where every operation is immediately visible. The sync boundary
    /// is where GA's relaxed model makes third-party mutations visible,
    /// so the gang's slice of the tile cache is flushed here — all but
    /// the blocks of frozen arrays, which no rank can have written (other
    /// concurrent gangs' entries are untouched — their coherence epochs
    /// are their own syncs).
    pub fn sync(&self) {
        if let Some(w) = &self.wire {
            w.ep.sync_gang(w.view.mask);
            let tag = w.view.tag;
            w.cache.flush_scope(tag, &self.home().frozen_in(tag));
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
