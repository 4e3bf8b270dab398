//! The persistent per-rank daemon: a `JobHandler` over the comm engine,
//! an ordinal-ordered executor, and the in-process client handle.
//!
//! One [`RankDaemon`] per rank turns the formerly one-shot collective
//! driver into a service. Rank 0 hosts the [`Gateway`]; tenants submit
//! word-encoded [`JobSpec`]s to it (in-process on rank 0, `Submit`
//! active messages elsewhere), the gateway assigns ids and dispatches
//! admitted jobs to a packed rank **gang** with per-member dispatch
//! *seqs*, and each rank's executor runs its frames strictly in seq
//! order. That per-gang strict order is what makes multi-tenancy safe
//! on a collective substrate: barriers, array namespaces, and syncs are
//! scoped per gang, all members of a gang see its jobs in one relative
//! order, and jobs on *disjoint* gangs execute concurrently on their
//! own ranks — the admission controller provides gang packing,
//! concurrency bounding, and fairness at the dispatch level.
//!
//! Everything that makes repeat submissions cheap survives between
//! jobs: the endpoint and its progress thread, the shard store and its
//! arrays, the tile pool, the tile cache (whose blocks of plan
//! workspaces' frozen input tensors outlive sync flushes), and the plan
//! cache itself.

use crate::gateway::{Dispatch, Gateway, JobMeta};
use crate::plan::{CachedPlan, PlanCache, PlanCacheConfig, PlanKey};
use crate::spec::{JobSpec, JobState, KIND_HALT, KIND_JOB, SPEC_WORDS};
use ccsd::{DistRank, StealConfig, StealSummary};
use comm::{CommConfig, Endpoint, JobHandler, Transport, JOB_REJECTED};
use global_arrays::{DistStore, Ga, GaStats, TileCacheConfig};
use parsec_rt::TilePool;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};
use tce::TileSpace;

/// How long the executor waits on a missing dispatch seq with a *later*
/// seq already banked before declaring the control plane broken. An idle
/// executor (empty queue — e.g. a fenced rank that simply receives no
/// work) waits forever.
const STARVE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a client waits for a submit/status reply AM before declaring
/// the gateway unreachable.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Service-layer tuning for one rank.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Comm engine configuration (in-flight caps, batching, retry and
    /// failure-detector timers).
    pub comm: CommConfig,
    /// Tile-cache configuration (capacity, `verify_reads`).
    pub cache: TileCacheConfig,
    /// Cross-rank steal tuning applied to every job's run.
    pub steal: StealConfig,
    /// Plan-cache residency budget (per gang mask; default unbounded).
    pub plan_cache: PlanCacheConfig,
    /// Jobs dispatched-but-not-done the gateway allows at once.
    pub max_open: usize,
    /// Tenant admission weights (unlisted tenants weigh 1). Must be
    /// identical on every rank: the weight also picks the job's
    /// priority band, and graphs must agree across ranks.
    pub weights: Vec<(u32, u64)>,
}

impl Default for SvcConfig {
    fn default() -> Self {
        Self {
            comm: CommConfig::default(),
            cache: TileCacheConfig::default(),
            steal: StealConfig::default(),
            plan_cache: PlanCacheConfig::default(),
            max_open: 2,
            weights: Vec::new(),
        }
    }
}

/// Per-job, per-rank execution record: what this rank spent on one job,
/// scoped by job id (counter deltas around the run).
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub job_id: u64,
    /// Per-gang execution ordinal.
    pub ordinal: u64,
    /// Rank gang the job ran on.
    pub gang_mask: u64,
    pub tenant: u32,
    pub variant: u64,
    /// Whether the plan cache already held this geometry.
    pub plan_hit: bool,
    /// Nanoseconds of plan building this job paid: the collective
    /// attach on a miss, and the graph's wiring.
    pub build_ns: u64,
    /// Nanoseconds executing the graph (reset, run, settle).
    pub run_ns: u64,
    /// The gang leader reports the energy; other members record `None`.
    pub energy: Option<f64>,
    /// GA activity delta: gets posted, remote bytes moved.
    pub ga_gets: u64,
    pub ga_remote_bytes: u64,
    /// Tile-cache delta: hits+joins vs misses during this job.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Comm delta: request retransmissions during this job.
    pub comm_retries: u64,
    /// The run's cross-rank steal activity.
    pub steal: StealSummary,
}

/// Seq-ordered dispatch buffer between the progress thread (which
/// receives frames in arrival order) and the executor (which must run
/// them in this rank's dispatch-seq order).
struct ExecQueue {
    frames: Mutex<BTreeMap<u64, (u64, Vec<u64>)>>,
    cv: Condvar,
    /// `(job id, gang mask)` of the last frame the executor finished,
    /// for the starvation report.
    last_done: Mutex<Option<(u64, u64)>>,
}

impl ExecQueue {
    fn new() -> Self {
        Self {
            frames: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
            last_done: Mutex::new(None),
        }
    }

    /// Bank a dispatch frame `[seq, kind, ...]` under its seq.
    /// Re-banking a seq is a no-op (the comm dedup layer already
    /// filters duplicates; this is belt-and-suspenders).
    fn enqueue(&self, job_id: u64, words: &[u64]) {
        assert!(words.len() >= 2, "dispatch frame too short");
        let mut q = self.frames.lock().unwrap();
        q.entry(words[0]).or_insert((job_id, words.to_vec()));
        self.cv.notify_all();
    }

    /// Record the executor finishing a frame (starvation diagnostics).
    fn note_done(&self, job_id: u64, gang: u64) {
        *self.last_done.lock().unwrap() = Some((job_id, gang));
    }

    /// Block until the frame for `seq` arrives and take it. Reordered
    /// arrivals simply wait here for the gap to fill (the retry
    /// machinery guarantees it eventually does). Starvation is only
    /// *provable* when a frame with a **later** seq is banked while
    /// `seq` never arrives — an empty queue is just an idle executor
    /// (a fenced rank receives no work, possibly for a long time) and
    /// waits indefinitely. A proven gap outliving `starve` is a
    /// control-plane failure: panic with everything a human needs —
    /// which jobs/gangs *are* banked, what ran last, and the state of
    /// every barrier group on this endpoint (a stuck gang collective is
    /// the usual culprit).
    fn pop(&self, seq: u64, ep: &Endpoint, starve: Duration) -> (u64, Vec<u64>) {
        let mut q = self.frames.lock().unwrap();
        loop {
            if let Some(f) = q.remove(&seq) {
                return f;
            }
            let (guard, timed_out) = self.cv.wait_timeout(q, starve).unwrap();
            q = guard;
            if timed_out.timed_out() && q.keys().any(|&s| s > seq) {
                let queued: Vec<(u64, u64, u64)> = q
                    .iter()
                    .map(|(s, (id, w))| {
                        let gang = if w.len() > 2 && w[1] == KIND_JOB {
                            w[2]
                        } else {
                            0
                        };
                        (*s, *id, gang)
                    })
                    .collect();
                let last = *self.last_done.lock().unwrap();
                panic!(
                    "executor starved on rank {}: dispatch seq {seq} never arrived; \
                     banked frames (seq, job, gang mask): {queued:?}; \
                     last completed (job, gang mask): {last:?}; \
                     barrier groups (mask, next, released, last_release_ms, \
                     pending enters, pending counts): {:?}",
                    ep.rank(),
                    ep.barrier_state(),
                );
            }
        }
    }
}

/// The `comm::JobHandler` installed on every rank's endpoint. Routes
/// tenant submissions into the gateway (rank 0), dispatch frames into
/// the executor queue, and completion reports back into the gateway.
struct Handler {
    ep: Weak<Endpoint>,
    gateway: Option<Arc<Gateway>>,
    exec: Arc<ExecQueue>,
}

impl Handler {
    /// Deliver gateway dispatches: each frame goes to its member rank —
    /// enqueued locally for rank 0 (the gateway host is a member too
    /// when the gang includes it), `Submit` AMs elsewhere. Acks are
    /// irrelevant — the seq/retry machinery guarantees delivery.
    fn issue(&self, dispatches: Vec<Dispatch>) {
        let Some(ep) = self.ep.upgrade() else { return };
        let me = ep.rank();
        for d in dispatches {
            for (r, words) in d.frames {
                if r == me {
                    self.exec.enqueue(d.job_id, &words);
                } else {
                    ep.submit_async(r, d.job_id, words, Box::new(|_| {}));
                }
            }
        }
    }

    /// Rank 0's own completion path (no AM: the gateway is local).
    fn done_local(&self, job_id: u64, result: u64) {
        let gw = self.gateway.as_ref().expect("done_local off rank 0");
        let d = gw.record_done(0, job_id, result);
        self.issue(d);
    }
}

impl JobHandler for Handler {
    fn submit(&self, _from: usize, job_id: u64, spec: &[u64]) -> u64 {
        if job_id == JOB_REJECTED {
            // Tenant submission: only the gateway rank can admit.
            let Some(gw) = &self.gateway else {
                return JOB_REJECTED;
            };
            let (id, dispatches) = gw.submit(spec);
            self.issue(dispatches);
            id.unwrap_or(JOB_REJECTED)
        } else {
            // Gateway dispatch: bank it for the executor.
            self.exec.enqueue(job_id, spec);
            job_id
        }
    }

    fn status(&self, job_id: u64) -> (u8, u64) {
        self.gateway
            .as_ref()
            .map_or((JobState::Unknown as u8, 0), |gw| gw.status(job_id))
    }

    fn done(&self, from: usize, job_id: u64, result: u64) {
        if let Some(gw) = &self.gateway {
            let d = gw.record_done(from, job_id, result);
            self.issue(d);
        }
    }
}

/// Recovery orchestration, driven by the comm failure detector on the
/// gateway rank: a confirmed death fences the rank and requeues its
/// gangs' jobs (re-dispatching them onto live ranks immediately when a
/// gang packs). The fence is permanent, as the verdict is. Non-gateway
/// ranks do nothing here — their side of recovery is the poisoned-run
/// suppression in [`RankDaemon::execute`]. Called from the progress
/// thread: it only posts asynchronous sends, never blocks on collectives.
impl comm::FailureHandler for Handler {
    fn on_death(&self, rank: usize) {
        if let Some(gw) = &self.gateway {
            let d = gw.fence_rank(rank);
            self.issue(d);
        }
    }
}

/// One rank of the job service: persistent endpoint, plan cache, and
/// the ordinal-ordered executor loop.
pub struct RankDaemon {
    ep: Arc<Endpoint>,
    /// Root toolkit instance; plans attach via [`Ga::dist_share`] so
    /// all workspaces share one store, cache, and counter set.
    root: Ga,
    pool: Arc<TilePool>,
    /// One monotone steal-epoch sequence across every plan's runs (see
    /// `DistRank::run_epoch`).
    run_epoch: Arc<AtomicU64>,
    plans: PlanCache,
    gateway: Option<Arc<Gateway>>,
    exec: Arc<ExecQueue>,
    handler: Arc<Handler>,
    weights: HashMap<u32, u64>,
    scfg: StealConfig,
    records: Mutex<Vec<JobRecord>>,
    /// Runs whose gang lost a member mid-run: result suppressed, plan
    /// purged; the gateway re-dispatches the job elsewhere.
    poisoned_runs: AtomicU64,
}

impl RankDaemon {
    /// Collectively bring up the daemon on this rank's transport. The
    /// job handler is live before this returns, so tenants may submit
    /// immediately; nothing executes until [`RankDaemon::run`].
    pub fn new(transport: Box<dyn Transport>, cfg: SvcConfig) -> Self {
        let (rank, nranks) = (transport.rank(), transport.nranks());
        let store = DistStore::new(rank, nranks);
        let ep = Endpoint::spawn(transport, store.clone(), cfg.comm);
        let root = Ga::init_dist_cfg(ep.clone(), store, cfg.cache);
        let gateway =
            (rank == 0).then(|| Arc::new(Gateway::new(nranks, cfg.max_open, &cfg.weights)));
        let exec = Arc::new(ExecQueue::new());
        let handler = Arc::new(Handler {
            ep: Arc::downgrade(&ep),
            gateway: gateway.clone(),
            exec: exec.clone(),
        });
        ep.set_job_handler(Some(handler.clone()));
        // The same handler drives recovery: on the gateway rank a
        // confirmed death fences + requeues. (A no-op on other ranks,
        // and entirely inert unless the detector is enabled via
        // `CommConfig::suspect_after`.)
        ep.set_failure_handler(handler.clone());
        // No rank returns (and so no tenant can submit) until every
        // rank's handler is live — otherwise an early Submit AM would
        // find no service and record a rejection for its sequence.
        ep.barrier();
        Self {
            ep,
            root,
            pool: Arc::new(TilePool::default()),
            run_epoch: Arc::new(AtomicU64::new(0)),
            plans: PlanCache::new(cfg.plan_cache),
            gateway,
            exec,
            handler,
            weights: cfg.weights.iter().copied().collect(),
            scfg: cfg.steal,
            records: Mutex::new(Vec::new()),
            poisoned_runs: AtomicU64::new(0),
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Ranks in the service.
    pub fn nranks(&self) -> usize {
        self.ep.nranks()
    }

    /// The underlying endpoint (stats, traces).
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.ep
    }

    /// Shared GA counters (one set across every plan's workspace).
    pub fn ga_stats(&self) -> &GaStats {
        self.root.stats()
    }

    /// Plan-cache `(hits, misses)`.
    pub fn plan_stats(&self) -> (u64, u64) {
        self.plans.stats()
    }

    /// Plans evicted under the residency budget so far.
    pub fn plan_evictions(&self) -> u64 {
        self.plans.evictions()
    }

    /// Plans purged after poisoned runs so far.
    pub fn plan_purges(&self) -> u64 {
        self.plans.purges()
    }

    /// The gateway, on rank 0.
    pub fn gateway(&self) -> Option<&Arc<Gateway>> {
        self.gateway.as_ref()
    }

    /// Gateway-side job table (rank 0), for reporting.
    pub fn job_report(&self) -> Vec<JobMeta> {
        self.gateway.as_ref().map_or(Vec::new(), |g| g.report())
    }

    /// Per-job execution records on this rank, ordinal order.
    pub fn records(&self) -> Vec<JobRecord> {
        self.records.lock().unwrap().clone()
    }

    /// A client handle for threads on this rank (rank 0 clients talk to
    /// the gateway in-process; elsewhere every call is an AM to rank 0).
    pub fn client(&self) -> Client {
        Client {
            ep: self.ep.clone(),
            handler: self.handler.clone(),
            gateway: self.gateway.clone(),
        }
    }

    /// Runs suppressed because a gang member died mid-run.
    pub fn poisoned_runs(&self) -> u64 {
        self.poisoned_runs
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The executor loop: run dispatched jobs in this rank's seq order
    /// until the halt frame. Collective per gang — all members of a
    /// gang execute that gang's jobs in the same relative order, while
    /// disjoint gangs proceed concurrently on their own ranks.
    pub fn run(&self) {
        let mut seq = 0u64;
        loop {
            let (job_id, words) = self.exec.pop(seq, &self.ep, STARVE_TIMEOUT);
            seq += 1;
            match words[1] {
                KIND_HALT => return,
                KIND_JOB => {
                    let (gang, ordinal) = (words[2], words[3]);
                    self.execute(job_id, gang, ordinal, &words[4..]);
                    self.exec.note_done(job_id, gang);
                }
                k => panic!("unknown dispatch kind {k}"),
            }
        }
    }

    /// Execute one admitted job on its gang and report completion to
    /// the gateway.
    fn execute(&self, job_id: u64, gang: u64, ordinal: u64, spec_words: &[u64]) {
        assert_eq!(spec_words.len(), SPEC_WORDS, "dispatch spec malformed");
        let spec = JobSpec::decode(spec_words).expect("gateway dispatched an undecodable spec");
        let key = PlanKey {
            gang,
            kernels: spec_words[4],
            occ: spec.space.occ_tiles_per_spin,
            virt: spec.space.virt_tiles_per_spin,
            tile: spec.space.tile_size,
            spread: spec.space.size_spread,
            irreps: spec.space.irreps,
            seed: spec.space.seed,
        };
        let build_t = Instant::now();
        let (plan, hit) = self.plans.get_or_build(key.clone(), || {
            let space = TileSpace::build(&spec.space);
            let drank = Arc::new(DistRank::attach(
                self.ep.clone(),
                self.root.dist_share_gang(gang),
                &space,
                &spec.kernels,
                self.pool.clone(),
                self.run_epoch.clone(),
            ));
            Arc::new(CachedPlan::new(drank, build_t.elapsed().as_nanos() as u64))
        });
        // Tenant weight doubles as the priority band: heavier tenants'
        // graphs get larger reader/gemm offsets, the same lever the
        // variant wirings use to favor operand delivery.
        let band = (self.weights.get(&spec.tenant).copied().unwrap_or(1) - 1) as i64;
        let mut cfg = spec.variant.cfg();
        cfg.reader_offset += band;
        cfg.gemm_offset += band;
        let graph = plan.drank.build_run_graph(cfg, spec.prefetch);
        let build_ns = build_t.elapsed().as_nanos() as u64;

        // Scope this job's counters: deltas around the run.
        let ga = self.root.stats();
        let c0 = self.ep.stats();
        let (g0, rb0, ch0, cj0, cm0) = (
            ga.gets(),
            ga.remote_bytes(),
            ga.cache_hits(),
            ga.cache_joins(),
            ga.cache_misses(),
        );
        let run_t = Instant::now();
        let run = plan
            .drank
            .run_variant_graph(&graph, cfg, spec.threads.max(1), self.scfg);
        let run_ns = run_t.elapsed().as_nanos() as u64;
        // A gang member died during (or before) this run: the detector
        // poison-released its collectives and completed blocked gets
        // with zeros, so both the result and the plan's workspace (plus
        // the retained cache entries over it) are garbage. Suppress the
        // completion report — the gateway has requeued (or will
        // requeue) the job onto live ranks — and purge the plan so a
        // later job on this gang mask rebuilds from clean fills. Every
        // surviving member sees the same dead mask after its run and
        // purges in lockstep; a death is final, so no revival can clear
        // the bit before this check and pass a poisoned energy off as
        // a result.
        if self.ep.dead_mask() & gang != 0 {
            self.plans.purge(&key);
            self.poisoned_runs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return;
        }
        let c1 = self.ep.stats();
        self.records.lock().unwrap().push(JobRecord {
            job_id,
            ordinal,
            gang_mask: gang,
            tenant: spec.tenant,
            variant: spec.variant.id(),
            plan_hit: hit,
            build_ns,
            run_ns,
            energy: run.energy,
            ga_gets: ga.gets() - g0,
            ga_remote_bytes: ga.remote_bytes() - rb0,
            cache_hits: (ga.cache_hits() + ga.cache_joins()) - (ch0 + cj0),
            cache_misses: ga.cache_misses() - cm0,
            comm_retries: c1.retries - c0.retries,
            steal: run.steal,
        });
        let result = run.energy.map_or(0, f64::to_bits);
        if self.rank() == 0 {
            self.handler.done_local(job_id, result);
        } else {
            self.ep.job_done_async(0, job_id, result);
        }
    }

    /// Collective teardown after [`RankDaemon::run`] returns: detach
    /// the handler, hold for every rank, stop the progress engine.
    pub fn finish(&self) {
        self.ep.set_job_handler(None);
        self.ep.barrier();
        self.ep.shutdown();
    }
}

/// A tenant-side handle: submit jobs, poll status, wait for results.
/// Cheap to clone per tenant thread.
#[derive(Clone)]
pub struct Client {
    ep: Arc<Endpoint>,
    handler: Arc<Handler>,
    gateway: Option<Arc<Gateway>>,
}

impl Client {
    /// The in-process gateway handle (rank 0 clients only): direct
    /// access for service-owner operations like fencing a rank.
    pub fn gateway(&self) -> Option<&Arc<Gateway>> {
        self.gateway.as_ref()
    }

    /// Submit a job; returns its id, or `None` if the gateway refused
    /// (halted or malformed spec). On rank 0 the gateway is called
    /// in-process; elsewhere this is a `Submit` AM riding the
    /// seq/retry/dedup machinery.
    pub fn submit(&self, spec: &JobSpec) -> Option<u64> {
        let words = spec.encode();
        if let Some(gw) = &self.gateway {
            let (id, dispatches) = gw.submit(&words);
            self.handler.issue(dispatches);
            return id;
        }
        let (tx, rx) = mpsc::channel();
        self.ep.submit_async(
            0,
            JOB_REJECTED,
            words,
            Box::new(move |id| {
                let _ = tx.send(id);
            }),
        );
        let id = rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("submit reply lost: progress engine dead or gateway unreachable");
        (id != JOB_REJECTED).then_some(id)
    }

    /// One status poll: `(state, energy-bits)`.
    pub fn status(&self, job_id: u64) -> (JobState, u64) {
        if let Some(gw) = &self.gateway {
            let (s, r) = gw.status(job_id);
            return (JobState::from_u8(s), r);
        }
        let (tx, rx) = mpsc::channel();
        self.ep.job_status_async(
            0,
            job_id,
            Box::new(move |s, r| {
                let _ = tx.send((s, r));
            }),
        );
        let (s, r) = rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("status reply lost: progress engine dead or gateway unreachable");
        (JobState::from_u8(s), r)
    }

    /// Poll until the job completes; returns its energy. Panics after
    /// `timeout` — a service test should never wait forever.
    pub fn wait(&self, job_id: u64, timeout: Duration) -> f64 {
        let t0 = Instant::now();
        loop {
            let (state, bits) = self.status(job_id);
            if state == JobState::Done {
                return f64::from_bits(bits);
            }
            assert!(
                t0.elapsed() < timeout,
                "job {job_id} not done after {timeout:?} (state {state:?})"
            );
            std::thread::sleep(Duration::from_micros(300));
        }
    }

    /// Ask the gateway to drain and halt every rank's executor (rank 0
    /// clients only — shutdown is the service owner's call).
    pub fn halt(&self) {
        let gw = self
            .gateway
            .as_ref()
            .expect("halt() is a rank-0 (service owner) operation");
        let d = gw.halt();
        self.handler.issue(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STARVE: Duration = Duration::from_millis(20);

    fn lone_endpoint() -> Arc<Endpoint> {
        let t = comm::SocketTransport::mesh(1)
            .unwrap()
            .pop()
            .expect("one rank");
        Endpoint::spawn(Box::new(t), DistStore::new(0, 1), CommConfig::default())
    }

    /// Regression for the executor starvation panic: an empty queue is an
    /// *idle* executor (a fenced rank receives no work, possibly for a
    /// long time), not a starved one, and waits quietly through any
    /// number of timeouts until a frame arrives.
    #[test]
    fn an_empty_queue_outlasts_the_starve_timeout_quietly() {
        let (ep, q) = (lone_endpoint(), ExecQueue::new());
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(STARVE * 6);
                q.enqueue(7, &[0, KIND_HALT]);
            });
            assert_eq!(q.pop(0, &ep, STARVE), (7, vec![0, KIND_HALT]));
        });
        assert!(t0.elapsed() >= STARVE * 6, "pop returned before the frame");
        ep.shutdown();
    }

    /// Starvation is a *proven* hole: a later seq banked while an earlier
    /// one never arrives.
    #[test]
    #[should_panic(expected = "executor starved on rank 0: dispatch seq 0 never arrived")]
    fn a_seq_hole_outliving_the_timeout_panics_with_the_banked_frames() {
        let (ep, q) = (lone_endpoint(), ExecQueue::new());
        q.enqueue(9, &[1, KIND_JOB, 0b1, 0]);
        q.pop(0, &ep, STARVE);
    }
}
