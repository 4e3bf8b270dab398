//! Native threaded engine: real execution of a PTG on one shared-memory
//! node.
//!
//! The dispatch path is sharded and work-stealing, in the image of
//! PaRSEC's shared-memory scheduler. Each worker owns a ready deque
//! (crossbeam `Worker`/`Stealer`); tasks released by a completion go to
//! the releasing worker's own deque (data is hot in its cache), idle
//! workers steal — batched from the shared root [`Injector`], singly and
//! in randomized victim order from peers. As in PaRSEC, "tasks do not
//! migrate between threads after they have started executing": stealing
//! moves only *ready* tasks, never running ones. Dependency counting and
//! the `(task, flow) -> payload` store live in sharded tables
//! ([`crate::shard`]) picked by chain, so two workers on different chains
//! touch different locks; quiescence is one atomic counter. Idle workers
//! park through an eventcount ([`crate::shard::IdleGate`]): a push is an
//! epoch bump plus a wakeup only when somebody actually sleeps, instead
//! of a condvar broadcast under a global mutex.
//!
//! A chain's life is local to the worker that claimed it. A starved
//! worker looks, in order, at its own deque, the completion mailboxes,
//! the root injector, its [`WorkSource`]'s local chains — taken whole, a
//! few chains per claim — and only then steals single tasks from its
//! siblings; a cross-rank probe ([`WorkSource::poll`]) waits until all of
//! those are dry. A body that finishes its own task before returning
//! (a read whose data was already local) is settled inline, exactly like
//! a synchronous return, so its successors stay on the same worker.
//!
//! The price of sharding is that a [`SchedPolicy`]'s ordering becomes a
//! *local* discipline (each worker orders its own deque; steals are
//! oldest-first) rather than a total order over all ready tasks — the
//! same approximation PaRSEC's default scheduler makes, and invisible to
//! numerics because task graphs order all value-carrying dependencies
//! explicitly.

use crate::sched::SchedPolicy;
use crate::shard::{IdleGate, ShardMap, ShardedTracker};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use ptg::{Activity, Completion, CompletionSink, Payload, TaskGraph, TaskKey};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xtrace::{ActivityKind, Trace, WorkerId};

/// Outcome of a native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock execution trace (node 0, one row per worker).
    pub trace: Trace,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Total wall time.
    pub wall: std::time::Duration,
    /// Work-distribution counters (per-worker occupancy, steals).
    pub steal: StealStats,
}

/// Work-distribution counters of one run.
#[derive(Debug, Clone, Default)]
pub struct StealStats {
    /// Tasks seeded mid-run from an external [`WorkSource`] (locally
    /// claimed chain roots and cross-rank migrations alike).
    pub external_tasks: u64,
    /// Successful single-task steals from peer worker deques.
    pub local_steals: u64,
    /// Completions settled from the mailboxes: finished on another thread
    /// (a comm progress thread's get reply), or by a body running some
    /// other task. A body finishing its own task is settled inline and
    /// not counted.
    pub deferred: u64,
    /// Task bodies executed per worker (occupancy; sums to `tasks`).
    pub per_worker_tasks: Vec<u64>,
}

/// What an external [`WorkSource`] has for a starving engine.
pub enum SourcePoll {
    /// New root tasks to seed (each must declare zero inputs). Must be
    /// non-empty.
    Tasks(Vec<TaskKey>),
    /// Nothing right now, but more may arrive asynchronously (a steal
    /// request is in flight): park, don't conclude anything.
    Pending,
    /// Permanently exhausted. Must be sticky — once returned, no later
    /// poll may return tasks, because the engine shuts down on it.
    Empty,
}

/// A mid-run task feed for workers that found nothing in their own deque.
/// This is how the distributed layer turns the engine into a peer of the
/// comm progress thread: chain roots are claimed batch-by-batch (locally
/// or stolen from another rank) instead of being fixed at graph build,
/// and the engine terminates only when the graph is quiescent AND the
/// source is [`SourcePoll::Empty`].
pub trait WorkSource: Send + Sync {
    /// Called once at run start; asynchronous arrivals (steal replies on
    /// the comm thread) use the gate to unpark waiting workers.
    fn attach(&self, gate: Arc<IdleGate>);
    /// Work the source already holds — this rank's own chains, grants
    /// that have landed — for a worker whose own deque, the mailboxes
    /// and the injector are dry. Asked *before* the worker steals single
    /// tasks from its siblings, so each chain goes whole to the worker
    /// that claims it. Never escalates; `None` when nothing is at hand.
    fn claim(&self) -> Option<Vec<TaskKey>>;
    /// Called by a worker that found every deque dry, its siblings'
    /// included: hands out what [`WorkSource::claim`] would, or else may
    /// escalate (post a cross-rank steal) and answer
    /// [`SourcePoll::Pending`]. May block briefly (a lock), never on the
    /// network.
    fn poll(&self) -> SourcePoll;
}

/// Assemble a [`NativeReport`] from per-worker span sets (one span per
/// task body, so they also count the tasks).
fn build_report(
    graph: &TaskGraph,
    span_sets: &[Vec<(u32, u64, u64)>],
    wall: std::time::Duration,
    node: u32,
) -> NativeReport {
    let mut trace = Trace::new();
    let class_ids: Vec<u16> = graph
        .classes()
        .iter()
        .map(|c| {
            let kind = match c.activity() {
                Activity::Compute => ActivityKind::Compute,
                Activity::Communication => ActivityKind::Communication,
                Activity::Runtime => ActivityKind::Runtime,
            };
            trace.class(c.name(), kind)
        })
        .collect();
    for (w, spans) in span_sets.iter().enumerate() {
        for &(class, b, e) in spans {
            trace.push(
                WorkerId::new(node, w as u32),
                class_ids[class as usize],
                b,
                e,
            );
        }
    }
    let per_worker_tasks: Vec<u64> = span_sets.iter().map(|s| s.len() as u64).collect();
    NativeReport {
        trace,
        tasks: per_worker_tasks.iter().sum(),
        wall,
        steal: StealStats {
            per_worker_tasks,
            ..StealStats::default()
        },
    }
}

/// Configuration for the native engine.
#[derive(Clone)]
pub struct NativeRuntime {
    threads: usize,
    policy: SchedPolicy,
    node: u32,
    epoch: Option<Instant>,
    source: Option<Arc<dyn WorkSource>>,
}

/// One deferred completion: the finished task and its output payloads.
type Arrival = (TaskKey, Vec<Option<Payload>>);

/// Deferred-completion mailboxes shared with whatever finishes
/// asynchronous tasks (comm progress threads). A task that
/// `execute_async`-returns `None` without having finished itself is
/// counted in `inflight` until its outputs arrive in a queue; workers
/// drain their own queue first, then scan the others, and settle each
/// completion exactly like tasks they ran themselves. Per-worker queues
/// keep N workers and the comm thread off one hot mutex and deliver
/// successors into the drainer's own deque.
pub(crate) struct Completions {
    queues: Vec<Mutex<Vec<Arrival>>>,
    /// Round-robin distribution cursor for arriving completions.
    rr: AtomicU64,
    /// Completions pushed but not yet taken by a drainer (kept exact on
    /// the producer side so `idle` never has to lock every queue).
    queued: AtomicU64,
    inflight: AtomicU64,
    /// Completions taken from the queues (the `deferred` statistic).
    drained: AtomicU64,
    gate: Arc<IdleGate>,
}

impl Completions {
    /// Conclusive only while every worker is idle: then nothing can
    /// re-raise `inflight`, so reading it as zero first means every
    /// completion has been pushed (push precedes the decrement), and a
    /// zero `queued` read after that means every push was drained.
    fn idle(&self) -> bool {
        self.inflight.load(Ordering::SeqCst) == 0 && self.queued.load(Ordering::SeqCst) == 0
    }
}

/// The task a worker thread is running inside `execute_async`, and its
/// outputs once the body has finished that very task itself.
struct Inline {
    sink: *const Completions,
    key: TaskKey,
    outputs: Option<Vec<Option<Payload>>>,
}

thread_local! {
    /// This thread's inline-settle slot; see [`offer_inline`].
    static INLINE: RefCell<Option<Inline>> = const { RefCell::new(None) };
}

/// Keep `outputs` in this thread's inline slot if the slot is waiting for
/// exactly this completion — same engine, same task, not yet finished —
/// and hand them back for the mailbox otherwise: a completion for another
/// task (a cache fill serving its waiters) or one finished on another
/// thread is deferred as before.
fn offer_inline(
    sink: &Completions,
    key: TaskKey,
    outputs: Vec<Option<Payload>>,
) -> Option<Vec<Option<Payload>>> {
    INLINE.with(|slot| match &mut *slot.borrow_mut() {
        Some(s) if std::ptr::eq(s.sink, sink) && s.key == key && s.outputs.is_none() => {
            s.outputs = Some(outputs);
            None
        }
        _ => Some(outputs),
    })
}

impl CompletionSink for Completions {
    fn complete(&self, key: TaskKey, outputs: Vec<Option<Payload>>) {
        let Some(outputs) = offer_inline(self, key, outputs) else {
            return; // settled by `run_task` as a synchronous return
        };
        let w = self.rr.fetch_add(1, Ordering::Relaxed) as usize % self.queues.len();
        self.queues[w].lock().push((key, outputs));
        // Count the arrival before releasing `inflight`: between the two,
        // the completion is visible through `queued` instead, so `idle`
        // (which reads inflight first) never misses it.
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.gate.notify_all();
    }
}

struct Shared<'g> {
    graph: &'g TaskGraph,
    policy: SchedPolicy,
    threads: usize,
    tracker: ShardedTracker,
    store: ShardMap<(TaskKey, u32), Payload>,
    injector: Injector<TaskKey>,
    stealers: Vec<Stealer<TaskKey>>,
    gate: Arc<IdleGate>,
    completions: Arc<Completions>,
    source: Option<Arc<dyn WorkSource>>,
    shutdown: AtomicBool,
    idle: AtomicU64,
    external_tasks: AtomicU64,
    local_steals: AtomicU64,
    t0: Instant,
}

impl NativeRuntime {
    /// Engine with `threads >= 1` workers and the default (priority+FIFO)
    /// policy.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        Self {
            threads,
            policy: SchedPolicy::PriorityFifo,
            node: 0,
            epoch: None,
            source: None,
        }
    }

    /// Override the scheduling policy.
    pub fn policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Node index stamped on trace rows (one engine per rank in
    /// distributed runs; defaults to 0).
    pub fn node(mut self, node: u32) -> Self {
        self.node = node;
        self
    }

    /// Time origin for spans. Distributed runs pass the comm endpoint's
    /// epoch so compute and communication spans share one timeline.
    pub fn epoch(mut self, epoch: Instant) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Feed tasks from an external [`WorkSource`] in addition to (or
    /// instead of) the graph's static roots. The run then terminates
    /// only when the graph is quiescent and the source reports
    /// [`SourcePoll::Empty`].
    pub fn source(mut self, source: Arc<dyn WorkSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Owner-pop discipline for a worker's deque under `policy`.
    fn new_deque(policy: SchedPolicy) -> Worker<TaskKey> {
        match policy {
            SchedPolicy::PriorityFifo | SchedPolicy::Fifo => Worker::new_fifo(),
            SchedPolicy::PriorityLifo | SchedPolicy::Lifo | SchedPolicy::ChainAffinity => {
                Worker::new_lifo()
            }
        }
    }

    /// Execute `graph` to quiescence. Panics if the graph deadlocks
    /// (declared inputs that no task delivers).
    pub fn run(&self, graph: &TaskGraph) -> NativeReport {
        let ctx = graph.ctx();
        let mut roots: Vec<(TaskKey, i64)> = graph
            .roots()
            .iter()
            .map(|&r| (r, graph.class_of(r).priority(r, ctx)))
            .collect();
        // The injector is stolen oldest-first: order the roots so steals
        // respect the policy (stable sort keeps readiness order on ties).
        match self.policy {
            SchedPolicy::PriorityFifo | SchedPolicy::PriorityLifo | SchedPolicy::ChainAffinity => {
                roots.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
            }
            SchedPolicy::Fifo => {}
            SchedPolicy::Lifo => roots.reverse(),
        }

        let shards = (self.threads * 4).clamp(8, 64);
        let tracker = ShardedTracker::new(shards);
        let injector = Injector::new();
        for &(r, _) in &roots {
            tracker.add_root(r);
            injector.push(r);
        }
        let locals: Vec<Worker<TaskKey>> = (0..self.threads)
            .map(|_| Self::new_deque(self.policy))
            .collect();
        let stealers: Vec<Stealer<TaskKey>> = locals.iter().map(|w| w.stealer()).collect();
        let gate = Arc::new(IdleGate::new());
        if let Some(src) = &self.source {
            src.attach(gate.clone());
        }
        let shared = Shared {
            graph,
            policy: self.policy,
            threads: self.threads,
            tracker,
            store: ShardMap::new(shards),
            injector,
            stealers,
            completions: Arc::new(Completions {
                queues: (0..self.threads).map(|_| Mutex::new(Vec::new())).collect(),
                rr: AtomicU64::new(0),
                queued: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                drained: AtomicU64::new(0),
                gate: gate.clone(),
            }),
            gate,
            source: self.source.clone(),
            shutdown: AtomicBool::new(roots.is_empty() && self.source.is_none()),
            idle: AtomicU64::new(0),
            external_tasks: AtomicU64::new(0),
            local_steals: AtomicU64::new(0),
            t0: self.epoch.unwrap_or_else(Instant::now),
        };

        let run_start = Instant::now();
        let span_sets: Vec<Vec<(u32, u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = locals
                .into_iter()
                .enumerate()
                .map(|(index, local)| {
                    let shared = &shared;
                    scope.spawn(move || WorkerLoop::new(shared, local, index).run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let wall = run_start.elapsed();
        assert!(
            shared.tracker.is_quiescent(),
            "deadlock: {} task(s) still waiting for inputs",
            shared.tracker.starved()
        );
        let mut report = build_report(graph, &span_sets, wall, self.node);
        report.steal.external_tasks = shared.external_tasks.load(Ordering::SeqCst);
        report.steal.local_steals = shared.local_steals.load(Ordering::SeqCst);
        report.steal.deferred = shared.completions.drained.load(Ordering::SeqCst);
        report
    }
}

/// xorshift64*: cheap per-worker victim randomization.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// All ready queues observed empty (meaningful only while every worker is
/// idle — then no push can be in flight and the scan is conclusive).
fn queues_empty(shared: &Shared<'_>) -> bool {
    shared.injector.is_empty() && shared.stealers.iter().all(|s| s.is_empty())
}

/// One worker: its deque, its victim randomization, its spans, and the
/// scratch buffers the dispatch path reuses from task to task.
struct WorkerLoop<'s, 'g> {
    shared: &'s Shared<'g>,
    local: Worker<TaskKey>,
    index: usize,
    rng: u64,
    spans: Vec<(u32, u64, u64)>,
    deps: Vec<ptg::Dep>,
    ready: Vec<(TaskKey, i64)>,
    last_chain: Option<i64>,
}

impl<'s, 'g> WorkerLoop<'s, 'g> {
    fn new(shared: &'s Shared<'g>, local: Worker<TaskKey>, index: usize) -> Self {
        Self {
            shared,
            local,
            index,
            rng: 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index as u64 + 1) | 1,
            spans: Vec::new(),
            deps: Vec::new(),
            ready: Vec::new(),
            last_chain: None,
        }
    }

    /// Find a task, execute it, release successors into the own deque;
    /// park through the idle gate when no work is visible. Returns the
    /// recorded spans.
    fn run(mut self) -> Vec<(u32, u64, u64)> {
        let shared = self.shared;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return self.spans;
            }
            if let Some(key) = self.next_task() {
                self.run_task(key);
                continue;
            }

            // Two-phase park: snapshot the epoch, re-check every source, and
            // only then sleep — a push between snapshot and wait() advances
            // the epoch and wait() returns immediately (no lost wakeup).
            let ticket = shared.gate.prepare();
            if shared.shutdown.load(Ordering::SeqCst) {
                return self.spans;
            }
            if let Some(key) = self.next_task() {
                self.run_task(key);
                continue;
            }
            // Every deque is dry: let the external source (if any)
            // escalate before parking. Pending means a cross-rank steal is
            // in flight, so parking is correct and concluding anything is
            // not.
            let poll = match &shared.source {
                None => SourcePoll::Empty,
                Some(src) => src.poll(),
            };
            let src_empty = match poll {
                SourcePoll::Tasks(keys) if !keys.is_empty() => {
                    self.seed(keys);
                    continue;
                }
                // An empty task batch is nothing to seed but not exhaustion.
                SourcePoll::Tasks(_) | SourcePoll::Pending => false,
                SourcePoll::Empty => true,
            };
            let idle_now = shared.idle.fetch_add(1, Ordering::SeqCst) + 1;
            if idle_now as usize == shared.threads && src_empty && queues_empty(shared) {
                // `idle` must reach `threads` before `completions.idle()` is
                // read: only with every worker parked is the counter pair
                // conclusive (nothing can re-raise `inflight`).
                let quiescent = shared.tracker.is_quiescent();
                let finished = shared.source.is_some() && quiescent;
                if (finished || !quiescent) && shared.completions.idle() {
                    // Source-fed run fully drained (finished), or every
                    // worker is idle with empty queues and live tasks that
                    // can never receive inputs (deadlock — the post-run
                    // quiescence assert reports it).
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.gate.notify_all();
                    shared.idle.fetch_sub(1, Ordering::SeqCst);
                    return self.spans;
                }
            }
            shared.gate.wait(ticket);
            shared.idle.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// A starved worker's order: own deque, the completion mailboxes
    /// (their successors land in the own deque), a batch of roots from the
    /// injector, a claim of whole chains from the source, and only then a
    /// single task stolen from a sibling.
    fn next_task(&mut self) -> Option<TaskKey> {
        if let Some(k) = self.local.pop() {
            return Some(k);
        }
        if self.drain_completions() {
            if let Some(k) = self.local.pop() {
                return Some(k);
            }
        }
        if let Some(k) = self.steal_injector() {
            return Some(k);
        }
        if let Some(keys) = self.shared.source.as_ref().and_then(|s| s.claim()) {
            self.seed(keys);
            if let Some(k) = self.local.pop() {
                return Some(k);
            }
        }
        self.steal_sibling()
    }

    /// A batch of roots from the injector into the own deque (absorbing
    /// `Retry`).
    fn steal_injector(&mut self) -> Option<TaskKey> {
        let shared = self.shared;
        loop {
            match shared.injector.steal_batch_and_pop(&self.local) {
                Steal::Success(k) => {
                    // We grabbed a batch; if roots remain, let someone else in.
                    if !shared.injector.is_empty() {
                        shared.gate.notify_one();
                    }
                    return Some(k);
                }
                Steal::Retry => continue,
                Steal::Empty => return None,
            }
        }
    }

    /// Randomized single-task steals from sibling deques, absorbing
    /// `Retry` for one extra round.
    fn steal_sibling(&mut self) -> Option<TaskKey> {
        let shared = self.shared;
        let n = shared.stealers.len();
        if n == 1 {
            return None;
        }
        for _round in 0..2 {
            let mut saw_retry = false;
            let start = (next_rand(&mut self.rng) % n as u64) as usize;
            for off in 0..n {
                let victim = (start + off) % n;
                if victim == self.index {
                    continue;
                }
                match shared.stealers[victim].steal() {
                    Steal::Success(k) => {
                        shared.local_steals.fetch_add(1, Ordering::Relaxed);
                        return Some(k);
                    }
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            if !saw_retry {
                break;
            }
        }
        None
    }

    /// Seed externally-sourced tasks (chain roots claimed from the ledger
    /// or stolen from another rank) into the own deque, ordered for the
    /// deque's pop end like [`WorkerLoop::settle`] orders released
    /// successors.
    fn seed(&mut self, keys: Vec<TaskKey>) {
        let shared = self.shared;
        let graph = shared.graph;
        let ctx = graph.ctx();
        shared
            .external_tasks
            .fetch_add(keys.len() as u64, Ordering::SeqCst);
        let mut seeded: Vec<(TaskKey, i64)> = keys
            .into_iter()
            .map(|k| (k, graph.class_of(k).priority(k, ctx)))
            .collect();
        match shared.policy {
            SchedPolicy::PriorityFifo => seeded.sort_by_key(|&(_, p)| std::cmp::Reverse(p)),
            SchedPolicy::PriorityLifo | SchedPolicy::ChainAffinity => {
                seeded.sort_by_key(|&(_, p)| p)
            }
            SchedPolicy::Fifo => {}
            SchedPolicy::Lifo => seeded.reverse(),
        }
        for &(k, _) in seeded.iter() {
            shared.tracker.add_root(k);
            self.local.push(k);
        }
        shared.gate.notify_all();
    }

    /// Drain deferred completions (tasks finished off their own worker)
    /// and settle each exactly as if this worker had run it. Returns true
    /// if anything was settled.
    fn drain_completions(&mut self) -> bool {
        // Own mailbox first (successors land in the own deque), then scan
        // the others so no completion waits on a busy worker.
        let q = &self.shared.completions;
        // `queued` is exact on the producer side, so the common all-empty
        // case costs one load instead of N mutex acquisitions per loop
        // turn. A push racing this load is not lost: the producer bumps
        // the gate after counting, so the arrival is seen on the next turn
        // or wakes a parked worker.
        if q.queued.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let nq = q.queues.len();
        for off in 0..nq {
            let batch = std::mem::take(&mut *q.queues[(self.index + off) % nq].lock());
            if batch.is_empty() {
                continue;
            }
            q.queued.fetch_sub(batch.len() as u64, Ordering::SeqCst);
            q.drained.fetch_add(batch.len() as u64, Ordering::Relaxed);
            for (key, outputs) in batch {
                self.settle(key, outputs);
            }
            return true;
        }
        false
    }

    /// Execute one task and release its successors. A body that defers
    /// (`execute_async` returns `None` without finishing its own
    /// completion) is settled later from the mailboxes; only the posting
    /// time appears as this worker's span.
    fn run_task(&mut self, key: TaskKey) {
        let shared = self.shared;
        let graph = shared.graph;
        let ctx = graph.ctx();
        let class = graph.class_of(key);

        // Gather inputs (each flow hits only its chain's store shard).
        let nflows = class.num_flows();
        let mut inputs: Vec<Option<Payload>> = (0..nflows as u32)
            .map(|f| shared.store.remove(&(key, f)))
            .collect();

        // Count the task in flight *before* the body runs: a deferring body
        // hands its completion to another thread, which may finish before we
        // return — the counter must already cover it or an all-idle scan
        // could misread the lull as a deadlock.
        shared.completions.inflight.fetch_add(1, Ordering::SeqCst);
        let done = Completion::new(key, shared.completions.clone() as Arc<dyn CompletionSink>);
        // Arm the inline slot: a body that finishes `done` on this thread
        // before returning has completed synchronously.
        let outer = INLINE.replace(Some(Inline {
            sink: Arc::as_ptr(&shared.completions),
            key,
            outputs: None,
        }));

        // Execute the body (no lock anywhere near this).
        let b = shared.t0.elapsed().as_nanos() as u64;
        let result = class.execute_async(key, ctx, &mut inputs, done);
        let e = shared.t0.elapsed().as_nanos() as u64;
        self.spans.push((key.class, b, e));
        let inline = INLINE.replace(outer).and_then(|s| s.outputs);

        let outputs = match (result, inline) {
            (Some(outputs), None) | (None, Some(outputs)) => outputs,
            // Deferred: the completion owner settles it via the mailboxes.
            (None, None) => return,
            (Some(_), Some(_)) => panic!(
                "{}: body both returned and finished its outputs",
                graph.display(key)
            ),
        };
        shared.completions.inflight.fetch_sub(1, Ordering::SeqCst);
        self.settle(key, outputs);
    }

    /// Post-execution bookkeeping: store outputs, deliver dependencies,
    /// publish newly-ready tasks in policy order, detect quiescence.
    /// Shared by the synchronous path and the completion drain.
    fn settle(&mut self, key: TaskKey, outputs: Vec<Option<Payload>>) {
        let shared = self.shared;
        let graph = shared.graph;
        let ctx = graph.ctx();
        let class = graph.class_of(key);
        self.last_chain = Some(key.params[0]);
        assert_eq!(
            outputs.len(),
            class.num_flows(),
            "{}: body returned wrong flow count",
            graph.display(key)
        );

        // Release successors. Payload inserts precede every deliver that
        // could publish readiness, so a thief that later pops the successor
        // finds its inputs (visibility chains through the shard locks). The
        // producer's own output references are dropped before the deliver
        // loop: once a successor can run, the store entries are the only
        // remaining references, so a single-consumer payload is uniquely
        // held by the time its consumer takes it and can be reused in place
        // instead of copy-on-write cloned.
        let (deps, ready) = (&mut self.deps, &mut self.ready);
        deps.clear();
        ready.clear();
        class.successors(key, ctx, deps);
        for d in deps.iter() {
            if let Some(p) = &outputs[d.src_flow as usize] {
                shared.store.insert((d.dst, d.dst_flow), p.clone());
            }
        }
        drop(outputs);
        for d in deps.iter() {
            if let Some(now_ready) = shared.tracker.deliver(graph, d.dst) {
                let prio = graph.class_of(now_ready).priority(now_ready, ctx);
                ready.push((now_ready, prio));
            }
        }

        // Order the batch for the local deque's pop end, then publish. The
        // policy is approximate across workers (steals are oldest-first) but
        // exact within the batch.
        match shared.policy {
            // FIFO deque pops oldest-first: push best first.
            SchedPolicy::PriorityFifo => ready.sort_by_key(|&(_, p)| std::cmp::Reverse(p)),
            // LIFO deque pops newest-first: push best last.
            SchedPolicy::PriorityLifo => ready.sort_by_key(|&(_, p)| p),
            SchedPolicy::Fifo | SchedPolicy::Lifo => {}
            // Same-chain tasks (hot C tile) last, highest priority among them
            // very last, so the owner pops them first.
            SchedPolicy::ChainAffinity => {
                let chain = self.last_chain;
                ready.sort_by_key(|&(k, p)| (chain == Some(k.params[0]), p));
            }
        }
        for &(k, _) in ready.iter() {
            self.local.push(k);
            shared.gate.notify_one();
        }

        if shared.tracker.complete(key) {
            // This completion reached quiescence; exactly one worker sees it
            // (per quiescent episode — an external source can re-seed roots).
            if shared.source.is_none() {
                shared.shutdown.store(true, Ordering::SeqCst);
            }
            // With a source, termination is decided at the all-idle scan
            // (the source may still hold or receive chains); wake everyone
            // so the scan happens promptly.
            shared.gate.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::{Dep, GraphCtx, PlainCtx};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// SUM(i): i in 0..n leaves produce i; ADD(level, j) reduce pairwise.
    /// Simplified: one class, params [kind, i]; kind 0 = leaf, 1 = final.
    struct Reduce {
        n: i64,
        total: Arc<AtomicU64>,
    }
    impl ptg::TaskClass for Reduce {
        fn name(&self) -> &str {
            "REDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..self.n {
                out.push(TaskKey::new(0, &[0, i]));
            }
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    // all leaves feed the same flow of the sink; the engine
                    // must count them individually
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            if key.params[0] == 0 {
                self.total
                    .fetch_add(key.params[1] as u64, Ordering::Relaxed);
                vec![Some(Arc::new(vec![key.params[1] as f64]))]
            } else {
                vec![None]
            }
        }
    }

    #[test]
    fn executes_fan_in_graph() {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Reduce {
                n: 10,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(4).run(&g);
        assert_eq!(rep.tasks, 11);
        assert_eq!(total.load(Ordering::Relaxed), 45);
        assert!(rep.trace.find_overlap().is_none());
    }

    #[test]
    fn single_thread_works() {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Reduce {
                n: 3,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(1).policy(SchedPolicy::Fifo).run(&g);
        assert_eq!(rep.tasks, 4);
    }

    #[test]
    fn all_policies_execute_fan_in() {
        for policy in [
            SchedPolicy::PriorityFifo,
            SchedPolicy::PriorityLifo,
            SchedPolicy::Fifo,
            SchedPolicy::Lifo,
            SchedPolicy::ChainAffinity,
        ] {
            let total = Arc::new(AtomicU64::new(0));
            let g = TaskGraph::new(
                vec![Arc::new(Reduce {
                    n: 16,
                    total: total.clone(),
                })],
                Arc::new(PlainCtx { nodes: 1 }),
            );
            let rep = NativeRuntime::new(4).policy(policy).run(&g);
            assert_eq!(rep.tasks, 17, "{policy:?}");
            assert_eq!(total.load(Ordering::Relaxed), 120, "{policy:?}");
        }
    }

    /// Leaves defer their execution to a helper thread (as readers defer
    /// to the comm layer); the sink must feed completions back into the
    /// dependency tracker and the run must still quiesce.
    struct AsyncReduce {
        n: i64,
        total: Arc<AtomicU64>,
    }
    impl ptg::TaskClass for AsyncReduce {
        fn name(&self) -> &str {
            "AREDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..self.n {
                out.push(TaskKey::new(0, &[0, i]));
            }
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            // Only the sink runs synchronously.
            assert_eq!(key.params[0], 1);
            vec![None]
        }
        fn execute_async(
            &self,
            key: TaskKey,
            ctx: &dyn GraphCtx,
            inputs: &mut [Option<Payload>],
            done: ptg::Completion,
        ) -> Option<Vec<Option<Payload>>> {
            if key.params[0] != 0 {
                return Some(self.execute(key, ctx, inputs));
            }
            let total = self.total.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                let i = done.key().params[1];
                total.fetch_add(i as u64, Ordering::Relaxed);
                done.finish(vec![Some(Arc::new(vec![i as f64]))]);
            });
            None
        }
    }

    #[test]
    fn deferred_completions_feed_the_tracker() {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(AsyncReduce {
                n: 24,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(2).run(&g);
        assert_eq!(rep.tasks, 25);
        assert_eq!(total.load(Ordering::Relaxed), 276);
        assert_eq!(
            rep.steal.deferred, 24,
            "every helper-thread finish is mailed"
        );
    }

    /// Leaves that defer, then finish completions on the worker before
    /// returning: with `Own`, each leaf finishes itself; with `Batch`, the
    /// leaf that completes a stash of all `n` deferred completions
    /// finishes every one of them — its own and `n - 1` others (the
    /// shape of a cache fill serving its waiters).
    #[derive(Clone, Copy, PartialEq)]
    enum Finish {
        Own,
        Batch,
    }
    struct InlineReduce {
        n: i64,
        finish: Finish,
        stash: Mutex<Vec<ptg::Completion>>,
    }
    impl ptg::TaskClass for InlineReduce {
        fn name(&self) -> &str {
            "IREDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..self.n {
                out.push(TaskKey::new(0, &[0, i]));
            }
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            assert_eq!(key.params[0], 1, "only the sink runs synchronously");
            vec![None]
        }
        fn execute_async(
            &self,
            key: TaskKey,
            ctx: &dyn GraphCtx,
            inputs: &mut [Option<Payload>],
            done: ptg::Completion,
        ) -> Option<Vec<Option<Payload>>> {
            if key.params[0] != 0 {
                return Some(self.execute(key, ctx, inputs));
            }
            let out = |c: &ptg::Completion| vec![Some(Arc::new(vec![c.key().params[1] as f64]))];
            match self.finish {
                Finish::Own => {
                    let o = out(&done);
                    done.finish(o);
                }
                Finish::Batch => {
                    let full = {
                        let mut stash = self.stash.lock();
                        stash.push(done);
                        if stash.len() == self.n as usize {
                            std::mem::take(&mut *stash)
                        } else {
                            Vec::new()
                        }
                    };
                    for c in full {
                        let o = out(&c);
                        c.finish(o);
                    }
                }
            }
            None
        }
    }

    fn inline_run(finish: Finish, threads: usize) -> NativeReport {
        let g = TaskGraph::new(
            vec![Arc::new(InlineReduce {
                n: 24,
                finish,
                stash: Mutex::new(Vec::new()),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        NativeRuntime::new(threads).run(&g)
    }

    #[test]
    fn own_inline_finish_settles_synchronously() {
        for threads in [1, 3] {
            let rep = inline_run(Finish::Own, threads);
            assert_eq!(rep.tasks, 25);
            assert_eq!(
                rep.steal.deferred, 0,
                "{threads} workers: the mailbox saw an arrival"
            );
        }
    }

    #[test]
    fn other_tasks_finished_inline_go_through_the_mailbox() {
        for threads in [1, 3] {
            let rep = inline_run(Finish::Batch, threads);
            assert_eq!(rep.tasks, 25, "{threads} workers: the run must quiesce");
            assert_eq!(
                rep.steal.deferred, 23,
                "{threads} workers: only the finishing leaf's own completion is inline"
            );
        }
    }

    /// Like `Reduce` but with no static roots: every leaf arrives through
    /// the external [`WorkSource`].
    struct ExtReduce {
        n: i64,
        total: Arc<AtomicU64>,
    }
    impl ptg::TaskClass for ExtReduce {
        fn name(&self) -> &str {
            "XREDUCE"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            if key.params[0] == 0 {
                0
            } else {
                self.n as usize
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] == 0 {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[1, 0]),
                    dst_flow: 0,
                });
            }
        }
        fn execute(
            &self,
            key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            if key.params[0] == 0 {
                self.total
                    .fetch_add(key.params[1] as u64, Ordering::Relaxed);
                vec![Some(Arc::new(vec![key.params[1] as f64]))]
            } else {
                vec![None]
            }
        }
    }

    /// Hands out immediate batches, then goes Pending until a helper
    /// thread (standing in for a comm-thread steal reply) delivers a late
    /// batch through the gate, then reports Empty.
    struct DripSource {
        batches: Mutex<Vec<Vec<TaskKey>>>,
        late: Mutex<Option<Vec<TaskKey>>>,
        late_done: AtomicBool,
        gate: Mutex<Option<Arc<IdleGate>>>,
    }
    impl WorkSource for DripSource {
        fn attach(&self, gate: Arc<IdleGate>) {
            *self.gate.lock() = Some(gate);
        }
        fn claim(&self) -> Option<Vec<TaskKey>> {
            self.batches.lock().pop()
        }
        fn poll(&self) -> SourcePoll {
            if let Some(b) = self.batches.lock().pop() {
                return SourcePoll::Tasks(b);
            }
            if let Some(l) = self.late.lock().take() {
                return SourcePoll::Tasks(l);
            }
            if self.late_done.load(Ordering::SeqCst) {
                return SourcePoll::Empty;
            }
            SourcePoll::Pending
        }
    }

    #[test]
    fn external_source_feeds_and_terminates_the_run() {
        let n = 24i64;
        let keys: Vec<TaskKey> = (0..n).map(|i| TaskKey::new(0, &[0, i])).collect();
        let source = Arc::new(DripSource {
            batches: Mutex::new(keys[..18].chunks(6).map(<[TaskKey]>::to_vec).collect()),
            late: Mutex::new(None),
            late_done: AtomicBool::new(false),
            gate: Mutex::new(None),
        });
        let feeder = {
            let source = source.clone();
            let late: Vec<TaskKey> = keys[18..].to_vec();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                *source.late.lock() = Some(late);
                source.late_done.store(true, Ordering::SeqCst);
                loop {
                    // Attach happens at run start, well before the 5 ms
                    // sleep elapses; the loop only covers a slow spawn.
                    if let Some(g) = source.gate.lock().clone() {
                        g.notify_all();
                        break;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(ExtReduce {
                n,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(4).source(source).run(&g);
        feeder.join().unwrap();
        assert_eq!(rep.tasks, 25);
        assert_eq!(total.load(Ordering::Relaxed), 276);
        assert_eq!(rep.steal.external_tasks, 24);
        assert_eq!(rep.steal.per_worker_tasks.iter().sum::<u64>(), rep.tasks);
    }

    #[test]
    fn reduce_graph_task_count_and_total() {
        // 32 leaves + the sink; 0 + 1 + ... + 31 (the counts the retired
        // coarse-locked engine agreed on).
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Reduce {
                n: 32,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        assert_eq!(NativeRuntime::new(3).run(&g).tasks, 33);
        assert_eq!(total.load(Ordering::Relaxed), 496);
    }
}
