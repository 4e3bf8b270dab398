//! Native threaded engine: real execution of a PTG on one shared-memory
//! node.
//!
//! The dispatch path is sharded and work-stealing, in the image of
//! PaRSEC's shared-memory scheduler. Which ready task a worker runs next
//! is [`Deque::pick`]'s order, which the simulator runs too: own deque,
//! the completion mailboxes, the root [`Injector`], its [`WorkSource`]'s
//! chains taken whole, and only then one task stolen from a sibling; a
//! cross-rank probe ([`WorkSource::poll`]) waits until all are dry. This
//! module adds the threads, the clock, the mailboxes, the claims and the
//! idle gate. Released successors go to the releasing worker's own deque
//! (data is hot in its cache), so a chain's life is local to the worker
//! that claimed it. As in PaRSEC, "tasks do not migrate between threads
//! after they have started executing": stealing moves only *ready*
//! tasks. Dependency counting and the `(task, flow) -> payload` store live
//! in sharded tables ([`crate::shard`]) picked by chain, so two workers
//! on different chains touch different locks. A body that finishes its
//! own task before returning (a read whose data was already local) is
//! settled inline, exactly like a synchronous return.
//!
//! Share nothing per task. Finishing a task whose body settles inline
//! writes no cache line another worker writes: the completion handle's
//! refcount is the worker's own (see `completions.rs`), its counters
//! (tasks, steals, seeded roots, deferred bodies, drained arrivals) are
//! its own until the run ends, and releasing a successor into the own
//! deque reads the idle gate's waiter count instead of bumping an epoch
//! ([`IdleGate`]). Nothing counts live tasks. A run ends at exactly one
//! place, the *all-idle scan*: the last worker to go idle, with the
//! source exhausted, sums the tallies every worker published before it
//! idled; if every deferred body's completion has been drained and no
//! worker woke while it read, nothing can ever become ready again, and
//! it shuts the run down. Whatever is then still waiting for inputs is
//! a deadlock, which [`NativeRuntime::run`] reports.

use crate::completions::{all_settled, arm_inline, disarm_inline, Completions, Tally};
use crate::report::{build_report, WorkerOut};
use crate::sched::{by_priority, Deque, Found, SchedPolicy};
use crate::shard::{IdleGate, ShardMap, ShardedTracker};
use crate::NativeReport;
use crossbeam::deque::{Injector, Stealer};
use crossbeam::utils::CachePadded;
use ptg::{Completion, CompletionSink, Payload, TaskGraph, TaskKey};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// the comm thread) use the gate to unpark waiting workers, notifying
    /// only after what they bring is visible to `claim`/`poll`.
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

/// Configuration for the native engine.
#[derive(Clone)]
pub struct NativeRuntime {
    threads: usize,
    node: u32,
    epoch: Option<Instant>,
    source: Option<Arc<dyn WorkSource>>,
}

/// One idle episode of one worker in [`Shared::idle`]: entering adds 1
/// to the low half (idle workers); leaving adds `IDLE_EXIT`, one to the
/// high half (exits ever) and minus one to the low half.
const IDLE_EXIT: u64 = (1 << 32) - 1;

struct Shared<'g> {
    graph: &'g TaskGraph,
    tracker: ShardedTracker,
    store: ShardMap<(TaskKey, u32), Payload>,
    injector: Injector<TaskKey>,
    stealers: Vec<Stealer<TaskKey>>,
    gate: Arc<IdleGate>,
    completions: Arc<Completions>,
    source: Option<Arc<dyn WorkSource>>,
    t0: Instant,
    shutdown: AtomicBool,
    /// Per worker: what the all-idle scan sums.
    tallies: Vec<CachePadded<Tally>>,
    /// Idle workers (low 32 bits) and idle exits so far (high 32 bits):
    /// the scan re-reads it to prove no worker woke while it summed.
    idle: CachePadded<AtomicU64>,
}

impl NativeRuntime {
    /// Engine with `threads >= 1` workers: the thread that calls
    /// [`NativeRuntime::run`] is worker 0, and each run spawns the other
    /// `threads - 1`, so a one-worker engine never creates a thread.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        Self {
            threads,
            node: 0,
            epoch: None,
            source: None,
        }
    }

    /// Does nothing: priority+FIFO, the only [`SchedPolicy`], is the
    /// engine's order. Kept so that callers that name it keep building.
    pub fn policy(self, _policy: SchedPolicy) -> Self {
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

    /// Execute `graph` to quiescence, running worker 0 on the calling
    /// thread beside `threads - 1` scoped workers spawned for this run
    /// and joined before it returns. Panics if the graph deadlocks
    /// (declared inputs that no task delivers) or if a body panics, on
    /// any worker.
    pub fn run(&self, graph: &TaskGraph) -> NativeReport {
        // The injector is stolen oldest-first: push the roots best first.
        let mut roots = graph.roots();
        by_priority(graph, &mut roots);

        let shards = (self.threads * 4).clamp(8, 64);
        let injector = Injector::new();
        for &r in &roots {
            injector.push(r);
        }
        let locals: Vec<Deque> = (0..self.threads).map(Deque::new).collect();
        let stealers: Vec<Stealer<TaskKey>> = locals.iter().map(Deque::stealer).collect();
        let gate = Arc::new(IdleGate::new());
        if let Some(src) = &self.source {
            src.attach(gate.clone());
        }
        let shared = Shared {
            graph,
            tracker: ShardedTracker::new(shards),
            store: ShardMap::new(shards),
            injector,
            stealers,
            completions: Completions::new(self.threads, gate.clone()),
            gate,
            source: self.source.clone(),
            t0: self.epoch.unwrap_or_else(Instant::now),
            shutdown: AtomicBool::new(false),
            tallies: (0..self.threads).map(|_| CachePadded::default()).collect(),
            idle: CachePadded::new(AtomicU64::new(0)),
        };

        let run_start = Instant::now();
        let mut locals = locals.into_iter();
        let mine = locals.next().expect("at least one worker");
        let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = locals
                .enumerate()
                .map(|(i, dq)| {
                    let shared = &shared;
                    scope.spawn(move || WorkerLoop::new(shared, i + 1).run(dq))
                })
                .collect();
            // The calling thread is worker 0: a one-worker run spawns
            // nothing.
            let first = WorkerLoop::new(&shared, 0).run(mine);
            std::iter::once(first)
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
                )
                .collect()
        });

        let wall = run_start.elapsed();
        // The run ended at a conclusive all-idle scan: every discovered
        // task that did not run is still waiting for inputs.
        let starved = shared.tracker.starved();
        assert!(
            starved == 0,
            "deadlock: {starved} task(s) still waiting for inputs"
        );
        build_report(graph, &outs, wall, self.node)
    }
}

/// Ends the run if a body panics on this worker, so that the others stop
/// instead of parking forever and the panic reaches the caller.
struct StopOnPanic<'s, 'g>(&'s Shared<'g>);

impl Drop for StopOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shutdown.store(true, Ordering::SeqCst);
            self.0.gate.notify_all();
        }
    }
}

/// One worker but its [`Deque`], which travels beside it so that
/// [`Deque::pick`]'s refills can settle into it: its completion sink, its
/// counters and spans, and the dispatch path's scratch buffers.
struct WorkerLoop<'s, 'g> {
    shared: &'s Shared<'g>,
    index: usize,
    sink: Arc<dyn CompletionSink>,
    out: WorkerOut,
    /// Bodies run here that returned without their outputs.
    deferred: u64,
    deps: Vec<ptg::Dep>,
    ready: Vec<(TaskKey, i64)>,
}

impl<'s, 'g> WorkerLoop<'s, 'g> {
    fn new(shared: &'s Shared<'g>, index: usize) -> Self {
        Self {
            shared,
            index,
            sink: shared.completions.sink(index),
            out: WorkerOut::default(),
            deferred: 0,
            deps: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Find a task, execute it, release successors into the own deque;
    /// park through the idle gate when no work is visible. Returns what
    /// the worker counted.
    fn run(mut self, mut dq: Deque) -> WorkerOut {
        let shared = self.shared;
        let _stop = StopOnPanic(shared);
        crate::pool::rehome();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return self.out;
            }
            if let Some(key) = self.next_task(&mut dq) {
                self.run_task(&dq, key);
                continue;
            }

            // Two-phase park: register with the gate, re-check every
            // source, and only then sleep — a push after the registration
            // sees it and wakes us, so no wakeup is lost.
            let ticket = shared.gate.prepare();
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.gate.cancel();
                return self.out;
            }
            if let Some(key) = self.next_task(&mut dq) {
                shared.gate.cancel();
                self.run_task(&dq, key);
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
                    shared.gate.cancel();
                    self.out.external_tasks += seed(shared, &dq, keys);
                    continue;
                }
                // An empty task batch is nothing to seed but not exhaustion.
                SourcePoll::Tasks(_) | SourcePoll::Pending => false,
                SourcePoll::Empty => true,
            };
            if self.idle_scan(src_empty) {
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.gate.notify_all();
                shared.gate.cancel();
                return self.out;
            }
            shared.gate.wait(ticket);
            shared.idle.fetch_add(IDLE_EXIT, Ordering::SeqCst);
        }
    }

    /// Publish this worker's tally and join the idle count; true when the
    /// run is over. That takes this worker being the last to go idle,
    /// with the source exhausted, every deferred completion drained and
    /// settled by the published tallies, and nobody leaving the idle
    /// count while they were read — then the tallies are a consistent
    /// snapshot: no worker is running or can be woken with work (its own
    /// deque was empty when it went idle and only its owner pushes there;
    /// the injector only empties; no completion is still to arrive; the
    /// source's `Empty` is sticky), so nothing can ever become ready
    /// again.
    fn idle_scan(&mut self, src_empty: bool) -> bool {
        let shared = self.shared;
        shared.tallies[self.index].publish(self.deferred, self.out.drained);
        let entered = shared.idle.fetch_add(1, Ordering::SeqCst) + 1;
        src_empty
            && entered as u32 as usize == shared.stealers.len()
            && all_settled(&shared.tallies)
            && shared.idle.load(Ordering::SeqCst) == entered
    }

    /// [`Deque::pick`] with this engine's refills: the completion
    /// mailboxes (their successors land in the own deque) and a claim of
    /// whole chains from the source. A batch from the injector lets a
    /// sibling in if roots remain.
    fn next_task(&mut self, dq: &mut Deque) -> Option<TaskKey> {
        let shared = self.shared;
        let mut external = 0;
        let picked = dq.pick(
            &shared.injector,
            &shared.stealers,
            |dq| self.drain_completions(dq),
            |dq| match shared.source.as_ref().and_then(|s| s.claim()) {
                Some(keys) => {
                    external += seed(shared, dq, keys);
                    true
                }
                None => false,
            },
        );
        self.out.external_tasks += external;
        let (key, found) = picked?;
        match found {
            Found::Injector if !shared.injector.is_empty() => shared.gate.notify_one(),
            Found::Sibling => self.out.local_steals += 1,
            _ => {}
        }
        Some(key)
    }

    /// Drain deferred completions (tasks finished off their own worker)
    /// and settle each exactly as if this worker had run it. Returns true
    /// if anything was settled.
    fn drain_completions(&mut self, dq: &Deque) -> bool {
        let batch = self.shared.completions.take(self.index);
        if batch.is_empty() {
            return false;
        }
        self.out.drained += batch.len() as u64;
        for (key, outputs) in batch {
            self.settle(dq, key, outputs);
        }
        true
    }

    /// Execute one task and release its successors. A body that defers
    /// (`execute_async` returns `None` without finishing its own
    /// completion) is settled later from the mailboxes; only the posting
    /// time appears as this worker's span.
    fn run_task(&mut self, dq: &Deque, key: TaskKey) {
        let shared = self.shared;
        let graph = shared.graph;
        let ctx = graph.ctx();
        let class = graph.class_of(key);

        // Gather inputs (each flow hits only its chain's store shard).
        let nflows = class.num_flows();
        let mut inputs: Vec<Option<Payload>> = (0..nflows as u32)
            .map(|f| shared.store.remove(&(key, f)))
            .collect();

        let done = Completion::new(key, self.sink.clone());
        // Arm the inline slot: a body that finishes `done` on this thread
        // before returning has completed synchronously.
        let outer = arm_inline(&shared.completions, key);

        // Execute the body (no lock anywhere near this).
        let b = shared.t0.elapsed().as_nanos() as u64;
        let result = class.execute_async(key, ctx, &mut inputs, done);
        let e = shared.t0.elapsed().as_nanos() as u64;
        self.out.spans.push((key.class, b, e));
        let inline = disarm_inline(outer);

        let outputs = match (result, inline) {
            (Some(outputs), None) | (None, Some(outputs)) => outputs,
            // Deferred: the completion owner settles it via the mailboxes.
            (None, None) => {
                self.deferred += 1;
                return;
            }
            (Some(_), Some(_)) => panic!(
                "{}: body both returned and finished its outputs",
                graph.display(key)
            ),
        };
        self.settle(dq, key, outputs);
    }

    /// Post-execution bookkeeping: store outputs, deliver dependencies,
    /// publish newly-ready tasks best first. Shared by the
    /// synchronous path and the completion drain.
    fn settle(&mut self, dq: &Deque, key: TaskKey, outputs: Vec<Option<Payload>>) {
        let shared = self.shared;
        let graph = shared.graph;
        let ctx = graph.ctx();
        let class = graph.class_of(key);
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
        dq.publish(ready);
        for _ in 0..ready.len() {
            shared.gate.notify_one();
        }
    }
}

/// Seed externally sourced tasks (chain roots claimed from the ledger or
/// stolen from another rank) into `dq` and wake the siblings that may
/// steal them. Returns how many there were.
fn seed(shared: &Shared, dq: &Deque, keys: Vec<TaskKey>) -> u64 {
    let n = keys.len() as u64;
    dq.seed(shared.graph, keys);
    shared.gate.notify_all();
    n
}

#[cfg(test)]
pub(crate) mod tests;
