use super::*;
use parking_lot::Mutex;
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
    let rep = NativeRuntime::new(1).run(&g);
    assert_eq!(rep.tasks, 4);
}

/// The one ready order (priority+FIFO) runs a 16-leaf fan-in at 4
/// workers.
#[test]
fn all_policies_execute_fan_in() {
    let total = Arc::new(AtomicU64::new(0));
    let g = TaskGraph::new(
        vec![Arc::new(Reduce {
            n: 16,
            total: total.clone(),
        })],
        Arc::new(PlainCtx { nodes: 1 }),
    );
    let rep = NativeRuntime::new(4).run(&g);
    assert_eq!(rep.tasks, 17);
    assert_eq!(total.load(Ordering::Relaxed), 120);
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

/// `n` leaves feeding a sink that declares one input more than they
/// deliver: the run can only end in the deadlock report. The simulator's
/// deadlock tests run it too, with the leaves placed round-robin over
/// the nodes and the sink on node 0.
pub(crate) struct Undelivered {
    pub(crate) n: i64,
}
impl ptg::TaskClass for Undelivered {
    fn name(&self) -> &str {
        "UNDELIVERED"
    }
    fn num_flows(&self) -> usize {
        1
    }
    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        out.extend((0..self.n).map(|i| TaskKey::new(0, &[0, i])));
    }
    fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        if key.params[0] == 0 {
            0
        } else {
            self.n as usize + 1
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
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        key.params[1] as usize % ctx.nodes()
    }
    fn execute(
        &self,
        _key: TaskKey,
        _ctx: &dyn GraphCtx,
        _inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        vec![Some(Arc::new(vec![1.0]))]
    }
}

/// A source that never has anything: the run's end is the graph's alone.
struct EmptySource;
impl WorkSource for EmptySource {
    fn attach(&self, _gate: Arc<IdleGate>) {}
    fn claim(&self) -> Option<Vec<TaskKey>> {
        None
    }
    fn poll(&self) -> SourcePoll {
        SourcePoll::Empty
    }
}

fn run_undelivered(threads: usize, source: bool) {
    let g = TaskGraph::new(
        vec![Arc::new(Undelivered { n: 16 })],
        Arc::new(PlainCtx { nodes: 1 }),
    );
    let engine = NativeRuntime::new(threads);
    let engine = if source {
        engine.source(Arc::new(EmptySource))
    } else {
        engine
    };
    engine.run(&g);
}

#[test]
#[should_panic(expected = "deadlock: 1 task(s) still waiting for inputs")]
fn undelivered_input_is_a_deadlock_at_one_worker() {
    run_undelivered(1, false);
}

#[test]
#[should_panic(expected = "deadlock: 1 task(s) still waiting for inputs")]
fn undelivered_input_is_a_deadlock_at_four_workers() {
    run_undelivered(4, false);
}

#[test]
#[should_panic(expected = "deadlock: 1 task(s) still waiting for inputs")]
fn undelivered_input_is_a_deadlock_with_an_empty_source_at_one_worker() {
    run_undelivered(1, true);
}

#[test]
#[should_panic(expected = "deadlock: 1 task(s) still waiting for inputs")]
fn undelivered_input_is_a_deadlock_with_an_empty_source_at_four_workers() {
    run_undelivered(4, true);
}

#[test]
fn empty_graph_without_a_source_ends() {
    let g = TaskGraph::new(
        vec![Arc::new(ExtReduce {
            n: 4,
            total: Arc::new(AtomicU64::new(0)),
        })],
        Arc::new(PlainCtx { nodes: 1 }),
    );
    assert_eq!(NativeRuntime::new(3).run(&g).tasks, 0);
}

/// The all-idle scan is the only place a run ends, so it must neither
/// end a run early (a lost task) nor miss the end (a hang): 1 000 runs
/// of a 64-leaf fan-in on 8 workers, each under a watchdog.
#[test]
fn no_source_fan_in_never_hangs_or_loses_a_task() {
    let (tx, rx) = std::sync::mpsc::channel();
    let runs = std::thread::spawn(move || {
        for run in 0..1_000 {
            let total = Arc::new(AtomicU64::new(0));
            let g = TaskGraph::new(
                vec![Arc::new(Reduce {
                    n: 64,
                    total: total.clone(),
                })],
                Arc::new(PlainCtx { nodes: 1 }),
            );
            let rep = NativeRuntime::new(8).run(&g);
            assert_eq!(rep.tasks, 65, "run {run}");
            assert_eq!(total.load(Ordering::Relaxed), 2016, "run {run}");
            tx.send(()).unwrap();
        }
    });
    for run in 0..1_000 {
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("run {run} hung"));
    }
    runs.join().unwrap();
}

/// `n` independent roots whose bodies call `body`.
struct Roots {
    n: i64,
    body: Box<dyn Fn(TaskKey) + Send + Sync>,
}
impl ptg::TaskClass for Roots {
    fn name(&self) -> &str {
        "ROOTS"
    }
    fn num_flows(&self) -> usize {
        1
    }
    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        out.extend((0..self.n).map(|i| TaskKey::new(0, &[i])));
    }
    fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        0
    }
    fn successors(&self, _key: TaskKey, _ctx: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
    fn execute(
        &self,
        key: TaskKey,
        _ctx: &dyn GraphCtx,
        _inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        (self.body)(key);
        vec![None]
    }
}

fn roots_graph(n: i64, body: impl Fn(TaskKey) + Send + Sync + 'static) -> TaskGraph {
    TaskGraph::new(
        vec![Arc::new(Roots {
            n,
            body: Box::new(body),
        })],
        Arc::new(PlainCtx { nodes: 1 }),
    )
}

/// A one-worker run is the calling thread: every body runs on it. The
/// 3 000 bodies also fill several blocks of the span log, every span of
/// which reaches the trace.
#[test]
fn one_worker_runs_every_body_on_the_calling_thread() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = seen.clone();
    let g = roots_graph(3000, move |_| log.lock().push(std::thread::current().id()));
    let rep = NativeRuntime::new(1).run(&g);
    assert_eq!(rep.tasks, 3000);
    assert_eq!(rep.trace.spans().len(), 3000);
    let me = std::thread::current().id();
    let seen = seen.lock();
    assert_eq!(seen.len(), 3000);
    assert!(seen.iter().all(|&t| t == me), "a body ran off the caller");
}

/// The calling thread is worker 0 of every run and keeps living between
/// runs, while worker 1 is a new thread each time; still, the two never
/// share a pool home (one shard lock per worker): 32 consecutive runs on
/// one pool, each body waiting until both workers have one.
#[test]
fn two_workers_never_share_a_pool_home() {
    let pool = Arc::new(crate::TilePool::new(8));
    for run in 0..32 {
        let arrived = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (p, a, log) = (pool.clone(), arrived.clone(), seen.clone());
        let g = roots_graph(2, move |_| {
            // Hold this worker until the other has a body too, so each
            // runs one.
            a.fetch_add(1, Ordering::SeqCst);
            let t = std::time::Instant::now();
            while a.load(Ordering::SeqCst) < 2 && t.elapsed().as_secs() < 10 {
                std::hint::spin_loop();
            }
            p.recycle(p.checkout(64));
            log.lock().push((std::thread::current().id(), p.home()));
        });
        NativeRuntime::new(2).run(&g);
        let seen = seen.lock();
        assert_ne!(seen[0].0, seen[1].0, "run {run}: one worker ran both");
        assert_ne!(
            seen[0].1, seen[1].1,
            "run {run}: both workers on home {}",
            seen[0].1
        );
    }
}

/// A body that panics ends the run and the panic reaches the caller,
/// whichever worker ran it; the other worker does not park forever.
#[test]
#[should_panic(expected = "body 5 failed")]
fn a_panicking_body_reaches_the_caller() {
    let g = roots_graph(16, |k| assert!(k.params[0] != 5, "body 5 failed"));
    NativeRuntime::new(2).run(&g);
}
