//! Discrete-event engine: executes a PTG on a modeled cluster.
//!
//! The modeled machine mirrors the paper's platform: `nodes` machines,
//! each with `cores_per_node` compute cores, one dedicated communication
//! thread (as in PaRSEC's default configuration: "data transfer calls are
//! issued by a specialized communication thread that runs on a dedicated
//! core"), a NIC that serializes outgoing transfers FIFO at fixed
//! bandwidth + latency, a memory bus shared processor-style by concurrent
//! memory-bound tasks, and one node-wide mutex protecting WRITE critical
//! sections.
//!
//! Dependencies are tracked by the native engine's [`ShardedTracker`] (one
//! shard: events run one at a time), and ready tasks are claimed through
//! [`crate::sched`] as natively: a [`Deque`] per modeled core, an injector
//! per node for the roots placed on it, sibling steals within a node.
//! Released successors go to the deque of the core that ran their
//! producer (for a `Fetch`, when its data arrives, as a drained
//! completion does natively); a flow from another node lands in its
//! node's injector. After every push the node's free cores pick in index
//! order. Placement between nodes is static: no mailboxes, no claims.
//! Task durations come from each class's [`TaskCost`]:
//!
//! * `Cpu`   — core busy `flops / core_gflops`;
//! * `Memory` — core busy while `bytes` stream through the shared bus;
//! * `Critical` — lock the node mutex (FIFO), stream `bytes`, unlock;
//!   the core is occupied the whole time, including the wait;
//! * `Fetch` — core busy for the reader CPU slice, then the transfer is
//!   handed to the communication thread; successors see the data only
//!   when it arrives (this creates the network flood of Figure 11 when
//!   priorities are absent);
//! * `Fixed` — constant.
//!
//! With `execute_bodies`, real task bodies run as events fire, so a single
//! simulated run produces both the timing *and* the exact numerical result
//! for the agreement checks.

use crate::cost::CostModel;
use crate::sched::{by_priority, Deque};
use crate::shard::ShardedTracker;
use crossbeam::deque::{Injector, Stealer};
use dcsim::{EventQueue, MutexResource, Nic, PsResource, SimTime};
use ptg::{Activity, Dep, Payload, TaskCost, TaskGraph, TaskKey};
use std::collections::HashMap;
use xtrace::{ActivityKind, Trace, WorkerId};

/// Configuration of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimEngine {
    /// Number of nodes.
    pub nodes: usize,
    /// Compute cores per node (the communication thread is extra).
    pub cores_per_node: usize,
    /// Hardware model.
    pub cost: CostModel,
    /// Run real task bodies while simulating.
    pub execute_bodies: bool,
    /// Record a Gantt trace.
    pub collect_trace: bool,
}

impl SimEngine {
    /// Engine for `nodes x cores_per_node` with the default model.
    pub fn new(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes >= 1 && cores_per_node >= 1);
        Self {
            nodes,
            cores_per_node,
            cost: CostModel::default(),
            execute_bodies: false,
            collect_trace: false,
        }
    }

    /// Set the cost model.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Execute real bodies during simulation.
    pub fn execute_bodies(mut self, yes: bool) -> Self {
        self.execute_bodies = yes;
        self
    }

    /// Collect a Gantt trace.
    pub fn collect_trace(mut self, yes: bool) -> Self {
        self.collect_trace = yes;
        self
    }

    /// Run the graph to quiescence.
    pub fn run(&self, graph: &TaskGraph) -> SimReport {
        let mut eng = Engine::new(graph, self.clone());
        let mut q = EventQueue::new();
        eng.seed(&mut q);
        dcsim::run(&mut eng, &mut q);
        eng.finish(&q)
    }
}

/// Outcome of a simulated execution.
#[derive(Debug)]
pub struct SimReport {
    /// Virtual makespan in ns.
    pub makespan: SimTime,
    /// Tasks executed.
    pub tasks: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Remote messages sent (flow transfers + fetch transfers).
    pub messages: u64,
    /// Bytes moved across NICs.
    pub bytes: u64,
    /// Total mutex acquisitions across nodes.
    pub mutex_acquisitions: u64,
    /// Gantt trace (empty unless `collect_trace`).
    pub trace: Trace,
}

impl SimReport {
    /// Makespan in seconds.
    pub fn seconds(&self) -> f64 {
        dcsim::to_secs(self.makespan)
    }
}

// ------------------------------------------------------------------ engine --

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A task's core-occupying part finished on (node, core).
    TaskDone {
        node: usize,
        core: usize,
        key: TaskKey,
    },
    /// A Fetch task's data arrived at the core of its node that ran it.
    FetchArrived { core: usize, key: TaskKey },
    /// A remote flow delivery arrived at `dst`'s node.
    MsgArrived { dst: TaskKey },
    /// Memory-bus completion poll.
    PsTick { node: usize, gen: u64 },
    /// A critical section may start streaming (mutex held since `now`).
    CsStream { wid: u64 },
    /// A critical section finished streaming; unlock and complete.
    CsEnd { wid: u64 },
}

#[derive(Debug, Clone, Copy)]
enum PsPurpose {
    MemTask {
        node: usize,
        core: usize,
        key: TaskKey,
    },
    LocalFetch {
        core: usize,
        key: TaskKey,
    },
    Critical {
        wid: u64,
    },
}

struct NodeSt {
    injector: Injector<TaskKey>,
    deques: Vec<Deque>,
    stealers: Vec<Stealer<TaskKey>>,
    /// When each core's running task started; `None` when it is free.
    cores: Vec<Option<SimTime>>,
    nic: Nic,
    bus: PsResource,
    mutex: MutexResource,
}

struct Engine<'g> {
    graph: &'g TaskGraph,
    cfg: SimEngine,
    nodes: Vec<NodeSt>,
    tracker: ShardedTracker,
    store: HashMap<(TaskKey, u32), Payload>,
    psmap: HashMap<(usize, u64), PsPurpose>,
    /// wid -> (node, core, key) of a critical-section task.
    widmap: HashMap<u64, (usize, usize, TaskKey)>,
    next_wid: u64,
    trace: Trace,
    class_trace: Vec<u16>,
    xfer_class: u16,
    tasks: u64,
    messages: u64,
    bytes: u64,
    deps_buf: Vec<Dep>,
}

impl<'g> Engine<'g> {
    fn new(graph: &'g TaskGraph, cfg: SimEngine) -> Self {
        let mut trace = Trace::new();
        let class_trace: Vec<u16> = graph
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
        let xfer_class = trace.class("XFER", ActivityKind::Communication);
        let nodes = (0..cfg.nodes)
            .map(|_| {
                let deques: Vec<Deque> = (0..cfg.cores_per_node).map(Deque::new).collect();
                NodeSt {
                    injector: Injector::new(),
                    stealers: deques.iter().map(Deque::stealer).collect(),
                    deques,
                    cores: (0..cfg.cores_per_node).map(|_| None).collect(),
                    nic: Nic::new(cfg.cost.nic_bw_gbs, cfg.cost.nic_latency()),
                    bus: PsResource::new(cfg.cost.mem_capacity()),
                    mutex: MutexResource::new(),
                }
            })
            .collect();
        Self {
            graph,
            cfg,
            nodes,
            tracker: ShardedTracker::new(1),
            store: HashMap::new(),
            psmap: HashMap::new(),
            widmap: HashMap::new(),
            next_wid: 0,
            trace,
            class_trace,
            xfer_class,
            tasks: 0,
            messages: 0,
            bytes: 0,
            deps_buf: Vec::new(),
        }
    }

    fn placement(&self, key: TaskKey) -> usize {
        let p = self.graph.class_of(key).placement(key, self.graph.ctx());
        assert!(
            p < self.cfg.nodes,
            "placement {} out of range for {}",
            p,
            self.graph.display(key)
        );
        p
    }

    /// Every root into its node's injector, best first, as the native
    /// engine seeds its one injector.
    fn seed(&mut self, q: &mut EventQueue<Ev>) {
        let mut roots = self.graph.roots();
        by_priority(self.graph, &mut roots);
        for r in roots {
            self.nodes[self.placement(r)].injector.push(r);
        }
        for node in 0..self.cfg.nodes {
            self.try_dispatch(0, node, q);
        }
    }

    /// The node's free cores pick in index order. One that finds nothing
    /// saw every deque of the node and its injector empty, so the cores
    /// after it would find nothing either.
    fn try_dispatch(&mut self, now: SimTime, node: usize, q: &mut EventQueue<Ev>) {
        for core in 0..self.cfg.cores_per_node {
            let n = &mut self.nodes[node];
            if n.cores[core].is_some() {
                continue;
            }
            let none = |_: &Deque| false;
            let Some((key, _)) = n.deques[core].pick(&n.injector, &n.stealers, none, none) else {
                return;
            };
            self.dispatch(now, node, core, key, q);
        }
    }

    fn dispatch(
        &mut self,
        now: SimTime,
        node: usize,
        core: usize,
        key: TaskKey,
        q: &mut EventQueue<Ev>,
    ) {
        self.nodes[node].cores[core] = Some(now);
        let cm = &self.cfg.cost;
        let overhead = cm.overhead();
        match self.graph.class_of(key).cost(key, self.graph.ctx()) {
            TaskCost::Cpu { flops } => {
                q.post(
                    now + overhead + cm.cpu_time(flops),
                    Ev::TaskDone { node, core, key },
                );
            }
            TaskCost::Fixed { ns } => {
                q.post(now + overhead + ns, Ev::TaskDone { node, core, key });
            }
            TaskCost::Fetch { .. } => {
                q.post(
                    now + overhead + cm.reader_cpu(),
                    Ev::TaskDone { node, core, key },
                );
            }
            TaskCost::Memory { bytes } => {
                let work = cm.mem_work(bytes) + overhead as f64 * cm.mem_capacity();
                let id = self.nodes[node].bus.submit(now, work);
                self.psmap
                    .insert((node, id), PsPurpose::MemTask { node, core, key });
                self.poll_bus(node, q);
            }
            TaskCost::Critical { .. } => {
                let wid = self.next_wid;
                self.next_wid += 1;
                self.widmap.insert(wid, (node, core, key));
                if self.nodes[node].mutex.lock(wid) {
                    q.post(now + overhead + cm.mutex_op(), Ev::CsStream { wid });
                }
                // else: queued; resumed by a future unlock. The core stays
                // occupied — a blocked pthread holds its thread.
            }
        }
    }

    fn poll_bus(&mut self, node: usize, q: &mut EventQueue<Ev>) {
        if let Some((t, gen)) = self.nodes[node].bus.poll() {
            q.post(t, Ev::PsTick { node, gen });
        }
    }

    /// Record a busy span for a finished core-occupying task.
    fn record_span(
        &mut self,
        node: usize,
        core: usize,
        key: TaskKey,
        since: SimTime,
        now: SimTime,
    ) {
        if self.cfg.collect_trace {
            self.trace.push(
                WorkerId::new(node as u32, core as u32),
                self.class_trace[key.class as usize],
                since,
                now,
            );
        }
    }

    /// Record a communication span on a node's comm-thread row.
    fn record_xfer(&mut self, node: usize, start: SimTime, end: SimTime) {
        if self.cfg.collect_trace {
            self.trace.push(
                WorkerId::new(node as u32, self.cfg.cores_per_node as u32),
                self.xfer_class,
                start,
                end,
            );
        }
    }

    /// Run the body (if enabled) and return outputs.
    fn run_body(&mut self, key: TaskKey) -> Option<Vec<Option<Payload>>> {
        if !self.cfg.execute_bodies {
            return None;
        }
        let class = self.graph.class_of(key);
        let nflows = class.num_flows();
        let mut inputs: Vec<Option<Payload>> = (0..nflows as u32)
            .map(|f| self.store.remove(&(key, f)))
            .collect();
        let out = class.execute(key, self.graph.ctx(), &mut inputs);
        assert_eq!(
            out.len(),
            nflows,
            "{}: wrong flow count",
            self.graph.display(key)
        );
        Some(out)
    }

    /// Deliver all successors of `key`, which `core` of its node ran,
    /// after its data is available there: local ones that become ready go
    /// to that core's deque best first, and flows to other nodes cross
    /// the network. Then the node's free cores pick.
    fn release(&mut self, now: SimTime, core: usize, key: TaskKey, q: &mut EventQueue<Ev>) {
        let outputs = self.run_body(key);
        let src_node = self.placement(key);
        let (ctx, class) = (self.graph.ctx(), self.graph.class_of(key));
        let mut deps = std::mem::take(&mut self.deps_buf);
        let mut ready = Vec::new();
        deps.clear();
        class.successors(key, ctx, &mut deps);
        for d in &deps {
            if let Some(out) = &outputs {
                if let Some(p) = &out[d.src_flow as usize] {
                    self.store.insert((d.dst, d.dst_flow), p.clone());
                }
            }
            let dst_node = self.placement(d.dst);
            if dst_node == src_node {
                if let Some(k) = self.tracker.deliver(self.graph, d.dst) {
                    ready.push((k, self.graph.class_of(k).priority(k, ctx)));
                }
            } else {
                let bytes = class.flow_bytes(key, d.src_flow, d.dst, ctx);
                let start_free = self.nodes[src_node].nic.free_at().max(now);
                let arrival = self.nodes[src_node].nic.send(now, bytes);
                self.messages += 1;
                self.bytes += bytes;
                // The comm thread is busy only while serializing; the
                // flight latency is not thread time.
                let latency = self.cfg.cost.nic_latency();
                self.record_xfer(src_node, start_free, arrival - latency);
                q.post(arrival, Ev::MsgArrived { dst: d.dst });
            }
        }
        self.deps_buf = deps;
        self.nodes[src_node].deques[core].publish(&mut ready);
        self.tasks += 1;
        self.try_dispatch(now, src_node, q);
    }

    /// The event queue ran dry, so every ready task has run: whatever the
    /// tracker still holds waits for inputs that will never arrive.
    fn finish(mut self, q: &EventQueue<Ev>) -> SimReport {
        let starved = self.tracker.starved();
        assert!(
            starved == 0,
            "simulation deadlocked: {starved} task(s) still waiting for inputs"
        );
        let mutex_acquisitions = self.nodes.iter().map(|n| n.mutex.acquisitions()).sum();
        SimReport {
            makespan: q.now(),
            tasks: self.tasks,
            events: q.events_processed(),
            messages: self.messages,
            bytes: self.bytes,
            mutex_acquisitions,
            trace: std::mem::take(&mut self.trace),
        }
    }
}

impl dcsim::SimModel for Engine<'_> {
    type Ev = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::TaskDone { node, core, key } => {
                let since = self.nodes[node].cores[core].take().expect("core was idle");
                self.record_span(node, core, key, since, now);
                match self.graph.class_of(key).cost(key, self.graph.ctx()) {
                    TaskCost::Fetch { from, bytes } => {
                        // Hand the transfer to the comm thread; outputs
                        // materialize at arrival.
                        if from == node {
                            // Local pull: stream through the memory bus.
                            let id = self.nodes[node]
                                .bus
                                .submit(now, self.cfg.cost.mem_work(bytes));
                            self.psmap
                                .insert((node, id), PsPurpose::LocalFetch { core, key });
                            self.poll_bus(node, q);
                        } else {
                            let start_free = self.nodes[from].nic.free_at().max(now);
                            let arrival = self.nodes[from].nic.send(now, bytes);
                            self.messages += 1;
                            self.bytes += bytes;
                            let latency = self.cfg.cost.nic_latency();
                            self.record_xfer(from, start_free, arrival - latency);
                            q.post(arrival, Ev::FetchArrived { core, key });
                        }
                        self.try_dispatch(now, node, q);
                    }
                    _ => self.release(now, core, key, q),
                }
            }
            Ev::FetchArrived { core, key } => self.release(now, core, key, q),
            Ev::MsgArrived { dst } => {
                if let Some(ready) = self.tracker.deliver(self.graph, dst) {
                    let node = self.placement(ready);
                    self.nodes[node].injector.push(ready);
                    self.try_dispatch(now, node, q);
                }
            }
            Ev::PsTick { node, gen } => {
                let done = self.nodes[node].bus.tick(now, gen);
                for id in done {
                    match self.psmap.remove(&(node, id)).expect("unknown PS job") {
                        PsPurpose::MemTask { node, core, key } => {
                            q.post(now, Ev::TaskDone { node, core, key });
                        }
                        PsPurpose::LocalFetch { core, key } => {
                            q.post(now, Ev::FetchArrived { core, key });
                        }
                        PsPurpose::Critical { wid } => {
                            q.post(now + self.cfg.cost.mutex_op(), Ev::CsEnd { wid });
                        }
                    }
                }
                self.poll_bus(node, q);
            }
            Ev::CsStream { wid } => {
                let &(node, _core, key) = self.widmap.get(&wid).expect("unknown waiter");
                let TaskCost::Critical { bytes } =
                    self.graph.class_of(key).cost(key, self.graph.ctx())
                else {
                    panic!("CsStream for non-critical task");
                };
                let id = self.nodes[node]
                    .bus
                    .submit(now, self.cfg.cost.mem_work(bytes));
                self.psmap.insert((node, id), PsPurpose::Critical { wid });
                self.poll_bus(node, q);
            }
            Ev::CsEnd { wid } => {
                let (node, core, key) = self.widmap.remove(&wid).expect("unknown waiter");
                if let Some(next) = self.nodes[node].mutex.unlock(wid) {
                    q.post(now + self.cfg.cost.mutex_op(), Ev::CsStream { wid: next });
                }
                q.post(now, Ev::TaskDone { node, core, key });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::{GraphCtx, PlainCtx, TaskClass};
    use std::sync::Arc;

    /// A parameterizable test class: `n` independent tasks of a given
    /// cost, each placed round-robin. With `prio_by_index`, task `i` has
    /// priority `i` and a `Fixed` cost `i` ns longer, so that the length
    /// of its span names it.
    struct Uniform {
        n: i64,
        cost: TaskCost,
        prio_by_index: bool,
    }
    impl TaskClass for Uniform {
        fn name(&self) -> &str {
            "U"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            for i in 0..self.n {
                out.push(TaskKey::new(0, &[i]));
            }
        }
        fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            0
        }
        fn successors(&self, _key: TaskKey, _ctx: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
        fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
            key.params[0] as usize % ctx.nodes()
        }
        fn priority(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> i64 {
            if self.prio_by_index {
                key.params[0]
            } else {
                0
            }
        }
        fn cost(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
            match self.cost {
                TaskCost::Fixed { ns } if self.prio_by_index => TaskCost::Fixed {
                    ns: ns + key.params[0] as u64,
                },
                cost => cost,
            }
        }
        fn execute(
            &self,
            _key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            vec![None]
        }
    }

    fn graph(n: i64, cost: TaskCost, nodes: usize) -> TaskGraph {
        TaskGraph::new(
            vec![Arc::new(Uniform {
                n,
                cost,
                prio_by_index: false,
            })],
            Arc::new(PlainCtx { nodes }),
        )
    }

    #[test]
    fn cpu_tasks_fill_cores() {
        // 8 tasks of 1 GFLOP on 1 node x 4 cores at 20 GFLOP/s:
        // two waves of 50 ms (+ overhead).
        let g = graph(
            8,
            TaskCost::Cpu {
                flops: 1_000_000_000,
            },
            1,
        );
        let rep = SimEngine::new(1, 4).run(&g);
        let expect = 2 * (50_000_000 + CostModel::default().overhead());
        assert_eq!(rep.makespan, expect);
        assert_eq!(rep.tasks, 8);
    }

    #[test]
    fn memory_tasks_share_bandwidth() {
        // 4 concurrent 40 MB streams on one node at 40 GB/s: alone each
        // would take 1 ms; sharing, all finish at ~4 ms.
        let g = graph(4, TaskCost::Memory { bytes: 40_000_000 }, 1);
        let rep = SimEngine::new(1, 4).run(&g);
        let ms = rep.makespan as f64 / 1e6;
        assert!((ms - 4.0).abs() < 0.1, "{ms} ms");
        // Same tasks serialized on one core: also ~4 ms total.
        let rep1 = SimEngine::new(1, 1).run(&g);
        let ms1 = rep1.makespan as f64 / 1e6;
        assert!((ms1 - 4.0).abs() < 0.1, "{ms1} ms");
    }

    #[test]
    fn critical_sections_serialize_with_lock_overhead() {
        // 4 writes of 4 MB on a 4-core node: mutex forces serialization:
        // each ~ lock + 0.1ms stream + unlock.
        let g = graph(4, TaskCost::Critical { bytes: 4_000_000 }, 1);
        let rep = SimEngine::new(1, 4).run(&g);
        let cm = CostModel::default();
        let per = 2 * cm.mutex_op() + 100_000;
        let floor = 4 * per;
        assert!(rep.makespan >= floor, "{} < {floor}", rep.makespan);
        assert_eq!(rep.mutex_acquisitions, 4);
    }

    #[test]
    fn fetch_defers_successor_release() {
        // One fetch task on node 1 pulling 5 MB from node 0 at 5 GB/s:
        // ~1 ms transfer after the reader slice; a dependent CPU task
        // must wait for arrival.
        struct FetchThenUse;
        impl TaskClass for FetchThenUse {
            fn name(&self) -> &str {
                "F"
            }
            fn num_flows(&self) -> usize {
                1
            }
            fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
                out.push(TaskKey::new(0, &[0]));
            }
            fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                usize::from(key.params[0] == 1)
            }
            fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
                if key.params[0] == 0 {
                    out.push(Dep {
                        src_flow: 0,
                        dst: TaskKey::new(0, &[1]),
                        dst_flow: 0,
                    });
                }
            }
            fn placement(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                1
            }
            fn cost(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
                if key.params[0] == 0 {
                    TaskCost::Fetch {
                        from: 0,
                        bytes: 5_000_000,
                    }
                } else {
                    TaskCost::Cpu { flops: 0 }
                }
            }
            fn execute(
                &self,
                _key: TaskKey,
                _ctx: &dyn GraphCtx,
                _inputs: &mut [Option<Payload>],
            ) -> Vec<Option<Payload>> {
                vec![None]
            }
        }
        let g = TaskGraph::new(
            vec![Arc::new(FetchThenUse)],
            Arc::new(PlainCtx { nodes: 2 }),
        );
        let rep = SimEngine::new(2, 1).run(&g);
        let cm = CostModel::default();
        // reader cpu + wire (1 ms) + latency then the dependent task.
        let floor = cm.reader_cpu() + 1_000_000 + cm.nic_latency();
        assert!(rep.makespan >= floor, "{} < {floor}", rep.makespan);
        assert_eq!(rep.messages, 1);
        assert_eq!(rep.bytes, 5_000_000);
    }

    #[test]
    fn priorities_order_single_core_execution() {
        let g = TaskGraph::new(
            vec![Arc::new(Uniform {
                n: 4,
                cost: TaskCost::Fixed { ns: 100 },
                prio_by_index: true,
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = SimEngine::new(1, 1).collect_trace(true).run(&g);
        assert_eq!(rep.tasks, 4);
        assert!(rep.trace.find_overlap().is_none());
        let mut spans = rep.trace.spans().to_vec();
        spans.sort_by_key(|s| s.begin);
        let base = CostModel::default().overhead() + 100;
        let started: Vec<u64> = spans.iter().map(|s| s.len() - base).collect();
        assert_eq!(started, [3, 2, 1, 0], "highest priority starts first");
    }

    #[test]
    fn remote_flow_transfer_crosses_nic() {
        // Chain of 2 tasks on different nodes with a 5 MB flow.
        struct Pair;
        impl TaskClass for Pair {
            fn name(&self) -> &str {
                "P"
            }
            fn num_flows(&self) -> usize {
                1
            }
            fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
                out.push(TaskKey::new(0, &[0]));
            }
            fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                usize::from(key.params[0] == 1)
            }
            fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
                if key.params[0] == 0 {
                    out.push(Dep {
                        src_flow: 0,
                        dst: TaskKey::new(0, &[1]),
                        dst_flow: 0,
                    });
                }
            }
            fn placement(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                key.params[0] as usize
            }
            fn cost(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
                TaskCost::Fixed { ns: 10 }
            }
            fn flow_bytes(
                &self,
                _key: TaskKey,
                _flow: u32,
                _dst: TaskKey,
                _ctx: &dyn GraphCtx,
            ) -> u64 {
                5_000_000
            }
            fn execute(
                &self,
                _key: TaskKey,
                _ctx: &dyn GraphCtx,
                _inputs: &mut [Option<Payload>],
            ) -> Vec<Option<Payload>> {
                vec![None]
            }
        }
        let g = TaskGraph::new(vec![Arc::new(Pair)], Arc::new(PlainCtx { nodes: 2 }));
        let rep = SimEngine::new(2, 1).run(&g);
        assert_eq!(rep.messages, 1);
        assert!(rep.makespan > 1_000_000); // 5 MB at 5 GB/s = 1 ms wire
    }

    fn run_undelivered(nodes: usize, cores: usize) {
        use crate::native::tests::Undelivered;
        let g = TaskGraph::new(
            vec![Arc::new(Undelivered { n: 16 })],
            Arc::new(PlainCtx { nodes }),
        );
        SimEngine::new(nodes, cores).run(&g);
    }

    #[test]
    #[should_panic(expected = "simulation deadlocked: 1 task(s) still waiting for inputs")]
    fn undelivered_input_is_a_deadlock_at_one_core() {
        run_undelivered(1, 1);
    }

    #[test]
    #[should_panic(expected = "simulation deadlocked: 1 task(s) still waiting for inputs")]
    fn undelivered_input_is_a_deadlock_at_two_nodes_of_three_cores() {
        run_undelivered(2, 3);
    }

    #[test]
    fn bodies_execute_with_dataflow() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Count {
            hits: Arc<AtomicU64>,
        }
        impl TaskClass for Count {
            fn name(&self) -> &str {
                "C"
            }
            fn num_flows(&self) -> usize {
                1
            }
            fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
                out.push(TaskKey::new(0, &[0]));
            }
            fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                usize::from(key.params[0] > 0)
            }
            fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
                if key.params[0] < 2 {
                    out.push(Dep {
                        src_flow: 0,
                        dst: TaskKey::new(0, &[key.params[0] + 1]),
                        dst_flow: 0,
                    });
                }
            }
            fn cost(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
                TaskCost::Fixed { ns: 5 }
            }
            fn execute(
                &self,
                key: TaskKey,
                _ctx: &dyn GraphCtx,
                inputs: &mut [Option<Payload>],
            ) -> Vec<Option<Payload>> {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let prev = inputs[0].take().map(|p| p[0]).unwrap_or(1.0);
                vec![Some(Arc::new(vec![prev * 2.0 + key.params[0] as f64]))]
            }
        }
        let hits = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(Count { hits: hits.clone() })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = SimEngine::new(1, 2).execute_bodies(true).run(&g);
        assert_eq!(rep.tasks, 3);
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }
}
