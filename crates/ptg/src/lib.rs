//! The Parameterized Task Graph (PTG) abstraction.
//!
//! PaRSEC's defining feature — the reason the paper contrasts it with
//! "Dynamic Task Discovery" runtimes — is that the task graph is never
//! materialized. Tasks are *parameterized* instances of a small set of
//! task classes; the runtime asks a class, symbolically, for a given
//! instance's inputs, successors, priority and placement, and discovers
//! the graph one completion at a time.
//!
//! This crate defines that contract ([`TaskClass`], [`TaskGraph`]) plus:
//!
//! * [`expr`] — the expression language used by the textual DSL, and its
//!   reference evaluator;
//! * [`dsl`] — a JDF-like textual format, compiled to Rust task classes
//!   at build time (as PaRSEC's jdf2c compiles a JDF to C), able to
//!   express the paper's Figure 1 (chained GEMMs) and Figure 2 (parallel
//!   GEMMs + reduction) and the five CCSD variants;
//! * [`validate`] — an exhaustive walker used in tests and in the
//!   `paper graph_shapes` to audit small graphs (Figures 4-7).
//!
//! Engines that execute PTGs (threaded and simulated) live in the
//! `parsec-rt` crate.

pub mod dsl;
pub mod expr;
pub mod validate;

use std::sync::Arc;

/// Index of a task class within its [`TaskGraph`].
pub type ClassId = u32;
/// Index of a flow within its task class (shared input/output namespace).
pub type FlowId = u32;
/// Logical node (machine) index.
pub type NodeId = usize;
/// Maximum number of parameters a task class may have.
pub const MAX_PARAMS: usize = 4;

/// One task instance: a class and its parameter values. Unused parameter
/// slots are zero by convention.
///
/// `params[0]` is the task's *locality group*: tasks that share it are
/// expected to touch the same data and run best on one thread — in the
/// CCSD graphs it is the chain index `L1` of every class. Engines rely on
/// it: the native engine keeps one group's dependency state and payloads
/// in one lock shard. A graph without such structure loses nothing but
/// locality by ignoring the convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskKey {
    pub class: ClassId,
    pub params: [i64; MAX_PARAMS],
}

impl TaskKey {
    /// Build a key from up to [`MAX_PARAMS`] parameters.
    pub fn new(class: ClassId, params: &[i64]) -> Self {
        assert!(params.len() <= MAX_PARAMS, "too many parameters");
        let mut p = [0; MAX_PARAMS];
        p[..params.len()].copy_from_slice(params);
        Self { class, params: p }
    }
}

/// A dataflow edge from a completed task to a successor instance:
/// "my output flow `src_flow` becomes input flow `dst_flow` of `dst`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    pub src_flow: FlowId,
    pub dst: TaskKey,
    pub dst_flow: FlowId,
}

/// Data carried along a flow. Tiles are `f64` buffers; tasks that carry no
/// data (pure control dependencies) pass an empty buffer.
pub type Payload = Arc<Vec<f64>>;

/// Cost descriptor consumed by the simulated engine's hardware model.
/// The native engine ignores costs and runs real bodies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskCost {
    /// Compute-bound work (GEMM): occupies a core for `flops / core_rate`.
    Cpu { flops: u64 },
    /// Memory-bound work (SORT, reductions, DFILL): occupies a core while
    /// streaming `bytes` through the node's shared memory bus.
    Memory { bytes: u64 },
    /// Memory-bound work inside the node-wide mutex (the WRITE critical
    /// section): lock, stream `bytes`, unlock.
    Critical { bytes: u64 },
    /// A reader task: brief CPU (enqueue a transfer request), then an
    /// asynchronous pull of `bytes` from node `from`'s memory. The task's
    /// outputs only become available when the transfer arrives.
    Fetch { from: NodeId, bytes: u64 },
    /// Fixed duration (runtime bookkeeping).
    Fixed { ns: u64 },
}

/// Broad activity classification for tracing, mirrored from `xtrace` to
/// avoid a dependency here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    Compute,
    Communication,
    Runtime,
}

/// Execution context handed to every class callback. (Application state
/// lives with the classes: a compiled text's classes share its host.)
pub trait GraphCtx: Send + Sync {
    /// Number of logical nodes in the execution (used by placement and by
    /// priority expressions like the paper's `offset * P`).
    fn nodes(&self) -> usize;
}

/// A minimal context for graphs that need no application state.
pub struct PlainCtx {
    /// Number of logical nodes reported by [`GraphCtx::nodes`].
    pub nodes: usize,
}

impl GraphCtx for PlainCtx {
    fn nodes(&self) -> usize {
        self.nodes
    }
}

/// One parameterized task class: the symbolic description of a family of
/// tasks. All methods must be pure functions of `(key, ctx)` — engines may
/// call them repeatedly and in any order.
pub trait TaskClass: Send + Sync {
    /// Class name (for traces and diagnostics).
    fn name(&self) -> &str;

    /// Number of flows (shared input/output namespace).
    fn num_flows(&self) -> usize;

    /// Append every instance that has zero task inputs (graph sources).
    fn roots(&self, ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>);

    /// Append this class's roots in locality group `group`
    /// (`params[0] == group`). A work source that seeds a graph group by
    /// group asks this, also of a graph whose `roots` it leaves empty.
    /// Defaults to filtering [`TaskClass::roots`].
    fn group_roots(&self, group: i64, ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        let mut all = Vec::new();
        self.roots(ctx, &mut all);
        out.extend(all.into_iter().filter(|k| k.params[0] == group));
    }

    /// Number of input dependencies `key` waits for before becoming ready.
    fn num_inputs(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize;

    /// Append the dataflow successors of `key` (evaluated on completion).
    fn successors(&self, key: TaskKey, ctx: &dyn GraphCtx, out: &mut Vec<Dep>);

    /// Relative priority; between two ready tasks the higher one runs
    /// first. Defaults to zero (no priority), as in variant v2.
    fn priority(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> i64 {
        0
    }

    /// Node on which `key` executes.
    fn placement(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> NodeId {
        0
    }

    /// Hardware cost descriptor for the simulated engine.
    fn cost(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
        TaskCost::Fixed { ns: 1 }
    }

    /// Bytes carried by one of this task's output flows toward a specific
    /// successor (for the simulator's transfer model). Destination-aware
    /// because a flow split by data ownership — e.g. a sorted C tile fanned
    /// out to one `WRITE_C(i)` per Global Arrays owner node (paper
    /// Figure 8) — carries only each destination's slice.
    fn flow_bytes(&self, _key: TaskKey, _flow: FlowId, _dst: TaskKey, _ctx: &dyn GraphCtx) -> u64 {
        0
    }

    /// Trace categorization.
    fn activity(&self) -> Activity {
        Activity::Compute
    }

    /// Run the body: consume `inputs[flow]`, produce outputs per flow.
    /// `inputs` is indexed by this task's flow ids; entries for flows that
    /// received no data are `None`. The returned vector must have
    /// `num_flows()` entries.
    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>>;

    /// Run the body, possibly asynchronously. Returning `Some(outputs)`
    /// means the task completed synchronously (the default: delegate to
    /// [`TaskClass::execute`]). Returning `None` means the task only
    /// *posted* its work — e.g. a reader task handing an async get to the
    /// comm layer — and ownership of `done` passed to whatever will finish
    /// it; calling [`Completion::finish`] later delivers the outputs to
    /// the engine's dependency tracker exactly as a synchronous return
    /// would have. The worker is free immediately: this is how transfers
    /// overlap with computation. A body that finishes its own `done` on
    /// the calling thread before returning `None` (the data was already
    /// at hand) has completed synchronously, and an engine may settle it
    /// as such.
    fn execute_async(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
        done: Completion,
    ) -> Option<Vec<Option<Payload>>> {
        drop(done);
        Some(self.execute(key, ctx, inputs))
    }
}

/// Where deferred task completions are delivered. Engines implement this;
/// the sink must accept completions from any thread (comm progress
/// threads included).
pub trait CompletionSink: Send + Sync {
    /// Deliver the finished task's outputs (same contract as the return
    /// value of [`TaskClass::execute`]).
    fn complete(&self, key: TaskKey, outputs: Vec<Option<Payload>>);
}

/// A one-shot handle for finishing a task that [`TaskClass::execute_async`]
/// deferred. Dropping it without finishing is allowed only on the
/// synchronous path (when `execute_async` returns `Some`).
pub struct Completion {
    key: TaskKey,
    sink: Arc<dyn CompletionSink>,
}

impl Completion {
    /// Build a completion handle for `key` delivering into `sink`.
    pub fn new(key: TaskKey, sink: Arc<dyn CompletionSink>) -> Self {
        Self { key, sink }
    }

    /// The task this completion belongs to.
    pub fn key(&self) -> TaskKey {
        self.key
    }

    /// Deliver the outputs, consuming the handle.
    pub fn finish(self, outputs: Vec<Option<Payload>>) {
        self.sink.complete(self.key, outputs);
    }
}

/// A complete PTG: an ordered set of classes plus the shared context.
/// `ClassId`s are indices into `classes`. Cloning shares the classes.
#[derive(Clone)]
pub struct TaskGraph {
    classes: Vec<Arc<dyn TaskClass>>,
    ctx: Arc<dyn GraphCtx>,
}

impl std::fmt::Debug for TaskGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.classes.iter().map(|c| c.name()).collect();
        f.debug_struct("TaskGraph")
            .field("classes", &names)
            .finish()
    }
}

impl TaskGraph {
    /// Assemble a graph.
    pub fn new(classes: Vec<Arc<dyn TaskClass>>, ctx: Arc<dyn GraphCtx>) -> Self {
        assert!(!classes.is_empty(), "a graph needs at least one class");
        assert!(classes.len() <= ClassId::MAX as usize);
        Self { classes, ctx }
    }

    /// The class table.
    pub fn classes(&self) -> &[Arc<dyn TaskClass>] {
        &self.classes
    }

    /// Class of a key.
    pub fn class_of(&self, key: TaskKey) -> &dyn TaskClass {
        self.classes[key.class as usize].as_ref()
    }

    /// Shared context.
    pub fn ctx(&self) -> &dyn GraphCtx {
        self.ctx.as_ref()
    }

    /// Look up a class id by name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name() == name)
            .map(|i| i as ClassId)
    }

    /// All root tasks of all classes.
    pub fn roots(&self) -> Vec<TaskKey> {
        let mut out = Vec::new();
        for c in &self.classes {
            c.roots(self.ctx.as_ref(), &mut out);
        }
        out
    }

    /// The roots of locality group `group` across all classes, ordered by
    /// parameters with the class breaking ties, so instances that meet at
    /// one successor (`READ_A(l, k)` and `READ_B(l, k)`) sit side by side.
    pub fn group_roots(&self, group: i64) -> Vec<TaskKey> {
        let mut out = Vec::new();
        for c in &self.classes {
            c.group_roots(group, self.ctx.as_ref(), &mut out);
        }
        out.sort_by_key(|k| (k.params, k.class));
        out
    }

    /// Human-readable rendering of a key, e.g. `GEMM(3, 7)`.
    pub fn display(&self, key: TaskKey) -> String {
        let c = self.class_of(key);
        let used: Vec<String> = key.params.iter().map(|p| p.to_string()).collect();
        format!("{}({})", c.name(), used.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_key_pads_params() {
        let k = TaskKey::new(2, &[5, 6]);
        assert_eq!(k.params, [5, 6, 0, 0]);
        assert_eq!(k.class, 2);
    }

    #[test]
    #[should_panic]
    fn too_many_params_panics() {
        TaskKey::new(0, &[1, 2, 3, 4, 5]);
    }
}
