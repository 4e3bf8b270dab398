//! A JDF-like textual DSL for Parameterized Task Graphs.
//!
//! This is the executable counterpart of the paper's Figure 1 (GEMMs in a
//! serial chain) and Figure 2 (the one-line change that makes them
//! parallel). A program is a sequence of task-class blocks:
//!
//! ```text
//! GEMM(L1, L2)                      // header: class name + parameters
//! L1 = 0 .. size_L1 - 1             // one range per parameter
//! L2 = 0 .. chain_len(L1) - 1       // bounds may call host functions
//!
//! : rr(L1)                          // placement expression (optional)
//!
//! READ A <- input_a(L1, L2)               // memory input (host data)
//! READ B <- B READ_B(L1, L2)              // task input: flow B of READ_B
//! RW C <- (L2 == 0) ? C DFILL(L1)         // guarded input alternatives
//!      <- (L2 != 0) ? C GEMM(L1, L2 - 1)
//!      -> (L2 < chain_len(L1) - 1) ? C GEMM(L1, L2 + 1)
//!      -> (L2 == chain_len(L1) - 1) ? C SORT(L1, 0 .. nsorts(L1) - 1)
//!
//! ; size_L1 - L1 + 1                // priority expression (optional)
//!
//! BODY gemm_kernel                  // body name (ends class)
//! ```
//!
//! Semantics, matching the JDF rules the paper relies on:
//!
//! * every *output* clause whose guard holds fires; a range argument
//!   `lo .. hi` fires it once per value (broadcast);
//! * among the *input* clauses of one flow, the first whose guard holds is
//!   the active one (guards are expected to be mutually exclusive);
//! * a task is ready when all of its active task-inputs have arrived;
//! * `P` is predefined as the number of nodes (the paper's priority
//!   expressions use `offset * P`).
//!
//! Texts are compiled at build time, as PaRSEC's jdf2c compiles a JDF: a
//! package's `build.rs` runs [`build`] (over [`emit`]), and the package
//! `include!`s the Rust it writes to `OUT_DIR`. Nothing parses a text at
//! run time. Each class becomes a [`Class`], and so a [`TaskClass`]. The
//! text's globals (`size_L1`) and host functions (`chain_len`) are fields
//! and methods of the type `Host` in scope at the `include!`; [`build`]
//! is told their names, and the functions' arities, and a text that names
//! anything else fails the build. Data references (`input_a`), bodies,
//! their simulator costs, edge sizes and trace activities are its
//! [`Host`] impl, by name.
//! [`parse`] and [`crate::expr::eval`] stay the reference semantics the
//! generated classes are tested against.

mod emit;
mod parse;

pub use emit::{build, emit};
pub use parse::{parse, Arg, ClassDef, DepClause, DepTarget, FlowDef, FlowMode};

use crate::{
    Activity, Completion, Dep, FlowId, GraphCtx, NodeId, Payload, TaskClass, TaskCost, TaskKey,
    MAX_PARAMS,
};

/// Parse/compile error with 1-based source line.
#[derive(Debug, Clone)]
pub struct DslError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DslError {}

fn derr<T>(line: usize, msg: impl Into<String>) -> Result<T, DslError> {
    Err(DslError {
        line,
        msg: msg.into(),
    })
}

type Outputs = Vec<Option<Payload>>;

/// What a compiled text calls for its bodies: each method gets the body
/// name of the task's class (its `BODY` line) and has [`TaskClass`]'s
/// contract for the method of the same name. The defaults are a body
/// that forwards each flow's input, a 1 µs cost, empty edges and compute.
pub trait Host: Send + Sync {
    /// Run body `body` of task `key`.
    fn execute(&self, body: &str, key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
        let _ = (body, key);
        inputs.iter_mut().map(Option::take).collect()
    }

    /// Run body `body`, possibly asynchronously; `prio` is the task's
    /// priority, for the transfers the body posts to queue by.
    fn execute_async(
        &self,
        body: &str,
        key: TaskKey,
        prio: i64,
        inputs: &mut [Option<Payload>],
        done: Completion,
    ) -> Option<Outputs> {
        let _ = (prio, done);
        Some(self.execute(body, key, inputs))
    }

    /// The data a memory input `name(args)` reads; `None` leaves the
    /// input empty.
    fn data(&self, name: &str, args: &[i64]) -> Option<Payload> {
        let _ = (name, args);
        None
    }

    /// The simulated cost of `key`, which has `inputs` task inputs.
    fn cost(&self, body: &str, key: TaskKey, inputs: usize) -> TaskCost {
        let _ = (body, key, inputs);
        TaskCost::Fixed { ns: 1_000 }
    }

    /// Bytes `key` sends on `flow` to successor `dst` (simulated engine).
    fn flow_bytes(&self, body: &str, key: TaskKey, flow: FlowId, dst: TaskKey) -> u64 {
        let _ = (body, key, flow, dst);
        0
    }

    /// Trace activity of the body.
    fn activity(&self, body: &str) -> Activity {
        let _ = body;
        Activity::Compute
    }
}

/// What the classes of one compiled text share.
pub struct Bound<H> {
    /// Globals, host functions and bodies.
    pub host: H,
    /// `P`, the node count.
    pub nodes: i64,
    /// Leave [`TaskClass::roots`] empty: an external work source seeds
    /// the graph group by group through [`crate::TaskGraph::group_roots`].
    pub external_roots: bool,
}

/// One class of a compiled text, as [`emit`] writes it: only what the
/// text says. Every `Class` is a [`TaskClass`].
pub trait Class: Send + Sync {
    type Host: Host;
    const NAME: &'static str;
    const BODY: &'static str;
    const FLOWS: usize;
    /// Whether some instance may have no task input.
    const ROOTS: bool;
    fn bound(&self) -> &Bound<Self::Host>;
    /// Every instance of the domain in order, parameter 0 fixed to
    /// `group` if given.
    fn each(&self, group: Option<i64>, f: &mut dyn FnMut(TaskKey));
    /// Number of task inputs.
    fn inputs(&self, p: &[i64; MAX_PARAMS]) -> usize;
    /// Append the successors.
    fn outputs(&self, _p: &[i64; MAX_PARAMS], _out: &mut Vec<Dep>) {}
    fn prio(&self, _p: &[i64; MAX_PARAMS]) -> i64 {
        0
    }
    fn place(&self, _p: &[i64; MAX_PARAMS]) -> NodeId {
        0
    }
    /// Fill the memory inputs.
    fn memory(&self, _p: &[i64; MAX_PARAMS], _inputs: &mut [Option<Payload>]) {}
}

fn roots<C: Class>(c: &C, group: Option<i64>, out: &mut Vec<TaskKey>) {
    if C::ROOTS {
        c.each(group, &mut |k| {
            if c.inputs(&k.params) == 0 {
                out.push(k)
            }
        });
    }
}

impl<C: Class> TaskClass for C {
    fn name(&self) -> &str {
        C::NAME
    }

    fn num_flows(&self) -> usize {
        C::FLOWS
    }

    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        if !self.bound().external_roots {
            roots(self, None, out);
        }
    }

    fn group_roots(&self, group: i64, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        roots(self, Some(group), out);
    }

    fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        self.inputs(&key.params)
    }

    fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        self.outputs(&key.params, out);
    }

    fn priority(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> i64 {
        self.prio(&key.params)
    }

    fn placement(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> NodeId {
        self.place(&key.params)
    }

    fn cost(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
        (self.bound().host).cost(C::BODY, key, self.inputs(&key.params))
    }

    fn flow_bytes(&self, key: TaskKey, flow: FlowId, dst: TaskKey, _ctx: &dyn GraphCtx) -> u64 {
        self.bound().host.flow_bytes(C::BODY, key, flow, dst)
    }

    fn activity(&self) -> Activity {
        self.bound().host.activity(C::BODY)
    }

    fn execute(
        &self,
        key: TaskKey,
        _ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Outputs {
        self.memory(&key.params, inputs);
        self.bound().host.execute(C::BODY, key, inputs)
    }

    fn execute_async(
        &self,
        key: TaskKey,
        _ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
        done: Completion,
    ) -> Option<Outputs> {
        self.memory(&key.params, inputs);
        let prio = self.prio(&key.params);
        (self.bound().host).execute_async(C::BODY, key, prio, inputs, done)
    }
}

#[cfg(test)]
mod tests;
