//! The DSL's back end: resolve a parsed program against its host bindings
//! once, and present each class to the engines as a [`TaskClass`] made of
//! compiled closures.
//!
//! Everything an engine asks per task — inputs, successors, priority,
//! placement — runs on [`Compiled`] expressions over the key's parameter
//! array: no name lookup, no hashing, no allocation. Class and flow names
//! are ids by then, globals (`P` included) are folded into constants, and
//! a guard that folds to a constant drops its clause or its test.

use super::parse::{parse_program, Arg, ClassDef, DepTarget};
use super::{derr, DslError};
use crate::expr::{self, Compiled, Expr, HostFn, MapEnv};
use crate::{
    Activity, ClassId, Completion, CompletionSink, Dep, FlowId, GraphCtx, Payload, TaskClass,
    TaskCost, TaskGraph, TaskKey, MAX_PARAMS,
};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};

/// Task body: consumes inputs (indexed by flow), returns outputs.
pub type Body = Arc<dyn Fn(TaskKey, &mut [Option<Payload>]) -> Vec<Option<Payload>> + Send + Sync>;
/// Asynchronous task body, with [`TaskClass::execute_async`]'s contract:
/// `Some(outputs)` completed here, `None` handed `done` to whatever
/// finishes it. The `i64` is the task's priority, for the transfers the
/// body posts to queue by.
pub type AsyncBody = Arc<
    dyn Fn(TaskKey, i64, &mut [Option<Payload>], Completion) -> Option<Vec<Option<Payload>>>
        + Send
        + Sync,
>;
/// Data provider for memory inputs: `(args) -> payload`.
pub type DataProvider = Arc<dyn Fn(&[i64]) -> Payload + Send + Sync>;
/// Cost hook for the simulated engine: the task and the number of task
/// inputs it receives.
pub type CostHook = Arc<dyn Fn(TaskKey, usize) -> TaskCost + Send + Sync>;
/// Bytes a task sends on one output flow to one successor (simulated
/// engine): `(task, flow, successor)`.
pub type FlowBytesHook = Arc<dyn Fn(TaskKey, FlowId, TaskKey) -> u64 + Send + Sync>;

#[derive(Clone)]
enum Run {
    Sync(Body),
    Async(AsyncBody),
}

/// What the host attaches to a body name: the code, and what the
/// simulator charges for running it.
#[derive(Clone, Default)]
struct Hooks {
    run: Option<Run>,
    cost: Option<CostHook>,
    flow_bytes: Option<FlowBytesHook>,
    activity: Option<Activity>,
}

// ---------------------------------------------------------- compiled class --

enum Source {
    Task,
    Memory(Option<DataProvider>, Vec<Compiled>),
}

/// One `<-` clause. A flow's active input is its first clause whose guard
/// holds.
struct Input {
    guard: Option<Compiled>,
    source: Source,
}

enum OutArg {
    One(Compiled),
    Range(Compiled, Compiled),
}

/// One `->` clause, resolved to ids.
struct Output {
    src_flow: FlowId,
    guard: Option<Compiled>,
    class: ClassId,
    dst_flow: FlowId,
    args: Vec<OutArg>,
}

struct Class {
    name: String,
    id: ClassId,
    nflows: usize,
    nodes: i64,
    /// `ranges[d]` bounds parameter `d` and reads only parameters `< d`.
    ranges: Vec<(Compiled, Compiled)>,
    /// Input clauses per flow.
    inputs: Vec<Vec<Input>>,
    /// Task inputs every instance has; with any, no instance is a root.
    fixed_inputs: usize,
    /// Flows whose active clause, task or none, the guards decide.
    guarded_inputs: Vec<usize>,
    /// Flows with a memory input: the only ones a body run must look at.
    memory_inputs: Vec<usize>,
    outputs: Vec<Output>,
    priority: Option<Compiled>,
    placement: Option<Compiled>,
    external_roots: bool,
    hooks: Hooks,
}

impl Class {
    #[inline(always)]
    fn value(&self, e: &Compiled, params: &[i64]) -> i64 {
        match e.eval(params) {
            Some(v) => v,
            None => self.fault(params),
        }
    }

    #[cold]
    fn fault(&self, params: &[i64]) -> ! {
        panic!("{}{params:?}: division by zero", self.name)
    }

    #[inline(always)]
    fn holds(&self, guard: &Option<Compiled>, params: &[i64]) -> bool {
        guard.as_ref().is_none_or(|g| self.value(g, params) != 0)
    }

    fn active<'a>(&self, flow: &'a [Input], params: &[i64]) -> Option<&'a Input> {
        flow.iter().find(|i| self.holds(&i.guard, params))
    }

    /// Every instance of the domain, parameter 0 fixed to `group` if given.
    fn each(&self, group: Option<i64>, f: &mut dyn FnMut(TaskKey)) {
        self.walk(0, group, &mut [0; MAX_PARAMS], f);
    }

    fn walk(
        &self,
        depth: usize,
        group: Option<i64>,
        params: &mut [i64; MAX_PARAMS],
        f: &mut dyn FnMut(TaskKey),
    ) {
        let Some((lo, hi)) = self.ranges.get(depth) else {
            // (A class without parameters is all in group 0.)
            if group.is_none_or(|g| g == params[0]) {
                f(TaskKey {
                    class: self.id,
                    params: *params,
                });
            }
            return;
        };
        let (mut lo, mut hi) = (self.value(lo, params), self.value(hi, params));
        if let (0, Some(g)) = (depth, group) {
            (lo, hi) = (lo.max(g), hi.min(g));
        }
        for v in lo..=hi {
            params[depth] = v;
            self.walk(depth + 1, group, params, f);
        }
    }

    fn push_roots(&self, group: Option<i64>, out: &mut Vec<TaskKey>) {
        if self.fixed_inputs == 0 {
            self.each(group, &mut |k| {
                if self.guarded_inputs.is_empty() || self.inputs_of(&k.params) == 0 {
                    out.push(k)
                }
            });
        }
    }

    fn inputs_of(&self, params: &[i64]) -> usize {
        let task = |&f: &usize| {
            let active = self.active(&self.inputs[f], params).map(|i| &i.source);
            matches!(active, Some(Source::Task))
        };
        self.fixed_inputs + self.guarded_inputs.iter().filter(|f| task(f)).count()
    }

    /// Fill memory inputs through their data providers.
    fn fetch_memory_inputs(&self, key: TaskKey, inputs: &mut [Option<Payload>]) {
        for &fi in &self.memory_inputs {
            if let Some(Input {
                source: Source::Memory(Some(provider), args),
                ..
            }) = self.active(&self.inputs[fi], &key.params)
            {
                if inputs[fi].is_none() {
                    let vals: Vec<i64> = args.iter().map(|a| self.value(a, &key.params)).collect();
                    inputs[fi] = Some(provider(&vals));
                }
            }
        }
    }
}

/// Collects the outputs of an asynchronous body run through the
/// synchronous [`TaskClass::execute`].
struct Oneshot(mpsc::Sender<Vec<Option<Payload>>>);

impl CompletionSink for Oneshot {
    fn complete(&self, _key: TaskKey, outputs: Vec<Option<Payload>>) {
        let _ = self.0.send(outputs);
    }
}

impl TaskClass for Class {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_flows(&self) -> usize {
        self.nflows
    }

    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        if !self.external_roots {
            self.push_roots(None, out);
        }
    }

    fn group_roots(&self, group: i64, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        self.push_roots(Some(group), out);
    }

    fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        self.inputs_of(&key.params)
    }

    fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let params = &key.params;
        for o in self.outputs.iter().filter(|o| self.holds(&o.guard, params)) {
            // Each argument's range; a single value is a range of one.
            let (mut lo, mut hi) = ([0; MAX_PARAMS], [0; MAX_PARAMS]);
            for (i, a) in o.args.iter().enumerate() {
                (lo[i], hi[i]) = match a {
                    OutArg::One(e) => {
                        let v = self.value(e, params);
                        (v, v)
                    }
                    OutArg::Range(l, h) => (self.value(l, params), self.value(h, params)),
                };
            }
            if (0..o.args.len()).any(|i| lo[i] > hi[i]) {
                continue;
            }
            // Every combination, the last argument running fastest.
            let mut args = lo;
            loop {
                let dst = TaskKey {
                    class: o.class,
                    params: args,
                };
                out.push(Dep {
                    src_flow: o.src_flow,
                    dst,
                    dst_flow: o.dst_flow,
                });
                let Some(i) = (0..o.args.len()).rev().find(|&i| args[i] < hi[i]) else {
                    break;
                };
                args[i] += 1;
                args[i + 1..].copy_from_slice(&lo[i + 1..]);
            }
        }
    }

    fn priority(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> i64 {
        (self.priority.as_ref()).map_or(0, |e| self.value(e, &key.params))
    }

    fn placement(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        (self.placement.as_ref()).map_or(0, |e| {
            self.value(e, &key.params).rem_euclid(self.nodes) as usize
        })
    }

    fn cost(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
        match &self.hooks.cost {
            Some(h) => h(key, self.inputs_of(&key.params)),
            None => TaskCost::Fixed { ns: 1_000 },
        }
    }

    fn flow_bytes(&self, key: TaskKey, flow: FlowId, dst: TaskKey, _ctx: &dyn GraphCtx) -> u64 {
        self.hooks
            .flow_bytes
            .as_ref()
            .map_or(0, |h| h(key, flow, dst))
    }

    fn activity(&self) -> Activity {
        self.hooks.activity.unwrap_or(Activity::Compute)
    }

    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        self.fetch_memory_inputs(key, inputs);
        match &self.hooks.run {
            Some(Run::Sync(b)) => b(key, inputs),
            Some(Run::Async(b)) => {
                // Run to completion: wait for a deferred finish.
                let (tx, rx) = mpsc::channel();
                let done = Completion::new(key, Arc::new(Oneshot(tx)));
                let prio = self.priority(key, ctx);
                b(key, prio, inputs, done).unwrap_or_else(|| rx.recv().expect("body finished"))
            }
            // Default body: forward each flow's input (RW semantics).
            None => inputs.iter_mut().map(|i| i.take()).collect(),
        }
    }

    fn execute_async(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
        done: Completion,
    ) -> Option<Vec<Option<Payload>>> {
        match &self.hooks.run {
            Some(Run::Async(b)) => {
                self.fetch_memory_inputs(key, inputs);
                b(key, self.priority(key, ctx), inputs, done)
            }
            _ => Some(self.execute(key, ctx, inputs)),
        }
    }
}

// ----------------------------------------------------------------- builder --

/// Compile a DSL program and attach host bindings.
pub struct DslBuilder {
    src: String,
    globals: MapEnv,
    hooks: HashMap<String, Hooks>,
    data: HashMap<String, DataProvider>,
    external_roots: bool,
}

impl DslBuilder {
    /// Start from DSL source text.
    pub fn new(src: &str) -> Self {
        Self {
            src: src.to_string(),
            globals: MapEnv::new(),
            hooks: HashMap::new(),
            data: HashMap::new(),
            external_roots: false,
        }
    }

    /// Bind a global integer (e.g. `size_L1`).
    pub fn global(mut self, name: &str, value: i64) -> Self {
        self.globals.set(name, value);
        self
    }

    /// Register a host function callable from expressions
    /// (e.g. `chain_len`, `find_last_segment_owner`).
    pub fn func(mut self, name: &str, f: HostFn) -> Self {
        self.globals.func(name, f);
        self
    }

    fn hooks(&mut self, body: &str) -> &mut Hooks {
        self.hooks.entry(body.to_string()).or_default()
    }

    /// Register a task body by name.
    pub fn body(
        mut self,
        name: &str,
        f: impl Fn(TaskKey, &mut [Option<Payload>]) -> Vec<Option<Payload>> + Send + Sync + 'static,
    ) -> Self {
        self.hooks(name).run = Some(Run::Sync(Arc::new(f)));
        self
    }

    /// Register an asynchronous task body by name (see [`AsyncBody`]).
    pub fn body_async(
        mut self,
        name: &str,
        f: impl Fn(TaskKey, i64, &mut [Option<Payload>], Completion) -> Option<Vec<Option<Payload>>>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        self.hooks(name).run = Some(Run::Async(Arc::new(f)));
        self
    }

    /// Register a data provider for memory inputs.
    pub fn data(
        mut self,
        name: &str,
        f: impl Fn(&[i64]) -> Payload + Send + Sync + 'static,
    ) -> Self {
        self.data.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Price a body for the simulated engine (see [`CostHook`]). Costs
    /// attach to bodies, not classes: what a task costs is what its body
    /// does, and the text picks the body.
    pub fn cost(
        mut self,
        body: &str,
        f: impl Fn(TaskKey, usize) -> TaskCost + Send + Sync + 'static,
    ) -> Self {
        self.hooks(body).cost = Some(Arc::new(f));
        self
    }

    /// Size a body's output edges for the simulated engine (see
    /// [`FlowBytesHook`]; unregistered edges carry 0 bytes).
    pub fn flow_bytes(
        mut self,
        body: &str,
        f: impl Fn(TaskKey, FlowId, TaskKey) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.hooks(body).flow_bytes = Some(Arc::new(f));
        self
    }

    /// Set the trace activity of a body.
    pub fn activity(mut self, body: &str, a: Activity) -> Self {
        self.hooks(body).activity = Some(a);
        self
    }

    /// Leave [`TaskClass::roots`] empty: an external work source seeds
    /// the graph group by group through [`TaskGraph::group_roots`].
    pub fn external_roots(mut self, on: bool) -> Self {
        self.external_roots = on;
        self
    }

    /// Compile into a [`TaskGraph`] over `ctx`. `P` is bound to the
    /// context's node count.
    pub fn compile(mut self, ctx: Arc<dyn GraphCtx>) -> Result<TaskGraph, DslError> {
        let defs = parse_program(&self.src)?;
        let mut ids = HashMap::new();
        for (i, c) in defs.iter().enumerate() {
            if ids.insert(c.name.as_str(), i).is_some() {
                return derr(c.line, format!("duplicate class `{}`", c.name));
            }
        }
        let nodes = ctx.nodes().max(1) as i64;
        self.globals.set("P", ctx.nodes() as i64);
        let classes = (defs.iter().enumerate())
            .map(|(id, def)| {
                let class = self.class(&defs, &ids, id, def, nodes)?;
                Ok(Arc::new(class) as Arc<dyn TaskClass>)
            })
            .collect::<Result<_, DslError>>()?;
        Ok(TaskGraph::new(classes, ctx))
    }

    fn class(
        &self,
        defs: &[ClassDef],
        ids: &HashMap<&str, usize>,
        id: usize,
        def: &ClassDef,
        nodes: i64,
    ) -> Result<Class, DslError> {
        let fail = |msg: String| DslError {
            line: def.line,
            msg: format!("{}: {msg}", def.name),
        };
        let params = &def.params;
        let cx = |e: &Expr| expr::compile(e, params, &self.globals).map_err(|e| fail(e.msg));
        // `None`: the guard never holds; `Some(None)`: it always does.
        let guard = |g: &Option<Expr>| -> Result<Option<Option<Compiled>>, DslError> {
            let Some(g) = g else { return Ok(Some(None)) };
            Ok(match cx(g)? {
                Compiled::Const(0) => None,
                Compiled::Const(_) => Some(None),
                g => Some(Some(g)),
            })
        };
        // Resolve a task target to (class id, flow id), checking arity.
        let target = |class: &str, flow: &str, nargs: usize| {
            let &ti = ids
                .get(class)
                .ok_or_else(|| fail(format!("unknown class `{class}`")))?;
            let tdef = &defs[ti];
            let fi = (tdef.flows.iter().position(|f| f.name == flow))
                .ok_or_else(|| fail(format!("class `{class}` has no flow `{flow}`")))?;
            if nargs != tdef.params.len() {
                let want = tdef.params.len();
                return Err(fail(format!(
                    "`{class}` takes {want} params, {nargs} given"
                )));
            }
            Ok((ti as ClassId, fi as FlowId))
        };

        let ranges = (def.ranges.iter().enumerate())
            .map(|(d, (lo, hi))| {
                let outer = &params[..d];
                let c = |e| expr::compile(e, outer, &self.globals).map_err(|e| fail(e.msg));
                Ok((c(lo)?, c(hi)?))
            })
            .collect::<Result<_, DslError>>()?;

        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for (fi, flow) in def.flows.iter().enumerate() {
            let mut ins = Vec::new();
            for clause in &flow.ins {
                let source = match &clause.target {
                    DepTarget::Task {
                        remote_flow,
                        class,
                        args,
                    } => {
                        target(class, remote_flow, args.len())?;
                        Source::Task
                    }
                    DepTarget::Memory { name, args } => {
                        let args = args.iter().map(cx).collect::<Result<_, _>>()?;
                        Source::Memory(self.data.get(name).cloned(), args)
                    }
                };
                if let Some(guard) = guard(&clause.guard)? {
                    ins.push(Input { guard, source });
                }
            }
            inputs.push(ins);
            for clause in &flow.outs {
                let DepTarget::Task {
                    remote_flow,
                    class,
                    args,
                } = &clause.target
                else {
                    continue; // output to memory: a sink, nothing to schedule
                };
                let (class, dst_flow) = target(class, remote_flow, args.len())?;
                let Some(guard) = guard(&clause.guard)? else {
                    continue;
                };
                let args = (args.iter())
                    .map(|a| {
                        Ok(match a {
                            Arg::One(e) => OutArg::One(cx(e)?),
                            Arg::Range(lo, hi) => OutArg::Range(cx(lo)?, cx(hi)?),
                        })
                    })
                    .collect::<Result<_, DslError>>()?;
                outputs.push(Output {
                    src_flow: fi as FlowId,
                    guard,
                    class,
                    dst_flow,
                    args,
                });
            }
        }

        // A flow whose clauses reach an unguarded task input before any
        // memory input always has one; guards decide the other flows
        // with task inputs.
        let always = |f: &[Input]| {
            (f.iter()
                .find(|i| i.guard.is_none() || matches!(i.source, Source::Memory(..))))
            .is_some_and(|i| matches!(i.source, Source::Task))
        };
        let tasks = |f: &[Input]| f.iter().any(|i| matches!(i.source, Source::Task));
        let fixed_inputs = inputs.iter().filter(|f| always(f)).count();
        let guarded_inputs = (0..inputs.len())
            .filter(|&f| !always(&inputs[f]) && tasks(&inputs[f]))
            .collect();
        let memory_inputs = (0..inputs.len())
            .filter(|&f| (inputs[f].iter()).any(|i| matches!(i.source, Source::Memory(..))))
            .collect();
        Ok(Class {
            name: def.name.clone(),
            id: id as ClassId,
            nflows: def.flows.len(),
            nodes,
            ranges,
            inputs,
            fixed_inputs,
            guarded_inputs,
            memory_inputs,
            outputs,
            priority: def.priority.as_ref().map(cx).transpose()?,
            placement: def.placement.as_ref().map(cx).transpose()?,
            external_roots: self.external_roots,
            hooks: self.hooks.get(&def.body).cloned().unwrap_or_default(),
        })
    }
}
