//! The DSL's back end: resolve a parsed program against its host
//! bindings and present each class to the engines as a [`TaskClass`].

use super::parse::{fold_class, parse_program, ClassDef, DepClause, DepTarget};
use super::{derr, DslError};
use crate::expr::{self, Expr, HostFn, Layered, MapEnv};
use crate::{Activity, Dep, GraphCtx, Payload, TaskClass, TaskCost, TaskGraph, TaskKey};
use std::collections::HashMap;
use std::sync::Arc;

// ----------------------------------------------------------- interpreter --

/// Task body: consumes inputs (indexed by flow), returns outputs.
pub type Body = Arc<dyn Fn(TaskKey, &mut [Option<Payload>]) -> Vec<Option<Payload>> + Send + Sync>;
/// Data provider for memory inputs: `(args) -> payload`.
pub type DataProvider = Arc<dyn Fn(&[i64]) -> Payload + Send + Sync>;
/// Cost hook for the simulated engine.
pub type CostHook = Arc<dyn Fn(TaskKey) -> TaskCost + Send + Sync>;

struct Program {
    classes: Vec<ClassDef>,
    by_name: HashMap<String, usize>,
    globals: MapEnv,
    bodies: HashMap<String, Body>,
    data: HashMap<String, DataProvider>,
    costs: HashMap<String, CostHook>,
    activities: HashMap<String, Activity>,
}

impl Program {
    fn flow_index(&self, class: usize, flow: &str) -> Option<u32> {
        self.classes[class]
            .flows
            .iter()
            .position(|f| f.name == flow)
            .map(|i| i as u32)
    }

    fn bind(&self, class: usize, key: TaskKey, nodes: usize) -> MapEnv {
        let def = &self.classes[class];
        let mut env = MapEnv::new();
        for (i, p) in def.params.iter().enumerate() {
            env.set(p, key.params[i]);
        }
        env.set("P", nodes as i64);
        env
    }
}

/// One interpreted task class, viewable as a [`TaskClass`].
struct InterpClass {
    prog: Arc<Program>,
    idx: usize,
}

impl InterpClass {
    fn def(&self) -> &ClassDef {
        &self.prog.classes[self.idx]
    }

    fn eval(&self, e: &Expr, locals: &MapEnv) -> i64 {
        let env = Layered {
            locals,
            globals: &self.prog.globals,
        };
        expr::eval(e, &env).unwrap_or_else(|err| {
            panic!("evaluating expression for class {}: {err}", self.def().name)
        })
    }

    fn guard_holds(&self, c: &DepClause, locals: &MapEnv) -> bool {
        c.guard
            .as_ref()
            .map(|g| self.eval(g, locals) != 0)
            .unwrap_or(true)
    }

    /// The active input clause of each flow (first satisfied).
    fn active_inputs<'a>(&'a self, locals: &MapEnv) -> Vec<(usize, &'a DepClause)> {
        let mut out = Vec::new();
        for (fi, flow) in self.def().flows.iter().enumerate() {
            if let Some(c) = flow.ins.iter().find(|c| self.guard_holds(c, locals)) {
                out.push((fi, c));
            }
        }
        out
    }

    /// Enumerate the class's (possibly parameter-dependent) domain.
    fn for_each_key(&self, nodes: usize, f: &mut dyn FnMut(TaskKey)) {
        let def = self.def();
        let mut locals = MapEnv::new();
        locals.set("P", nodes as i64);
        let mut stack = vec![0i64; def.params.len()];
        self.enum_rec(0, &mut stack, &mut locals, f);
    }

    fn enum_rec(
        &self,
        depth: usize,
        vals: &mut Vec<i64>,
        locals: &mut MapEnv,
        f: &mut dyn FnMut(TaskKey),
    ) {
        let def = self.def();
        if depth == def.params.len() {
            f(TaskKey::new(self.idx as u32, vals));
            return;
        }
        let (lo_e, hi_e) = &def.ranges[depth];
        let lo = self.eval(lo_e, locals);
        let hi = self.eval(hi_e, locals);
        for v in lo..=hi {
            vals[depth] = v;
            locals.set(&def.params[depth], v);
            self.enum_rec(depth + 1, vals, locals, f);
        }
    }
}

impl TaskClass for InterpClass {
    fn name(&self) -> &str {
        &self.def().name
    }

    fn num_flows(&self) -> usize {
        self.def().flows.len()
    }

    fn roots(&self, ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        let nodes = ctx.nodes();
        self.for_each_key(nodes, &mut |key| {
            if self.num_inputs(key, ctx) == 0 {
                out.push(key);
            }
        });
    }

    fn num_inputs(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        let locals = self.prog.bind(self.idx, key, ctx.nodes());
        self.active_inputs(&locals)
            .iter()
            .filter(|(_, c)| matches!(c.target, DepTarget::Task { .. }))
            .count()
    }

    fn successors(&self, key: TaskKey, ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let locals = self.prog.bind(self.idx, key, ctx.nodes());
        for (fi, flow) in self.def().flows.iter().enumerate() {
            for c in &flow.outs {
                if !self.guard_holds(c, &locals) {
                    continue;
                }
                match &c.target {
                    DepTarget::Task {
                        remote_flow,
                        class,
                        args,
                    } => {
                        let tgt_idx = *self.prog.by_name.get(class).unwrap_or_else(|| {
                            panic!("unknown class `{class}` in deps of {}", self.name())
                        });
                        let dst_flow =
                            self.prog
                                .flow_index(tgt_idx, remote_flow)
                                .unwrap_or_else(|| {
                                    panic!("class `{class}` has no flow `{remote_flow}`")
                                });
                        let vals: Vec<i64> = args.iter().map(|a| self.eval(a, &locals)).collect();
                        out.push(Dep {
                            src_flow: fi as u32,
                            dst: TaskKey::new(tgt_idx as u32, &vals),
                            dst_flow,
                        });
                    }
                    DepTarget::Memory { .. } => {
                        // Output to memory: a sink; nothing to schedule.
                    }
                }
            }
        }
    }

    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        match &self.def().priority {
            Some(e) => {
                let locals = self.prog.bind(self.idx, key, ctx.nodes());
                self.eval(e, &locals)
            }
            None => 0,
        }
    }

    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        match &self.def().placement {
            Some(e) => {
                let locals = self.prog.bind(self.idx, key, ctx.nodes());
                let v = self.eval(e, &locals);
                (v.rem_euclid(ctx.nodes().max(1) as i64)) as usize
            }
            None => 0,
        }
    }

    fn cost(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
        match self.prog.costs.get(&self.def().name) {
            Some(h) => h(key),
            None => TaskCost::Fixed { ns: 1_000 },
        }
    }

    fn activity(&self) -> Activity {
        self.prog
            .activities
            .get(&self.def().name)
            .copied()
            .unwrap_or(Activity::Compute)
    }

    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        // Resolve memory inputs through data providers first.
        let locals = self.prog.bind(self.idx, key, ctx.nodes());
        for (fi, c) in self.active_inputs(&locals) {
            if let DepTarget::Memory { name, args } = &c.target {
                if inputs[fi].is_none() {
                    if let Some(p) = self.prog.data.get(name) {
                        let vals: Vec<i64> = args.iter().map(|a| self.eval(a, &locals)).collect();
                        inputs[fi] = Some(p(&vals));
                    }
                }
            }
        }
        match self.prog.bodies.get(&self.def().body) {
            Some(b) => b(key, inputs),
            None => {
                // Default body: forward each flow's input (RW semantics).
                inputs.iter_mut().map(|i| i.take()).collect()
            }
        }
    }
}

// ----------------------------------------------------------------- builder --

/// Compile a DSL program and attach host bindings.
pub struct DslBuilder {
    src: String,
    globals: MapEnv,
    bodies: HashMap<String, Body>,
    data: HashMap<String, DataProvider>,
    costs: HashMap<String, CostHook>,
    activities: HashMap<String, Activity>,
}

impl DslBuilder {
    /// Start from DSL source text.
    pub fn new(src: &str) -> Self {
        Self {
            src: src.to_string(),
            globals: MapEnv::new(),
            bodies: HashMap::new(),
            data: HashMap::new(),
            costs: HashMap::new(),
            activities: HashMap::new(),
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

    /// Register a task body by name.
    pub fn body(
        mut self,
        name: &str,
        f: impl Fn(TaskKey, &mut [Option<Payload>]) -> Vec<Option<Payload>> + Send + Sync + 'static,
    ) -> Self {
        self.bodies.insert(name.to_string(), Arc::new(f));
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

    /// Register a cost hook for a class (simulated engine).
    pub fn cost(
        mut self,
        class: &str,
        f: impl Fn(TaskKey) -> TaskCost + Send + Sync + 'static,
    ) -> Self {
        self.costs.insert(class.to_string(), Arc::new(f));
        self
    }

    /// Set the trace activity of a class.
    pub fn activity(mut self, class: &str, a: Activity) -> Self {
        self.activities.insert(class.to_string(), a);
        self
    }

    /// Compile into a [`TaskGraph`] over `ctx`.
    pub fn compile(self, ctx: Arc<dyn GraphCtx>) -> Result<TaskGraph, DslError> {
        let classes = parse_program(&self.src)?;
        let mut by_name = HashMap::new();
        for (i, c) in classes.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return derr(0, format!("duplicate class `{}`", c.name));
            }
        }
        // Validate dep targets exist.
        for c in &classes {
            for f in &c.flows {
                for clause in f.ins.iter().chain(&f.outs) {
                    if let DepTarget::Task {
                        class,
                        remote_flow,
                        args,
                    } = &clause.target
                    {
                        let Some(&ti) = by_name.get(class) else {
                            return derr(0, format!("{}: unknown class `{class}`", c.name));
                        };
                        if !classes[ti].flows.iter().any(|fl| &fl.name == remote_flow) {
                            return derr(
                                0,
                                format!("{}: class `{class}` has no flow `{remote_flow}`", c.name),
                            );
                        }
                        if args.len() != classes[ti].params.len() {
                            return derr(
                                0,
                                format!(
                                    "{}: `{class}` takes {} params, {} given",
                                    c.name,
                                    classes[ti].params.len(),
                                    args.len()
                                ),
                            );
                        }
                    }
                }
            }
        }
        // Constant-fold every stored expression once; per-task evaluation
        // then skips the folded subtrees.
        let classes: Vec<ClassDef> = classes.into_iter().map(fold_class).collect();
        let prog = Arc::new(Program {
            classes,
            by_name,
            globals: self.globals,
            bodies: self.bodies,
            data: self.data,
            costs: self.costs,
            activities: self.activities,
        });
        let n = prog.classes.len();
        let classes: Vec<Arc<dyn TaskClass>> = (0..n)
            .map(|idx| {
                Arc::new(InterpClass {
                    prog: prog.clone(),
                    idx,
                }) as Arc<dyn TaskClass>
            })
            .collect();
        Ok(TaskGraph::new(classes, ctx))
    }
}
