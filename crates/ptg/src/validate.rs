//! Exhaustive audit of (small) PTGs.
//!
//! The engines discover graphs symbolically and never see them whole; this
//! module intentionally does the opposite: it materializes the entire DAG
//! by walking successors from the roots, then checks structural invariants
//! and computes shape statistics. It backs the unit tests of the CCSD
//! variant graphs and `paper graph_shapes`, which regenerates the
//! variant diagrams of Figures 4-7 as numbers (task counts per class, DAG
//! depth, width).

use crate::{Dep, TaskGraph, TaskKey};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Structural problem found by [`audit`].
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// A task's declared `num_inputs` does not match the number of deps
    /// that actually target it.
    InDegreeMismatch {
        task: String,
        declared: usize,
        actual: usize,
    },
    /// The graph contains a cycle involving the named task.
    Cycle { task: String },
    /// More than `limit` tasks were discovered.
    LimitExceeded { limit: usize },
    /// A dep references a flow id out of range for its class.
    BadFlow { task: String, flow: u32 },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::InDegreeMismatch {
                task,
                declared,
                actual,
            } => {
                write!(
                    f,
                    "{task}: declares {declared} inputs but receives {actual}"
                )
            }
            AuditError::Cycle { task } => write!(f, "cycle through {task}"),
            AuditError::LimitExceeded { limit } => write!(f, "more than {limit} tasks"),
            AuditError::BadFlow { task, flow } => write!(f, "{task}: flow {flow} out of range"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Shape statistics of a fully-walked graph.
#[derive(Debug, Clone)]
pub struct GraphAudit {
    /// Task count per class name.
    pub tasks_per_class: BTreeMap<String, usize>,
    /// Total number of task instances.
    pub total_tasks: usize,
    /// Total number of dependence edges.
    pub total_deps: usize,
    /// Number of roots (zero in-degree).
    pub roots: usize,
    /// Number of sinks (zero out-degree).
    pub sinks: usize,
    /// Longest path length in edges (DAG depth; serial chains make this
    /// large, parallel variants make it small).
    pub depth: usize,
    /// Maximum antichain proxy: the largest number of tasks at the same
    /// longest-path level (a cheap width measure).
    pub max_level_width: usize,
    /// Per class, the (min, max) longest-path level its instances occupy.
    /// A class whose instances all share one level is fully parallel; a
    /// class spanning many levels is serialized (the Figure 1 vs Figure 2
    /// distinction for GEMM).
    pub class_levels: BTreeMap<String, (usize, usize)>,
}

/// Walk the whole graph and verify invariants. `limit` bounds the number
/// of tasks to materialize.
pub fn audit(graph: &TaskGraph, limit: usize) -> Result<GraphAudit, AuditError> {
    let ctx = graph.ctx();
    let roots = graph.roots();

    // Discover all tasks and edges.
    let mut edges: Vec<(TaskKey, TaskKey)> = Vec::new();
    let mut indeg: HashMap<TaskKey, usize> = HashMap::new();
    let mut outdeg: HashMap<TaskKey, usize> = HashMap::new();
    let mut seen: HashMap<TaskKey, bool> = HashMap::new();
    let mut queue: VecDeque<TaskKey> = VecDeque::new();
    for &r in &roots {
        if seen.insert(r, true).is_none() {
            indeg.entry(r).or_insert(0);
            queue.push_back(r);
        }
    }
    let mut deps_buf: Vec<Dep> = Vec::new();
    while let Some(t) = queue.pop_front() {
        if seen.len() > limit {
            return Err(AuditError::LimitExceeded { limit });
        }
        deps_buf.clear();
        graph.class_of(t).successors(t, ctx, &mut deps_buf);
        for d in &deps_buf {
            let src_flows = graph.class_of(t).num_flows() as u32;
            if d.src_flow >= src_flows {
                return Err(AuditError::BadFlow {
                    task: graph.display(t),
                    flow: d.src_flow,
                });
            }
            let dst_flows = graph.class_of(d.dst).num_flows() as u32;
            if d.dst_flow >= dst_flows {
                return Err(AuditError::BadFlow {
                    task: graph.display(d.dst),
                    flow: d.dst_flow,
                });
            }
            edges.push((t, d.dst));
            *indeg.entry(d.dst).or_insert(0) += 1;
            *outdeg.entry(t).or_insert(0) += 1;
            if seen.insert(d.dst, true).is_none() {
                queue.push_back(d.dst);
            }
        }
    }

    // Declared vs actual in-degree.
    for (&t, &actual) in &indeg {
        let declared = graph.class_of(t).num_inputs(t, ctx);
        if declared != actual {
            return Err(AuditError::InDegreeMismatch {
                task: graph.display(t),
                declared,
                actual,
            });
        }
    }

    // Kahn topological sort for cycle detection + longest path levels.
    let mut remaining: HashMap<TaskKey, usize> = indeg.clone();
    let mut level: HashMap<TaskKey, usize> = HashMap::new();
    let mut adj: HashMap<TaskKey, Vec<TaskKey>> = HashMap::new();
    for &(a, b) in &edges {
        adj.entry(a).or_default().push(b);
    }
    let mut ready: VecDeque<TaskKey> = seen.keys().filter(|t| remaining[t] == 0).copied().collect();
    for &t in &ready {
        level.insert(t, 0);
    }
    let mut processed = 0;
    while let Some(t) = ready.pop_front() {
        processed += 1;
        let lv = level[&t];
        if let Some(next) = adj.get(&t) {
            for &n in next {
                let e = level.entry(n).or_insert(0);
                *e = (*e).max(lv + 1);
                let r = remaining.get_mut(&n).unwrap();
                *r -= 1;
                if *r == 0 {
                    ready.push_back(n);
                }
            }
        }
    }
    if processed != seen.len() {
        let stuck = remaining
            .iter()
            .find(|(_, &r)| r > 0)
            .map(|(t, _)| *t)
            .unwrap();
        return Err(AuditError::Cycle {
            task: graph.display(stuck),
        });
    }

    let depth = level.values().copied().max().unwrap_or(0);
    let mut width: HashMap<usize, usize> = HashMap::new();
    for &lv in level.values() {
        *width.entry(lv).or_insert(0) += 1;
    }
    let mut per_class: BTreeMap<String, usize> = BTreeMap::new();
    let mut class_levels: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for t in seen.keys() {
        let name = graph.class_of(*t).name().to_string();
        *per_class.entry(name.clone()).or_insert(0) += 1;
        let lv = level[t];
        let e = class_levels.entry(name).or_insert((lv, lv));
        e.0 = e.0.min(lv);
        e.1 = e.1.max(lv);
    }
    Ok(GraphAudit {
        tasks_per_class: per_class,
        total_tasks: seen.len(),
        total_deps: edges.len(),
        roots: seen.keys().filter(|t| indeg[t] == 0).count(),
        sinks: seen
            .keys()
            .filter(|t| outdeg.get(t).copied().unwrap_or(0) == 0)
            .count(),
        depth,
        max_level_width: width.values().copied().max().unwrap_or(0),
        class_levels,
    })
}

/// Render a (small) graph as Graphviz DOT: one node per task (colored by
/// class), one edge per dependence. Walks the graph exactly like
/// [`audit`]; intended for the same test-scale graphs.
pub fn to_dot(graph: &TaskGraph, limit: usize) -> Result<String, AuditError> {
    use std::fmt::Write as _;
    let ctx = graph.ctx();
    let mut seen: Vec<TaskKey> = Vec::new();
    let mut set: HashMap<TaskKey, usize> = HashMap::new();
    let mut edges: Vec<(TaskKey, TaskKey)> = Vec::new();
    let mut queue: VecDeque<TaskKey> = VecDeque::new();
    for r in graph.roots() {
        if let std::collections::hash_map::Entry::Vacant(e) = set.entry(r) {
            e.insert(seen.len());
            seen.push(r);
            queue.push_back(r);
        }
    }
    let mut deps = Vec::new();
    while let Some(t) = queue.pop_front() {
        if seen.len() > limit {
            return Err(AuditError::LimitExceeded { limit });
        }
        deps.clear();
        graph.class_of(t).successors(t, ctx, &mut deps);
        for d in &deps {
            edges.push((t, d.dst));
            if let std::collections::hash_map::Entry::Vacant(e) = set.entry(d.dst) {
                e.insert(seen.len());
                seen.push(d.dst);
                queue.push_back(d.dst);
            }
        }
    }
    const PALETTE: &[&str] = &[
        "lightblue",
        "salmon",
        "palegreen",
        "gold",
        "plum",
        "lightgrey",
        "orange",
        "cyan",
    ];
    let mut out = String::from(
        "digraph ptg {
  rankdir=LR;
  node [style=filled];
",
    );
    for &t in &seen {
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\", fillcolor={}];",
            set[&t],
            graph.display(t),
            PALETTE[t.class as usize % PALETTE.len()],
        );
    }
    for (a, b) in &edges {
        let _ = writeln!(out, "  n{} -> n{};", set[a], set[b]);
    }
    out.push_str(
        "}
",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activity, GraphCtx, Payload, PlainCtx, TaskClass};
    use std::sync::Arc;

    /// A configurable toy class: CHAIN(i) for i in 0..n, i -> i+1.
    struct Chain {
        n: i64,
        /// If true, lie about num_inputs to trigger the mismatch error.
        lie: bool,
    }

    impl TaskClass for Chain {
        fn name(&self) -> &str {
            "CHAIN"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            out.push(TaskKey::new(0, &[0]));
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            let base = usize::from(key.params[0] > 0);
            base + usize::from(self.lie)
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            if key.params[0] + 1 < self.n {
                out.push(Dep {
                    src_flow: 0,
                    dst: TaskKey::new(0, &[key.params[0] + 1]),
                    dst_flow: 0,
                });
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
        fn activity(&self) -> Activity {
            Activity::Compute
        }
    }

    fn graph(n: i64, lie: bool) -> TaskGraph {
        TaskGraph::new(
            vec![Arc::new(Chain { n, lie })],
            Arc::new(PlainCtx { nodes: 1 }),
        )
    }

    #[test]
    fn audits_a_chain() {
        let a = audit(&graph(5, false), 100).unwrap();
        assert_eq!(a.total_tasks, 5);
        assert_eq!(a.total_deps, 4);
        assert_eq!(a.depth, 4);
        assert_eq!(a.roots, 1);
        assert_eq!(a.sinks, 1);
        assert_eq!(a.max_level_width, 1);
        assert_eq!(a.tasks_per_class["CHAIN"], 5);
        assert_eq!(a.class_levels["CHAIN"], (0, 4));
    }

    #[test]
    fn detects_in_degree_mismatch() {
        let e = audit(&graph(3, true), 100).unwrap_err();
        assert!(matches!(e, AuditError::InDegreeMismatch { .. }));
    }

    #[test]
    fn respects_limit() {
        let e = audit(&graph(1000, false), 10).unwrap_err();
        assert!(matches!(e, AuditError::LimitExceeded { .. }));
    }

    /// A two-task cycle: A(0) -> A(1) -> A(0).
    struct Loopy;
    impl TaskClass for Loopy {
        fn name(&self) -> &str {
            "LOOP"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            // Pretend 0 is a root even though it also has an input: the
            // walker discovers the cycle regardless.
            out.push(TaskKey::new(0, &[0]));
        }
        fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            1
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            let next = 1 - key.params[0];
            out.push(Dep {
                src_flow: 0,
                dst: TaskKey::new(0, &[next]),
                dst_flow: 0,
            });
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

    #[test]
    fn dot_export_contains_tasks_and_edges() {
        let g = graph(3, false);
        let dot = to_dot(&g, 100).unwrap();
        assert!(dot.starts_with("digraph ptg {"));
        assert!(dot.contains("CHAIN(0"));
        assert!(dot.contains("->"));
        assert_eq!(dot.matches("->").count(), 2, "two chain edges");
        assert!(to_dot(&graph(1000, false), 10).is_err());
    }

    #[test]
    fn detects_cycles() {
        let g = TaskGraph::new(vec![Arc::new(Loopy)], Arc::new(PlainCtx { nodes: 1 }));
        let e = audit(&g, 100).unwrap_err();
        assert!(matches!(e, AuditError::Cycle { .. }));
    }
}
