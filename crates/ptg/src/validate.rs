//! Exhaustive audit of (small) PTGs.
//!
//! The engines discover graphs symbolically and never see them whole; this
//! module intentionally does the opposite: it materializes the entire DAG
//! by walking successors from the roots, then checks structural invariants
//! and computes shape statistics. It backs the unit tests of the CCSD
//! variant graphs and `paper graph_shapes`, which regenerates the
//! variant diagrams of Figures 4-7 as numbers (task counts per class, DAG
//! depth, width).

use crate::{TaskGraph, TaskKey};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

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

/// Every task reachable from the roots, in discovery order, and every
/// edge between them.
type Walk = (Vec<TaskKey>, Vec<(TaskKey, TaskKey)>);

/// Walk the graph breadth-first from its roots. Fails past `limit` tasks
/// or on a flow id out of range.
fn discover(graph: &TaskGraph, limit: usize) -> Result<Walk, AuditError> {
    let mut order: Vec<TaskKey> = Vec::new();
    let mut seen: HashSet<TaskKey> = HashSet::new();
    for r in graph.roots() {
        if seen.insert(r) {
            order.push(r);
        }
    }
    let (mut edges, mut deps) = (Vec::new(), Vec::new());
    let mut next = 0;
    while let Some(&t) = order.get(next) {
        next += 1;
        if seen.len() > limit {
            return Err(AuditError::LimitExceeded { limit });
        }
        deps.clear();
        graph.class_of(t).successors(t, graph.ctx(), &mut deps);
        for d in &deps {
            for (task, flow) in [(t, d.src_flow), (d.dst, d.dst_flow)] {
                if flow as usize >= graph.class_of(task).num_flows() {
                    let task = graph.display(task);
                    return Err(AuditError::BadFlow { task, flow });
                }
            }
            edges.push((t, d.dst));
            if seen.insert(d.dst) {
                order.push(d.dst);
            }
        }
    }
    Ok((order, edges))
}

/// Walk the whole graph and verify invariants. `limit` bounds the number
/// of tasks to materialize.
pub fn audit(graph: &TaskGraph, limit: usize) -> Result<GraphAudit, AuditError> {
    let ctx = graph.ctx();
    let (order, edges) = discover(graph, limit)?;
    let mut indeg: HashMap<TaskKey, usize> = order.iter().map(|&t| (t, 0)).collect();
    let mut outdeg: HashMap<TaskKey, usize> = HashMap::new();
    for &(a, b) in &edges {
        *indeg.get_mut(&b).unwrap() += 1;
        *outdeg.entry(a).or_insert(0) += 1;
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
    let mut ready: VecDeque<TaskKey> = order
        .iter()
        .filter(|t| remaining[t] == 0)
        .copied()
        .collect();
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
    if processed != order.len() {
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
    for t in order.iter() {
        let name = graph.class_of(*t).name().to_string();
        *per_class.entry(name.clone()).or_insert(0) += 1;
        let lv = level[t];
        let e = class_levels.entry(name).or_insert((lv, lv));
        e.0 = e.0.min(lv);
        e.1 = e.1.max(lv);
    }
    Ok(GraphAudit {
        tasks_per_class: per_class,
        total_tasks: order.len(),
        total_deps: edges.len(),
        roots: order.iter().filter(|t| indeg[t] == 0).count(),
        sinks: (order.iter())
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
    let (seen, edges) = discover(graph, limit)?;
    let set: HashMap<TaskKey, usize> = seen.iter().enumerate().map(|(i, &t)| (t, i)).collect();
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
