//! Per-call cost of the graph queries an engine makes on every task —
//! `successors`, `priority`, `num_inputs` — class by class on v5 at
//! `small` scale, one rank: for each, the median of 9 passes over every
//! key of the class, ~300 000 calls a pass. Run:
//! `cargo bench -p bench-harness --bench task_path`.

use ccsd::{build_graph, VariantCfg};
use ptg::{TaskClass, TaskGraph, TaskKey};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tce::{inspect, scale, TileSpace};

/// Every task of `g`, by class id, in discovery order.
fn tasks(g: &TaskGraph) -> BTreeMap<u32, Vec<TaskKey>> {
    let (mut order, mut next, mut deps) = (g.roots(), 0, Vec::new());
    let mut seen: std::collections::HashSet<TaskKey> = order.iter().copied().collect();
    while let Some(&t) = order.get(next) {
        next += 1;
        deps.clear();
        g.class_of(t).successors(t, g.ctx(), &mut deps);
        order.extend(deps.iter().map(|d| d.dst).filter(|&k| seen.insert(k)));
    }
    let mut by_class: BTreeMap<u32, Vec<TaskKey>> = BTreeMap::new();
    for k in order {
        by_class.entry(k.class).or_default().push(k);
    }
    by_class
}

fn main() {
    let space = TileSpace::build(&scale::small());
    let g = build_graph(Arc::new(inspect(&space, 1)), VariantCfg::v5(), None);
    let ctx = g.ctx();
    for (class, keys) in tasks(&g) {
        let c: &dyn TaskClass = g.class_of(keys[0]);
        let rounds = 300_000 / keys.len() + 1;
        let ns_per_call = |f: &mut dyn FnMut(TaskKey)| {
            let mut passes: Vec<f64> = (0..9)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..rounds {
                        for &k in &keys {
                            f(black_box(k));
                        }
                    }
                    t.elapsed().as_nanos() as f64 / (rounds * keys.len()) as f64
                })
                .collect();
            passes.sort_by(f64::total_cmp);
            passes[4]
        };
        let mut out = Vec::with_capacity(16);
        let succ = ns_per_call(&mut |k| {
            out.clear();
            c.successors(k, ctx, &mut out);
            black_box(out.len());
        });
        let prio = ns_per_call(&mut |k| {
            black_box(c.priority(k, ctx));
        });
        let inputs = ns_per_call(&mut |k| {
            black_box(c.num_inputs(k, ctx));
        });
        println!(
            "v5 {:8} ({class}) {:5} keys: successors {succ:5.1} ns, priority {prio:5.1} ns, num_inputs {inputs:5.1} ns",
            c.name(),
            keys.len()
        );
    }
}
