//! Cross-crate integration tests: the full pipeline from DSL/inspection
//! through both engines, plus shape assertions on the simulated curves.

use ccsd::{build_graph, simulate_baseline, verify, BaselineCfg, VariantCfg};
use parsec_rt::{NativeRuntime, SimEngine, SimReport};
use ptg::dsl::Host;
use ptg::{Payload, PlainCtx, TaskCost, TaskKey};
use std::sync::{Arc, Mutex};
use tce::{inspect, scale, TileSpace};
use tensor_kernels::rel_diff;

/// The headline correctness claim, asserted across every execution model:
/// serial reference, native threaded runtime, and the simulated cluster
/// with real bodies all agree to ~14 digits.
#[test]
fn all_execution_models_agree() {
    let space = TileSpace::build(&scale::tiny());
    let (ins, ws) = verify::prepare(&space, 3);
    let e_ref = verify::reference_energy(&ws);
    for cfg in VariantCfg::all() {
        let e_native = verify::variant_energy_native(&ins, &ws, cfg, 2);
        let e_sim = verify::variant_energy_sim(&ins, &ws, cfg, 3);
        assert!(rel_diff(e_ref, e_native) < 1e-12, "{} native", cfg.name);
        assert!(rel_diff(e_ref, e_sim) < 1e-12, "{} sim", cfg.name);
    }
}

/// The simulated cluster is deterministic: identical runs give identical
/// makespans, events, and traces.
#[test]
fn simulation_is_deterministic() {
    let space = TileSpace::build(&scale::small());
    let ins = Arc::new(inspect(&space, 4));
    let run = || {
        let g = build_graph(ins.clone(), VariantCfg::v4(), None);
        SimEngine::new(4, 3).collect_trace(true).run(&g)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.messages, b.messages);
    // Every span — worker, class, start, end — not just their count:
    // seeded sibling steals decide which core runs what.
    let rows = |r: &SimReport| -> Vec<_> {
        r.trace
            .spans()
            .iter()
            .map(|s| (s.who, s.class, s.begin, s.end))
            .collect()
    };
    assert!(!a.trace.spans().is_empty());
    assert_eq!(rows(&a), rows(&b));

    let base = simulate_baseline(&ins, &BaselineCfg::new(4, 3));
    let base2 = simulate_baseline(&ins, &BaselineCfg::new(4, 3));
    assert_eq!(base.makespan, base2.makespan);
}

/// Figure 9's qualitative shape at a fast scale: the original gains from
/// more cores early but the PaRSEC variants dominate it well before
/// saturation, and every variant's makespan improves with cores.
#[test]
fn figure9_shape_smoke() {
    let space = TileSpace::build(&scale::medium());
    let nodes = 8;
    let ins = Arc::new(inspect(&space, nodes));

    let orig = |cores| simulate_baseline(&ins, &BaselineCfg::new(nodes, cores)).makespan;
    let variant = |cfg, cores| {
        let g = build_graph(ins.clone(), cfg, None);
        SimEngine::new(nodes, cores).run(&g).makespan
    };

    let o1 = orig(1);
    let o3 = orig(3);
    let o7 = orig(7);
    assert!(
        o3 < o1,
        "original must gain from 1 -> 3 cores ({o1} -> {o3})"
    );
    assert!(o7 <= o3, "original must not regress 3 -> 7 at this scale");

    for cfg in VariantCfg::all() {
        let v1c = variant(cfg, 1);
        let v7c = variant(cfg, 7);
        assert!(v7c < v1c, "{} must scale with cores", cfg.name);
        assert!(v7c < o7, "{} at 7 cores must beat the original", cfg.name);
    }
}

/// Traces produced by both engines satisfy the Gantt invariant and the
/// baseline shows blocking (per-rank serial) communication.
#[test]
fn traces_are_well_formed() {
    let space = TileSpace::build(&scale::small());
    let ins = Arc::new(inspect(&space, 2));

    let g = build_graph(ins.clone(), VariantCfg::v5(), None);
    let rep = SimEngine::new(2, 3).collect_trace(true).run(&g);
    assert!(
        rep.trace.find_overlap().is_none(),
        "simulated trace rows must not overlap"
    );

    let base = simulate_baseline(&ins, &BaselineCfg::new(2, 2).collect_trace(true));
    assert!(
        base.trace.find_overlap().is_none(),
        "baseline trace rows must not overlap"
    );
    let share = xtrace::analyze::comm_share_of_busy(&base.trace);
    assert!(
        share > 0.02,
        "baseline must spend visible time in blocking comm ({share})"
    );
}

/// `src/dsl/acc.jdf`'s host: `n` terms, the total when DONE runs.
struct Acc {
    n: i64,
    total: Arc<Mutex<f64>>,
}

impl Host for Acc {
    fn execute(
        &self,
        body: &str,
        key: TaskKey,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let x = inputs[0].take().map_or(0.0, |p| p[0]);
        match body {
            "acc" => vec![Some(Arc::new(vec![x + (key.params[0] + 1) as f64]))],
            _ => {
                *self.total.lock().unwrap() = x;
                vec![None]
            }
        }
    }
}

mod acc {
    use super::Acc as Host;
    include!(concat!(env!("OUT_DIR"), "/acc.rs"));
}

/// A DSL-defined graph computes the sum its text describes through the
/// native engine.
#[test]
fn dsl_and_rust_graphs_agree() {
    // Sum i=0..N-1 of (i+1) via a chain of ACC tasks, expressed in DSL.
    let n = 12i64;
    let total = Arc::new(Mutex::new(0.0f64));
    let host = Acc {
        n,
        total: total.clone(),
    };
    let graph = acc::graph(host, Arc::new(PlainCtx { nodes: 1 }), false);
    let rep = NativeRuntime::new(3).run(&graph);
    assert_eq!(rep.tasks, n as u64 + 1);
    let expected: f64 = (1..=n).sum::<i64>() as f64;
    assert_eq!(*total.lock().unwrap(), expected);
}

/// `src/dsl/step.jdf`'s host: every step costs 1 ms.
struct Step;

impl Host for Step {
    fn cost(&self, _body: &str, _key: TaskKey, _inputs: usize) -> TaskCost {
        TaskCost::Fixed { ns: 1_000_000 }
    }
}

mod step {
    use super::Step as Host;
    include!(concat!(env!("OUT_DIR"), "/step.rs"));
}

/// A DSL graph with cost hooks runs on the simulated cluster: the fixed
/// durations show up in the virtual makespan.
#[test]
fn dsl_graph_runs_on_simulator() {
    let graph = step::graph(Step, Arc::new(PlainCtx { nodes: 1 }), false);
    let rep = SimEngine::new(1, 2).run(&graph);
    assert_eq!(rep.tasks, 10);
    // Ten serial 1 ms steps plus dispatch overhead.
    assert!(rep.makespan >= 10_000_000, "makespan {}", rep.makespan);
    assert!(rep.makespan < 12_000_000, "makespan {}", rep.makespan);
}

/// Node-count invariance: distributing the Global Arrays across different
/// logical cluster sizes never changes the numerics.
#[test]
fn node_count_invariance() {
    let space = TileSpace::build(&scale::tiny());
    let mut energies = Vec::new();
    for nodes in [1, 2, 5] {
        let (ins, ws) = verify::prepare(&space, nodes);
        energies.push(verify::variant_energy_native(
            &ins,
            &ws,
            VariantCfg::v3(),
            2,
        ));
    }
    assert!(rel_diff(energies[0], energies[1]) < 1e-12);
    assert!(rel_diff(energies[0], energies[2]) < 1e-12);
}

/// More simulated cores never slow a variant down (non-trivial: dispatch
/// order changes completely), and adding nodes reduces makespan for a
/// parallel workload.
#[test]
fn scaling_monotonicity_smoke() {
    let space = TileSpace::build(&scale::small());
    let ins4 = Arc::new(inspect(&space, 4));
    let g = |ins: &Arc<tce::Inspection>, cfg| build_graph(ins.clone(), cfg, None);
    let t_1 = SimEngine::new(4, 1)
        .run(&g(&ins4, VariantCfg::v5()))
        .makespan;
    let t_4 = SimEngine::new(4, 4)
        .run(&g(&ins4, VariantCfg::v5()))
        .makespan;
    assert!(t_4 < t_1);

    let ins2 = Arc::new(inspect(&space, 2));
    let t_2n = SimEngine::new(2, 4)
        .run(&g(&ins2, VariantCfg::v5()))
        .makespan;
    assert!(t_4 < t_2n, "4 nodes ({t_4}) should beat 2 nodes ({t_2n})");
}
