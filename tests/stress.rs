//! Concurrency stress: hammer the work-stealing dispatch path with more
//! workers than cores, repeatedly, and demand bit-identical bookkeeping
//! and 1e-12 numerics every time. Races in the sharded tracker, the
//! payload store, or the idle gate show up here as lost tasks, duplicated
//! tasks, wrong energies, or hangs.

use ccsd::{build_graph, verify, DistRank, VariantCfg};
use parsec_rt::NativeRuntime;
use ptg::{Dep, GraphCtx, Payload, PlainCtx, TaskClass, TaskGraph, TaskKey};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tce::{scale, Kernel, TileSpace};
use tensor_kernels::rel_diff;

const ITERS: usize = 50;
/// Units per mesh of the source-fed runs (each also re-runs the graph on
/// a live mesh, so steal epochs and the tile cache cross units).
const ITERS_DIST: usize = 20;
const THREADS: usize = 8;

/// Wide fan-in: `n` root leaves all feed one sink task through the same
/// flow, so the sink's readiness is decided by `n` concurrent `deliver`s
/// racing on one tracker shard entry.
struct FanIn {
    n: i64,
    total: Arc<AtomicU64>,
}

impl TaskClass for FanIn {
    fn name(&self) -> &str {
        "FANIN"
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
        if key.params[0] == 0 {
            self.total
                .fetch_add((key.params[1] + 1) as u64, Ordering::Relaxed);
            vec![Some(Arc::new(vec![key.params[1] as f64]))]
        } else {
            vec![None]
        }
    }
}

/// 50 runs of a 256-leaf fan-in at 8 workers: every run must execute
/// exactly n+1 tasks and sum the leaves exactly.
#[test]
fn fan_in_reduce_is_stable_under_oversubscription() {
    let n = 256i64;
    let expected: u64 = (1..=n as u64).sum();
    for iter in 0..ITERS {
        let total = Arc::new(AtomicU64::new(0));
        let g = TaskGraph::new(
            vec![Arc::new(FanIn {
                n,
                total: total.clone(),
            })],
            Arc::new(PlainCtx { nodes: 1 }),
        );
        let rep = NativeRuntime::new(THREADS).run(&g);
        assert_eq!(
            rep.tasks,
            n as u64 + 1,
            "iteration {iter}: task count drifted"
        );
        assert_eq!(
            total.load(Ordering::Relaxed),
            expected,
            "iteration {iter}: a leaf ran zero or two times"
        );
    }
}

/// 50 runs of the full v5 CCSD variant graph at 8 workers: the task count
/// must be identical every iteration and the energy must match the serial
/// reference to 1e-12 every iteration.
#[test]
fn v5_variant_is_stable_under_oversubscription() {
    let space = TileSpace::build(&scale::tiny());
    let (ins, ws) = verify::prepare(&space, 2);
    let e_ref = verify::reference_energy(&ws);

    let mut tasks0 = None;
    for iter in 0..ITERS {
        ws.reset_output();
        let g = build_graph(ins.clone(), VariantCfg::v5(), Some(ws.clone()));
        let rep = NativeRuntime::new(THREADS).run(&g);
        let tasks = *tasks0.get_or_insert(rep.tasks);
        assert_eq!(rep.tasks, tasks, "iteration {iter}: task count drifted");
        let e = tce::energy::energy(&ws);
        assert!(
            rel_diff(e_ref, e) < 1e-12,
            "iteration {iter}: energy {e} vs reference {e_ref}"
        );
    }
}

/// What one rank saw of one source-fed run.
struct RankRun {
    energy: Option<f64>,
    tasks: u64,
    donated: u64,
    stolen: u64,
}

/// `ranks` ranks of one socket mesh, each running `ITERS_DIST` v5 units on one
/// mesh at `THREADS` workers: results per rank, per iteration.
fn dist_runs(ranks: usize) -> Vec<Vec<RankRun>> {
    let handles: Vec<_> = comm::SocketTransport::mesh(ranks)
        .unwrap()
        .into_iter()
        .map(|t| {
            std::thread::spawn(move || {
                let space = TileSpace::build(&scale::small());
                let rank = DistRank::new(Box::new(t), &space, &[Kernel::T2_7]);
                let runs = (0..ITERS_DIST)
                    .map(|_| {
                        let run = rank.run_variant(VariantCfg::v5(), THREADS, true);
                        RankRun {
                            energy: run.energy,
                            tasks: run.report.tasks,
                            donated: run.steal.donated_chains,
                            stolen: run.steal.stolen_chains,
                        }
                    })
                    .collect();
                rank.finish();
                runs
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// The source-fed path under oversubscription: chains claimed from the
/// ledger, reads settled inline (1 rank: every read is local) or from the
/// comm thread (2 ranks), and chains migrating between ranks — 20 units
/// per mesh at 8 workers per rank. Every unit executes exactly the
/// library run's tasks, matches the reference to 1e-12, and lands every
/// donated chain on a thief.
#[test]
fn source_fed_dist_runs_are_stable_under_oversubscription() {
    let space = TileSpace::build(&scale::small());
    for ranks in [1, 2] {
        let (ins, ws) = verify::prepare(&space, ranks);
        let e_ref = verify::reference_energy(&ws);
        let g = build_graph(ins, VariantCfg::v5(), Some(ws));
        let expected = NativeRuntime::new(1).run(&g).tasks;

        let runs = dist_runs(ranks);
        for iter in 0..ITERS_DIST {
            let unit: Vec<&RankRun> = runs.iter().map(|r| &r[iter]).collect();
            let tasks: u64 = unit.iter().map(|r| r.tasks).sum();
            assert_eq!(tasks, expected, "{ranks} ranks, unit {iter}: task count");
            let e = unit[0].energy.expect("the leader reports the energy");
            assert!(
                rel_diff(e_ref, e) < 1e-12,
                "{ranks} ranks, unit {iter}: energy {e} vs reference {e_ref}"
            );
            assert!(unit[1..].iter().all(|r| r.energy.is_none()));
            let donated: u64 = unit.iter().map(|r| r.donated).sum();
            let stolen: u64 = unit.iter().map(|r| r.stolen).sum();
            assert_eq!(
                donated, stolen,
                "{ranks} ranks, unit {iter}: donated != stolen"
            );
        }
    }
}
