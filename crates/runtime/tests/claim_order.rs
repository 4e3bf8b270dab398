//! Both engines claim ready tasks through `parsec_rt::sched`: on one node
//! with one worker and nothing remote, the native engine and the
//! simulator run the same tasks in the same order.

use parking_lot::Mutex;
use parsec_rt::{NativeRuntime, SimEngine};
use ptg::{Dep, GraphCtx, Payload, PlainCtx, TaskClass, TaskCost, TaskGraph, TaskKey};
use std::sync::Arc;

const ROOTS: i64 = 6;
const ROOT: i64 = 0;
const LEAF: i64 = 1;
const JOIN: i64 = 2;

/// `ROOT(i)` (priority `i % 3`) releases `LEAF(i, 0)` and `LEAF(i, 1)`
/// (priority `10 - i + j`), which both feed `JOIN(i)` (priority `i`).
/// Every body appends its key to `order`.
struct Mixed {
    order: Arc<Mutex<Vec<TaskKey>>>,
}

impl TaskClass for Mixed {
    fn name(&self) -> &str {
        "MIXED"
    }
    fn num_flows(&self) -> usize {
        2
    }
    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        out.extend((0..ROOTS).map(|i| TaskKey::new(0, &[ROOT, i])));
    }
    fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        key.params[0] as usize
    }
    fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let [kind, i, j, _] = key.params;
        match kind {
            ROOT => out.extend((0..2).map(|j| Dep {
                src_flow: 0,
                dst: TaskKey::new(0, &[LEAF, i, j]),
                dst_flow: 0,
            })),
            LEAF => out.push(Dep {
                src_flow: 0,
                dst: TaskKey::new(0, &[JOIN, i]),
                dst_flow: j as u32,
            }),
            _ => {}
        }
    }
    fn priority(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> i64 {
        let [kind, i, j, _] = key.params;
        match kind {
            ROOT => i % 3,
            LEAF => 10 - i + j,
            _ => i,
        }
    }
    fn cost(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
        TaskCost::Fixed { ns: 1_000 }
    }
    fn execute(
        &self,
        key: TaskKey,
        _ctx: &dyn GraphCtx,
        _inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        self.order.lock().push(key);
        vec![Some(Arc::new(vec![1.0])), None]
    }
}

fn graph() -> (TaskGraph, Arc<Mutex<Vec<TaskKey>>>) {
    let order = Arc::new(Mutex::new(Vec::new()));
    let class = Arc::new(Mixed {
        order: order.clone(),
    });
    (
        TaskGraph::new(vec![class], Arc::new(PlainCtx { nodes: 1 })),
        order,
    )
}

#[test]
fn native_and_simulated_runs_execute_in_the_same_order() {
    let (g, native) = graph();
    NativeRuntime::new(1).run(&g);
    let (g, simulated) = graph();
    let rep = SimEngine::new(1, 1).execute_bodies(true).run(&g);
    let (native, simulated) = (native.lock().clone(), simulated.lock().clone());
    assert_eq!(native.len() as i64, 4 * ROOTS);
    assert_eq!(rep.tasks as i64, 4 * ROOTS);
    assert_eq!(native, simulated);
}
