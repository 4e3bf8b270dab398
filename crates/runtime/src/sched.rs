//! The ready order and the claim order, shared by both engines.
//!
//! "PaRSEC includes multiple task scheduling algorithms" — the default
//! one (used for all experiments in the paper) "takes task priorities
//! into consideration ... between two available tasks, the one with a
//! higher priority will execute first". Every worker owns a FIFO
//! [`Deque`] and a node's roots wait in one [`Injector`]; each batch is
//! pushed best first, ties in readiness order (so v2, every priority 0,
//! runs the readers queued ahead of a GEMM first: Figure 11's startup
//! gap). Steals are oldest-first: the order is exact within a batch and
//! approximate across workers, as in PaRSEC. Nothing here has a thread,
//! a clock or an idle gate: the native engine calls it from its
//! workers, the simulator from its event loop, one [`Deque`] per
//! modeled core and one [`Injector`] per node.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use ptg::{TaskGraph, TaskKey};

/// The scheduler both engines run: highest priority first, FIFO among
/// equals (PaRSEC's default). It is the only one; the type remains so
/// that callers written against [`crate::NativeRuntime::policy`] keep
/// building.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Highest priority first; FIFO among equals (PaRSEC default).
    #[default]
    PriorityFifo,
}

/// Where [`Deque::pick`] found its task: the own deque (possibly just
/// refilled), a batch from the injector, or one task of a sibling's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Found {
    Own,
    Injector,
    Sibling,
}

/// One worker's ready tasks: a FIFO deque that its siblings steal from
/// oldest first, the worker's index among them, and its seeded victim
/// randomization.
pub(crate) struct Deque {
    local: Worker<TaskKey>,
    index: usize,
    rng: u64,
}

impl Deque {
    /// Worker `index`'s empty deque.
    pub fn new(index: usize) -> Self {
        Self {
            local: Worker::new_fifo(),
            index,
            rng: 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index as u64 + 1) | 1,
        }
    }

    /// The handle siblings steal through.
    pub fn stealer(&self) -> Stealer<TaskKey> {
        self.local.stealer()
    }

    /// A starved worker's order: its own deque; then `mailboxes`, which
    /// settles arrived completions into this deque; a batch of roots from
    /// `injector`; then `claim`, which seeds whole chains into this deque;
    /// and only then a single task stolen from one of `siblings` (this
    /// worker's own stealer among them), victims tried from a random
    /// start. The two refills return true when they pushed anything.
    #[inline]
    pub fn pick(
        &mut self,
        injector: &Injector<TaskKey>,
        siblings: &[Stealer<TaskKey>],
        mut mailboxes: impl FnMut(&Deque) -> bool,
        mut claim: impl FnMut(&Deque) -> bool,
    ) -> Option<(TaskKey, Found)> {
        if let Some(k) = self.local.pop() {
            return Some((k, Found::Own));
        }
        if mailboxes(self) {
            if let Some(k) = self.local.pop() {
                return Some((k, Found::Own));
            }
        }
        let mut batch = Steal::Retry;
        while batch.is_retry() {
            batch = injector.steal_batch_and_pop(&self.local);
        }
        if let Steal::Success(k) = batch {
            return Some((k, Found::Injector));
        }
        if claim(self) {
            if let Some(k) = self.local.pop() {
                return Some((k, Found::Own));
            }
        }
        self.steal_sibling(siblings).map(|k| (k, Found::Sibling))
    }

    /// Randomized single-task steals from sibling deques, absorbing
    /// `Retry` for one extra round.
    fn steal_sibling(&mut self, siblings: &[Stealer<TaskKey>]) -> Option<TaskKey> {
        let n = siblings.len();
        if n <= 1 {
            return None;
        }
        for _round in 0..2 {
            let mut saw_retry = false;
            // xorshift64*: cheap per-worker victim randomization.
            let x = &mut self.rng;
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let start = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize;
            for off in 0..n {
                let victim = (start + off) % n;
                if victim == self.index {
                    continue;
                }
                match siblings[victim].steal() {
                    Steal::Success(k) => return Some(k),
                    Steal::Retry => saw_retry = true,
                    Steal::Empty => {}
                }
            }
            if !saw_retry {
                break;
            }
        }
        None
    }

    /// Publish a batch of newly ready `(task, priority)` pairs best
    /// first; the stable sort keeps readiness order among equals.
    pub fn publish(&self, ready: &mut [(TaskKey, i64)]) {
        ready.sort_by_key(|&(_, p)| std::cmp::Reverse(p));
        for &(k, _) in ready.iter() {
            self.local.push(k);
        }
    }

    /// Seed externally sourced tasks best first, like [`Deque::publish`].
    pub fn seed(&self, graph: &TaskGraph, mut keys: Vec<TaskKey>) {
        by_priority(graph, &mut keys);
        for k in keys {
            self.local.push(k);
        }
    }
}

/// Highest priority first; the stable sort keeps readiness order among
/// equals. Deques and injectors both pop oldest-first, so pushing in this
/// order publishes priority+FIFO.
pub(crate) fn by_priority(graph: &TaskGraph, keys: &mut [TaskKey]) {
    let ctx = graph.ctx();
    keys.sort_by_cached_key(|&k| std::cmp::Reverse(graph.class_of(k).priority(k, ctx)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: i64) -> TaskKey {
        TaskKey::new(0, &[i])
    }

    fn none(_: &Deque) -> bool {
        false
    }

    fn drain(dq: &mut Deque) -> Vec<TaskKey> {
        let inj = Injector::new();
        std::iter::from_fn(|| dq.pick(&inj, &[], none, none).map(|(k, _)| k)).collect()
    }

    #[test]
    fn priority_fifo_orders_by_priority_then_insertion() {
        let mut dq = Deque::new(0);
        dq.publish(&mut [(k(1), 5), (k(2), 10), (k(3), 5)]);
        assert_eq!(drain(&mut dq), [k(2), k(1), k(3)]); // FIFO among priority 5
    }

    #[test]
    fn equal_priorities_are_fifo() {
        // v2's graph: every priority 0, so readiness order is the order,
        // across batches too.
        let mut dq = Deque::new(0);
        dq.publish(&mut [(k(0), 0), (k(1), 0), (k(2), 0)]);
        dq.publish(&mut [(k(3), 0), (k(4), 0)]);
        assert_eq!(drain(&mut dq), (0..5).map(k).collect::<Vec<_>>());
    }

    #[test]
    fn pick_order_is_own_mailboxes_injector_claim_sibling() {
        let inj = Injector::new();
        let mut me = Deque::new(0);
        let other = Deque::new(1);
        let siblings = [me.stealer(), other.stealer()];
        other.publish(&mut [(k(9), 0)]);
        inj.push(k(7));
        me.publish(&mut [(k(1), 0)]);
        let mail = |dq: &Deque| {
            dq.publish(&mut [(k(3), 0)]);
            true
        };
        let claim = |dq: &Deque| {
            dq.publish(&mut [(k(8), 0)]);
            true
        };
        let mut picks = Vec::new();
        let mut mailed = false;
        let mut claimed = false;
        while let Some(p) = me.pick(
            &inj,
            &siblings,
            |dq| !std::mem::replace(&mut mailed, true) && mail(dq),
            |dq| !std::mem::replace(&mut claimed, true) && claim(dq),
        ) {
            picks.push(p);
        }
        let found = [
            Found::Own,
            Found::Own,
            Found::Injector,
            Found::Own,
            Found::Sibling,
        ];
        assert_eq!(
            picks,
            [k(1), k(3), k(7), k(8), k(9)]
                .into_iter()
                .zip(found)
                .collect::<Vec<_>>()
        );
    }
}
