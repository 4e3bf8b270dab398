//! The ready order.
//!
//! "PaRSEC includes multiple task scheduling algorithms" — the default one
//! (used for all experiments in the paper) "takes task priorities into
//! consideration ... between two available tasks, the one with a higher
//! priority will execute first". Ties are broken FIFO by readiness order,
//! which is precisely what makes the no-priority variant v2 (every
//! priority 0) execute all reader tasks (ready at t=0) before any GEMM,
//! reproducing Figure 11's startup idle gap. Both engines use this one
//! order and no other.

use ptg::TaskKey;
use std::collections::BinaryHeap;

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

#[derive(Debug, PartialEq, Eq)]
struct Entry {
    /// `(priority, -readiness sequence)`: the max is the oldest of the
    /// highest priority.
    sort: (i64, i64),
    key: TaskKey,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort.cmp(&other.sort)
    }
}

/// A max-queue of ready tasks in priority-then-FIFO order.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    heap: BinaryHeap<Entry>,
    seq: i64,
}

impl ReadyQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a ready task with its priority.
    pub fn push(&mut self, key: TaskKey, priority: i64) {
        self.seq += 1;
        self.heap.push(Entry {
            sort: (priority, -self.seq),
            key,
        });
    }

    /// Remove the best task.
    pub fn pop(&mut self) -> Option<TaskKey> {
        self.heap.pop().map(|e| e.key)
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: i64) -> TaskKey {
        TaskKey::new(0, &[i])
    }

    #[test]
    fn priority_fifo_orders_by_priority_then_insertion() {
        let mut q = ReadyQueue::new();
        q.push(k(1), 5);
        q.push(k(2), 10);
        q.push(k(3), 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(k(2)));
        assert_eq!(q.pop(), Some(k(1))); // FIFO among priority 5
        assert_eq!(q.pop(), Some(k(3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_priorities_are_fifo() {
        // v2's graph: every priority 0, so readiness order is the order.
        let mut q = ReadyQueue::new();
        for i in 0..5 {
            q.push(k(i), 0);
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(k(i)));
        }
    }
}
