//! Sharded concurrency primitives for the native engine's dispatch path.
//!
//! The paper's scalability story is a lock-contention story: v3 vs v5 is
//! "fewer mutex lock/unlock operations", and PaRSEC's own scheduler keeps
//! per-worker state precisely so that task completion touches no global
//! lock. This module provides the pieces the sharded dispatch path of
//! [`crate::native::NativeRuntime`] is built from:
//!
//! * [`ShardMap`] — a DashMap-style hash map split into N independently
//!   locked shards, picked by the key's locality group (the chain), so
//!   one chain's entries share a shard and workers on different chains
//!   touch different locks;
//! * [`ShardedTracker`] — the symbolic dependency tracker re-expressed
//!   over a [`ShardMap`] plus one atomic live-task counter,
//!   replacing the globally locked [`crate::tracker::Tracker`] on the
//!   native completion path;
//! * [`IdleGate`] — an eventcount-style parking protocol replacing the
//!   single condvar, so a task push is one atomic bump (plus a wakeup only
//!   when somebody actually sleeps) instead of a thundering broadcast.

use parking_lot::{Condvar, Mutex, MutexGuard};
use ptg::{TaskGraph, TaskKey};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fast, non-cryptographic hasher (FxHash-style multiply-xor): dispatch
/// keys are tiny fixed-size structs, so SipHash would dominate the cost of
/// a shard lookup.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// Hasher builder for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// A key that names its locality group: the [`ptg::TaskKey`] convention
/// (`params[0]`, the chain in CCSD graphs), also for the `(task, flow)`
/// keys of the payload store.
pub trait Grouped {
    /// The locality group this key belongs to.
    fn group(&self) -> i64;
}

impl Grouped for TaskKey {
    fn group(&self) -> i64 {
        self.params[0]
    }
}

impl Grouped for (TaskKey, u32) {
    fn group(&self) -> i64 {
        self.0.params[0]
    }
}

/// A hash map split into independently locked shards.
///
/// `N` shards each hold an ordinary `HashMap` behind a small mutex. The
/// shard is picked from the key's locality group alone, so every entry of
/// one chain — its tasks' remaining-input counts and their payloads —
/// lives in one shard: a worker running a chain touches one lock and one
/// set of cache lines, and two workers on different chains trade neither
/// (unless their groups collide on a shard). This is the "DashMap built
/// from approved crates" shape: lock-free readers are not needed because
/// every dispatch operation is a short insert/remove critical section.
pub struct ShardMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V, FxBuild>>>,
    mask: u64,
}

impl<K: Hash + Eq + Grouped, V> ShardMap<K, V> {
    /// Map with at least `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| Mutex::new(HashMap::default())).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Lock and return the shard that owns `key`'s group.
    pub fn lock_shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, V, FxBuild>> {
        // Fx of one word is a multiply: its high bits spread consecutive
        // group numbers over the shards.
        let mut h = FxHasher::default();
        h.write_i64(key.group());
        let idx = ((h.finish() >> 48) & self.mask) as usize;
        self.shards[idx].lock()
    }

    /// Insert, returning any previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.lock_shard(&key).insert(key, value)
    }

    /// Remove and return the value for `key`.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.lock_shard(key).remove(key)
    }

    /// Total entries across shards (takes each shard lock in turn).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }
}

/// Dependence tracking for the in-flight frontier, sharded.
///
/// Semantics are identical to [`crate::tracker::Tracker`] (discovered
/// tasks map to their remaining-input count; nothing else is ever
/// materialized), but `deliver()` on the completion path locks only the
/// shard owning the destination's chain, and quiescence is a single atomic
/// counter — no global lock anywhere. That counter is the only word every
/// worker writes per task: discovered/completed tallies would be two more
/// cache lines bouncing between cores on every task, for a statistic the
/// engine reports anyway (`NativeReport::tasks`).
pub struct ShardedTracker {
    missing: ShardMap<TaskKey, usize>,
    live: AtomicU64,
}

impl ShardedTracker {
    /// Fresh tracker with `shards` lock shards.
    pub fn new(shards: usize) -> Self {
        Self {
            missing: ShardMap::new(shards),
            live: AtomicU64::new(0),
        }
    }

    /// Register a root task (zero task inputs). Returns the key, ready.
    pub fn add_root(&self, key: TaskKey) -> TaskKey {
        self.live.fetch_add(1, Ordering::SeqCst);
        key
    }

    /// Deliver one input to `dst`. Returns `Some(dst)` when this delivery
    /// makes it ready. First delivery discovers the task and asks its
    /// class for the symbolic input count (under the shard lock, so
    /// concurrent senders agree on who discovered it).
    pub fn deliver(&self, graph: &TaskGraph, dst: TaskKey) -> Option<TaskKey> {
        let mut shard = self.missing.lock_shard(&dst);
        match shard.entry(dst) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let m = e.get_mut();
                debug_assert!(*m > 0, "over-delivery to {}", graph.display(dst));
                *m -= 1;
                if *m == 0 {
                    e.remove();
                    Some(dst)
                } else {
                    None
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.live.fetch_add(1, Ordering::SeqCst);
                let n = graph.class_of(dst).num_inputs(dst, graph.ctx());
                debug_assert!(
                    n > 0,
                    "task {} received an input but declares none",
                    graph.display(dst)
                );
                if n == 1 {
                    Some(dst)
                } else {
                    v.insert(n - 1);
                    None
                }
            }
        }
    }

    /// Mark a task completed. Returns true when this completion reached
    /// quiescence (the caller should initiate shutdown exactly once —
    /// only one completion can observe the drop to zero).
    pub fn complete(&self, _key: TaskKey) -> bool {
        let prev = self.live.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "completion without a live task");
        prev == 1
    }

    /// No live tasks remain.
    pub fn is_quiescent(&self) -> bool {
        self.live.load(Ordering::SeqCst) == 0
    }

    /// Tasks that were discovered but still wait for inputs.
    pub fn starved(&self) -> usize {
        self.missing.len()
    }
}

/// Eventcount-style idle gate: producers bump an epoch on every push and
/// wake a sleeper only if one exists; consumers snapshot the epoch,
/// re-check their queues, and park only if no push intervened. This is
/// the classic two-phase protocol that makes lost wakeups impossible
/// without serializing producers through a condvar mutex.
#[derive(Default)]
pub struct IdleGate {
    epoch: AtomicU64,
    sleepers: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl IdleGate {
    /// Fresh gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase one: snapshot the epoch *before* re-checking for work.
    pub fn prepare(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Phase two: park until the epoch moves past `ticket`. Returns
    /// immediately if a producer already advanced it.
    pub fn wait(&self, ticket: u64) {
        let mut g = self.lock.lock();
        if self.epoch.load(Ordering::SeqCst) != ticket {
            return;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.epoch.load(Ordering::SeqCst) == ticket {
            self.cv.wait(&mut g);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Announce one unit of new work: advance the epoch; take the condvar
    /// lock only when somebody is actually parked.
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock();
            self.cv.notify_one();
        }
    }

    /// Wake every parked worker (shutdown).
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let _g = self.lock.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn shard_map_basic() {
        let m: ShardMap<(TaskKey, u32), u64> = ShardMap::new(8);
        let k = TaskKey::new(0, &[1, 2]);
        assert!(m.insert((k, 0), 7).is_none());
        assert!(m.insert((k, 1), 8).is_none());
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&(k, 0)), Some(7));
        assert_eq!(m.remove(&(k, 0)), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn shard_map_spreads_keys() {
        let m: ShardMap<TaskKey, ()> = ShardMap::new(8);
        for i in 0..256 {
            m.insert(TaskKey::new(0, &[i]), ());
        }
        let used = m.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(used >= 4, "only {used} of 8 shards used");
    }

    #[test]
    fn shard_map_keeps_a_group_in_one_shard() {
        // Every task and flow of chain 5, whatever its class and other
        // parameters, lands in the same shard.
        let m: ShardMap<(TaskKey, u32), ()> = ShardMap::new(8);
        for class in 0..4 {
            for l2 in 0..16 {
                m.insert((TaskKey::new(class, &[5, l2, l2 % 3]), class), ());
            }
        }
        let used = m.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert_eq!(used, 1);
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn concurrent_deliveries_count_exactly() {
        // 8 threads hammer deliver() on a fan-in task with 800 inputs;
        // exactly one thread must observe readiness.
        use ptg::{Dep, GraphCtx, Payload, PlainCtx, TaskClass};

        struct FanIn;
        impl TaskClass for FanIn {
            fn name(&self) -> &str {
                "F"
            }
            fn num_flows(&self) -> usize {
                1
            }
            fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
            fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
                800
            }
            fn successors(&self, _key: TaskKey, _ctx: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
            fn execute(
                &self,
                _key: TaskKey,
                _ctx: &dyn GraphCtx,
                _inputs: &mut [Option<Payload>],
            ) -> Vec<Option<Payload>> {
                vec![None]
            }
        }

        let g = TaskGraph::new(vec![Arc::new(FanIn)], Arc::new(PlainCtx { nodes: 1 }));
        let t = ShardedTracker::new(8);
        let dst = TaskKey::new(0, &[0]);
        let ready = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if t.deliver(&g, dst).is_some() {
                            ready.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(ready.load(Ordering::SeqCst), 1);
        assert_eq!(t.starved(), 0);
        // Discovered exactly once: one completion takes it to quiescence.
        assert!(t.complete(dst));
        assert!(t.is_quiescent());
    }

    #[test]
    fn idle_gate_no_lost_wakeup() {
        // A producer bumps the gate after the consumer snapshots its
        // ticket: wait() must not block.
        let gate = IdleGate::new();
        let t = gate.prepare();
        gate.notify_one();
        gate.wait(t); // returns immediately; a lost wakeup would hang here
    }

    #[test]
    fn idle_gate_parks_and_wakes() {
        let gate = Arc::new(IdleGate::new());
        let woke = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let g = gate.clone();
            let w = woke.clone();
            handles.push(std::thread::spawn(move || {
                let t = g.prepare();
                g.wait(t);
                w.fetch_add(1, Ordering::SeqCst);
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        gate.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woke.load(Ordering::SeqCst), 3);
    }
}
