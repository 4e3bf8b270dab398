//! Sharded concurrency primitives for the native engine's dispatch path.
//!
//! The paper's scalability story is a lock-contention story: v3 vs v5 is
//! "fewer mutex lock/unlock operations", and PaRSEC's own scheduler keeps
//! per-worker state precisely so that task completion touches no global
//! lock. This module provides the pieces the sharded dispatch path of
//! [`crate::native::NativeRuntime`] is built from (the simulator uses the
//! tracker too, with one shard):
//!
//! * [`ShardMap`] — a DashMap-style hash map split into N independently
//!   locked, cache-line-padded shards, picked by the key's locality group
//!   (the chain), so one chain's entries share a shard and workers on
//!   different chains touch different locks *and* different lines;
//! * [`ShardedTracker`] — the symbolic dependency tracker over a
//!   [`ShardMap`]. It keeps no live-task counter: an engine decides
//!   quiescence where it knows every ready task has run (the native
//!   all-idle scan, the simulator's empty event queue), and there every
//!   discovered task that has not run is in the map;
//! * [`IdleGate`] — an eventcount whose waiters register before they
//!   re-check for work, so a push with nobody waiting is one fence and
//!   one read of a line no worker writes, instead of an atomic bump.

use crossbeam::utils::CachePadded;
use parking_lot::{Condvar, Mutex, MutexGuard};
use ptg::{TaskGraph, TaskKey};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{fence, AtomicU64, Ordering};

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
/// (unless their groups collide on a shard). Each shard is padded to its
/// own cache lines: unpadded, two shards' mutex words share a line and
/// two chains' locks would bounce it between cores. This is the "DashMap
/// built from approved crates" shape: lock-free readers are not needed
/// because every dispatch operation is a short insert/remove critical
/// section.
pub struct ShardMap<K, V> {
    shards: Vec<CachePadded<Mutex<HashMap<K, V, FxBuild>>>>,
    mask: u64,
}

impl<K: Hash + Eq + Grouped, V> ShardMap<K, V> {
    /// Map with at least `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(HashMap::default())))
                .collect(),
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
/// The defining property of the PTG execution model — emphasized by the
/// paper against "Dynamic Task Discovery" runtimes — is that the DAG is
/// never built in memory. The tracker holds state only for tasks that
/// have received some but not all of their inputs: a map from task to
/// its remaining-input count. Everything else is recomputed
/// symbolically from the task classes. `deliver()` on the completion
/// path locks only the shard owning the destination's chain — no global
/// lock and no global word anywhere. There is no live-task counter: once
/// every ready task has run, each discovered task has either run or
/// still waits in this map, so [`ShardedTracker::starved`] read at that
/// point *is* the live count (zero for a finished run, the stuck tasks
/// for a deadlocked one).
pub struct ShardedTracker {
    missing: ShardMap<TaskKey, usize>,
}

impl ShardedTracker {
    /// Fresh tracker with `shards` lock shards.
    pub fn new(shards: usize) -> Self {
        Self {
            missing: ShardMap::new(shards),
        }
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

    /// Tasks that were discovered but still wait for inputs.
    pub fn starved(&self) -> usize {
        self.missing.len()
    }
}

/// Waiter count in the low half of [`IdleGate`]'s state word.
const WAITER: u64 = 1;
/// One notification in the high half (the epoch).
const EPOCH: u64 = 1 << 32;

/// Dekker-style eventcount. A consumer *registers* ([`IdleGate::prepare`])
/// before it re-checks for work, then either parks ([`IdleGate::wait`])
/// or withdraws ([`IdleGate::cancel`]); a producer publishes its work,
/// fences, and reads the waiter count. The two fences order each side's
/// write before its read, so either the producer sees the registration
/// (and bumps the epoch and wakes) or the consumer's re-check sees the
/// work — never neither, which is what makes lost wakeups impossible.
/// With nobody registered, [`IdleGate::notify_one`] is one fence and one
/// read of a line only parking workers write: the engine's per-task push
/// path writes nothing shared here.
///
/// The state word packs the epoch (high 32 bits) and the registered
/// waiters (low 32), so a ticket and its registration are one atomic
/// step.
#[derive(Default)]
pub struct IdleGate {
    state: CachePadded<AtomicU64>,
    lock: Mutex<()>,
    cv: Condvar,
}

impl IdleGate {
    /// Fresh gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase one: register as a waiter and take a ticket, *before*
    /// re-checking for work. Must be matched by exactly one
    /// [`IdleGate::wait`] or [`IdleGate::cancel`].
    pub fn prepare(&self) -> u32 {
        let prev = self.state.fetch_add(WAITER, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        (prev >> 32) as u32
    }

    /// Withdraw a registration: the re-check found work.
    pub fn cancel(&self) {
        self.state.fetch_sub(WAITER, Ordering::SeqCst);
    }

    /// Phase two: park until a notification moves the epoch past
    /// `ticket` (immediately, if one already has), then withdraw.
    pub fn wait(&self, ticket: u32) {
        let mut g = self.lock.lock();
        while (self.state.load(Ordering::SeqCst) >> 32) as u32 == ticket {
            self.cv.wait(&mut g);
        }
        drop(g);
        self.cancel();
    }

    /// Announce one unit of new work, published before this call.
    pub fn notify_one(&self) {
        if self.registered() {
            self.bump();
            self.cv.notify_one();
        }
    }

    /// Wake every registered waiter (shutdown, a steal grant).
    pub fn notify_all(&self) {
        if self.registered() {
            self.bump();
            self.cv.notify_all();
        }
    }

    /// The producer half of the handshake: order the caller's publication
    /// before the read of the waiter count.
    fn registered(&self) -> bool {
        fence(Ordering::SeqCst);
        self.state.load(Ordering::Relaxed) & (EPOCH - 1) != 0
    }

    /// Advance the epoch, then pass through the condvar's lock: a waiter
    /// that read the old epoch under it is inside `cv.wait` by the time
    /// the caller's notify runs.
    fn bump(&self) {
        self.state.fetch_add(EPOCH, Ordering::SeqCst);
        drop(self.lock.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::{Dep, GraphCtx, Payload, PlainCtx, TaskClass};
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

    /// DIAMOND: A -> B, A -> C, {B, C} -> D.
    struct Diamond;
    impl TaskClass for Diamond {
        fn name(&self) -> &str {
            "D"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            out.push(TaskKey::new(0, &[0]));
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            match key.params[0] {
                0 => 0,
                1 | 2 => 1,
                3 => 2,
                _ => unreachable!(),
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            let dep = |i| Dep {
                src_flow: 0,
                dst: TaskKey::new(0, &[i]),
                dst_flow: 0,
            };
            match key.params[0] {
                0 => {
                    out.push(dep(1));
                    out.push(dep(2));
                }
                1 | 2 => out.push(dep(3)),
                _ => {}
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
    }

    #[test]
    fn diamond_discovery() {
        let g = TaskGraph::new(vec![Arc::new(Diamond)], Arc::new(PlainCtx { nodes: 1 }));
        let t = ShardedTracker::new(1);
        let key = |i| TaskKey::new(0, &[i]);

        // A completes, delivering to B and C: each is ready at once.
        assert_eq!(t.deliver(&g, key(1)), Some(key(1)));
        assert_eq!(t.deliver(&g, key(2)), Some(key(2)));
        assert_eq!(t.starved(), 0);

        // B completes: D has 1 of 2 inputs.
        assert_eq!(t.deliver(&g, key(3)), None);
        assert_eq!(t.starved(), 1);

        // C completes: D ready, nothing left waiting.
        assert_eq!(t.deliver(&g, key(3)), Some(key(3)));
        assert_eq!(t.starved(), 0);
    }

    #[test]
    fn concurrent_deliveries_count_exactly() {
        // 8 threads hammer deliver() on a fan-in task with 800 inputs;
        // exactly one thread must observe readiness.
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
        // Discovered exactly once, and nothing left waiting: a 801st
        // delivery would discover it afresh.
        assert_eq!(t.starved(), 0);
    }

    /// Registered waiters (the low half of the gate's state word).
    fn waiters(gate: &IdleGate) -> u64 {
        gate.state.load(Ordering::SeqCst) & (EPOCH - 1)
    }

    #[test]
    fn idle_gate_loses_no_wakeup_under_load() {
        // Two threads play ping-pong through one gate, 100 000 rounds
        // each: a round is prepare / re-check for an item / wait or
        // cancel, then publish an item for the other thread and
        // notify_one. Every round risks a park against the other
        // thread's push; a lost wakeup leaves both parked for good.
        const ROUNDS: u64 = 100_000;
        let gate = Arc::new(IdleGate::new());
        let inbox = Arc::new([AtomicU64::new(1), AtomicU64::new(0)]);
        let (tx, rx) = std::sync::mpsc::channel();
        let run = {
            let (gate, inbox) = (gate.clone(), inbox.clone());
            std::thread::spawn(move || {
                std::thread::scope(|s| {
                    for me in 0..2 {
                        let (gate, inbox) = (&gate, &inbox);
                        s.spawn(move || {
                            for _ in 0..ROUNDS {
                                loop {
                                    let ticket = gate.prepare();
                                    if inbox[me].swap(0, Ordering::SeqCst) == 1 {
                                        gate.cancel();
                                        break;
                                    }
                                    // The engine polls its source and runs
                                    // the idle scan here: widen the window
                                    // a push can land in.
                                    for _ in 0..64 {
                                        std::hint::spin_loop();
                                    }
                                    gate.wait(ticket);
                                }
                                inbox[1 - me].store(1, Ordering::SeqCst);
                                gate.notify_one();
                            }
                        });
                    }
                });
                tx.send(()).unwrap();
            })
        };
        rx.recv_timeout(std::time::Duration::from_secs(300))
            .expect("both threads parked with an item published: lost wakeup");
        run.join().unwrap();
        assert_eq!(waiters(&gate), 0, "a prepare was never waited or cancelled");
    }

    #[test]
    fn idle_gate_no_lost_wakeup() {
        // A producer bumps the gate after the consumer snapshots its
        // ticket: wait() must not block.
        let gate = IdleGate::new();
        let t = gate.prepare();
        gate.notify_one();
        gate.wait(t); // returns immediately; a lost wakeup would hang here
        assert_eq!(waiters(&gate), 0);
        gate.notify_one(); // nobody registered: no epoch bump
        assert_eq!(gate.state.load(Ordering::SeqCst), EPOCH);
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
