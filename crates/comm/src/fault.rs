//! Deterministic fault injection for chaos testing.
//!
//! [`FaultTransport`] wraps any [`Transport`] (in practice a socket mesh) and
//! perturbs *inbound* frames according to a seeded [`FaultPlan`]: frames
//! may be dropped, delayed, duplicated or reordered, and scripted events
//! can partition a peer for a window, throttle a slow peer, or stall the
//! progress thread once. The progress engine's retry/dedup machinery
//! (see [`crate::progress`]) must mask all of it — chaos tests assert
//! that distributed energies still match the single-process reference.
//!
//! Determinism: every per-frame fault decision is a pure function of
//! `(seed, sender rank, per-sender arrival index)` — independent of
//! thread interleavings across senders — so a failing run is replayed by
//! re-running with the seed it printed. (Delivery *times* of delayed
//! frames follow the wall clock; it is the fault decisions that replay.)
//!
//! Injection is receive-side only and happens on the receiving rank's
//! progress thread; `send` passes through untouched, and self-sends are
//! exempt (the engine's self-messages share the process with the server
//! state they target — faulting them tests nothing the remote paths do
//! not already cover, and the barrier release to rank 0 itself must not
//! be lost silently).

use crate::transport::Transport;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sebastiano Vigna's SplitMix64 — tiny, seedable, statistically fine
/// for fault dice. Hand-rolled: the workspace vendors no RNG crate.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// New generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.f64() < p
    }

    /// Uniform duration in `[lo, hi)` (returns `lo` when the range is
    /// empty).
    pub fn duration(&mut self, lo: Duration, hi: Duration) -> Duration {
        if hi <= lo {
            return lo;
        }
        let span = (hi - lo).as_nanos() as u64;
        lo + Duration::from_nanos(self.next_u64() % span)
    }
}

/// A scripted, windowed fault. Windows are expressed in arrival indices
/// (per-sender for peer events, global for the stall), not wall-clock
/// time, so they replay deterministically.
#[derive(Debug, Clone)]
pub enum FaultEvent {
    /// Drop every frame from `peer` whose per-sender arrival index lies
    /// in `[from_idx, to_idx)` — a temporary one-way partition.
    Partition {
        peer: usize,
        from_idx: u64,
        to_idx: u64,
    },
    /// Add `extra` latency to frames from `peer` in the window — a slow
    /// peer as seen by this rank.
    SlowPeer {
        peer: usize,
        from_idx: u64,
        to_idx: u64,
        extra: Duration,
    },
    /// When the global inbound counter reaches `at`, the progress thread
    /// sleeps `pause` once — the receiving rank goes dark while traffic
    /// keeps arriving.
    Stall { at: u64, pause: Duration },
    /// When the global inbound counter reaches `at`, the rank owning
    /// this transport *dies*: every inbound and outbound frame is
    /// silently discarded from then on, until the transport is disarmed.
    /// The failure detector on the surviving ranks must notice the
    /// silence; the dead rank's own detector must notice it hears no
    /// one, so its blocked operations abort and its threads terminate.
    /// A disarmed victim speaks again, but its peers' verdicts are final:
    /// they drop what it sends.
    Kill { at: u64 },
}

/// A seeded fault schedule: per-frame fault probabilities plus scripted
/// events. `Default` (and [`FaultPlan::clean`]) injects nothing.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of every per-frame dice roll; printed by failing chaos tests
    /// for replay.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop_p: f64,
    /// Probability a frame is delivered twice.
    pub dup_p: f64,
    /// Probability a frame is held for a random `delay` before delivery.
    pub delay_p: f64,
    /// Delay bounds for delayed frames.
    pub delay: (Duration, Duration),
    /// Probability a frame is held back behind later arrivals.
    pub reorder_p: f64,
    /// Scripted windowed events.
    pub events: Vec<FaultEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay: (Duration::from_micros(200), Duration::from_millis(3)),
            reorder_p: 0.0,
            events: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (used by the zero-overhead check:
    /// clean runs must report zero retries).
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The named chaos schedules the test matrix and CI iterate over.
    pub fn schedule_names() -> &'static [&'static str] {
        &[
            "drop",
            "delay",
            "duplicate",
            "reorder",
            "partition",
            "stall",
            "coalesce",
            "service",
        ]
    }

    /// The scripted death schedules. Unlike [`FaultPlan::schedule_names`]
    /// these are *not* energy-gated collectively (a dead gang member
    /// poisons the collective result by design); the kill harness gates
    /// termination, survivor-side detection counters, and replay
    /// determinism instead, while the energy-through-death headline
    /// lives in the service layer's fence-and-requeue path.
    ///
    /// Each plan is for the **victim** rank's transport; survivors run
    /// [`FaultPlan::clean`] with the same seed. The kill indices are
    /// arrival counts, so each name lands in a different phase of the
    /// distributed CCSD run: early (mid-submit), mid (inside the GEMM
    /// data exchange), late (inside the end-of-iteration barrier).
    pub fn death_schedule_names() -> &'static [&'static str] {
        &["kill_gemm", "kill_barrier", "kill_submit"]
    }

    /// Look up a named schedule. Probabilities are tuned so small-scale
    /// CCSD runs with millisecond retry timeouts terminate in seconds
    /// while still forcing many recoveries.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        let base = Self::clean(seed);
        Some(match name {
            // ---- death schedules (victim-rank plans) ----
            "kill_gemm" => Self {
                events: vec![FaultEvent::Kill { at: 150 }],
                ..base
            },
            "kill_barrier" => Self {
                events: vec![FaultEvent::Kill { at: 400 }],
                ..base
            },
            "kill_submit" => Self {
                events: vec![FaultEvent::Kill { at: 25 }],
                ..base
            },
            "clean" => base,
            "drop" => Self {
                drop_p: 0.05,
                ..base
            },
            "delay" => Self {
                delay_p: 0.20,
                ..base
            },
            "duplicate" => Self {
                dup_p: 0.15,
                ..base
            },
            "reorder" => Self {
                reorder_p: 0.15,
                ..base
            },
            // Aimed at the batched read path: simultaneous loss,
            // duplication and reordering makes retried multi-part `Get`
            // frames race their own replies, so batch retry/dedup must
            // treat each batch as one unit and the tile cache must never
            // serve a block a duplicated late reply would have
            // overwritten.
            "coalesce" => Self {
                drop_p: 0.04,
                dup_p: 0.10,
                reorder_p: 0.10,
                ..base
            },
            // Aimed at the job service layer: loss plus heavy
            // reordering makes `Submit` dispatch frames arrive out of
            // ordinal order (executors must buffer the gaps), drops
            // `JobDone` reports so completion relies on retry, and
            // re-delivers tenant submissions so the gateway's recorded
            // job-id replies must absorb the duplicates.
            "service" => Self {
                drop_p: 0.05,
                dup_p: 0.05,
                reorder_p: 0.20,
                ..base
            },
            "partition" => Self {
                drop_p: 0.01,
                events: vec![FaultEvent::Partition {
                    peer: 1,
                    from_idx: 20,
                    to_idx: 60,
                }],
                ..base
            },
            "stall" => Self {
                delay_p: 0.05,
                events: vec![
                    FaultEvent::Stall {
                        at: 50,
                        pause: Duration::from_millis(30),
                    },
                    FaultEvent::SlowPeer {
                        peer: 0,
                        from_idx: 10,
                        to_idx: 40,
                        extra: Duration::from_millis(2),
                    },
                ],
                ..base
            },
            _ => return None,
        })
    }
}

/// Injection counters (what the wrapper actually did), readable while
/// the transport is owned by an endpoint via the handle returned by
/// [`FaultTransport::counters`].
#[derive(Debug, Default)]
pub struct FaultCounters {
    pub dropped: AtomicU64,
    pub duplicated: AtomicU64,
    pub delayed: AtomicU64,
    pub reordered: AtomicU64,
    /// Frames discarded (either direction) while the rank was dead.
    pub killed_frames: AtomicU64,
}

impl FaultCounters {
    /// Sum of all injected faults.
    pub fn total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.reordered.load(Ordering::Relaxed)
            + self.killed_frames.load(Ordering::Relaxed)
    }
}

struct FaultState {
    /// Arrival index per sender (fault-dice input, event windows).
    per_from: Vec<u64>,
    /// Global arrival counter (stall trigger).
    global: u64,
    stalled: bool,
    /// Reorder slot: one frame held back behind later arrivals.
    held: Option<(usize, Vec<u8>)>,
    /// Frames the held one has already let pass; bounded so a frame is
    /// never starved forever under continuous traffic.
    hold_skips: u32,
    /// Duplicates and released delays, ready for immediate delivery.
    ready: VecDeque<(usize, Vec<u8>)>,
    /// Delayed frames with their release times.
    delayed: Vec<(Instant, usize, Vec<u8>)>,
}

/// A [`Transport`] decorator injecting faults from a [`FaultPlan`].
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    counters: Arc<FaultCounters>,
    armed: Arc<AtomicBool>,
    /// True once a scripted `Kill` has fired (and the plan is armed).
    killed: Arc<AtomicBool>,
}

impl FaultTransport {
    /// Wrap `inner`, perturbing its inbound frames per `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        let n = inner.nranks();
        Self {
            inner,
            plan,
            state: Mutex::new(FaultState {
                per_from: vec![0; n],
                global: 0,
                stalled: false,
                held: None,
                hold_skips: 0,
                ready: VecDeque::new(),
                delayed: Vec::new(),
            }),
            counters: Arc::new(FaultCounters::default()),
            armed: Arc::new(AtomicBool::new(true)),
            killed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Shared handle to the injection counters (grab before handing the
    /// transport to an endpoint).
    pub fn counters(&self) -> Arc<FaultCounters> {
        self.counters.clone()
    }

    /// Kill switch: storing `false` stops all further injection and
    /// flushes parked (delayed/held) frames on the next receive. Chaos
    /// drivers disarm after the workload's results are computed, so the
    /// final collective teardown cannot lose a barrier release to a rank
    /// that is about to exit — injection covers the whole computation,
    /// while shutdown (which real jobs guard with a finalize protocol)
    /// stays orderly.
    pub fn armed_handle(&self) -> Arc<AtomicBool> {
        self.armed.clone()
    }

    /// Shared handle observing whether the rank is dead (a scripted
    /// `Kill` has fired). Updated as frames pass through, so it flips
    /// within one frame of the scripted index.
    pub fn killed_handle(&self) -> Arc<AtomicBool> {
        self.killed.clone()
    }

    /// Recompute and publish the dark flag — has a `Kill` whose index
    /// `global` reached fired? — and return it.
    fn update_dark(&self, global: u64) -> bool {
        let dark = (self.plan.events.iter())
            .any(|e| matches!(e, FaultEvent::Kill { at } if global >= *at));
        self.killed.store(dark, Ordering::SeqCst);
        dark
    }

    /// Dice for one frame: a pure function of the plan seed, the sender,
    /// and that sender's arrival index — interleaving-independent.
    fn dice(&self, from: usize, idx: u64) -> SplitMix64 {
        SplitMix64::new(
            self.plan.seed
                ^ (from as u64).wrapping_mul(0x517C_C1B7_2722_0A95)
                ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
    }

    /// Is `(from, idx)` inside a partition window?
    fn partitioned(&self, from: usize, idx: u64) -> bool {
        self.plan.events.iter().any(|e| {
            matches!(e, FaultEvent::Partition { peer, from_idx, to_idx }
                if *peer == from && (*from_idx..*to_idx).contains(&idx))
        })
    }

    /// Extra slow-peer latency for `(from, idx)`, if any.
    fn slow_extra(&self, from: usize, idx: u64) -> Option<Duration> {
        self.plan.events.iter().find_map(|e| match e {
            FaultEvent::SlowPeer {
                peer,
                from_idx,
                to_idx,
                extra,
            } if *peer == from && (*from_idx..*to_idx).contains(&idx) => Some(*extra),
            _ => None,
        })
    }

    /// One-shot stall duration if the global counter just crossed `at`.
    fn stall_due(&self, global: u64) -> Option<Duration> {
        self.plan.events.iter().find_map(|e| match e {
            FaultEvent::Stall { at, pause } if global >= *at => Some(*pause),
            _ => None,
        })
    }
}

impl Transport for FaultTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send(&self, to: usize, frame: Vec<u8>) {
        // A dead rank says nothing (self-sends exempt, as on receive:
        // they never leave the process the dark window models losing).
        if to != self.inner.rank() && self.armed.load(Ordering::SeqCst) {
            let global = self.state.lock().unwrap().global;
            if self.update_dark(global) {
                self.counters.killed_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.inner.send(to, frame);
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let deadline = Instant::now() + timeout;
        loop {
            let armed = self.armed.load(Ordering::SeqCst);
            let now = Instant::now();
            // Release due delayed frames (all of them once disarmed),
            // then serve the ready queue.
            {
                let mut st = self.state.lock().unwrap();
                let mut due = Vec::new();
                let mut i = 0;
                while i < st.delayed.len() {
                    if !armed || st.delayed[i].0 <= now {
                        due.push(st.delayed.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                due.sort_by_key(|d| d.0);
                for (_, from, frame) in due {
                    st.ready.push_back((from, frame));
                }
                if !armed {
                    if let Some(h) = st.held.take() {
                        st.ready.push_back(h);
                    }
                }
                if let Some(x) = st.ready.pop_front() {
                    return Some(x);
                }
            }
            if now >= deadline {
                // Timed out: flush the reorder slot so the run's final
                // frame cannot be held forever during a lull.
                return self.state.lock().unwrap().held.take();
            }
            // Wait on the inner transport, but wake for delayed releases.
            let mut wait = deadline - now;
            if let Some(next) = self.state.lock().unwrap().delayed.iter().map(|d| d.0).min() {
                wait = wait.min(next.saturating_duration_since(now) + Duration::from_micros(50));
            }
            let Some((from, frame)) = self.inner.recv_timeout(wait) else {
                continue;
            };
            // Self-sends are exempt from injection, as is everything
            // after disarm.
            if from == self.inner.rank() || !armed {
                return Some((from, frame));
            }
            let (idx, global) = {
                let mut st = self.state.lock().unwrap();
                let idx = st.per_from[from];
                st.per_from[from] += 1;
                st.global += 1;
                (idx, st.global)
            };
            // One-shot progress-thread stall.
            if let Some(pause) = self.stall_due(global) {
                let fire = {
                    let mut st = self.state.lock().unwrap();
                    !std::mem::replace(&mut st.stalled, true)
                };
                if fire {
                    std::thread::sleep(pause);
                }
            }
            // A dead rank hears nothing.
            if self.update_dark(global) {
                self.counters.killed_frames.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.partitioned(from, idx) {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let mut rng = self.dice(from, idx);
            if rng.chance(self.plan.drop_p) {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if rng.chance(self.plan.dup_p) {
                self.counters.duplicated.fetch_add(1, Ordering::Relaxed);
                self.state
                    .lock()
                    .unwrap()
                    .ready
                    .push_back((from, frame.clone()));
            }
            let slow = self.slow_extra(from, idx);
            if slow.is_some() || rng.chance(self.plan.delay_p) {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                let d = slow.unwrap_or_else(|| rng.duration(self.plan.delay.0, self.plan.delay.1));
                self.state
                    .lock()
                    .unwrap()
                    .delayed
                    .push((Instant::now() + d, from, frame));
                continue;
            }
            if rng.chance(self.plan.reorder_p) {
                self.counters.reordered.fetch_add(1, Ordering::Relaxed);
                let mut st = self.state.lock().unwrap();
                match st.held.replace((from, frame)) {
                    // Swap: the previously held frame finally goes out.
                    Some(prev) => {
                        st.hold_skips = 0;
                        return Some(prev);
                    }
                    None => {
                        st.hold_skips = 0;
                        continue;
                    }
                }
            }
            // Plain delivery — but cap how many frames a held one may be
            // reordered behind, so continuous traffic cannot starve it.
            let mut st = self.state.lock().unwrap();
            if st.held.is_some() {
                st.hold_skips += 1;
                if st.hold_skips >= 4 {
                    let prev = st.held.take().unwrap();
                    st.hold_skips = 0;
                    st.ready.push_back((from, frame));
                    return Some(prev);
                }
            }
            return Some((from, frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::SocketTransport;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8, "8 draws must be distinct");
        let mut r = SplitMix64::new(7);
        for _ in 0..64 {
            let f = r.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn named_schedules_all_resolve() {
        for name in FaultPlan::schedule_names() {
            let p = FaultPlan::named(name, 1).unwrap_or_else(|| panic!("schedule {name}"));
            assert_eq!(p.seed, 1);
        }
        for name in FaultPlan::death_schedule_names() {
            let p = FaultPlan::named(name, 2).unwrap_or_else(|| panic!("schedule {name}"));
            assert!(
                p.events
                    .iter()
                    .any(|e| matches!(e, FaultEvent::Kill { .. })),
                "death schedule {name} must script a kill"
            );
        }
        assert!(FaultPlan::named("clean", 9).is_some());
        assert!(FaultPlan::named("no-such", 9).is_none());
    }

    /// A Kill silences both directions from its index on, for good, and
    /// the killed handle flips with it.
    #[test]
    fn kill_silences_both_directions_for_good() {
        let mut ranks = SocketTransport::mesh(2).unwrap();
        let plan = FaultPlan {
            events: vec![FaultEvent::Kill { at: 4 }],
            ..FaultPlan::clean(0)
        };
        let r1 = FaultTransport::new(Box::new(ranks.pop().unwrap()), plan);
        let r0 = ranks.pop().unwrap();
        let c = r1.counters();
        let killed = r1.killed_handle();
        let mut got = Vec::new();
        for i in 0..12u8 {
            r0.send(1, vec![i]);
            // Outbound while dark must be discarded, not delivered late.
            r1.send(0, vec![100 + i]);
            if let Some((_, f)) = r1.recv_timeout(Duration::from_millis(20)) {
                got.push(f[0]);
            }
            if i == 2 {
                assert!(!killed.load(Ordering::SeqCst), "alive before the kill");
            }
        }
        // Arrival indices are 1-based (global is bumped before the
        // check): frames 1..=3 arrive, every later one dies.
        assert_eq!(got, vec![0, 1, 2]);
        assert!(killed.load(Ordering::SeqCst), "still dead at the end");
        let mut echoed = Vec::new();
        while let Some((_, f)) = r0.recv_timeout(Duration::from_millis(20)) {
            echoed.push(f[0]);
        }
        // A send checks the arrivals so far: 100..=103 leave before the
        // fourth arrival kills the rank, 104.. are lost.
        assert_eq!(echoed, vec![100, 101, 102, 103]);
        // Nine inbound (3..=11) and eight outbound (104..=111) discards.
        assert_eq!(c.killed_frames.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn clean_plan_is_transparent() {
        let mut ranks = SocketTransport::mesh(2).unwrap();
        let r1 = FaultTransport::new(Box::new(ranks.pop().unwrap()), FaultPlan::clean(3));
        let r0 = ranks.pop().unwrap();
        let c = r1.counters();
        for i in 0..32u8 {
            r0.send(1, vec![i]);
        }
        for i in 0..32u8 {
            let (from, frame) = r1.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!((from, frame), (0, vec![i]), "clean plan must not perturb");
        }
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn drop_plan_loses_frames_deterministically() {
        let deliver = |seed: u64| -> Vec<u8> {
            let mut ranks = SocketTransport::mesh(2).unwrap();
            let plan = FaultPlan {
                drop_p: 0.3,
                ..FaultPlan::clean(seed)
            };
            let r1 = FaultTransport::new(Box::new(ranks.pop().unwrap()), plan);
            let r0 = ranks.pop().unwrap();
            for i in 0..64u8 {
                r0.send(1, vec![i]);
            }
            let mut got = Vec::new();
            while let Some((_, f)) = r1.recv_timeout(Duration::from_millis(20)) {
                got.push(f[0]);
            }
            got
        };
        let a = deliver(11);
        assert_eq!(a, deliver(11), "same seed, same survivors");
        assert!(a.len() < 64, "some frames must drop");
        assert!(!a.is_empty(), "some frames must survive");
        assert_ne!(a, deliver(12), "different seed, different survivors");
    }

    #[test]
    fn duplicates_and_delays_preserve_content() {
        let mut ranks = SocketTransport::mesh(2).unwrap();
        let plan = FaultPlan {
            dup_p: 0.5,
            delay_p: 0.3,
            delay: (Duration::from_micros(100), Duration::from_micros(500)),
            ..FaultPlan::clean(5)
        };
        let r1 = FaultTransport::new(Box::new(ranks.pop().unwrap()), plan);
        let r0 = ranks.pop().unwrap();
        let c = r1.counters();
        for i in 0..64u8 {
            r0.send(1, vec![i]);
        }
        let mut seen = vec![0u32; 64];
        while let Some((_, f)) = r1.recv_timeout(Duration::from_millis(50)) {
            seen[f[0] as usize] += 1;
        }
        // Nothing dropped: every frame arrives at least once, duplicates
        // on top.
        assert!(seen.iter().all(|&n| n >= 1), "no frame may be lost");
        let extras: u32 = seen.iter().map(|&n| n - 1).sum();
        assert_eq!(
            extras as u64,
            c.duplicated.load(Ordering::Relaxed),
            "every duplicate decision yields exactly one extra delivery"
        );
        assert!(c.delayed.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn reorder_changes_order_not_content() {
        let mut ranks = SocketTransport::mesh(2).unwrap();
        let plan = FaultPlan {
            reorder_p: 0.4,
            ..FaultPlan::clean(21)
        };
        let r1 = FaultTransport::new(Box::new(ranks.pop().unwrap()), plan);
        let r0 = ranks.pop().unwrap();
        let c = r1.counters();
        for i in 0..64u8 {
            r0.send(1, vec![i]);
        }
        let mut got = Vec::new();
        while let Some((_, f)) = r1.recv_timeout(Duration::from_millis(20)) {
            got.push(f[0]);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u8>>(), "multiset preserved");
        assert!(c.reordered.load(Ordering::Relaxed) > 0);
        assert_ne!(got, sorted, "order must actually change");
    }

    #[test]
    fn partition_window_drops_exactly_that_peer() {
        let mut ranks = SocketTransport::mesh(3).unwrap();
        let r2 = ranks.pop().unwrap();
        let plan = FaultPlan {
            events: vec![FaultEvent::Partition {
                peer: 0,
                from_idx: 4,
                to_idx: 8,
            }],
            ..FaultPlan::clean(0)
        };
        let r1 = FaultTransport::new(Box::new(ranks.pop().unwrap()), plan);
        let r0 = ranks.pop().unwrap();
        for i in 0..12u8 {
            r0.send(1, vec![i]);
            r2.send(1, vec![100 + i]);
        }
        let mut from0 = Vec::new();
        let mut from2 = Vec::new();
        while let Some((from, f)) = r1.recv_timeout(Duration::from_millis(20)) {
            if from == 0 {
                from0.push(f[0]);
            } else {
                from2.push(f[0]);
            }
        }
        assert_eq!(from0, vec![0, 1, 2, 3, 8, 9, 10, 11], "window dropped");
        assert_eq!(from2.len(), 12, "other peer untouched");
    }
}
