//! Death suite for the failure detector: a multi-rank workload runs
//! with a scripted `Kill` on one rank's transport and must *terminate*
//! — every survivor's detector declares the victim dead and aborts the
//! operations blocked on it, and the victim's own detector notices the
//! silent world so its threads unblock too. A clean run with the
//! detector enabled doubles as the false-positive/overhead gate, and a
//! disarm-based revival proves a death is final: nobody probes the
//! corpse, and what it sends afterwards is dropped unapplied.
//!
//! Content is deliberately *not* asserted on kill runs: a dead gang
//! member poisons collective results by design (aborted gets complete
//! with zeros). The service layer recovers correctness by re-executing
//! the job from its spec on live ranks — proven in the svc suite; here
//! the contract is detection, unblocking, finality and replayability.
//!
//! Every failure message carries the schedule description and seed so
//! a failing run replays exactly.

use comm::fault::{FaultCounters, FaultEvent, FaultPlan, FaultTransport};
use comm::{CommConfig, Endpoint, ShardStore, SocketTransport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const RANKS: usize = 4;
/// The rank whose transport carries the kill plan. Not the barrier
/// leader and not the NXTVAL host, so survivors keep a working counter
/// and a live leader — the service layer's placement makes the same
/// choice when it can.
const VICTIM: usize = 3;
/// Small payload (elements): 16 f64 = 128 B.
const SLOTS: usize = 16;
/// Large payload (elements): 64 f64 = 512 B.
const BIG: usize = 64;

/// Trivial shard store: each array one flat local vector.
struct MemStore {
    arrays: Vec<Mutex<Vec<f64>>>,
}

impl MemStore {
    fn new() -> Arc<Self> {
        // 0: small acc target, 1: put target (one BIG region per writer).
        Arc::new(Self {
            arrays: [SLOTS, RANKS * BIG]
                .iter()
                .map(|&n| Mutex::new(vec![0.0; n]))
                .collect(),
        })
    }
}

impl ShardStore for MemStore {
    fn read(&self, array: u32, offset: usize, len: usize) -> Vec<f64> {
        self.arrays[array as usize].lock().unwrap()[offset..offset + len].to_vec()
    }
    fn write(&self, array: u32, offset: usize, data: &[f64]) {
        self.arrays[array as usize].lock().unwrap()[offset..offset + data.len()]
            .copy_from_slice(data);
    }
    fn accumulate(&self, array: u32, offset: usize, data: &[f64], alpha: f64) {
        let mut a = self.arrays[array as usize].lock().unwrap();
        for (d, s) in a[offset..offset + data.len()].iter_mut().zip(data) {
            *d += alpha * s;
        }
    }
}

/// Chaos timing plus an armed detector: suspect after 60 ms of silence,
/// declare dead after 250 ms. The detector scan shares the 15 ms retry
/// throttle, so both thresholds are crossed within a few milliseconds
/// of the deadline.
fn death_cfg() -> CommConfig {
    CommConfig {
        retry_timeout: Duration::from_millis(15),
        retry_backoff_max: Duration::from_millis(60),
        suspect_after: Some(Duration::from_millis(60)),
        dead_after: Duration::from_millis(250),
        ..CommConfig::default()
    }
}

/// One rank's share of a collective workload that must *terminate* even
/// when a peer dies mid-run: large puts, small accs, fences,
/// blocking gets, NXTVAL draws and barriers, with no content asserts
/// (post-kill, aborted gets return zeros and NXTVAL the no-more-work
/// sentinel — by design).
fn doomed_workload(ep: &Endpoint, r: usize, rounds: usize) -> Vec<i64> {
    let n = ep.nranks();
    let mut draws = Vec::with_capacity(rounds);
    for round in 0..rounds {
        for p in (0..n).filter(|&p| p != r) {
            ep.put(p, 1, r * BIG, &vec![(r * 100 + round) as f64; BIG]);
            ep.acc(p, 0, 0, &[1.0; SLOTS], 1.0);
        }
        ep.fence();
        let _ = ep.get_blocking((r + 1) % n, 0, 0, SLOTS);
        draws.push(ep.nxtval(0));
        ep.barrier();
    }
    draws
}

struct Run {
    eps: Vec<Arc<Endpoint>>,
    stores: Vec<Arc<MemStore>>,
    armed: Vec<Arc<AtomicBool>>,
    killed: Vec<Arc<AtomicBool>>,
    counters: Vec<Arc<FaultCounters>>,
    draws: Vec<Vec<i64>>,
}

impl Run {
    /// Frames every rank's injector faulted so far.
    fn injected(&self) -> u64 {
        self.counters.iter().map(|c| c.total()).sum()
    }
}

/// Run the collective workload over a 4-rank socket mesh where the
/// victim's transport carries `victim_events` and every survivor runs a
/// clean plan with the same seed. Panics (with the replay string) if
/// any rank fails to terminate.
fn death_run(victim_events: Vec<FaultEvent>, rounds: usize, seed: u64, replay: &str) -> Run {
    let stores: Vec<Arc<MemStore>> = (0..RANKS).map(|_| MemStore::new()).collect();
    let mut counters: Vec<Arc<FaultCounters>> = Vec::new();
    let mut armed: Vec<Arc<AtomicBool>> = Vec::new();
    let mut killed: Vec<Arc<AtomicBool>> = Vec::new();
    // Endpoints live in the test thread and outlive every worker, so
    // detection and aborts keep running after the workload exits.
    let eps: Vec<Arc<Endpoint>> = SocketTransport::mesh(RANKS)
        .unwrap()
        .into_iter()
        .zip(&stores)
        .enumerate()
        .map(|(r, (t, store))| {
            let plan = if r == VICTIM {
                FaultPlan {
                    events: victim_events.clone(),
                    ..FaultPlan::clean(seed)
                }
            } else {
                FaultPlan::clean(seed.wrapping_add(r as u64))
            };
            let ft = FaultTransport::new(Box::new(t), plan);
            counters.push(ft.counters());
            armed.push(ft.armed_handle());
            killed.push(ft.killed_handle());
            Endpoint::spawn(Box::new(ft), store.clone(), death_cfg())
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = eps
        .iter()
        .enumerate()
        .map(|(r, ep)| {
            let ep = ep.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let d = doomed_workload(&ep, r, rounds);
                tx.send(()).unwrap();
                d
            })
        })
        .collect();
    for _ in 0..RANKS {
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("run did not terminate: {replay}"));
    }
    let draws = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| panic!("worker panicked: {replay}"))
        })
        .collect();
    Run {
        eps,
        stores,
        armed,
        killed,
        counters,
        draws,
    }
}

/// The false-positive and overhead gate: with the detector armed but no
/// faults injected, nobody is ever declared dead, nothing aborts, and
/// the engine still shows zero retries/timeouts/duplicates — detection
/// costs nothing when everyone is alive. (Suspicion episodes on idle
/// links are fine: one ping round trip clears them.)
#[test]
fn clean_mesh_with_detector_has_no_false_positives() {
    const ROUNDS: usize = 6;
    let run = death_run(vec![], ROUNDS, 0xDEAD_0000, "clean detector control");
    assert_eq!(run.injected(), 0);
    let mut all: Vec<i64> = run.draws.concat();
    all.sort_unstable();
    assert_eq!(
        all,
        (0..(RANKS * ROUNDS) as i64).collect::<Vec<_>>(),
        "clean NXTVAL draws not a permutation"
    );
    for (r, ep) in run.eps.iter().enumerate() {
        let s = ep.stats();
        assert_eq!(
            (s.confirmed_deaths, s.aborted_ops, s.fenced_rx),
            (0, 0, 0),
            "rank {r}: detector false positive on a clean mesh: {s:?}"
        );
        assert_eq!(
            (s.timeouts, s.retries, s.dup_requests, s.dup_replies),
            (0, 0, 0, 0),
            "rank {r}: recovery overhead on a clean mesh: {s:?}"
        );
        assert_eq!(ep.dead_mask(), 0, "rank {r}: dead mask must stay empty");
    }
    // Clean runs also keep their content contract.
    for (p, store) in run.stores.iter().enumerate() {
        let a0 = store.arrays[0].lock().unwrap();
        assert!(
            a0.iter().all(|&v| v == (ROUNDS * (RANKS - 1)) as f64),
            "rank {p} acc target diverged: {a0:?}"
        );
    }
}

/// Kill the victim mid-run: every survivor must declare it dead (after
/// a suspicion episode), publish the dead-mask bit, and abort at least
/// one operation blocked on it; the victim's own detector must declare
/// the silent survivors dead so its threads terminate symmetrically.
#[test]
fn mid_run_kill_is_detected_and_survivors_unblock() {
    let seed = 0xDEAD_0001u64;
    let replay = format!("death schedule Kill{{at: 60}} seed {seed:#x}");
    let run = death_run(vec![FaultEvent::Kill { at: 60 }], 8, seed, &replay);
    assert!(
        run.injected() > 0,
        "kill injected nothing — vacuous: {replay}"
    );
    let bit = 1u64 << VICTIM;
    let mut aborted = 0;
    for (r, ep) in run.eps.iter().enumerate().filter(|(r, _)| *r != VICTIM) {
        let s = ep.stats();
        assert!(
            s.suspects >= 1,
            "survivor {r} never suspected the victim: {s:?}; {replay}"
        );
        assert!(
            s.confirmed_deaths >= 1,
            "survivor {r} never declared the victim dead: {s:?}; {replay}"
        );
        assert_eq!(
            ep.dead_mask() & bit,
            bit,
            "survivor {r} dead mask missing the victim: {replay}"
        );
        aborted += s.aborted_ops;
    }
    assert!(
        aborted > 0,
        "no survivor operation was aborted toward the dead rank: {replay}"
    );
    // Symmetric termination: the victim hears no one, declares every
    // peer dead, and its blocked collectives poison-release — we only
    // got here because its worker thread finished.
    let vs = run.eps[VICTIM].stats();
    let survivors_mask = ((1u64 << RANKS) - 1) & !bit;
    assert_eq!(
        run.eps[VICTIM].dead_mask(),
        survivors_mask,
        "victim must declare the silent world dead: {vs:?}; {replay}"
    );
    assert!(
        vs.aborted_ops > 0,
        "victim ops must abort: {vs:?}; {replay}"
    );
    assert!(
        run.killed[VICTIM].load(Ordering::SeqCst),
        "victim transport must still be dark at the end: {replay}"
    );
}

/// Kill almost immediately, so the death lands in the first round's
/// fence/barrier: the barrier over the full gang must poison-release on
/// every survivor (each rank's own detector releases its own waiters —
/// no leader broadcast to lose), and the second round proves operations
/// posted *after* the verdict abort on the next scan instead of
/// retrying forever.
#[test]
fn kill_during_barrier_poison_releases_the_waiters() {
    let seed = 0xDEAD_0002u64;
    let replay = format!("death schedule Kill{{at: 4}} seed {seed:#x}");
    let run = death_run(vec![FaultEvent::Kill { at: 4 }], 2, seed, &replay);
    assert!(
        run.injected() > 0,
        "kill injected nothing — vacuous: {replay}"
    );
    let mut aborted = 0;
    for (r, ep) in run.eps.iter().enumerate().filter(|(r, _)| *r != VICTIM) {
        let s = ep.stats();
        assert!(
            s.confirmed_deaths >= 1,
            "survivor {r} never declared the victim dead: {s:?}; {replay}"
        );
        aborted += s.aborted_ops;
    }
    assert!(
        aborted > 0,
        "poisoned barriers and fences must count as aborted ops: {replay}"
    );
}

/// A death is final. Once every rank has reached its verdict (the
/// survivors on the victim, the victim on the silent world) and while the
/// victim is still dark, nothing washes over it any more: nobody probes
/// a confirmed-dead peer, so its injector discards no new frame across
/// many detector scans. Revived (disarmed), the victim's put, acc and
/// NXTVAL toward rank 0 go out on the wire, and rank 0 drops every one
/// undispatched: its store is unchanged, every survivor keeps the
/// victim's bit, and the drops are counted.
#[test]
fn a_revived_rank_stays_fenced() {
    let seed = 0xDEAD_0003u64;
    let replay = format!("death schedule Kill{{at: 60}}, then disarm, seed {seed:#x}");
    let run = death_run(vec![FaultEvent::Kill { at: 60 }], 8, seed, &replay);
    let bit = 1u64 << VICTIM;
    let survivors_mask = ((1u64 << RANKS) - 1) & !bit;
    let deadline = Instant::now() + Duration::from_secs(20);
    while !run.eps.iter().enumerate().all(|(r, ep)| {
        let want = if r == VICTIM { survivors_mask } else { bit };
        ep.dead_mask() == want
    }) {
        assert!(
            Instant::now() < deadline,
            "verdicts never settled: {replay}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Long enough for any periodic probe to show (the detector pings a
    // suspect at most every `suspect_after / 2`), and far more than ten
    // detector scans (one per `retry_timeout / 4`).
    let cfg = death_cfg();
    let quiet = cfg.suspect_after.unwrap() * 4;
    assert!(quiet >= cfg.retry_timeout / 4 * 10);
    let victim = &run.counters[VICTIM];
    let before = victim.killed_frames.load(Ordering::SeqCst);
    std::thread::sleep(quiet);
    assert_eq!(
        victim.killed_frames.load(Ordering::SeqCst),
        before,
        "frames still reach or leave the corpse after every verdict: {replay}"
    );
    assert!(run.killed[VICTIM].load(Ordering::SeqCst), "{replay}");

    // Revive the victim and have it write into, and draw from, rank 0.
    let snapshot = |store: &MemStore| -> Vec<Vec<f64>> {
        (store.arrays.iter())
            .map(|a| a.lock().unwrap().clone())
            .collect()
    };
    let store0 = snapshot(&run.stores[0]);
    run.armed[VICTIM].store(false, Ordering::SeqCst);
    let v = &run.eps[VICTIM];
    v.put(0, 1, 0, &[41.0]);
    v.acc(0, 0, 0, &[1.0; SLOTS], 1.0);
    v.fence();
    assert_eq!(v.nxtval(0), i64::MAX, "a fenced draw is dry: {replay}");
    // Rank 0 must have seen (and dropped) at least one of them; give the
    // frames a moment, then let every survivor's scans run a while more.
    let deadline = Instant::now() + Duration::from_secs(20);
    while run.eps[0].stats().fenced_rx == 0 {
        assert!(
            Instant::now() < deadline,
            "rank 0 never received the revived rank's frames: {replay}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(quiet);
    assert_eq!(
        snapshot(&run.stores[0]),
        store0,
        "a fenced rank's writes reached rank 0's store: {replay}"
    );
    for (r, ep) in run.eps.iter().enumerate().filter(|(r, _)| *r != VICTIM) {
        assert_eq!(
            ep.dead_mask() & bit,
            bit,
            "survivor {r} readmitted the victim: {replay}"
        );
    }
}

/// Every named death schedule faults exactly the same frames when
/// replayed with its printed seed: the kill window is a pure function
/// of arrival indices, so a failing chaos run reproduces.
#[test]
fn death_schedules_replay_exactly_from_their_seed() {
    use comm::Transport;
    for name in FaultPlan::death_schedule_names() {
        let deliver = |seed: u64| -> Vec<u16> {
            let mut ts = SocketTransport::mesh(2).unwrap();
            let plan = FaultPlan::named(name, seed)
                .unwrap_or_else(|| panic!("unknown death schedule {name}"));
            let r1 = FaultTransport::new(Box::new(ts.pop().unwrap()), plan);
            let r0 = ts.pop().unwrap();
            for i in 0..500u16 {
                r0.send(1, i.to_le_bytes().to_vec());
            }
            let mut got = Vec::new();
            while let Some((_, f)) = r1.recv_timeout(Duration::from_millis(20)) {
                got.push(u16::from_le_bytes([f[0], f[1]]));
            }
            got
        };
        let a = deliver(99);
        assert_eq!(a, deliver(99), "schedule {name} must replay from its seed");
        assert!(
            a.len() < 500,
            "schedule {name} must lose frames to the kill"
        );
        assert!(
            !a.is_empty(),
            "schedule {name}: pre-kill frames must arrive"
        );
    }
}
