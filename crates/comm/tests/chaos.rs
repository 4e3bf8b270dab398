//! Chaos suite for the comm engine: a fixed multi-rank workload runs
//! under every named fault schedule (drop / delay / duplicate / reorder
//! / partition / stall) and must terminate with exactly the same final
//! state as a clean run — the retry/dedup protocol has to mask every
//! injected fault. A clean run doubles as the overhead gate: with no
//! faults, the engine must report zero retries, timeouts and duplicates.
//!
//! Every failure message carries the schedule name and seed: replay by
//! running the same test with `FaultPlan::named(name, seed)`.

use comm::fault::{FaultCounters, FaultPlan, FaultTransport};
use comm::{CommConfig, CommStatsSnap, Endpoint, ShardStore, SocketTransport};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const RANKS: usize = 4;
/// Small payload (elements): 16 f64 = 128 B.
const SLOTS: usize = 16;
/// Large payload (elements): 64 f64 = 512 B. Two sizes, so get frames
/// carry both one part and several, and retransmitted writes resend
/// both sizes.
const BIG: usize = 64;
/// NXTVAL draws per rank before / after the reset.
const DRAWS1: usize = 8;
const DRAWS2: usize = 4;

/// Trivial shard store: each array one flat local vector.
struct MemStore {
    arrays: Vec<Mutex<Vec<f64>>>,
}

impl MemStore {
    fn new() -> Arc<Self> {
        // 0: small acc target, 1: put target (one BIG region per
        // writer), 2: large acc target.
        Arc::new(Self {
            arrays: [SLOTS, RANKS * BIG, BIG]
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

/// Chaos timing: retry fast so injected losses recover in
/// milliseconds. The clean control keeps the stock retry timers, so a
/// loaded machine's scheduling delay is never mistaken for a lost frame
/// (mesh_gate's clean control runs on them too).
fn chaos_cfg() -> CommConfig {
    CommConfig {
        retry_timeout: Duration::from_millis(15),
        retry_backoff_max: Duration::from_millis(60),
        ..CommConfig::default()
    }
}

/// The pattern rank `r` puts into peer `p`'s array 1.
fn pattern(r: usize, p: usize) -> Vec<f64> {
    (0..BIG)
        .map(|i| (r * 1000 + p * 100) as f64 + i as f64)
        .collect()
}

/// One rank's share of the collective workload. Exercises small and
/// large puts/accs, priority-queued async gets, blocking gets,
/// NXTVAL with a mid-run reset, fences and barriers.
fn workload(ep: &Endpoint, r: usize) -> (Vec<i64>, Vec<i64>) {
    let n = ep.nranks();
    // One-sided writes to every peer: a large put into our region of
    // their array 1, a small acc and a large acc.
    for p in (0..n).filter(|&p| p != r) {
        ep.put(p, 1, r * BIG, &pattern(r, p));
        ep.acc(p, 0, 0, &[1.0; SLOTS], 1.0);
        ep.acc(p, 2, 0, &[1.0; BIG], 0.5);
    }
    ep.sync();
    // Read back what peer (r+1)%n received from every writer, async at
    // distinct priorities, checking content in the callbacks.
    let p = (r + 1) % n;
    let (tx, rx) = mpsc::channel::<(usize, Vec<f64>)>();
    let mut expected = 0;
    for q in (0..n).filter(|&q| q != p) {
        for len in [8usize, BIG] {
            let tx = tx.clone();
            ep.get_async(
                p,
                1,
                q * BIG,
                len,
                q as i64,
                Box::new(move |data: comm::WireSlice<'_>| {
                    let _ = tx.send((q, data.to_vec()));
                }),
            );
            expected += 2;
        }
    }
    // Interleave blocking gets of the acc targets.
    let acc0 = ep.get_blocking(p, 0, 0, SLOTS);
    assert!(
        acc0.iter().all(|&v| v == (n - 1) as f64),
        "rank {r}: small acc target wrong: {acc0:?}"
    );
    let acc2 = ep.get_blocking(p, 2, 0, BIG);
    assert!(
        acc2.iter().all(|&v| v == 0.5 * (n - 1) as f64),
        "rank {r}: large acc target wrong"
    );
    expected /= 2;
    for _ in 0..expected {
        let (q, data) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("async get never completed");
        let want = pattern(q, p);
        assert_eq!(data, want[..data.len()], "rank {r}: get from writer {q}");
    }
    // Shared counter: everyone draws from rank 0, reset, draw again.
    let first: Vec<i64> = (0..DRAWS1).map(|_| ep.nxtval(0)).collect();
    ep.barrier();
    if r == 1 {
        ep.nxtval_reset(0);
    }
    ep.barrier();
    let second: Vec<i64> = (0..DRAWS2).map(|_| ep.nxtval(0)).collect();
    ep.barrier();
    (first, second)
}

struct RunOutcome {
    stats: Vec<CommStatsSnap>,
    injected: u64,
    stores: Vec<Arc<MemStore>>,
}

/// Run the collective workload over a faulty 4-rank socket mesh.
/// Panics (with the replay seed) on divergence or non-termination.
fn chaos_run(name: &str, seed: u64, cfg: CommConfig) -> RunOutcome {
    let replay = format!(
        "chaos schedule `{name}` seed {seed} — replay: FaultPlan::named(\"{name}\", {seed})"
    );
    let plan = |rank: usize| {
        FaultPlan::named(name, seed.wrapping_add(rank as u64))
            .unwrap_or_else(|| panic!("unknown schedule {name}"))
    };
    let stores: Vec<Arc<MemStore>> = (0..RANKS).map(|_| MemStore::new()).collect();
    let mut counters: Vec<Arc<FaultCounters>> = Vec::new();
    // Endpoints live in the test thread and outlive every worker, so a
    // rank that needs extra barrier retries during teardown always finds
    // rank 0's progress thread alive.
    let eps: Vec<Arc<Endpoint>> = SocketTransport::mesh(RANKS)
        .unwrap()
        .into_iter()
        .zip(&stores)
        .enumerate()
        .map(|(r, (t, store))| {
            let ft = FaultTransport::new(Box::new(t), plan(r));
            counters.push(ft.counters());
            Endpoint::spawn(Box::new(ft), store.clone(), cfg.clone())
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
                let out = workload(&ep, r);
                tx.send(()).unwrap();
                out
            })
        })
        .collect();
    for _ in 0..RANKS {
        rx.recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("run did not terminate: {replay}"));
    }
    let mut firsts: Vec<i64> = Vec::new();
    let mut seconds: Vec<i64> = Vec::new();
    for h in handles {
        let (f, s) = h
            .join()
            .map_err(|e| {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                format!("worker panicked: {msg}; {replay}")
            })
            .unwrap();
        firsts.extend(f);
        seconds.extend(s);
    }
    // NXTVAL must have handed out each value exactly once, before and
    // after the reset — the dedup record is what guarantees this under
    // duplicated requests.
    firsts.sort_unstable();
    assert_eq!(
        firsts,
        (0..(RANKS * DRAWS1) as i64).collect::<Vec<_>>(),
        "pre-reset NXTVAL draws not a permutation: {replay}"
    );
    seconds.sort_unstable();
    assert_eq!(
        seconds,
        (0..(RANKS * DRAWS2) as i64).collect::<Vec<_>>(),
        "post-reset NXTVAL draws not a permutation: {replay}"
    );
    // Every rank's final shard state must match the clean outcome.
    for (p, store) in stores.iter().enumerate() {
        let a0 = store.arrays[0].lock().unwrap();
        assert!(
            a0.iter().all(|&v| v == (RANKS - 1) as f64),
            "rank {p} array0 diverged: {replay}"
        );
        let a2 = store.arrays[2].lock().unwrap();
        assert!(
            a2.iter().all(|&v| v == 0.5 * (RANKS - 1) as f64),
            "rank {p} array2 diverged: {replay}"
        );
        let a1 = store.arrays[1].lock().unwrap();
        for q in 0..RANKS {
            let region = &a1[q * BIG..(q + 1) * BIG];
            if q == p {
                assert!(
                    region.iter().all(|&v| v == 0.0),
                    "rank {p} own region written: {replay}"
                );
            } else {
                assert_eq!(region, &pattern(q, p)[..], "rank {p} region {q}: {replay}");
            }
        }
    }
    RunOutcome {
        stats: eps.iter().map(|e| e.stats()).collect(),
        injected: counters.iter().map(|c| c.total()).sum(),
        stores,
    }
}

/// The zero-overhead gate: a fault-free run must never time out, retry,
/// or see a duplicate — proving the hardening costs nothing when the
/// network behaves.
#[test]
fn clean_run_shows_zero_recovery_activity() {
    let out = chaos_run("clean", 0xC0FFEE, CommConfig::default());
    assert_eq!(out.injected, 0);
    for (r, s) in out.stats.iter().enumerate() {
        assert_eq!(
            (s.timeouts, s.retries, s.dup_requests, s.dup_replies),
            (0, 0, 0, 0),
            "rank {r}: clean run must show zero recovery activity: {s:?}"
        );
        assert!(s.gets > 0 && s.puts > 0 && s.accs > 0 && s.nxtvals > 0);
    }
    drop(out.stores);
}

fn assert_schedule_survives(name: &str, seed: u64) {
    let out = chaos_run(name, seed, chaos_cfg());
    assert!(
        out.injected > 0,
        "schedule `{name}` seed {seed} injected nothing — vacuous"
    );
}

#[test]
fn survives_drop() {
    let out = chaos_run("drop", 0xD09_0001, chaos_cfg());
    assert!(out.injected > 0);
    // Lost frames can only be recovered by retries.
    let retries: u64 = out.stats.iter().map(|s| s.retries).sum();
    assert!(retries > 0, "drops must force retries");
}

#[test]
fn survives_delay() {
    assert_schedule_survives("delay", 0xDE1A_0002);
}

#[test]
fn survives_duplicate() {
    let out = chaos_run("duplicate", 0xD0B1_0003, chaos_cfg());
    assert!(out.injected > 0);
    // Duplicated frames must be caught by dedup or absorbed as dup
    // completions somewhere in the mesh.
    let absorbed: u64 = out
        .stats
        .iter()
        .map(|s| s.dup_requests + s.dup_replies)
        .sum();
    assert!(absorbed > 0, "duplicates must be detected, not re-applied");
}

#[test]
fn survives_reorder() {
    assert_schedule_survives("reorder", 0x4E04_0004);
}

#[test]
fn survives_partition() {
    let out = chaos_run("partition", 0xBA47_0005, chaos_cfg());
    assert!(out.injected > 0);
    let retries: u64 = out.stats.iter().map(|s| s.retries).sum();
    assert!(retries > 0, "a partition window must force retries");
}

#[test]
fn survives_stall() {
    assert_schedule_survives("stall", 0x57A1_0006);
}

/// Same seed, same per-frame fault decisions: replaying a failing seed
/// reproduces exactly which frames are faulted. (End-to-end fault
/// *totals* can differ run to run — retransmission timing changes how
/// many frames flow — but each frame's fate is a pure function of
/// `(seed, sender, arrival index)`, which is what this pins down.)
#[test]
fn fault_decisions_replay_deterministically() {
    use comm::Transport;
    let survivors = |seed: u64| -> Vec<u8> {
        let mut ts = SocketTransport::mesh(2).unwrap();
        let plan = FaultPlan::named("drop", seed).unwrap();
        let r1 = FaultTransport::new(Box::new(ts.pop().unwrap()), plan);
        let r0 = ts.pop().unwrap();
        for i in 0..200u8 {
            r0.send(1, vec![i]);
        }
        let mut got = Vec::new();
        while let Some((_, f)) = r1.recv_timeout(Duration::from_millis(20)) {
            got.push(f[0]);
        }
        got
    };
    let a = survivors(77);
    assert_eq!(a, survivors(77), "same seed must fault the same frames");
    assert_ne!(a, survivors(78), "different seed, different faults");
}

/// Satellite regression: late, duplicate, or orphaned completions — an
/// get reply with no pending get, a stray ack — are counted
/// no-ops; the engine keeps serving instead of aborting the process.
#[test]
fn orphan_completions_are_counted_noops() {
    use comm::Msg;
    let mut ts = SocketTransport::mesh(3).unwrap();
    let injector = ts.pop().unwrap(); // rank 2: raw transport, no endpoint
    let s1 = MemStore::new();
    let s0 = MemStore::new();
    let e1 = Endpoint::spawn(Box::new(ts.pop().unwrap()), s1, chaos_cfg());
    let e0 = Endpoint::spawn(Box::new(ts.pop().unwrap()), s0, chaos_cfg());
    use comm::Transport;
    // None of these have a pending operation on rank 0.
    injector.send(
        0,
        Msg::GetReply {
            token: 9999,
            parts: vec![vec![1.0]],
        }
        .encode(),
    );
    injector.send(0, Msg::Ack { token: 9998 }.encode());
    injector.send(0, Msg::Ack { token: 9997 }.encode());
    injector.send(
        0,
        Msg::Return {
            token: 9996,
            words: vec![5],
        }
        .encode(),
    );
    injector.send(
        0,
        Msg::GetReply {
            token: 9995,
            parts: vec![vec![2.0], vec![3.0]],
        }
        .encode(),
    );
    // The engine must still be alive and correct afterwards.
    e0.put(1, 0, 0, &[42.0]);
    assert_eq!(e0.get_blocking(1, 0, 0, 1), vec![42.0]);
    let s = e0.stats();
    assert_eq!(s.dup_replies, 5, "each orphan completion counted: {s:?}");
    drop(e1);
}
