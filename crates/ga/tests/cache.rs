//! Cache-coherence suite for the distributed read path: random
//! `Get`/`Put`/`Acc` interleavings on shared arrays across 4 socket
//! ranks must never observe a value that differs from the uncached
//! oracle (a lockstep-updated model vector), and the deterministic
//! tests pin the two invalidation edges individually — read-your-writes
//! after a local mutation, and incoming-AM invalidation when a peer
//! mutates a block this rank has cached.

use global_arrays::{DistStore, Ga, TileCacheConfig};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const RANKS: usize = 4;
const LEN: usize = 64;

/// Run `f(rank_ga)` on `n` ranks (threads over a socket mesh) with an
/// explicit cache config; results in rank order.
fn run_ranks_cfg<T: Send + 'static>(
    n: usize,
    cache_cfg: TileCacheConfig,
    f: impl Fn(Arc<Ga>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let f = Arc::new(f);
    let handles: Vec<_> = comm::SocketTransport::mesh(n)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let f = f.clone();
            let cache_cfg = cache_cfg.clone();
            std::thread::spawn(move || {
                let store = DistStore::new(rank, n);
                let cfg = comm::CommConfig {
                    retry_timeout: Duration::from_millis(20),
                    retry_backoff_max: Duration::from_millis(80),
                    ..comm::CommConfig::default()
                };
                let ep = comm::Endpoint::spawn(Box::new(t), store.clone(), cfg);
                let ga = Arc::new(Ga::init_dist_cfg(ep.clone(), store, cache_cfg));
                let out = f(ga.clone());
                ga.sync();
                ep.shutdown();
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn verify_cfg() -> TileCacheConfig {
    TileCacheConfig {
        verify_reads: true,
        ..TileCacheConfig::default()
    }
}

/// One mutation round of the lockstep program: `writer` applies `op`
/// over `[off, off+len)` with integer value `val`; everyone reads
/// `[r_off, r_off+r_len)` just before, and the whole array just after
/// the sync.
#[derive(Debug, Clone, Copy)]
struct Round {
    writer: usize,
    /// 0 = Put, 1 = Acc (alpha 1.0).
    op: usize,
    off: usize,
    len: usize,
    val: f64,
    r_off: usize,
    r_len: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole coherence property: under random Put/Acc/Get
    /// interleavings — with `verify_reads` double-checking every hit
    /// against a fresh owner fetch — no rank ever reads a value that
    /// disagrees with the uncached oracle, and no verified hit is stale.
    #[test]
    fn cached_reads_never_observe_stale_values(
        raw in prop::collection::vec(
            (0usize..RANKS, 0usize..2, 0usize..LEN, 1usize..LEN, 1u32..50, (0usize..LEN, 1usize..LEN)),
            1..5,
        ),
    ) {
        let rounds: Vec<Round> = raw
            .iter()
            .map(|&(writer, op, off_raw, len_raw, val, (ro_raw, rl_raw))| {
                let off = off_raw % LEN;
                let len = 1 + len_raw % (LEN - off);
                let r_off = ro_raw % LEN;
                let r_len = 1 + rl_raw % (LEN - r_off);
                Round { writer, op, off, len, val: val as f64, r_off, r_len }
            })
            .collect();
        // The uncached oracle: the model state after each round.
        let init: Vec<f64> = (0..LEN).map(|x| x as f64).collect();
        let mut model = init.clone();
        let mut states: Vec<Vec<f64>> = Vec::new();
        for r in &rounds {
            for x in &mut model[r.off..r.off + r.len] {
                if r.op == 0 {
                    *x = r.val;
                } else {
                    *x += r.val;
                }
            }
            states.push(model.clone());
        }
        let rounds = Arc::new(rounds);
        let states = Arc::new(states);
        let init = Arc::new(init);
        let results = run_ranks_cfg(RANKS, verify_cfg(), move |ga| {
            let h = ga.create(LEN);
            ga.put_collective(h, 0, &init);
            ga.sync();
            let ep = ga.endpoint().unwrap().clone();
            let mut prev: Vec<f64> = init.to_vec();
            for (i, r) in rounds.iter().enumerate() {
                // Pre-mutation read: the previous round's state, whether
                // it comes from cache or the wire.
                let before = ga.get(h, r.r_off, r.r_len);
                assert_eq!(
                    before,
                    &prev[r.r_off..r.r_off + r.r_len],
                    "round {i}: pre-mutation read diverged on rank {}",
                    ga.rank()
                );
                // All pre-reads complete before the writer mutates.
                ep.barrier();
                if ga.rank() == r.writer {
                    let data = vec![r.val; r.len];
                    if r.op == 0 {
                        ga.put(h, r.off, &data);
                        // Read-your-writes with no sync: puts are
                        // blocking and invalidate the writer's cache, so
                        // the writer re-reads its own value immediately.
                        assert_eq!(
                            ga.get(h, r.off, r.len),
                            data,
                            "round {i}: writer failed to read its own put"
                        );
                    } else {
                        ga.acc(h, r.off, &data, 1.0);
                    }
                }
                ga.sync();
                let after = ga.get(h, 0, LEN);
                assert_eq!(after, states[i], "round {i}: post-sync read diverged");
                // Immediate repeat: a cache hit that must agree (and is
                // verified against a fresh fetch by `verify_reads`).
                assert_eq!(ga.get(h, 0, LEN), states[i], "round {i}: cached re-read diverged");
                prev = states[i].clone();
            }
            let gs = ga.stats();
            (gs.cache_hits(), gs.stale_reads())
        });
        for (rank, (hits, stale)) in results.into_iter().enumerate() {
            prop_assert_eq!(stale, 0, "rank {} observed verified-stale cached reads", rank);
            // Every rank re-read the full array right after reading it,
            // and that block always has remote pieces — so hits accrue.
            prop_assert!(hits > 0, "rank {} never exercised the cache", rank);
        }
    }
}

/// A peer's put into a region this rank has cached must invalidate the
/// cached block as the AM is applied — the next read sees the new value
/// with *no* sync on the reader's side.
#[test]
fn incoming_put_invalidates_cached_block() {
    let results = run_ranks_cfg(2, TileCacheConfig::default(), |ga| {
        let h = ga.create(32); // rank 0 owns [0,16), rank 1 owns [16,32)
        let fill: Vec<f64> = (0..32).map(|x| x as f64).collect();
        ga.put_collective(h, 0, &fill);
        ga.sync();
        let ep = ga.endpoint().unwrap().clone();
        if ga.rank() == 0 {
            // Cache [12, 20): local piece [12,16) + remote piece [16,20).
            let first = ga.get(h, 12, 8);
            assert_eq!(first, &fill[12..20]);
            ep.barrier();
            // Rank 1 overwrites index 14 (inside our shard) — blocking,
            // so by its next barrier the AM has been applied here and
            // invalidated our cached block.
            ep.barrier();
            let second = ga.get(h, 12, 8);
            let gs = ga.stats();
            Some((second, gs.cache_invalidations(), gs.cache_misses()))
        } else {
            ep.barrier();
            ga.put(h, 14, &[99.0]);
            ep.barrier();
            None
        }
    });
    let (second, invalidations, misses) = results[0].clone().expect("rank 0 result");
    let want = vec![12.0, 13.0, 99.0, 15.0, 16.0, 17.0, 18.0, 19.0];
    assert_eq!(
        second, want,
        "read after incoming put must see the new value"
    );
    assert!(
        invalidations >= 1,
        "incoming put must invalidate the cached block"
    );
    assert_eq!(
        misses, 2,
        "the invalidated block must be refetched, not served"
    );
}

/// Repeats of the same remote read are served locally: no new wire
/// bytes, hits counted, and bytes attributed to the local side.
#[test]
fn repeated_remote_reads_hit_the_cache() {
    let results = run_ranks_cfg(2, TileCacheConfig::default(), |ga| {
        let h = ga.create(32);
        let fill: Vec<f64> = (0..32).map(|x| (x * 3) as f64).collect();
        ga.put_collective(h, 0, &fill);
        ga.sync();
        let a = ga.get(h, 0, 32);
        let wire_after_first = ga.stats().remote_get_bytes();
        let b = ga.get(h, 0, 32);
        let c = ga.get(h, 0, 32);
        assert_eq!(a, fill);
        assert_eq!(b, fill);
        assert_eq!(c, fill);
        let gs = ga.stats();
        (
            wire_after_first,
            gs.remote_get_bytes(),
            gs.cache_hits(),
            gs.cache_hit_bytes(),
        )
    });
    for (rank, (first, after, hits, hit_bytes)) in results.into_iter().enumerate() {
        assert_eq!(
            first, after,
            "rank {rank}: cached re-reads must move zero new wire bytes"
        );
        assert_eq!(hits, 2, "rank {rank}: both re-reads must hit");
        assert_eq!(hit_bytes, 2 * 32 * 8, "rank {rank}: hit bytes accounted");
    }
}

/// A shared read of a cached block receives the cache's own block — the
/// same allocation on every hit, no copy — and hands the caller's buffer
/// back unused, while counting exactly as a copying read does; with
/// `verify_reads` on, each such hit still runs the fresh-fetch oracle.
#[test]
fn shared_hits_hand_over_the_cached_block() {
    let results = run_ranks_cfg(2, verify_cfg(), |ga| {
        let h = ga.create(32);
        let fill: Vec<f64> = (0..32).map(|x| (x * 5) as f64).collect();
        ga.put_collective(h, 0, &fill);
        ga.sync();
        let theirs = ga.distribution(h, 1 - ga.rank());
        let (off, len) = (theirs.start, theirs.len());
        let shared = || {
            let (tx, rx) = std::sync::mpsc::channel();
            let cb = Box::new(move |block: Arc<Vec<f64>>| tx.send(block).unwrap());
            let unused = ga.get_shared_async(h, off, vec![0.0; len], 0, cb);
            (rx.recv().unwrap(), unused)
        };
        let gs = ga.stats();
        let counts = || {
            [
                gs.gets(),
                gs.get_bytes(),
                gs.cache_hits(),
                gs.local_bytes(),
                gs.remote_bytes(),
                gs.verify_get_bytes(),
            ]
        };
        // The miss fills the cache and delivers the caller's buffer.
        let (first, unused) = shared();
        assert!(unused.is_none(), "a miss consumes the buffer");
        assert_eq!(*first, fill[off..off + len]);
        // A copying hit and a shared hit move every counter alike.
        let before = counts();
        assert_eq!(ga.get(h, off, len), fill[off..off + len]);
        let copying = counts();
        let (second, unused) = shared();
        let after = counts();
        let delta = |a: [u64; 6], b: [u64; 6]| std::array::from_fn::<u64, 6, _>(|i| b[i] - a[i]);
        assert_eq!(delta(before, copying), delta(copying, after));
        let unused = unused.map(|b| b.len());
        assert_eq!(unused, Some(len), "a hit returns the buffer");
        let (third, _) = shared();
        (
            Arc::ptr_eq(&second, &third),
            *second == fill[off..off + len],
            gs.verify_get_bytes(),
            gs.stale_reads(),
        )
    });
    for (rank, (same, exact, verified, stale)) in results.into_iter().enumerate() {
        assert!(same, "rank {rank}: a shared hit copied the cached block");
        assert!(exact, "rank {rank}: the shared block is not the array's");
        assert!(verified > 0, "rank {rank}: hits skipped the oracle");
        assert_eq!(stale, 0, "rank {rank}");
    }
}

/// `sync` is the visibility boundary of GA's relaxed model: a
/// third-party mutation (to a shard this rank does not own) becomes
/// visible at the next sync because the whole cache flushes there.
#[test]
fn sync_flushes_cached_third_party_blocks() {
    let results = run_ranks_cfg(2, TileCacheConfig::default(), |ga| {
        let h = ga.create(32);
        ga.put_collective(h, 0, &vec![1.0; 32]);
        ga.sync();
        if ga.rank() == 0 {
            // Cache rank 1's half.
            assert_eq!(ga.get(h, 16, 16), vec![1.0; 16]);
        }
        ga.sync();
        if ga.rank() == 1 {
            // Mutate our own shard locally; rank 0 has it cached.
            ga.put(h, 20, &[7.0; 4]);
        }
        ga.sync();
        if ga.rank() == 0 {
            let after = ga.get(h, 16, 16);
            let mut want = vec![1.0; 16];
            want[4..8].fill(7.0);
            assert_eq!(after, want, "post-sync read must see third-party put");
        }
        ga.stats().stale_reads()
    });
    for stale in results {
        assert_eq!(stale, 0);
    }
}
