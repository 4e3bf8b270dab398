//! Hot-handoff stress: the shared `DistStore`/`TileCache` pair is owned
//! jointly by N application worker threads (the fused engine's stealing
//! workers) and the comm progress thread (applying remote `Put`/`Acc`
//! active messages against the same shards). These tests hammer exactly
//! that seam:
//!
//! - shard mutations racing local reads must never tear (accumulates of
//!   whole units can only ever be observed as whole units),
//! - the `DistStore::array` condvar wait must absorb a remote request
//!   arriving before this rank's collective `create` call,
//! - cache invalidation driven from the progress thread (incoming `Acc`)
//!   must never let a worker read a verified-stale block once the
//!   mutation has been fenced by a sync.

use global_arrays::{DistStore, Ga, TileCacheConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Run `f(rank_ga, rank)` on `n` ranks (threads) over a socket mesh,
/// returning results in rank order. `verify` arms the cache's
/// verify-reads paranoia mode — valid only for workloads whose reads
/// happen in mutation-quiesced windows (between syncs): a hit taken
/// *while* a remote acc lands legitimately diverges from the fresh
/// re-fetch under GA's relaxed model, and would count as stale.
fn run_ranks<T: Send + 'static>(
    n: usize,
    verify: bool,
    f: impl Fn(Arc<Ga>, usize) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let f = Arc::new(f);
    let handles: Vec<_> = comm::SocketTransport::mesh(n)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let f = f.clone();
            std::thread::spawn(move || {
                let store = DistStore::new(rank, n);
                let ep =
                    comm::Endpoint::spawn(Box::new(t), store.clone(), comm::CommConfig::default());
                let cfg = TileCacheConfig {
                    verify_reads: verify,
                    ..TileCacheConfig::default()
                };
                let ga = Arc::new(Ga::init_dist_cfg(ep.clone(), store, cfg));
                let out = f(ga.clone(), rank);
                ga.sync();
                ep.shutdown();
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// N local worker threads accumulate into the full array (crossing every
/// shard boundary, so each rank's progress thread concurrently applies
/// remote `Acc` frames) while N readers poll. Torn or lost updates would
/// show up as non-integer intermediate reads or a wrong final sum.
/// Verify-reads stays off here: mid-storm hits legally lag the owner
/// (there is no cross-rank invalidation between syncs), so the paranoia
/// re-fetch would flag relaxed-model behavior as staleness.
#[test]
fn acc_storm_from_workers_and_comm_thread_never_tears() {
    const RANKS: usize = 3;
    const WORKERS: usize = 3;
    const ROUNDS: usize = 40;
    const LEN: usize = 64;
    let finals = run_ranks(RANKS, false, |ga, _rank| {
        let h = ga.create(LEN);
        ga.sync();
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let ga = ga.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut polls = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let off = (w * 17) % (LEN / 2);
                        for v in ga.get(h, off, LEN / 2) {
                            // Every accumulate adds exactly 1.0, so any
                            // observable value is a whole count within
                            // the global total — a torn 8-byte f64 or a
                            // partially-applied frame breaks this.
                            assert_eq!(v.fract(), 0.0, "torn read: {v}");
                            assert!(
                                (0.0..=(RANKS * WORKERS * ROUNDS) as f64).contains(&v),
                                "out-of-range read: {v}"
                            );
                        }
                        polls += 1;
                    }
                    polls
                })
            })
            .collect();
        let writers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let ga = ga.clone();
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        ga.acc(h, 0, &[1.0; LEN], 1.0);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        ga.sync();
        stop.store(true, Ordering::Relaxed);
        let polls: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(polls > 0, "readers never ran");
        ga.snapshot(h)
    });
    let expect = (RANKS * WORKERS * ROUNDS) as f64;
    for snap in finals {
        assert_eq!(snap, vec![expect; LEN], "lost or duplicated accumulate");
    }
}

/// A remote `Get` reaching a rank before its own collective `create` has
/// run must park on the `DistStore::array` condvar (the request proves
/// the create is coming), not index past the array table or panic the
/// progress thread.
#[test]
fn remote_request_before_local_create_waits_for_it() {
    let outs = run_ranks(2, true, |ga, rank| {
        if rank == 1 {
            // Rank 0 creates immediately and gets rank 1's half while
            // rank 1 is still asleep; its progress thread must hold the
            // Get until the create below lands.
            std::thread::sleep(std::time::Duration::from_millis(150));
        }
        let h = ga.create(16);
        let other_half = ga.get(h, if rank == 0 { 8 } else { 0 }, 8);
        ga.sync();
        other_half
    });
    for half in outs {
        assert_eq!(half, vec![0.0; 8], "fresh array must read as zeros");
    }
}

/// One rank repeatedly re-reads a block it cached while the other ranks
/// mutate it through `Put`/`Acc` between syncs: every invalidation runs
/// on the reader's *progress thread* while its workers sit in `get`, and
/// verify-reads asserts no hit ever returned pre-invalidation bytes.
#[test]
fn progress_thread_invalidation_races_cached_reads() {
    const RANKS: usize = 2;
    const ROUNDS: usize = 30;
    let outs = run_ranks(RANKS, true, |ga, rank| {
        let h = ga.create(32);
        ga.sync();
        for round in 0..ROUNDS {
            if rank == 1 {
                ga.acc(h, 0, &[1.0; 32], 1.0);
            }
            ga.sync();
            let want = (round + 1) as f64;
            // Re-read twice: the second is a cache hit unless the next
            // round's acc already invalidated it — either way the value
            // must be this round's, and verify-reads cross-checks every
            // hit against a fresh owner fetch.
            assert_eq!(ga.get(h, 0, 32), vec![want; 32]);
            assert_eq!(ga.get(h, 0, 32), vec![want; 32]);
            ga.sync();
        }
        (ga.stats().cache_hits(), ga.stats().stale_reads())
    });
    let hits: u64 = outs.iter().map(|(h, _)| h).sum();
    assert!(hits > 0, "the re-read loop must actually hit the cache");
    for (_, stale) in outs {
        assert_eq!(stale, 0, "stale block served across an invalidation");
    }
}
