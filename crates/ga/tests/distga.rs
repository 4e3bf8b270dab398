//! The distributed backend run as real multi-rank executions (ranks as
//! threads over an in-process socket mesh): the full `Ga` API — collective
//! create/materialize, cross-rank get/acc, the shared NXTVAL counter —
//! must behave exactly like the in-process backend, including when the
//! transport underneath injects faults.

use global_arrays::{DistStore, Ga};
use std::sync::Arc;
use std::time::Duration;

/// Run `f(rank_ga)` on `n` ranks (threads) and return their results in
/// rank order. Endpoints shut down after a final sync.
fn run_ranks<T: Send + 'static>(
    n: usize,
    f: impl Fn(Arc<Ga>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let f = Arc::new(f);
    let transports = comm::SocketTransport::mesh(n).unwrap();
    let handles: Vec<_> = transports
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let f = f.clone();
            std::thread::spawn(move || {
                let store = DistStore::new(rank, n);
                let ep =
                    comm::Endpoint::spawn(Box::new(t), store.clone(), comm::CommConfig::default());
                let ga = Arc::new(Ga::init_dist(ep.clone(), store));
                let out = f(ga.clone());
                ga.sync();
                ep.shutdown();
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// As [`run_ranks`], but over [`comm::FaultTransport`] with a named
/// chaos schedule: the GA semantics must hold anyway. Ranks disarm their
/// injectors after the workload so the final collective teardown cannot
/// lose its own release frames.
fn run_ranks_chaos<T: Send + 'static>(
    n: usize,
    name: &str,
    seed: u64,
    f: impl Fn(Arc<Ga>) -> T + Send + Sync + 'static,
) -> Vec<T> {
    use comm::fault::{FaultPlan, FaultTransport};
    let f = Arc::new(f);
    let handles: Vec<_> = comm::SocketTransport::mesh(n)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let f = f.clone();
            let plan = FaultPlan::named(name, seed.wrapping_add(rank as u64))
                .unwrap_or_else(|| panic!("unknown schedule {name}"));
            let ft = FaultTransport::new(Box::new(t), plan);
            let armed = ft.armed_handle();
            std::thread::spawn(move || {
                let store = DistStore::new(rank, n);
                let cfg = comm::CommConfig {
                    retry_timeout: Duration::from_millis(20),
                    retry_backoff_max: Duration::from_millis(80),
                    ..comm::CommConfig::default()
                };
                let ep = comm::Endpoint::spawn(Box::new(ft), store.clone(), cfg);
                let ga = Arc::new(Ga::init_dist(ep.clone(), store));
                let out = f(ga.clone());
                armed.store(false, std::sync::atomic::Ordering::SeqCst);
                ga.sync();
                ep.shutdown();
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn collective_put_then_cross_rank_get() {
    let snaps = run_ranks(3, |ga| {
        assert!(ga.is_dist());
        let h = ga.create(10);
        let data: Vec<f64> = (0..10).map(|x| x as f64).collect();
        // Everyone writes its own piece; after the sync all of it is
        // visible from every rank.
        ga.put_collective(h, 0, &data);
        ga.sync();
        let all = ga.get(h, 0, 10);
        let tail = ga.get(h, 7, 3);
        (all, tail)
    });
    for (all, tail) in snaps {
        assert_eq!(all, (0..10).map(|x| x as f64).collect::<Vec<_>>());
        assert_eq!(tail, vec![7.0, 8.0, 9.0]);
    }
}

#[test]
fn accumulates_from_all_ranks_combine() {
    let sums = run_ranks(4, |ga| {
        let h = ga.create(8);
        // Every rank accumulates 1.0 across the whole array (crossing
        // every shard boundary), so each element ends at 4.0.
        ga.acc(h, 0, &[1.0; 8], 1.0);
        ga.sync();
        ga.snapshot(h)
    });
    for s in sums {
        assert_eq!(s, vec![4.0; 8]);
    }
}

#[test]
fn acc_local_routes_to_owner_rank() {
    let snaps = run_ranks(2, |ga| {
        let h = ga.create(8); // rank 0 owns [0,4), rank 1 owns [4,8)
        if ga.rank() == 0 {
            let data = vec![1.0; 6]; // global [1, 7)
            ga.acc_local(h, 0, 1, &data, 2.0);
            ga.acc_local(h, 1, 1, &data, 2.0);
        }
        ga.sync();
        ga.snapshot(h)
    });
    for s in snaps {
        assert_eq!(s, vec![0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0]);
    }
}

#[test]
fn nxtval_is_shared_and_resets_collectively() {
    let draws = run_ranks(3, |ga| {
        let mine: Vec<i64> = (0..5).map(|_| ga.nxtval()).collect();
        ga.nxtval_reset();
        let after = ga.nxtval();
        (mine, after)
    });
    // All 15 pre-reset draws are distinct values of one shared counter.
    let mut all: Vec<i64> = draws.iter().flat_map(|(m, _)| m.clone()).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), 15);
    assert!(all.iter().all(|&v| (0..15).contains(&v)));
    // Post-reset draws restart from zero (3 ranks draw 0, 1, 2).
    let mut post: Vec<i64> = draws.iter().map(|(_, a)| *a).collect();
    post.sort_unstable();
    assert_eq!(post, vec![0, 1, 2]);
}

#[test]
fn locality_stats_split_by_ownership() {
    let stats = run_ranks(2, |ga| {
        let h = ga.create(8); // 4 elements per rank
        ga.sync();
        if ga.rank() == 0 {
            ga.get(h, 0, 8); // half local, half remote
        }
        ga.sync();
        (ga.stats().local_bytes(), ga.stats().remote_bytes())
    });
    assert_eq!(stats[0], (32, 32));
    assert_eq!(stats[1], (0, 0));
}

#[test]
fn async_get_feeds_callback_with_assembled_range() {
    let got = run_ranks(2, |ga| {
        let h = ga.create(8);
        let fill: Vec<f64> = (0..8).map(|x| x as f64 * 10.0).collect();
        ga.put_collective(h, 0, &fill);
        ga.sync();
        let slot = Arc::new((std::sync::Mutex::new(None), std::sync::Condvar::new()));
        let fillslot = slot.clone();
        // [2, 7) crosses the shard boundary: one local + one remote piece.
        ga.get_async(
            h,
            2,
            5,
            7,
            Box::new(move |data| {
                *fillslot.0.lock().unwrap() = Some(data);
                fillslot.1.notify_all();
            }),
        );
        let (lock, cv) = &*slot;
        let mut got = lock.lock().unwrap();
        loop {
            if let Some(d) = got.take() {
                break d;
            }
            let (g, _) = cv.wait_timeout(got, Duration::from_secs(10)).unwrap();
            got = g;
        }
    });
    for d in got {
        assert_eq!(d, vec![20.0, 30.0, 40.0, 50.0, 60.0]);
    }
}

/// GA semantics survive a misbehaving transport: collective fills,
/// all-rank accumulates, multi-owner assembly gets and the shared
/// counter all land on exactly the fault-free answer under drop,
/// duplicate and reorder schedules.
#[test]
fn ga_semantics_survive_faulty_transport() {
    for (i, name) in ["drop", "duplicate", "reorder"].iter().enumerate() {
        let seed = 0x6A00 + i as u64;
        let replay = format!("ga chaos `{name}` seed {seed}");
        let results = run_ranks_chaos(4, name, seed, |ga| {
            let h = ga.create(16); // 4 elements per rank
            let fill: Vec<f64> = (0..16).map(|x| x as f64 * 10.0).collect();
            ga.put_collective(h, 0, &fill);
            ga.sync();
            // Every rank accumulates across every shard boundary.
            ga.acc(h, 0, &[1.0; 16], 2.0);
            ga.sync();
            // Multi-owner assembly: one get spanning all four shards.
            let all = ga.get(h, 0, 16);
            let draws: Vec<i64> = (0..6).map(|_| ga.nxtval()).collect();
            (all, draws)
        });
        let want: Vec<f64> = (0..16).map(|x| x as f64 * 10.0 + 2.0 * 4.0).collect();
        let mut draws: Vec<i64> = Vec::new();
        for (all, d) in results {
            assert_eq!(all, want, "assembled get diverged: {replay}");
            draws.extend(d);
        }
        draws.sort_unstable();
        assert_eq!(
            draws,
            (0..24).collect::<Vec<i64>>(),
            "NXTVAL handed out a value twice: {replay}"
        );
    }
}
