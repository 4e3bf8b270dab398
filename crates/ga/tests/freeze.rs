//! The freeze contract: once `Ga::freeze` declares an array read-only,
//! every write to it panics at the caller — on the local backend and over
//! a socket mesh alike — while its cached blocks outlive `sync` until the
//! array is destroyed.

use global_arrays::{DistStore, Ga, GaHandle, TileCacheConfig};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

const LEN: usize = 32;

/// Run `f(rank_ga)` on the ranks of a 2-rank socket mesh with the cache
/// in paranoia mode (every hit re-checked against the owners); results
/// in rank order.
fn run_mesh<T: Send + 'static>(f: impl Fn(&Ga) -> T + Send + Sync + 'static) -> Vec<T> {
    let f = Arc::new(f);
    let handles: Vec<_> = comm::SocketTransport::mesh(2)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(rank, t)| {
            let f = f.clone();
            std::thread::spawn(move || {
                let store = DistStore::new(rank, 2);
                let ep = comm::Endpoint::spawn(Box::new(t), store.clone(), Default::default());
                let cfg = TileCacheConfig {
                    verify_reads: true,
                    ..TileCacheConfig::default()
                };
                let ga = Ga::init_dist_cfg(ep.clone(), store, cfg);
                let out = f(&ga);
                ga.sync();
                ep.shutdown();
                out
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// A filled array, frozen.
fn frozen(ga: &Ga) -> GaHandle {
    let h = ga.create(LEN);
    let fill: Vec<f64> = (0..LEN).map(|x| x as f64).collect();
    ga.put_collective(h, 0, &fill);
    ga.freeze(h);
    h
}

fn on_local(op: fn(&Ga, GaHandle)) {
    let ga = Ga::init(2);
    op(&ga, frozen(&ga));
}

/// Rank 0 of a 2-rank mesh applies `op` to a frozen array. Its panic is
/// caught there, so both ranks still reach the collective teardown, and
/// re-raised here.
fn on_mesh(op: fn(&Ga, GaHandle)) {
    let caught: Vec<Option<Box<dyn Any + Send>>> = run_mesh(move |ga| {
        let h = frozen(ga);
        ga.sync();
        let caught = (ga.rank() == 0)
            .then(|| catch_unwind(AssertUnwindSafe(|| op(ga, h))).err())
            .flatten();
        ga.sync();
        caught
    });
    if let Some(payload) = caught.into_iter().flatten().next() {
        resume_unwind(payload);
    }
}

/// A put into rank 1's half: the guard fires before anything goes out.
fn put(ga: &Ga, h: GaHandle) {
    ga.put(h, LEN - 4, &[7.0; 4]);
}

/// An accumulate spanning both ranks' shards.
fn acc(ga: &Ga, h: GaHandle) {
    ga.acc(h, LEN / 2 - 2, &[1.0; 4], 1.0);
}

fn zero(ga: &Ga, h: GaHandle) {
    ga.zero(h);
}

#[test]
#[should_panic(expected = "put on frozen array")]
fn put_on_a_frozen_array_panics_locally() {
    on_local(put);
}

#[test]
#[should_panic(expected = "acc on frozen array")]
fn acc_on_a_frozen_array_panics_locally() {
    on_local(acc);
}

#[test]
#[should_panic(expected = "zero on frozen array")]
fn zero_on_a_frozen_array_panics_locally() {
    on_local(zero);
}

#[test]
#[should_panic(expected = "put on frozen array")]
fn put_on_a_frozen_array_panics_over_the_mesh() {
    on_mesh(put);
}

#[test]
#[should_panic(expected = "acc on frozen array")]
fn acc_on_a_frozen_array_panics_over_the_mesh() {
    on_mesh(acc);
}

#[test]
#[should_panic(expected = "zero on frozen array")]
fn zero_on_a_frozen_array_panics_over_the_mesh() {
    on_mesh(zero);
}

/// A frozen array's cached blocks survive `sync` (the repeat read is a
/// verified hit, no new wire bytes) while an unfrozen array's are
/// flushed; `destroy` then drops the retained blocks.
#[test]
fn frozen_blocks_outlive_sync_until_destroy() {
    let out = run_mesh(|ga| {
        let (h, loose) = (frozen(ga), ga.create(LEN));
        ga.sync();
        let theirs = ga.distribution(h, 1 - ga.rank());
        let read = |a| ga.get(a, theirs.start, 4);
        let first = (read(h), read(loose));
        ga.sync();
        let gs = ga.stats();
        let (bytes, misses) = (gs.remote_get_bytes(), gs.cache_misses());
        assert_eq!((read(h), read(loose)), first);
        let refetched = (gs.remote_get_bytes() - bytes, gs.cache_misses() - misses);
        ga.sync();
        let dropped = gs.cache_invalidations();
        ga.destroy(h);
        let by_destroy = gs.cache_invalidations() - dropped;
        (refetched, by_destroy, gs.cache_retained(), gs.stale_reads())
    });
    for (rank, (refetched, by_destroy, retained, stale)) in out.into_iter().enumerate() {
        // Only the unfrozen block went back on the wire.
        assert_eq!(refetched, (4 * 8, 1), "rank {rank}");
        assert!(retained >= 1, "rank {rank}: nothing retained");
        assert_eq!(stale, 0, "rank {rank}: a retained block went stale");
        assert_eq!(by_destroy, 1, "rank {rank}: destroy kept the block");
    }
}
