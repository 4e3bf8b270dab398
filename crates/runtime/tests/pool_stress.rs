//! Concurrency stress for [`TilePool`]: the free-list allocator must
//! never hand the same buffer to two live checkouts, `checkout_dirty`
//! must keep its contents contract under recycling from other threads,
//! and the cross-shard fallback must keep the steady state miss-free
//! while checkouts and recycles race.

use parsec_rt::TilePool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every live `checkout_dirty` buffer is exclusively owned: 8 threads
/// hammer checkout/stamp/verify/recycle on one size class, and a stamp
/// that changes under a holder means the pool double-issued a buffer.
#[test]
fn dirty_checkouts_are_exclusive_under_contention() {
    let pool = Arc::new(TilePool::new(4));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..500u64 {
                    let stamp = (t * 10_000 + i) as f64;
                    let mut v = pool.checkout_dirty(96);
                    assert_eq!(v.len(), 96);
                    v.fill(stamp);
                    std::thread::yield_now();
                    assert!(
                        v.iter().all(|&x| x == stamp),
                        "buffer mutated while checked out (thread {t}, iter {i})"
                    );
                    pool.recycle(v);
                }
            });
        }
    });
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, 8 * 500);
    // The working set is at most 8 live buffers, so fresh allocations
    // are bounded by peak concurrency, not by iteration count.
    assert!(
        s.misses <= 8,
        "free lists must serve the steady state: {s:?}"
    );
}

/// The `checkout_dirty` contents contract holds when the buffer comes
/// back from another thread's shard: elements past the previous tenant's
/// length are defined (zero), and growth never exposes junk.
#[test]
fn dirty_growth_is_defined_across_threads() {
    let pool = Arc::new(TilePool::new(8));
    // Seed from other threads: short-length tenants in the 128 class,
    // poisoned so any stale read past their length would be visible.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = pool.clone();
            s.spawn(move || {
                let mut v = pool.checkout_dirty(65);
                v.fill(f64::NAN);
                pool.recycle(v);
            });
        }
    });
    // Grow within the class from this thread: [0, 65) may carry the
    // poison (stale by contract), [65, 128) must be defined zeros.
    for _ in 0..4 {
        let v = pool.checkout_dirty(128);
        assert_eq!(v.len(), 128);
        assert!(
            v[65..].iter().all(|&x| x == 0.0),
            "growth past the previous length must be zeroed"
        );
        // Not recycled: each iteration must pull a different seed buffer.
    }
}

/// Cross-shard fallback under live traffic: producers recycle into their
/// own home shards while consumers check out from theirs. Once warm, no
/// consumer may allocate fresh memory even though its home shard is
/// usually empty — the fallback scan has to find the producers' buffers.
#[test]
fn cross_shard_fallback_survives_concurrent_checkout_recycle() {
    let pool = Arc::new(TilePool::new(8));
    // Warm: one buffer per producer thread, recycled from that thread.
    std::thread::scope(|s| {
        for _ in 0..4 {
            let pool = pool.clone();
            s.spawn(move || pool.recycle(vec![0.0; 256]));
        }
    });
    let warm = pool.stats();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Consumers: checkout from fresh threads (random home shards),
        // hold briefly, hand back.
        for _ in 0..4 {
            let pool = pool.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = pool.checkout(200);
                    assert_eq!(v.len(), 200);
                    assert!(v.iter().all(|&x| x == 0.0), "checkout must zero");
                    std::thread::yield_now();
                    pool.recycle(v);
                    rounds += 1;
                }
                rounds
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
    });
    let s = pool.stats();
    // 4 consumers over 4 warm buffers: demand never exceeds supply, so
    // every post-warm-up checkout is a free-list hit via some shard.
    assert_eq!(
        s.misses, warm.misses,
        "warm pool must serve all concurrent checkouts: {s:?}"
    );
    assert!(s.hits > 0);
    assert_eq!(pool.free_buffers(), 4, "all buffers returned");
}

/// The counters live beside each shard's free lists and are summed on
/// read: under four threads' concurrent traffic none may be lost or
/// counted twice.
#[test]
fn counters_stay_exact_under_concurrent_traffic() {
    const OPS: u64 = 10_000;
    let pool = Arc::new(TilePool::new(8));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..OPS {
                    let v = if (t + i) % 2 == 0 {
                        pool.checkout(64 + (i % 3) as usize * 100)
                    } else {
                        pool.checkout_dirty(64)
                    };
                    pool.recycle(v);
                }
            });
        }
    });
    let s = pool.stats();
    assert_eq!(s.hits + s.misses, 4 * OPS, "{s:?}");
    assert_eq!(s.recycles, 4 * OPS, "{s:?}");
    assert_eq!(pool.free_buffers() as u64, s.misses, "{s:?}");
}

/// Mixed zeroed and dirty checkouts share the free lists without
/// leaking stale contents into the zeroed path.
#[test]
fn zeroed_path_stays_clean_next_to_dirty_traffic() {
    let pool = Arc::new(TilePool::new(4));
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let pool = pool.clone();
            s.spawn(move || {
                for i in 0..300u64 {
                    if (t + i) % 2 == 0 {
                        let mut v = pool.checkout_dirty(48);
                        v.fill(-1.0);
                        pool.recycle(v);
                    } else {
                        let v = pool.checkout(48);
                        assert!(
                            v.iter().all(|&x| x == 0.0),
                            "zeroed checkout saw dirty residue (thread {t}, iter {i})"
                        );
                        pool.recycle(v);
                    }
                }
            });
        }
    });
    assert_eq!(pool.stats().hits + pool.stats().misses, 6 * 300);
}
