//! Multi-rank message-passing transport with one-sided Global-Array
//! semantics and an asynchronous, batched prefetch pipeline.
//!
//! The paper's execution model needs exactly three things from the wire:
//! one-sided block access (`GET`/`PUT`/`ACC` against block-distributed
//! arrays), a shared work counter (`NXTVAL`), and collectives (`SYNC`).
//! This crate provides them over one byte transport,
//! [`socket::SocketTransport`]: a TCP mesh with length-prefixed frames,
//! each one `writev`, over nonblocking sockets that the progress thread
//! alone polls and reads. A mesh spans processes
//! ([`SocketTransport::connect`]) or lives inside one
//! ([`SocketTransport::mesh`]), which is how tests run every rank as
//! threads of one binary over the same wire.
//!
//! Each rank runs an [`Endpoint`] whose progress thread services active
//! messages against the rank-local [`ShardStore`]; it is the rank's only
//! communication thread. The engine is five small state machines around
//! that thread:
//!
//! * [`call`] — the request table. One generic primitive,
//!   [`Endpoint::call`] / [`Endpoint::serve`], carries every control
//!   active message (the [`am`] table: NXTVAL, steals, job control) and
//!   puts/accumulates: one pending-request map, one recorded-reply map
//!   per peer, so sequence numbers, timeout-retry, at-most-once apply,
//!   "a duplicate re-receives the recorded reply" and abort toward a
//!   dead peer are each written once.
//! * [`get`] — the read pipeline. Asynchronous gets are throttled per
//!   peer, queued by destination block (task priority only breaks ties
//!   within one block) and batched into `Get` frames of one or more
//!   parts, each answered by one `GetReply` carrying every part.
//!
//! There is one payload protocol: data rides in the first frame that
//! can carry it — a put or accumulate in its request, a read in its
//! reply — so every transfer is one frame each way.
//! * [`barrier`] — the gang-scoped enter/release/ack collective: an
//!   allgather of a few words per member
//!   ([`Endpoint::allgather_gang`]), of which a barrier is the
//!   empty-payload case.
//! * [`liveness`] — the failure detector and the poison-abort it drives.
//! * [`endpoint`] — the progress loop, dispatch and the retry sweep.
//!
//! The wire format is one table of message kinds ([`msg`]). The protocol
//! tolerates frame loss, delay, duplication and reordering, and
//! [`fault::FaultTransport`] injects exactly those faults from a seeded
//! schedule so chaos tests can prove the engine recovers.

pub mod am;
pub mod barrier;
pub mod call;
pub mod endpoint;
pub mod fault;
pub mod get;
pub mod liveness;
pub mod msg;
pub mod socket;
pub mod transport;

pub use am::{
    Am, AmSpec, JobHandler, StatusCallback, StealCallback, StealHandler, SubmitCallback,
    JOB_REJECTED,
};
pub use barrier::{full_mask, mask_leader, mask_members};
pub use call::{AmHandler, CallCallback};
pub use endpoint::{CommConfig, CommStatsSnap, Endpoint, ShardStore};
pub use fault::{FaultCounters, FaultEvent, FaultPlan, FaultTransport, SplitMix64};
pub use get::GetCallback;
pub use liveness::FailureHandler;
pub use msg::{CodecError, GetSpec, Msg, ReplyView, WireSlice};
pub use socket::SocketTransport;
pub use transport::Transport;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// A trivial shard store: each array is one flat local vector.
    struct MemStore {
        arrays: Vec<Mutex<Vec<f64>>>,
    }

    impl MemStore {
        fn new(sizes: &[usize]) -> Arc<Self> {
            Arc::new(Self {
                arrays: sizes.iter().map(|&n| Mutex::new(vec![0.0; n])).collect(),
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

    #[allow(clippy::type_complexity)]
    fn pair() -> (Arc<Endpoint>, Arc<Endpoint>, Arc<MemStore>, Arc<MemStore>) {
        let mut t = SocketTransport::mesh(2).unwrap();
        let t1 = t.pop().unwrap();
        let t0 = t.pop().unwrap();
        let s0 = MemStore::new(&[64, 8192]);
        let s1 = MemStore::new(&[64, 8192]);
        let e0 = Endpoint::spawn(Box::new(t0), s0.clone(), CommConfig::default());
        let e1 = Endpoint::spawn(Box::new(t1), s1.clone(), CommConfig::default());
        (e0, e1, s0, s1)
    }

    #[test]
    fn every_large_payload_costs_one_frame_each_way() {
        let (e0, e1, _s0, s1) = pair();
        // 64 KiB payloads: the data rides in the request (put, acc) or
        // the reply (get), answered by one frame from the target.
        let big: Vec<f64> = (0..8192).map(|i| i as f64).collect();
        let frames = || (e0.stats().msgs_tx, e1.stats().msgs_tx);
        let cost = |op: &dyn Fn()| {
            let (p0, p1) = frames();
            op();
            let (n0, n1) = frames();
            (n0 - p0, n1 - p1)
        };
        assert_eq!(cost(&|| e0.put(1, 1, 0, &big)), (1, 1), "put");
        assert_eq!(s1.arrays[1].lock().unwrap().clone(), big);
        let acc = || {
            e0.acc(1, 1, 0, &big, 1.0);
            e0.fence();
        };
        assert_eq!(cost(&acc), (1, 1), "acc + fence");
        let twice: Vec<f64> = big.iter().map(|x| 2.0 * x).collect();
        let get = || assert_eq!(e0.get_blocking(1, 1, 0, big.len()), twice);
        assert_eq!(cost(&get), (1, 1), "lone get");
        // Payloads are counted where the data is sent: e0 sent the put
        // and the acc, e1 the get reply.
        let (s0, s1) = (e0.stats(), e1.stats());
        assert_eq!((s0.puts, s0.accs, s0.gets), (1, 1, 1));
        assert_eq!((s0.eager_payloads, s1.eager_payloads), (2, 1));
        // A lone read is a one-part frame, not a batch.
        assert_eq!((s0.multi_gets, s0.multi_parts), (0, 0));
    }

    #[test]
    fn accumulate_and_fence() {
        let (e0, e1, _s0, s1) = pair();
        e0.acc(1, 0, 0, &[1.0, 1.0], 2.0);
        e0.acc(1, 0, 1, &[10.0], 1.0);
        e0.fence();
        assert_eq!(e1.get_blocking(1, 0, 0, 2), vec![2.0, 12.0]);
        assert_eq!(s1.arrays[0].lock().unwrap()[..2], [2.0, 12.0]);
    }

    #[test]
    fn nxtval_is_a_single_shared_counter() {
        let (e0, e1, _s0, _s1) = pair();
        // Both ranks draw from rank 0's counter: all values distinct.
        let mut seen: Vec<i64> = (0..4).flat_map(|_| [e0.nxtval(0), e1.nxtval(0)]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<i64>>());
        e1.nxtval_reset(0);
        assert_eq!(e0.nxtval(0), 0);
    }

    #[test]
    fn barrier_releases_all_ranks() {
        let (e0, e1, _s0, _s1) = pair();
        let h = std::thread::spawn(move || {
            e1.barrier();
            e1.barrier();
        });
        e0.barrier();
        e0.barrier();
        h.join().unwrap();
    }

    /// Post 8 single-element gets — the `i`-th at `offset(i)` with
    /// priority `i` — and report the priorities in completion order
    /// (first element is the un-queued head-start launch).
    fn drain_order(cfg: CommConfig, offset: fn(usize) -> usize) -> (Arc<Endpoint>, Vec<i64>) {
        let mut t = SocketTransport::mesh(2).unwrap();
        let t1 = t.pop().unwrap();
        let t0 = t.pop().unwrap();
        let e0 = Endpoint::spawn(Box::new(t0), MemStore::new(&[256]), cfg);
        let order = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicUsize::new(0));
        for p in 0..8usize {
            let (order, done) = (order.clone(), done.clone());
            e0.get_async(
                1,
                0,
                offset(p),
                1,
                p as i64,
                Box::new(move |_: WireSlice<'_>| {
                    order.lock().unwrap().push(p as i64);
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        // Rank 1 starts serving only now: the head-start get waits in
        // its socket until all eight are posted, so the other seven are
        // queued behind it however slowly this thread posts them.
        let _e1 = Endpoint::spawn(Box::new(t1), MemStore::new(&[256]), CommConfig::default());
        while done.load(Ordering::SeqCst) < 8 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let order = order.lock().unwrap().clone();
        (e0, order)
    }

    #[test]
    fn priority_breaks_ties_within_one_block() {
        // Cap of 1, no batching, every get aimed at the same block: the
        // queued gets must complete highest-priority-first.
        let (e0, order) = drain_order(
            CommConfig {
                max_inflight_gets: 1,
                max_batch_parts: 1,
                ..CommConfig::default()
            },
            |_| 5,
        );
        // After the head-start launch, everything queued drains in strict
        // descending priority.
        assert_eq!(order[1..], [7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(e0.take_latencies().len(), 8);
        let trace = e0.take_trace();
        assert_eq!(trace.spans().len(), 8);
    }

    #[test]
    fn queue_drains_by_destination_block() {
        // Distinct blocks: the queue drains by ascending (array, offset),
        // priority demoted to tie-break.
        let (e0, order) = drain_order(
            CommConfig {
                max_inflight_gets: 1,
                max_batch_parts: 1,
                ..CommConfig::default()
            },
            |p| p,
        );
        assert_eq!(order[1..], [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(e0.take_latencies().len(), 8);
    }

    #[test]
    fn queued_gets_batch_into_multi_frames() {
        // Cap of 1 with batching: the 7 queued gets drain as one
        // 7-part Get frame when the head-start get's slot frees.
        let (e0, order) = drain_order(
            CommConfig {
                max_inflight_gets: 1,
                max_batch_parts: 8,
                ..CommConfig::default()
            },
            |p| p,
        );
        assert_eq!(order[1..], [1, 2, 3, 4, 5, 6, 7]);
        let s = e0.stats();
        assert_eq!(s.multi_gets, 1, "one batch frame expected");
        assert_eq!(s.multi_parts, 7, "all queued gets packed into it");
        assert_eq!(e0.take_latencies().len(), 8);
        assert_eq!(e0.take_trace().spans().len(), 8);
    }

    #[test]
    fn undrained_diagnostics_stop_at_the_cap() {
        let mut t = SocketTransport::mesh(2).unwrap();
        let t1 = t.pop().unwrap();
        let t0 = t.pop().unwrap();
        let e0 = Endpoint::spawn(Box::new(t0), MemStore::new(&[256]), CommConfig::default());
        let _e1 = Endpoint::spawn(Box::new(t1), MemStore::new(&[256]), CommConfig::default());
        let gets = |n: usize| {
            let done = Arc::new(AtomicUsize::new(0));
            for i in 0..n {
                let done = done.clone();
                e0.get_async(
                    1,
                    0,
                    i % 256,
                    1,
                    0,
                    Box::new(move |_: WireSlice<'_>| {
                        done.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
            while done.load(Ordering::SeqCst) < n {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        // Nobody drains: the first DIAG_CAP spans and latencies are kept,
        // the rest only counted.
        gets(endpoint::DIAG_CAP + 5);
        assert_eq!(e0.take_latencies().len(), endpoint::DIAG_CAP);
        assert_eq!(e0.take_trace().spans().len(), endpoint::DIAG_CAP);
        assert_eq!(e0.stats().diag_dropped, 10);
        // A take makes room again.
        gets(3);
        assert_eq!(e0.take_latencies().len(), 3);
        assert_eq!(e0.take_trace().spans().len(), 3);
        assert_eq!(e0.stats().diag_dropped, 10);
    }

    #[test]
    fn identical_gets_each_complete_with_their_own_transfer() {
        let mut t = SocketTransport::mesh(2).unwrap();
        let t1 = t.pop().unwrap();
        let t0 = t.pop().unwrap();
        let s1 = MemStore::new(&[256]);
        s1.arrays[0].lock().unwrap()[5] = 55.0;
        let e0 = Endpoint::spawn(
            Box::new(t0),
            MemStore::new(&[256]),
            CommConfig {
                max_inflight_gets: 1,
                ..CommConfig::default()
            },
        );
        let _e1 = Endpoint::spawn(Box::new(t1), s1, CommConfig::default());
        // One slot, so the identical gets sit queued together — and still
        // each completes once (deduplicating readers is `ga::cache`'s job).
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = done.clone();
            e0.get_async(
                1,
                0,
                5,
                1,
                0,
                Box::new(move |data: WireSlice<'_>| {
                    assert_eq!(data.to_vec(), vec![55.0]);
                    done.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        while done.load(Ordering::SeqCst) < 4 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = e0.stats();
        assert_eq!(s.gets, 4);
        assert_eq!(s.get_req_bytes, 4 * 8);
        assert_eq!(s.get_wire_bytes, s.get_req_bytes, "requested = delivered");
    }

    #[test]
    #[should_panic(expected = "at most 64 ranks")]
    fn more_than_64_ranks_is_rejected() {
        // Rank masks are u64: rank 64 would alias rank 0's liveness and
        // barrier bit, so the endpoint refuses the mesh outright. Only
        // the mesh's size is read, so no wire stands behind it.
        struct SixtyFive;
        impl Transport for SixtyFive {
            fn rank(&self) -> usize {
                0
            }
            fn nranks(&self) -> usize {
                65
            }
            fn send(&self, _: usize, _: Vec<u8>) {}
            fn recv_timeout(&self, _: std::time::Duration) -> Option<(usize, Vec<u8>)> {
                None
            }
        }
        Endpoint::spawn(
            Box::new(SixtyFive),
            MemStore::new(&[1]),
            CommConfig::default(),
        );
    }
}
