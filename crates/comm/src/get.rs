//! The get pipeline: per-peer-throttled, queued, batched one-sided reads.
//!
//! Asynchronous gets are capped per target rank. Excess requests queue in
//! a heap that drains by destination block first — lowest `(array,
//! offset)` first, so consecutive pops hit adjacent blocks and a batch
//! frame stays spatially dense — and only then by the caller's task
//! priority, which breaks ties among reads of one block (then FIFO).
//! Under contention the wire therefore carries operands in block order,
//! not in the order the graph will need them: the paper's
//! `max_L1 - L1 + offset * P` priorities shape which *tasks* run and
//! post first, not the order a deep queue drains in. Every completed
//! frame frees a slot and launches the next queued requests toward that
//! rank, packed into one `Get` frame of up to `max_batch_parts` parts.
//! A lone read is the one-part case of the same frame: there is one
//! request shape, one reply shape and one retry unit.
//!
//! This is the one hot path that keeps its own table instead of riding
//! [`crate::call`]: replies are delivered zero-copy from the frame
//! buffer, slots and queue must move under the same lock as the pending
//! entries, and reads are idempotent so no dedup record is needed. It
//! shares the [`Retry`] deadline logic and the retry-sweep / dead-peer
//! abort hooks with the request table.

use crate::call::Retry;
use crate::endpoint::{Endpoint, Inner, DIAG_CAP};
use crate::msg::{GetSpec, Msg, WireSlice};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Instant;

/// Completion callback of an asynchronous get. The payload arrives as a
/// borrowed [`WireSlice`] — usually raw bytes still in the received
/// frame — so callbacks copy once, straight into their own buffer.
pub type GetCallback = Box<dyn FnOnce(WireSlice<'_>) + Send>;

/// Byte ceiling on one frame's total reply payload. The first part is
/// exempt, so one oversized read still travels, alone in its frame.
const MAX_BATCH_BYTES: usize = 256 * 1024;

/// One read, queued or riding a batch (the batch owns the retry).
struct PendingGet {
    peer: usize,
    posted_ns: u64,
    cb: GetCallback,
    spec: GetSpec,
}

/// One `Get` frame in flight: the sub-request tokens it carries (in
/// frame order) and its retry state. The batch is the retry unit — a
/// timeout resends the whole frame, a reply completes every sub.
struct PendingBatch {
    peer: usize,
    subs: Vec<u64>,
    retry: Retry,
    retries: u32,
}

/// Heap key of one queued get; `BinaryHeap` pops the greatest. Lowest
/// destination block `(array, offset)` drains first (so consecutive pops
/// hit adjacent blocks and batch frames stay spatially dense), then
/// highest priority, then FIFO — the last field is the pending entry's
/// token, and tokens are allocated in posting order.
type QueueKey = (Reverse<(u32, u64)>, i64, Reverse<u64>);

#[derive(Default)]
struct PeerGets {
    inflight: usize,
    queue: BinaryHeap<QueueKey>,
}

/// Requester-side state of every get queued or in flight. One lock, so a
/// reply retiring an entry, a slot being freed and the queue refilling it
/// can never be observed half-done.
pub(crate) struct GetPipe {
    pending: HashMap<u64, PendingGet>,
    batches: HashMap<u64, PendingBatch>,
    peers: Vec<PeerGets>,
}

impl GetPipe {
    pub(crate) fn new(nranks: usize) -> Self {
        Self {
            pending: HashMap::new(),
            batches: HashMap::new(),
            peers: (0..nranks).map(|_| PeerGets::default()).collect(),
        }
    }
}

impl Endpoint {
    /// Post an asynchronous get of `[offset, offset+len)` of `array` on
    /// `peer`'s shard. Under backpressure queued requests drain by
    /// destination block, `prio` breaking ties within one block; `cb`
    /// runs on the progress thread when the data arrives.
    pub fn get_async(
        &self,
        peer: usize,
        array: u32,
        offset: usize,
        len: usize,
        prio: i64,
        cb: GetCallback,
    ) {
        let i = &self.inner;
        i.stats.gets.fetch_add(1, Ordering::Relaxed);
        i.stats
            .get_req_bytes
            .fetch_add(len as u64 * 8, Ordering::Relaxed);
        let spec = GetSpec {
            array,
            offset: offset as u64,
            len: len as u64,
        };
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        {
            let mut g = i.gets.lock().unwrap();
            g.pending.insert(
                token,
                PendingGet {
                    peer,
                    posted_ns: i.now_ns(),
                    cb,
                    spec,
                },
            );
            let key = (Reverse((array, spec.offset)), prio, Reverse(token));
            g.peers[peer].queue.push(key);
        }
        i.pump(peer);
    }

    /// Blocking get (the legacy `GET_HASH_BLOCK` shape).
    pub fn get_blocking(&self, peer: usize, array: u32, offset: usize, len: usize) -> Vec<f64> {
        let (tx, rx) = mpsc::channel();
        self.get_async(
            peer,
            array,
            offset,
            len,
            i64::MAX,
            Box::new(move |data: WireSlice<'_>| {
                let _ = tx.send(data.to_vec());
            }),
        );
        rx.recv()
            .expect("a pending get completes or aborts, never vanishes")
    }
}

impl Inner {
    /// Drain `peer`'s get queue into its free in-flight slots. Each slot
    /// takes one `Get` frame of up to `max_batch_parts` queued requests.
    /// Consecutive pops are adjacent destination blocks, so the packed
    /// frame is spatially dense. Frames are sent after the lock is
    /// released.
    fn pump(&self, peer: usize) {
        let mut to_send: Vec<Msg> = Vec::new();
        {
            let mut guard = self.gets.lock().unwrap();
            let g = &mut *guard;
            let st = &mut g.peers[peer];
            while st.inflight < self.cfg.max_inflight_gets {
                // Collect one frame's worth of queued requests.
                let mut group: Vec<(u64, GetSpec)> = Vec::new();
                let mut bytes = 0usize;
                while group.len() < self.cfg.max_batch_parts.max(1) {
                    let Some(&(_, _, Reverse(token))) = st.queue.peek() else {
                        break;
                    };
                    let spec = g.pending[&token].spec;
                    let sz = spec.len as usize * 8;
                    if !group.is_empty() && bytes + sz > MAX_BATCH_BYTES {
                        break;
                    }
                    bytes += sz;
                    st.queue.pop();
                    group.push((token, spec));
                }
                if group.is_empty() {
                    break;
                }
                st.inflight += 1;
                if group.len() > 1 {
                    self.stats.multi_gets.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .multi_parts
                        .fetch_add(group.len() as u64, Ordering::Relaxed);
                }
                let token = self.token.fetch_add(1, Ordering::Relaxed);
                let (subs, parts) = group.into_iter().unzip();
                g.batches.insert(
                    token,
                    PendingBatch {
                        peer,
                        subs,
                        retry: Retry::new(&self.cfg),
                        retries: 0,
                    },
                );
                to_send.push(Msg::Get { token, parts });
            }
        }
        for msg in &to_send {
            self.post(peer, msg);
        }
    }

    /// Serve a `Get`: every part in one reply frame — the requester's
    /// batch byte cap bounds it. Reads are idempotent: a retransmitted
    /// request simply reads again, so no server state is kept.
    pub(crate) fn serve_get(&self, from: usize, token: u64, parts: &[GetSpec]) {
        let parts: Vec<Vec<f64>> = parts
            .iter()
            .map(|p| self.store.read(p.array, p.offset as usize, p.len as usize))
            .collect();
        self.stats
            .eager_payloads
            .fetch_add(parts.len() as u64, Ordering::Relaxed);
        self.post(from, &Msg::GetReply { token, parts });
    }

    /// Latency sample, wire-byte count and trace span of one delivered get.
    fn record_get(&self, pg: &PendingGet, retried: bool) {
        let mut lat = self.get_lat.lock().unwrap();
        if lat.len() < DIAG_CAP {
            lat.push(self.now_ns() - pg.posted_ns);
        } else {
            self.stats.diag_dropped.fetch_add(1, Ordering::Relaxed);
        }
        drop(lat);
        self.stats
            .get_wire_bytes
            .fetch_add(pg.spec.len * 8, Ordering::Relaxed);
        self.span(self.ids.get[retried as usize], pg.posted_ns);
    }

    /// Complete every sub-request of a `Get` frame from its one reply;
    /// the frame held one in-flight slot. A late or duplicate reply (the
    /// original racing its own retry) finds no batch: counted, dropped,
    /// and crucially *not* double-freeing the slot.
    pub(crate) fn finish_get(&self, token: u64, parts: &[WireSlice<'_>]) {
        let (batch, subs) = {
            let mut g = self.gets.lock().unwrap();
            let Some(batch) = g.batches.remove(&token) else {
                drop(g);
                return self.dup_reply();
            };
            assert_eq!(
                batch.subs.len(),
                parts.len(),
                "get reply part count mismatch"
            );
            // Subs complete (or abort) only together with their batch, so
            // each is still pending here.
            let subs: Vec<PendingGet> = batch
                .subs
                .iter()
                .map(|t| g.pending.remove(t).expect("batched get pending"))
                .collect();
            g.peers[batch.peer].inflight -= 1;
            (batch, subs)
        };
        for pg in &subs {
            self.record_get(pg, batch.retries > 0);
        }
        self.pump(batch.peer);
        for (pg, part) in subs.into_iter().zip(parts) {
            debug_assert_eq!(pg.spec.len as usize, part.len(), "part length mismatch");
            (pg.cb)(*part);
        }
    }

    /// The retry sweep over the get table. A batch retries as one unit:
    /// the whole frame is rebuilt from its (still pending) sub-requests
    /// and resent. Reads are idempotent, so a duplicated request is
    /// served again and its late reply absorbed as a counted duplicate.
    pub(crate) fn sweep_gets(&self, now: Instant, resend: &mut Vec<(usize, Vec<u8>)>) {
        let cap = self.cfg.retry_backoff_max;
        let mut guard = self.gets.lock().unwrap();
        let g = &mut *guard;
        for (&token, b) in g.batches.iter_mut() {
            if b.retry.due(now, cap) {
                b.retries += 1;
                let parts = b.subs.iter().map(|t| g.pending[t].spec).collect();
                resend.push((b.peer, Msg::Get { token, parts }.encode()));
            }
        }
    }

    /// Abort every get queued or in flight toward the dead peer `p`:
    /// each completes with a zeroed payload (its consumers are
    /// re-executed from the job spec on the survivors, never trusted).
    pub(crate) fn abort_gets(&self, p: usize) {
        let dead: Vec<PendingGet> = {
            let mut g = self.gets.lock().unwrap();
            g.batches.retain(|_, b| b.peer != p);
            g.peers[p].inflight = 0;
            g.peers[p].queue.clear();
            g.pending
                .extract_if(|_, pg| pg.peer == p)
                .map(|(_, pg)| pg)
                .collect()
        };
        self.stats
            .aborted_ops
            .fetch_add(dead.len() as u64, Ordering::Relaxed);
        for pg in dead {
            let zeros = vec![0.0f64; pg.spec.len as usize];
            (pg.cb)(WireSlice::F64(&zeros));
        }
    }
}
