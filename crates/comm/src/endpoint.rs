//! Per-rank progress engine: one dedicated thread servicing one-sided
//! active messages against the rank-local shard store.
//!
//! This mirrors the structure the paper attributes to both Global Arrays
//! (the data server answering `GET_HASH_BLOCK`/`ADD_HASH_BLOCK`) and
//! PaRSEC (the communication thread that lets transfers overlap with
//! computation): application threads *post* operations and continue; the
//! progress thread completes them, invoking completion callbacks that
//! feed the task runtime's dependency tracker.
//!
//! This module owns the [`Endpoint`] itself — configuration, counters,
//! the progress loop, frame dispatch, the retry sweep, puts and
//! accumulates, teardown. The state machines live beside it: the request
//! table in [`crate::call`], the get pipeline in [`crate::get`],
//! barriers in [`crate::barrier`], the failure detector in
//! [`crate::liveness`].
//!
//! Fault tolerance: the engine assumes only that the transport delivers
//! each frame *at most once* — frames may be lost, delayed, duplicated
//! or reordered (see [`crate::fault::FaultTransport`]). Every pending
//! operation carries a deadline; on expiry the progress thread
//! retransmits with capped exponential backoff. Mutating requests carry
//! a per-(sender, receiver) contiguous sequence number and the server
//! applies each at most once — so an accumulate is never double applied
//! even when a lost ack forces a resend. Late or duplicate completions
//! are counted no-ops, never panics.

use crate::am::Am;
use crate::barrier::BarrierState;
use crate::call::{AmHandler, Completion, PeerDedup, Pending};
use crate::get::GetPipe;
use crate::liveness::{FailureHandler, Liveness};
use crate::msg::{Msg, ReplyView};
use crate::transport::Transport;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xtrace::{ActivityKind, Trace, WorkerId};

/// Rank-local storage the progress engine services requests against.
/// Offsets are *global* element offsets; implementations translate to
/// their shard and must own the whole requested range (requesters split
/// ranges by owner before posting).
pub trait ShardStore: Send + Sync + 'static {
    /// Read `len` elements at global `offset`.
    fn read(&self, array: u32, offset: usize, len: usize) -> Vec<f64>;
    /// Overwrite with `data` at global `offset`.
    fn write(&self, array: u32, offset: usize, data: &[f64]);
    /// `shard[offset..] += alpha * data`, atomic w.r.t. other accumulates.
    fn accumulate(&self, array: u32, offset: usize, data: &[f64], alpha: f64);
}

/// Progress-engine tuning knobs.
#[derive(Debug, Clone)]
pub struct CommConfig {
    /// Maximum outstanding gets per target rank; further posts queue by
    /// destination block, priority breaking ties (default 4).
    pub max_inflight_gets: usize,
    /// Initial per-request retransmission timeout. Far above any healthy
    /// round trip (default 1 s), so fault-free runs never retry; chaos
    /// tests shrink it to keep recovery fast.
    pub retry_timeout: Duration,
    /// Ceiling of the exponential retransmission backoff (default 4 s).
    /// Retries continue indefinitely at this cadence — the fault model
    /// is transient loss, and termination comes from the transport
    /// eventually delivering, not from giving up.
    pub retry_backoff_max: Duration,
    /// Maximum queued gets packed into one `Get` frame when a freed
    /// in-flight slot drains the queue (default 8). `1` sends one part
    /// per frame.
    pub max_batch_parts: usize,
    /// Failure detector: a peer silent for this long turns *suspect* and
    /// gets pinged (liveness piggybacks on every received frame, so only
    /// idle links are probed). `None` — the default — disables the
    /// detector entirely: no per-peer bookkeeping, no pings, zero
    /// overhead on a healthy mesh.
    pub suspect_after: Option<Duration>,
    /// A suspect peer still silent after this much total silence is
    /// declared *dead*: every pending operation toward it aborts (gets
    /// complete with zeros, fences release, barriers over gangs
    /// containing it poison-release) and the registered
    /// [`FailureHandler`] fires. Must exceed `suspect_after` by enough
    /// ping round trips to keep false positives implausible.
    pub dead_after: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            max_inflight_gets: 4,
            retry_timeout: Duration::from_secs(1),
            retry_backoff_max: Duration::from_secs(4),
            max_batch_parts: 8,
            suspect_after: None,
            dead_after: Duration::from_secs(2),
        }
    }
}

/// Worker row used for communication spans in traces. Kept far above
/// compute worker indices so merged Gantt charts show a distinct
/// communication row per node.
const COMM_WORKER: u32 = 1000;

/// The counter table: one row per counter, from which the live atomics,
/// the public snapshot and the copy between them all derive.
macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident ),* $(,)?) => {
        /// Operation counters, all frames and payloads.
        #[derive(Debug, Default)]
        pub(crate) struct CommStats { $( pub(crate) $name: AtomicU64 ),* }

        /// Point-in-time copy of a rank's communication counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CommStatsSnap { $( $(#[$doc])* pub $name: u64 ),* }

        impl CommStats {
            fn snap(&self) -> CommStatsSnap {
                CommStatsSnap { $( $name: self.$name.load(Ordering::Relaxed) ),* }
            }
        }
    };
}

counters! {
    /// Frames sent (including control messages).
    msgs_tx,
    /// Encoded frame bytes sent / received.
    bytes_tx,
    bytes_rx,
    /// One-sided operations posted by this rank.
    gets,
    puts,
    accs,
    nxtvals,
    /// Payload transfers, counted where the data is sent (get reply
    /// parts on the server, puts/accs on the sender). Every payload
    /// rides in its first frame.
    eager_payloads,
    /// Always 0: kept only for perf's `comm.rndv_ratio` row.
    rndv_payloads,
    /// Pending-operation deadlines that expired (one per retransmission
    /// decision). Zero on a healthy network.
    timeouts,
    /// Request frames retransmitted after a timeout.
    retries,
    /// Duplicate requests this rank's server side detected and answered
    /// without re-applying (the idempotency dedup at work).
    dup_requests,
    /// Late or duplicate completions (replies/acks whose pending entry
    /// was already gone) absorbed as no-ops.
    dup_replies,
    /// Payload bytes requested by every posted get.
    get_req_bytes,
    /// Get payload bytes actually delivered off the wire; equals
    /// `get_req_bytes` once the pipeline drains.
    get_wire_bytes,
    /// `Get` frames sent carrying at least 2 parts, and the parts they
    /// carried. Batch occupancy is `multi_parts / multi_gets`.
    multi_gets,
    multi_parts,
    /// Steal requests this rank posted (thief side).
    steal_reqs,
    /// Chains this rank donated to thieves (victim side).
    steal_donated,
    /// Job status polls this rank posted (client side).
    job_polls,
    /// Suspicion episodes the failure detector opened (a peer fell
    /// silent past `suspect_after`). An idle-but-healthy link clears
    /// with one ping round trip.
    suspects,
    /// Peers this rank declared dead (silent past `dead_after`).
    confirmed_deaths,
    /// Frames from confirmed-dead peers dropped before dispatch (a
    /// death is final; see [`crate::liveness`]).
    fenced_rx,
    /// Pending operations aborted because their target died (gets
    /// completed with zeros, calls with their fallback, acks
    /// force-completed, collective waits poison-released, ...).
    aborted_ops,
    /// Trace spans and get latencies not kept because [`DIAG_CAP`] of
    /// them were already waiting for [`Endpoint::take_trace`] /
    /// [`Endpoint::take_latencies`].
    diag_dropped,
}

/// Trace spans, and separately get latencies, an endpoint keeps between
/// two takes: the first `DIAG_CAP` since the last take (half a MiB of
/// spans). A reader that drains after every run never reaches it — a
/// `dist2_medium` unit leaves a few hundred of each per rank — while a
/// daemon nobody drains would otherwise keep one span per request it
/// ever completed.
pub(crate) const DIAG_CAP: usize = 1 << 14;

/// Interned class ids of an endpoint trace. Interning is deterministic,
/// so the ids computed at spawn stay valid for every trace
/// [`Endpoint::take_trace`] swaps in.
pub(crate) struct TraceIds {
    /// Block transfers, indexed `[retransmitted]`.
    pub(crate) get: [u16; 2],
    pub(crate) put: [u16; 2],
    pub(crate) acc: [u16; 2],
    /// Call round trips, by AM id (`None`: not worth a span).
    pub(crate) am: Vec<Option<u16>>,
}

fn fresh_trace() -> (Trace, TraceIds) {
    let mut t = Trace::new();
    let mut pair = |name: &str| {
        [false, true].map(|retrans| {
            let suffix = if retrans { "_RETRY" } else { "" };
            t.class(&format!("{name}{suffix}"), ActivityKind::Comm { retrans })
        })
    };
    let (get, put, acc) = (pair("GET"), pair("PUT"), pair("ACC"));
    let am = Am::ALL
        .iter()
        .map(|am| am.spec().trace.map(|kind| t.class(am.spec().name, kind)))
        .collect();
    (t, TraceIds { get, put, acc, am })
}

pub(crate) struct Inner {
    pub(crate) transport: Box<dyn Transport>,
    pub(crate) store: Arc<dyn ShardStore>,
    pub(crate) cfg: CommConfig,
    pub(crate) rank: usize,
    pub(crate) nranks: usize,
    t0: Instant,
    pub(crate) token: AtomicU64,
    /// Next sequence number per target rank (mutating requests only);
    /// contiguity per pair is what lets the server compact its record.
    pub(crate) seq_tx: Vec<AtomicU64>,
    shutdown: AtomicBool,
    /// This rank's NXTVAL counter (served through [`Am::NxtVal`]).
    pub(crate) counter: Arc<AtomicI64>,
    /// The get pipeline's own table.
    pub(crate) gets: Mutex<GetPipe>,
    /// The one pending-request map: every in-flight call, put and
    /// accumulate this rank posted, by token.
    pub(crate) pending: Mutex<HashMap<u64, Pending>>,
    /// Server-side at-most-once records and recorded replies, one per
    /// requesting rank.
    pub(crate) dedup: Mutex<Vec<PeerDedup>>,
    /// Installed AM handlers, by AM id.
    pub(crate) handlers: Vec<Mutex<Option<AmHandler>>>,
    /// `None` when the failure detector is disabled (the default).
    pub(crate) liveness: Option<Mutex<Liveness>>,
    /// Confirmed-dead peers as a bitmask, readable lock-free from
    /// application threads (the daemon checks it after every run).
    pub(crate) dead_mask: AtomicU64,
    pub(crate) failure_handler: Mutex<Option<Arc<dyn FailureHandler>>>,
    /// Puts and accumulates not yet acknowledged (what `fence` awaits).
    pub(crate) outstanding: Mutex<u64>,
    pub(crate) fence_cv: Condvar,
    pub(crate) barrier: Mutex<BarrierState>,
    pub(crate) barrier_cv: Condvar,
    pub(crate) stats: Arc<CommStats>,
    pub(crate) get_lat: Mutex<Vec<u64>>,
    trace: Mutex<Trace>,
    pub(crate) ids: TraceIds,
}

/// A rank's communication endpoint: posts one-sided operations, owns the
/// progress thread, and collects statistics, latencies and trace spans.
pub struct Endpoint {
    pub(crate) inner: Arc<Inner>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Endpoint {
    /// Start the progress engine for one rank.
    ///
    /// # Panics
    /// If the transport spans more than 64 ranks (gang, liveness and
    /// barrier masks are `u64` bitmasks — a 65th rank would alias rank
    /// 0's bit) or reports a rank outside its own mesh.
    pub fn spawn(
        transport: Box<dyn Transport>,
        store: Arc<dyn ShardStore>,
        cfg: CommConfig,
    ) -> Arc<Self> {
        let (rank, nranks) = (transport.rank(), transport.nranks());
        assert!(
            nranks <= 64,
            "comm endpoints support at most 64 ranks (rank masks are u64), got {nranks}"
        );
        assert!(
            rank < nranks,
            "transport reports rank {rank} outside its {nranks}-rank mesh"
        );
        let (trace, ids) = fresh_trace();
        let inner = Arc::new(Inner {
            transport,
            store,
            rank,
            nranks,
            t0: Instant::now(),
            token: AtomicU64::new(1),
            seq_tx: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            counter: Arc::new(AtomicI64::new(0)),
            gets: Mutex::new(GetPipe::new(nranks)),
            pending: Mutex::new(HashMap::new()),
            dedup: Mutex::new((0..nranks).map(|_| PeerDedup::default()).collect()),
            handlers: Am::ALL.iter().map(|_| Mutex::new(None)).collect(),
            liveness: cfg.suspect_after.map(|_| Mutex::new(Liveness::new(nranks))),
            dead_mask: AtomicU64::new(0),
            failure_handler: Mutex::new(None),
            outstanding: Mutex::new(0),
            fence_cv: Condvar::new(),
            barrier: Mutex::new(BarrierState::default()),
            barrier_cv: Condvar::new(),
            stats: Arc::default(),
            get_lat: Mutex::new(Vec::new()),
            trace: Mutex::new(trace),
            ids,
            cfg,
        });
        let ep = Arc::new(Self {
            inner,
            thread: Mutex::new(None),
        });
        // The shared counter is the engine's own first client of `serve`.
        // Both handlers are in place before the progress thread starts:
        // a request it served in between would be answered with NXTVAL's
        // "no more work" fallback.
        let counter = ep.inner.counter.clone();
        ep.serve(
            Am::NxtVal,
            Some(Arc::new(move |_, _| {
                vec![counter.fetch_add(1, Ordering::Relaxed) as u64]
            })),
        );
        let counter = ep.inner.counter.clone();
        ep.serve(
            Am::Reset,
            Some(Arc::new(move |_, _| {
                counter.store(0, Ordering::Relaxed);
                Vec::new()
            })),
        );
        let worker = ep.inner.clone();
        let thread = std::thread::Builder::new()
            .name(format!("comm-progress-{rank}"))
            .spawn(move || {
                // A dead progress engine hangs every rank of the job
                // without symptoms; turn protocol violations into a loud,
                // immediate failure instead.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.progress_loop()))
                    .is_err()
                {
                    eprintln!("comm-progress-{rank}: protocol panic, aborting");
                    std::process::abort();
                }
            })
            .expect("spawn progress thread");
        *ep.thread.lock().expect("nothing else holds it yet") = Some(thread);
        ep
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Total ranks in the job.
    pub fn nranks(&self) -> usize {
        self.inner.nranks
    }

    /// The endpoint's time origin — engines adopt it so compute spans and
    /// communication spans share one timeline.
    pub fn epoch(&self) -> Instant {
        self.inner.t0
    }

    /// Blocking one-sided overwrite: returns once the target applied it.
    pub fn put(&self, peer: usize, array: u32, offset: usize, data: &[f64]) {
        self.inner.stats.puts.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.inner.write(peer, array, offset, data, None, Some(tx));
        rx.recv()
            .expect("a pending put completes or aborts, never vanishes");
    }

    /// Asynchronous one-sided accumulate; completion is observed through
    /// [`Endpoint::fence`].
    pub fn acc(&self, peer: usize, array: u32, offset: usize, data: &[f64], alpha: f64) {
        self.inner.stats.accs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .write(peer, array, offset, data, Some(alpha), None);
    }

    /// Block until every put/accumulate this rank posted has been applied
    /// and acknowledged by its target.
    pub fn fence(&self) {
        let i = &self.inner;
        let mut n = i.outstanding.lock().unwrap();
        while *n > 0 {
            n = i.fence_cv.wait(n).unwrap();
        }
    }

    /// Fence, then barrier: on return, every rank's writes are globally
    /// visible (the GA `sync` collective).
    pub fn sync(&self) {
        self.fence();
        self.barrier();
    }

    /// Fence, then a gang-scoped barrier: the job-scoped GA `sync`.
    /// The fence is rank-local (all of this rank's outstanding posts),
    /// which is conservative but correct when the rank serves several
    /// gangs.
    pub fn sync_gang(&self, gang: u64) {
        self.fence();
        self.barrier_gang(gang);
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CommStatsSnap {
        self.inner.stats.snap()
    }

    /// Drain the recorded get latencies (nanoseconds, post to data): the
    /// first [`DIAG_CAP`] since the last take.
    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.inner.get_lat.lock().unwrap())
    }

    /// Drain the communication trace (spans on this rank's comm row,
    /// relative to [`Endpoint::epoch`]): the first [`DIAG_CAP`] since
    /// the last take.
    pub fn take_trace(&self) -> Trace {
        std::mem::replace(&mut *self.inner.trace.lock().unwrap(), fresh_trace().0)
    }

    /// Stop the progress thread. Call only when no rank still needs this
    /// rank's shard (i.e. after a final barrier).
    ///
    /// A counter rank additionally drains barrier-release confirmations
    /// first, for every gang it leads: a peer whose release frame was
    /// lost recovers by re-sending its enter, which only works while the
    /// leader's progress thread is alive to answer. Tearing down before
    /// every member confirmed the newest release would strand such a
    /// peer in its final barrier forever. The drain is bounded so a
    /// crashed peer cannot pin the teardown.
    pub fn shutdown(&self) {
        let i = &self.inner;
        if !i.shutdown.load(Ordering::SeqCst) {
            i.drain_release_acks(Duration::from_secs(5));
        }
        i.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Inner {
    pub(crate) fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Send one encoded frame, counting it.
    pub(crate) fn send_frame(&self, to: usize, body: Vec<u8>) {
        self.stats.msgs_tx.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_tx
            .fetch_add(body.len() as u64, Ordering::Relaxed);
        self.transport.send(to, body);
    }

    pub(crate) fn post(&self, to: usize, msg: &Msg) {
        self.send_frame(to, msg.encode());
    }

    pub(crate) fn dup_reply(&self) {
        self.stats.dup_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a span on this rank's comm row, from `posted_ns` to now
    /// (unless [`DIAG_CAP`] spans already wait for a take).
    pub(crate) fn span(&self, class: u16, posted_ns: u64) {
        let row = WorkerId::new(self.rank as u32, COMM_WORKER);
        let now = self.now_ns();
        let mut trace = self.trace.lock().unwrap();
        if trace.spans().len() < DIAG_CAP {
            trace.push(row, class, posted_ns, now);
        } else {
            self.stats.diag_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Post a put (`alpha: None`) or accumulate as one request frame
    /// carrying its data.
    fn write(
        &self,
        peer: usize,
        array: u32,
        offset: usize,
        data: &[f64],
        alpha: Option<f64>,
        waiter: Option<mpsc::Sender<()>>,
    ) {
        let token = self.token.fetch_add(1, Ordering::Relaxed);
        let seq = self.seq_tx[peer].fetch_add(1, Ordering::Relaxed);
        let (offset, data) = (offset as u64, data.to_vec());
        let frame = match alpha {
            None => Msg::Put {
                token,
                seq,
                array,
                offset,
                data,
            },
            Some(alpha) => Msg::Acc {
                token,
                seq,
                array,
                offset,
                alpha,
                data,
            },
        }
        .encode();
        *self.outstanding.lock().unwrap() += 1;
        self.stats.eager_payloads.fetch_add(1, Ordering::Relaxed);
        let done = Completion::Write {
            acc: alpha.is_some(),
            waiter,
        };
        self.request(token, peer, frame, done);
    }

    fn progress_loop(self: Arc<Self>) {
        // Timeout scans are throttled: with the default 1 s retry window
        // the scan runs every 250 ms, so the fault-free fast path pays
        // one `Instant::now` comparison per frame.
        let scan_every = (self.cfg.retry_timeout / 4).max(Duration::from_millis(1));
        let mut last_scan = Instant::now();
        while !self.shutdown.load(Ordering::SeqCst) {
            if last_scan.elapsed() >= scan_every {
                self.check_timeouts();
                last_scan = Instant::now();
            }
            let Some((from, body)) = self.transport.recv_timeout(Duration::from_micros(200)) else {
                continue;
            };
            self.stats
                .bytes_rx
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            // Liveness piggybacks on every received frame; a frame from a
            // confirmed-dead peer is dropped undispatched.
            if from != self.rank && !self.note_rx(from) {
                continue;
            }
            // Get replies take the zero-copy path: each part is
            // delivered as a borrowed view of `body` and copied once,
            // straight into the reader's buffer.
            match Msg::reply_view(&body).expect("malformed frame") {
                Some(ReplyView { token, parts }) => self.finish_get(token, &parts),
                None => self.handle(from, Msg::decode(&body).expect("malformed frame")),
            }
        }
    }

    /// Retransmit every pending request whose deadline expired: one
    /// sweep each over the get table, the request table and the barrier
    /// state. Frames are collected under each lock and sent after
    /// release, so a slow transport write never blocks application
    /// threads posting ops.
    fn check_timeouts(&self) {
        // The failure detector runs first, so the sweeps below see
        // tables already purged of operations toward dead peers.
        self.check_liveness();
        let now = Instant::now();
        let mut resend: Vec<(usize, Vec<u8>)> = Vec::new();
        self.sweep_gets(now, &mut resend);
        self.sweep_requests(now, &mut resend);
        self.sweep_barriers(now, &mut resend);
        let n = resend.len() as u64;
        self.stats.timeouts.fetch_add(n, Ordering::Relaxed);
        self.stats.retries.fetch_add(n, Ordering::Relaxed);
        for (to, frame) in resend {
            self.send_frame(to, frame);
        }
    }

    /// Dispatch one decoded frame to the state machine that owns it.
    fn handle(&self, from: usize, msg: Msg) {
        match msg {
            // ---- serving side: requests against the local shard ----
            Msg::Get { token, parts } => self.serve_get(from, token, &parts),
            Msg::Put {
                token,
                seq,
                array,
                offset,
                data,
            } => {
                if self.dedup_fresh(from, seq) {
                    self.store.write(array, offset as usize, &data);
                }
                self.post(from, &Msg::Ack { token });
            }
            Msg::Acc {
                token,
                seq,
                array,
                offset,
                alpha,
                data,
            } => {
                // The dedup gate is what makes retry safe here: an
                // accumulate applied twice is silent numerical corruption.
                if self.dedup_fresh(from, seq) {
                    self.store.accumulate(array, offset as usize, &data, alpha);
                }
                self.post(from, &Msg::Ack { token });
            }
            Msg::Call {
                token,
                seq,
                am,
                words,
            } => self.serve_call(from, token, seq, am, &words),
            Msg::BarrierEnter {
                epoch,
                from: who,
                gang,
                words,
            } => self.on_barrier_enter(epoch, who, gang, words),
            Msg::Ping { token } => self.post(from, &Msg::Pong { token }),

            // ---- requesting side: completions of our own posts ----
            Msg::Ack { token } => self.finish_request(token, &[]),
            Msg::Return { token, words } => self.finish_request(token, &words),
            Msg::BarrierRelease { epoch, gang, words } => {
                self.on_barrier_release(epoch, gang, words)
            }
            Msg::BarrierAck {
                epoch,
                from: who,
                gang,
            } => self.on_barrier_ack(epoch, who, gang),
            // The pong's work was done by `note_rx` on arrival.
            Msg::Pong { .. } => {}
            Msg::GetReply { .. } => unreachable!("get replies are routed through reply_view"),
        }
    }
}
