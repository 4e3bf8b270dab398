//! The request table: one generic request/reply primitive under every
//! non-get operation.
//!
//! Client side, [`Endpoint::call`] (and the put/acc posters) insert one
//! [`Pending`] entry into the single pending-request map; it moves
//!
//! ```text
//! posted --deadline--> retried (capped backoff, same frame) --+
//!    |                    |                                   |
//!    +--- Return / Ack ---+--> completed   (callback, once)   |
//!    +--- peer declared dead --> aborted   (AM's fallback) <--+
//! ```
//!
//! and a reply finding no entry is a counted no-op. Server side,
//! [`Endpoint::serve`] installs one handler per AM; sequenced requests
//! pass the per-peer [`PeerDedup`] gate, which runs each `(peer, seq)` at
//! most once and keeps the reply so a retransmitted duplicate re-receives
//! it verbatim. Sequence numbers, timeout-retry, at-most-once apply,
//! recorded replies, their GC and abort-toward-a-dead-peer are written
//! here once, for NXTVAL, steals, job control, puts and accumulates
//! alike.

use crate::am::Am;
use crate::endpoint::{CommConfig, Endpoint, Inner};
use crate::msg::Msg;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Completion callback of an [`Endpoint::call`]: the reply words, or the
/// AM's fallback when the peer died. Runs on the progress thread.
pub type CallCallback = Box<dyn FnOnce(&[u64]) + Send>;

/// Server side of one AM: `(calling rank, argument words) -> reply
/// words`. Runs on the progress thread; for a sequenced AM it must be
/// transactional, because the reply is recorded as the call's outcome.
pub type AmHandler = Arc<dyn Fn(usize, &[u64]) -> Vec<u64> + Send + Sync>;

/// Deadline state of one retryable in-flight request.
pub(crate) struct Retry {
    deadline: Instant,
    backoff: Duration,
}

impl Retry {
    pub(crate) fn new(cfg: &CommConfig) -> Self {
        Self {
            deadline: Instant::now() + cfg.retry_timeout,
            backoff: cfg.retry_timeout,
        }
    }

    /// If the deadline passed, double the (capped) backoff, re-arm, and
    /// report that a retransmission is due.
    pub(crate) fn due(&mut self, now: Instant, cap: Duration) -> bool {
        if now < self.deadline {
            return false;
        }
        self.backoff = (self.backoff * 2).min(cap);
        self.deadline = now + self.backoff;
        true
    }
}

/// What finishing a request means to its poster.
pub(crate) enum Completion {
    /// A `call`: hand the reply words to the callback.
    Call(Am, CallCallback),
    /// A put or accumulate: counted by `fence`, optionally blocking its
    /// poster.
    Write {
        acc: bool,
        waiter: Option<mpsc::Sender<()>>,
    },
}

/// One in-flight non-get request.
pub(crate) struct Pending {
    peer: usize,
    /// Frame retransmitted on timeout: the whole request.
    frame: Vec<u8>,
    retry: Retry,
    retries: u32,
    posted_ns: u64,
    done: Completion,
}

/// Recorded replies this many seqs below the contiguous watermark are
/// garbage-collected — without this, a persistent daemon rank grows its
/// records forever. A record is only consulted by a *duplicate* of a
/// request whose original was already applied; its sender retransmits
/// until the reply lands, so a consult arriving after the same peer has
/// had thousands of *later* mutating requests applied would mean a frame
/// delivered implausibly late. Such a frame now aborts loudly (the
/// `expect` at the consult site) instead of being answered wrongly.
const RECORD_RETAIN: u64 = 4096;

/// Server-side at-most-once record for one requesting peer. Sequence
/// numbers per (sender, receiver) pair are allocated contiguously and
/// every one is retransmitted until acknowledged, so the applied set
/// compacts to a watermark plus the out-of-order frontier.
#[derive(Default)]
pub(crate) struct PeerDedup {
    /// Every seq below this has been applied.
    contig: u64,
    /// Applied seqs at or above `contig`, compacted as the prefix fills.
    seen: BTreeSet<u64>,
    /// Reply words of sequenced calls by seq, retained so a duplicate
    /// re-receives what its original was answered (puts and accumulates
    /// are answered by a bare ack and record nothing).
    replies: HashMap<u64, Vec<u64>>,
    /// Everything below this floor has been garbage-collected from
    /// `replies`.
    gc_floor: u64,
}

impl PeerDedup {
    /// Record `seq`; `false` when it was already applied (duplicate).
    fn fresh(&mut self, seq: u64) -> bool {
        if seq < self.contig || self.seen.contains(&seq) {
            return false;
        }
        self.seen.insert(seq);
        while self.seen.remove(&self.contig) {
            self.contig += 1;
        }
        let floor = self.contig.saturating_sub(RECORD_RETAIN);
        if floor >= self.gc_floor + RECORD_RETAIN {
            // Amortized: one O(records) sweep per RECORD_RETAIN applied
            // seqs keeps the map bounded by ~2 retention windows.
            self.replies.retain(|&s, _| s >= floor);
            self.gc_floor = floor;
        }
        true
    }
}

impl Endpoint {
    /// Run active message `am` on `peer` with argument `words`.
    /// Non-blocking: `cb` runs exactly once on the progress thread, with
    /// the reply — or with the AM's declared fallback if `peer` is
    /// declared dead first. The request is retransmitted until answered;
    /// a sequenced AM is nevertheless executed at most once.
    pub fn call(&self, peer: usize, am: Am, words: Vec<u64>, cb: CallCallback) {
        let i = &self.inner;
        let token = i.token.fetch_add(1, Ordering::Relaxed);
        let seq = if am.spec().sequenced {
            i.seq_tx[peer].fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let msg = Msg::Call {
            token,
            seq,
            am,
            words,
        };
        i.request(token, peer, msg.encode(), Completion::Call(am, cb));
    }

    /// [`Endpoint::call`], parking the calling thread until the reply.
    pub fn call_blocking(&self, peer: usize, am: Am, words: Vec<u64>) -> Vec<u64> {
        let (tx, rx) = mpsc::channel();
        self.call(
            peer,
            am,
            words,
            Box::new(move |w| {
                let _ = tx.send(w.to_vec());
            }),
        );
        rx.recv()
            .expect("a pending call completes or aborts, never vanishes")
    }

    /// Install (or clear) the handler answering `am` on this rank. With
    /// none installed, calls are answered with the AM's fallback.
    pub fn serve(&self, am: Am, handler: Option<AmHandler>) {
        *self.inner.handlers[am as usize].lock().unwrap() = handler;
    }
}

impl Inner {
    /// Enter one request into the pending map and put it on the wire.
    pub(crate) fn request(&self, token: u64, peer: usize, frame: Vec<u8>, done: Completion) {
        self.pending.lock().unwrap().insert(
            token,
            Pending {
                peer,
                frame: frame.clone(),
                retry: Retry::new(&self.cfg),
                retries: 0,
                posted_ns: self.now_ns(),
                done,
            },
        );
        self.send_frame(peer, frame);
    }

    /// A `Return` or `Ack` arrived: retire its request. A late or
    /// duplicate reply finds no entry and is a counted no-op.
    pub(crate) fn finish_request(&self, token: u64, words: &[u64]) {
        let entry = self.pending.lock().unwrap().remove(&token);
        match entry {
            Some(p) => self.complete(p, Some(words)),
            None => self.dup_reply(),
        }
    }

    /// Deliver a request's outcome: `Some(reply)`, or `None` when it was
    /// aborted toward a dead peer. Runs with no engine lock held.
    fn complete(&self, p: Pending, reply: Option<&[u64]>) {
        match p.done {
            Completion::Call(am, cb) => {
                if let (Some(class), Some(_)) = (self.ids.am[am as usize], reply) {
                    self.span(class, p.posted_ns);
                }
                cb(reply.unwrap_or(am.spec().fallback));
            }
            Completion::Write { acc, waiter } => {
                if reply.is_some() {
                    let pair = if acc { self.ids.acc } else { self.ids.put };
                    self.span(pair[(p.retries > 0) as usize], p.posted_ns);
                }
                let mut n = self.outstanding.lock().unwrap();
                *n -= 1;
                if *n == 0 {
                    self.fence_cv.notify_all();
                }
                drop(n);
                if let Some(w) = waiter {
                    let _ = w.send(());
                }
            }
        }
    }

    /// The retry sweep over the pending map: collect the frame of every
    /// request whose deadline expired.
    pub(crate) fn sweep_requests(&self, now: Instant, resend: &mut Vec<(usize, Vec<u8>)>) {
        let cap = self.cfg.retry_backoff_max;
        for p in self.pending.lock().unwrap().values_mut() {
            if p.retry.due(now, cap) {
                p.retries += 1;
                resend.push((p.peer, p.frame.clone()));
            }
        }
    }

    /// Abort every request pending toward the dead peer `p`: calls
    /// complete with their AM's fallback, put/acc posters are released
    /// and the fence count decremented. The seq gaps the aborted
    /// mutating requests leave are tolerated by the server's
    /// out-of-order dedup frontier.
    pub(crate) fn abort_requests(&self, p: usize) {
        let dead: Vec<Pending> = {
            let mut pending = self.pending.lock().unwrap();
            pending
                .extract_if(|_, e| e.peer == p)
                .map(|(_, e)| e)
                .collect()
        };
        self.stats
            .aborted_ops
            .fetch_add(dead.len() as u64, Ordering::Relaxed);
        for e in dead {
            self.complete(e, None);
        }
    }

    /// Record `seq` from `from` as applied; `false` on a duplicate.
    pub(crate) fn dedup_fresh(&self, from: usize, seq: u64) -> bool {
        let fresh = self.dedup.lock().unwrap()[from].fresh(seq);
        if !fresh {
            self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Serve one `Call`: run the AM's handler — at most once per
    /// `(from, seq)` when sequenced — and return the reply.
    pub(crate) fn serve_call(&self, from: usize, token: u64, seq: u64, am: Am, words: &[u64]) {
        let spec = am.spec();
        assert!(
            words.len() >= spec.arity,
            "malformed {} call from rank {from}: {} word(s)",
            spec.name,
            words.len()
        );
        let run = || {
            let h = self.handlers[am as usize].lock().unwrap().clone();
            h.map_or_else(|| spec.fallback.to_vec(), |h| h(from, words))
        };
        let reply = if spec.sequenced {
            // Freshness check, execution and record form one step under
            // the lock: a seq is never marked applied without its reply.
            let mut dedup = self.dedup.lock().unwrap();
            let d = &mut dedup[from];
            if d.fresh(seq) {
                let reply = run();
                d.replies.insert(seq, reply.clone());
                reply
            } else {
                self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                d.replies
                    .get(&seq)
                    .expect("duplicate call older than the recorded-reply window")
                    .clone()
            }
        } else {
            // Idempotent: a retransmitted request simply asks again.
            run()
        };
        self.post(
            from,
            &Msg::Return {
                token,
                words: reply,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_compacts_and_collects_old_records() {
        let mut d = PeerDedup::default();
        // Out of order, then the gap fills: the frontier compacts.
        assert!(d.fresh(1) && d.fresh(2) && !d.fresh(2));
        assert_eq!((d.contig, d.seen.len()), (0, 2));
        assert!(d.fresh(0) && !d.fresh(1));
        assert_eq!((d.contig, d.seen.len()), (3, 0));
        // Records older than the retention window are collected; recent
        // ones survive for their duplicates.
        for s in 3..3 * RECORD_RETAIN {
            assert!(d.fresh(s));
            d.replies.insert(s, vec![s]);
        }
        assert!(d.replies.len() as u64 <= 2 * RECORD_RETAIN);
        assert!(!d.replies.contains_key(&3));
        assert_eq!(d.replies[&(3 * RECORD_RETAIN - 1)], [3 * RECORD_RETAIN - 1]);
    }
}
