//! The failure detector: piggybacked liveness, suspicion, ping, death
//! verdicts and poison-abort toward the dead.
//!
//! A death is final. Once a peer is confirmed dead it stays in
//! [`Endpoint::dead_mask`] for the endpoint's lifetime: nobody probes it
//! again, and any frame it still manages to send is dropped before
//! dispatch (counted in `fenced_rx`). A rank that comes back has missed
//! collective epochs and holds a stale shard, so readmitting it would
//! hang the next barrier or serve wrong data; recovery is re-execution
//! on the survivors instead.

use crate::barrier::mask_members;
use crate::endpoint::{Endpoint, Inner};
use crate::msg::Msg;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observer of failure-detector verdicts. Registered per endpoint (the
/// `svc` layer installs one on the gateway rank to fence dead ranks and
/// requeue their jobs). Callbacks run on the progress thread, after the
/// detector has already aborted every pending operation toward the rank
/// — so the handler may post new operations but must not block on
/// collectives.
pub trait FailureHandler: Send + Sync {
    /// `rank` was silent past [`crate::CommConfig::dead_after`] and is
    /// now confirmed dead. Its bit is already set in
    /// [`Endpoint::dead_mask`].
    fn on_death(&self, rank: usize);
}

/// Failure-detector bookkeeping, allocated only when
/// [`crate::CommConfig::suspect_after`] is set. Liveness is piggybacked:
/// any received frame from a peer refreshes `last_rx`, so pings only
/// flow on links that have gone quiet.
pub(crate) struct Liveness {
    /// Last receive instant per peer (own index unused).
    last_rx: Vec<Instant>,
    /// Peers inside an open suspicion episode (counted once per episode).
    suspect: Vec<bool>,
    /// Last probe instant per peer, rate-limiting pings across scans.
    last_ping: Vec<Instant>,
}

impl Liveness {
    pub(crate) fn new(nranks: usize) -> Self {
        let now = Instant::now();
        Self {
            last_rx: vec![now; nranks],
            suspect: vec![false; nranks],
            // Far past, so the first suspicion pings immediately.
            last_ping: vec![now - Duration::from_secs(3600); nranks],
        }
    }
}

impl Endpoint {
    /// Register the failure-detector observer. Verdicts fire on the
    /// progress thread; see [`FailureHandler`]. A no-op (verdicts are
    /// still tracked in [`Endpoint::dead_mask`] and the counters) when
    /// no handler is installed.
    pub fn set_failure_handler(&self, h: Arc<dyn FailureHandler>) {
        *self.inner.failure_handler.lock().unwrap() = Some(h);
    }

    /// Bitmask of peers this rank's detector has confirmed dead (empty
    /// when the detector is disabled). Bits are only ever set.
    pub fn dead_mask(&self) -> u64 {
        self.inner.dead_mask.load(Ordering::SeqCst)
    }
}

impl Inner {
    /// Record a received frame from `from` in the failure detector:
    /// refresh its liveness and close any open suspicion episode.
    /// Returns `false` — drop the frame undispatched — when `from` is
    /// confirmed dead. Always `true` with the detector disabled.
    pub(crate) fn note_rx(&self, from: usize) -> bool {
        let Some(lv) = &self.liveness else {
            return true;
        };
        if self.dead_mask.load(Ordering::SeqCst) & (1u64 << from) != 0 {
            self.stats.fenced_rx.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut lv = lv.lock().unwrap();
        lv.last_rx[from] = Instant::now();
        lv.suspect[from] = false;
        true
    }

    /// The failure-detector scan, sharing `check_timeouts`'s throttle.
    /// Silence past `suspect_after` opens a suspicion episode and pings
    /// the peer; silence past `dead_after` confirms death: the dead-mask
    /// bit is published, everything pending toward the peer aborts, and
    /// the failure handler fires (after every engine lock is released).
    /// Dead peers are skipped: they are never pinged again.
    pub(crate) fn check_liveness(&self) {
        let (Some(lv), Some(suspect_after)) = (&self.liveness, self.cfg.suspect_after) else {
            return;
        };
        let now = Instant::now();
        let ping_every = (suspect_after / 2).max(Duration::from_millis(1));
        let mut pings: Vec<usize> = Vec::new();
        let mut deaths: Vec<usize> = Vec::new();
        {
            let mut lv = lv.lock().unwrap();
            let dead = self.dead_mask.load(Ordering::SeqCst);
            for p in (0..self.nranks).filter(|&p| p != self.rank && dead & (1u64 << p) == 0) {
                let silent = now.duration_since(lv.last_rx[p]);
                if silent >= self.cfg.dead_after {
                    lv.suspect[p] = false;
                    deaths.push(p);
                } else if silent >= suspect_after {
                    if !lv.suspect[p] {
                        lv.suspect[p] = true;
                        self.stats.suspects.fetch_add(1, Ordering::Relaxed);
                    }
                    if now.duration_since(lv.last_ping[p]) >= ping_every {
                        lv.last_ping[p] = now;
                        pings.push(p);
                    }
                }
            }
            for &p in &deaths {
                self.dead_mask.fetch_or(1u64 << p, Ordering::SeqCst);
                self.stats.confirmed_deaths.fetch_add(1, Ordering::Relaxed);
            }
        }
        for &p in &pings {
            let token = self.token.fetch_add(1, Ordering::Relaxed);
            self.post(p, &Msg::Ping { token });
        }
        // Abort toward every *currently* dead peer, not just the newly
        // deceased: operations posted after the verdict are swept up by
        // the next scan instead of retrying forever.
        for p in mask_members(self.dead_mask.load(Ordering::SeqCst)) {
            self.abort_toward(p);
        }
        if !deaths.is_empty() {
            let h = self.failure_handler.lock().unwrap().clone();
            if let Some(h) = h {
                for &p in &deaths {
                    h.on_death(p);
                }
            }
        }
    }

    /// Abort every pending operation targeting the dead peer `p`, so the
    /// application threads blocked on them unblock and the layers above
    /// decide what to replay: gets complete with zeroed payloads,
    /// requests with their fallback (put/acc posters are released and
    /// the fence count decremented; a call's callback receives its AM's
    /// declared sentinel — `i64::MAX` for NXTVAL, a dry grant,
    /// `JOB_REJECTED`, state 0), and every barrier over a gang
    /// containing `p` poison-releases its local waiters. Every aborted
    /// operation is counted in `aborted_ops`; callbacks run with no
    /// engine lock held.
    fn abort_toward(&self, p: usize) {
        self.abort_gets(p);
        self.abort_requests(p);
        self.abort_barriers(p);
    }
}
