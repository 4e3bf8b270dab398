//! Gang-scoped barriers: enter / release / ack against a counter on the
//! gang's leader rank, with both halves of release recovery (the leader
//! re-releases to unconfirmed members; a member whose release was lost
//! re-enters) and poison-release when a member dies.

use crate::call::Retry;
use crate::endpoint::{Endpoint, Inner};
use crate::msg::Msg;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The full-mesh gang mask: one bit per rank. This is the group the
/// plain [`Endpoint::barrier`] collective runs over; smaller masks name
/// job gangs (disjoint rank subsets running concurrently).
pub fn full_mask(nranks: usize) -> u64 {
    assert!(nranks <= 64, "gang masks hold at most 64 ranks");
    if nranks == 64 {
        u64::MAX
    } else {
        (1u64 << nranks) - 1
    }
}

/// The gang's leader: its lowest member rank, which hosts the barrier
/// counter (and the gang's NXTVAL counter / energy gather at the layers
/// above).
pub fn mask_leader(mask: u64) -> usize {
    debug_assert_ne!(mask, 0);
    mask.trailing_zeros() as usize
}

/// Member ranks of a gang mask, ascending.
pub fn mask_members(mask: u64) -> impl Iterator<Item = usize> {
    (0..64usize).filter(move |r| mask & (1u64 << r) != 0)
}

/// One rank group's barrier protocol state. Every gang mask gets its own
/// independent epoch chain and its own counter rank (the group leader),
/// so concurrent jobs on disjoint gangs never serialize through a shared
/// barrier counter.
#[derive(Default)]
pub(crate) struct BarrierGroup {
    next: u64,
    released: u64,
    /// Local barrier entries awaiting release, with retransmit state.
    enters: HashMap<u64, Retry>,
    /// Leader only: distinct ranks seen per pending epoch.
    entered: HashMap<u64, HashSet<u32>>,
    /// Leader only: highest epoch already released; a late re-entry for
    /// it means the release frame was lost — resend to that rank alone.
    last_released: u64,
    /// Leader only: the epoch of the newest release awaiting
    /// confirmation, and the ranks that acked it. The sweep re-releases
    /// to the unconfirmed rest, and shutdown drains the set before
    /// stopping the progress thread — otherwise a lost release strands
    /// its waiter against a counter rank that can no longer answer the
    /// retried enters.
    ack_epoch: u64,
    acked: HashSet<u32>,
    release_retry: Option<Retry>,
}

/// Barrier state across every gang this rank participates in (or counts
/// for), keyed by gang mask. The full-mesh mask reproduces the classic
/// single-counter protocol.
pub(crate) type BarrierState = HashMap<u64, BarrierGroup>;

impl Endpoint {
    /// Collective barrier over all ranks (counter on rank 0 — the
    /// full-mesh gang's leader).
    pub fn barrier(&self) {
        self.barrier_gang(full_mask(self.inner.nranks));
    }

    /// Collective barrier over the member ranks of `gang` (a bitmask);
    /// the counter lives on the gang's leader (lowest member). The
    /// calling rank must be a member. A single-member gang is already
    /// synchronized and returns immediately.
    pub fn barrier_gang(&self, gang: u64) {
        let i = &self.inner;
        debug_assert_ne!(
            gang & (1u64 << i.rank),
            0,
            "rank {} entered barrier of gang {gang:#b} it is not a member of",
            i.rank
        );
        if gang.count_ones() <= 1 {
            return;
        }
        let epoch = {
            let mut b = i.barrier.lock().unwrap();
            let g = b.entry(gang).or_default();
            g.next += 1;
            g.enters.insert(g.next, Retry::new(&i.cfg));
            g.next
        };
        let from = i.rank as u32;
        i.post(mask_leader(gang), &Msg::BarrierEnter { epoch, from, gang });
        let mut b = i.barrier.lock().unwrap();
        while b.get(&gang).map_or(0, |g| g.released) < epoch {
            b = i.barrier_cv.wait(b).unwrap();
        }
    }

    /// Barrier protocol snapshot for diagnostics: one row per gang
    /// group this rank has state for — `(gang mask, next, released,
    /// last_released, pending_enters, pending_counts)`. The counter
    /// fields (`last_released`, `pending_counts`) are meaningful on the
    /// gang's leader only.
    #[allow(clippy::type_complexity)]
    pub fn barrier_state(&self) -> Vec<(u64, u64, u64, u64, Vec<u64>, Vec<(u64, usize)>)> {
        let b = self.inner.barrier.lock().unwrap();
        let mut rows: Vec<_> = b
            .iter()
            .map(|(&mask, g)| {
                let mut enters: Vec<u64> = g.enters.keys().copied().collect();
                enters.sort_unstable();
                let mut entered: Vec<(u64, usize)> =
                    g.entered.iter().map(|(&e, s)| (e, s.len())).collect();
                entered.sort_unstable();
                (mask, g.next, g.released, g.last_released, enters, entered)
            })
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }
}

impl Inner {
    /// Shutdown's drain: wait (bounded, so a crashed peer cannot pin the
    /// teardown) until every member of every gang this rank leads has
    /// confirmed the newest release.
    pub(crate) fn drain_release_acks(&self, limit: Duration) {
        let deadline = Instant::now() + limit;
        let mut b = self.barrier.lock().unwrap();
        loop {
            let pending = b.iter().any(|(&mask, g)| {
                mask_leader(mask) == self.rank
                    && g.ack_epoch > 0
                    && g.acked.len() < mask.count_ones() as usize
            });
            if !pending || Instant::now() >= deadline {
                return;
            }
            b = self
                .barrier_cv
                .wait_timeout(b, Duration::from_millis(10))
                .unwrap()
                .0;
        }
    }

    /// Leader: rank `who` entered `epoch` of `gang`.
    pub(crate) fn on_barrier_enter(&self, epoch: u64, who: u32, gang: u64) {
        debug_assert_eq!(
            self.rank,
            mask_leader(gang),
            "barrier counter lives on the gang leader"
        );
        let release_to: Vec<usize> = {
            let mut b = self.barrier.lock().unwrap();
            let g = b.entry(gang).or_default();
            if epoch <= g.last_released {
                // Late retransmission: the release toward `who` was
                // lost. Re-release to that rank alone.
                self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                vec![who as usize]
            } else {
                let set = g.entered.entry(epoch).or_default();
                if !set.insert(who) {
                    self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                }
                if set.len() < gang.count_ones() as usize {
                    return;
                }
                g.entered.remove(&epoch);
                g.last_released = g.last_released.max(epoch);
                // Collectives are serialized per rank within a gang, so
                // any enter for a later epoch proves receipt of this
                // release: confirmation only ever needs to track the
                // newest epoch.
                g.ack_epoch = epoch;
                g.acked.clear();
                g.release_retry = Some(Retry::new(&self.cfg));
                mask_members(gang).collect()
            }
        };
        for r in release_to {
            self.post(r, &Msg::BarrierRelease { epoch, gang });
        }
    }

    /// Member: the leader released `epoch` of `gang`.
    pub(crate) fn on_barrier_release(&self, epoch: u64, gang: u64) {
        {
            let mut b = self.barrier.lock().unwrap();
            let g = b.entry(gang).or_default();
            g.released = g.released.max(epoch);
            let released = g.released;
            g.enters.retain(|&e, _| e > released);
            self.barrier_cv.notify_all();
        }
        // Confirm receipt (duplicates re-confirm): the counter rank
        // re-releases until every member acked and holds its teardown on
        // the set, so a lost release frame cannot strand a waiter after
        // the leader exits.
        let from = self.rank as u32;
        self.post(mask_leader(gang), &Msg::BarrierAck { epoch, from, gang });
    }

    /// Leader: rank `who` confirmed the release of `epoch`.
    pub(crate) fn on_barrier_ack(&self, epoch: u64, who: u32, gang: u64) {
        debug_assert_eq!(
            self.rank,
            mask_leader(gang),
            "barrier counter lives on the gang leader"
        );
        let mut b = self.barrier.lock().unwrap();
        if let Some(g) = b.get_mut(&gang) {
            // Acks for superseded epochs are moot: entering a later
            // barrier already proved the earlier release arrived.
            if epoch == g.ack_epoch {
                g.acked.insert(who);
                if g.acked.len() == gang.count_ones() as usize {
                    g.release_retry = None;
                    // Wake a shutdown drain awaiting confirmation.
                    self.barrier_cv.notify_all();
                }
            }
        }
    }

    /// The retry sweep over barrier state: re-send expired enters, and —
    /// on a counter rank — re-release the newest epoch to every member
    /// that has not confirmed receipt yet (the forward half of release
    /// recovery; the late-enter path is the reactive half).
    pub(crate) fn sweep_barriers(&self, now: Instant, resend: &mut Vec<(usize, Vec<u8>)>) {
        let cap = self.cfg.retry_backoff_max;
        let from = self.rank as u32;
        for (&gang, g) in self.barrier.lock().unwrap().iter_mut() {
            let leader = mask_leader(gang);
            let released = g.released;
            for (&epoch, r) in g.enters.iter_mut() {
                if epoch > released && r.due(now, cap) {
                    resend.push((leader, Msg::BarrierEnter { epoch, from, gang }.encode()));
                }
            }
            let unconfirmed = leader == self.rank
                && g.ack_epoch > 0
                && g.acked.len() < gang.count_ones() as usize;
            if unconfirmed && g.release_retry.as_mut().is_some_and(|r| r.due(now, cap)) {
                let epoch = g.ack_epoch;
                let frame = Msg::BarrierRelease { epoch, gang }.encode();
                for who in mask_members(gang).filter(|&w| !g.acked.contains(&(w as u32))) {
                    resend.push((who, frame.clone()));
                }
            }
        }
    }

    /// Poison-release the local waiters of every barrier over a gang
    /// containing the dead peer `p`; each such gang with a collective
    /// pending counts as one aborted operation.
    pub(crate) fn abort_barriers(&self, p: usize) {
        let mut b = self.barrier.lock().unwrap();
        let mut poisoned = 0;
        for (_, g) in b.iter_mut().filter(|(&gang, _)| gang & (1u64 << p) != 0) {
            let pending = g.released < g.next || !g.enters.is_empty() || !g.entered.is_empty();
            if !pending {
                continue;
            }
            poisoned += 1;
            g.released = g.next;
            g.enters.clear();
            g.entered.clear();
            g.release_retry = None;
            // Forget release confirmations too: the dead member will
            // never ack, and shutdown's drain must not wait on it.
            g.ack_epoch = 0;
            g.acked.clear();
        }
        if poisoned > 0 {
            self.stats
                .aborted_ops
                .fetch_add(poisoned, Ordering::Relaxed);
            self.barrier_cv.notify_all();
        }
    }
}
