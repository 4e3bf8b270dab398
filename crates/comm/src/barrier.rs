//! Gang-scoped collectives: enter / release / ack against a counter on
//! the gang's leader rank, with both halves of release recovery (the
//! leader re-releases to unconfirmed members; a member whose release was
//! lost re-enters) and poison-release when a member dies.
//!
//! The one collective is an allgather of a few words per member
//! ([`Endpoint::allgather_gang`]): an enter carries its member's words,
//! the leader records them per `(epoch, rank)`, and the release hands
//! every member the whole set in member order. A barrier is the
//! empty-payload case, so retry, late-enter re-release, the ack drain
//! and the poison path exist once.

use crate::call::Retry;
use crate::endpoint::{Endpoint, Inner};
use crate::msg::Msg;
use std::collections::btree_map::{BTreeMap, Entry};
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

/// The gang's leader: its lowest member rank, which hosts the collective
/// counter (and, at the layers above, the gang's NXTVAL counter; it is
/// also the one member that reports the reduced energy).
pub fn mask_leader(mask: u64) -> usize {
    debug_assert_ne!(mask, 0);
    mask.trailing_zeros() as usize
}

/// Member ranks of a gang mask, ascending.
pub fn mask_members(mask: u64) -> impl Iterator<Item = usize> {
    (0..64usize).filter(move |r| mask & (1u64 << r) != 0)
}

/// Whether `rank` is a member of `gang` (false for ranks no mask can
/// name, so a corrupt frame cannot overflow the shift).
fn is_member(gang: u64, rank: u32) -> bool {
    rank < 64 && gang & (1u64 << rank) != 0
}

/// One rank group's barrier protocol state. Every gang mask gets its own
/// independent epoch chain and its own counter rank (the group leader),
/// so concurrent jobs on disjoint gangs never serialize through a shared
/// barrier counter.
#[derive(Default)]
pub(crate) struct BarrierGroup {
    next: u64,
    released: u64,
    /// Local entries awaiting release: retransmit state and the words
    /// this rank contributed (a re-sent enter carries them again).
    enters: HashMap<u64, (Retry, Vec<u64>)>,
    /// Payloads of releases received for epochs this rank was waiting
    /// in, until the waiter takes them. A poisoned epoch never gets one.
    gathered: HashMap<u64, Vec<Vec<u64>>>,
    /// Leader only: the words of each distinct rank seen per pending
    /// epoch (ordered by rank, which is the release's member order).
    entered: HashMap<u64, BTreeMap<u32, Vec<u64>>>,
    /// Leader only: highest epoch already released and the words that
    /// release carried; a late re-entry for it means the release frame
    /// was lost — resend the *recorded* words to that rank alone.
    last_released: u64,
    released_words: Vec<Vec<u64>>,
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

    /// Collective barrier over the member ranks of `gang` (a bitmask):
    /// an [`Endpoint::allgather_gang`] nobody contributes to. Returns on
    /// a poisoned epoch too (the caller's next operation toward the dead
    /// member aborts on its own).
    pub fn barrier_gang(&self, gang: u64) {
        self.allgather_gang(gang, &[]);
    }

    /// Collective allgather over the member ranks of `gang` (a bitmask):
    /// every member contributes `words` and receives every member's
    /// contribution, in ascending member-rank order, once all have
    /// entered. The counter lives on the gang's leader (lowest member).
    /// `None` means the epoch was poison-released because a member died
    /// — the set would be missing that member's share. A single-member
    /// gang is already synchronized and gets its own words back without
    /// touching the wire.
    ///
    /// # Panics
    /// If the calling rank is not a member of `gang`: its enter would
    /// count toward the gang's size and release the real members early.
    pub fn allgather_gang(&self, gang: u64, words: &[u64]) -> Option<Vec<Vec<u64>>> {
        let i = &self.inner;
        assert!(
            is_member(gang, i.rank as u32),
            "rank {} entered a collective of gang {gang:#b} it is not a member of",
            i.rank
        );
        if gang.count_ones() == 1 {
            return Some(vec![words.to_vec()]);
        }
        let (from, words) = (i.rank as u32, words.to_vec());
        let epoch = {
            let mut b = i.barrier.lock().unwrap();
            let g = b.entry(gang).or_default();
            g.next += 1;
            g.enters.insert(g.next, (Retry::new(&i.cfg), words.clone()));
            g.next
        };
        let enter = Msg::BarrierEnter {
            epoch,
            from,
            gang,
            words,
        };
        i.post(mask_leader(gang), &enter);
        let mut b = i.barrier.lock().unwrap();
        loop {
            let g = b.get_mut(&gang).expect("group created on entry");
            if g.released >= epoch {
                return g.gathered.remove(&epoch);
            }
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

    /// Whether this rank counts for `gang` and `who` is one of its
    /// members. A frame failing this is dropped and counted: a
    /// non-member's enter would otherwise count toward the gang's size
    /// and release the real members one short.
    fn leads(&self, gang: u64, who: u32) -> bool {
        let ok = gang != 0 && mask_leader(gang) == self.rank && is_member(gang, who);
        if !ok {
            self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Leader: rank `who` entered `epoch` of `gang`, contributing `words`.
    pub(crate) fn on_barrier_enter(&self, epoch: u64, who: u32, gang: u64, words: Vec<u64>) {
        if !self.leads(gang, who) {
            return;
        }
        let (release_to, words): (Vec<usize>, _) = {
            let mut b = self.barrier.lock().unwrap();
            let g = b.entry(gang).or_default();
            let release_to = if epoch <= g.last_released {
                self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                if epoch < g.last_released {
                    // Collectives are serialized per rank within a gang:
                    // `who` entered a later epoch since, so it has this
                    // release already and the frame is a stale duplicate.
                    return;
                }
                // Late retransmission: the release toward `who` was
                // lost. Re-release to that rank alone, with the words
                // the first release carried.
                vec![who as usize]
            } else {
                let set = g.entered.entry(epoch).or_default();
                match set.entry(who) {
                    // A retransmitted enter: the first one's words stand.
                    Entry::Occupied(_) => {
                        self.stats.dup_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(words);
                    }
                }
                if set.len() < gang.count_ones() as usize {
                    return;
                }
                let set = g.entered.remove(&epoch).expect("just filled");
                g.released_words = set.into_values().collect();
                g.last_released = epoch;
                // Collectives are serialized per rank within a gang, so
                // any enter for a later epoch proves receipt of this
                // release: confirmation only ever needs to track the
                // newest epoch.
                g.ack_epoch = epoch;
                g.acked.clear();
                g.release_retry = Some(Retry::new(&self.cfg));
                mask_members(gang).collect()
            };
            (release_to, g.released_words.clone())
        };
        let frame = Msg::BarrierRelease { epoch, gang, words }.encode();
        for r in release_to {
            self.send_frame(r, frame.clone());
        }
    }

    /// Member: the leader released `epoch` of `gang` with every member's
    /// `words`.
    pub(crate) fn on_barrier_release(&self, epoch: u64, gang: u64, words: Vec<Vec<u64>>) {
        if !is_member(gang, self.rank as u32) {
            self.dup_reply();
            return;
        }
        {
            let mut b = self.barrier.lock().unwrap();
            let g = b.entry(gang).or_default();
            // Only the first release of an epoch this rank still waits
            // in delivers its payload; duplicates and releases of a
            // poisoned epoch just re-confirm below.
            if g.enters.remove(&epoch).is_some() {
                g.gathered.insert(epoch, words);
            }
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
        if !self.leads(gang, who) {
            return;
        }
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
            for (&epoch, (r, words)) in g.enters.iter_mut() {
                if epoch > released && r.due(now, cap) {
                    let words = words.clone();
                    let enter = Msg::BarrierEnter {
                        epoch,
                        from,
                        gang,
                        words,
                    };
                    resend.push((leader, enter.encode()));
                }
            }
            let unconfirmed = leader == self.rank
                && g.ack_epoch > 0
                && g.acked.len() < gang.count_ones() as usize;
            if unconfirmed && g.release_retry.as_mut().is_some_and(|r| r.due(now, cap)) {
                // An unconfirmed release is the newest one, whose words
                // are the recorded ones.
                let (epoch, words) = (g.ack_epoch, g.released_words.clone());
                let frame = Msg::BarrierRelease { epoch, gang, words }.encode();
                for who in mask_members(gang).filter(|&w| !g.acked.contains(&(w as u32))) {
                    resend.push((who, frame.clone()));
                }
            }
        }
    }

    /// Poison-release this rank's waiter in every collective over a gang
    /// containing the dead peer `p`; each waiter released counts as one
    /// aborted operation (once per gang: collectives are serialized per
    /// rank within one). The waiter finds no gathered words and reports
    /// the epoch poisoned.
    pub(crate) fn abort_barriers(&self, p: usize) {
        let mut b = self.barrier.lock().unwrap();
        let mut poisoned = 0;
        for (_, g) in b.iter_mut().filter(|(&gang, _)| gang & (1u64 << p) != 0) {
            // A set the dead member can never complete. (Survivors
            // refill it with retransmitted enters until their own
            // detectors fire; those are not this rank's operations.)
            g.entered.clear();
            // Forget release confirmations too, even of a barrier that
            // already released: the dead member will never ack, so the
            // leader must not re-release to it forever, and shutdown's
            // drain must not wait on it.
            g.release_retry = None;
            g.ack_epoch = 0;
            g.acked.clear();
            if g.released == g.next {
                continue;
            }
            poisoned += 1;
            g.released = g.next;
            g.enters.clear();
        }
        if poisoned > 0 {
            self.stats
                .aborted_ops
                .fetch_add(poisoned, Ordering::Relaxed);
            self.barrier_cv.notify_all();
        }
    }
}
