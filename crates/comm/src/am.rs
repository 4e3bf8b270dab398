//! The control active messages: one table declaring every AM, and the
//! typed entry points the layers above use — each a few-line
//! encoder/decoder over [`Endpoint::call`] / [`Endpoint::serve`], a
//! *client* of the request table in [`crate::call`], not an arm inside
//! it. Arguments and replies travel as `u64` words.

use crate::call::AmHandler;
use crate::endpoint::Endpoint;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xtrace::ActivityKind;

/// Sentinel job id: "assign me one" in a submit request, and "no service
/// listening / rejected" in its reply.
pub const JOB_REJECTED: u64 = u64::MAX;

/// Static properties of one active message.
#[derive(Debug)]
pub struct AmSpec {
    /// Trace class name of the round trip.
    pub name: &'static str,
    /// Mutating: the call carries a per-peer sequence number, the server
    /// runs it at most once and records the reply for retransmitted
    /// duplicates. Idempotent AMs are simply run again.
    pub sequenced: bool,
    /// Fewest argument words a well-formed call carries.
    pub arity: usize,
    /// The reply when nobody can answer: the peer was declared dead
    /// mid-call, or no handler is installed on it.
    pub fallback: &'static [u64],
    /// Kind of the trace span recorded per completed round trip, if the
    /// AM is worth one.
    pub trace: Option<ActivityKind>,
}

/// The AM table: `Id = name, sequenced, arity, fallback, trace;` — one
/// row per active message, its wire id being its position.
macro_rules! active_messages {
    ($( $(#[$doc:meta])* $am:ident = $name:literal, $seq:literal, $arity:literal, $fallback:expr, $trace:expr; )*) => {
        /// Identifies one control active message (the `am` byte of a
        /// [`crate::Msg::Call`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Am { $( $(#[$doc])* $am ),* }

        impl Am {
            /// Every AM, indexed by wire id.
            pub const ALL: &'static [Am] = &[$(Am::$am),*];
            const SPECS: &'static [AmSpec] = &[$(AmSpec {
                name: $name,
                sequenced: $seq,
                arity: $arity,
                fallback: $fallback,
                trace: $trace,
            }),*];
        }
    };
}

active_messages! {
    /// Fetch-and-add on the target's NXTVAL counter; replies `[value]`.
    /// The fallback `i64::MAX` reads as "no more work".
    NxtVal = "NXTVAL", true, 0, &[i64::MAX as u64], None;
    /// Reset the target's NXTVAL counter to zero; empty reply.
    Reset = "NXTVAL_RESET", true, 0, &[], None;
    /// `[epoch, limit]`: donate up to `limit` ready chains of collective
    /// run `epoch`; replies the chain ids. Mutating — the grant removes
    /// chains from the victim's ledger, and granting twice would execute
    /// a chain twice. The fallback is a dry grant.
    Steal = "STEAL", true, 2, &[], Some(ActivityKind::Steal);
    /// `[job_id, spec...]`: enqueue a job; replies `[job_id]`. A
    /// duplicate must not enqueue (and bill) the job twice.
    Submit = "JOB_SUBMIT", true, 1, &[JOB_REJECTED], Some(ActivityKind::Job);
    /// `[job_id]`: poll a job; replies `[state, result bits]`. Read-only:
    /// re-asking can only return a fresher answer. The fallback is state
    /// 0, unknown.
    Status = "JOB_STATUS", false, 1, &[0, 0], None;
    /// `[job_id, result bits]`: a member rank reports local completion;
    /// empty reply. A duplicate must not double-count the report.
    JobDone = "JOB_DONE", true, 2, &[], Some(ActivityKind::Job);
}

impl Am {
    /// The AM with wire id `id`, if the table declares one.
    pub fn from_id(id: u8) -> Option<Am> {
        Self::ALL.get(id as usize).copied()
    }

    /// This AM's row of the table.
    pub fn spec(self) -> &'static AmSpec {
        &Self::SPECS[self as usize]
    }
}

/// Completion callback of a [`Endpoint::steal_async`]: the donated chain
/// indices (empty when the victim was dry). Runs on the progress thread.
pub type StealCallback = Box<dyn FnOnce(Vec<u64>) + Send>;

/// Server side of the cross-rank steal protocol: the runtime registers
/// one of these per run, and the progress thread calls `donate` when a
/// steal request arrives. The grant must be transactional — chains
/// returned here are *gone* from the local pool, because the reply (and
/// the recorded re-reply a retransmission gets) is the thief's title to
/// execute them.
pub trait StealHandler: Send + Sync {
    /// Donate up to `limit` ready chains to `thief`, or empty when dry or
    /// when `epoch` names a different collective run than the current one.
    fn donate(&self, thief: usize, epoch: u64, limit: u32) -> Vec<u64>;
}

/// Completion callback of an [`Endpoint::submit_async`]: the job id the
/// gateway assigned ([`JOB_REJECTED`] when no service was listening).
/// Runs on the progress thread.
pub type SubmitCallback = Box<dyn FnOnce(u64) + Send>;

/// Completion callback of an [`Endpoint::job_status_async`]: the
/// service-defined state code and result bits. Runs on the progress
/// thread.
pub type StatusCallback = Box<dyn FnOnce(u8, u64) + Send>;

/// Server side of the job service protocol: the `svc` layer registers
/// one of these per daemon, and the progress thread calls into it when
/// job control AMs arrive. Like [`StealHandler::donate`], `submit` must
/// be transactional — the id returned here is recorded against the
/// request's sequence number, and a retransmitted submit re-receives it
/// without a second enqueue.
pub trait JobHandler: Send + Sync {
    /// A job submission arrived from `from`. `job_id == JOB_REJECTED`
    /// asks this rank (the gateway) to admit the spec and assign an id;
    /// a concrete id is a gateway dispatch fixing the job's collective
    /// execution ordinal on this member rank (echo it back). Returns the
    /// id to acknowledge.
    fn submit(&self, from: usize, job_id: u64, spec: &[u64]) -> u64;
    /// Status poll: `(state code, result bits)` for `job_id`. Read-only.
    fn status(&self, job_id: u64) -> (u8, u64);
    /// Member rank `from` reports local completion of `job_id` with its
    /// result bits. Called at most once per report (dedup-gated).
    fn done(&self, from: usize, job_id: u64, result: u64);
}

impl Endpoint {
    /// `NXTVAL`: fetch-and-add on `owner`'s counter shard. Owner-local
    /// calls short-circuit to the atomic.
    pub fn nxtval(&self, owner: usize) -> i64 {
        let i = &self.inner;
        i.stats.nxtvals.fetch_add(1, Ordering::Relaxed);
        if owner == i.rank {
            return i.counter.fetch_add(1, Ordering::Relaxed);
        }
        self.call_blocking(owner, Am::NxtVal, Vec::new())[0] as i64
    }

    /// Reset `owner`'s NXTVAL counter; returns once applied. Callers
    /// must order this against in-flight `nxtval`s themselves (the legacy
    /// model separates work levels with barriers).
    pub fn nxtval_reset(&self, owner: usize) {
        if owner == self.inner.rank {
            self.inner.counter.store(0, Ordering::Relaxed);
        } else {
            self.call_blocking(owner, Am::Reset, Vec::new());
        }
    }

    /// Install (or clear) the handler that answers incoming steal
    /// requests. Cleared between runs; requests arriving with no handler
    /// installed are answered dry.
    pub fn set_steal_handler(&self, h: Option<Arc<dyn StealHandler>>) {
        let stats = self.inner.stats.clone();
        self.serve(
            Am::Steal,
            h.map(|h| -> AmHandler {
                Arc::new(move |thief, w| {
                    let chains = h.donate(thief, w[0], w[1] as u32);
                    stats
                        .steal_donated
                        .fetch_add(chains.len() as u64, Ordering::Relaxed);
                    chains
                })
            }),
        );
    }

    /// Ask `victim` to donate up to `limit` ready chains from collective
    /// run `epoch`. Non-blocking: `cb` runs on the progress thread with
    /// the granted chains (empty = dry).
    pub fn steal_async(&self, victim: usize, epoch: u64, limit: u32, cb: StealCallback) {
        assert_ne!(victim, self.inner.rank, "steal targets a remote rank");
        self.inner.stats.steal_reqs.fetch_add(1, Ordering::Relaxed);
        self.call(
            victim,
            Am::Steal,
            vec![epoch, limit as u64],
            Box::new(move |chains| cb(chains.to_vec())),
        );
    }

    /// Install (or clear) the handler that answers incoming job control
    /// AMs. Submissions arriving with no handler installed are answered
    /// [`JOB_REJECTED`]; status polls answer state 0.
    pub fn set_job_handler(&self, h: Option<Arc<dyn JobHandler>>) {
        let on = |f: fn(&dyn JobHandler, usize, &[u64]) -> Vec<u64>| {
            h.clone()
                .map(|h| -> AmHandler { Arc::new(move |from, w| f(&*h, from, w)) })
        };
        self.serve(
            Am::Submit,
            on(|h, from, w| vec![h.submit(from, w[0], &w[1..])]),
        );
        self.serve(
            Am::Status,
            on(|h, _, w| {
                let (state, result) = h.status(w[0]);
                vec![state as u64, result]
            }),
        );
        self.serve(
            Am::JobDone,
            on(|h, from, w| {
                h.done(from, w[0], w[1]);
                Vec::new()
            }),
        );
    }

    /// Submit a word-encoded job spec to `gateway`'s service. Pass
    /// [`JOB_REJECTED`] as `job_id` to have the gateway assign one (the
    /// tenant-facing submit), or a concrete id to dispatch an admitted
    /// job to a member rank. Non-blocking: `cb` runs on the progress
    /// thread with the acknowledged id.
    pub fn submit_async(&self, gateway: usize, job_id: u64, spec: Vec<u64>, cb: SubmitCallback) {
        let mut words = Vec::with_capacity(1 + spec.len());
        words.push(job_id);
        words.extend(spec);
        self.call(gateway, Am::Submit, words, Box::new(move |w| cb(w[0])));
    }

    /// Poll `gateway` for the state of `job_id`. Non-blocking: `cb` runs
    /// on the progress thread with `(state, result bits)`.
    pub fn job_status_async(&self, gateway: usize, job_id: u64, cb: StatusCallback) {
        self.inner.stats.job_polls.fetch_add(1, Ordering::Relaxed);
        self.call(
            gateway,
            Am::Status,
            vec![job_id],
            Box::new(move |w| cb(w[0] as u8, w[1])),
        );
    }

    /// Report this rank's local completion of `job_id` (with result
    /// bits) to `gateway`. Fire-and-forget: retried until acknowledged,
    /// dedup-gated so the gateway counts the report exactly once.
    pub fn job_done_async(&self, gateway: usize, job_id: u64, result: u64) {
        self.call(gateway, Am::JobDone, vec![job_id, result], Box::new(|_| {}));
    }
}
