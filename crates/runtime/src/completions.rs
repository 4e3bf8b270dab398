//! How a task's completion reaches the engine, and what the engine counts
//! of it.
//!
//! A body that returns its outputs, or finishes its own
//! [`ptg::Completion`] before returning (a read whose data was local), is
//! settled by the worker that ran it: the second case goes through this
//! thread's inline slot ([`arm_inline`] / [`disarm_inline`]). Any other
//! completion — finished on a comm progress thread, or by a body running
//! some other task (a cache fill serving its waiters) — is *mailed*: it
//! lands in the mailbox of the worker that ran the task, and any worker
//! may drain it.
//!
//! Nothing here writes a line two workers share while tasks settle
//! inline. Each worker hands its bodies completions through its own
//! [`WorkerSink`], so the sink's refcount lives on a line only that worker
//! writes; the mailboxes and their `queued` count are touched only by
//! mailed completions; and the counts the termination scan needs —
//! bodies that deferred, arrivals drained — are per-worker [`Tally`]s,
//! published by their owner before it idles and summed only by the scan.

use crate::shard::IdleGate;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use ptg::{CompletionSink, Payload, TaskKey};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One mailed completion: the finished task and its output payloads.
pub(crate) type Arrival = (TaskKey, Vec<Option<Payload>>);

/// The engine's per-worker mailboxes, shared with whatever finishes
/// deferred tasks.
pub(crate) struct Completions {
    mailboxes: Vec<CachePadded<Mutex<Vec<Arrival>>>>,
    /// Arrivals pushed and not yet drained. Exact on the producer side,
    /// so a starved worker's all-empty check is one read instead of a
    /// lock per mailbox; written only by mailed completions.
    queued: CachePadded<AtomicU64>,
    gate: Arc<IdleGate>,
}

impl Completions {
    /// Mailboxes for `workers` workers, waking parked ones through `gate`.
    pub(crate) fn new(workers: usize, gate: Arc<IdleGate>) -> Arc<Self> {
        Arc::new(Self {
            mailboxes: (0..workers)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            queued: CachePadded::new(AtomicU64::new(0)),
            gate,
        })
    }

    /// Worker `index`'s sink: bodies it runs complete through this.
    pub(crate) fn sink(self: &Arc<Self>, index: usize) -> Arc<dyn CompletionSink> {
        Arc::new(WorkerSink {
            completions: self.clone(),
            index,
        })
    }

    /// Take one mailbox's arrivals — worker `index`'s own first, then the
    /// others, so no arrival waits on a busy worker. Empty when nothing
    /// is queued.
    pub(crate) fn take(&self, index: usize) -> Vec<Arrival> {
        // A push racing this load is not lost: the producer notifies the
        // gate after counting, so the arrival is seen on the next turn or
        // wakes a parked worker.
        if self.queued.load(Ordering::SeqCst) == 0 {
            return Vec::new();
        }
        let n = self.mailboxes.len();
        for off in 0..n {
            let batch = std::mem::take(&mut *self.mailboxes[(index + off) % n].lock());
            if !batch.is_empty() {
                self.queued.fetch_sub(batch.len() as u64, Ordering::SeqCst);
                return batch;
            }
        }
        Vec::new()
    }

    fn push(&self, index: usize, arrival: Arrival) {
        self.mailboxes[index].lock().push(arrival);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.gate.notify_one();
    }
}

/// One worker's completion sink. The refcount every task's
/// [`ptg::Completion`] bumps and drops is the `Arc` header *in front of*
/// this value, which padding inside it cannot fence off; aligning the
/// value to 128 bytes puts that header alone on its own line pair.
#[repr(align(128))]
struct WorkerSink {
    completions: Arc<Completions>,
    index: usize,
}

impl CompletionSink for WorkerSink {
    fn complete(&self, key: TaskKey, outputs: Vec<Option<Payload>>) {
        if let Some(outputs) = offer_inline(&self.completions, key, outputs) {
            // Mailed to the worker that ran the task: its successors
            // (the rest of the chain) stay there unless it is busy.
            self.completions.push(self.index, (key, outputs));
        }
    }
}

/// The task a worker thread is running inside `execute_async`, and its
/// outputs once the body has finished that very task itself.
pub(crate) struct Inline {
    engine: *const Completions,
    key: TaskKey,
    outputs: Option<Vec<Option<Payload>>>,
}

thread_local! {
    /// This thread's inline-settle slot; see [`offer_inline`].
    static INLINE: RefCell<Option<Inline>> = const { RefCell::new(None) };
}

/// Arm this thread's inline slot for `key` of `engine` around a body.
/// Returns the slot's previous state, for [`disarm_inline`].
pub(crate) fn arm_inline(engine: &Arc<Completions>, key: TaskKey) -> Option<Inline> {
    INLINE.replace(Some(Inline {
        engine: Arc::as_ptr(engine),
        key,
        outputs: None,
    }))
}

/// Restore the slot to `outer`; the outputs the body finished inline, if
/// it did.
pub(crate) fn disarm_inline(outer: Option<Inline>) -> Option<Vec<Option<Payload>>> {
    INLINE.replace(outer).and_then(|s| s.outputs)
}

/// Keep `outputs` in this thread's inline slot if the slot is waiting for
/// exactly this completion — same engine, same task, not yet finished —
/// and hand them back for the mailbox otherwise: a completion for another
/// task (a cache fill serving its waiters) or one finished on another
/// thread is mailed.
fn offer_inline(
    engine: &Completions,
    key: TaskKey,
    outputs: Vec<Option<Payload>>,
) -> Option<Vec<Option<Payload>>> {
    INLINE.with(|slot| match &mut *slot.borrow_mut() {
        Some(s) if std::ptr::eq(s.engine, engine) && s.key == key && s.outputs.is_none() => {
            s.outputs = Some(outputs);
            None
        }
        _ => Some(outputs),
    })
}

/// What a worker publishes, before it idles, for the termination scan.
#[derive(Default)]
pub(crate) struct Tally {
    /// Bodies that returned without their outputs (mailed later).
    deferred: AtomicU64,
    /// Mailed completions this worker drained and settled.
    drained: AtomicU64,
}

impl Tally {
    /// Owner only: publish its running counts.
    pub(crate) fn publish(&self, deferred: u64, drained: u64) {
        self.deferred.store(deferred, Ordering::Relaxed);
        self.drained.store(drained, Ordering::Relaxed);
    }
}

/// Every deferred body's completion has been drained and settled, by the
/// tallies as published. Conclusive only when read while no worker can
/// publish (all idle, none woken since): each mailed completion belongs
/// to exactly one deferred body, so equal sums leave nothing in flight
/// and nothing in a mailbox.
pub(crate) fn all_settled(tallies: &[CachePadded<Tally>]) -> bool {
    let sum = |f: fn(&Tally) -> &AtomicU64| -> u64 {
        tallies.iter().map(|t| f(t).load(Ordering::Relaxed)).sum()
    };
    sum(|t| &t.deferred) == sum(|t| &t.drained)
}
