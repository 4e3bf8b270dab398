//! What a native run reports: its trace, task count, wall time and
//! work-distribution counters, assembled from what each worker kept to
//! itself during the run.

use ptg::{Activity, TaskGraph};
use xtrace::{ActivityKind, Trace, WorkerId};

/// Outcome of a native run.
#[derive(Debug)]
pub struct NativeReport {
    /// Wall-clock execution trace (node 0, one row per worker).
    pub trace: Trace,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Total wall time.
    pub wall: std::time::Duration,
    /// Work-distribution counters (per-worker occupancy, steals).
    pub steal: StealStats,
}

/// Work-distribution counters of one run.
#[derive(Debug, Clone, Default)]
pub struct StealStats {
    /// Tasks seeded mid-run from an external [`crate::WorkSource`]
    /// (locally claimed chain roots and cross-rank migrations alike).
    pub external_tasks: u64,
    /// Successful single-task steals from peer worker deques.
    pub local_steals: u64,
    /// Completions settled from the mailboxes: finished on another thread
    /// (a comm progress thread's get reply), or by a body running some
    /// other task. A body finishing its own task is settled inline and
    /// not counted.
    pub deferred: u64,
    /// Task bodies executed per worker (occupancy; sums to `tasks`).
    pub per_worker_tasks: Vec<u64>,
}

/// What one worker hands back when the run ends: its counters are its
/// own until then, never shared words bumped per task.
#[derive(Default)]
pub(crate) struct WorkerOut {
    /// One span per task body it ran.
    pub spans: SpanLog,
    pub external_tasks: u64,
    pub local_steals: u64,
    /// Mailed completions it drained.
    pub drained: u64,
}

/// A worker's `(class, begin ns, end ns)` spans, in blocks of a fixed
/// size. Worker 0 is the calling thread, whose heap outlives the run: a
/// log that doubled in place would leave a trail of ever larger holes
/// between the run's small allocations there, while equal blocks are
/// reused exactly by the next run. [`build_report`] copies the blocks
/// into a trace allocated once, at its exact size, for the same reason.
#[derive(Default)]
pub(crate) struct SpanLog {
    blocks: Vec<Vec<(u32, u64, u64)>>,
}

impl SpanLog {
    const BLOCK: usize = 1024;

    pub fn push(&mut self, span: (u32, u64, u64)) {
        match self.blocks.last_mut() {
            Some(b) if b.len() < Self::BLOCK => b.push(span),
            _ => {
                let mut b = Vec::with_capacity(Self::BLOCK);
                b.push(span);
                self.blocks.push(b);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

/// Assemble a [`NativeReport`] from the workers' outputs (one span per
/// task body, so the spans also count the tasks).
pub(crate) fn build_report(
    graph: &TaskGraph,
    outs: &[WorkerOut],
    wall: std::time::Duration,
    node: u32,
) -> NativeReport {
    let mut trace = Trace::new();
    let class_ids: Vec<u16> = graph
        .classes()
        .iter()
        .map(|c| {
            let kind = match c.activity() {
                Activity::Compute => ActivityKind::Compute,
                Activity::Communication => ActivityKind::Communication,
                Activity::Runtime => ActivityKind::Runtime,
            };
            trace.class(c.name(), kind)
        })
        .collect();
    let per_worker_tasks: Vec<u64> = outs.iter().map(|o| o.spans.len() as u64).collect();
    trace.reserve(per_worker_tasks.iter().sum::<u64>() as usize);
    for (w, out) in outs.iter().enumerate() {
        for &(class, b, e) in out.spans.blocks.iter().flatten() {
            trace.push(
                WorkerId::new(node, w as u32),
                class_ids[class as usize],
                b,
                e,
            );
        }
    }
    let sum = |f: fn(&WorkerOut) -> u64| outs.iter().map(f).sum();
    NativeReport {
        trace,
        tasks: per_worker_tasks.iter().sum(),
        wall,
        steal: StealStats {
            external_tasks: sum(|o| o.external_tasks),
            local_steals: sum(|o| o.local_steals),
            deferred: sum(|o| o.drained),
            per_worker_tasks,
        },
    }
}
