//! Summary analyses over traces: busy/idle accounting, per-class totals,
//! startup idle (the Figure 11 effect), and communication/computation
//! overlap (the Figure 12 effect).

use crate::event::{ActivityKind, Trace, WorkerId};
use crate::Ns;
use std::collections::BTreeMap;

/// Aggregate statistics of one trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Global `[begin, end)` extent.
    pub begin: Ns,
    pub end: Ns,
    /// Number of worker rows.
    pub workers: usize,
    /// Sum of busy time over all workers.
    pub busy: Ns,
    /// Sum of idle time over all workers (extent * workers - busy).
    pub idle: Ns,
    /// Per-class `(count, total time)` keyed by class name.
    pub per_class: BTreeMap<String, (u64, Ns)>,
}

impl TraceStats {
    /// Fraction of worker-time spent idle, in `[0, 1]`.
    pub fn idle_fraction(&self) -> f64 {
        let total = self.busy + self.idle;
        if total == 0 {
            0.0
        } else {
            self.idle as f64 / total as f64
        }
    }

    /// Wall-clock span of the trace.
    pub fn makespan(&self) -> Ns {
        self.end - self.begin
    }
}

/// Compute [`TraceStats`]. Empty traces yield an all-zero report.
pub fn stats(trace: &Trace) -> TraceStats {
    let (begin, end) = trace.extent().unwrap_or((0, 0));
    let workers = trace.workers();
    let mut busy = 0;
    let mut per_class: BTreeMap<String, (u64, Ns)> = BTreeMap::new();
    for s in trace.spans() {
        busy += s.len();
        let e = per_class
            .entry(trace.class_name(s.class).to_string())
            .or_insert((0, 0));
        e.0 += 1;
        e.1 += s.len();
    }
    let span = end - begin;
    let idle = span * workers.len() as Ns - busy;
    TraceStats {
        begin,
        end,
        workers: workers.len(),
        busy,
        idle,
        per_class,
    }
}

/// Idle time of every worker before its first span of class `class_name`
/// (e.g. the first `GEMM`), averaged over workers that ever run one.
///
/// This is the quantitative version of the paper's Figure 10 vs Figure 11
/// comparison: without priorities, all reader tasks execute first and the
/// compute cores sit idle at the start.
pub fn startup_idle_before(trace: &Trace, class_name: &str) -> Option<Ns> {
    let cid = trace.class_id(class_name)?;
    let (t0, _) = trace.extent()?;
    let mut first: BTreeMap<WorkerId, Ns> = BTreeMap::new();
    for s in trace.spans() {
        if s.class == cid {
            let e = first.entry(s.who).or_insert(s.begin);
            if s.begin < *e {
                *e = s.begin;
            }
        }
    }
    if first.is_empty() {
        return None;
    }
    // For each worker that runs the class, count the idle time in
    // [t0, first_occurrence): gaps not covered by any span of that worker.
    let mut total = 0;
    for (&who, &cut) in &first {
        let mut covered: Vec<(Ns, Ns)> = trace
            .spans()
            .iter()
            .filter(|s| s.who == who && s.begin < cut)
            .map(|s| (s.begin, s.end.min(cut)))
            .collect();
        covered.sort_unstable();
        let mut busy = 0;
        let mut cursor = t0;
        for (b, e) in covered {
            let b = b.max(cursor);
            if e > b {
                busy += e - b;
                cursor = e;
            }
        }
        total += (cut - t0).saturating_sub(busy);
    }
    Some(total / first.len() as Ns)
}

/// Mean (over workers that ever run it) of the first start time of a
/// class, relative to the trace start — "when does real work begin".
/// The Figure 11 effect: without priorities the first GEMMs start much
/// later because every reader executes first and floods the network.
pub fn mean_first_start(trace: &Trace, class_name: &str) -> Option<Ns> {
    let cid = trace.class_id(class_name)?;
    let (t0, _) = trace.extent()?;
    let mut first: BTreeMap<WorkerId, Ns> = BTreeMap::new();
    for s in trace.spans() {
        if s.class == cid {
            let e = first.entry(s.who).or_insert(s.begin);
            if s.begin < *e {
                *e = s.begin;
            }
        }
    }
    if first.is_empty() {
        return None;
    }
    Some(first.values().map(|&b| b - t0).sum::<Ns>() / first.len() as Ns)
}

/// Per-node communication/computation overlap report.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeOverlap {
    /// Total communication time on the node (sum over comm spans).
    pub comm: Ns,
    /// Portion of `comm` during which at least one compute span was active
    /// on the same node.
    pub overlapped: Ns,
    /// Portion of `comm` spent on operations that needed retransmission
    /// (spans tagged [`ActivityKind::Comm`] with `retrans: true`) —
    /// recovery traffic rather than useful prefetch. Zero on a healthy
    /// network.
    pub recovery: Ns,
}

impl NodeOverlap {
    /// Overlap ratio in `[0, 1]`; zero when there is no communication.
    pub fn ratio(&self) -> f64 {
        if self.comm == 0 {
            0.0
        } else {
            self.overlapped as f64 / self.comm as f64
        }
    }

    /// Fraction of communication time that was recovery traffic, in
    /// `[0, 1]`; zero when there is no communication.
    pub fn recovery_ratio(&self) -> f64 {
        if self.comm == 0 {
            0.0
        } else {
            self.recovery as f64 / self.comm as f64
        }
    }
}

/// For each node, how much of its communication time is overlapped with
/// computation on the same node.
///
/// The original NWChem code interleaves communication with computation but
/// never overlaps them (Figure 12), so its ratio is ~0; the PaRSEC variants
/// with priorities overlap most transfers (Figure 10).
pub fn comm_overlap(trace: &Trace) -> BTreeMap<u32, NodeOverlap> {
    // Collect per-node compute coverage as a sorted union of intervals, then
    // measure each comm span against it.
    let mut compute: BTreeMap<u32, Vec<(Ns, Ns)>> = BTreeMap::new();
    let mut comm: BTreeMap<u32, Vec<(Ns, Ns, bool)>> = BTreeMap::new();
    for s in trace.spans() {
        if s.is_empty() {
            continue;
        }
        match trace.class_kind(s.class) {
            ActivityKind::Compute => compute
                .entry(s.who.node)
                .or_default()
                .push((s.begin, s.end)),
            ActivityKind::Communication => comm
                .entry(s.who.node)
                .or_default()
                .push((s.begin, s.end, false)),
            ActivityKind::Comm { retrans } => comm
                .entry(s.who.node)
                .or_default()
                .push((s.begin, s.end, retrans)),
            ActivityKind::Steal | ActivityKind::Job | ActivityKind::Runtime => {}
        }
    }
    for v in compute.values_mut() {
        *v = union_intervals(std::mem::take(v));
    }
    let mut out = BTreeMap::new();
    for (node, spans) in comm {
        let mut rep = NodeOverlap::default();
        let cover = compute.get(&node).map(Vec::as_slice).unwrap_or(&[]);
        for (b, e, retrans) in spans {
            rep.comm += e - b;
            rep.overlapped += intersect_len(cover, b, e);
            if retrans {
                rep.recovery += e - b;
            }
        }
        out.insert(node, rep);
    }
    out
}

/// Like [`comm_overlap`], but measured *within each worker row*: how much
/// of a worker's communication time coincides with computation on that
/// same worker. For a single-threaded MPI rank issuing blocking
/// `GET_HASH_BLOCK`s this is zero by construction — the paper's Figure 12
/// observation: "communication is interleaved with computation, however
/// it is not overlapped".
pub fn comm_share_of_busy(trace: &Trace) -> f64 {
    let mut comm = 0;
    let mut busy = 0;
    for s in trace.spans() {
        busy += s.len();
        if trace.class_kind(s.class).is_communication() {
            comm += s.len();
        }
    }
    if busy == 0 {
        0.0
    } else {
        comm as f64 / busy as f64
    }
}

/// Utilization timeline: the fraction of workers busy in each of
/// `buckets` equal time slices of the trace extent, in `[0, 1]`. The
/// textual complement of the Gantt chart — `fig10_13` uses it to show the
/// legacy model's barrier troughs vs the variants' steady ramps.
pub fn utilization_timeline(trace: &Trace, buckets: usize) -> Vec<f64> {
    let Some((t0, t1)) = trace.extent() else {
        return vec![0.0; buckets];
    };
    let buckets = buckets.max(1);
    let span = (t1 - t0).max(1);
    let workers = trace.workers().len().max(1) as f64;
    let mut busy = vec![0u128; buckets];
    for s in trace.spans() {
        if s.is_empty() {
            continue;
        }
        let first = ((s.begin - t0) as u128 * buckets as u128 / span as u128) as usize;
        let last = (((s.end - t0) as u128 * buckets as u128).div_ceil(span as u128) as usize)
            .min(buckets)
            .max(first + 1);
        for (b, slot) in busy.iter_mut().enumerate().take(last).skip(first) {
            let cb = t0 + (span as u128 * b as u128 / buckets as u128) as Ns;
            let ce = t0 + (span as u128 * (b + 1) as u128 / buckets as u128) as Ns;
            let lo = s.begin.max(cb);
            let hi = s.end.min(ce);
            if hi > lo {
                *slot += (hi - lo) as u128;
            }
        }
    }
    busy.iter()
        .enumerate()
        .map(|(b, &t)| {
            let cb = t0 + (span as u128 * b as u128 / buckets as u128) as Ns;
            let ce = t0 + (span as u128 * (b + 1) as u128 / buckets as u128) as Ns;
            t as f64 / ((ce - cb) as f64 * workers)
        })
        .collect()
}

/// Merge possibly-overlapping intervals into a disjoint sorted union.
fn union_intervals(mut v: Vec<(Ns, Ns)>) -> Vec<(Ns, Ns)> {
    v.sort_unstable();
    let mut out: Vec<(Ns, Ns)> = Vec::with_capacity(v.len());
    for (b, e) in v {
        match out.last_mut() {
            Some(last) if b <= last.1 => last.1 = last.1.max(e),
            _ => out.push((b, e)),
        }
    }
    out
}

/// Total length of `cover ∩ [b, e)` for a disjoint sorted `cover`.
fn intersect_len(cover: &[(Ns, Ns)], b: Ns, e: Ns) -> Ns {
    // Binary search to the first interval that could intersect.
    let start = cover.partition_point(|&(_, ce)| ce <= b);
    let mut acc = 0;
    for &(cb, ce) in &cover[start..] {
        if cb >= e {
            break;
        }
        acc += ce.min(e) - cb.max(b);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WorkerId;

    fn w(n: u32, c: u32) -> WorkerId {
        WorkerId::new(n, c)
    }

    #[test]
    fn stats_basics() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let s = t.class("SORT", ActivityKind::Compute);
        t.push(w(0, 0), g, 0, 10);
        t.push(w(0, 1), s, 0, 4);
        let st = stats(&t);
        assert_eq!(st.makespan(), 10);
        assert_eq!(st.busy, 14);
        assert_eq!(st.idle, 6);
        assert!((st.idle_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(st.per_class["GEMM"], (1, 10));
    }

    #[test]
    fn union_and_intersect() {
        let u = union_intervals(vec![(5, 8), (0, 3), (2, 6), (10, 12)]);
        assert_eq!(u, vec![(0, 8), (10, 12)]);
        assert_eq!(intersect_len(&u, 1, 11), 8); // [1,8) + [10,11)
        assert_eq!(intersect_len(&u, 8, 10), 0);
    }

    #[test]
    fn overlap_zero_for_blocking_comm() {
        // One worker alternates comm and compute with no concurrency:
        // the original-NWChem pattern.
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let c = t.class("GET", ActivityKind::Communication);
        t.push(w(0, 0), c, 0, 5);
        t.push(w(0, 0), g, 5, 10);
        t.push(w(0, 0), c, 10, 15);
        t.push(w(0, 0), g, 15, 20);
        let rep = comm_overlap(&t);
        assert_eq!(rep[&0].comm, 10);
        assert_eq!(rep[&0].overlapped, 0);
    }

    #[test]
    fn overlap_full_for_dedicated_comm_thread() {
        // Comm thread busy while a compute core works: PaRSEC pattern.
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let c = t.class("XFER", ActivityKind::Communication);
        t.push(w(0, 0), g, 0, 20);
        t.push(w(0, 7), c, 5, 15);
        let rep = comm_overlap(&t);
        assert_eq!(rep[&0].comm, 10);
        assert_eq!(rep[&0].overlapped, 10);
        assert!((rep[&0].ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_splits_recovery_from_useful_traffic() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let ok = t.class("GET", ActivityKind::Comm { retrans: false });
        let rt = t.class("GET_RETRY", ActivityKind::Comm { retrans: true });
        t.push(w(0, 0), g, 0, 30);
        t.push(w(0, 7), ok, 0, 10);
        t.push(w(0, 7), rt, 10, 30);
        let rep = comm_overlap(&t);
        assert_eq!(rep[&0].comm, 30);
        assert_eq!(rep[&0].recovery, 20);
        assert!((rep[&0].recovery_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_is_per_node() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let c = t.class("XFER", ActivityKind::Communication);
        t.push(w(0, 0), g, 0, 10);
        t.push(w(1, 0), c, 0, 10); // other node: no compute there
        let rep = comm_overlap(&t);
        assert_eq!(rep[&1].overlapped, 0);
    }

    #[test]
    fn utilization_timeline_tracks_busy_fraction() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        // Two workers over [0, 100): one busy the whole time, the other
        // only in the first half.
        t.push(w(0, 0), g, 0, 100);
        t.push(w(0, 1), g, 0, 50);
        let u = utilization_timeline(&t, 4);
        assert_eq!(u.len(), 4);
        assert!((u[0] - 1.0).abs() < 1e-9, "{u:?}");
        assert!((u[1] - 1.0).abs() < 1e-9, "{u:?}");
        assert!((u[2] - 0.5).abs() < 1e-9, "{u:?}");
        assert!((u[3] - 0.5).abs() < 1e-9, "{u:?}");
        assert_eq!(utilization_timeline(&Trace::new(), 3), vec![0.0; 3]);
    }

    #[test]
    fn comm_share() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let c = t.class("GET", ActivityKind::Communication);
        t.push(w(0, 0), c, 0, 25);
        t.push(w(0, 0), g, 25, 100);
        assert!((comm_share_of_busy(&t) - 0.25).abs() < 1e-12);
        assert_eq!(comm_share_of_busy(&Trace::new()), 0.0);
    }

    #[test]
    fn startup_idle_measures_gap() {
        let mut t = Trace::new();
        let r = t.class("READ", ActivityKind::Runtime);
        let g = t.class("GEMM", ActivityKind::Compute);
        // Worker runs readers 0..10, idles 10..50, first GEMM at 50.
        t.push(w(0, 0), r, 0, 10);
        t.push(w(0, 0), g, 50, 60);
        assert_eq!(startup_idle_before(&t, "GEMM"), Some(40));
        assert_eq!(startup_idle_before(&t, "NOPE"), None);
    }

    #[test]
    fn startup_idle_averages_workers() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        t.push(w(0, 0), g, 10, 20); // 10 idle
        t.push(w(0, 1), g, 30, 40); // 20 idle relative to t0=10
                                    // t0 is the global extent start = 10, so worker0 idle 0, worker1 idle 20.
        assert_eq!(startup_idle_before(&t, "GEMM"), Some(10));
    }
}
