//! The rank-0 admission controller: job table, per-tenant queues,
//! weighted-fair dispatch, and gang packing.
//!
//! The gateway is deliberately pure state: it never touches the wire.
//! Every mutating entry point returns the [`Dispatch`] frames the caller
//! must deliver (to its own executor and, via `Submit` active messages,
//! to the other member ranks), so the same logic serves the in-process
//! rank-0 client and the progress-thread `JobHandler` without
//! lock-ordering surprises.
//!
//! Admission is two-level. Jobs are always *accepted* (queued per
//! tenant); a job is *dispatched* when a **gang** for it can be packed:
//! a contiguous window of `spec.ranks` currently-idle ranks (contiguous
//! windows keep the gang leader the lowest member and never fragment the
//! mesh into interleaved jobs). Jobs on disjoint gangs run concurrently
//! — a 4-rank mesh executes two 2-rank jobs side by side — subject to
//! the global `max_open` bound. Candidate selection is weighted-fair
//! across tenants (smallest `dispatched / weight` first, the same
//! start-time fairness as before); within the chosen tenant the largest
//! *placeable* job wins (first-fit-decreasing: pack the big job while
//! the window exists, backfill small ones around it), ties broken FIFO.
//!
//! Every dispatch carries, per member rank, that rank's next dispatch
//! **seq** — all assigned under the gateway lock, so any two ranks
//! sharing two gangs observe those gangs' jobs in one consistent order
//! (a total order restricted to each rank). Executors run their frames
//! strictly by seq; jobs on one gang additionally get a per-gang
//! *ordinal* for reporting and plan-scope accounting.

use crate::spec::{JobSpec, JobState, KIND_HALT, KIND_JOB};
use comm::{full_mask, mask_members};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// One admitted job's delivery set: the job-id the member ranks will
/// report under, and one `[seq, kind, gang mask, gang ordinal, ...spec]`
/// frame per member rank (halt dispatches carry `[seq, KIND_HALT]` for
/// every rank).
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Id the member ranks will report under.
    pub job_id: u64,
    /// `(member rank, frame words)`, ready for `Endpoint::submit_async`.
    pub frames: Vec<(usize, Vec<u64>)>,
}

/// Gateway's record of one job, exposed for reporting.
#[derive(Debug, Clone)]
pub struct JobMeta {
    pub job_id: u64,
    pub tenant: u32,
    pub state: JobState,
    /// Rank gang the job was packed onto (valid once dispatched).
    pub gang_mask: u64,
    /// Per-gang execution ordinal (valid once dispatched).
    pub ordinal: u64,
    /// Energy bits from the gang leader's execution (valid once done).
    pub energy_bits: u64,
    /// Nanoseconds since gateway creation at each transition; zero
    /// until the transition happens.
    pub submitted_ns: u64,
    pub dispatched_ns: u64,
    pub done_ns: u64,
}

struct TenantQ {
    weight: u64,
    queue: VecDeque<u64>, // job ids, FIFO within the tenant
    dispatched: u64,
}

struct GwState {
    tenants: HashMap<u32, TenantQ>,
    jobs: HashMap<u64, JobMeta>,
    specs: HashMap<u64, Vec<u64>>, // open jobs' specs (kept until Done for requeue)
    done_ranks: HashMap<u64, u64>, // bitmask of ranks that reported
    next_id: u64,
    /// Next dispatch seq per rank: each rank's executor runs its frames
    /// strictly in this order.
    next_seq: Vec<u64>,
    /// Next per-gang ordinal, keyed by gang mask.
    gang_ordinals: HashMap<u64, u64>,
    /// Ranks occupied by open jobs; packing only uses idle ranks, so a
    /// rank hosts at most one running job at a time (its gang slot).
    busy: u64,
    /// Ranks the failure detector confirmed dead (or the operator
    /// fenced): never packed into a new gang again.
    fenced: u64,
    /// Jobs pulled back from a fenced gang and requeued.
    requeued: u64,
    /// Requeued job ids, in requeue order (recovery reporting).
    requeued_ids: Vec<u64>,
    /// Gateway-clock nanoseconds of the first fence (0 = never).
    first_fence_ns: u64,
    /// Longest dispatch-to-fence span among requeued jobs: run time
    /// before the death plus the detector's declaration latency.
    detect_span_ns: u64,
    /// Per-rank busy nanoseconds accumulated over closed jobs, for the
    /// utilization report.
    busy_ns: Vec<u64>,
    open: usize,
    halted: bool,
    halt_sent: bool,
}

/// The admission controller (constructed on rank 0 only).
pub struct Gateway {
    nranks: usize,
    max_open: usize,
    epoch: Instant,
    st: Mutex<GwState>,
}

/// Lowest contiguous window of `size` idle ranks, as a mask.
fn place(size: usize, busy: u64, nranks: usize) -> Option<u64> {
    let window = full_mask(size);
    (0..=nranks - size)
        .map(|s| window << s)
        .find(|m| m & busy == 0)
}

impl Gateway {
    /// Controller for `nranks` member ranks, at most `max_open` jobs
    /// open concurrently, with explicit tenant `weights` (unlisted
    /// tenants weigh 1).
    pub fn new(nranks: usize, max_open: usize, weights: &[(u32, u64)]) -> Self {
        assert!(nranks <= 64, "gang masks are u64");
        let tenants = weights
            .iter()
            .map(|&(t, w)| {
                (
                    t,
                    TenantQ {
                        weight: w.max(1),
                        queue: VecDeque::new(),
                        dispatched: 0,
                    },
                )
            })
            .collect();
        Self {
            nranks,
            max_open: max_open.max(1),
            epoch: Instant::now(),
            st: Mutex::new(GwState {
                tenants,
                jobs: HashMap::new(),
                specs: HashMap::new(),
                done_ranks: HashMap::new(),
                next_id: 1,
                next_seq: vec![0; nranks],
                gang_ordinals: HashMap::new(),
                busy: 0,
                fenced: 0,
                requeued: 0,
                requeued_ids: Vec::new(),
                first_fence_ns: 0,
                detect_span_ns: 0,
                busy_ns: vec![0; nranks],
                open: 0,
                halted: false,
                halt_sent: false,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Gang size a spec's `ranks` request resolves to on this mesh,
    /// clamped to the largest contiguous window of live ranks — a
    /// full-mesh request must still be schedulable after a rank dies,
    /// on the shrunken mesh that remains.
    fn gang_size(&self, requested: usize, fenced: u64) -> usize {
        let full = if requested == 0 || requested > self.nranks {
            self.nranks
        } else {
            requested
        };
        let (mut best, mut run) = (0usize, 0usize);
        for r in 0..self.nranks {
            if fenced & (1 << r) == 0 {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        // All ranks fenced: leave the request at 1 so it simply stays
        // queued (place() finds no window) instead of packing nothing.
        full.min(best).max(1)
    }

    /// Accept a tenant submission (already word-encoded, straight off
    /// the wire). Returns the assigned job id — or `None` for frames
    /// that do not decode, which the comm layer reports as rejected —
    /// plus any dispatches unlocked by free slots.
    pub fn submit(&self, words: &[u64]) -> (Option<u64>, Vec<Dispatch>) {
        let Some(spec) = JobSpec::decode(words) else {
            return (None, Vec::new());
        };
        let now = self.now_ns();
        let mut st = self.st.lock().unwrap();
        if st.halted {
            return (None, Vec::new()); // draining for shutdown
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobMeta {
                job_id: id,
                tenant: spec.tenant,
                state: JobState::Queued,
                gang_mask: 0,
                ordinal: 0,
                energy_bits: 0,
                submitted_ns: now,
                dispatched_ns: 0,
                done_ns: 0,
            },
        );
        st.specs.insert(id, words.to_vec());
        st.tenants
            .entry(spec.tenant)
            .or_insert_with(|| TenantQ {
                weight: 1,
                queue: VecDeque::new(),
                dispatched: 0,
            })
            .queue
            .push_back(id);
        let out = self.pump(&mut st);
        (Some(id), out)
    }

    /// Record one member rank's completion report. When the last member
    /// reports, the job closes, its gang's ranks free, and any queued
    /// jobs that now pack are dispatched.
    pub fn record_done(&self, from: usize, job_id: u64, result: u64) -> Vec<Dispatch> {
        let now = self.now_ns();
        let mut st = self.st.lock().unwrap();
        let Some(meta) = st.jobs.get_mut(&job_id) else {
            return Vec::new(); // unknown id: stale or hostile, ignore
        };
        if meta.state != JobState::Running {
            return Vec::new(); // late duplicate after completion
        }
        let gang = meta.gang_mask;
        let bit = 1u64 << from;
        if gang & bit == 0 {
            return Vec::new(); // report from a rank outside the gang
        }
        // The gang leader (lowest member) computed the energy.
        if from == gang.trailing_zeros() as usize {
            meta.energy_bits = result;
        }
        let mask = st.done_ranks.entry(job_id).or_insert(0);
        if *mask & bit != 0 {
            return Vec::new(); // dedup normally absorbs these; be safe
        }
        *mask |= bit;
        if *mask == gang {
            st.done_ranks.remove(&job_id);
            st.specs.remove(&job_id);
            let meta = st.jobs.get_mut(&job_id).unwrap();
            meta.state = JobState::Done;
            meta.done_ns = now;
            let span = now - meta.dispatched_ns;
            for r in mask_members(gang) {
                st.busy_ns[r] += span;
            }
            st.busy &= !gang;
            st.open -= 1;
            return self.pump(&mut st);
        }
        Vec::new()
    }

    /// Fence `rank` after a confirmed death: it is never packed into a
    /// new gang, and every *running* job whose gang contains it is
    /// pulled back to the **front** of its tenant queue (state
    /// [`JobState::Requeued`]) and re-dispatched as soon as a gang of
    /// live ranks can be packed — possibly a smaller one than the spec
    /// requested, if the mesh shrank (`gang_size` clamps to the largest
    /// live window). Survivors of the broken gang finish their
    /// poison-released runs and either suppress the report daemon-side
    /// (the run observed the death) or have it ignored here (the job is
    /// no longer `Running`). Idempotent per rank; returns the unlocked
    /// re-dispatches.
    pub fn fence_rank(&self, rank: usize) -> Vec<Dispatch> {
        let now = self.now_ns();
        let mut st = self.st.lock().unwrap();
        let bit = 1u64 << rank;
        if st.fenced & bit != 0 {
            return Vec::new();
        }
        st.fenced |= bit;
        if st.first_fence_ns == 0 {
            st.first_fence_ns = now;
        }
        let mut victims: Vec<u64> = st
            .jobs
            .values()
            .filter(|m| m.state == JobState::Running && m.gang_mask & bit != 0)
            .map(|m| m.job_id)
            .collect();
        victims.sort_unstable();
        // push_front in reverse id order keeps the victims FIFO among
        // themselves at the head of their queues.
        for &id in victims.iter().rev() {
            let meta = st.jobs.get_mut(&id).unwrap();
            meta.state = JobState::Requeued;
            let (gang, tenant) = (meta.gang_mask, meta.tenant);
            let span = now.saturating_sub(meta.dispatched_ns);
            meta.gang_mask = 0;
            st.done_ranks.remove(&id);
            st.busy &= !gang;
            st.open -= 1;
            st.requeued += 1;
            st.requeued_ids.push(id);
            st.detect_span_ns = st.detect_span_ns.max(span);
            let q = st.tenants.get_mut(&tenant).unwrap();
            q.queue.push_front(id);
            // The aborted dispatch no longer counts against the
            // tenant's fair share.
            q.dispatched = q.dispatched.saturating_sub(1);
        }
        self.pump(&mut st)
    }

    /// Currently fenced ranks, as a mask.
    pub fn fenced(&self) -> u64 {
        self.st.lock().unwrap().fenced
    }

    /// Jobs pulled off a broken gang and requeued so far.
    pub fn requeued_jobs(&self) -> u64 {
        self.st.lock().unwrap().requeued
    }

    /// Recovery timeline for reporting: gateway-clock nanoseconds of
    /// the first fence (0 = no fence yet), the longest dispatch-to-fence
    /// span among requeued jobs (an upper bound on detection: run time
    /// before the death plus the detector's declaration latency), and
    /// the requeued job ids in requeue order.
    pub fn recovery_meta(&self) -> (u64, u64, Vec<u64>) {
        let st = self.st.lock().unwrap();
        (
            st.first_fence_ns,
            st.detect_span_ns,
            st.requeued_ids.clone(),
        )
    }

    /// State + result of a job (`Unknown` for ids never assigned).
    pub fn status(&self, job_id: u64) -> (u8, u64) {
        let st = self.st.lock().unwrap();
        st.jobs
            .get(&job_id)
            .map_or((JobState::Unknown as u8, 0), |m| {
                (m.state as u8, m.energy_bits)
            })
    }

    /// Begin an orderly shutdown: no further submissions are accepted,
    /// and once every queued job has been dispatched, halt frames go
    /// out to every rank after its jobs in seq order.
    pub fn halt(&self) -> Vec<Dispatch> {
        let mut st = self.st.lock().unwrap();
        st.halted = true;
        self.pump(&mut st)
    }

    /// All job records, submission order.
    pub fn report(&self) -> Vec<JobMeta> {
        let st = self.st.lock().unwrap();
        let mut out: Vec<JobMeta> = st.jobs.values().cloned().collect();
        out.sort_by_key(|m| m.job_id);
        out
    }

    /// Per-rank utilization over `[0, now]`: busy nanoseconds of closed
    /// jobs divided by wall nanoseconds since the gateway came up.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.now_ns().max(1) as f64;
        let st = self.st.lock().unwrap();
        st.busy_ns.iter().map(|&b| b as f64 / wall).collect()
    }

    /// Dispatch every queued job a gang can currently be packed for,
    /// weighted-fair across tenants, then the halt frames if draining
    /// finished.
    fn pump(&self, st: &mut GwState) -> Vec<Dispatch> {
        let mut out = Vec::new();
        loop {
            if st.open >= self.max_open {
                break;
            }
            // Weighted start-time fairness across tenants that have at
            // least one placeable job; within a tenant, the largest
            // placeable job (first-fit-decreasing), FIFO on ties.
            let mut pick: Option<(u32, usize, u64, usize)> = None; // tenant, qpos, mask, size
            for (&tenant, q) in st.tenants.iter() {
                let Some((qpos, mask, size)) = q
                    .queue
                    .iter()
                    .enumerate()
                    .filter_map(|(i, id)| {
                        let size = self.gang_size(st.specs[id][11] as usize, st.fenced);
                        place(size, st.busy | st.fenced, self.nranks).map(|m| (i, m, size))
                    })
                    .max_by(|a, b| {
                        (a.2, std::cmp::Reverse(a.0)).cmp(&(b.2, std::cmp::Reverse(b.0)))
                    })
                else {
                    continue;
                };
                let better = match &pick {
                    None => true,
                    Some((pt, _, _, _)) => {
                        let (qa, qb) = (&st.tenants[&tenant], &st.tenants[pt]);
                        let ka = (qa.dispatched * qb.weight, tenant);
                        let kb = (qb.dispatched * qa.weight, *pt);
                        ka < kb
                    }
                };
                if better {
                    pick = Some((tenant, qpos, mask, size));
                }
            }
            let Some((tenant, qpos, mask, _)) = pick else {
                break;
            };
            let q = st.tenants.get_mut(&tenant).unwrap();
            let id = q.queue.remove(qpos).unwrap();
            q.dispatched += 1;
            let ordinal = {
                let o = st.gang_ordinals.entry(mask).or_insert(0);
                let v = *o;
                *o += 1;
                v
            };
            st.busy |= mask;
            st.open += 1;
            // The spec stays in the table until the job closes: a rank
            // death mid-run requeues the job, and the re-dispatch needs
            // the words again.
            let spec = st
                .specs
                .get(&id)
                .cloned()
                .expect("queued job lost its spec");
            let meta = st.jobs.get_mut(&id).unwrap();
            meta.state = JobState::Running;
            meta.gang_mask = mask;
            meta.ordinal = ordinal;
            meta.dispatched_ns = self.now_ns();
            let mut frames = Vec::new();
            for r in mask_members(mask) {
                let seq = st.next_seq[r];
                st.next_seq[r] += 1;
                let mut words = vec![seq, KIND_JOB, mask, ordinal];
                words.extend_from_slice(&spec);
                frames.push((r, words));
            }
            out.push(Dispatch { job_id: id, frames });
        }
        let drained = st.tenants.values().all(|q| q.queue.is_empty());
        if st.halted && !st.halt_sent && drained {
            st.halt_sent = true;
            let frames = (0..self.nranks)
                .map(|r| {
                    let seq = st.next_seq[r];
                    st.next_seq[r] += 1;
                    (r, vec![seq, KIND_HALT])
                })
                .collect();
            out.push(Dispatch {
                job_id: u64::MAX - 1,
                frames,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, Variant};
    use tce::{scale, Kernel};

    fn spec_ranks(tenant: u32, ranks: usize) -> Vec<u64> {
        JobSpec {
            tenant,
            space: scale::tiny(),
            kernels: vec![Kernel::T2_7],
            variant: Variant::V5,
            threads: 1,
            prefetch: false,
            ranks,
        }
        .encode()
    }

    fn spec(tenant: u32) -> Vec<u64> {
        spec_ranks(tenant, 0)
    }

    /// The single frame set of a full-mesh dispatch, checked for shape.
    fn frame_of(d: &Dispatch, rank: usize) -> &[u64] {
        &d.frames.iter().find(|(r, _)| *r == rank).unwrap().1
    }

    #[test]
    fn admission_bounds_open_jobs_and_dispatches_in_order() {
        let gw = Gateway::new(2, 1, &[]);
        let (id1, d1) = gw.submit(&spec(0));
        let (id2, d2) = gw.submit(&spec(0));
        assert_eq!((id1, id2), (Some(1), Some(2)));
        assert_eq!(d1.len(), 1, "slot free: dispatch immediately");
        assert_eq!(d1[0].frames.len(), 2, "one frame per member rank");
        assert_eq!(frame_of(&d1[0], 0)[..4], [0, KIND_JOB, 0b11, 0]);
        assert_eq!(frame_of(&d1[0], 1)[..4], [0, KIND_JOB, 0b11, 0]);
        assert!(d2.is_empty(), "slot busy: queued");
        assert_eq!(gw.status(1).0, JobState::Running as u8);
        assert_eq!(gw.status(2).0, JobState::Queued as u8);
        // Half-done: still open.
        assert!(gw.record_done(0, 1, 42f64.to_bits()).is_empty());
        // Fully done: job 2 dispatched with the next seq and ordinal.
        let d = gw.record_done(1, 1, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_id, 2);
        assert_eq!(
            frame_of(&d[0], 0)[..4],
            [1, KIND_JOB, 0b11, 1],
            "seqs and gang ordinals are consecutive"
        );
        assert_eq!(gw.status(1), (JobState::Done as u8, 42f64.to_bits()));
        // Duplicate done reports after completion are no-ops.
        assert!(gw.record_done(1, 1, 0).is_empty());
        assert_eq!(gw.status(3).0, JobState::Unknown as u8);
    }

    #[test]
    fn disjoint_gangs_dispatch_concurrently() {
        let gw = Gateway::new(4, 4, &[]);
        let (_, d1) = gw.submit(&spec_ranks(0, 2));
        let (_, d2) = gw.submit(&spec_ranks(0, 2));
        let (_, d3) = gw.submit(&spec_ranks(0, 4));
        // Two 2-rank gangs pack side by side; the 4-rank job waits.
        assert_eq!(frame_of(&d1[0], 0)[2], 0b0011);
        assert_eq!(frame_of(&d2[0], 2)[2], 0b1100);
        assert!(d3.is_empty(), "mesh full: 4-rank job queued");
        assert_eq!(gw.status(1).0, JobState::Running as u8);
        assert_eq!(gw.status(2).0, JobState::Running as u8);
        // Gang 2's members report done (leader is rank 2).
        assert!(gw.record_done(3, 2, 0).is_empty());
        let d = gw.record_done(2, 2, 7f64.to_bits());
        assert_eq!(gw.status(2), (JobState::Done as u8, 7f64.to_bits()));
        assert!(d.is_empty(), "job 3 needs the whole mesh: still queued");
        // Gang 1 closes too: the 4-rank job finally packs.
        gw.record_done(0, 1, 0.5f64.to_bits());
        let d = gw.record_done(1, 1, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job_id, 3);
        assert_eq!(frame_of(&d[0], 0)[2], 0b1111);
        // Rank 0 ran job 1 (seq 0), so job 3 is its seq 1; rank 2 ran
        // job 2 (seq 0), so job 3 is its seq 1 as well — but rank
        // orderings are independent chains.
        assert_eq!(frame_of(&d[0], 0)[0], 1);
        assert_eq!(frame_of(&d[0], 2)[0], 1);
        // Per-gang ordinals: first job on mask 0b1111.
        assert_eq!(frame_of(&d[0], 0)[3], 0);
        // A report from a rank outside the gang is ignored.
        let meta = gw.report().into_iter().find(|m| m.job_id == 3).unwrap();
        assert_eq!(meta.gang_mask, 0b1111);
    }

    #[test]
    fn energy_comes_from_the_gang_leader() {
        let gw = Gateway::new(4, 4, &[]);
        // Occupy ranks 0-1 so the next job lands on gang {2,3}.
        gw.submit(&spec_ranks(0, 2));
        let (_, d) = gw.submit(&spec_ranks(0, 2));
        assert_eq!(frame_of(&d[0], 2)[2], 0b1100);
        // Rank 3's report carries garbage energy; rank 2 (leader) wins.
        gw.record_done(3, 2, 999f64.to_bits());
        gw.record_done(2, 2, 5f64.to_bits());
        assert_eq!(gw.status(2), (JobState::Done as u8, 5f64.to_bits()));
    }

    #[test]
    fn dispatch_is_weighted_fair_across_tenants() {
        let gw = Gateway::new(1, 1, &[(1, 2), (2, 1)]);
        // Fill both queues while the single slot is busy.
        let (_, d) = gw.submit(&spec(1));
        assert_eq!(d.len(), 1);
        for _ in 0..5 {
            gw.submit(&spec(1));
            gw.submit(&spec(2));
        }
        // Drain: complete whatever is open, record which tenant got it.
        let mut order = Vec::new();
        let mut next = vec![d[0].clone()];
        while let Some(d) = next.pop() {
            let meta = gw
                .report()
                .into_iter()
                .find(|m| m.job_id == d.job_id)
                .unwrap();
            order.push(meta.tenant);
            next = gw.record_done(0, d.job_id, 0);
            assert!(next.len() <= 1);
        }
        // Weight 2:1 — in every 3 consecutive dispatches after the
        // first, tenant 1 appears twice as often as tenant 2 overall.
        let t1 = order.iter().filter(|&&t| t == 1).count();
        let t2 = order.iter().filter(|&&t| t == 2).count();
        assert_eq!(t1, 6);
        assert_eq!(t2, 5);
        // Prefix fairness: tenant 2 is never more than one dispatch
        // ahead of its weighted share.
        let mut seen = (0u64, 0u64);
        for t in &order {
            if *t == 1 {
                seen.0 += 1
            } else {
                seen.1 += 1
            }
            assert!(seen.1 <= seen.0 + 1, "weight-1 tenant ran ahead: {order:?}");
        }
    }

    #[test]
    fn halt_drains_queues_then_emits_the_halt_frame() {
        let gw = Gateway::new(1, 2, &[]);
        gw.submit(&spec(0));
        gw.submit(&spec(0));
        gw.submit(&spec(0));
        let d = gw.halt();
        assert!(d.is_empty(), "jobs still queued: halt waits");
        assert!(gw.submit(&spec(0)).0.is_none(), "halted: no new work");
        // A rank hosts one gang slot at a time, so the single rank
        // serializes the queue regardless of max_open.
        let d = gw.record_done(0, 1, 0);
        assert_eq!(d.len(), 1, "rank freed: next job only");
        assert_eq!(d[0].job_id, 2);
        // The last queued job's dispatch drains the queues, so the halt
        // frames follow in the same pump — their larger seqs already
        // serialize them after job 3 on every executor.
        let d = gw.record_done(0, 2, 0);
        assert_eq!(d.len(), 2, "job 3 dispatch plus the halt dispatch");
        assert_eq!(d[0].job_id, 3);
        assert_eq!(frame_of(&d[1], 0)[1], KIND_HALT);
        assert_eq!(frame_of(&d[1], 0)[0], 3, "halt seq follows the jobs");
        assert!(gw.record_done(0, 3, 0).is_empty(), "halt already sent");
    }

    #[test]
    fn fencing_requeues_running_jobs_onto_live_ranks() {
        let gw = Gateway::new(4, 2, &[]);
        let (id, d) = gw.submit(&spec_ranks(7, 2));
        let id = id.unwrap();
        assert_eq!(frame_of(&d[0], 0)[2], 0b0011, "packed on {{0,1}}");
        // Rank 1 dies mid-run: the job is pulled back and immediately
        // re-packed on the surviving window {2,3} with fresh seqs.
        let d = gw.fence_rank(1);
        assert_eq!(d.len(), 1, "requeued job re-dispatches at once");
        assert_eq!(d[0].job_id, id);
        assert_eq!(frame_of(&d[0], 2)[2], 0b1100, "repacked on {{2,3}}");
        assert_eq!(gw.fenced(), 0b0010);
        assert_eq!(gw.requeued_jobs(), 1);
        assert_eq!(gw.status(id).0, JobState::Running as u8);
        // A late report from the broken gang's survivor is ignored (rank
        // 0 is outside the new gang).
        assert!(gw.record_done(0, id, 1f64.to_bits()).is_empty());
        // The re-run completes normally; the new leader's energy wins.
        gw.record_done(3, id, 0);
        gw.record_done(2, id, 9f64.to_bits());
        assert_eq!(gw.status(id), (JobState::Done as u8, 9f64.to_bits()));
        // Fencing again is idempotent.
        assert!(gw.fence_rank(1).is_empty());
        assert_eq!(gw.requeued_jobs(), 1);
    }

    #[test]
    fn full_mesh_requests_clamp_to_the_shrunken_mesh() {
        let gw = Gateway::new(4, 1, &[]);
        assert!(gw.fence_rank(3).is_empty(), "no running jobs to requeue");
        // A full-mesh job must still be schedulable on the 3 live ranks.
        let (_, d) = gw.submit(&spec(0));
        assert_eq!(d.len(), 1, "clamped job dispatches");
        assert_eq!(frame_of(&d[0], 0)[2], 0b0111, "largest live window");
    }

    /// The gateway's own detector never declares its own rank dead, so
    /// fencing every peer still leaves rank 0: a full-mesh job clamps onto
    /// it alone and runs at once.
    #[test]
    fn fencing_every_peer_clamps_a_full_mesh_job_onto_rank_0_alone() {
        let gw = Gateway::new(3, 1, &[]);
        gw.fence_rank(1);
        gw.fence_rank(2);
        let (id, d) = gw.submit(&spec(0));
        assert_eq!(d.len(), 1, "one live rank is enough after the clamp");
        assert_eq!(frame_of(&d[0], 0)[2], 0b001);
        assert_eq!(gw.status(id.unwrap()).0, JobState::Running as u8);
        assert_eq!(gw.fenced(), 0b110);
    }

    #[test]
    fn undecodable_submissions_are_rejected() {
        let gw = Gateway::new(1, 1, &[]);
        let (id, d) = gw.submit(&[1, 2, 3]);
        assert!(id.is_none() && d.is_empty());
    }
}
