//! End-to-end service-layer tests: persistent rank daemons over 4
//! ranks of an in-process socket mesh serving a stream of multi-tenant jobs, plus a chaos
//! schedule that drops, duplicates and reorders the job-control AMs.
//!
//! The clean run is the acceptance shape of the PR: two jobs sharing a
//! tile geometry must hit the plan cache (the second skips inspection,
//! array materialization, and graph build) while every job still
//! reproduces the serial reference energy to 1e-12; a third job with a
//! distinct geometry builds its own plan beside the first without
//! disturbing it; and a fourth job arrives over the wire from a tenant
//! on a non-gateway rank.

use comm::fault::{FaultPlan, FaultTransport};
use comm::{CommConfig, SocketTransport, Transport};
use global_arrays::TileCacheConfig;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;
use svc::{JobSpec, JobState, PlanCacheConfig, RankDaemon, SvcConfig, Variant};
use tce::{scale, Kernel, SpaceConfig, TileSpace};
use tensor_kernels::rel_diff;

const TIMEOUT: Duration = Duration::from_secs(120);

fn reference(cfg: &SpaceConfig) -> f64 {
    let space = TileSpace::build(cfg);
    let ws = tce::build_workspace(&space, 1);
    ccsd::verify::reference_energy(&ws)
}

fn spec_on(tenant: u32, space: SpaceConfig, variant: Variant, ranks: usize) -> JobSpec {
    JobSpec {
        tenant,
        space,
        kernels: vec![Kernel::T2_7],
        variant,
        threads: 2,
        prefetch: true,
        ranks,
    }
}

fn spec(tenant: u32, space: SpaceConfig, variant: Variant) -> JobSpec {
    spec_on(tenant, space, variant, 0)
}

struct RankOut {
    plan_hits: u64,
    plan_misses: u64,
    cache_retained: u64,
    stale_reads: u64,
    retries: u64,
    records: Vec<svc::JobRecord>,
    /// Driver results (rank 0: the three in-process energies; rank 1:
    /// the AM-submitted energy).
    energies: Vec<f64>,
}

#[test]
fn four_rank_service_reuses_plans_across_tenants() {
    let e_tiny = reference(&scale::tiny());
    let e_small = reference(&scale::small());
    // Rank 0's driver tells rank 1's tenant when to submit over the
    // wire; rank 1's tenant reports its energy back so rank 0 can halt.
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (e4_tx, e4_rx) = mpsc::channel::<f64>();
    let (mut go_tx, mut go_rx) = (Some(go_tx), Some(go_rx));
    let (mut e4_tx, mut e4_rx) = (Some(e4_tx), Some(e4_rx));
    let handles: Vec<_> = SocketTransport::mesh(4)
        .unwrap()
        .into_iter()
        .map(|t| {
            let r = t.rank();
            let (go_tx, go_rx) = (
                (r == 0).then(|| go_tx.take().unwrap()),
                (r == 1).then(|| go_rx.take().unwrap()),
            );
            let (e4_tx, e4_rx) = (
                (r == 1).then(|| e4_tx.take().unwrap()),
                (r == 0).then(|| e4_rx.take().unwrap()),
            );
            std::thread::spawn(move || {
                // Pinned: each rank reads remote blocks for its own
                // chains, so every rank has a cache entry to retain.
                // With stealing on, a rank that donated all of its
                // chains to thieves retains nothing.
                let cfg = SvcConfig {
                    steal: ccsd::StealConfig::pinned(),
                    ..SvcConfig::default()
                };
                let daemon = RankDaemon::new(Box::new(t), cfg);
                let client = daemon.client();
                let driver = std::thread::spawn(move || match r {
                    0 => {
                        let id1 = client.submit(&spec(1, scale::tiny(), Variant::V5)).unwrap();
                        let e1 = client.wait(id1, TIMEOUT);
                        // Same geometry, different tenant and variant:
                        // plan hit, fresh graph.
                        let id2 = client.submit(&spec(2, scale::tiny(), Variant::V3)).unwrap();
                        let e2 = client.wait(id2, TIMEOUT);
                        // Distinct geometry: a second plan beside the first.
                        let id3 = client
                            .submit(&spec(1, scale::small(), Variant::V5))
                            .unwrap();
                        let e3 = client.wait(id3, TIMEOUT);
                        assert_eq!(client.status(id1).0, JobState::Done);
                        go_tx.unwrap().send(()).unwrap();
                        let e4 = e4_rx.unwrap().recv_timeout(TIMEOUT).unwrap();
                        client.halt();
                        vec![e1, e2, e3, e4]
                    }
                    1 => {
                        go_rx.unwrap().recv_timeout(TIMEOUT).unwrap();
                        // The full AM path: Submit to the gateway, status
                        // polls over the wire, from a non-gateway rank.
                        let id4 = client.submit(&spec(2, scale::tiny(), Variant::V5)).unwrap();
                        let e4 = client.wait(id4, TIMEOUT);
                        e4_tx.unwrap().send(e4).unwrap();
                        vec![e4]
                    }
                    _ => Vec::new(),
                });
                daemon.run();
                let energies = driver.join().unwrap();
                let (plan_hits, plan_misses) = daemon.plan_stats();
                let out = RankOut {
                    plan_hits,
                    plan_misses,
                    cache_retained: daemon.ga_stats().cache_retained(),
                    stale_reads: daemon.ga_stats().stale_reads(),
                    retries: daemon.endpoint().stats().retries,
                    records: daemon.records(),
                    energies,
                };
                daemon.finish();
                out
            })
        })
        .collect();
    let outs: Vec<RankOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Energies: every job reproduces its geometry's reference.
    let [e1, e2, e3, e4] = outs[0].energies[..] else {
        panic!("rank 0 driver must report four energies")
    };
    for (e, e_ref, what) in [
        (e1, e_tiny, "job 1 (tiny, v5)"),
        (e2, e_tiny, "job 2 (tiny, v3, plan hit)"),
        (e3, e_small, "job 3 (small, v5)"),
        (e4, e_tiny, "job 4 (tiny, v5, remote tenant)"),
    ] {
        assert!(rel_diff(e, e_ref) < 1e-12, "{what}: {e} vs {e_ref}");
    }
    assert_eq!(outs[1].energies, vec![e4], "both waiters saw one result");

    for (r, out) in outs.iter().enumerate() {
        // Plan cache: tiny built once, small once; jobs 2 and 4 hit.
        assert_eq!(
            (out.plan_misses, out.plan_hits),
            (2, 2),
            "rank {r} plan cache"
        );
        let hits: Vec<bool> = out.records.iter().map(|j| j.plan_hit).collect();
        assert_eq!(hits, [false, true, false, true], "rank {r} hit pattern");
        // The latency effect: a plan hit skips the collective build
        // entirely. The faster of each pair is compared, so one build
        // preempted on a busy host fails nothing.
        let miss_ns = out.records[0].build_ns.min(out.records[2].build_ns);
        let hit_ns = out.records[1].build_ns.min(out.records[3].build_ns);
        assert!(
            hit_ns * 10 < miss_ns,
            "rank {r}: hit build {hit_ns}ns not ≪ miss build {miss_ns}ns"
        );
        // Epoch retention: pinned input tensors kept cache entries
        // across the sync flushes between jobs.
        assert!(out.cache_retained > 0, "rank {r}: nothing retained");
        assert_eq!(out.stale_reads, 0, "rank {r}: stale cached reads");
        assert_eq!(out.retries, 0, "rank {r}: clean wire must not retry");
        // Per-job scoping: the hit job still moved data and its record
        // carries its own counters.
        assert!(out.records[3].run_ns > 0);
        assert_eq!(out.records[3].tenant, 2);
    }
}

/// Fast retries so injected losses recover in milliseconds.
fn chaos_cfg() -> CommConfig {
    CommConfig {
        retry_timeout: Duration::from_millis(20),
        retry_backoff_max: Duration::from_millis(80),
        ..CommConfig::default()
    }
}

#[test]
fn service_survives_dropped_and_reordered_job_control() {
    let seed = 0x5E47_1CE0_0001u64;
    let replay =
        format!("service chaos seed {seed:#x} — replay: FaultPlan::named(\"service\", {seed:#x})");
    let e_tiny = reference(&scale::tiny());
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (e3_tx, e3_rx) = mpsc::channel::<f64>();
    let (mut go_tx, mut go_rx) = (Some(go_tx), Some(go_rx));
    let (mut e3_tx, mut e3_rx) = (Some(e3_tx), Some(e3_rx));
    let handles: Vec<_> = SocketTransport::mesh(3)
        .unwrap()
        .into_iter()
        .map(|t| {
            let r = t.rank();
            let plan = FaultPlan::named("service", seed.wrapping_add(r as u64)).unwrap();
            let ft = FaultTransport::new(Box::new(t), plan);
            let armed = ft.armed_handle();
            let (go_tx, go_rx) = (
                (r == 0).then(|| go_tx.take().unwrap()),
                (r == 1).then(|| go_rx.take().unwrap()),
            );
            let (e3_tx, e3_rx) = (
                (r == 1).then(|| e3_tx.take().unwrap()),
                (r == 0).then(|| e3_rx.take().unwrap()),
            );
            std::thread::spawn(move || {
                let cfg = SvcConfig {
                    comm: chaos_cfg(),
                    // Paranoia mode: every cache hit is checked against
                    // the owners' live shards (epoch retention must
                    // never serve stale data, even under faults).
                    cache: TileCacheConfig {
                        verify_reads: true,
                        ..TileCacheConfig::default()
                    },
                    ..SvcConfig::default()
                };
                let daemon = RankDaemon::new(Box::new(ft), cfg);
                let client = daemon.client();
                let driver = std::thread::spawn(move || match r {
                    0 => {
                        let id1 = client.submit(&spec(1, scale::tiny(), Variant::V5)).unwrap();
                        let e1 = client.wait(id1, TIMEOUT);
                        let id2 = client.submit(&spec(2, scale::tiny(), Variant::V5)).unwrap();
                        let e2 = client.wait(id2, TIMEOUT);
                        go_tx.unwrap().send(()).unwrap();
                        let e3 = e3_rx.unwrap().recv_timeout(TIMEOUT).unwrap();
                        client.halt();
                        vec![e1, e2, e3]
                    }
                    1 => {
                        go_rx.unwrap().recv_timeout(TIMEOUT).unwrap();
                        let id3 = client.submit(&spec(1, scale::tiny(), Variant::V5)).unwrap();
                        let e3 = client.wait(id3, TIMEOUT);
                        e3_tx.unwrap().send(e3).unwrap();
                        vec![e3]
                    }
                    _ => Vec::new(),
                });
                daemon.run();
                let energies = driver.join().unwrap();
                let (hits, misses) = daemon.plan_stats();
                let out = (
                    energies,
                    hits,
                    misses,
                    daemon.ga_stats().stale_reads(),
                    daemon.endpoint().stats().retries,
                    daemon.records().len(),
                );
                // Injection stays armed through every job and the halt
                // frames; only the final teardown runs clean.
                armed.store(false, Ordering::SeqCst);
                daemon.finish();
                out
            })
        })
        .collect();
    let outs: Vec<_> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| panic!("rank panicked: {replay}"))
        })
        .collect();
    for e in &outs[0].0 {
        assert!(rel_diff(*e, e_tiny) < 1e-12, "energy {e} drifted: {replay}");
    }
    for (r, out) in outs.iter().enumerate() {
        assert_eq!((out.1, out.2), (2, 1), "rank {r} plan cache: {replay}");
        assert_eq!(out.3, 0, "rank {r} served stale cached reads: {replay}");
        assert_eq!(out.5, 3, "rank {r} must execute all three jobs: {replay}");
    }
    let retries: u64 = outs.iter().map(|o| o.4).sum();
    assert!(retries > 0, "chaos schedule never forced a retry: {replay}");
}

/// A plan cache bounded to one resident plan must evict the LRU plan on
/// every geometry change — destroying its workspace arrays — and still
/// rebuild correctly when the evicted geometry comes back: same
/// reference energies, no stale reads from the destroyed arrays' cached
/// blocks, and both ranks evicting in lockstep.
#[test]
fn bounded_plan_cache_evicts_and_rebuilds() {
    let e_tiny = reference(&scale::tiny());
    let e_small = reference(&scale::small());
    let handles: Vec<_> = SocketTransport::mesh(2)
        .unwrap()
        .into_iter()
        .map(|t| {
            let r = t.rank();
            std::thread::spawn(move || {
                let cfg = SvcConfig {
                    plan_cache: PlanCacheConfig {
                        max_entries: 1,
                        max_bytes: 0,
                    },
                    cache: TileCacheConfig {
                        verify_reads: true,
                        ..TileCacheConfig::default()
                    },
                    ..SvcConfig::default()
                };
                let daemon = RankDaemon::new(Box::new(t), cfg);
                let client = daemon.client();
                let driver = std::thread::spawn(move || {
                    if r != 0 {
                        return Vec::new();
                    }
                    // tiny → small (evicts tiny) → tiny (evicts small,
                    // rebuilds from scratch).
                    let energies = [scale::tiny(), scale::small(), scale::tiny()]
                        .into_iter()
                        .map(|space| {
                            let id = client.submit(&spec(1, space, Variant::V5)).unwrap();
                            client.wait(id, TIMEOUT)
                        })
                        .collect::<Vec<_>>();
                    client.halt();
                    energies
                });
                daemon.run();
                let energies = driver.join().unwrap();
                let (hits, misses) = daemon.plan_stats();
                let out = (
                    energies,
                    hits,
                    misses,
                    daemon.plan_evictions(),
                    daemon.ga_stats().stale_reads(),
                );
                daemon.finish();
                out
            })
        })
        .collect();
    let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let [e1, e2, e3] = outs[0].0[..] else {
        panic!("rank 0 driver must report three energies")
    };
    for (e, e_ref, what) in [
        (e1, e_tiny, "tiny (fresh)"),
        (e2, e_small, "small (evicts tiny)"),
        (e3, e_tiny, "tiny (rebuilt after eviction)"),
    ] {
        assert!(rel_diff(e, e_ref) < 1e-12, "{what}: {e} vs {e_ref}");
    }
    for (r, out) in outs.iter().enumerate() {
        assert_eq!((out.1, out.2), (0, 3), "rank {r}: every lookup must miss");
        assert_eq!(out.3, 2, "rank {r}: each new geometry evicts the last");
        assert_eq!(out.4, 0, "rank {r}: stale reads off destroyed arrays");
    }
}

/// Two 2-rank-gang jobs over a real 4-rank TCP mesh: the gateway packs
/// them onto disjoint gangs `{0,1}` and `{2,3}` and they execute
/// concurrently — the driver-observed wall time for both is less than
/// the sum of the two jobs' individual build+run times, while each gang
/// still reproduces the serial reference energy and (with paranoid read
/// verification on) serves zero stale cached bytes.
#[test]
fn four_rank_socket_gangs_run_concurrently() {
    const RANKS: usize = 4;
    let e_small = reference(&scale::small());
    let handles: Vec<_> = SocketTransport::mesh(RANKS)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(r, sock)| {
            std::thread::spawn(move || {
                let cfg = SvcConfig {
                    cache: TileCacheConfig {
                        verify_reads: true,
                        ..TileCacheConfig::default()
                    },
                    ..SvcConfig::default()
                };
                let daemon = RankDaemon::new(Box::new(sock), cfg);
                let client = daemon.client();
                let driver = std::thread::spawn(move || {
                    if r != 0 {
                        return (0u64, 0.0, 0.0);
                    }
                    // Both jobs open at once (max_open 2): first-fit
                    // packing lands them on {0,1} and {2,3}.
                    let t0 = std::time::Instant::now();
                    let id1 = client
                        .submit(&spec_on(1, scale::small(), Variant::V5, 2))
                        .unwrap();
                    let id2 = client
                        .submit(&spec_on(2, scale::small(), Variant::V5, 2))
                        .unwrap();
                    let e1 = client.wait(id1, TIMEOUT);
                    let e2 = client.wait(id2, TIMEOUT);
                    let wall = t0.elapsed().as_nanos() as u64;
                    client.halt();
                    (wall, e1, e2)
                });
                daemon.run();
                let (wall, e1, e2) = driver.join().unwrap();
                let out = (
                    wall,
                    e1,
                    e2,
                    daemon.records(),
                    daemon.ga_stats().stale_reads(),
                );
                daemon.finish();
                out
            })
        })
        .collect();
    let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let (wall, e1, e2, ..) = outs[0];
    assert!(
        rel_diff(e1, e_small) < 1e-12,
        "gang {{0,1}}: {e1} vs {e_small}"
    );
    assert!(
        rel_diff(e2, e_small) < 1e-12,
        "gang {{2,3}}: {e2} vs {e_small}"
    );
    for (r, out) in outs.iter().enumerate() {
        let gang = if r < 2 { 0b0011 } else { 0b1100 };
        let recs = &out.3;
        assert_eq!(recs.len(), 1, "rank {r} must run exactly its gang's job");
        assert_eq!(recs[0].gang_mask, gang, "rank {r} gang mask");
        assert!(!recs[0].plan_hit, "rank {r}: first job on a gang is a miss");
        assert_eq!(out.4, 0, "rank {r} served stale cached reads");
    }
    // The concurrency win itself: both jobs together took less wall
    // time than running them one after the other would have (the sum of
    // each gang leader's build + run time).
    let serial_sum: u64 = [&outs[0].3[0], &outs[2].3[0]]
        .iter()
        .map(|rec| rec.build_ns + rec.run_ns)
        .sum();
    assert!(
        wall < serial_sum,
        "gangs did not overlap: wall {}ms vs serial sum {}ms",
        wall / 1_000_000,
        serial_sum / 1_000_000,
    );
}

/// Chaos over the gang control plane: two concurrent 2-rank-gang jobs
/// plus a queued full-mesh job behind them, with the fault schedule
/// dropping/duplicating/reordering the dispatch AMs and the per-gang
/// barrier traffic. Every job must still land on exactly its gang, in
/// seq order, with reference energies and zero stale reads.
#[test]
fn gang_dispatch_and_barriers_survive_chaos() {
    let seed = 0x5E47_1CE0_0002u64;
    let replay =
        format!("gang chaos seed {seed:#x} — replay: FaultPlan::named(\"service\", {seed:#x})");
    let e_tiny = reference(&scale::tiny());
    let handles: Vec<_> = SocketTransport::mesh(4)
        .unwrap()
        .into_iter()
        .map(|t| {
            let r = t.rank();
            let plan = FaultPlan::named("service", seed.wrapping_add(r as u64)).unwrap();
            let ft = FaultTransport::new(Box::new(t), plan);
            let armed = ft.armed_handle();
            std::thread::spawn(move || {
                let cfg = SvcConfig {
                    comm: chaos_cfg(),
                    cache: TileCacheConfig {
                        verify_reads: true,
                        ..TileCacheConfig::default()
                    },
                    ..SvcConfig::default()
                };
                let daemon = RankDaemon::new(Box::new(ft), cfg);
                let client = daemon.client();
                let driver = std::thread::spawn(move || {
                    if r != 0 {
                        return Vec::new();
                    }
                    // Two gang jobs fill the mesh; the full-mesh job
                    // queues until both gangs drain.
                    let id1 = client
                        .submit(&spec_on(1, scale::tiny(), Variant::V5, 2))
                        .unwrap();
                    let id2 = client
                        .submit(&spec_on(2, scale::tiny(), Variant::V5, 2))
                        .unwrap();
                    let id3 = client.submit(&spec(1, scale::tiny(), Variant::V3)).unwrap();
                    let e1 = client.wait(id1, TIMEOUT);
                    let e2 = client.wait(id2, TIMEOUT);
                    let e3 = client.wait(id3, TIMEOUT);
                    client.halt();
                    vec![e1, e2, e3]
                });
                daemon.run();
                let energies = driver.join().unwrap();
                let out = (
                    energies,
                    daemon.records(),
                    daemon.ga_stats().stale_reads(),
                    daemon.endpoint().stats().retries,
                );
                armed.store(false, Ordering::SeqCst);
                daemon.finish();
                out
            })
        })
        .collect();
    let outs: Vec<_> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| panic!("rank panicked: {replay}"))
        })
        .collect();
    for e in &outs[0].0 {
        assert!(rel_diff(*e, e_tiny) < 1e-12, "energy {e} drifted: {replay}");
    }
    for (r, out) in outs.iter().enumerate() {
        let gang = if r < 2 { 0b0011u64 } else { 0b1100 };
        let masks: Vec<u64> = out.1.iter().map(|j| j.gang_mask).collect();
        assert_eq!(masks, [gang, 0b1111], "rank {r} gang sequence: {replay}");
        assert_eq!(out.2, 0, "rank {r} served stale reads: {replay}");
    }
    let retries: u64 = outs.iter().map(|o| o.3).sum();
    assert!(retries > 0, "chaos schedule never forced a retry: {replay}");
}

// ---------------------------------------------------------------------------
// Gang-packing invariants: property tests over the pure gateway
// ---------------------------------------------------------------------------

mod packing {
    use comm::mask_members;
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};
    use svc::{Dispatch, Gateway, JobSpec, JobState, Variant, KIND_JOB};
    use tce::{scale, Kernel};

    const NR: usize = 4;

    fn spec_words(tenant: u32, ranks: usize) -> Vec<u64> {
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

    /// Checks every dispatch the gateway hands back: per-rank seq
    /// chains must stay contiguous (a hole would starve that rank's
    /// executor forever), gang masks must be contiguous non-empty
    /// windows with exactly one frame per member, and per-gang ordinals
    /// must count up from zero.
    struct Absorber {
        next_seq: Vec<u64>,
        ordinals: HashMap<u64, u64>,
        /// `(job id, gang mask)` of dispatched-but-uncompleted jobs, in
        /// dispatch order.
        open: VecDeque<(u64, u64)>,
        /// Tenant of every dispatch, in dispatch order (re-dispatches
        /// of a requeued job count again).
        tenants: Vec<u32>,
    }

    impl Absorber {
        fn new() -> Self {
            Self {
                next_seq: vec![0; NR],
                ordinals: HashMap::new(),
                open: VecDeque::new(),
                tenants: Vec::new(),
            }
        }

        fn absorb(&mut self, gw: &Gateway, ds: Vec<Dispatch>) -> Result<(), TestCaseError> {
            for d in ds {
                let mask = d.frames[0].1[2];
                prop_assert!(mask != 0, "empty gang dispatched");
                let w = mask >> mask.trailing_zeros();
                prop_assert_eq!(w & (w + 1), 0, "gang mask {:#b} not contiguous", mask);
                let members: Vec<usize> = mask_members(mask).collect();
                let mut franks: Vec<usize> = d.frames.iter().map(|(r, _)| *r).collect();
                franks.sort_unstable();
                prop_assert_eq!(&franks, &members, "one frame per gang member");
                for (r, words) in &d.frames {
                    prop_assert_eq!(words[0], self.next_seq[*r], "rank {} seq hole", r);
                    self.next_seq[*r] += 1;
                    prop_assert_eq!(words[1], KIND_JOB);
                    prop_assert_eq!(words[2], mask);
                    prop_assert_eq!(words[3], self.ordinals.get(&mask).copied().unwrap_or(0));
                }
                *self.ordinals.entry(mask).or_insert(0) += 1;
                let meta = gw
                    .report()
                    .into_iter()
                    .find(|m| m.job_id == d.job_id)
                    .expect("dispatched job must be in the table");
                self.tenants.push(meta.tenant);
                self.open.push_back((d.job_id, mask));
            }
            Ok(())
        }

        /// Complete the oldest open job: every member reports done.
        fn complete_front(&mut self, gw: &Gateway) -> Result<(), TestCaseError> {
            if let Some((id, mask)) = self.open.pop_front() {
                for r in mask_members(mask) {
                    let ds = gw.record_done(r, id, 0);
                    self.absorb(gw, ds)?;
                }
            }
            Ok(())
        }
    }

    /// The running set the gateway reports: disjoint contiguous gangs
    /// on live ranks, bounded by `max_open`.
    fn check_running(gw: &Gateway, max_open: usize) -> Result<(), TestCaseError> {
        let fenced = gw.fenced();
        let running: Vec<u64> = gw
            .report()
            .into_iter()
            .filter(|m| m.state == JobState::Running)
            .map(|m| m.gang_mask)
            .collect();
        prop_assert!(running.len() <= max_open, "open bound violated");
        let mut union = 0u64;
        for &m in &running {
            prop_assert_eq!(m & union, 0, "overlapping gangs: {:#b} in {:?}", m, running);
            prop_assert_eq!(m & fenced, 0, "gang {:#b} overlaps fenced {:#b}", m, fenced);
            union |= m;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of submit / complete / fence against the
        /// first-fit-decreasing packer: no overlapping or non-contiguous
        /// gangs, no gang on a fenced rank, no seq hole on any rank,
        /// `max_open` respected — and once everything completes, every
        /// job ends `Done`: fences are final, but rank 0 (whose own
        /// detector never declares it dead) is always live, and every
        /// request clamps to the largest live window.
        #[test]
        fn packing_invariants_hold_under_random_interleavings(
            ops in prop::collection::vec((0usize..7, 0usize..8usize, 1usize..6), 1..40),
            max_open in 1usize..5,
        ) {
            let gw = Gateway::new(NR, max_open, &[(1, 2), (2, 1)]);
            let mut ab = Absorber::new();
            for &(kind, arg, size) in &ops {
                match kind {
                    // Submits dominate the mix so queues actually fill.
                    0..=3 => {
                        let tenant = 1 + (arg % 3) as u32;
                        let (id, ds) = gw.submit(&spec_words(tenant, size % (NR + 2)));
                        prop_assert!(id.is_some());
                        ab.absorb(&gw, ds)?;
                    }
                    4 | 5 => ab.complete_front(&gw)?,
                    _ => {
                        let r = 1 + arg % (NR - 1);
                        let ds = gw.fence_rank(r);
                        // Jobs whose gang lost the rank are no longer
                        // open under their old dispatch.
                        ab.open.retain(|(_, m)| m & (1 << r) == 0);
                        ab.absorb(&gw, ds)?;
                    }
                }
                check_running(&gw, max_open)?;
            }
            // Drain on whatever mesh is left: everything must finish.
            while !ab.open.is_empty() {
                ab.complete_front(&gw)?;
                check_running(&gw, max_open)?;
            }
            for m in gw.report() {
                prop_assert_eq!(
                    m.state as u8, JobState::Done as u8,
                    "job {} stranded in {:?}", m.job_id, m.state
                );
            }
        }

        /// Weighted-fair dispatch survives kill/complete interleavings:
        /// with tenants weighted 2:1 and queues kept saturated, the
        /// weight-1 tenant never runs ahead of its share by more than
        /// one dispatch plus one per requeue (a requeued job's aborted
        /// dispatch is refunded, so its re-dispatch legitimately
        /// repeats the tenant).
        #[test]
        fn weighted_shares_survive_kill_interleavings(
            churn in prop::collection::vec((1usize..NR, any::<bool>()), 0..12),
            n in 3usize..8,
        ) {
            let gw = Gateway::new(NR, 1, &[(1, 2), (2, 1)]);
            let mut ab = Absorber::new();
            for _ in 0..n {
                let (_, ds) = gw.submit(&spec_words(1, 0));
                ab.absorb(&gw, ds)?;
                let (_, ds) = gw.submit(&spec_words(2, 0));
                ab.absorb(&gw, ds)?;
            }
            for &(r, fence) in &churn {
                if fence {
                    let ds = gw.fence_rank(r);
                    ab.open.retain(|(_, m)| m & (1 << r) == 0);
                    ab.absorb(&gw, ds)?;
                }
                ab.complete_front(&gw)?;
            }
            while !ab.open.is_empty() {
                ab.complete_front(&gw)?;
            }
            let slack = gw.requeued_jobs();
            let (mut t1, mut t2) = (0u64, 0u64);
            for &t in &ab.tenants {
                if t == 1 { t1 += 1 } else { t2 += 1 }
                prop_assert!(
                    t2 <= t1 + 1 + slack,
                    "weight-1 tenant ran ahead: {:?} (requeues {})", ab.tenants, slack
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery: starvation regression and the kill-mid-run requeue path
// ---------------------------------------------------------------------------

/// A fenced (but alive) rank receives no work while the rest of the mesh
/// serves: it runs nothing, waits quietly, and leaves on the halt frame.
/// (That an empty queue outlasts the starvation timeout without the
/// panic — an idle executor is not a starved one — is checked against a
/// short timeout in `daemon`'s unit tests.)
#[test]
fn fenced_rank_idles_without_tripping_the_starvation_panic() {
    let e_tiny = reference(&scale::tiny());
    let handles: Vec<_> = SocketTransport::mesh(2)
        .unwrap()
        .into_iter()
        .map(|t| {
            let r = t.rank();
            std::thread::spawn(move || {
                let daemon = RankDaemon::new(Box::new(t), SvcConfig::default());
                let client = daemon.client();
                let driver = std::thread::spawn(move || {
                    if r != 0 {
                        return 0.0;
                    }
                    let gw = client.gateway().expect("rank 0 hosts the gateway");
                    assert!(gw.fence_rank(1).is_empty(), "nothing running yet");
                    // Rank 1 now idles with an empty queue. Hold the
                    // mesh a while before the job (clamped onto rank 0
                    // alone) and the halt give it any frames.
                    std::thread::sleep(Duration::from_millis(100));
                    let id = client.submit(&spec(1, scale::tiny(), Variant::V5)).unwrap();
                    let e = client.wait(id, TIMEOUT);
                    client.halt();
                    e
                });
                daemon.run();
                let e = driver.join().unwrap();
                let recs = daemon.records();
                daemon.finish();
                (e, recs)
            })
        })
        .collect();
    let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(rel_diff(outs[0].0, e_tiny) < 1e-12, "fenced-mesh energy");
    assert_eq!(outs[0].1.len(), 1);
    assert_eq!(outs[0].1[0].gang_mask, 0b01, "job clamped onto rank 0");
    assert!(outs[1].1.is_empty(), "fenced rank must run nothing");
}

/// The tentpole end-to-end: a rank is killed while a 2-rank job is
/// running on its gang. The survivors' detectors confirm the death and
/// poison-release the broken gang's collectives; the surviving member
/// suppresses its garbage result and purges the poisoned plan; the
/// gateway fences the dead rank, requeues the job, and re-dispatches it
/// onto live ranks — where it completes with the exact reference
/// energy, as if the death had never happened.
///
/// Then the victim's transport is revived. A death is final: well past
/// any verdict the revival could race, a full-mesh job still packs on
/// the three survivors, matches its reference, and leaves the victim
/// fenced.
#[test]
fn mid_run_rank_kill_requeues_and_recovers_the_job() {
    const RANKS: usize = 4;
    const VICTIM: usize = 3;
    const DEAD_AFTER: Duration = Duration::from_millis(250);
    let seed = 0xDEAD_0001u64;
    let replay = format!(
        "recovery seed {seed:#x} — replay: FaultEvent::Kill{{at:1}} on rank {VICTIM}, armed at dispatch"
    );
    let e_tiny = reference(&scale::tiny());
    let e_small = reference(&scale::small());
    // The kill switch: rank 3's transport carries Kill{at:1} but starts
    // disarmed (frames flow). Rank 0's driver arms it the moment the
    // doomed job is dispatched, which blacks the rank out mid-job.
    let mut kill_switch: Option<std::sync::Arc<std::sync::atomic::AtomicBool>> = None;
    let transports: Vec<Box<dyn Transport>> = SocketTransport::mesh(RANKS)
        .unwrap()
        .into_iter()
        .map(|t| {
            let r = t.rank();
            let plan = if r == VICTIM {
                FaultPlan {
                    events: vec![comm::fault::FaultEvent::Kill { at: 1 }],
                    ..FaultPlan::clean(seed)
                }
            } else {
                FaultPlan::clean(seed.wrapping_add(r as u64))
            };
            let ft = FaultTransport::new(Box::new(t), plan);
            let armed = ft.armed_handle();
            armed.store(false, Ordering::SeqCst);
            if r == VICTIM {
                kill_switch = Some(armed);
            }
            Box::new(ft) as Box<dyn Transport>
        })
        .collect();
    let kill_switch = kill_switch.unwrap();
    let mut handles = Vec::new();
    for t in transports {
        let r = t.rank();
        let kill = kill_switch.clone();
        handles.push(std::thread::spawn(move || {
            let cfg = SvcConfig {
                comm: CommConfig {
                    suspect_after: Some(Duration::from_millis(60)),
                    dead_after: DEAD_AFTER,
                    ..chaos_cfg()
                },
                ..SvcConfig::default()
            };
            let daemon = RankDaemon::new(t, cfg);
            let client = daemon.client();
            let driver = std::thread::spawn(move || {
                if r != 0 {
                    return (0.0, 0.0, 0.0);
                }
                // Job 1 packs on {0,1}; job 2 (the doomed one) on {2,3}.
                let id1 = client
                    .submit(&spec_on(1, scale::tiny(), Variant::V5, 2))
                    .unwrap();
                let id2 = client
                    .submit(&spec_on(2, scale::small(), Variant::V5, 2))
                    .unwrap();
                // The gateway marked job 2 Running under the submit
                // lock, so the kill lands mid-job by construction.
                kill.store(true, Ordering::SeqCst);
                let e1 = client.wait(id1, TIMEOUT);
                let e2 = client.wait(id2, TIMEOUT);
                // Revive the victim, wait out two verdict windows, and
                // ask for the whole mesh.
                kill.store(false, Ordering::SeqCst);
                std::thread::sleep(2 * DEAD_AFTER);
                let id3 = client.submit(&spec(3, scale::tiny(), Variant::V5)).unwrap();
                let e3 = client.wait(id3, TIMEOUT);
                client.halt();
                (e1, e2, e3)
            });
            daemon.run();
            let energies = driver.join().unwrap();
            let gw_stats = daemon.gateway().map(|gw| (gw.fenced(), gw.requeued_jobs()));
            let detect = daemon.endpoint().stats();
            let out = (
                energies,
                gw_stats,
                daemon.records(),
                daemon.poisoned_runs(),
                daemon.plan_purges(),
                (detect.confirmed_deaths, detect.suspects),
            );
            daemon.finish();
            out
        }));
        if r == VICTIM {
            // The victim's daemon thread never halts (its mesh goes
            // dark); leak it like a dead process and join the rest.
            handles.pop();
        }
    }
    let outs: Vec<_> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| panic!("survivor panicked: {replay}"))
        })
        .collect();
    let (e1, e2, e3) = outs[0].0;
    assert!(
        rel_diff(e1, e_tiny) < 1e-12,
        "job 1 on the live gang drifted: {e1} vs {e_tiny}: {replay}"
    );
    assert!(
        rel_diff(e2, e_small) < 1e-12,
        "recovered job energy {e2} vs {e_small}: {replay}"
    );
    assert!(
        rel_diff(e3, e_tiny) < 1e-12,
        "post-revival full-mesh job drifted: {e3} vs {e_tiny}: {replay}"
    );
    // Gateway: the victim is still fenced after its revival and the
    // full-mesh job, and the doomed job was requeued.
    let (fenced, requeued) = outs[0].1.expect("rank 0 hosts the gateway");
    assert_eq!(fenced, 1 << VICTIM, "victim not fenced: {replay}");
    assert_eq!(requeued, 1, "doomed job not requeued once: {replay}");
    // Ranks 0 and 1 ran job 1 and the recovered job 2, both on {0,1},
    // then the full-mesh job on the survivors.
    for (r, out) in outs.iter().enumerate().take(2) {
        let masks: Vec<u64> = out.2.iter().map(|j| j.gang_mask).collect();
        assert_eq!(
            masks,
            [0b0011, 0b0011, 0b0111],
            "rank {r} gang sequence: {replay}"
        );
        assert_eq!(out.3, 0, "rank {r} run was not poisoned: {replay}");
    }
    // Rank 2 survived its broken gang: the poisoned run was suppressed
    // (no record, no report) and its plan purged; its one record is the
    // full-mesh job on the survivors.
    let masks: Vec<u64> = outs[2].2.iter().map(|j| j.gang_mask).collect();
    assert_eq!(masks, [0b0111], "rank 2 gang sequence: {replay}");
    assert_eq!(outs[2].3, 1, "rank 2 poisoned run not suppressed: {replay}");
    assert_eq!(outs[2].4, 1, "rank 2 poisoned plan not purged: {replay}");
    // Every survivor's detector confirmed the death.
    for (r, out) in outs.iter().enumerate() {
        let (deaths, suspects) = out.5;
        assert!(deaths >= 1, "rank {r} never confirmed the death: {replay}");
        assert!(suspects >= 1, "rank {r} never suspected: {replay}");
    }
}
