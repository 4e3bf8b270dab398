//! `svc-smoke` and `recovery`: one [`svc::RankDaemon`] per rank of a
//! 4-rank socket mesh, a job stream through the rank-0 gateway — on a
//! healthy mesh in the gang-scheduled configuration, and with the last
//! rank's process going dark mid-stream.

use crate::fragment::{check_coherent, check_energy, check_quiet, sum, Fragment};
use crate::launch::run_mesh;
use crate::{connect, reference, RANKS};
use comm::fault::{FaultEvent, FaultPlan, FaultTransport};
use comm::{CommConfig, Transport};
use global_arrays::TileCacheConfig;
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;
use svc::{JobSpec, JobState, RankDaemon, SvcConfig, Variant};
use tensor_kernels::rel_diff;

/// Workers each job asks for on every rank of its gang.
const JOB_WORKERS: usize = 2;

/// How long the tenant waits for one job. Well inside the mesh deadline:
/// a stuck service should fail by a panic naming the job.
const WAIT: Duration = Duration::from_secs(120);

/// The rank the recovery gate kills.
const VICTIM: usize = RANKS - 1;

/// One job: what its tenant saw of it, joined with the gateway's record.
struct Job {
    id: u64,
    energy: f64,
    e_ref: f64,
    /// Gang size the spec asked for (`0` = full mesh).
    want_ranks: usize,
    /// The gang it (last) ran on, and its execution ordinal there.
    gang: u64,
    ordinal: u64,
    /// The gateway saw every gang member's completion.
    closed: bool,
    done_ns: u64,
}

/// Everything rank 0 — gateway host and tenant — knows after a stream.
#[derive(Default)]
struct ServiceRun {
    jobs: Vec<Job>,
    /// `(plan hit, build ns)` of each job rank 0 executed.
    builds: Vec<(bool, u64)>,
    fenced: u64,
    requeued: u64,
    /// `Gateway::recovery_meta()`.
    first_fence_ns: u64,
    detect_span_ns: u64,
    requeued_ids: Vec<u64>,
}

fn tiny_job(tenant: u32, seed: Option<u64>, variant: Variant, ranks: usize) -> JobSpec {
    let mut space = tce::scale::tiny();
    space.seed = seed.unwrap_or(space.seed);
    JobSpec {
        tenant,
        space,
        kernels: vec![tce::Kernel::T2_7],
        variant,
        threads: JOB_WORKERS,
        prefetch: true,
        ranks,
    }
}

/// Two tenants at admission weights 2:1, at most two jobs open.
fn svc_config(comm: CommConfig, verify_reads: bool) -> SvcConfig {
    SvcConfig {
        comm,
        cache: TileCacheConfig {
            verify_reads,
            ..TileCacheConfig::default()
        },
        max_open: 2,
        weights: vec![(1, 2), (2, 1)],
        ..SvcConfig::default()
    }
}

/// The smoke keeps the stock timers — its zero-recovery gate reads a
/// retry as evidence of frame loss, and tiny jobs finish in milliseconds
/// — and runs the cache in paranoia mode: every hit re-fetched from the
/// owners and compared; a warm plan serving stale data is exactly the
/// failure this gate exists for.
fn smoke_config() -> SvcConfig {
    svc_config(CommConfig::default(), true)
}

/// The recovery gate arms the production failure detector tight (suspect
/// at 100 ms, dead at 500 ms over 20/80 ms retry timers — the same
/// proportions production would run, shrunk so the gate finishes in
/// seconds). `verify_reads` stays off: a tile cached before the death and
/// re-verified against the corpse reads poisoned zeros by design, which
/// would count as a stale hit; the 1e-12 energy gate on the replayed
/// jobs is the correctness check here, exactly as in the chaos gate's
/// kill schedules.
fn recovery_config() -> SvcConfig {
    let comm = CommConfig {
        retry_timeout: Duration::from_millis(20),
        retry_backoff_max: Duration::from_millis(80),
        suspect_after: Some(Duration::from_millis(100)),
        dead_after: Duration::from_millis(500),
        ..CommConfig::default()
    };
    svc_config(comm, false)
}

fn collect(daemon: &RankDaemon) -> Fragment {
    let (plan_hits, plan_misses) = daemon.plan_stats();
    let s = daemon.endpoint().stats();
    let mut f = Fragment::new(daemon.rank());
    for (name, v) in [
        ("plan_hits", plan_hits),
        ("plan_misses", plan_misses),
        ("jobs_run", daemon.records().len() as u64),
        ("retries", s.retries),
        ("timeouts", s.timeouts),
        ("dups", s.dup_requests + s.dup_replies),
        ("stale_reads", daemon.ga_stats().stale_reads()),
        ("suspects", s.suspects),
        ("confirmed_deaths", s.confirmed_deaths),
        ("poisoned_runs", daemon.poisoned_runs()),
    ] {
        f.add(name, v);
    }
    f
}

/// A member rank: serve until the gateway's halt frame.
fn member_rank(transport: Box<dyn Transport>, cfg: SvcConfig) -> Fragment {
    let daemon = RankDaemon::new(transport, cfg);
    daemon.run();
    let f = collect(&daemon);
    daemon.finish();
    f
}

pub fn smoke_member(rank: usize, port: u16) -> Fragment {
    member_rank(Box::new(connect(rank, port)), smoke_config())
}

/// Rank 0: hosts the gateway, and one tenant thread beside the executor
/// submits the whole mix open-loop from a single thread (so the packing
/// is reproducible; the admission controller owns pacing), waits each
/// job out, and halts the service.
fn gateway_rank(port: u16, cfg: SvcConfig, mix: Vec<(JobSpec, f64)>) -> (Fragment, ServiceRun) {
    let daemon = RankDaemon::new(Box::new(connect(0, port)), cfg);
    let client = daemon.client();
    let tenant = std::thread::spawn(move || {
        let ids: Vec<u64> = (mix.iter())
            .map(|(spec, _)| client.submit(spec).expect("gateway rejected a gate job"))
            .collect();
        let energies: Vec<f64> = ids.iter().map(|&id| client.wait(id, WAIT)).collect();
        client.halt();
        (mix, ids, energies)
    });
    daemon.run();
    let (mix, ids, energies) = tenant.join().expect("tenant thread panicked");
    let frag = collect(&daemon);
    let gw = daemon.gateway().expect("rank 0 hosts the gateway");
    let report = gw.report();
    let job = |((spec, e_ref), (id, energy)): ((JobSpec, f64), (u64, f64))| {
        let m = (report.iter().find(|m| m.job_id == id)).expect("the gateway issued this id");
        Job {
            id,
            energy,
            e_ref,
            want_ranks: spec.ranks,
            gang: m.gang_mask,
            ordinal: m.ordinal,
            closed: m.state == JobState::Done,
            done_ns: m.done_ns,
        }
    };
    let (first_fence_ns, detect_span_ns, requeued_ids) = gw.recovery_meta();
    let run = ServiceRun {
        jobs: mix
            .into_iter()
            .zip(ids.into_iter().zip(energies))
            .map(job)
            .collect(),
        builds: (daemon.records().iter())
            .map(|j| (j.plan_hit, j.build_ns))
            .collect(),
        fenced: gw.fenced(),
        requeued: gw.requeued_jobs(),
        first_fence_ns,
        detect_span_ns,
        requeued_ids,
    };
    // Collective teardown before the children are reaped: they block in
    // their own `finish()` barrier until rank 0 enters it. In the
    // recovery gate that barrier spans the dead rank; the detector's scan
    // poison-releases it, so this returns instead of hanging.
    daemon.finish();
    (frag, run)
}

fn worst_rel_diff(jobs: &[Job]) -> f64 {
    (jobs.iter().map(|j| rel_diff(j.energy, j.e_ref))).fold(0.0, f64::max)
}

/// Every job's energy to 1e-12, and every job closed by the gateway.
fn check_jobs(run: &ServiceRun) -> Result<(), String> {
    for j in &run.jobs {
        check_energy(&format!("job {}", j.id), j.e_ref, Some(j.energy))?;
    }
    let closed = run.jobs.iter().filter(|j| j.closed).count();
    if closed != run.jobs.len() {
        return Err(format!(
            "gateway closed {closed} of {} jobs",
            run.jobs.len()
        ));
    }
    Ok(())
}

// ---- svc-smoke ------------------------------------------------------

/// Two 2-rank-gang jobs submitted back-to-back (they pack onto disjoint
/// gangs and run concurrently), then one full-mesh job per tenant.
fn smoke_mix(e_tiny: f64) -> Vec<(JobSpec, f64)> {
    [
        (1, Variant::V5, 2),
        (2, Variant::V5, 2),
        (1, Variant::V3, 0),
        (2, Variant::V5, 0),
    ]
    .map(|(tenant, variant, ranks)| (tiny_job(tenant, None, variant, ranks), e_tiny))
    .into()
}

pub fn smoke(port: u16) -> Result<(), String> {
    let e_tiny = reference(&tce::scale::tiny());
    eprintln!("# reference energy (tiny): {e_tiny:.15}");
    let role = ("svc-smoke", &[][..]);
    let (frags, run) = run_mesh("mesh_gate svc-smoke", port, role, None, move || {
        gateway_rank(port, smoke_config(), smoke_mix(e_tiny))
    })?;
    check_service(&run, &frags).map_err(|e| format!("smoke: {e}"))?;
    let gangs: Vec<u64> = (run.jobs.iter().map(|j| j.gang))
        .filter(|g| g.count_ones() == 2)
        .collect();
    let [a, b] = gangs[..] else {
        return Err(format!(
            "smoke: expected two 2-rank-gang jobs, got {gangs:?}"
        ));
    };
    println!(
        "SERVICE SMOKE OK: {} jobs, 2 tenants, gangs {a:#b}/{b:#b}, worst rel diff {:.2e}, \
         0 retries, 0 stale reads, {} plan hits",
        run.jobs.len(),
        worst_rel_diff(&run.jobs),
        sum(&frags, "plan_hits"),
    );
    Ok(())
}

/// The gates of a healthy gang-scheduled stream, independent of which
/// gangs the packer actually chose: 1e-12 energies, zero recovery
/// activity and zero stale reads, well-formed gang fields on every job
/// (non-empty in-mesh mask of exactly the requested size, dense
/// per-gang ordinals), and per-rank plan-cache/jobs-run counters
/// matching what the dispatched gang assignment predicts: a rank runs
/// exactly the jobs whose mask includes it and builds one plan per
/// distinct `(gang mask, geometry)` pair it served.
fn check_service(run: &ServiceRun, frags: &[Fragment]) -> Result<(), String> {
    check_jobs(run)?;
    check_quiet(frags)?;
    check_coherent(frags)?;

    // Gang well-formedness against what each job asked for.
    let mut ordinals: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for j in &run.jobs {
        let want = if j.want_ranks == 0 {
            RANKS
        } else {
            j.want_ranks.min(RANKS)
        };
        if j.gang == 0 || j.gang >> RANKS != 0 || j.gang.count_ones() != want as u32 {
            return Err(format!(
                "job {} requested {want} ranks but ran on malformed gang {:#b}",
                j.id, j.gang
            ));
        }
        ordinals.entry(j.gang).or_default().push(j.ordinal);
    }
    for (g, mut ords) in ordinals {
        ords.sort_unstable();
        if ords.iter().enumerate().any(|(i, &o)| o != i as u64) {
            return Err(format!(
                "gang {g:#b} ordinals not dense from zero: {ords:?}"
            ));
        }
    }

    // Per-rank execution and plan-cache counters, predicted from the
    // actual gang assignment (equal reference energies standing for
    // equal geometries).
    for f in frags {
        let mine = || run.jobs.iter().filter(|j| j.gang >> f.rank & 1 == 1);
        let plans: HashSet<(u64, u64)> = mine().map(|j| (j.gang, j.e_ref.to_bits())).collect();
        let (want_jobs, want_misses) = (mine().count() as u64, plans.len() as u64);
        let [ran, hits, misses] = ["jobs_run", "plan_hits", "plan_misses"].map(|n| f.get(n));
        if ran != want_jobs {
            return Err(format!(
                "rank {} executed {ran} jobs, its gangs carried {want_jobs}",
                f.rank
            ));
        }
        if misses != want_misses || hits != want_jobs - want_misses {
            return Err(format!(
                "rank {}: plan cache {hits}h/{misses}m, expected {}h/{want_misses}m — \
                 repeat submissions are not reusing gang-scoped plans",
                f.rank,
                want_jobs - want_misses,
            ));
        }
    }

    // The plan-cache effect on rank 0's own records: a hit job's build
    // phase must be far cheaper than a miss's collective build.
    let build_avg = |hit: bool| {
        let v: Vec<u64> = (run.builds.iter())
            .filter(|b| b.0 == hit)
            .map(|b| b.1)
            .collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
    };
    let (miss_build, hit_build) = (build_avg(false), build_avg(true));
    if hit_build > 0.0 && miss_build > 0.0 && hit_build * 5.0 >= miss_build {
        return Err(format!(
            "plan hits are not cheap: hit build {:.3} ms vs miss build {:.3} ms",
            hit_build / 1e6,
            miss_build / 1e6
        ));
    }
    Ok(())
}

// ---- recovery -------------------------------------------------------

/// Six full-mesh tiny-geometry jobs with *distinct* fill seeds, so every
/// job is a plan miss (geometry is part of the plan key) with its own
/// in-process reference energy — replayed work is checked against ground
/// truth per job, never against another job's warm state. Tenants
/// alternate to keep both admission queues live across the fence.
fn recovery_mix() -> Vec<(JobSpec, f64)> {
    (0..6u64)
        .map(|i| {
            let variant = if i % 2 == 0 { Variant::V5 } else { Variant::V3 };
            let spec = tiny_job(1 + (i % 2) as u32, Some(0xA110 + i), variant, 0);
            let e_ref = reference(&spec.space);
            (spec, e_ref)
        })
        .collect()
}

/// A member rank of the recovery mesh. The victim's mesh goes dark (both
/// directions) at its `kill_at`-th frame arrival — a process death as the
/// rest of the mesh observes one. Its daemon then blocks forever on the
/// dead mesh; the parent kills the process, the multi-process equivalent
/// of the in-process test leaking the victim's thread.
pub fn recovery_member(rank: usize, port: u16, kill_at: u64, seed: u64) -> Fragment {
    let mut transport: Box<dyn Transport> = Box::new(connect(rank, port));
    if rank == VICTIM {
        let plan = FaultPlan {
            events: vec![FaultEvent::Kill { at: kill_at }],
            ..FaultPlan::clean(seed)
        };
        transport = Box::new(FaultTransport::new(transport, plan));
    }
    member_rank(transport, recovery_config())
}

/// The kill-mid-run recovery gate: bring up the service with the last
/// rank's transport scripted to die, stream the six-job mix through it,
/// and require the full survival story.
pub fn recovery(port: u16, kill_at: u64, seed: u64) -> Result<(), String> {
    let replay = format!("replay: mesh_gate recovery --kill-at {kill_at} --seed {seed:x}");
    println!("# recovery: {RANKS} ranks, victim rank {VICTIM} dies at frame {kill_at} ({replay})");
    let mix = recovery_mix();
    let extra = [kill_at.to_string(), seed.to_string()];
    // The victim's process stays blocked on its dark mesh and is killed
    // like the dead rank it is simulating; the survivors exit on their
    // own, and theirs are the fragments that come back.
    let (frags, run) = run_mesh(
        &replay,
        port,
        ("recovery", &extra),
        Some(VICTIM),
        move || gateway_rank(port, recovery_config(), mix),
    )?;
    check_recovery(&run, &frags).map_err(|e| format!("recovery: {e}; {replay}"))?;

    let recover_ns = (run.jobs.iter().filter(|j| run.requeued_ids.contains(&j.id)))
        .map(|j| j.done_ns.saturating_sub(run.first_fence_ns))
        .max()
        .unwrap_or(0);
    let poisoned = sum(&frags, "poisoned_runs");
    println!(
        "RECOVERY OK: {} jobs survived rank {VICTIM}'s death at frame {kill_at}: \
         {n}/{n} survivors confirmed it, {} job(s) requeued and replayed \
         off the fenced gang, detect <= {:.0} ms, \
         recover {:.0} ms, {poisoned} poisoned runs suppressed, worst rel diff {:.2e}, 0 stale reads",
        run.jobs.len(),
        run.requeued,
        run.detect_span_ns as f64 / 1e6,
        recover_ns as f64 / 1e6,
        worst_rel_diff(&run.jobs),
        n = frags.len(),
    );
    Ok(())
}

/// Death confirmed by every survivor, victim fenced alone, in-flight
/// jobs requeued and replayed off the corpse's gang to 1e-12, poisoned
/// runs suppressed, zero stale reads. `frags` are the survivors'.
fn check_recovery(run: &ServiceRun, frags: &[Fragment]) -> Result<(), String> {
    check_jobs(run)?;
    if run.fenced != 1u64 << VICTIM {
        return Err(format!(
            "fenced mask {:#b}, expected rank {VICTIM} alone",
            run.fenced
        ));
    }
    if run.requeued == 0 {
        return Err(
            "the kill landed in dead air — no job was caught running on the broken mesh; \
             move --kill-at into the stream"
                .into(),
        );
    }
    for j in &run.jobs {
        if run.requeued_ids.contains(&j.id) && j.gang >> VICTIM & 1 != 0 {
            return Err(format!(
                "requeued job {} replayed on a gang {:#b} that still contains the corpse",
                j.id, j.gang
            ));
        }
    }
    for f in frags {
        let (suspects, deaths) = (f.get("suspects"), f.get("confirmed_deaths"));
        if deaths == 0 || suspects == 0 {
            return Err(format!(
                "survivor rank {} never confirmed the death ({suspects} suspects, {deaths} \
                 deaths)",
                f.rank
            ));
        }
    }
    if sum(frags, "poisoned_runs") == 0 {
        return Err(
            "no survivor suppressed a poisoned run — the doomed dispatch vanished instead of \
             being survived (or the kill landed on the job's last frames, after the survivors' \
             final collective: move --kill-at mid-job)"
                .into(),
        );
    }
    check_coherent(frags)
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: f64 = -1.009241245750222;
    const OFF: f64 = E * (1.0 + 2e-12);

    fn run_of(jobs: &[(u64, usize, u64, u64)]) -> ServiceRun {
        let job = |&(id, want_ranks, gang, ordinal)| Job {
            id,
            energy: E,
            e_ref: E,
            want_ranks,
            gang,
            ordinal,
            closed: true,
            done_ns: 3,
        };
        ServiceRun {
            jobs: jobs.iter().map(job).collect(),
            builds: vec![(false, 9_000_000), (true, 40_000), (true, 60_000)],
            ..ServiceRun::default()
        }
    }

    fn frags(ranks: usize, counters: &[(&str, u64)]) -> Vec<Fragment> {
        let all = "plan_hits plan_misses jobs_run retries timeouts dups stale_reads suspects \
                   confirmed_deaths poisoned_runs";
        let frag = |rank| {
            let mut f = Fragment::new(rank);
            all.split_whitespace().for_each(|name| f.add(name, 0));
            counters.iter().for_each(|(name, v)| f.set(name, *v));
            f
        };
        (0..ranks).map(frag).collect()
    }

    /// The smoke's shape: jobs 1 and 2 on gangs {0,1} and {2,3}, jobs 3
    /// and 4 on the full mesh; every rank ran three jobs on two plans.
    fn good_smoke() -> (ServiceRun, Vec<Fragment>) {
        let (gangs, full) = ([(1, 2, 0b0011, 0), (2, 2, 0b1100, 0)], 0b1111);
        let jobs = [gangs[0], gangs[1], (3, 0, full, 0), (4, 0, full, 1)];
        let ran = [("jobs_run", 3), ("plan_misses", 2), ("plan_hits", 1)];
        (run_of(&jobs), frags(RANKS, &ran))
    }

    /// The recovery gate's shape: job 2 was caught on the full mesh when
    /// rank 3 died and replayed on {0,1,2}; every survivor saw the death,
    /// rank 0 is the one that suppressed a run.
    fn good_recovery() -> (ServiceRun, Vec<Fragment>) {
        let mut run = run_of(&[(1, 0, 0b1111, 0), (2, 0, 0b0111, 0), (3, 0, 0b0111, 1)]);
        (run.fenced, run.requeued, run.requeued_ids) = (0b1000, 1, vec![2]);
        let mut frags = frags(VICTIM, &[("suspects", 2), ("confirmed_deaths", 1)]);
        frags[0].set("poisoned_runs", 1);
        (run, frags)
    }

    type Fixture = fn() -> (ServiceRun, Vec<Fragment>);
    type Gate = fn(&ServiceRun, &[Fragment]) -> Result<(), String>;
    type Edit = fn(&mut ServiceRun, &mut [Fragment]);

    /// Break a passing fixture one way at a time; each must fail its gate
    /// with the expected message.
    fn each_fires(gate: Gate, good: Fixture, cases: &[(Edit, &str)]) {
        let (run, frags) = good();
        assert_eq!(gate(&run, &frags), Ok(()), "the fixture itself must pass");
        for (i, (edit, want)) in cases.iter().enumerate() {
            let (mut run, mut frags) = good();
            edit(&mut run, &mut frags);
            let err = gate(&run, &frags).expect_err(want);
            assert!(err.contains(want), "case {i}: wanted `{want}`, got `{err}`");
        }
    }

    #[test]
    fn every_gate_of_the_healthy_stream_fires() {
        let cases: &[(Edit, &str)] = &[
            (|r, _| r.jobs[1].energy = OFF, "job 2: energy"),
            (|r, _| r.jobs[0].closed = false, "closed 3 of 4 jobs"),
            (|_, f| f[2].set("retries", 1), "1 retries, 0 dups"),
            (|_, f| f[0].set("dups", 2), "0 retries, 2 dups"),
            (|_, f| f[3].set("stale_reads", 1), "1 cached reads"),
            // Masks of the wrong size, empty, and outside the mesh.
            (|r, _| r.jobs[0].gang = 0b0111, "job 1 requested 2 ranks"),
            (|r, _| r.jobs[0].gang = 0, "job 1 requested 2 ranks"),
            (|r, _| r.jobs[0].gang = 0b11_0000, "malformed gang 0b110000"),
            (|r, _| r.jobs[2].gang = 0b0111, "job 3 requested 4 ranks"),
            // An ordinal hole, and a repeat.
            (|r, _| r.jobs[3].ordinal = 2, "gang 0b1111 ordinals not"),
            (|r, _| r.jobs[3].ordinal = 0, "dense from zero: [0, 0]"),
            (|_, f| f[1].set("jobs_run", 4), "rank 1 executed 4 jobs"),
            // A full-mesh repeat that rebuilt its plan instead of hitting.
            (|_, f| f[0].set("plan_hits", 2), "rank 0: plan cache 2h/2m"),
            (|_, f| f[2].set("plan_misses", 3), "3m, expected 1h/2m"),
            (|r, _| r.builds[0].1 = 200_000, "plan hits are not cheap"),
        ];
        each_fires(check_service, good_smoke, cases);
    }

    #[test]
    fn every_link_of_the_survival_story_is_gated() {
        let cases: &[(Edit, &str)] = &[
            (|r, _| r.jobs[1].energy = OFF, "job 2: energy"),
            (|r, _| r.jobs[2].closed = false, "closed 2 of 3 jobs"),
            (|r, _| r.fenced = 0b1100, "expected rank 3 alone"),
            (|r, _| r.requeued = 0, "landed in dead air"),
            (|r, _| r.jobs[1].gang = 0b1111, "requeued job 2 replayed"),
            (|_, f| f[1].set("confirmed_deaths", 0), "rank 1 never"),
            (|_, f| f[2].set("suspects", 0), "survivor rank 2 never"),
            (|_, f| f[0].set("poisoned_runs", 0), "no survivor"),
            (|_, f| f[0].set("stale_reads", 1), "1 cached reads"),
        ];
        each_fires(check_recovery, good_recovery, cases);
    }
}
