//! The service workload: two `svc::RankDaemon`s over sockets serve a
//! closed loop of two clients — tenant 1 on rank 0 through the in-process
//! gateway, tenant 2 on rank 1 through Submit/Status AMs — each sending
//! its next small job only when the previous one returned.

use crate::compute::{pick_problem, Problem, ENERGY_TOL};
use crate::counts::{check_valid, Counts, C};
use crate::probes::{self, Effort};
use crate::spans::{self, Recorder, Span};
use crate::spec::{Shape, Workload};
use crate::stats::{max_over_mean, median, ms, ns_to_us, ratio};
use crate::{connect_mesh, free_port_base, progress, Outcome, RunArgs, Sessions};
use comm::SplitMix64;
use parsec_rt::{NativeRuntime, SchedPolicy, TilePool};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use svc::{JobRecord, JobSpec, RankDaemon, SvcConfig, Variant};
use tce::{Kernel, TileSpace};
use tensor_kernels::rel_diff;

/// Geometries the job stream draws from (plans stay cache-resident).
const POOL: usize = 4;
/// A job that has not returned after this long has failed (and
/// `Client::wait` ends the run).
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// One job as its client saw it.
struct JobSample {
    id: u64,
    submit_ns: u64,
    latency_ns: u64,
    ok: bool,
}

#[derive(Default)]
struct ClientWindow {
    jobs: Vec<JobSample>,
    wall_s: f64,
    counts: Counts,
    get_lat_ns: Vec<u64>,
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    untraced: ClientWindow,
    traced: ClientWindow,
    spans: Vec<Span>,
    records: Vec<JobRecord>,
    /// Rank 0 only.
    metas: Vec<svc::JobMeta>,
    utilization: Vec<f64>,
    totals: Counts,
}

#[derive(Clone, Copy)]
struct Plan {
    warmups: usize,
    /// Seconds (or, in smoke runs, jobs) per window; `None` skips it.
    untraced: Option<f64>,
    traced: Option<f64>,
    smoke: bool,
}

struct Stream<'a> {
    tenant: u32,
    pool: &'a [Problem],
    shape: Shape,
    rng: SplitMix64,
    sent: u64,
}

impl Stream<'_> {
    /// The next job: a geometry drawn from the pool, variants
    /// alternating V5/V3, and the energy its result must match.
    fn next(&mut self) -> (JobSpec, f64) {
        let p = &self.pool[(self.rng.next_u64() % self.pool.len() as u64) as usize];
        self.sent += 1;
        let spec = JobSpec {
            tenant: self.tenant,
            space: p.cfg.clone(),
            kernels: vec![Kernel::T2_7],
            variant: if self.sent % 2 == 1 {
                Variant::V5
            } else {
                Variant::V3
            },
            threads: self.shape.workers,
            prefetch: true,
            ranks: self.shape.ranks,
        };
        (spec, p.e_ref)
    }
}

fn one_job(client: &svc::Client, stream: &mut Stream, rec: &mut Recorder) -> JobSample {
    let (spec, e_ref) = stream.next();
    let t = Instant::now();
    let job = rec.begin("svc.job", None, stream.sent);
    let s = rec.begin("svc.submit", job, stream.sent);
    let id = client.submit(&spec);
    rec.end(s);
    let submit_ns = t.elapsed().as_nanos() as u64;
    let w = rec.begin("svc.wait", job, stream.sent);
    let energy = id.map(|id| client.wait(id, JOB_DEADLINE));
    rec.end(w);
    rec.end(job);
    progress();
    JobSample {
        id: id.unwrap_or(u64::MAX),
        submit_ns,
        latency_ns: t.elapsed().as_nanos() as u64,
        ok: energy.is_some_and(|e| rel_diff(e_ref, e) <= ENERGY_TOL),
    }
}

#[allow(clippy::too_many_arguments)]
fn client_main(
    daemon: &RankDaemon,
    mut stream: Stream,
    t0: Instant,
    origin: Instant,
    plan: Plan,
    gate: &Barrier,
    out: &mut RankOut,
) {
    let client = daemon.client();
    let rank = daemon.rank();
    let mut rec = Recorder::new(origin, rank, false);
    for _ in 0..plan.warmups {
        one_job(&client, &mut stream, &mut rec);
    }
    out.setup_s = t0.elapsed().as_secs_f64();
    let ep = daemon.endpoint();
    let counts = || Counts::read(ep, daemon.ga_stats(), None);
    for (budget, traced) in [(plan.untraced, false), (plan.traced, true)] {
        let Some(budget) = budget else { continue };
        rec.set_enabled(traced);
        gate.wait();
        let before = counts();
        ep.take_latencies();
        let mut w = ClientWindow::default();
        let start = Instant::now();
        while if plan.smoke {
            w.jobs.len() < 3
        } else {
            start.elapsed().as_secs_f64() < budget
        } {
            w.jobs.push(one_job(&client, &mut stream, &mut rec));
        }
        w.wall_s = start.elapsed().as_secs_f64();
        gate.wait();
        w.counts = counts().since(&before);
        w.get_lat_ns = ep.take_latencies();
        ep.take_trace();
        *(if traced {
            &mut out.traced
        } else {
            &mut out.untraced
        }) = w;
    }
    out.spans = rec.spans;
}

/// One daemon lifetime: bring the mesh and daemons up, warm the plan
/// cache, run the windows, halt, tear down.
fn session(shape: Shape, pool: &[Problem], seed: u64, origin: Instant, plan: Plan) -> Vec<RankOut> {
    let port = free_port_base(shape.ranks);
    let gate = Barrier::new(shape.ranks);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let mut done_rx = Some(done_rx);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.ranks)
            .map(|r| {
                let (gate, done_tx, done_rx) = (
                    &gate,
                    done_tx.clone(),
                    if r == 0 { done_rx.take() } else { None },
                );
                s.spawn(move || {
                    let t0 = Instant::now();
                    let transport = connect_mesh(r, shape.ranks, port);
                    let daemon = RankDaemon::new(Box::new(transport), SvcConfig::default());
                    let mut out = RankOut::default();
                    std::thread::scope(|s2| {
                        let (daemon, out) = (&daemon, &mut out);
                        s2.spawn(move || {
                            let stream = Stream {
                                tenant: r as u32 + 1,
                                pool,
                                shape,
                                rng: SplitMix64::new(seed ^ (0x7E4A47 * (r as u64 + 1))),
                                sent: 0,
                            };
                            client_main(daemon, stream, t0, origin, plan, gate, out);
                            // The service owner (rank 0) halts once
                            // every other tenant has finished.
                            match done_rx {
                                Some(rx) => {
                                    for _ in 1..shape.ranks {
                                        rx.recv().expect("a client thread died");
                                    }
                                    out.utilization = daemon
                                        .gateway()
                                        .map(|g| g.utilization())
                                        .unwrap_or_default();
                                    daemon.client().halt();
                                }
                                None => done_tx.send(()).expect("rank 0 client died"),
                            }
                        });
                        daemon.run();
                    });
                    out.records = daemon.records();
                    out.metas = daemon.job_report();
                    out.totals = Counts::read(daemon.endpoint(), daemon.ga_stats(), None);
                    daemon.finish();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

struct LibRuns {
    job_s: Vec<f64>,
    engine_ms: Vec<f64>,
    tasks: u64,
    busy_ratio: f64,
    failed: u64,
}

/// The plain library path for the same job stream: prebuilt workspaces
/// and graphs (what the plan cache holds), one thread, no comm, no svc.
fn library_jobs(pool: &[Problem], seed: u64, min_s: f64) -> LibRuns {
    let tile_pool = Arc::new(TilePool::default());
    let plans: Vec<_> = pool
        .iter()
        .map(|p| {
            [Variant::V5, Variant::V3].map(|v| {
                ccsd::build_graph_pooled(
                    p.ins.clone(),
                    v.cfg(),
                    Some(p.ws.clone()),
                    tile_pool.clone(),
                )
            })
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    let (warm, min_jobs) = (8, 8);
    let mut out = LibRuns {
        job_s: Vec::new(),
        engine_ms: Vec::new(),
        tasks: 0,
        busy_ratio: 0.0,
        failed: 0,
    };
    let (mut busy, mut engine) = (0u64, 0u64);
    let mut t0 = Instant::now();
    for i in 0.. {
        if i == warm {
            t0 = Instant::now();
        }
        if i >= warm + min_jobs && t0.elapsed().as_secs_f64() >= min_s {
            break;
        }
        let which = (rng.next_u64() % pool.len() as u64) as usize;
        let (ws, graphs) = (&pool[which].ws, &plans[which]);
        let t = Instant::now();
        ws.reset_output();
        let report = NativeRuntime::new(1)
            .policy(SchedPolicy::PriorityFifo)
            .run(&graphs[i % 2]);
        let e = tce::energy(ws);
        if i >= warm {
            out.job_s.push(t.elapsed().as_secs_f64());
            out.engine_ms.push(ms(report.wall));
            out.tasks += report.tasks;
            busy += report.trace.spans().iter().map(|s| s.len()).sum::<u64>();
            engine += report.wall.as_nanos() as u64;
            out.failed += (rel_diff(pool[which].e_ref, e) > ENERGY_TOL) as u64;
        }
    }
    out.busy_ratio = ratio(busy as f64, engine as f64);
    progress();
    out
}

fn latencies_ms(ranks: &[RankOut], traced: bool) -> Vec<f64> {
    ranks
        .iter()
        .flat_map(|r| {
            if traced {
                &r.traced.jobs
            } else {
                &r.untraced.jobs
            }
        })
        .map(|j| j.latency_ns as f64 / 1e6)
        .collect()
}

/// Jobs per second of a window: each client's completions over its own
/// elapsed time, summed (clients run concurrently).
fn throughput(ranks: &[RankOut], traced: bool) -> f64 {
    ranks
        .iter()
        .map(|r| if traced { &r.traced } else { &r.untraced })
        .map(|w| ratio(w.jobs.len() as f64, w.wall_s))
        .sum()
}

fn failed_jobs(ranks: &[RankOut]) -> (u64, u64) {
    let jobs = || {
        ranks
            .iter()
            .flat_map(|r| r.untraced.jobs.iter().chain(&r.traced.jobs))
    };
    (
        jobs().count() as u64,
        jobs().filter(|j| !j.ok).count() as u64,
    )
}

pub fn run(w: &Workload, a: &RunArgs) -> Result<Outcome, String> {
    let shape = w.shape;
    let origin = Instant::now();
    let pool: Vec<Problem> = (0..POOL as u64)
        .map(|k| {
            pick_problem(
                &shape,
                tce::util::splitmix64(a.seed.wrapping_add(k)),
                a.smoke,
            )
        })
        .collect();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "job pool: occ {} virt {} tile {} irreps 2, geometry seeds {}",
        shape.occ,
        shape.virt,
        pool[0].cfg.tile_size,
        pool.iter()
            .map(|p| format!("{:#x}", p.cfg.seed))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let warmups = if a.smoke { 2 } else { 20 };

    if !a.trace {
        // See `Sessions`: a daemon lifetime and a slice of the library
        // baseline per session, medians over sessions.
        let mut sessions = Sessions::default();
        let count = Sessions::count(a.smoke);
        for k in 0..count as u64 {
            let plan = Plan {
                warmups,
                untraced: Some(a.seconds / count as f64),
                traced: None,
                smoke: a.smoke,
            };
            let ranks = session(shape, &pool, a.seed.wrapping_add(k), origin, plan);
            check_valid(ranks.iter().map(|r| &r.totals))?;
            let lib = library_jobs(
                &pool,
                a.seed.wrapping_add(k),
                if a.smoke { 0.0 } else { 0.3 },
            );
            sessions.push(
                ranks[0].setup_s,
                &latencies_ms(&ranks, false),
                throughput(&ranks, false),
                &lib.job_s,
            );
            let (attempted, failed) = failed_jobs(&ranks);
            out.attempted += attempted + lib.job_s.len() as u64;
            out.failed += failed + lib.failed;
        }
        out.samples = sessions.samples;
        out.notes.push(sessions.note());
        out.metrics = sessions.metrics();
        return Ok(out);
    }

    let plan = Plan {
        warmups,
        untraced: Some(a.seconds * 0.3),
        traced: Some(a.seconds * 0.3),
        smoke: a.smoke,
    };
    let mut ranks = session(shape, &pool, a.seed, origin, plan);
    check_valid(ranks.iter().map(|r| &r.totals))?;
    let effort = Effort::of(a.smoke);
    let mut probe_rec = Recorder::new(origin, 0, true);
    let (kp, idle, inspect_ms) = probes::standalone(
        &pool[0].ins,
        &TileSpace::build(&pool[0].cfg),
        shape,
        effort,
        &mut probe_rec,
    );
    let lib = library_jobs(&pool, a.seed, if a.smoke { 0.0 } else { 1.0 });

    // Join the three views of every traced job: the client's clock, the
    // gateway's transitions, and the leader rank's execution record.
    let metas: HashMap<u64, &svc::JobMeta> = ranks[0].metas.iter().map(|m| (m.job_id, m)).collect();
    let records = |r: usize| -> HashMap<u64, &JobRecord> {
        ranks[r].records.iter().map(|x| (x.job_id, x)).collect()
    };
    let lead = records(0);
    let traced: Vec<&JobSample> = ranks.iter().flat_map(|r| r.traced.jobs.iter()).collect();
    let n = traced.len() as f64;
    let col = |f: &dyn Fn(&JobSample) -> Option<f64>| -> Vec<f64> {
        traced.iter().filter_map(|j| f(j)).collect()
    };
    let latency = col(&|j| Some(j.latency_ns as f64 / 1e6));
    let queue_wait = col(&|j| {
        metas
            .get(&j.id)
            .map(|m| (m.dispatched_ns - m.submitted_ns) as f64 / 1e6)
    });
    let service = col(&|j| {
        metas
            .get(&j.id)
            .map(|m| (m.done_ns - m.dispatched_ns) as f64 / 1e6)
    });
    let remainder = col(&|j| {
        metas
            .get(&j.id)
            .map(|m| (j.latency_ns as f64 - (m.done_ns - m.submitted_ns) as f64) / 1e6)
    });
    let run_ms = col(&|j| lead.get(&j.id).map(|r| r.run_ns as f64 / 1e6));
    let build_ms = col(&|j| lead.get(&j.id).map(|r| r.build_ns as f64 / 1e6));
    let overhead = col(&|j| {
        lead.get(&j.id)
            .map(|r| (j.latency_ns as f64 - (r.run_ns + r.build_ns) as f64) / 1e6)
    });
    let hits = col(&|j| lead.get(&j.id).map(|r| r.plan_hit as u64 as f64));
    let miss_build: Vec<f64> = ranks[0]
        .records
        .iter()
        .filter(|r| !r.plan_hit)
        .map(|r| r.build_ns as f64 / 1e6)
        .collect();
    let others: Vec<HashMap<u64, &JobRecord>> = (1..shape.ranks).map(records).collect();
    let rank_imbalance = col(&|j| {
        let runs: Vec<f64> = std::iter::once(&lead)
            .chain(&others)
            .filter_map(|m| m.get(&j.id))
            .map(|r| r.run_ns as f64)
            .collect();
        (!runs.is_empty()).then(|| max_over_mean(&runs))
    });
    let steal = |f: fn(&JobRecord) -> u64| -> f64 {
        let ids: std::collections::HashSet<u64> = traced.iter().map(|j| j.id).collect();
        ranks
            .iter()
            .flat_map(|r| &r.records)
            .filter(|r| ids.contains(&r.job_id))
            .map(f)
            .sum::<u64>() as f64
            / n
    };
    let mut c = Counts::default();
    ranks.iter().for_each(|r| c.add(&r.traced.counts));
    let lat_us = ns_to_us(
        &ranks
            .iter()
            .flat_map(|r| r.traced.get_lat_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    let unit_p50 = median(&latency);
    // Only the wire client's polls are AMs the endpoint counts.
    let wire_jobs: usize = ranks[1..].iter().map(|r| r.traced.jobs.len()).sum();
    let wire_polls: f64 = ranks[1..]
        .iter()
        .map(|r| r.traced.counts.get(C::JobPolls))
        .sum();
    let tasks_per_job = lib.tasks as f64 / lib.job_s.len() as f64;
    let lib_job_ms = median(&lib.job_s.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let bench_spans: usize = ranks.iter().map(|r| r.spans.len()).sum();

    let (attempted, failed) = failed_jobs(&ranks);
    out.attempted = attempted + lib.job_s.len() as u64;
    out.failed = failed + lib.failed;
    out.samples = traced.len() as u64;
    out.metrics = probes::shared_lines(&kp, &idle, &c, n, shape, unit_p50, &lat_us, 0.0);
    out.metrics.extend([
        // The daemons keep their engine reports to themselves; the
        // runtime lines are the library baseline's, on the same graphs.
        (
            "runtime.dispatch_ns_per_task",
            probes::dispatch_ns_per_task(tasks_per_job as u64, 1, effort),
        ),
        ("runtime.tasks_per_unit", tasks_per_job),
        ("runtime.engine_ms_p50", median(&lib.engine_ms)),
        ("runtime.worker_busy_ratio", lib.busy_ratio),
        ("runtime.local_steals_per_unit", 0.0),
        ("runtime.worker_imbalance", 1.0),
        ("runtime.pool_misses_per_unit", 0.0),
        ("tce.inspect_ms", inspect_ms),
        ("tce.fill_ms", 0.0),
        ("tce.energy_ms_p50", 0.0),
        ("ccsd.graph_build_ms", 0.0),
        ("ccsd.settle_ms_p50", 0.0),
        (
            "ccsd.steal_requests_per_unit",
            steal(|r| r.steal.probes_sent),
        ),
        (
            "ccsd.steal_chains_per_unit",
            steal(|r| r.steal.stolen_chains),
        ),
        ("ccsd.steal_bytes_per_unit", steal(|r| r.steal.stolen_bytes)),
        ("ccsd.rank_imbalance", median(&rank_imbalance)),
        ("ccsd.v2_unit_ms_p50", 0.0),
        ("ccsd.serial_unit_ms_p50", lib_job_ms),
        // The wire client's: rank 0 submits by an in-process call, which
        // a pooled median would mix with the Submit AM round trip.
        (
            "svc.submit_us_p50",
            median(
                &ranks[1..]
                    .iter()
                    .flat_map(|r| &r.traced.jobs)
                    .map(|j| j.submit_ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("svc.queue_wait_ms_p50", median(&queue_wait)),
        ("svc.service_ms_p50", median(&service)),
        ("svc.run_ms_p50", median(&run_ms)),
        ("svc.build_ms_p50", median(&build_ms)),
        ("svc.overhead_ms_p50", median(&overhead)),
        (
            "svc.plan_hit_ratio",
            ratio(hits.iter().sum(), hits.len() as f64),
        ),
        ("svc.plan_miss_build_ms", median(&miss_build)),
        ("svc.polls_per_job", ratio(wire_polls, wire_jobs as f64)),
        (
            "svc.rank_utilization",
            ratio(
                ranks[0].utilization.iter().sum(),
                ranks[0].utilization.len() as f64,
            ),
        ),
        ("svc.lib_run_ms_p50", lib_job_ms),
        (
            "trace.overhead_ratio",
            1.0 - throughput(&ranks, true) / throughput(&ranks, false),
        ),
        ("trace.spans_per_unit", bench_spans as f64 / n),
    ]);
    for (r, o) in ranks.iter().enumerate() {
        out.notes.push(format!(
            "client on rank {r}: submit p50 {:.1} us, latency p50 {:.3} ms over {} jobs",
            median(
                &o.traced
                    .jobs
                    .iter()
                    .map(|j| j.submit_ns as f64 / 1e3)
                    .collect::<Vec<_>>()
            ),
            median(
                &o.traced
                    .jobs
                    .iter()
                    .map(|j| j.latency_ns as f64 / 1e6)
                    .collect::<Vec<_>>()
            ),
            o.traced.jobs.len()
        ));
    }
    let parts = median(&queue_wait) + median(&service) + median(&remainder);
    out.notes.push(format!(
        "reconciliation: svc.queue_wait_ms_p50 {:.3} + svc.service_ms_p50 {:.3} + client-side remainder {:.3} = {parts:.3} vs unit_ms_p50 {unit_p50:.3} (residual {:+.1} %)",
        median(&queue_wait),
        median(&service),
        median(&remainder),
        100.0 * (parts - unit_p50) / unit_p50
    ));
    out.notes.push(format!(
        "svc.overhead_ms_p50 {:.3} vs svc.run_ms_p50 {:.3}: {}",
        median(&overhead),
        median(&run_ms),
        if median(&overhead) > median(&run_ms) {
            "the service costs more than the job"
        } else {
            "the job costs more than the service"
        }
    ));
    let mut all = spans::merge(
        ranks
            .iter_mut()
            .map(|r| std::mem::take(&mut r.spans))
            .collect(),
    );
    let path = crate::trace_path(w.name);
    spans::write_chrome(&path, &all).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes
        .push(format!("trace: {} ({} spans)", path.display(), all.len()));
    all.extend(probe_rec.spans);
    out.notes
        .push("span ledger (traced window and probes):".into());
    out.notes.extend(spans::ledger_lines(&all));
    Ok(out)
}
