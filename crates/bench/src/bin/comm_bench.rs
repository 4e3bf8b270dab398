//! Multi-process communication benchmark and smoke check.
//!
//! Launches `R` ranks as real OS processes (re-executing this binary)
//! connected by the TCP mesh transport, runs CCSD variants through the
//! distributed Global Arrays backend, and aggregates per-rank fragments
//! into `BENCH_comm.json`: wire bytes, eager/rendezvous payload counts,
//! get-latency percentiles, and the communication/computation overlap
//! fraction. The two default runs are the paper's headline ablation —
//! v5 with the priority-driven prefetch pipeline against v2 (priorities
//! off): without priorities the in-flight caps drain reader gets in
//! class order, so GEMMs starve while transfers run and the overlap
//! fraction drops.
//!
//! ```text
//! comm_bench [--ranks R] [--scale S] [--threads T] [--reps N] [--port P]
//! comm_bench --smoke        # v1..v5 + fused v5 energies vs the reference
//! comm_bench --chaos [--seed S]   # fault-injection matrix over sockets
//! ```
//!
//! `--smoke` is the CI gate: every variant on the 4-rank socket mesh must
//! reproduce the single-process reference energy to 1e-12. `--chaos`
//! replays every named fault schedule (plus a clean control) through
//! [`comm::FaultTransport`] over the real socket mesh with fixed seeds:
//! each schedule must terminate and reproduce the reference energy, the
//! clean control must show zero recovery activity, and the failure
//! message carries the seed so a red run replays exactly. `--chaos`
//! then runs the **kill matrix**: every scripted death schedule kills
//! the highest rank mid-run and gates that all four processes still
//! terminate (via detector poison-release), that the survivors confirm
//! the death, and that a detector armed on a healthy mesh shows zero
//! false positives and an unchanged energy.

use bench_harness::{arg_value, has_flag};
use ccsd::{verify, DistRank, StealConfig, VariantCfg};
use comm::fault::{FaultPlan, FaultTransport};
use comm::SocketTransport;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One variant execution's rank-local measurements.
#[derive(Default)]
struct RunOut {
    name: String,
    energy: Option<f64>,
    /// Workers per rank for this row (the cores-per-node axis).
    threads: u64,
    /// Rank-local wall time of the run(s), collective overhead included.
    wall_ns: u64,
    comm_ns: u64,
    overlapped_ns: u64,
    eager: u64,
    rndv: u64,
    bytes_tx: u64,
    bytes_rx: u64,
    gets: u64,
    puts: u64,
    accs: u64,
    ga_local: u64,
    ga_remote: u64,
    /// Recovery activity (all zero on a healthy network — gated).
    timeouts: u64,
    retries: u64,
    dup_requests: u64,
    dup_replies: u64,
    /// Faults injected by the local wrapper (chaos mode only).
    injected: u64,
    /// Failure-detector activity (kill matrix only; the clean control
    /// runs with the detector armed and is gated to all-zero).
    suspects: u64,
    confirmed_deaths: u64,
    rejoins: u64,
    /// Tile-cache effectiveness (hits/joins never touch the wire).
    cache_hits: u64,
    cache_joins: u64,
    cache_misses: u64,
    cache_invals: u64,
    cache_hit_bytes: u64,
    /// Verified-stale cached reads (chaos/smoke only; gated to zero).
    stale_reads: u64,
    /// Get bytes requested / delivered, and multi-get batching.
    get_req_bytes: u64,
    get_wire_bytes: u64,
    multi_gets: u64,
    multi_parts: u64,
    /// Cross-rank steal activity: requests posted, chains claimed from
    /// the local ledger, donated to thieves, received from victims, and
    /// the migrated working-set bytes.
    steal_reqs: u64,
    steal_local_claimed: u64,
    steal_donated: u64,
    steal_donated_bytes: u64,
    steal_stolen: u64,
    steal_stolen_bytes: u64,
    /// Engine-side load balancing: deque-to-deque steals within the rank
    /// and root tasks seeded through the external ledger source.
    engine_local_steals: u64,
    engine_external_tasks: u64,
    lat_ns: Vec<u64>,
}

/// The wire-accounting invariants every rank must reconcile before its
/// fragment is trusted: the GA layer's idea of remote read traffic must
/// equal the endpoint's requested get bytes, and — the pipeline having
/// drained — every requested byte must have been delivered off the wire.
/// A drift here means a counter lies — fail the whole benchmark loudly.
fn assert_reconciled(rank: usize, ga: &global_arrays::GaStats, s: &comm::CommStatsSnap) {
    assert_eq!(
        ga.remote_get_bytes(),
        s.get_req_bytes,
        "rank {rank}: GA remote get bytes diverged from endpoint get_req_bytes — \
         a read path is bypassing the accounting"
    );
    assert_eq!(
        s.get_req_bytes, s.get_wire_bytes,
        "rank {rank}: get_req_bytes != get_wire_bytes — a posted get never delivered"
    );
}

fn scale_of(name: &str) -> tce::SpaceConfig {
    match name {
        "tiny" => tce::scale::tiny(),
        "small" => tce::scale::small(),
        "medium" => tce::scale::medium(),
        "paper" => tce::scale::paper(),
        other => panic!("unknown scale `{other}`"),
    }
}

/// The benchmark's run list: the prefetch pipeline with priorities (v5)
/// against the no-priority ablation (v2); smoke mode checks all five
/// variants plus the fused-epilogue v5 instead.
fn run_list(smoke: bool) -> Vec<(String, VariantCfg, bool)> {
    if smoke {
        VariantCfg::all()
            .into_iter()
            .map(|cfg| (cfg.name.to_string(), cfg, true))
            // The fused chain epilogue must survive the socket mesh too.
            .chain([("v5f".to_string(), VariantCfg::v5().fused(), true)])
            .collect()
    } else {
        vec![
            ("v5_prefetch".into(), VariantCfg::v5(), true),
            ("v2_noprio".into(), VariantCfg::v2(), true),
        ]
    }
}

/// The rows one rank executes: smoke checks every variant once at the
/// given worker count; bench mode sweeps the cores-per-node axis
/// (v5-vs-v2 at each step, the Fig. 9 regime) and appends a steal
/// demonstration row — remote-first stealing at the widest setting, so
/// chain migration fires deterministically even on a balanced mesh.
fn job_list(
    smoke: bool,
    threads_list: &[usize],
) -> Vec<(String, VariantCfg, bool, usize, StealConfig)> {
    if smoke {
        let t = threads_list[0];
        return run_list(true)
            .into_iter()
            .map(|(name, cfg, prefetch)| (name, cfg, prefetch, t, StealConfig::default()))
            .collect();
    }
    let mut jobs = Vec::new();
    for &t in threads_list {
        for (name, cfg, prefetch) in run_list(false) {
            jobs.push((
                format!("{name}_t{t}"),
                cfg,
                prefetch,
                t,
                StealConfig::default(),
            ));
        }
    }
    let t = threads_list.iter().copied().max().unwrap_or(1);
    jobs.push((
        format!("v5_steal_t{t}"),
        VariantCfg::v5(),
        true,
        t,
        StealConfig {
            window: usize::MAX,
            batch: 1,
            limit: 2,
            remote_first: true,
            ..StealConfig::default()
        },
    ));
    jobs
}

/// Execute this rank's share of every run over the socket mesh. Each
/// run is repeated `reps` times with counters summed: on a small host
/// a single execution's overlap fraction is scheduling noise.
fn run_rank(
    rank: usize,
    ranks: usize,
    port: u16,
    scale: &str,
    threads_list: &[usize],
    reps: usize,
    smoke: bool,
) -> Vec<RunOut> {
    let space = tce::TileSpace::build(&scale_of(scale));
    let transport = SocketTransport::connect(rank, ranks, port, Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("rank {rank}: mesh connect failed: {e}"));
    // The smoke check keeps the stock configuration; the benchmark
    // splits the eager threshold through the middle of medium-scale
    // block sizes so both payload protocols are exercised and measured.
    let cfg = comm::CommConfig {
        eager_threshold: if smoke { 4096 } else { 32 * 1024 },
        ..comm::CommConfig::default()
    };
    // The smoke gate runs the cache in paranoia mode: every hit is
    // re-fetched fresh from the owners and compared, and any mismatch
    // counts a stale read that fails CI. The benchmark proper keeps
    // verification off — that is the configuration being measured.
    let cache_cfg = global_arrays::TileCacheConfig {
        verify_reads: smoke,
        ..global_arrays::TileCacheConfig::default()
    };
    let dr = DistRank::with_configs(
        Box::new(transport),
        &space,
        &[tce::Kernel::T2_7],
        cfg,
        cache_cfg,
    );
    let mut outs = Vec::new();
    for (name, cfg, prefetch, threads, scfg) in job_list(smoke, threads_list) {
        let mut acc: Option<RunOut> = None;
        for _ in 0..reps.max(1) {
            let ep = dr.endpoint();
            let ga_stats = dr.workspace().ga.stats();
            // Drain cumulative state so this run measures only itself.
            let _ = ep.take_trace();
            let _ = ep.take_latencies();
            let s0 = ep.stats();
            let (l0, r0) = (ga_stats.local_bytes(), ga_stats.remote_bytes());
            let c0 = (
                ga_stats.cache_hits(),
                ga_stats.cache_joins(),
                ga_stats.cache_misses(),
                ga_stats.cache_invalidations(),
                ga_stats.cache_hit_bytes(),
            );

            let t0 = Instant::now();
            let run = dr.run_variant_steal(cfg, threads, prefetch, scfg);
            let wall = t0.elapsed().as_nanos() as u64;

            let s1 = ep.stats();
            let mut trace = run.report.trace;
            trace.absorb(&ep.take_trace());
            let node = xtrace::analyze::comm_overlap(&trace)
                .remove(&(rank as u32))
                .unwrap_or_default();
            let out = acc.get_or_insert_with(|| RunOut {
                name: name.clone(),
                threads: threads as u64,
                ..RunOut::default()
            });
            out.energy = run.energy;
            out.wall_ns += wall;
            out.steal_reqs += s1.steal_reqs - s0.steal_reqs;
            out.steal_local_claimed += run.steal.local_claimed;
            out.steal_donated += run.steal.donated_chains;
            out.steal_donated_bytes += run.steal.donated_bytes;
            out.steal_stolen += run.steal.stolen_chains;
            out.steal_stolen_bytes += run.steal.stolen_bytes;
            out.engine_local_steals += run.report.steal.local_steals;
            out.engine_external_tasks += run.report.steal.external_tasks;
            out.comm_ns += node.comm;
            out.overlapped_ns += node.overlapped;
            out.eager += s1.eager_payloads - s0.eager_payloads;
            out.rndv += s1.rndv_payloads - s0.rndv_payloads;
            out.bytes_tx += s1.bytes_tx - s0.bytes_tx;
            out.bytes_rx += s1.bytes_rx - s0.bytes_rx;
            out.gets += s1.gets - s0.gets;
            out.puts += s1.puts - s0.puts;
            out.accs += s1.accs - s0.accs;
            out.ga_local += ga_stats.local_bytes() - l0;
            out.ga_remote += ga_stats.remote_bytes() - r0;
            out.timeouts += s1.timeouts - s0.timeouts;
            out.retries += s1.retries - s0.retries;
            out.dup_requests += s1.dup_requests - s0.dup_requests;
            out.dup_replies += s1.dup_replies - s0.dup_replies;
            out.cache_hits += ga_stats.cache_hits() - c0.0;
            out.cache_joins += ga_stats.cache_joins() - c0.1;
            out.cache_misses += ga_stats.cache_misses() - c0.2;
            out.cache_invals += ga_stats.cache_invalidations() - c0.3;
            out.cache_hit_bytes += ga_stats.cache_hit_bytes() - c0.4;
            out.stale_reads = ga_stats.stale_reads();
            out.get_req_bytes += s1.get_req_bytes - s0.get_req_bytes;
            out.get_wire_bytes += s1.get_wire_bytes - s0.get_wire_bytes;
            out.multi_gets += s1.multi_gets - s0.multi_gets;
            out.multi_parts += s1.multi_parts - s0.multi_parts;
            out.lat_ns.extend(ep.take_latencies());
        }
        outs.push(acc.expect("reps >= 1"));
    }
    assert_reconciled(rank, dr.workspace().ga.stats(), &dr.endpoint().stats());
    dr.finish();
    outs
}

/// One rank of a chaos run: v5 at tiny scale over a fault-wrapped socket
/// mesh with chaos-speed retry timers. The injector is disarmed after
/// the results exist so the final collective teardown runs clean.
fn run_rank_chaos(rank: usize, ranks: usize, port: u16, schedule: &str, seed: u64) -> RunOut {
    let space = tce::TileSpace::build(&tce::scale::tiny());
    let sock = SocketTransport::connect(rank, ranks, port, Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("rank {rank}: mesh connect failed: {e}"));
    let plan = FaultPlan::named(schedule, seed.wrapping_add(rank as u64))
        .unwrap_or_else(|| panic!("unknown chaos schedule `{schedule}`"));
    let ft = FaultTransport::new(Box::new(sock), plan);
    let armed = ft.armed_handle();
    let injected = ft.counters();
    // Fault schedules run with fast timers so injected losses recover in
    // milliseconds. The clean control keeps the production timers — the
    // gate there is exactly that they never fire on a healthy mesh
    // (startup skew between real processes can exceed a 20ms timer).
    let cfg = if schedule == "clean" {
        comm::CommConfig {
            eager_threshold: 1024,
            ..comm::CommConfig::default()
        }
    } else {
        comm::CommConfig {
            eager_threshold: 1024,
            retry_timeout: Duration::from_millis(20),
            retry_backoff_max: Duration::from_millis(80),
            ..comm::CommConfig::default()
        }
    };
    // Chaos always runs the cache in paranoia mode: every hit re-fetched
    // and compared, so an injected fault that left a stale block cached
    // is counted — and gated to zero by the parent.
    let cache_cfg = global_arrays::TileCacheConfig {
        verify_reads: true,
        ..global_arrays::TileCacheConfig::default()
    };
    let dr = DistRank::with_configs(Box::new(ft), &space, &[tce::Kernel::T2_7], cfg, cache_cfg);
    // Four workers per rank: the fused engine's multithreaded regime is
    // part of what chaos must cover (stolen grants riding a faulty wire).
    let run = dr.run_variant(VariantCfg::v5(), 4, true);
    // Fill-then-hit across the faulty mesh so the verified stale gate is
    // actually exercised (tiny-scale runs rarely re-read a block between
    // syncs on their own).
    let ws = dr.workspace();
    let t2_len = ws.t2_layout.len();
    assert_eq!(
        ws.ga.get(ws.t2, 0, t2_len),
        ws.ga.get(ws.t2, 0, t2_len),
        "rank {rank}: repeated t2 read diverged under schedule `{schedule}`"
    );
    let s = dr.endpoint().stats();
    let gs = dr.workspace().ga.stats();
    let (cache_hits, stale_reads) = (gs.cache_hits(), gs.stale_reads());
    assert_reconciled(rank, gs, &s);
    armed.store(false, std::sync::atomic::Ordering::SeqCst);
    dr.finish();
    RunOut {
        name: schedule.to_string(),
        energy: run.energy,
        threads: 4,
        timeouts: s.timeouts,
        retries: s.retries,
        dup_requests: s.dup_requests,
        dup_replies: s.dup_replies,
        injected: injected.total(),
        cache_hits,
        stale_reads,
        steal_reqs: s.steal_reqs,
        steal_local_claimed: run.steal.local_claimed,
        steal_donated: run.steal.donated_chains,
        steal_donated_bytes: run.steal.donated_bytes,
        steal_stolen: run.steal.stolen_chains,
        steal_stolen_bytes: run.steal.stolen_bytes,
        engine_local_steals: run.report.steal.local_steals,
        engine_external_tasks: run.report.steal.external_tasks,
        ..RunOut::default()
    }
}

/// One rank of a death-schedule run: the victim (highest rank) runs the
/// named kill plan, every other rank a clean plan off the same base
/// seed, and the failure detector is armed on all of them. No energy
/// gate here — a dead gang member poisons the collective result by
/// design (the energy-through-death headline lives in the service
/// layer's fence-and-requeue path, `service_bench --recovery`); the
/// parent gates termination, survivor-side detection, and the
/// detector-armed clean control instead. The injector stays armed
/// through teardown: the kill *is* the scenario, and the detector's
/// poison-release is what must let every rank out of the final barrier.
fn run_rank_kill(rank: usize, ranks: usize, port: u16, schedule: &str, seed: u64) -> RunOut {
    let space = tce::TileSpace::build(&tce::scale::tiny());
    let sock = SocketTransport::connect(rank, ranks, port, Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("rank {rank}: mesh connect failed: {e}"));
    let victim = ranks - 1;
    let plan = if rank == victim && schedule != "clean" {
        FaultPlan::named(schedule, seed)
            .unwrap_or_else(|| panic!("unknown death schedule `{schedule}`"))
    } else {
        FaultPlan::clean(seed.wrapping_add(rank as u64))
    };
    let ft = FaultTransport::new(Box::new(sock), plan);
    let injected = ft.counters();
    // The clean control keeps the production retry timers (the gate is
    // that they never fire on a healthy mesh); kill runs use chaos-speed
    // timers so ops blocked on the corpse turn around in milliseconds
    // once the detector aborts them.
    let cfg = comm::CommConfig {
        eager_threshold: 1024,
        retry_timeout: if schedule == "clean" {
            comm::CommConfig::default().retry_timeout
        } else {
            Duration::from_millis(20)
        },
        retry_backoff_max: if schedule == "clean" {
            comm::CommConfig::default().retry_backoff_max
        } else {
            Duration::from_millis(80)
        },
        suspect_after: Some(Duration::from_millis(100)),
        dead_after: Duration::from_millis(500),
        ..comm::CommConfig::default()
    };
    // Cache verification stays off in kill runs: a poisoned run reads
    // zeros from the corpse by design, and re-verified hits would count
    // those as stale. The clean control re-verifies every hit.
    let cache_cfg = global_arrays::TileCacheConfig {
        verify_reads: schedule == "clean",
        ..global_arrays::TileCacheConfig::default()
    };
    let dr = DistRank::with_configs(Box::new(ft), &space, &[tce::Kernel::T2_7], cfg, cache_cfg);
    // Enough back-to-back runs that every scripted kill index (the
    // largest is 400 arrivals; a tiny run delivers a few dozen per
    // rank) lands inside live workload traffic rather than in the
    // teardown tail. Runs after the death abort fast: every collective
    // toward the corpse poison-releases as soon as the dead mask is set.
    let iters = if schedule == "clean" { 2 } else { 20 };
    let mut energy = None;
    for i in 0..iters {
        let run = dr.run_variant(VariantCfg::v5(), 2, true);
        if i == 0 {
            energy = run.energy;
        }
        // Stop issuing collectives at the first confirmed death: every
        // further run would be poisoned anyway, and — critically — a
        // scripted Restart readmits the victim with its collective
        // epochs far behind the survivors'. Once everyone is alive
        // again nothing poison-releases, so a live-but-desynced
        // barrier would block forever. Fencing the workload at the
        // first death keeps a rejoin purely observational, mirroring
        // the service layer (sticky gateway fence, re-plan on the
        // survivors).
        if dr.endpoint().dead_mask() != 0 {
            break;
        }
    }
    if schedule == "kill_restart" {
        // Linger until the restarted rank is readmitted: survivors keep
        // probing the corpse at a slow cadence, the scripted Restart
        // eventually lets those pings through, and the pong handshake
        // clears the dead mask on both sides. Observing the rejoin here
        // instead of racing it against teardown makes the rejoin gate
        // deterministic.
        let t0 = Instant::now();
        while dr.endpoint().dead_mask() != 0 && t0.elapsed() < Duration::from_secs(30) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let s = dr.endpoint().stats();
    let stale = dr.workspace().ga.stats().stale_reads();
    if schedule == "clean" {
        dr.finish();
    } else {
        // No clean collective teardown on a mesh that saw a death: the
        // sync inside `finish` needs matching barrier epochs on every
        // rank, and after a kill (or a mid-run readmission) those are
        // gone for good. Shut the engine down directly — terminating
        // without the victim is exactly the behavior under test.
        dr.endpoint().shutdown();
    }
    RunOut {
        name: schedule.to_string(),
        energy,
        threads: 2,
        timeouts: s.timeouts,
        retries: s.retries,
        dup_requests: s.dup_requests,
        dup_replies: s.dup_replies,
        injected: injected.total(),
        suspects: s.suspects,
        confirmed_deaths: s.confirmed_deaths,
        rejoins: s.rejoins,
        stale_reads: stale,
        ..RunOut::default()
    }
}

/// Flat line-oriented fragment format (internal to the bench; only the
/// aggregate is JSON).
fn write_fragment(path: &Path, outs: &[RunOut]) {
    let mut s = String::new();
    for o in outs {
        s.push_str(&format!("run {}\n", o.name));
        if let Some(e) = o.energy {
            s.push_str(&format!("energy {e:.17e}\n"));
        }
        for (k, v) in [
            ("threads", o.threads),
            ("wall_ns", o.wall_ns),
            ("comm_ns", o.comm_ns),
            ("overlapped_ns", o.overlapped_ns),
            ("eager", o.eager),
            ("rndv", o.rndv),
            ("bytes_tx", o.bytes_tx),
            ("bytes_rx", o.bytes_rx),
            ("gets", o.gets),
            ("puts", o.puts),
            ("accs", o.accs),
            ("ga_local", o.ga_local),
            ("ga_remote", o.ga_remote),
            ("timeouts", o.timeouts),
            ("retries", o.retries),
            ("dup_requests", o.dup_requests),
            ("dup_replies", o.dup_replies),
            ("injected", o.injected),
            ("suspects", o.suspects),
            ("confirmed_deaths", o.confirmed_deaths),
            ("rejoins", o.rejoins),
            ("cache_hits", o.cache_hits),
            ("cache_joins", o.cache_joins),
            ("cache_misses", o.cache_misses),
            ("cache_invals", o.cache_invals),
            ("cache_hit_bytes", o.cache_hit_bytes),
            ("stale_reads", o.stale_reads),
            ("get_req_bytes", o.get_req_bytes),
            ("get_wire_bytes", o.get_wire_bytes),
            ("multi_gets", o.multi_gets),
            ("multi_parts", o.multi_parts),
            ("steal_reqs", o.steal_reqs),
            ("steal_local_claimed", o.steal_local_claimed),
            ("steal_donated", o.steal_donated),
            ("steal_donated_bytes", o.steal_donated_bytes),
            ("steal_stolen", o.steal_stolen),
            ("steal_stolen_bytes", o.steal_stolen_bytes),
            ("engine_local_steals", o.engine_local_steals),
            ("engine_external_tasks", o.engine_external_tasks),
        ] {
            s.push_str(&format!("{k} {v}\n"));
        }
        let lats: Vec<String> = o.lat_ns.iter().map(|x| x.to_string()).collect();
        s.push_str(&format!("lat_ns {}\n", lats.join(",")));
    }
    std::fs::write(path, s).expect("write fragment");
}

fn parse_fragment(text: &str) -> Vec<RunOut> {
    let mut outs: Vec<RunOut> = Vec::new();
    for line in text.lines() {
        let (key, val) = line.split_once(' ').unwrap_or((line, ""));
        if key == "run" {
            outs.push(RunOut {
                name: val.to_string(),
                ..RunOut::default()
            });
            continue;
        }
        let o = outs.last_mut().expect("fragment starts with a run line");
        match key {
            "energy" => o.energy = Some(val.parse().unwrap()),
            "threads" => o.threads = val.parse().unwrap(),
            "wall_ns" => o.wall_ns = val.parse().unwrap(),
            "comm_ns" => o.comm_ns = val.parse().unwrap(),
            "overlapped_ns" => o.overlapped_ns = val.parse().unwrap(),
            "eager" => o.eager = val.parse().unwrap(),
            "rndv" => o.rndv = val.parse().unwrap(),
            "bytes_tx" => o.bytes_tx = val.parse().unwrap(),
            "bytes_rx" => o.bytes_rx = val.parse().unwrap(),
            "gets" => o.gets = val.parse().unwrap(),
            "puts" => o.puts = val.parse().unwrap(),
            "accs" => o.accs = val.parse().unwrap(),
            "ga_local" => o.ga_local = val.parse().unwrap(),
            "ga_remote" => o.ga_remote = val.parse().unwrap(),
            "timeouts" => o.timeouts = val.parse().unwrap(),
            "retries" => o.retries = val.parse().unwrap(),
            "dup_requests" => o.dup_requests = val.parse().unwrap(),
            "dup_replies" => o.dup_replies = val.parse().unwrap(),
            "injected" => o.injected = val.parse().unwrap(),
            "suspects" => o.suspects = val.parse().unwrap(),
            "confirmed_deaths" => o.confirmed_deaths = val.parse().unwrap(),
            "rejoins" => o.rejoins = val.parse().unwrap(),
            "cache_hits" => o.cache_hits = val.parse().unwrap(),
            "cache_joins" => o.cache_joins = val.parse().unwrap(),
            "cache_misses" => o.cache_misses = val.parse().unwrap(),
            "cache_invals" => o.cache_invals = val.parse().unwrap(),
            "cache_hit_bytes" => o.cache_hit_bytes = val.parse().unwrap(),
            "stale_reads" => o.stale_reads = val.parse().unwrap(),
            "get_req_bytes" => o.get_req_bytes = val.parse().unwrap(),
            "get_wire_bytes" => o.get_wire_bytes = val.parse().unwrap(),
            "multi_gets" => o.multi_gets = val.parse().unwrap(),
            "multi_parts" => o.multi_parts = val.parse().unwrap(),
            "steal_reqs" => o.steal_reqs = val.parse().unwrap(),
            "steal_local_claimed" => o.steal_local_claimed = val.parse().unwrap(),
            "steal_donated" => o.steal_donated = val.parse().unwrap(),
            "steal_donated_bytes" => o.steal_donated_bytes = val.parse().unwrap(),
            "steal_stolen" => o.steal_stolen = val.parse().unwrap(),
            "steal_stolen_bytes" => o.steal_stolen_bytes = val.parse().unwrap(),
            "engine_local_steals" => o.engine_local_steals = val.parse().unwrap(),
            "engine_external_tasks" => o.engine_external_tasks = val.parse().unwrap(),
            "lat_ns" => {
                o.lat_ns = val
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| t.parse().unwrap())
                    .collect()
            }
            other => panic!("unknown fragment key `{other}`"),
        }
    }
    outs
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx] as f64 / 1e3
}

fn child(rank: usize, ranks: usize, port: u16, args: &[String]) {
    let dir = PathBuf::from(arg_value(args, "--dir").expect("child needs --dir"));
    if let Some(schedule) = arg_value(args, "--chaos-schedule") {
        let seed: u64 = arg_value(args, "--chaos-seed")
            .expect("chaos child needs --chaos-seed")
            .parse()
            .unwrap();
        let out = run_rank_chaos(rank, ranks, port, &schedule, seed);
        write_fragment(&dir.join(format!("rank{rank}.txt")), &[out]);
        return;
    }
    if let Some(schedule) = arg_value(args, "--kill-schedule") {
        let seed: u64 = arg_value(args, "--chaos-seed")
            .expect("kill child needs --chaos-seed")
            .parse()
            .unwrap();
        let out = run_rank_kill(rank, ranks, port, &schedule, seed);
        write_fragment(&dir.join(format!("rank{rank}.txt")), &[out]);
        return;
    }
    let scale = arg_value(args, "--scale").unwrap_or_else(|| "tiny".into());
    let threads = parse_threads(arg_value(args, "--threads"), &[1]);
    let reps: usize = arg_value(args, "--reps")
        .map(|v| v.parse().unwrap())
        .unwrap_or(1);
    let outs = run_rank(
        rank,
        ranks,
        port,
        &scale,
        &threads,
        reps,
        has_flag(args, "--smoke"),
    );
    write_fragment(&dir.join(format!("rank{rank}.txt")), &outs);
}

/// `--threads` accepts one value (smoke: workers per rank) or a comma
/// list (bench: the cores-per-node sweep axis).
fn parse_threads(arg: Option<String>, default: &[usize]) -> Vec<usize> {
    match arg {
        None => default.to_vec(),
        Some(v) => v
            .split(',')
            .map(|t| t.trim().parse().expect("--threads takes integers"))
            .collect(),
    }
}

fn parent(ranks: usize, port: u16, args: &[String]) -> Result<(), String> {
    let smoke = has_flag(args, "--smoke");
    // Bench mode wants real per-chain GEMM work (medium tiles) and one
    // worker per rank: four processes already oversubscribe small hosts,
    // and with no compute to speak of the overlap fraction is noise.
    let default_scale = if smoke { "tiny" } else { "medium" };
    let scale = arg_value(args, "--scale").unwrap_or_else(|| default_scale.into());
    // Bench mode sweeps cores-per-node (the Fig. 9 axis) with one rep
    // per step — the sweep itself already multiplies the run count;
    // smoke keeps a single worker unless told otherwise.
    let default_threads: &[usize] = if smoke { &[1] } else { &[1, 2, 4] };
    let threads = parse_threads(arg_value(args, "--threads"), default_threads);
    let reps: usize = arg_value(args, "--reps")
        .map(|v| v.parse().unwrap())
        .unwrap_or(1);

    // In-process ground truth, before any socket work.
    let space = tce::TileSpace::build(&scale_of(&scale));
    let ws = tce::build_workspace(&space, 1);
    let e_ref = verify::reference_energy(&ws);
    eprintln!("# reference energy (single process): {e_ref:.15}");

    let dir = std::env::temp_dir().join(format!("comm_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut children = Vec::new();
    for r in 1..ranks {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--rank", &r.to_string()])
            .args(["--ranks", &ranks.to_string()])
            .args(["--port", &port.to_string()])
            .args(["--scale", &scale])
            .args([
                "--threads",
                &threads
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ])
            .args(["--reps", &reps.to_string()])
            .args(["--dir", &dir.display().to_string()]);
        if smoke {
            cmd.arg("--smoke");
        }
        children.push((r, cmd.spawn().map_err(|e| format!("spawn rank {r}: {e}"))?));
    }

    // The parent is rank 0.
    let outs0 = run_rank(0, ranks, port, &scale, &threads, reps, smoke);

    for (r, mut ch) in children {
        let status = ch.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("rank {r} exited with {status}"));
        }
    }
    let mut per_rank = vec![outs0];
    for r in 1..ranks {
        let path = dir.join(format!("rank{r}.txt"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        per_rank.push(parse_fragment(&text));
    }
    let _ = std::fs::remove_dir_all(&dir);

    if smoke {
        return check_smoke(ranks, e_ref, &per_rank);
    }
    aggregate(ranks, &scale, &threads, e_ref, &per_rank)
}

/// The chaos matrix: every named fault schedule plus a clean control,
/// each on its own 4-rank socket mesh (fresh port window per schedule)
/// with per-rank seeds derived from one printed base seed. The gate is
/// the paper's correctness claim under an unreliable network: every
/// schedule terminates and reproduces the reference energy to 1e-12,
/// and the clean control shows zero recovery activity.
/// Wait for every child of one schedule, reporting the first failure
/// only after all of them have exited. Early-returning on the first bad
/// status would orphan the rest of the mesh — still dialing, still
/// holding listener ports — and poison the next schedule's connect.
fn reap(children: Vec<(usize, std::process::Child)>, replay: &str) -> Result<(), String> {
    let mut err = None;
    for (r, mut ch) in children {
        match ch.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                err.get_or_insert(format!("rank {r} exited with {status}; {replay}"));
            }
            Err(e) => {
                err.get_or_insert(format!("rank {r}: {e}; {replay}"));
            }
        }
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn chaos(ranks: usize, args: &[String]) -> Result<(), String> {
    let seed_base: u64 = arg_value(args, "--seed")
        .map(|v| {
            let v = v.trim_start_matches("0x");
            u64::from_str_radix(v, 16).or_else(|_| v.parse()).unwrap()
        })
        .unwrap_or(0xC0FF_EE00);
    // Own port range, one window of `ranks` ports per schedule:
    // listener ports are not reused across schedules, so lingering
    // TIME_WAIT connections from the previous mesh cannot fail the next
    // bind. The whole range must sit BELOW the kernel's ephemeral port
    // span (32768+ on Linux): every dial in the mesh draws an ephemeral
    // source port, and a listener bind that aliases one stalls for a
    // minute and then dies with EADDRINUSE.
    let base_port: u16 = arg_value(args, "--port")
        .map(|v| v.parse().unwrap())
        .unwrap_or_else(|| 18000 + (std::process::id() % 90) as u16 * 64);

    let space = tce::TileSpace::build(&tce::scale::tiny());
    let ws = tce::build_workspace(&space, 1);
    let e_ref = verify::reference_energy(&ws);
    eprintln!("# reference energy (single process): {e_ref:.15}");
    eprintln!(
        "# chaos base seed: {seed_base:#x} (replay: comm_bench --chaos --seed {seed_base:x})"
    );

    let dir = std::env::temp_dir().join(format!("comm_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut schedules: Vec<&str> = FaultPlan::schedule_names().to_vec();
    schedules.push("clean");
    for (i, schedule) in schedules.iter().enumerate() {
        let seed = seed_base.wrapping_add((i as u64) << 8);
        let port = base_port + (i * ranks) as u16;
        let replay = format!("schedule `{schedule}` seed {seed:#x}");
        let mut children = Vec::new();
        for r in 1..ranks {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--rank", &r.to_string()])
                .args(["--ranks", &ranks.to_string()])
                .args(["--port", &port.to_string()])
                .args(["--chaos-schedule", schedule])
                .args(["--chaos-seed", &seed.to_string()])
                .args(["--dir", &dir.display().to_string()]);
            children.push((r, cmd.spawn().map_err(|e| format!("spawn rank {r}: {e}"))?));
        }
        let out0 = run_rank_chaos(0, ranks, port, schedule, seed);
        reap(children, &replay)?;
        let mut outs = vec![out0];
        for r in 1..ranks {
            let path = dir.join(format!("rank{r}.txt"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            outs.extend(parse_fragment(&text));
        }
        let energy = outs[0].energy.ok_or("rank 0 must report an energy")?;
        let d = tensor_kernels::rel_diff(e_ref, energy);
        let sum = |f: &dyn Fn(&RunOut) -> u64| outs.iter().map(f).sum::<u64>();
        let (timeouts, retries) = (sum(&|o| o.timeouts), sum(&|o| o.retries));
        let dups = sum(&|o| o.dup_requests + o.dup_replies);
        let injected = sum(&|o| o.injected);
        let (hits, stale) = (sum(&|o| o.cache_hits), sum(&|o| o.stale_reads));
        let (donated, stolen) = (sum(&|o| o.steal_donated), sum(&|o| o.steal_stolen));
        println!(
            "{schedule:>10} seed {seed:#012x}: rel diff {d:.2e}  {injected} faults injected  {retries} retries  {timeouts} timeouts  {dups} dups detected  {hits} cache hits  {stale} stale reads  {stolen} chains migrated"
        );
        // Exactly-once chain migration under faults: a lost steal reply
        // retransmits into the victim's *recorded* grant, so the chain
        // count must reconcile even when the wire drops frames.
        if donated != stolen {
            return Err(format!(
                "{donated} chains donated but {stolen} received under faults — \
                 a steal grant was lost or double-applied; {replay}"
            ));
        }
        // The coherence gate: with `verify_reads` armed on every rank,
        // each cache hit was compared against a fresh owner fetch. Any
        // fault that left a stale block cached shows up here.
        if stale != 0 {
            return Err(format!(
                "{stale} cached reads observed stale data under faults; {replay}"
            ));
        }
        if d >= 1e-12 {
            return Err(format!(
                "energy {energy} diverged from reference {e_ref} ({d:.2e}); {replay}"
            ));
        }
        if *schedule == "clean" && timeouts + retries + dups != 0 {
            return Err(format!(
                "clean control must show zero recovery activity \
                 ({timeouts} timeouts, {retries} retries, {dups} dups); {replay}"
            ));
        }
    }
    // ---- the kill matrix: scripted rank deaths over the live mesh ----
    //
    // Every death schedule (plus a detector-armed clean control) gets a
    // fresh 4-rank socket mesh; the highest rank is the victim. The
    // gates are the failure-model claims: every rank **terminates**
    // (the detector's poison-release is the only way out of a barrier
    // with a corpse in it), the survivors confirm the death, the
    // restart schedule produces a rejoin, and the armed detector on a
    // healthy mesh shows zero suspects, zero deaths, and an unchanged
    // 1e-12 energy. Each line prints the seed that replays it.
    let mut kill_schedules: Vec<&str> = FaultPlan::death_schedule_names().to_vec();
    kill_schedules.push("clean");
    let victim = ranks - 1;
    for (i, schedule) in kill_schedules.iter().enumerate() {
        // Offset past the fault-schedule seed range so no kill run ever
        // shares dice with a fault run of the same base seed.
        let seed = seed_base
            .wrapping_add(0x00D0_0000)
            .wrapping_add((i as u64) << 8);
        let port = base_port + ((schedules.len() + i) * ranks) as u16;
        let replay = format!(
            "kill schedule `{schedule}` seed {seed:#x} (replay: comm_bench --chaos --seed {seed_base:x})"
        );
        let mut children = Vec::new();
        for r in 1..ranks {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--rank", &r.to_string()])
                .args(["--ranks", &ranks.to_string()])
                .args(["--port", &port.to_string()])
                .args(["--kill-schedule", schedule])
                .args(["--chaos-seed", &seed.to_string()])
                .args(["--dir", &dir.display().to_string()]);
            children.push((r, cmd.spawn().map_err(|e| format!("spawn rank {r}: {e}"))?));
        }
        let out0 = run_rank_kill(0, ranks, port, schedule, seed);
        reap(children, &replay)?;
        let mut outs = vec![out0];
        for r in 1..ranks {
            let path = dir.join(format!("rank{r}.txt"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            outs.extend(parse_fragment(&text));
        }
        let survivors = &outs[..victim];
        let sum = |f: &dyn Fn(&RunOut) -> u64| outs.iter().map(f).sum::<u64>();
        let deaths: u64 = survivors.iter().map(|o| o.confirmed_deaths).sum();
        let suspects: u64 = survivors.iter().map(|o| o.suspects).sum();
        let rejoins = sum(&|o| o.rejoins);
        let injected = sum(&|o| o.injected);
        println!(
            "{schedule:>12} seed {seed:#012x}: {injected} frames blackholed  {suspects} suspects  {deaths} deaths confirmed by survivors  {rejoins} rejoins  all {ranks} ranks terminated"
        );
        if *schedule == "clean" {
            let energy = outs[0].energy.ok_or("rank 0 must report an energy")?;
            let d = tensor_kernels::rel_diff(e_ref, energy);
            if d >= 1e-12 {
                return Err(format!(
                    "armed detector perturbed a healthy run: energy {energy} vs {e_ref} ({d:.2e}); {replay}"
                ));
            }
            let all_suspects = sum(&|o| o.suspects);
            let all_deaths = sum(&|o| o.confirmed_deaths);
            let recovery = sum(&|o| o.timeouts + o.retries + o.dup_requests + o.dup_replies);
            let stale = sum(&|o| o.stale_reads);
            if all_suspects + all_deaths + recovery + stale != 0 {
                return Err(format!(
                    "armed detector on a healthy mesh must be pure bookkeeping: \
                     {all_suspects} suspects, {all_deaths} deaths, {recovery} recovery events, \
                     {stale} stale reads; {replay}"
                ));
            }
        } else {
            if deaths == 0 {
                return Err(format!(
                    "no survivor confirmed the victim's death; {replay}"
                ));
            }
            if injected == 0 {
                return Err(format!("the kill never fired; {replay}"));
            }
            if *schedule == "kill_restart" && rejoins == 0 {
                return Err(format!(
                    "the restarted rank was never welcomed back; {replay}"
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "CHAOS OK: every fault schedule reproduced the reference energy; \
         every death schedule terminated with the victim detected"
    );
    Ok(())
}

fn check_smoke(ranks: usize, e_ref: f64, per_rank: &[Vec<RunOut>]) -> Result<(), String> {
    let mut worst: f64 = 0.0;
    for o in &per_rank[0] {
        let e = o.energy.ok_or("rank 0 must report an energy")?;
        let d = tensor_kernels::rel_diff(e_ref, e);
        worst = worst.max(d);
        println!(
            "{:>3} over {ranks}-rank sockets: {e:.15}  (rel diff {d:.2e}, {} rndv, {} eager payloads)",
            o.name, o.rndv, o.eager
        );
    }
    let all = per_rank.iter().flatten();
    let recovery: u64 = all
        .clone()
        .map(|o| o.timeouts + o.retries + o.dup_requests + o.dup_replies)
        .sum();
    if recovery != 0 {
        return Err(format!(
            "smoke FAILED: healthy mesh showed recovery activity ({recovery} events) — \
             retry timers must never fire without faults"
        ));
    }
    // Smoke runs the cache with `verify_reads` on every rank: each hit
    // was compared against a fresh owner fetch. Zero tolerance.
    let (hits, stale) = all.fold((0u64, 0u64), |(h, s), o| {
        (h + o.cache_hits, s + o.stale_reads)
    });
    if stale != 0 {
        return Err(format!(
            "smoke FAILED: {stale} cached reads observed stale data on a healthy mesh"
        ));
    }
    if worst < 1e-12 {
        println!(
            "SMOKE OK: all variants match the single-process reference \
             ({hits} verified cache hits, 0 stale)"
        );
        Ok(())
    } else {
        Err(format!("smoke FAILED: worst rel diff {worst:.2e}"))
    }
}

fn aggregate(
    ranks: usize,
    scale: &str,
    threads: &[usize],
    e_ref: f64,
    per_rank: &[Vec<RunOut>],
) -> Result<(), String> {
    let nruns = per_rank[0].len();
    let mut rows = Vec::new();
    // (name, threads, wall_ns, overlap) per row, for the sweep summary.
    let mut sweep_rows: Vec<(String, u64, u64, f64)> = Vec::new();
    let mut total_stolen = 0u64;
    for i in 0..nruns {
        let name = per_rank[0][i].name.clone();
        let row_threads = per_rank[0][i].threads;
        // Wall time of the collective run is the slowest rank's.
        let wall_ns = per_rank.iter().map(|rs| rs[i].wall_ns).max().unwrap_or(0);
        let sum = |f: &dyn Fn(&RunOut) -> u64| per_rank.iter().map(|rs| f(&rs[i])).sum::<u64>();
        let comm_ns = sum(&|o| o.comm_ns);
        let overlapped_ns = sum(&|o| o.overlapped_ns);
        let overlap = if comm_ns == 0 {
            0.0
        } else {
            overlapped_ns as f64 / comm_ns as f64
        };
        let mut lats: Vec<u64> = per_rank
            .iter()
            .flat_map(|rs| rs[i].lat_ns.clone())
            .collect();
        lats.sort_unstable();
        let energy = per_rank[0][i].energy.ok_or("rank 0 must report energy")?;
        let d = tensor_kernels::rel_diff(e_ref, energy);
        if d >= 1e-12 {
            return Err(format!(
                "{name}: energy {energy} vs reference {e_ref} ({d:.2e})"
            ));
        }
        // The no-overhead gate: on a healthy mesh the retry/dedup
        // machinery must be pure bookkeeping — zero events.
        let recovery = sum(&|o| o.timeouts + o.retries + o.dup_requests + o.dup_replies);
        if recovery != 0 {
            return Err(format!(
                "{name}: healthy mesh showed {recovery} recovery events \
                 ({} timeouts, {} retries, {} dup_requests, {} dup_replies; \
                 get p99 {:.1} us) — retry timers must never fire without faults",
                sum(&|o| o.timeouts),
                sum(&|o| o.retries),
                sum(&|o| o.dup_requests),
                sum(&|o| o.dup_replies),
                percentile_us(&lats, 99.0),
            ));
        }
        // Cache effectiveness and wire-reduction ratios for this run.
        let (hits, joins, misses) = (
            sum(&|o| o.cache_hits),
            sum(&|o| o.cache_joins),
            sum(&|o| o.cache_misses),
        );
        let lookups = hits + joins + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            (hits + joins) as f64 / lookups as f64
        };
        let (multi_gets, multi_parts) = (sum(&|o| o.multi_gets), sum(&|o| o.multi_parts));
        let occupancy = if multi_gets == 0 {
            0.0
        } else {
            multi_parts as f64 / multi_gets as f64
        };
        // Steal accounting must reconcile: every chain a victim donated
        // landed on exactly one thief (the recorded-grant idempotency
        // story — a drift here means chains were lost or double-run).
        let (donated, stolen) = (sum(&|o| o.steal_donated), sum(&|o| o.steal_stolen));
        if donated != stolen {
            return Err(format!(
                "{name}: {donated} chains donated but {stolen} received — \
                 the steal protocol lost or duplicated a grant"
            ));
        }
        total_stolen += stolen;
        println!(
            "{name:>14}: wall {:.1} ms  overlap {overlap:.3}  comm {:.2} ms  {} eager / {} rndv payloads  {:.2} MB on wire  get p50 {:.1} us p99 {:.1} us",
            wall_ns as f64 / 1e6,
            comm_ns as f64 / 1e6,
            sum(&|o| o.eager),
            sum(&|o| o.rndv),
            sum(&|o| o.bytes_tx) as f64 / 1e6,
            percentile_us(&lats, 50.0),
            percentile_us(&lats, 99.0),
        );
        println!(
            "{:>14}  steal: {} reqs, {stolen} chains migrated ({:.1} KB working set), {} local claims, {} deque steals, {} externally seeded tasks",
            "",
            sum(&|o| o.steal_reqs),
            sum(&|o| o.steal_stolen_bytes) as f64 / 1e3,
            sum(&|o| o.steal_local_claimed),
            sum(&|o| o.engine_local_steals),
            sum(&|o| o.engine_external_tasks),
        );
        println!(
            "{:>12}  cache hit rate {hit_rate:.3} ({hits} hits / {joins} joins / {misses} misses)  batch occupancy {occupancy:.2} ({multi_parts} gets in {multi_gets} frames)",
            ""
        );
        sweep_rows.push((name.clone(), row_threads, wall_ns, overlap));
        rows.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"threads\": {row_threads},\n      \"wall_ns\": {wall_ns},\n      \"energy_rel_diff\": {d:.3e},\n      \"overlap_fraction\": {overlap:.6},\n      \"comm_ns\": {comm_ns},\n      \"overlapped_ns\": {overlapped_ns},\n      \"steal\": {{\"requests\": {}, \"donated_chains\": {donated}, \"stolen_chains\": {stolen}, \"donated_bytes\": {}, \"stolen_bytes\": {}, \"local_claimed\": {}, \"engine_local_steals\": {}, \"engine_external_tasks\": {}}},\n      \"eager_payloads\": {},\n      \"rndv_payloads\": {},\n      \"bytes_tx\": {},\n      \"bytes_rx\": {},\n      \"gets\": {},\n      \"puts\": {},\n      \"accs\": {},\n      \"ga_local_bytes\": {},\n      \"ga_remote_bytes\": {},\n      \"recovery\": {{\"timeouts\": {}, \"retries\": {}, \"dup_requests\": {}, \"dup_replies\": {}}},\n      \"cache\": {{\"hits\": {hits}, \"joins\": {joins}, \"misses\": {misses}, \"invalidations\": {}, \"hit_rate\": {hit_rate:.6}, \"hit_bytes\": {}}},\n      \"batch\": {{\"multi_gets\": {multi_gets}, \"multi_parts\": {multi_parts}, \"occupancy\": {occupancy:.6}, \"req_bytes\": {}, \"wire_bytes\": {}}},\n      \"get_latency_us\": {{\"p50\": {:.2}, \"p90\": {:.2}, \"p99\": {:.2}}}\n    }}",
            sum(&|o| o.steal_reqs),
            sum(&|o| o.steal_donated_bytes),
            sum(&|o| o.steal_stolen_bytes),
            sum(&|o| o.steal_local_claimed),
            sum(&|o| o.engine_local_steals),
            sum(&|o| o.engine_external_tasks),
            sum(&|o| o.eager),
            sum(&|o| o.rndv),
            sum(&|o| o.bytes_tx),
            sum(&|o| o.bytes_rx),
            sum(&|o| o.gets),
            sum(&|o| o.puts),
            sum(&|o| o.accs),
            sum(&|o| o.ga_local),
            sum(&|o| o.ga_remote),
            sum(&|o| o.timeouts),
            sum(&|o| o.retries),
            sum(&|o| o.dup_requests),
            sum(&|o| o.dup_replies),
            sum(&|o| o.cache_invals),
            sum(&|o| o.cache_hit_bytes),
            sum(&|o| o.get_req_bytes),
            sum(&|o| o.get_wire_bytes),
            percentile_us(&lats, 50.0),
            percentile_us(&lats, 90.0),
            percentile_us(&lats, 99.0),
        ));
    }
    if total_stolen == 0 {
        return Err(
            "steal demonstration row migrated zero chains — the cross-rank \
             steal path must demonstrably fire"
                .into(),
        );
    }

    // The Fig. 9 cores-per-node sweep: v5-vs-v2 wall time and overlap at
    // each worker count, with speedup relative to one worker per rank.
    let wall_of = |prefix: &str, t: usize| {
        sweep_rows
            .iter()
            .find(|(n, th, _, _)| n == &format!("{prefix}_t{t}") && *th == t as u64)
            .map(|&(_, _, w, o)| (w, o))
    };
    let mut sweep_json = Vec::new();
    for &t in threads {
        let (Some((w5, o5)), Some((w2, o2))) = (wall_of("v5_prefetch", t), wall_of("v2_noprio", t))
        else {
            continue;
        };
        let base = wall_of("v5_prefetch", threads[0]).map_or(0, |(w, _)| w);
        let speedup = if w5 == 0 {
            0.0
        } else {
            base as f64 / w5 as f64
        };
        println!(
            "sweep t{t}: v5 {:.1} ms (overlap {o5:.3}, {speedup:.2}x vs t{}), v2 {:.1} ms (overlap {o2:.3})",
            w5 as f64 / 1e6,
            threads[0],
            w2 as f64 / 1e6,
        );
        sweep_json.push(format!(
            "    {{\"threads\": {t}, \"v5_wall_ns\": {w5}, \"v2_wall_ns\": {w2}, \"v5_overlap\": {o5:.6}, \"v2_overlap\": {o2:.6}, \"v5_speedup_vs_t{}\": {speedup:.4}}}",
            threads[0]
        ));
    }
    let json = format!(
        "{{\n  \"ranks\": {ranks},\n  \"scale\": \"{scale}\",\n  \"threads_sweep\": [{}],\n  \"reference_energy\": {e_ref:.17e},\n  \"sweep\": [\n{}\n  ],\n  \"runs\": [\n{}\n  ]\n}}\n",
        threads
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        sweep_json.join(",\n"),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_comm.json");
    let mut f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    f.write_all(json.as_bytes()).map_err(|e| e.to_string())?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ranks: usize = arg_value(&args, "--ranks")
        .map(|v| v.parse().unwrap())
        .unwrap_or(4);
    // Distinct port windows across concurrent invocations.
    let port: u16 = arg_value(&args, "--port")
        .map(|v| v.parse().unwrap())
        .unwrap_or_else(|| 24000 + (std::process::id() % 700) as u16 * 8);
    match arg_value(&args, "--rank") {
        Some(r) => {
            child(r.parse().unwrap(), ranks, port, &args);
            std::process::ExitCode::SUCCESS
        }
        None => {
            let res = if has_flag(&args, "--chaos") {
                chaos(ranks, &args)
            } else {
                parent(ranks, port, &args)
            };
            match res {
                Ok(()) => std::process::ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    std::process::ExitCode::FAILURE
                }
            }
        }
    }
}
