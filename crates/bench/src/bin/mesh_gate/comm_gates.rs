//! `comm-smoke` and `chaos`: CCSD variants through the distributed Global
//! Arrays backend on a 4-rank socket mesh — healthy, under every named
//! fault schedule, and with the highest rank scripted to die.

use crate::fragment::{check_coherent, check_energy, check_quiet, sum, Fragment};
use crate::launch::run_mesh;
use crate::{connect, reference, RANKS};
use ccsd::{DistRank, VariantCfg};
use comm::fault::{FaultPlan, FaultTransport};
use comm::CommConfig;
use global_arrays::TileCacheConfig;
use std::time::Duration;
use tensor_kernels::rel_diff;

/// Workers per rank beside the comm progress thread: the fused engine's
/// multithreaded regime (stolen grants riding the wire) is part of what
/// the smoke and the fault schedules must cover.
const WORKERS: usize = 4;

/// The wire-accounting invariants every rank must reconcile before its
/// fragment is trusted: the GA layer's idea of remote read traffic (the
/// application's reads plus the `verify_reads` oracle's) must equal the
/// endpoint's requested get bytes, and — the pipeline having drained —
/// every requested byte must have been delivered off the wire. A drift
/// here means a counter lies — fail the whole gate loudly.
fn assert_reconciled(rank: usize, dr: &DistRank) {
    let (ga, s) = (dr.workspace().ga.stats(), dr.endpoint().stats());
    assert_eq!(
        ga.remote_get_bytes() + ga.verify_get_bytes(),
        s.get_req_bytes,
        "rank {rank}: GA remote get bytes diverged from endpoint get_req_bytes — \
         a read path is bypassing the accounting"
    );
    assert_eq!(
        s.get_req_bytes, s.get_wire_bytes,
        "rank {rank}: get_req_bytes != get_wire_bytes — a posted get never delivered"
    );
}

/// The counters every comm gate reads, over the rank's whole life.
fn record_health(f: &mut Fragment, dr: &DistRank, injected: u64) {
    let (s, ga) = (dr.endpoint().stats(), dr.workspace().ga.stats());
    for (name, v) in [
        ("timeouts", s.timeouts),
        ("retries", s.retries),
        ("dups", s.dup_requests + s.dup_replies),
        ("suspects", s.suspects),
        ("confirmed_deaths", s.confirmed_deaths),
        ("fenced_rx", s.fenced_rx),
        ("injected", injected),
        ("cache_hits", ga.cache_hits()),
        ("cache_retained", ga.cache_retained()),
        ("stale_reads", ga.stale_reads()),
    ] {
        f.add(name, v);
    }
}

fn tiny_rank(transport: Box<dyn comm::Transport>, cfg: CommConfig, verify_reads: bool) -> DistRank {
    let space = tce::TileSpace::build(&tce::scale::tiny());
    let cache = TileCacheConfig {
        verify_reads,
        ..TileCacheConfig::default()
    };
    DistRank::with_configs(transport, &space, &[tce::Kernel::T2_7], cfg, cache)
}

// ---- comm-smoke -----------------------------------------------------

/// One rank of the smoke: the stock comm configuration, and the cache in
/// paranoia mode — every hit is re-fetched fresh from the owners and
/// compared, and any mismatch counts a stale read that fails CI. The
/// five runs share one workspace, so from the second on they hit the
/// blocks of its frozen inputs that outlived the syncs between runs.
pub fn smoke_rank(rank: usize, port: u16) -> Fragment {
    let dr = tiny_rank(Box::new(connect(rank, port)), CommConfig::default(), true);
    let mut f = Fragment::new(rank);
    for cfg in VariantCfg::all() {
        let run = dr.run_variant(cfg, WORKERS, true);
        f.add_energy(&format!("{}.energy", cfg.name), run.energy);
    }
    // The energy reduction once more, over the output the last run (v5)
    // left: it must move no tile and reproduce that run's bits.
    let ga = dr.workspace().ga.stats();
    let pulled = ga.remote_get_bytes();
    f.add_energy("reduce.energy", dr.energy());
    f.add("reduce.get_bytes", ga.remote_get_bytes() - pulled);
    record_health(&mut f, &dr, 0);
    assert_reconciled(rank, &dr);
    dr.finish();
    f
}

pub fn smoke(port: u16) -> Result<(), String> {
    let e_ref = reference(&tce::scale::tiny());
    eprintln!("# reference energy (single process): {e_ref:.15}");
    let role = ("smoke", &[][..]);
    let (frags, ()) = run_mesh("mesh_gate comm-smoke", port, role, None, move || {
        (smoke_rank(0, port), ())
    })?;
    for name in VariantCfg::all().map(|cfg| cfg.name) {
        if let Some(e) = frags[0].energy(&format!("{name}.energy")) {
            let d = rel_diff(e_ref, e);
            println!("{name} over {RANKS}-rank sockets: {e:.15}  (rel diff {d:.2e})");
        }
    }
    check_smoke(e_ref, &frags).map_err(|e| format!("smoke FAILED: {e}"))?;
    println!(
        "SMOKE OK: all variants match the single-process reference \
         ({} verified cache hits, 0 stale)",
        sum(&frags, "cache_hits")
    );
    Ok(())
}

fn check_smoke(e_ref: f64, frags: &[Fragment]) -> Result<(), String> {
    for name in VariantCfg::all().map(|cfg| cfg.name) {
        check_energy(name, e_ref, frags[0].energy(&format!("{name}.energy")))?;
    }
    check_reduce_moves_no_tiles(frags)?;
    check_retained(frags)?;
    check_quiet(frags)?;
    check_coherent(frags)
}

/// The five runs share one workspace whose inputs are frozen, so every
/// rank keeps their cached blocks across the syncs between runs. A rank
/// that retained nothing refetched its operands every run — and left the
/// coherence gate nothing retained to verify.
fn check_retained(frags: &[Fragment]) -> Result<(), String> {
    match frags.iter().find(|f| f.get("cache_retained") == 0) {
        Some(f) => Err(format!(
            "rank {} retained no cached block across a sync",
            f.rank
        )),
        None => Ok(()),
    }
}

/// The energy is an owner-computes reduction: every rank sums the shard
/// it holds and two words per rank travel. A rank whose remote get bytes
/// grew across the collective pulled output tiles again, and a leader
/// whose repeat differs from the run's own energy by a single bit summed
/// something other than the shards the run left.
fn check_reduce_moves_no_tiles(frags: &[Fragment]) -> Result<(), String> {
    if let Some(f) = frags.iter().find(|f| f.get("reduce.get_bytes") != 0) {
        let (rank, b) = (f.rank, f.get("reduce.get_bytes"));
        return Err(format!("rank {rank}'s energy reduction pulled {b} bytes"));
    }
    let bits = |name| frags[0].energy(name).map(f64::to_bits);
    let (run, again) = (bits("v5.energy"), bits("reduce.energy"));
    if run.is_none() || run != again {
        return Err(format!(
            "the repeated energy reduction gave {again:x?}, the v5 run {run:x?}"
        ));
    }
    Ok(())
}

// ---- chaos: fault schedules -------------------------------------------

/// One rank of a fault run: v5 over a fault-wrapped socket mesh. The
/// injector is disarmed after the results exist so the final collective
/// teardown runs clean.
pub fn fault_rank(rank: usize, port: u16, schedule: &str, seed: u64) -> Fragment {
    let plan = FaultPlan::named(schedule, seed.wrapping_add(rank as u64))
        .unwrap_or_else(|| panic!("unknown chaos schedule `{schedule}`"));
    let ft = FaultTransport::new(Box::new(connect(rank, port)), plan);
    let (armed, injected) = (ft.armed_handle(), ft.counters());
    // Chaos always runs the cache in paranoia mode: an injected fault
    // that left a stale block cached is counted — and gated to zero.
    let dr = tiny_rank(Box::new(ft), chaos_timers(schedule, None), true);
    let run = dr.run_variant(VariantCfg::v5(), WORKERS, true);
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
    let mut f = Fragment::new(rank);
    record_health(&mut f, &dr, injected.total());
    f.add_energy("energy", run.energy);
    f.add("donated", run.steal.donated_chains);
    f.add("stolen", run.steal.stolen_chains);
    assert_reconciled(rank, &dr);
    armed.store(false, std::sync::atomic::Ordering::SeqCst);
    dr.finish();
    f
}

/// Fault and kill schedules run with fast timers so injected losses (and
/// ops blocked on a corpse) turn around in milliseconds. The clean
/// controls keep the production timers — the gate there is exactly that
/// they never fire on a healthy mesh (startup skew between real
/// processes can exceed a 20 ms timer). `detector` arms the failure
/// detector with `(suspect_after, dead_after)`.
fn chaos_timers(schedule: &str, detector: Option<(Duration, Duration)>) -> CommConfig {
    let mut cfg = CommConfig::default();
    if schedule != "clean" {
        cfg.retry_timeout = Duration::from_millis(20);
        cfg.retry_backoff_max = Duration::from_millis(80);
    }
    if let Some((suspect, dead)) = detector {
        cfg.suspect_after = Some(suspect);
        cfg.dead_after = dead;
    }
    cfg
}

fn check_fault(schedule: &str, e_ref: f64, frags: &[Fragment]) -> Result<(), String> {
    // Exactly-once chain migration under faults: a lost steal reply
    // retransmits into the victim's *recorded* grant, so the chain
    // count must reconcile even when the wire drops frames.
    let (donated, stolen) = (sum(frags, "donated"), sum(frags, "stolen"));
    if donated != stolen {
        return Err(format!(
            "{donated} chains donated but {stolen} received under faults — \
             a steal grant was lost or double-applied"
        ));
    }
    check_coherent(frags)?;
    check_energy(schedule, e_ref, frags[0].energy("energy"))?;
    if schedule == "clean" {
        check_quiet(frags)?;
    }
    Ok(())
}

// ---- chaos: the kill matrix -------------------------------------------

/// One rank of a death-schedule run: the victim (highest rank) runs the
/// named kill plan, every other rank a clean plan off the same base
/// seed, and the failure detector is armed on all of them. No energy
/// gate here — a dead gang member poisons the collective result by
/// design (the energy-through-death headline lives in the service
/// layer's fence-and-requeue path, `mesh_gate recovery`); the parent
/// gates termination, survivor-side detection, and the detector-armed
/// clean control instead. The injector stays armed through teardown: the
/// kill *is* the scenario, and the detector's poison-release is what
/// must let every rank out of the final barrier.
pub fn kill_rank(rank: usize, port: u16, schedule: &str, seed: u64) -> Fragment {
    let clean = schedule == "clean";
    let plan = if rank == RANKS - 1 && !clean {
        FaultPlan::named(schedule, seed)
            .unwrap_or_else(|| panic!("unknown death schedule `{schedule}`"))
    } else {
        FaultPlan::clean(seed.wrapping_add(rank as u64))
    };
    let ft = FaultTransport::new(Box::new(connect(rank, port)), plan);
    let injected = ft.counters();
    let detector = (Duration::from_millis(100), Duration::from_millis(500));
    // Cache verification stays off in kill runs: a poisoned run reads
    // zeros from the corpse by design, and re-verified hits would count
    // those as stale. The clean control re-verifies every hit.
    let dr = tiny_rank(Box::new(ft), chaos_timers(schedule, Some(detector)), clean);
    // Enough back-to-back runs that every scripted kill index (the
    // largest is 400 arrivals) lands inside live workload traffic rather
    // than in the teardown tail. The first tiny run delivers a few dozen
    // frames per rank; every later one reads its frozen operands from
    // the cache and delivers about 14, so index 400 fires in run ~29.
    // Runs after the death abort fast: every collective toward the
    // corpse poison-releases as soon as the dead mask is set.
    let mut energy = None;
    for i in 0..if clean { 2 } else { 60 } {
        let run = dr.run_variant(VariantCfg::v5(), 2, true);
        if i == 0 {
            energy = run.energy;
        }
        // Stop issuing collectives at the first confirmed death: every
        // further run would be poisoned anyway (the verdict is final),
        // mirroring the service layer, which fences the dead rank for
        // good and re-plans on the survivors.
        if dr.endpoint().dead_mask() != 0 {
            break;
        }
    }
    let mut f = Fragment::new(rank);
    record_health(&mut f, &dr, injected.total());
    f.add_energy("energy", energy);
    if clean {
        dr.finish();
    } else {
        // No clean collective teardown on a mesh that saw a death: the
        // sync inside `finish` needs matching barrier epochs on every
        // rank, and after a kill those are gone for good. Shut the
        // engine down directly — terminating without the victim is
        // exactly the behavior under test.
        dr.endpoint().shutdown();
    }
    f
}

fn check_kill(schedule: &str, e_ref: f64, frags: &[Fragment]) -> Result<(), String> {
    if schedule == "clean" {
        // The armed detector on a healthy mesh must be pure bookkeeping.
        check_energy("armed healthy run", e_ref, frags[0].energy("energy"))?;
        let (suspects, deaths) = (sum(frags, "suspects"), sum(frags, "confirmed_deaths"));
        if suspects + deaths != 0 {
            return Err(format!(
                "detector false positives on a healthy mesh: {suspects} suspects, {deaths} deaths"
            ));
        }
        check_quiet(frags)?;
        return check_coherent(frags);
    }
    if sum(&frags[..RANKS - 1], "confirmed_deaths") == 0 {
        return Err("no survivor confirmed the victim's death".into());
    }
    if sum(frags, "injected") == 0 {
        return Err("the kill never fired".into());
    }
    Ok(())
}

/// The chaos matrix, each schedule on its own socket mesh (fresh port
/// window: listener ports are not reused across schedules, so lingering
/// TIME_WAIT connections from the previous mesh cannot fail the next
/// bind) with per-rank seeds derived from one printed base seed.
///
/// First every named fault schedule plus a clean control — the paper's
/// correctness claim under an unreliable network: every schedule
/// terminates and reproduces the reference energy to 1e-12, and the
/// clean control shows zero recovery activity. Then the kill matrix:
/// every death schedule plus a detector-armed clean control, the highest
/// rank the victim — the failure-model claims: every rank **terminates**
/// (the detector's poison-release is the only way out of a barrier with
/// a corpse in it), the survivors confirm the death, and the armed
/// detector on a healthy mesh shows zero suspects, zero deaths, and an
/// unchanged 1e-12 energy. Each line prints the seed that replays it.
pub fn chaos(base_port: u16, seed_base: u64) -> Result<(), String> {
    let e_ref = reference(&tce::scale::tiny());
    eprintln!("# reference energy (single process): {e_ref:.15}");
    let replay_cmd = format!("mesh_gate chaos --seed {seed_base:x}");
    eprintln!("# chaos base seed: {seed_base:#x} (replay: {replay_cmd})");

    let faults = FaultPlan::schedule_names().iter().chain(&["clean"]);
    let kills = FaultPlan::death_schedule_names().iter().chain(&["clean"]);
    let meshes = faults
        .map(|s| (*s, None))
        .chain(kills.enumerate().map(|(k, s)| (*s, Some(k))));
    for (i, (schedule, kill)) in meshes.enumerate() {
        let port = base_port + (i * RANKS) as u16;
        let (role, seed) = match kill {
            None => ("fault", seed_base.wrapping_add((i as u64) << 8)),
            // Offset past the fault-schedule seed range so no kill run
            // ever shares dice with a fault run of the same base seed.
            Some(k) => (
                "kill",
                seed_base.wrapping_add(0x00D0_0000 + ((k as u64) << 8)),
            ),
        };
        let replay = match kill {
            None => format!("schedule `{schedule}` seed {seed:#x}"),
            Some(_) => format!("kill schedule `{schedule}` seed {seed:#x} (replay: {replay_cmd})"),
        };
        let sched = schedule.to_string();
        let extra = [sched.clone(), seed.to_string()];
        let (frags, ()) = run_mesh(&replay, port, (role, &extra), None, move || match kill {
            None => (fault_rank(0, port, &sched, seed), ()),
            Some(_) => (kill_rank(0, port, &sched, seed), ()),
        })?;
        let n = |name| sum(&frags, name);
        let [injected, retries, timeouts, dups, fenced_rx] =
            ["injected", "retries", "timeouts", "dups", "fenced_rx"].map(n);
        let verdict = if kill.is_some() {
            let [suspects, deaths] =
                ["suspects", "confirmed_deaths"].map(|c| sum(&frags[..RANKS - 1], c));
            println!(
                "{schedule:>12} seed {seed:#012x}: {injected} frames blackholed  {suspects} suspects  {deaths} deaths confirmed by survivors  {fenced_rx} fenced_rx  all {RANKS} ranks terminated"
            );
            check_kill(schedule, e_ref, &frags)
        } else {
            let d = (frags[0].energy("energy")).map_or(f64::NAN, |e| rel_diff(e_ref, e));
            let [hits, stale, stolen] = ["cache_hits", "stale_reads", "stolen"].map(n);
            println!(
                "{schedule:>10} seed {seed:#012x}: rel diff {d:.2e}  {injected} faults injected  {retries} retries  {timeouts} timeouts  {dups} dups detected  {hits} cache hits  {stale} stale reads  {stolen} chains migrated"
            );
            check_fault(schedule, e_ref, &frags)
        };
        verdict.map_err(|e| format!("{e}; {replay}"))?;
    }
    println!(
        "CHAOS OK: every fault schedule reproduced the reference energy; \
         every death schedule terminated with the victim detected"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const E_REF: f64 = -1.009241245750222;

    /// Four ranks' fragments as a passing run writes them: smoke's keys
    /// and a fault schedule's, rank 1 donating five chains to rank 2.
    fn good() -> Vec<Fragment> {
        let rank = |rank: usize| {
            let mut f = Fragment::new(rank);
            let zeroed = "timeouts retries dups suspects confirmed_deaths fenced_rx injected";
            zeroed.split(' ').for_each(|name| f.add(name, 0));
            f.add("stale_reads", 0);
            f.add("cache_hits", 4);
            f.add("cache_retained", 6);
            f.add("donated", if rank == 1 { 5 } else { 0 });
            f.add("stolen", if rank == 2 { 5 } else { 0 });
            f.add_energy("energy", (rank == 0).then_some(E_REF));
            for name in VariantCfg::all().map(|cfg| cfg.name) {
                f.add_energy(&format!("{name}.energy"), (rank == 0).then_some(E_REF));
            }
            f.add_energy("reduce.energy", (rank == 0).then_some(E_REF));
            f.add("reduce.get_bytes", 0);
            f
        };
        (0..RANKS).map(rank).collect()
    }

    /// A kill schedule's passing shape: the victim (rank 3) blackholed
    /// frames and, cut off, wrote the whole mesh off; rank 0 suspected
    /// and confirmed it.
    fn good_kill() -> Vec<Fragment> {
        let mut frags = good();
        frags[3].set("injected", 63);
        frags[3].set("confirmed_deaths", 3);
        for (name, v) in [("suspects", 5), ("confirmed_deaths", 1)] {
            frags[0].set(name, v);
        }
        frags
    }

    type Gate = fn(&str, f64, &[Fragment]) -> Result<(), String>;
    const SMOKE: Gate = |_, e_ref, frags| check_smoke(e_ref, frags);
    const FAULT: Gate = check_fault;
    const KILL: Gate = check_kill;

    #[test]
    fn the_fixtures_pass_every_gate() {
        assert_eq!(check_smoke(E_REF, &good()), Ok(()));
        assert_eq!(check_fault("drop", E_REF, &good()), Ok(()));
        assert_eq!(check_fault("clean", E_REF, &good()), Ok(()));
        assert_eq!(check_kill("clean", E_REF, &good()), Ok(()));
        assert_eq!(check_kill("kill_gemm", E_REF, &good_kill()), Ok(()));
        // Recovery activity is what a fault schedule is *for*.
        let mut faulty = good();
        faulty[2].set("retries", 19);
        assert_eq!(check_fault("drop", E_REF, &faulty), Ok(()));
    }

    #[test]
    fn every_gate_fires_on_its_failing_side() {
        let off = (E_REF * (1.0 + 2e-12)).to_bits();
        assert!(rel_diff(E_REF, f64::from_bits(off)) < 2.1e-12);
        let ulp = E_REF.to_bits() + 1;
        // One value of a passing run broken at a time: (gate, schedule,
        // rank, counter, value, what the error must say). `kill_*`
        // schedules start from the kill fixture.
        let cases = [
            (SMOKE, "", 3, "retries", 1, "1 retries, 0 dups"),
            (FAULT, "clean", 3, "retries", 1, "1 retries, 0 dups"),
            (KILL, "clean", 0, "dups", 1, "0 retries, 1 dups"),
            (KILL, "clean", 1, "suspects", 1, "1 suspects, 0 deaths"),
            (FAULT, "drop", 2, "stolen", 4, "donated but 4 received"),
            (FAULT, "duplicate", 3, "stolen", 1, "donated but 6"),
            (SMOKE, "", 1, "stale_reads", 1, "1 cached reads"),
            (SMOKE, "", 2, "cache_retained", 0, "rank 2 retained no"),
            (FAULT, "stall", 1, "stale_reads", 1, "1 cached reads"),
            (KILL, "clean", 1, "stale_reads", 1, "1 cached reads"),
            (FAULT, "reorder", 0, "energy", off, "reorder: energy"),
            (KILL, "clean", 0, "energy", off, "healthy run: energy"),
            (SMOKE, "", 0, "v5.energy", off, "v5: energy"),
            (
                SMOKE,
                "",
                2,
                "reduce.get_bytes",
                8,
                "rank 2's energy reduction pulled 8",
            ),
            (
                SMOKE,
                "",
                0,
                "reduce.energy",
                ulp,
                "repeated energy reduction gave",
            ),
            (KILL, "kill_submit", 3, "injected", 0, "never fired"),
            // The victim's own count does not stand in for a survivor's.
            (KILL, "kill_gemm", 0, "confirmed_deaths", 0, "no survivor"),
        ];
        for (gate, schedule, rank, name, v, want) in cases {
            let kill = schedule.starts_with("kill_");
            let mut frags = if kill { good_kill() } else { good() };
            frags[rank].set(name, v);
            let err = gate(schedule, E_REF, &frags).expect_err(want);
            assert!(err.contains(want), "{schedule}, {name}={v}: {err}");
        }
    }
}
