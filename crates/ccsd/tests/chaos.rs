//! End-to-end chaos matrix: small-scale distributed CCSD (v2 and v5)
//! over 4 ranks of one in-process socket mesh, with every rank's
//! transport wrapped in a seeded [`FaultTransport`]. Each named fault
//! schedule must terminate and reproduce the single-process reference
//! energy to 1e-12 — the paper's claim that the task formulation
//! decouples correctness from execution order, demonstrated under
//! message loss, delay, duplication, reordering, partitions and stalls.
//!
//! On failure the panic message carries the schedule and seed; replay by
//! running the test with the same constants (fault decisions are a pure
//! function of `(seed, sender, arrival index)`).
//!
//! Injection covers the entire computation — fills, both variant runs,
//! all energy gathers. Each rank disarms its injector only after its
//! results exist, right before the final collective teardown (see
//! `FaultTransport::armed_handle` for why shutdown itself runs clean).

use ccsd::ctx::VariantCfg;
use ccsd::dist::DistRank;
use comm::fault::{FaultPlan, FaultTransport};
use comm::{CommConfig, CommStatsSnap, SocketTransport, Transport};
use global_arrays::TileCacheConfig;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::Duration;
use tce::{scale, Kernel, TileSpace};
use tensor_kernels::rel_diff;

const RANKS: usize = 4;

/// Fast retries so injected losses recover in milliseconds.
fn chaos_cfg() -> CommConfig {
    CommConfig {
        retry_timeout: Duration::from_millis(20),
        retry_backoff_max: Duration::from_millis(80),
        ..CommConfig::default()
    }
}

/// Tile cache in paranoia mode: every cache hit refetches the block
/// fresh from its owners and counts a `stale_read` on mismatch — the
/// zero-stale-read gate every chaos schedule must pass.
fn verify_cache_cfg() -> TileCacheConfig {
    TileCacheConfig {
        verify_reads: true,
        ..TileCacheConfig::default()
    }
}

fn reference() -> f64 {
    let space = TileSpace::build(&scale::tiny());
    let ws = tce::build_workspace(&space, 1);
    ccsd::verify::reference_energy(&ws)
}

struct RankResult {
    e_v2: Option<f64>,
    e_v5: Option<f64>,
    stats: CommStatsSnap,
    cache_hits: u64,
    stale_reads: u64,
}

type FaultyRank = (
    Box<dyn Transport>,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
);

/// Run the 4-rank v2+v5 matrix over faulty transports. Each rank
/// disarms its own injector once its results exist, then joins the
/// collective teardown.
fn run_matrix(transports: Vec<FaultyRank>, replay: &str) -> Vec<RankResult> {
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = transports
        .into_iter()
        .map(|(t, armed)| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let space = TileSpace::build(&scale::tiny());
                let rank = DistRank::with_configs(
                    t,
                    &space,
                    &[Kernel::T2_7],
                    chaos_cfg(),
                    verify_cache_cfg(),
                );
                // Four workers per rank beside the progress thread: the
                // fused engine's hot configuration, so every schedule
                // exercises steal/park races under fault recovery.
                let e_v2 = rank.run_variant(VariantCfg::v2(), 4, true).energy;
                let e_v5 = rank.run_variant(VariantCfg::v5(), 4, true).energy;
                // Deterministic hit-verify exercise while faults are
                // still armed: the first full-t2 read fills the cache
                // over the faulty wire, the second hits — and
                // `verify_reads` re-fetches it fresh for comparison.
                // (At tiny scale the runs themselves rarely re-read a
                // block between syncs, so this keeps the stale gate
                // from passing vacuously.)
                let ws = rank.workspace();
                let t2_len = ws.t2_layout.len();
                let warm = ws.ga.get(ws.t2, 0, t2_len);
                assert_eq!(warm, ws.ga.get(ws.t2, 0, t2_len));
                let stats = rank.endpoint().stats();
                let gs = ws.ga.stats();
                let (cache_hits, stale_reads) = (gs.cache_hits(), gs.stale_reads());
                armed.store(false, Ordering::SeqCst);
                rank.finish();
                tx.send(()).unwrap();
                RankResult {
                    e_v2,
                    e_v5,
                    stats,
                    cache_hits,
                    stale_reads,
                }
            })
        })
        .collect();
    for _ in 0..handles.len() {
        rx.recv_timeout(Duration::from_secs(240))
            .unwrap_or_else(|_| panic!("run did not terminate: {replay}"));
    }
    handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|e| {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panic!("rank panicked: {msg}; {replay}")
            })
        })
        .collect()
}

/// A 4-rank in-process socket mesh, rank `r` faulted by schedule `name`
/// at `seed + r`.
fn faulty_mesh(name: &str, seed: u64) -> Vec<FaultyRank> {
    SocketTransport::mesh(RANKS)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(r, t)| {
            let plan = FaultPlan::named(name, seed.wrapping_add(r as u64))
                .unwrap_or_else(|| panic!("unknown schedule {name}"));
            let ft = FaultTransport::new(Box::new(t), plan);
            let armed = ft.armed_handle();
            (Box::new(ft) as Box<dyn Transport>, armed)
        })
        .collect()
}

fn assert_energies(results: &[RankResult], e_ref: f64, replay: &str) {
    for (r, res) in results.iter().enumerate() {
        // The cache coherence gate: with `verify_reads` armed, every hit
        // was checked against the owners' live shards — any injected
        // fault that left a stale block cached would be counted here.
        assert_eq!(
            res.stale_reads, 0,
            "rank {r}: cached reads observed stale data: {replay}"
        );
        match r {
            0 => {
                let e2 = res.e_v2.expect("rank 0 reports v2 energy");
                let e5 = res.e_v5.expect("rank 0 reports v5 energy");
                assert!(
                    rel_diff(e_ref, e2) < 1e-12,
                    "v2 energy {e2} vs reference {e_ref}: {replay}"
                );
                assert!(
                    rel_diff(e_ref, e5) < 1e-12,
                    "v5 energy {e5} vs reference {e_ref}: {replay}"
                );
            }
            _ => assert!(
                res.e_v2.is_none() && res.e_v5.is_none(),
                "only rank 0 reports energies"
            ),
        }
    }
}

fn chaos_schedule(name: &str, seed: u64) -> Vec<RankResult> {
    let replay = format!(
        "ccsd chaos schedule `{name}` seed {seed} — replay: FaultPlan::named(\"{name}\", {seed})"
    );
    let e_ref = reference();
    let results = run_matrix(faulty_mesh(name, seed), &replay);
    assert_energies(&results, e_ref, &replay);
    results
}

#[test]
fn dist_ccsd_survives_drop() {
    let results = chaos_schedule("drop", 0x0D15_EA5E_0001);
    let retries: u64 = results.iter().map(|r| r.stats.retries).sum();
    assert!(
        retries > 0,
        "drops must force retries somewhere in the mesh"
    );
}

#[test]
fn dist_ccsd_survives_delay() {
    chaos_schedule("delay", 0x0D15_EA5E_0002);
}

#[test]
fn dist_ccsd_survives_duplicate() {
    let results = chaos_schedule("duplicate", 0x0D15_EA5E_0003);
    let dups: u64 = results
        .iter()
        .map(|r| r.stats.dup_requests + r.stats.dup_replies)
        .sum();
    assert!(dups > 0, "duplicates must be detected, not double-applied");
}

#[test]
fn dist_ccsd_survives_reorder() {
    chaos_schedule("reorder", 0x0D15_EA5E_0004);
}

#[test]
fn dist_ccsd_survives_partition() {
    chaos_schedule("partition", 0x0D15_EA5E_0005);
}

#[test]
fn dist_ccsd_survives_stall() {
    chaos_schedule("stall", 0x0D15_EA5E_0006);
}

/// The batched-read gauntlet: drop, duplicate and reorder at once, so
/// multi-part `Get` frames and their replies are lost, repeated and
/// swapped.
/// The batch must retry/dedup as one unit, the cache must stay coherent
/// (zero verified-stale reads via `assert_energies`), and the energy
/// must still land within 1e-12.
#[test]
fn dist_ccsd_survives_coalesce() {
    let results = chaos_schedule("coalesce", 0x0D15_EA5E_0007);
    let hits: u64 = results.iter().map(|r| r.cache_hits).sum();
    assert!(
        hits > 0,
        "the coalesce schedule must actually exercise cached reads"
    );
    let recoveries: u64 = results
        .iter()
        .map(|r| r.stats.retries + r.stats.dup_requests + r.stats.dup_replies)
        .sum();
    assert!(recoveries > 0, "schedule injected nothing observable");
}

/// The no-overhead gate at the application level: a clean 4-rank run
/// through the same harness must finish with zero recovery activity.
#[test]
fn dist_ccsd_clean_run_has_zero_recovery_activity() {
    let e_ref = reference();
    let replay = "clean run".to_string();
    let results = run_matrix(faulty_mesh("clean", 7), &replay);
    assert_energies(&results, e_ref, &replay);
    for (r, res) in results.iter().enumerate() {
        let s = &res.stats;
        assert_eq!(
            (s.timeouts, s.retries, s.dup_requests, s.dup_replies),
            (0, 0, 0, 0),
            "rank {r}: clean run must show zero recovery activity: {s:?}"
        );
    }
}
