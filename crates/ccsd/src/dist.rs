//! One rank of a real multi-rank CCSD execution.
//!
//! The simulated cluster engine models a distributed run inside one
//! process; this module *is* a distributed run: every rank owns a shard
//! of each Global Array (the `comm` crate's one-sided progress engine),
//! materializes only its round-robin share of the chains, and executes
//! them on its own native work-stealing engine. Cross-rank traffic is
//! exactly the application's: reader gets pulled from owner shards —
//! asynchronously, through the priority-driven prefetch pipeline, when
//! `prefetch` is on — and `WRITE_C` accumulates pushed to owner shards.
//!
//! The driver is collective throughout: every rank constructs a
//! [`DistRank`] over its transport and calls the same methods in the same
//! order, like an SPMD MPI program.

use crate::ctx::VariantCfg;
use crate::steal::{ChainSource, PrefetchFn, StealConfig, StealSummary};
use crate::variants::build_graph_external;
use comm::{CommConfig, Endpoint, Transport};
use global_arrays::{DistStore, Ga, GangView, TileCacheConfig};
use parsec_rt::{NativeReport, NativeRuntime, TilePool};
use ptg::TaskGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tce::{Inspection, Kernel, TileSpace, Workspace};

/// Outcome of one collective variant execution on one rank.
pub struct DistRun {
    /// The correlation-energy surrogate, reported by the gang leader
    /// only — logical node 0, i.e. rank 0 for a full-mesh run — (the
    /// other members return `None`): every member sums the output shard
    /// it owns and the leader adds the partial sums in node order. NaN
    /// when a member died before contributing its share.
    pub energy: Option<f64>,
    /// This rank's engine report (worker spans on the shared comm
    /// timeline, tagged with this rank's node id).
    pub report: NativeReport,
    /// Cross-rank steal activity of this run on this rank.
    pub steal: StealSummary,
}

/// One rank of a distributed CCSD execution: comm endpoint, GA shards,
/// workspace, and the tile pool reused across runs.
pub struct DistRank {
    ep: Arc<Endpoint>,
    ins: Arc<Inspection>,
    ws: Arc<Workspace>,
    pool: Arc<TilePool>,
    /// Collective run counter: every rank calls the collective methods
    /// in the same order, so the counter agrees across ranks and tags
    /// each native run's steal epoch (a victim still in run `N` answers
    /// a run-`N+1` thief dry instead of donating the wrong graph's
    /// chains). Shared (`Arc`) so a daemon hosting several attached
    /// problem instances over one endpoint draws every run — whichever
    /// instance it executes — from a single monotone sequence; per-
    /// instance counters would collide and let a late thief of job A's
    /// run `N` receive chains from job B's run `N`.
    run_epoch: Arc<AtomicU64>,
}

impl DistRank {
    /// Collectively materialize the problem over `transport`'s ranks:
    /// shard stores, the progress engine, deterministic tensor fills
    /// (each rank writes what it owns), and the inspection metadata.
    pub fn new(transport: Box<dyn Transport>, space: &TileSpace, kernels: &[Kernel]) -> Self {
        Self::with_configs(
            transport,
            space,
            kernels,
            CommConfig::default(),
            TileCacheConfig::default(),
        )
    }

    /// Fully explicit construction: comm configuration plus tile-cache
    /// configuration (disable it, resize it, or arm `verify_reads` for
    /// the chaos zero-stale-read gates).
    pub fn with_configs(
        transport: Box<dyn Transport>,
        space: &TileSpace,
        kernels: &[Kernel],
        cfg: CommConfig,
        cache_cfg: TileCacheConfig,
    ) -> Self {
        let (rank, nranks) = (transport.rank(), transport.nranks());
        let store = DistStore::new(rank, nranks);
        let ep = Endpoint::spawn(transport, store.clone(), cfg);
        let ga = Ga::init_dist_cfg(ep.clone(), store, cache_cfg);
        Self::attach(
            ep,
            ga,
            space,
            kernels,
            Arc::new(TilePool::default()),
            Arc::new(AtomicU64::new(0)),
        )
    }

    /// Collectively materialize *another* problem instance over an
    /// already-running endpoint: the service layer's plan-cache path,
    /// where one persistent daemon endpoint hosts a workspace per cached
    /// plan. `ga` must share the endpoint's store and cache (see
    /// [`Ga::dist_share`]); `pool` and `run_epoch` are shared across all
    /// instances so tile buffers are reused and steal epochs stay
    /// globally monotone. Collective: every rank must attach the same
    /// instances in the same order (array handles are allocation-order).
    pub fn attach(
        ep: Arc<Endpoint>,
        ga: Ga,
        space: &TileSpace,
        kernels: &[Kernel],
        pool: Arc<TilePool>,
        run_epoch: Arc<AtomicU64>,
    ) -> Self {
        // Inspection is over the *gang's* logical nodes, not the mesh:
        // a job gang of 2 on a 4-rank daemon shards its tensors 2 ways,
        // and every collective below scopes to the gang's members.
        let ins = Arc::new(tce::inspect_kernels(space, ga.nnodes(), kernels));
        let ws = Arc::new(tce::build_workspace_on(ga, space, kernels));
        // Fills are one-sided puts into local shards; the sync makes
        // every tensor globally visible before anyone reads.
        ws.ga.sync();
        Self {
            ep,
            ins,
            ws,
            pool,
            run_epoch,
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Ranks in the job.
    pub fn nranks(&self) -> usize {
        self.ep.nranks()
    }

    /// The gang this instance's workspace is scoped to (the full mesh
    /// unless attached over a [`Ga::dist_share_gang`] view).
    fn view(&self) -> &GangView {
        self.ws
            .ga
            .gang_view()
            .expect("DistRank runs the distributed backend")
    }

    /// This rank's gang-logical node index: chain placement, graph
    /// filtering, and the steal ring all use this, so a job on ranks
    /// {2,3} executes identically to one on ranks {0,1}.
    fn my_node(&self) -> usize {
        self.view().my_node
    }

    /// The communication endpoint (stats, latencies, trace spans).
    pub fn endpoint(&self) -> &Arc<Endpoint> {
        &self.ep
    }

    /// The rank-local view of the shared workspace.
    pub fn workspace(&self) -> &Arc<Workspace> {
        &self.ws
    }

    /// The inspection metadata (identical on every rank).
    pub fn inspection(&self) -> &Arc<Inspection> {
        &self.ins
    }

    /// Collectively execute one variant on the native work-stealing
    /// engine with `threads` workers per rank. `prefetch` routes reader
    /// bodies through the asynchronous get pipeline. Returns the energy
    /// on rank 0.
    ///
    /// This is the fused multithreaded path: the rank's chains feed the
    /// engine through a steal ledger, and idle workers escalate from
    /// local deque stealing to cross-rank chain migration (default
    /// [`StealConfig`]: steal remotely only after local work runs dry).
    pub fn run_variant(&self, cfg: VariantCfg, threads: usize, prefetch: bool) -> DistRun {
        self.run_variant_steal(cfg, threads, prefetch, StealConfig::default())
    }

    /// As [`DistRank::run_variant`] with explicit steal tuning.
    pub fn run_variant_steal(
        &self,
        cfg: VariantCfg,
        threads: usize,
        prefetch: bool,
        scfg: StealConfig,
    ) -> DistRun {
        let graph = self.build_run_graph(cfg, prefetch);
        self.run_variant_graph(&graph, cfg, threads, scfg)
    }

    /// Build the runnable task graph of one variant over this rank's
    /// workspace. The graph is a stateless description (per-run state
    /// lives in the engine), so callers may build once and run many
    /// times — the graph half of the service layer's plan cache.
    pub fn build_run_graph(&self, cfg: VariantCfg, prefetch: bool) -> TaskGraph {
        build_graph_external(
            self.ins.clone(),
            cfg,
            Some(self.ws.clone()),
            self.pool.clone(),
            prefetch,
        )
    }

    /// Operand prefetcher for granted steal chains: warms the tile
    /// cache for every GEMM operand of the chain through
    /// [`Ga::prefetch`] (misses start coalescable fills; the worker that
    /// later expands the grant joins them instead of paying a cold
    /// fetch) and reports the bytes requested. Runs on the comm thread
    /// inside the steal-reply callback, so the transfers are in flight
    /// before any worker wakes — which is also why it must use the
    /// non-delivering prefetch entry point and never a blocking get.
    fn grant_prefetcher(&self) -> PrefetchFn {
        let ws = self.ws.clone();
        let ins = self.ins.clone();
        Box::new(move |l1: i64| {
            let mut bytes = 0u64;
            for g in &ins.chains[l1 as usize].gemms {
                let (a, _) = ws.tensor(g.a_tensor);
                let (b, _) = ws.tensor(g.b_tensor);
                ws.ga.prefetch(a, g.a_offset, g.a_len, 0);
                ws.ga.prefetch(b, g.b_offset, g.b_len, 0);
                bytes += ((g.a_len + g.b_len) * 8) as u64;
            }
            bytes
        })
    }

    /// Collectively execute a prebuilt graph (see
    /// [`DistRank::build_run_graph`]) built with configuration `_cfg`.
    /// The graph carries the variant's whole wiring — the steal source
    /// seeds each chain from its group roots — so nothing is read from
    /// the configuration.
    pub fn run_variant_graph(
        &self,
        graph: &TaskGraph,
        _cfg: VariantCfg,
        threads: usize,
        scfg: StealConfig,
    ) -> DistRun {
        // Each rank zeroes the output shard it owns: a local write, made
        // visible to the gang by the opening sync below.
        self.ws.reset_output();
        let epoch = self.run_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let source = ChainSource::new(
            self.ep.clone(),
            self.ins.clone(),
            graph,
            scfg,
            epoch,
            self.view().clone(),
            Some(self.grant_prefetcher()),
        );
        // The comm thread donates from the same ledger the workers claim
        // from: thief and victim roles share one object.
        self.ep.set_steal_handler(Some(source.clone()));
        // One opening collective (gang-scoped: only this job's members
        // probe each other) serves two purposes. No rank's accumulate may
        // land in a shard its owner has yet to zero. And a probe that
        // lands before the victim installs its handler is answered dry,
        // and dry is sticky — a full ledger would be skipped for the
        // whole run; with the handler installed before the sync, every
        // handler is live before any rank's engine starts probing. (The
        // symmetric teardown race is benign: a rank that finished its
        // run has a drained ledger, so its dry answer is truthful.)
        self.ws.ga.sync();
        let report = NativeRuntime::new(threads)
            .node(self.my_node() as u32)
            .epoch(self.ep.epoch())
            .source(source.clone())
            .run(graph);
        // Late thieves now get a dry reply instead of a stale donation.
        self.ep.set_steal_handler(None);
        let steal = source.summary();
        self.settle(report, steal)
    }

    /// Collective owner-computes energy of the output tensor as it
    /// stands: every member sums the shard it owns, in place, and one
    /// gang allgather carries the two-word partial sums; the leader adds
    /// them in node order and is the only member to report (`None`
    /// elsewhere). No tile moves. A reduction poisoned by a member's
    /// death reports NaN — never a finite sum that misses a share.
    /// Callers order it after the accumulates it should see (`Ga::sync`).
    pub fn energy(&self) -> Option<f64> {
        let ws = &self.ws;
        let (hi, lo) = tce::energy::partial(ws, ws.ga.distribution(ws.i2, self.my_node()));
        let words = [hi.to_bits(), lo.to_bits()];
        let parts = self.ep.allgather_gang(self.view().mask, &words);
        (self.my_node() == 0).then(|| match parts {
            Some(parts) => tce::energy::fold(
                (parts.iter()).map(|w| (f64::from_bits(w[0]), f64::from_bits(w[1]))),
            ),
            None => f64::NAN,
        })
    }

    /// Post-run collective: flush outstanding accumulates everywhere,
    /// then reduce the energy — which is also the closing barrier.
    /// Gang-scoped throughout, so concurrent jobs on disjoint gangs
    /// settle independently.
    fn settle(&self, report: NativeReport, steal: StealSummary) -> DistRun {
        self.ws.ga.sync();
        DistRun {
            energy: self.energy(),
            report,
            steal,
        }
    }

    /// Collective teardown: drain remaining traffic and stop the
    /// progress engine.
    pub fn finish(self) {
        self.ws.ga.sync();
        self.ep.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce::scale;
    use tensor_kernels::rel_diff;

    /// Run `n` ranks (threads over one socket mesh) through the same
    /// collective closure; results in rank order.
    fn run_ranks<T: Send + 'static>(
        n: usize,
        f: impl Fn(&DistRank) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        run_ranks_on(scale::tiny(), TileCacheConfig::default(), n, f)
    }

    /// As [`run_ranks`] over the space `cfg` builds, with tile cache
    /// configuration `cache`.
    fn run_ranks_on<T: Send + 'static>(
        cfg: tce::SpaceConfig,
        cache: TileCacheConfig,
        n: usize,
        f: impl Fn(&DistRank) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let f = Arc::new(f);
        let handles: Vec<_> = comm::SocketTransport::mesh(n)
            .unwrap()
            .into_iter()
            .map(|t| {
                let (f, cfg, cache) = (f.clone(), cfg.clone(), cache.clone());
                std::thread::spawn(move || {
                    let space = TileSpace::build(&cfg);
                    let rank = DistRank::with_configs(
                        Box::new(t),
                        &space,
                        &[Kernel::T2_7],
                        CommConfig::default(),
                        cache,
                    );
                    let out = f(&rank);
                    rank.finish();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn reference() -> f64 {
        let space = TileSpace::build(&scale::tiny());
        let ws = tce::build_workspace(&space, 1);
        crate::verify::reference_energy(&ws)
    }

    #[test]
    fn all_variants_match_reference_across_ranks() {
        let e_ref = reference();
        let energies = run_ranks(3, |rank| {
            VariantCfg::all()
                .into_iter()
                .map(|cfg| rank.run_variant(cfg, 2, true).energy)
                .collect::<Vec<_>>()
        });
        for (r, res) in energies.iter().enumerate() {
            for (cfg, e) in VariantCfg::all().iter().zip(res) {
                match (r, e) {
                    (0, Some(e)) => assert!(
                        rel_diff(e_ref, *e) < 1e-12,
                        "{} dist: {e} vs reference {e_ref}",
                        cfg.name
                    ),
                    (0, None) => panic!("rank 0 must report energy"),
                    (_, Some(_)) => panic!("only rank 0 reports energy"),
                    (_, None) => {}
                }
            }
        }
    }

    #[test]
    fn prefetch_off_matches_reference() {
        let e_ref = reference();
        let energies = run_ranks(2, |rank| {
            rank.run_variant(VariantCfg::v5(), 2, false).energy
        });
        assert!(rel_diff(e_ref, energies[0].unwrap()) < 1e-12);
    }

    #[test]
    fn single_rank_dist_matches_reference() {
        let e_ref = reference();
        let energies = run_ranks(1, |rank| rank.run_variant(VariantCfg::v3(), 2, true).energy);
        assert!(rel_diff(e_ref, energies[0].unwrap()) < 1e-12);
    }

    #[test]
    fn cross_rank_steals_migrate_chains_and_keep_energy() {
        let e_ref = reference();
        // Remote-first: every rank asks its peers before touching its own
        // ledger, so migration demonstrably fires even on a balanced tiny
        // workload.
        let scfg = StealConfig {
            batch: 1,
            limit: 2,
            remote_first: true,
        };
        let nchains = {
            let space = TileSpace::build(&scale::tiny());
            tce::inspect(&space, 3).num_chains() as u64
        };
        let out = run_ranks(3, move |rank| {
            let run = rank.run_variant_steal(VariantCfg::v5(), 2, true, scfg);
            let s = rank.endpoint().stats();
            (run.energy, run.steal, s.steal_reqs, s.steal_donated)
        });
        assert!(
            rel_diff(e_ref, out[0].0.unwrap()) < 1e-12,
            "stolen chains must execute exactly once"
        );
        let donated: u64 = out.iter().map(|o| o.1.donated_chains).sum();
        let stolen: u64 = out.iter().map(|o| o.1.stolen_chains).sum();
        let claimed: u64 = out.iter().map(|o| o.1.local_claimed).sum();
        assert!(stolen > 0, "cross-rank migration must fire");
        assert_eq!(donated, stolen, "every donated chain lands on a thief");
        assert_eq!(
            claimed + donated,
            nchains,
            "each chain leaves exactly one ledger"
        );
        assert!(
            out.iter().any(|o| o.2 > 0),
            "steal requests must hit the wire"
        );
        let wire_donated: u64 = out.iter().map(|o| o.3).sum();
        assert_eq!(wire_donated, donated, "comm counters agree with ledgers");
        // Fan-out accounting: the engine only exits on Empty once every
        // probe is answered, so each probe ended as a grant or a dry
        // reply — and with chains migrating, some probe was granted.
        let probes: u64 = out.iter().map(|o| o.1.probes_sent).sum();
        let dry: u64 = out.iter().map(|o| o.1.dry_replies).sum();
        assert!(probes > dry, "at least one probe must have been granted");
        let wire_reqs: u64 = out.iter().map(|o| o.2).sum();
        assert_eq!(probes, wire_reqs, "every probe hit the wire exactly once");
    }

    #[test]
    fn energy_reduction_moves_no_tiles() {
        for n in [2, 3] {
            let out = run_ranks(n, |rank| {
                let run = rank.run_variant(VariantCfg::v5(), 2, true).energy;
                let traffic = |rank: &DistRank| {
                    let ga = rank.workspace().ga.stats();
                    (ga.remote_get_bytes(), rank.endpoint().stats().gets)
                };
                let before = traffic(rank);
                (run, rank.energy(), before, traffic(rank))
            });
            for (r, (run, again, before, after)) in out.into_iter().enumerate() {
                assert_eq!(run.is_some(), r == 0, "{n} ranks: only the leader reports");
                assert_eq!(
                    run.map(f64::to_bits),
                    again.map(f64::to_bits),
                    "{n} ranks, rank {r}: the reduction is a pure function of the shards"
                );
                assert_eq!(
                    before, after,
                    "{n} ranks, rank {r}: the reduction read remotely"
                );
            }
        }
    }

    #[test]
    fn gang_energy_folds_in_logical_node_order_wherever_the_gang_sits() {
        let space = TileSpace::build(&scale::tiny());
        let local = tce::build_workspace(&space, 2);
        let data: Vec<f64> = (0..local.i2_layout.len())
            .map(|i| tce::util::block_element(0xDA7A, 3, i))
            .collect();
        local.ga.put(local.i2, 0, &data);
        let want = tce::energy(&local).to_bits();

        // Two disjoint 2-rank gangs of one 4-rank mesh hold the same
        // output; each reduces it among its own members only.
        let data = Arc::new(data);
        let handles: Vec<_> = comm::SocketTransport::mesh(4)
            .unwrap()
            .into_iter()
            .map(|t| {
                let (space, data) = (space.clone(), data.clone());
                std::thread::spawn(move || {
                    let rank = t.rank();
                    let store = DistStore::new(rank, t.nranks());
                    let ep = Endpoint::spawn(Box::new(t), store.clone(), CommConfig::default());
                    let root = Ga::init_dist(ep.clone(), store);
                    let gang = if rank < 2 { 0b0011 } else { 0b1100 };
                    let dr = DistRank::attach(
                        ep.clone(),
                        root.dist_share_gang(gang),
                        &space,
                        &[Kernel::T2_7],
                        Arc::new(TilePool::default()),
                        Arc::new(AtomicU64::new(0)),
                    );
                    let ws = dr.workspace();
                    ws.ga.put_collective(ws.i2, 0, &data);
                    ws.ga.sync();
                    let e = dr.energy();
                    // Neither gang tears its endpoints down under the other.
                    ep.barrier();
                    dr.finish();
                    e.map(f64::to_bits)
                })
            })
            .collect();
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got, [Some(want), None, Some(want), None]);
    }

    #[test]
    fn four_worker_ranks_match_reference() {
        let e_ref = reference();
        let energies = run_ranks(2, |rank| rank.run_variant(VariantCfg::v5(), 4, true).energy);
        assert!(rel_diff(e_ref, energies[0].unwrap()) < 1e-12);
    }

    #[test]
    fn remote_traffic_actually_flows() {
        // Pinned placement: with stealing on, a fast rank may take *all*
        // of a slow peer's chains at threads=1, and the per-rank traffic
        // assertions below assume every rank executes its own share.
        let stats = run_ranks(2, |rank| {
            rank.run_variant_steal(VariantCfg::v5(), 1, true, StealConfig::pinned());
            let s = rank.endpoint().stats();
            let ga = rank.workspace().ga.stats();
            (s.gets, s.accs, ga.remote_bytes(), ga.local_bytes())
        });
        for (gets, accs, remote, local) in stats {
            assert!(gets > 0, "cross-rank reader gets must occur");
            assert!(accs > 0, "cross-rank write accumulates must occur");
            assert!(remote > 0 && local > 0, "both localities exercised");
        }
    }

    #[test]
    fn a_second_run_reads_its_frozen_operands_from_the_cache() {
        let e_ref = reference();
        // Every hit re-checked against the owners' shards.
        let cache = TileCacheConfig {
            verify_reads: true,
            ..TileCacheConfig::default()
        };
        let out = run_ranks_on(scale::tiny(), cache, 2, |rank| {
            // Pinned placement: both runs execute the same chains on the
            // same rank, so the second reads exactly the first's blocks.
            let run = || {
                let run = rank.run_variant_steal(VariantCfg::v5(), 1, true, StealConfig::pinned());
                run.energy
            };
            let ga = rank.workspace().ga.stats();
            let first = run();
            let pulled = ga.remote_get_bytes();
            let second = run();
            let again = ga.remote_get_bytes() - pulled;
            (
                first,
                second,
                pulled,
                again,
                ga.stale_reads(),
                ga.cache_retained(),
            )
        });
        for (r, (first, second, pulled, again, stale, retained)) in out.into_iter().enumerate() {
            assert!(pulled > 0, "rank {r}: the first run read nothing remote");
            assert_eq!(again, 0, "rank {r}: the second run refetched {again} bytes");
            assert_eq!(stale, 0, "rank {r}: a retained block went stale");
            assert!(retained > 0, "rank {r}: no block outlived a sync");
            for e in [first, second] {
                assert_eq!(e.is_some(), r == 0, "rank {r}: only the leader reports");
                if let Some(e) = e {
                    assert!(rel_diff(e_ref, e) < 1e-12, "energy {e} vs {e_ref}");
                }
            }
        }
    }

    #[test]
    fn a_run_opens_with_one_collective_and_closes_with_two() {
        let out = run_ranks(2, |rank| {
            // Gang collectives this rank has entered so far.
            let entered = |rank: &DistRank| {
                let mask = rank.view().mask;
                let rows = rank.endpoint().barrier_state();
                rows.iter().find(|r| r.0 == mask).map_or(0, |r| r.1)
            };
            let before = entered(rank);
            rank.run_variant(VariantCfg::v5(), 2, true);
            let per_run = entered(rank) - before;
            let before = entered(rank);
            rank.energy();
            (per_run, entered(rank) - before)
        });
        for (r, (per_run, energy)) in out.into_iter().enumerate() {
            // Opening: the sync that publishes the zeroed shards and the
            // installed steal handlers. Closing: the sync that flushes the
            // accumulates, then the energy allgather.
            assert_eq!(per_run, 3, "rank {r}: one opening + two closing");
            assert_eq!(energy, 1, "rank {r}: the energy is one allgather");
        }
    }

    #[test]
    fn chains_stay_on_the_worker_that_claims_them() {
        // Fine grain (2-orbital tiles): thousands of tiny tasks over tens
        // of chains, where a bulk claim into one deque would have the
        // second worker steal task after task.
        let cfg = tce::SpaceConfig {
            occ_tiles_per_spin: 2,
            virt_tiles_per_spin: 4,
            tile_size: 2,
            size_spread: 0,
            irreps: 2,
            seed: 0xC0FFEE,
        };
        let chains = tce::inspect(&TileSpace::build(&cfg), 1).num_chains() as u64;
        let out = run_ranks_on(cfg, TileCacheConfig::default(), 1, |rank| {
            let run = rank.run_variant(VariantCfg::v5(), 2, true);
            (run.report.steal, run.report.tasks, run.steal.local_claimed)
        });
        let (steal, tasks, claimed) = &out[0];
        assert_eq!(*claimed, chains, "every chain claimed from the ledger");
        assert!(
            steal.local_steals < chains,
            "{} single-task steals for {chains} chains ({tasks} tasks)",
            steal.local_steals
        );
        assert_eq!(steal.deferred, 0, "all-local reads settle inline");
    }
}
