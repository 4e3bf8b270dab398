//! The compute workloads: ranks are threads of this process over the
//! socket mesh, and a unit is one collective `DistRank::run_variant_graph`
//! of v5 + prefetch on a prebuilt graph — the body of one CC iteration.

use crate::counts::{check_valid, Counts, C};
use crate::probes::{self, Effort};
use crate::spans::{self, Recorder, Span};
use crate::spec::{Shape, Workload};
use crate::stats::{max_over_mean, median, ms, ns_to_ms, ns_to_us, ratio};
use crate::{connect_mesh, free_port_base, progress, Outcome, RunArgs, Sessions};
use ccsd::{DistRank, StealConfig, VariantCfg};
use comm::{CommConfig, Endpoint};
use global_arrays::{DistStore, Ga, TileCacheConfig};
use parsec_rt::{NativeRuntime, SchedPolicy, TilePool};
use ptg::TaskGraph;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use tce::{Inspection, Kernel, SpaceConfig, TileSpace, Workspace};
use tensor_kernels::rel_diff;
use xtrace::Trace;

const KERNELS: [Kernel; 1] = [Kernel::T2_7];
/// Units run and discarded at the end of every set-up.
const WARMUPS: usize = 3;
/// A unit whose energy is further than this (relative) from the serial
/// reference has failed.
pub const ENERGY_TOL: f64 = 1e-12;
/// Traced units whose layer traces are kept (for overlap analysis and
/// span self times); the first `FILE_UNITS` of them go to the trace file.
const KEEP_UNITS: usize = 8;
const FILE_UNITS: usize = 2;
/// Name of the span the benchmark records around each unit.
const UNIT_SPAN: &str = "ccsd.run_variant_graph";

/// Smallest |energy| / sum |weight x element| a problem may have. The
/// variants' energies differ from the reference by ~3e-17 of that sum
/// (accumulation order), so below this the 1e-12 relative check would be
/// deciding on rounding noise rather than on correctness.
const MIN_CONDITIONING: f64 = 3e-4;

/// A workload's inputs as `--seed` selects them, with the single-node
/// workspace the serial reference and the serial baseline run on.
pub struct Problem {
    pub cfg: SpaceConfig,
    pub ins: Arc<Inspection>,
    pub ws: Arc<Workspace>,
    pub e_ref: f64,
}

/// The first geometry in the seed's splitmix sequence whose GEMM count is
/// in the shape's range and whose reference energy is well conditioned.
pub fn pick_problem(shape: &Shape, seed: u64, smoke: bool) -> Problem {
    // Smoke runs check plumbing, not speed (and also run unoptimized
    // under `cargo test`): same placement, a fraction of the arithmetic.
    let (occ, virt, tile, gemms) = if smoke {
        (
            shape.occ.min(2),
            shape.virt.min(3),
            shape.tile.min(4),
            (1, usize::MAX),
        )
    } else {
        (shape.occ, shape.virt, shape.tile, shape.gemms)
    };
    let mut s = seed;
    for _ in 0..100_000 {
        s = tce::util::splitmix64(s);
        let cfg = SpaceConfig {
            occ_tiles_per_spin: occ,
            virt_tiles_per_spin: virt,
            tile_size: tile,
            size_spread: 0,
            irreps: 2,
            seed: s,
        };
        let space = TileSpace::build(&cfg);
        let n = tce::inspect_kernels(&space, 1, &KERNELS).total_gemms;
        if !(gemms.0..=gemms.1).contains(&n) {
            continue;
        }
        let (ins, ws) = ccsd::verify::prepare(&space, 1);
        let e_ref = ccsd::verify::reference_energy(&ws);
        let mut weight = 0.0;
        for (key, offset, size) in ws.i2_layout.index.iter() {
            let block = ws.ga.get(ws.i2, offset, size);
            weight += block
                .iter()
                .enumerate()
                .map(|(i, x)| (tce::util::block_element(tce::energy::W_SEED, key, i) * x).abs())
                .sum::<f64>();
        }
        if e_ref.abs() >= MIN_CONDITIONING * weight {
            return Problem {
                cfg,
                ins,
                ws,
                e_ref,
            };
        }
    }
    panic!("no well-conditioned geometry with {gemms:?} GEMMs near seed {seed}");
}

/// How long a window of units lasts.
#[derive(Clone, Copy)]
enum Budget {
    Seconds(f64),
    Units(usize),
}

impl Budget {
    fn more(self, done: usize, t0: Instant) -> bool {
        match self {
            Budget::Seconds(s) => t0.elapsed().as_secs_f64() < s,
            Budget::Units(n) => done < n,
        }
    }
}

/// Rank 0 decides, on its clock, whether the window takes another unit;
/// the other ranks follow. Units are collective, so every rank must run
/// the same number of them.
#[derive(Default)]
struct Pace {
    /// (units released, window closed)
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Pace {
    fn lead(&self, go: bool) {
        let mut s = self.state.lock().expect("pace lock");
        if go {
            s.0 += 1;
        } else {
            s.1 = true;
        }
        self.cv.notify_all();
    }

    fn follow(&self, unit: usize) -> bool {
        let mut s = self.state.lock().expect("pace lock");
        while s.0 <= unit && !s.1 {
            s = self.cv.wait(s).expect("pace lock");
        }
        s.0 > unit
    }
}

/// One rank's share of one unit, as the layers report it.
#[derive(Clone, Default)]
struct UnitRec {
    wall_ns: u64,
    engine_ns: u64,
    energy: Option<f64>,
    tasks: u64,
    local_steals: u64,
    busiest_worker_tasks: u64,
    steal_requests: u64,
    stolen_chains: u64,
    stolen_bytes: u64,
    /// Sum of task-span time (traced units only).
    busy_ns: u64,
    /// Spans the layers returned for this unit (traced units only).
    layer_spans: u64,
}

struct Kept {
    unit: u64,
    span: Option<usize>,
    tasks: Trace,
    comm: Trace,
}

#[derive(Default)]
struct Window {
    units: Vec<UnitRec>,
    wall_s: f64,
    get_lat_ns: Vec<u64>,
    counts: Counts,
}

struct Rank {
    dr: DistRank,
    pool: Arc<TilePool>,
    graph: TaskGraph,
    workers: usize,
    setup_s: f64,
    attach_ms: f64,
    graph_ms: f64,
}

impl Rank {
    /// Mesh connect, shard store + progress engine, inspection + fills
    /// (`DistRank::attach`), graph build, and the warm-up units.
    fn setup(rank: usize, shape: &Shape, cfg: &SpaceConfig, port: u16, rec: &mut Recorder) -> Self {
        let t0 = Instant::now();
        let transport = rec.call("comm.connect", 0, || connect_mesh(rank, shape.ranks, port));
        let space = TileSpace::build(cfg);
        let store = DistStore::new(rank, shape.ranks);
        let ep = Endpoint::spawn(Box::new(transport), store.clone(), CommConfig::default());
        let ga = Ga::init_dist_cfg(ep.clone(), store, TileCacheConfig::default());
        let pool = Arc::new(TilePool::default());
        let t = Instant::now();
        let dr = rec.call("ccsd.attach", 0, || {
            DistRank::attach(
                ep,
                ga,
                &space,
                &KERNELS,
                pool.clone(),
                Arc::new(AtomicU64::new(0)),
            )
        });
        let attach_ms = ms(t.elapsed());
        let t = Instant::now();
        let graph = rec.call("ccsd.build_run_graph", 0, || {
            dr.build_run_graph(VariantCfg::v5(), true)
        });
        let graph_ms = ms(t.elapsed());
        let mut me = Self {
            dr,
            pool,
            graph,
            workers: shape.workers,
            setup_s: 0.0,
            attach_ms,
            graph_ms,
        };
        let mut untraced = Recorder::new(t0, rank, false);
        for _ in 0..WARMUPS {
            me.unit(&me.graph, VariantCfg::v5(), 0, &mut untraced, None);
        }
        me.setup_s = t0.elapsed().as_secs_f64();
        me
    }

    fn counts(&self) -> Counts {
        Counts::read(
            self.dr.endpoint(),
            self.dr.workspace().ga.stats(),
            Some(&self.pool),
        )
    }

    fn unit(
        &self,
        graph: &TaskGraph,
        cfg: VariantCfg,
        idx: u64,
        rec: &mut Recorder,
        keep: Option<&mut Vec<Kept>>,
    ) -> (UnitRec, Vec<u64>) {
        let t = Instant::now();
        let span = rec.begin(UNIT_SPAN, None, idx);
        let run = self
            .dr
            .run_variant_graph(graph, cfg, self.workers, StealConfig::default());
        rec.end(span);
        let wall_ns = t.elapsed().as_nanos() as u64;
        progress();
        // The endpoint records every get's latency and span whether or
        // not anyone reads them: drain per unit so memory stays flat.
        let ep = self.dr.endpoint();
        let (lat, comm) = (ep.take_latencies(), ep.take_trace());
        let mut u = UnitRec {
            wall_ns,
            engine_ns: run.report.wall.as_nanos() as u64,
            energy: run.energy,
            tasks: run.report.tasks,
            local_steals: run.report.steal.local_steals,
            busiest_worker_tasks: run
                .report
                .steal
                .per_worker_tasks
                .iter()
                .copied()
                .max()
                .unwrap_or(0),
            steal_requests: run.steal.probes_sent,
            stolen_chains: run.steal.stolen_chains,
            stolen_bytes: run.steal.stolen_bytes,
            ..UnitRec::default()
        };
        if rec.enabled() {
            u.busy_ns = run.report.trace.spans().iter().map(|s| s.len()).sum();
            u.layer_spans = (run.report.trace.spans().len() + comm.spans().len()) as u64;
            if let Some(kept) = keep.filter(|k| k.len() < KEEP_UNITS) {
                kept.push(Kept {
                    unit: idx,
                    span,
                    tasks: run.report.trace,
                    comm,
                });
            }
        }
        (u, lat)
    }

    fn window(
        &self,
        rank: usize,
        pace: &Pace,
        budget: Budget,
        rec: &mut Recorder,
        mut kept: Option<&mut Vec<Kept>>,
    ) -> Window {
        let before = self.counts();
        let mut w = Window::default();
        let t0 = Instant::now();
        loop {
            let go = if rank == 0 {
                let go = budget.more(w.units.len(), t0);
                pace.lead(go);
                go
            } else {
                pace.follow(w.units.len())
            };
            if !go {
                break;
            }
            let idx = w.units.len() as u64;
            let (u, lat) = self.unit(&self.graph, VariantCfg::v5(), idx, rec, kept.as_deref_mut());
            w.units.push(u);
            w.get_lat_ns.extend(lat);
        }
        w.wall_s = t0.elapsed().as_secs_f64();
        w.counts = self.counts().since(&before);
        w
    }
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    attach_ms: f64,
    graph_ms: f64,
    untraced: Window,
    traced: Window,
    v2_ms: Vec<f64>,
    energy_ms: Vec<f64>,
    /// (comm ns, overlapped ns) over the kept traced units.
    overlap: (u64, u64),
    spans: Vec<Span>,
    file_spans: Vec<Span>,
    totals: Counts,
}

struct Plan {
    untraced: Option<Budget>,
    traced: Option<Budget>,
    /// v2 units and energy-gather repetitions after the windows.
    extras: usize,
}

fn rank_main(
    rank: usize,
    shape: Shape,
    cfg: SpaceConfig,
    port: u16,
    origin: Instant,
    plan: &Plan,
    paces: &[Pace; 2],
) -> RankOut {
    let mut rec = Recorder::new(origin, rank, plan.traced.is_some());
    let me = Rank::setup(rank, &shape, &cfg, port, &mut rec);
    let mut out = RankOut {
        setup_s: me.setup_s,
        attach_ms: me.attach_ms,
        graph_ms: me.graph_ms,
        ..RankOut::default()
    };
    if let Some(b) = plan.untraced {
        rec.set_enabled(false);
        out.untraced = me.window(rank, &paces[0], b, &mut rec, None);
    }
    if let Some(b) = plan.traced {
        rec.set_enabled(true);
        let mut kept = Vec::new();
        out.traced = me.window(rank, &paces[1], b, &mut rec, Some(&mut kept));
        let ep = me.dr.endpoint();
        for k in kept {
            let mut merged = k.tasks;
            merged.absorb(&k.comm);
            for o in xtrace::analyze::comm_overlap(&merged).values() {
                out.overlap.0 += o.comm;
                out.overlap.1 += o.overlapped;
            }
            let first = rec.spans.len();
            rec.adopt(&merged, ep.epoch(), k.span, k.unit);
            if let Some(unit_span) = k.span.filter(|_| (k.unit as usize) < FILE_UNITS) {
                // Re-link the unit's children to its place in the file.
                let at = out.file_spans.len();
                out.file_spans.push(rec.spans[unit_span].clone());
                out.file_spans
                    .extend(rec.spans[first..].iter().cloned().map(|mut s| {
                        s.parent = Some(at);
                        s
                    }));
            }
        }
        // The paper's v5-vs-v2 ordering on the same mesh, as a number.
        let v2 = me.dr.build_run_graph(VariantCfg::v2(), true);
        for i in 0..plan.extras {
            let (u, _) = me.unit(
                &v2,
                VariantCfg::v2(),
                i as u64,
                &mut Recorder::new(origin, rank, false),
                None,
            );
            out.v2_ms.push(u.wall_ns as f64 / 1e6);
        }
        // The leader's energy gather alone, as a unit pays it: right
        // after a sync (which flushes the tile cache, so remote shards come
        // over the wire), the others holding their shards still meanwhile.
        for i in 0..plan.extras {
            me.dr.workspace().ga.sync();
            if rank == 0 {
                let t = Instant::now();
                std::hint::black_box(
                    rec.call("tce.energy", i as u64, || tce::energy(me.dr.workspace())),
                );
                out.energy_ms.push(ms(t.elapsed()));
            }
            ep.barrier();
        }
    }
    out.totals = me.counts();
    out.spans = rec.spans;
    me.dr.finish();
    out
}

fn run_mesh(shape: Shape, cfg: &SpaceConfig, origin: Instant, plan: Plan) -> Vec<RankOut> {
    let port = free_port_base(shape.ranks);
    let paces = [Pace::default(), Pace::default()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.ranks)
            .map(|r| {
                let (cfg, plan, paces) = (cfg.clone(), &plan, &paces);
                s.spawn(move || rank_main(r, shape, cfg, port, origin, plan, paces))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

/// The plain library path: one thread, local Global Arrays, the same
/// variant, the same three steps a unit has (reset, run, energy). One
/// warm-up, then at least two units and `min_s` seconds. Returns
/// per-unit seconds and the units that missed `e_ref`.
fn serial_units(graph: &TaskGraph, ws: &Workspace, e_ref: f64, min_s: f64) -> (Vec<f64>, u64) {
    let (mut secs, mut failed) = (Vec::new(), 0);
    let mut t0 = Instant::now();
    for i in 0.. {
        if i == 1 {
            t0 = Instant::now();
        }
        if i >= 3 && t0.elapsed().as_secs_f64() >= min_s {
            break;
        }
        let t = Instant::now();
        ws.reset_output();
        NativeRuntime::new(1)
            .policy(SchedPolicy::PriorityFifo)
            .run(graph);
        let e = tce::energy(ws);
        if i >= 1 {
            secs.push(t.elapsed().as_secs_f64());
            failed += (rel_diff(e_ref, e) > ENERGY_TOL) as u64;
        }
        progress();
    }
    (secs, failed)
}

/// Units of rank 0 that failed the energy check.
fn failed_units(units: &[UnitRec], e_ref: f64) -> u64 {
    units
        .iter()
        .filter(|u| u.energy.is_none_or(|e| rel_diff(e_ref, e) > ENERGY_TOL))
        .count() as u64
}

fn unit_ms(units: &[UnitRec]) -> Vec<f64> {
    ns_to_ms(&units.iter().map(|u| u.wall_ns).collect::<Vec<_>>())
}

pub fn run(w: &Workload, a: &RunArgs) -> Result<Outcome, String> {
    let shape = w.shape;
    let origin = Instant::now();
    let Problem {
        cfg,
        ins: ins1,
        ws: ws1,
        e_ref,
    } = pick_problem(&shape, a.seed, a.smoke);
    let space = TileSpace::build(&cfg);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "geometry occ {} virt {} tile {} irreps 2 seed {:#x}: {} chains, {} GEMMs, reference energy {e_ref:.15e}",
        cfg.occ_tiles_per_spin,
        cfg.virt_tiles_per_spin,
        cfg.tile_size,
        cfg.seed,
        ins1.num_chains(),
        ins1.total_gemms
    ));
    let window = |share: f64| {
        if a.smoke {
            Budget::Units(3)
        } else {
            Budget::Seconds(a.seconds * share)
        }
    };

    let serial_graph = ccsd::build_graph_pooled(
        ins1.clone(),
        VariantCfg::v5(),
        Some(ws1.clone()),
        Arc::new(TilePool::default()),
    );
    if !a.trace {
        // See `Sessions`: a fresh mesh and a slice of the serial baseline
        // per session, medians over sessions.
        let mut sessions = Sessions::default();
        for _ in 0..Sessions::count(a.smoke) {
            let plan = Plan {
                untraced: Some(window(1.0 / Sessions::count(a.smoke) as f64)),
                traced: None,
                extras: 0,
            };
            let ranks = run_mesh(shape, &cfg, origin, plan);
            check_valid(ranks.iter().map(|r| &r.totals))?;
            let timed = &ranks[0].untraced;
            let (serial_s, serial_failed) =
                serial_units(&serial_graph, &ws1, e_ref, if a.smoke { 0.0 } else { 0.5 });
            sessions.push(
                ranks[0].setup_s,
                &unit_ms(&timed.units),
                timed.units.len() as f64 / timed.wall_s,
                &serial_s,
            );
            out.attempted += (timed.units.len() + serial_s.len()) as u64;
            out.failed += failed_units(&timed.units, e_ref) + serial_failed;
        }
        out.samples = sessions.samples;
        out.notes.push(sessions.note());
        out.metrics = sessions.metrics();
        return Ok(out);
    }

    // Traced pass: a short untraced window, then the same loop with span
    // recording and layer-trace retention on; the throughput difference
    // between the two is the tracing overhead.
    let plan = Plan {
        untraced: Some(window(0.3)),
        traced: Some(window(0.3)),
        extras: if a.smoke { 1 } else { 5 },
    };
    let mut ranks = run_mesh(shape, &cfg, origin, plan);
    check_valid(ranks.iter().map(|r| &r.totals))?;
    let effort = Effort::of(a.smoke);
    let mut probe_rec = Recorder::new(origin, 0, true);
    let (kp, idle, inspect_ms) = probes::standalone(&ins1, &space, shape, effort, &mut probe_rec);
    let (serial_s, serial_failed) =
        serial_units(&serial_graph, &ws1, e_ref, if a.smoke { 0.0 } else { 1.0 });

    let n = ranks[0].traced.units.len() as f64;
    let mut c = Counts::default();
    ranks.iter().for_each(|r| c.add(&r.traced.counts));
    let all_units = || ranks.iter().flat_map(|r| r.traced.units.iter());
    let sum = |f: fn(&UnitRec) -> u64| all_units().map(f).sum::<u64>() as f64;
    let lead = &ranks[0].traced;
    let walls = unit_ms(&lead.units);
    let unit_p50 = median(&walls);
    let engine_p50 = median(&ns_to_ms(
        &lead.units.iter().map(|u| u.engine_ns).collect::<Vec<_>>(),
    ));
    let settle_p50 = median(
        &lead
            .units
            .iter()
            .map(|u| (u.wall_ns - u.engine_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let rank_imbalance = median(
        &(0..lead.units.len())
            .map(|i| {
                max_over_mean(
                    &ranks
                        .iter()
                        .map(|r| r.traced.units[i].engine_ns as f64)
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>(),
    );
    let worker_imbalance = median(
        &all_units()
            .map(|u| {
                ratio(
                    u.busiest_worker_tasks as f64,
                    u.tasks as f64 / shape.workers as f64,
                )
            })
            .collect::<Vec<_>>(),
    );
    let lat_us = ns_to_us(
        &ranks
            .iter()
            .flat_map(|r| r.traced.get_lat_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    let (comm_ns, overlapped_ns) = ranks
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.overlap.0, a.1 + r.overlap.1));
    let traced_ups = n / lead.wall_s;
    let untraced_ups = ranks[0].untraced.units.len() as f64 / ranks[0].untraced.wall_s;
    let bench_spans = ranks.iter().map(|r| r.traced.units.len()).sum::<usize>() as f64;
    let tasks_per_unit = sum(|u| u.tasks) / n;
    let dispatch_ns = probes::dispatch_ns_per_task(
        (tasks_per_unit / shape.ranks as f64) as u64,
        shape.workers,
        effort,
    );

    out.attempted = (lead.units.len() + ranks[0].untraced.units.len() + serial_s.len()) as u64;
    out.failed = failed_units(&lead.units, e_ref)
        + failed_units(&ranks[0].untraced.units, e_ref)
        + serial_failed;
    out.samples = walls.len() as u64;
    out.metrics = probes::shared_lines(
        &kp,
        &idle,
        &c,
        n,
        shape,
        unit_p50,
        &lat_us,
        ratio(overlapped_ns as f64, comm_ns as f64),
    );
    out.metrics.extend([
        ("runtime.dispatch_ns_per_task", dispatch_ns),
        ("runtime.tasks_per_unit", tasks_per_unit),
        ("runtime.engine_ms_p50", engine_p50),
        (
            "runtime.worker_busy_ratio",
            ratio(
                sum(|u| u.busy_ns),
                shape.workers as f64 * sum(|u| u.engine_ns),
            ),
        ),
        ("runtime.local_steals_per_unit", sum(|u| u.local_steals) / n),
        ("runtime.worker_imbalance", worker_imbalance),
        ("runtime.pool_misses_per_unit", c.get(C::PoolMisses) / n),
        ("tce.inspect_ms", inspect_ms),
        ("tce.fill_ms", (ranks[0].attach_ms - inspect_ms).max(0.0)),
        ("tce.energy_ms_p50", median(&ranks[0].energy_ms)),
        ("ccsd.graph_build_ms", ranks[0].graph_ms),
        ("ccsd.settle_ms_p50", settle_p50),
        (
            "ccsd.steal_requests_per_unit",
            sum(|u| u.steal_requests) / n,
        ),
        ("ccsd.steal_chains_per_unit", sum(|u| u.stolen_chains) / n),
        ("ccsd.steal_bytes_per_unit", sum(|u| u.stolen_bytes) / n),
        ("ccsd.rank_imbalance", rank_imbalance),
        ("ccsd.v2_unit_ms_p50", median(&ranks[0].v2_ms)),
        (
            "ccsd.serial_unit_ms_p50",
            median(&serial_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        ),
        ("trace.overhead_ratio", 1.0 - traced_ups / untraced_ups),
        (
            "trace.spans_per_unit",
            (bench_spans + sum(|u| u.layer_spans)) / n,
        ),
    ]);
    out.metrics.extend(
        crate::spec::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("svc."))
            .map(|m| (m.name, 0.0)),
    );
    out.notes.push(format!(
        "reconciliation: ccsd.settle_ms_p50 {settle_p50:.3} + runtime.engine_ms_p50 {engine_p50:.3} = {:.3} vs unit_ms_p50 {unit_p50:.3} (residual {:+.1} %)",
        settle_p50 + engine_p50,
        100.0 * (settle_p50 + engine_p50 - unit_p50) / unit_p50
    ));

    let mut all: Vec<Span> = spans::merge(
        ranks
            .iter_mut()
            .map(|r| std::mem::take(&mut r.spans))
            .collect(),
    );
    all.extend(probe_rec.spans);
    // Only the first units keep their layer spans; the self time of the
    // others would be their whole duration, so list them apart.
    for s in all
        .iter_mut()
        .filter(|s| s.name == UNIT_SPAN && s.unit as usize >= KEEP_UNITS)
    {
        s.name.push_str(" (layer spans dropped)");
    }
    out.notes.push(format!(
        "span ledger (set-up, traced window, probes; layer spans of the first {KEEP_UNITS} units):"
    ));
    out.notes.extend(spans::ledger_lines(&all));
    let file = spans::merge(
        ranks
            .iter_mut()
            .map(|r| std::mem::take(&mut r.file_spans))
            .collect(),
    );
    let path = crate::trace_path(w.name);
    spans::write_chrome(&path, &file).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "trace: {} ({} spans, first {FILE_UNITS} traced units)",
        path.display(),
        file.len()
    ));
    Ok(out)
}
