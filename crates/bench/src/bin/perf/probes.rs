//! Layer probes of the traced pass: each times one layer's public entry
//! points alone, at the workload's own shapes and sizes, on an idle
//! machine — the denominators the in-run figures are read against.

use crate::counts::{Counts, C};
use crate::spans::Recorder;
use crate::spec::Shape;
use crate::stats::{median, percentile, ratio};
use crate::{connect_mesh, free_port_base};
use comm::{CommConfig, Endpoint};
use global_arrays::{DistStore, Ga, TileCacheConfig};
use parsec_rt::NativeRuntime;
use ptg::{Activity, Dep, GraphCtx, Payload, PlainCtx, TaskClass, TaskGraph, TaskKey};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tce::Inspection;
use tensor_kernels::{dgemm_packed, sort_4, Trans};

/// How long each timed probe loop runs (tiny in smoke runs).
#[derive(Clone, Copy)]
pub struct Effort {
    pub loop_time: Duration,
    pub round_trips: usize,
}

impl Effort {
    pub fn of(smoke: bool) -> Self {
        if smoke {
            Self {
                loop_time: Duration::from_millis(5),
                round_trips: 8,
            }
        } else {
            Self {
                loop_time: Duration::from_millis(150),
                round_trips: 200,
            }
        }
    }
}

/// Repeat `f` for at least `loop_time` (and at least 3 times); median
/// seconds per call.
fn time_loop(e: Effort, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and scratch
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || t0.elapsed() < e.loop_time {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn fill(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| tce::util::unit_f64(tce::util::splitmix64(salt ^ i as u64)))
        .collect()
}

pub struct KernelProbe {
    pub dgemm_gflops: f64,
    pub sort4_gbps: f64,
    /// Computed from the inspection, not measured.
    pub gflop_per_unit: f64,
    /// Computed: GEMM flops over operand + C-tile bytes.
    pub flops_per_byte: f64,
}

/// `tensor`: `dgemm_packed` and `sort_4` on one thread at the workload's
/// median GEMM shape and that chain's C-tile dims.
pub fn kernels(ins: &Inspection, e: Effort) -> KernelProbe {
    let mut shapes = Vec::new();
    let (mut flops, mut bytes) = (0.0, 0.0);
    for c in &ins.chains {
        bytes += (c.c_bytes() * (1 + c.sorts.len() as u64)) as f64;
        for g in &c.gemms {
            let f = 2.0 * (c.m * c.n * g.k) as f64;
            flops += f;
            bytes += ((g.a_len + g.b_len) * 8) as f64;
            shapes.push((f as u64, c.m, c.n, g.k, g.tb, c.cdims, c.sorts[0].perm));
        }
    }
    shapes.sort_unstable_by_key(|s| s.0);
    let Some(&(_, m, n, k, tb, cdims, perm)) = shapes.get(shapes.len() / 2) else {
        return KernelProbe {
            dgemm_gflops: 0.0,
            sort4_gbps: 0.0,
            gflop_per_unit: 0.0,
            flops_per_byte: 0.0,
        };
    };
    let (a, b) = (fill(k * m, 1), fill(k * n, 2));
    let mut c = vec![0.0; m * n];
    let gemm_s = time_loop(e, || {
        dgemm_packed(
            Trans::T,
            tb,
            m,
            n,
            k,
            1.0,
            black_box(&a),
            black_box(&b),
            1.0,
            &mut c,
        );
        black_box(&mut c);
    });
    let mut sorted = vec![0.0; m * n];
    let sort_s = time_loop(e, || {
        sort_4(black_box(&c), &mut sorted, cdims, perm, 1.0);
        black_box(&mut sorted);
    });
    KernelProbe {
        dgemm_gflops: 2.0 * (m * n * k) as f64 / gemm_s / 1e9,
        sort4_gbps: (2 * m * n * 8) as f64 / sort_s / 1e9,
        gflop_per_unit: flops / 1e9,
        flops_per_byte: ratio(flops, bytes),
    }
}

/// A wide graph of empty tasks: wall time is dispatch cost.
struct Noop {
    n: i64,
}

impl TaskClass for Noop {
    fn name(&self) -> &str {
        "NOOP"
    }
    fn num_flows(&self) -> usize {
        1
    }
    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        out.extend((0..self.n).map(|i| TaskKey::new(0, &[i])));
    }
    fn num_inputs(&self, _k: TaskKey, _c: &dyn GraphCtx) -> usize {
        0
    }
    fn successors(&self, _k: TaskKey, _c: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
    fn execute(
        &self,
        k: TaskKey,
        _c: &dyn GraphCtx,
        _i: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        black_box(k.params[0]);
        vec![None]
    }
    fn activity(&self) -> Activity {
        Activity::Compute
    }
}

/// `runtime`: ns per task of `NativeRuntime::run` on a no-op graph of
/// the workload's task count at its worker count.
pub fn dispatch_ns_per_task(tasks: u64, workers: usize, e: Effort) -> f64 {
    if tasks == 0 {
        return 0.0;
    }
    let graph = TaskGraph::new(
        vec![Arc::new(Noop { n: tasks as i64 })],
        Arc::new(PlainCtx { nodes: 1 }),
    );
    let s = time_loop(e, || {
        black_box(NativeRuntime::new(workers).run(&graph).tasks);
    });
    s * 1e9 / tasks as f64
}

/// What the idle mesh says: `ga` copy rates and per-call costs at the
/// workload's block size, `comm` round trips with nothing queued.
#[derive(Default, Clone)]
pub struct IdleMesh {
    pub local_get_gbps: f64,
    pub acc_gbps: f64,
    pub cached_get_us_p50: f64,
    pub sync_us_p50: f64,
    pub get_rtt_us_p50: f64,
    pub get_rtt_us_p90: f64,
    pub small_rtt_us_p50: f64,
    pub barrier_us_p50: f64,
    pub get_stream_mbps: f64,
}

/// Bring up a fresh mesh of `ranks` (1 or 2) with one array of
/// `BLOCKS` blocks of `block` elements per rank and probe it from rank 0.
/// With one rank only the local `ga` rates exist; the rest stay 0.
pub fn idle_mesh(ranks: usize, block: usize, e: Effort, rec: &mut Recorder) -> IdleMesh {
    const BLOCKS: usize = 64;
    let block = block.max(1);
    let port = free_port_base(ranks);
    let peers: Vec<_> = (1..ranks)
        .map(|r| std::thread::spawn(move || idle_rank(r, ranks, port, block, BLOCKS, e, None)))
        .collect();
    let out = idle_rank(0, ranks, port, block, BLOCKS, e, Some(rec));
    for p in peers {
        p.join().expect("probe peer panicked");
    }
    out
}

fn idle_rank(
    rank: usize,
    ranks: usize,
    port: u16,
    block: usize,
    blocks: usize,
    e: Effort,
    rec: Option<&mut Recorder>,
) -> IdleMesh {
    let store = DistStore::new(rank, ranks);
    let ep = Endpoint::spawn(
        Box::new(connect_mesh(rank, ranks, port)),
        store.clone(),
        CommConfig::default(),
    );
    let ga = Ga::init_dist_cfg(ep.clone(), store, TileCacheConfig::default());
    let h = ga.create(ranks * blocks * block);
    let mine = ga.distribution(h, rank);
    ga.put(h, mine.start, &fill(mine.len(), rank as u64));
    ga.sync();
    let rtts = e.round_trips;
    let mut out = IdleMesh::default();
    let mut disabled = Recorder::new(Instant::now(), rank, false);
    let rec = rec.unwrap_or(&mut disabled);

    // Collective section first: both ranks walk the same barriers/syncs.
    let mut samples = Vec::new();
    for i in 0..rtts {
        let t = Instant::now();
        rec.call("comm.barrier", i as u64, || ep.barrier());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.barrier_us_p50 = if ranks > 1 { median(&samples) } else { 0.0 };
    samples.clear();
    for i in 0..rtts {
        let t = Instant::now();
        rec.call("ga.sync", i as u64, || ga.sync());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.sync_us_p50 = median(&samples);

    if rank == 0 {
        // Local copy rates on blocks this rank owns.
        let mut buf = vec![0.0; block];
        let mut next = 0usize;
        let get_s = time_loop(e, || {
            ga.get_into(h, mine.start + (next % blocks) * block, &mut buf);
            next += 1;
            black_box(&mut buf);
        });
        out.local_get_gbps = (block * 8) as f64 / get_s / 1e9;
        let acc_s = time_loop(e, || {
            ga.acc(
                h,
                mine.start + (next % blocks) * block,
                black_box(&buf),
                0.5,
            );
            next += 1;
        });
        out.acc_gbps = (block * 8) as f64 / acc_s / 1e9;
    }
    if rank == 0 && ranks > 1 {
        let theirs = ga.distribution(h, 1).start;
        let n = blocks.min(rtts.max(8));
        // Distinct remote blocks: every get misses the cache and pays
        // wire + owner service with nothing queued ahead of it.
        let first: Vec<f64> = (0..n)
            .map(|i| {
                let t = Instant::now();
                black_box(rec.call("ga.get(remote)", i as u64, || {
                    ga.get(h, theirs + i * block, block)
                }));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.get_rtt_us_p50 = median(&first);
        out.get_rtt_us_p90 = percentile(&first, 0.9);
        // The same blocks again, before any sync flushes them: hits.
        let again: Vec<f64> = (0..n)
            .map(|i| {
                let t = Instant::now();
                black_box(rec.call("ga.get(cached)", i as u64, || {
                    ga.get(h, theirs + i * block, block)
                }));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.cached_get_us_p50 = median(&again);
        let small: Vec<f64> = (0..rtts)
            .map(|i| {
                let t = Instant::now();
                black_box(rec.call("comm.nxtval", i as u64, || ep.nxtval(1)));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        out.small_rtt_us_p50 = median(&small);
    }
    // Flush the cache everywhere so the streamed gets hit the wire again.
    ga.sync();
    if rank == 0 && ranks > 1 {
        let theirs = ga.distribution(h, 1).start;
        let (tx, rx) = mpsc::channel();
        let t = Instant::now();
        let id = rec.begin("ga.get_async x64", None, 0);
        for i in 0..blocks {
            let tx = tx.clone();
            ga.get_async(
                h,
                theirs + i * block,
                block,
                0,
                Box::new(move |data| {
                    let _ = tx.send(data.len());
                }),
            );
        }
        let got: usize = (0..blocks)
            .map(|_| rx.recv().expect("streamed get lost"))
            .sum();
        rec.end(id);
        out.get_stream_mbps = (got * 8) as f64 / t.elapsed().as_secs_f64() / 1e6;
    }
    ga.sync();
    ep.shutdown();
    out
}

/// The probes that need no live workload mesh, at the shapes and block
/// size of `ins`: kernels, the idle mesh, and `tce::inspect_kernels` alone
/// (milliseconds).
pub fn standalone(
    ins: &Inspection,
    space: &tce::TileSpace,
    shape: Shape,
    e: Effort,
    rec: &mut Recorder,
) -> (KernelProbe, IdleMesh, f64) {
    let mut blocks: Vec<usize> = ins
        .chains
        .iter()
        .flat_map(|c| c.gemms.iter().map(|g| g.a_len))
        .collect();
    blocks.sort_unstable();
    let idle = idle_mesh(shape.ranks, blocks[blocks.len() / 2], e, rec);
    let t = Instant::now();
    black_box(rec.call("tce.inspect_kernels", 0, || {
        tce::inspect_kernels(space, shape.ranks, &ins.kernels)
    }));
    let inspect_ms = t.elapsed().as_secs_f64() * 1e3;
    (kernels(ins, e), idle, inspect_ms)
}

/// The `tensor`, `ga` and `comm` ledger lines every workload shares: the
/// probes above next to the layers' own counters over `n` traced units
/// (`c` summed over ranks, `get_lat_us` the in-run get latencies).
#[allow(clippy::too_many_arguments)]
pub fn shared_lines(
    kp: &KernelProbe,
    idle: &IdleMesh,
    c: &Counts,
    n: f64,
    shape: Shape,
    unit_ms_p50: f64,
    get_lat_us: &[f64],
    overlap_fraction: f64,
) -> Vec<(&'static str, f64)> {
    let cache_served = c.get(C::CacheHits) + c.get(C::CacheJoins);
    vec![
        ("tensor.dgemm_gflops", kp.dgemm_gflops),
        ("tensor.sort4_gbps", kp.sort4_gbps),
        ("tensor.gemm_gflop_per_unit", kp.gflop_per_unit),
        ("tensor.flops_per_byte", kp.flops_per_byte),
        (
            "tensor.gemm_share",
            ratio(
                ratio(kp.gflop_per_unit, kp.dgemm_gflops),
                (shape.ranks * shape.workers) as f64 * unit_ms_p50 / 1e3,
            ),
        ),
        ("ga.local_get_gbps", idle.local_get_gbps),
        ("ga.acc_gbps", idle.acc_gbps),
        ("ga.cached_get_us_p50", idle.cached_get_us_p50),
        ("ga.sync_us_p50", idle.sync_us_p50),
        (
            "ga.cache_hit_ratio",
            ratio(cache_served, cache_served + c.get(C::CacheMisses)),
        ),
        ("ga.remote_mb_per_unit", c.get(C::GaRemoteBytes) / n / 1e6),
        ("ga.local_mb_per_unit", c.get(C::GaLocalBytes) / n / 1e6),
        ("ga.gets_per_unit", c.get(C::GaGets) / n),
        ("ga.accs_per_unit", c.get(C::GaAccs) / n),
        ("comm.get_rtt_us_p50", idle.get_rtt_us_p50),
        ("comm.get_rtt_us_p90", idle.get_rtt_us_p90),
        ("comm.small_rtt_us_p50", idle.small_rtt_us_p50),
        ("comm.barrier_us_p50", idle.barrier_us_p50),
        ("comm.get_stream_mbps", idle.get_stream_mbps),
        ("comm.get_lat_us_p50", median(get_lat_us)),
        ("comm.get_lat_us_p90", percentile(get_lat_us, 0.9)),
        (
            "comm.get_queue_ratio",
            ratio(median(get_lat_us), idle.get_rtt_us_p50),
        ),
        // A 1-rank mesh still frames its self-addressed barrier traffic;
        // wire means bytes that left the rank.
        (
            "comm.wire_mb_per_unit",
            if shape.ranks > 1 {
                c.get(C::BytesTx) / n / 1e6
            } else {
                0.0
            },
        ),
        ("comm.frames_per_unit", c.get(C::MsgsTx) / n),
        (
            "comm.rndv_ratio",
            ratio(c.get(C::Rndv), c.get(C::Eager) + c.get(C::Rndv)),
        ),
        (
            "comm.batch_occupancy",
            ratio(
                c.get(C::MultiParts),
                c.get(C::MultiGets) * CommConfig::default().max_batch_parts as f64,
            ),
        ),
        ("comm.overlap_fraction", overlap_fraction),
        ("comm.retries", c.get(C::Retries)),
    ]
}
