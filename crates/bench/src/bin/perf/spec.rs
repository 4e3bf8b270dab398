//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is the
//! rendering of these tables (`perf list --json`); `perf smoke` fails if
//! the two drift apart.

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 20150908;
/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// A compute workload's tile geometry and placement. Every tile has
/// exactly `tile` orbitals (no size spread) and the space has two irreps;
/// the workload seed picks the irrep labelling among those whose total
/// GEMM count falls in `gemms`, so seeds change which blocks exist and
/// who owns them but not how much work a unit is.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub ranks: usize,
    pub workers: usize,
    pub occ: usize,
    pub virt: usize,
    pub tile: usize,
    pub gemms: (usize, usize),
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Unit = one `DistRank::run_variant_graph` of v5 + prefetch.
    Compute,
    /// Unit = one job through `svc`, `Client::submit` to `Client::wait`;
    /// the shape is every job's geometry family and gang.
    Service,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub shape: Shape,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dist2_medium",
        why: "2 ranks x 1 worker over sockets: rendezvous-sized gets, tile cache, steals and post-run collectives on the critical path, kernels about an eighth of it",
        kind: Kind::Compute,
        shape: Shape {
            ranks: 2,
            workers: 1,
            occ: 2,
            virt: 5,
            tile: 8,
            gemms: (1090, 1090),
        },
    },
    Workload {
        name: "local_bigtile",
        why: "1 rank x 2 workers, 16-orbital tiles: packed dgemm and sort_4 do most of the work, no wire traffic; a comm or svc change must show nothing here",
        kind: Kind::Compute,
        shape: Shape {
            ranks: 1,
            workers: 2,
            occ: 1,
            virt: 4,
            tile: 16,
            gemms: (149, 149),
        },
    },
    Workload {
        name: "local_finegrain",
        why: "1 rank x 2 workers, 2-orbital tiles, ~35k tasks: per-task cost of runtime, ptg and small GA calls is everything, kernels nothing; dispatch contention shows here only",
        kind: Kind::Compute,
        shape: Shape {
            ranks: 1,
            workers: 2,
            occ: 3,
            virt: 7,
            tile: 2,
            gemms: (8150, 8330),
        },
    },
    Workload {
        name: "svc_small_stream",
        why: "2 daemons, 2 closed-loop clients, small jobs: eager payloads, barriers, control AMs and plan-cache hits; latency-bound, svc admission and polling dominate",
        kind: Kind::Service,
        shape: Shape {
            ranks: 2,
            workers: 1,
            occ: 2,
            virt: 3,
            tile: 3,
            gemms: (154, 166),
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Bounds are max(10 %, 2 x the spread
/// over ten seeds measured when the benchmark was defined), capped at the
/// contract's 25 % — which the 2-rank workloads reach on this VM, see
/// README.md.
/// `fail_ratio` is reported through the result's `attempted`/`failed`
/// (it is always 0, which a bounded metric may not be).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("units_per_s", "1/s", "higher", 0.25),
    e2e("unit_ms_p50", "ms", "lower", 0.25),
    e2e("unit_ms_p90", "ms", "lower", 0.25),
    e2e("speedup_vs_serial", "ratio", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.20),
];

/// One ledger line per layer (crate) quantity, from the traced pass.
pub const PER_LAYER: &[Metric] = &[
    layer("tensor.dgemm_gflops", "GFLOP/s", "higher"),
    layer("tensor.sort4_gbps", "GB/s", "higher"),
    layer("tensor.gemm_gflop_per_unit", "GFLOP", "lower"),
    layer("tensor.flops_per_byte", "flop/B", "higher"),
    layer("tensor.gemm_share", "ratio", "higher"),
    layer("runtime.dispatch_ns_per_task", "ns", "lower"),
    layer("runtime.tasks_per_unit", "count", "lower"),
    layer("runtime.engine_ms_p50", "ms", "lower"),
    layer("runtime.worker_busy_ratio", "ratio", "higher"),
    layer("runtime.local_steals_per_unit", "count", "lower"),
    layer("runtime.worker_imbalance", "ratio", "lower"),
    layer("runtime.pool_misses_per_unit", "count", "lower"),
    layer("tce.inspect_ms", "ms", "lower"),
    layer("tce.fill_ms", "ms", "lower"),
    layer("tce.energy_ms_p50", "ms", "lower"),
    layer("ccsd.graph_build_ms", "ms", "lower"),
    layer("ccsd.settle_ms_p50", "ms", "lower"),
    layer("ccsd.steal_requests_per_unit", "count", "lower"),
    layer("ccsd.steal_chains_per_unit", "count", "lower"),
    layer("ccsd.steal_bytes_per_unit", "B", "lower"),
    layer("ccsd.rank_imbalance", "ratio", "lower"),
    layer("ccsd.v2_unit_ms_p50", "ms", "lower"),
    layer("ccsd.serial_unit_ms_p50", "ms", "lower"),
    layer("ga.local_get_gbps", "GB/s", "higher"),
    layer("ga.acc_gbps", "GB/s", "higher"),
    layer("ga.cached_get_us_p50", "us", "lower"),
    layer("ga.sync_us_p50", "us", "lower"),
    layer("ga.cache_hit_ratio", "ratio", "higher"),
    layer("ga.remote_mb_per_unit", "MB", "lower"),
    layer("ga.local_mb_per_unit", "MB", "lower"),
    layer("ga.gets_per_unit", "count", "lower"),
    layer("ga.accs_per_unit", "count", "lower"),
    layer("comm.get_rtt_us_p50", "us", "lower"),
    layer("comm.get_rtt_us_p90", "us", "lower"),
    layer("comm.small_rtt_us_p50", "us", "lower"),
    layer("comm.barrier_us_p50", "us", "lower"),
    layer("comm.get_stream_mbps", "MB/s", "higher"),
    layer("comm.get_lat_us_p50", "us", "lower"),
    layer("comm.get_lat_us_p90", "us", "lower"),
    layer("comm.get_queue_ratio", "ratio", "lower"),
    layer("comm.wire_mb_per_unit", "MB", "lower"),
    layer("comm.frames_per_unit", "count", "lower"),
    layer("comm.rndv_ratio", "ratio", "lower"),
    layer("comm.batch_occupancy", "ratio", "higher"),
    layer("comm.overlap_fraction", "ratio", "higher"),
    layer("comm.retries", "count", "lower"),
    layer("svc.submit_us_p50", "us", "lower"),
    layer("svc.queue_wait_ms_p50", "ms", "lower"),
    layer("svc.service_ms_p50", "ms", "lower"),
    layer("svc.run_ms_p50", "ms", "lower"),
    layer("svc.build_ms_p50", "ms", "lower"),
    layer("svc.overhead_ms_p50", "ms", "lower"),
    layer("svc.plan_hit_ratio", "ratio", "higher"),
    layer("svc.plan_miss_build_ms", "ms", "lower"),
    layer("svc.polls_per_job", "count", "lower"),
    layer("svc.rank_utilization", "ratio", "higher"),
    layer("svc.lib_run_ms_p50", "ms", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.spans_per_unit", "count", "lower"),
];

/// Directory the benchmark lives in, relative to the repo root.
pub const PATH: &str = "crates/bench/src/bin/perf";

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"{PATH}/Cargo.toml\", \"--\"],\n"
    ));
    s.push_str(&format!("  \"paths\": [\"{PATH}\"],\n"));
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    s.push_str(&format!(
        "  \"workloads\": {},\n",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    ));
    let metric_row = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name, m.unit, m.better
        )
    };
    s.push_str(&format!(
        "  \"end_to_end\": {},\n",
        rows(END_TO_END.iter().map(metric_row).collect())
    ));
    s.push_str(&format!(
        "  \"per_layer\": {}\n",
        rows(PER_LAYER.iter().map(metric_row).collect())
    ));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
