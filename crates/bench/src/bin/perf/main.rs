//! `perf` — the repo's benchmark (contract: `BENCHMARK.json` at the root,
//! tables in `spec.rs`, rationale in `README.md` beside this file).
//!
//! ```text
//! perf [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! perf list [--json]      # workloads, metrics, units, directions, bounds
//! perf aa [--seed A [B]]  # every untraced pass twice; must agree within bounds
//! perf smoke              # 3 units per workload; every metric emitted once
//! ```
//!
//! `run` with both `--workload` and `--trace` measures in this process
//! and ends with the result line; without them it runs the missing
//! combinations, each in a fresh process, and prints everything.

mod compute;
mod counts;
mod probes;
mod service;
mod spans;
mod spec;
mod stats;

use comm::SocketTransport;
use spec::{Kind, Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Three units per window and tiny probes instead of timed windows.
    pub smoke: bool,
}

/// What one pass of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Timed units behind the percentiles.
    pub samples: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// An untraced run is split over several sessions, each a fresh mesh (or
/// daemon lifetime) with its own set-up, its share of the timed window
/// and a slice of the serial baseline measured right after it. The run
/// reports the median over sessions of each session's figure: set-up
/// alone is too short to time once; how the OS places six threads on two
/// cores differs from mesh to mesh; and this machine's speed wanders by
/// 10-20 % over tens of seconds, which a median over sessions shrugs off
/// and a ratio of neighbouring measurements cancels.
#[derive(Default)]
pub struct Sessions {
    setup_s: Vec<f64>,
    units_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    speedup: Vec<f64>,
    pub samples: u64,
}

impl Sessions {
    pub fn count(smoke: bool) -> usize {
        if smoke {
            1
        } else {
            5
        }
    }

    pub fn push(&mut self, setup_s: f64, unit_ms: &[f64], units_per_s: f64, serial_unit_s: &[f64]) {
        self.setup_s.push(setup_s);
        self.units_per_s.push(units_per_s);
        self.p50_ms.push(stats::median(unit_ms));
        self.p90_ms.push(stats::percentile(unit_ms, 0.9));
        self.speedup
            .push(units_per_s * stats::median(serial_unit_s));
        self.samples += unit_ms.len() as u64;
    }

    /// Each session's throughput, so a reader sees how far they scatter.
    pub fn note(&self) -> String {
        let each: Vec<String> = self.units_per_s.iter().map(|u| format!("{u:.2}")).collect();
        format!("units_per_s by session: {}", each.join(" "))
    }

    /// The end-to-end metrics; `peak_rss_mb` is read here, after the last
    /// session.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", stats::median(&self.setup_s)),
            ("units_per_s", stats::median(&self.units_per_s)),
            ("unit_ms_p50", stats::median(&self.p50_ms)),
            ("unit_ms_p90", stats::median(&self.p90_ms)),
            ("speedup_vs_serial", stats::median(&self.speedup)),
            ("peak_rss_mb", stats::peak_rss_mb()),
        ]
    }
}

/// Where traces and A/A tables go: `target/perf` under the current
/// directory, never the repo root. The smoke run, which `cargo test` starts
/// in the package directory, redirects it to `target/perf/smoke` under the
/// repo root so it neither litters nor overwrites real traces.
static OUT_DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();

fn out_dir() -> PathBuf {
    OUT_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| PathBuf::from("target/perf"))
}

/// Where a workload's Chrome trace goes.
pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.trace.json"))
}

/// A base port with `n` consecutive free ports, searched from a
/// pid-derived start so concurrent runs on one host do not collide.
pub fn free_port_base(n: usize) -> u16 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let base = 20_000 + ((std::process::id() as u64 * 61 + k * 8) % 40_000) as u16;
        if (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i as u16)).is_ok()) {
            return base;
        }
    }
}

pub fn connect_mesh(rank: usize, ranks: usize, base: u16) -> SocketTransport {
    SocketTransport::connect(rank, ranks, base, Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("rank {rank}: mesh connect failed: {e}"))
}

/// Milliseconds since process start at which a unit last completed.
static LAST_PROGRESS_MS: AtomicU64 = AtomicU64::new(0);
static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Note that a unit of work just finished (feeds the watchdog).
pub fn progress() {
    let ms = START.get_or_init(Instant::now).elapsed().as_millis() as u64;
    LAST_PROGRESS_MS.store(ms, Ordering::Relaxed);
}

/// A unit that exceeds the 60 s deadline has failed and a hung collective
/// cannot be interrupted: end the process with an error instead.
fn spawn_watchdog() {
    progress();
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_secs(1));
        let now = START.get_or_init(Instant::now).elapsed().as_millis() as u64;
        if now.saturating_sub(LAST_PROGRESS_MS.load(Ordering::Relaxed)) > 60_000 {
            eprintln!("perf: no unit completed for 60 s (deadline exceeded), aborting");
            std::process::exit(3);
        }
    });
}

fn run_workload(w: &Workload, a: &RunArgs) -> Result<Outcome, String> {
    let (ranks, workers) = (w.shape.ranks, w.shape.workers);
    if !a.smoke && stats::nproc() < ranks * workers {
        return Err(format!(
            "{} needs {ranks} x {workers} compute workers but nproc is {}; refusing to oversubscribe",
            w.name,
            stats::nproc()
        ));
    }
    match w.kind {
        Kind::Compute => compute::run(w, a),
        Kind::Service => service::run(w, a),
    }
}

fn expected(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Print one pass as a table and return its result line. Errors if the
/// pass did not emit exactly the metrics its table promises.
fn report(w: &Workload, a: &RunArgs, o: &Outcome) -> Result<String, String> {
    println!(
        "== {} | {} pass | seed {} | {} ranks x {} workers | {} timed units | {} attempted, {} failed (fail_ratio {})",
        w.name,
        if a.trace { "traced" } else { "untraced" },
        a.seed,
        w.shape.ranks,
        w.shape.workers,
        o.samples,
        o.attempted,
        o.failed,
        stats::ratio(o.failed as f64, o.attempted as f64)
    );
    for n in &o.notes {
        println!("   {n}");
    }
    let mut line = Vec::new();
    for m in expected(a.trace) {
        let mut found = o.metrics.iter().filter(|(n, _)| *n == m.name);
        let (Some((_, v)), None) = (found.next(), found.next()) else {
            return Err(format!(
                "{}: metric {} not emitted exactly once",
                w.name, m.name
            ));
        };
        if !v.is_finite() {
            return Err(format!("{}: metric {} is not finite", w.name, m.name));
        }
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
        println!(
            "   {:<32} {:>16.4} {:<8} ({} is better){bound}",
            m.name, v, m.unit, m.better
        );
        line.push((m.name, *v, m.unit));
    }
    if let Some((n, _)) = o
        .metrics
        .iter()
        .find(|(n, _)| !expected(a.trace).iter().any(|m| m.name == *n))
    {
        return Err(format!("{}: metric {n} is not in the contract", w.name));
    }
    Ok(stats::result_json(
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        &line,
    ))
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|x| x == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
    }
}

/// Run one pass of one workload in a fresh process; its output, echoed,
/// and its result line.
fn child(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name, trace as u8, out.status
        ));
    }
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{} printed nothing", w.name))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let seed = parse(args, "--seed", spec::DEFAULT_SEED)?;
    let seconds = parse(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let workloads: Vec<&Workload> =
        match flag(args, "--workload") {
            Some(name) => vec![spec::workload(&name)
                .ok_or(format!("unknown workload `{name}` (see `perf list`)"))?],
            None => WORKLOADS.iter().collect(),
        };
    let passes: Vec<bool> = match flag(args, "--trace").as_deref() {
        Some("0") => vec![false],
        Some("1") => vec![true],
        None => vec![false, true],
        Some(v) => return Err(format!("bad value `{v}` for --trace")),
    };
    println!("perf | {}", stats::machine_header());
    if let ([w], [trace]) = (&workloads[..], &passes[..]) {
        let a = RunArgs {
            seed,
            seconds,
            trace: *trace,
            smoke: false,
        };
        spawn_watchdog();
        let outcome = run_workload(w, &a)?;
        println!("{}", report(w, &a, &outcome)?);
        return Ok(());
    }
    let mut bad = Vec::new();
    for w in &workloads {
        for &trace in &passes {
            let line = child(w, seed, seconds, trace)?;
            if stats::field_in(&line, "correct") != Some("true") {
                bad.push(format!("{} (trace {})", w.name, trace as u8));
            }
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("incorrect results: {}", bad.join(", ")))
    }
}

fn cmd_list(args: &[String]) {
    if args.iter().any(|a| a == "--json") {
        print!("{}", spec::benchmark_json());
        return;
    }
    println!(
        "default seed {} | run_seconds {}",
        spec::DEFAULT_SEED,
        spec::RUN_SECONDS
    );
    println!("workloads:");
    for w in WORKLOADS {
        println!(
            "  {:<18} {} ranks x {} workers  {}",
            w.name, w.shape.ranks, w.shape.workers, w.why
        );
    }
    for (title, table) in [
        ("end-to-end metrics (untraced pass)", END_TO_END),
        ("per-layer metrics (traced pass)", PER_LAYER),
    ] {
        println!("{title}:");
        for m in table {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
            println!(
                "  {:<32} {:<8} {} is better{bound}",
                m.name, m.unit, m.better
            );
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    let d = if m.better == "lower" { b - a } else { a - b };
    d / a.abs()
}

/// A/A: the same code, seed and settings measured twice must agree on
/// every end-to-end metric within that metric's own bound.
fn cmd_aa(args: &[String]) -> Result<(), String> {
    let seconds = parse(args, "--seconds", spec::RUN_SECONDS as f64)?;
    let seeds: Vec<u64> = match args.iter().position(|a| a == "--seed") {
        None => vec![spec::DEFAULT_SEED],
        Some(i) => args[i + 1..]
            .iter()
            .take_while(|s| !s.starts_with("--"))
            .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
            .collect::<Result<_, _>>()?,
    };
    println!("perf aa | {}", stats::machine_header());
    let mut disagreements = Vec::new();
    for seed in seeds {
        // Alternate the order so a drifting machine hurts both sets alike.
        let first: Vec<String> = WORKLOADS
            .iter()
            .map(|w| child(w, seed, seconds, false))
            .collect::<Result<_, _>>()?;
        let mut second: Vec<String> = WORKLOADS
            .iter()
            .rev()
            .map(|w| child(w, seed, seconds, false))
            .collect::<Result<_, _>>()?;
        second.reverse();
        let mut rows = String::from("workload\tmetric\tfirst\tsecond\tworse_by\tbound\n");
        println!("== A/A seed {seed}");
        for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
            for m in END_TO_END {
                let (Some(x), Some(y)) = (stats::metric_in(a, m.name), stats::metric_in(b, m.name))
                else {
                    return Err(format!("{}: {} missing from a result line", w.name, m.name));
                };
                let bound = m.bound.unwrap_or(0.0);
                let gap = worse_by(m, x, y).max(worse_by(m, y, x));
                let ok = gap <= bound;
                println!(
                    "   {:<18} {:<20} {x:>12.4} {y:>12.4}  differ {:>5.1} %  bound {:>4.0} %  {}",
                    w.name,
                    m.name,
                    gap * 100.0,
                    bound * 100.0,
                    if ok { "ok" } else { "DISAGREE" }
                );
                rows.push_str(&format!(
                    "{}\t{}\t{x}\t{y}\t{gap}\t{bound}\n",
                    w.name, m.name
                ));
                if !ok {
                    disagreements.push(format!("seed {seed} {} {}", w.name, m.name));
                }
            }
        }
        let path = out_dir().join(format!("aa-{seed}.tsv"));
        std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, rows))
            .map_err(|e| e.to_string())?;
        println!("   written {}", path.display());
    }
    if disagreements.is_empty() {
        println!("A/A OK");
        Ok(())
    } else {
        Err(format!(
            "A/A disagreement beyond bounds: {}",
            disagreements.join("; ")
        ))
    }
}

fn find_benchmark_json() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let p = dir.join("BENCHMARK.json");
        if p.is_file() {
            return Some(p);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every workload, both passes, three units each, in this process: the
/// contract file matches the tables and every metric in it is emitted
/// exactly once per workload with a finite value.
fn cmd_smoke() -> Result<(), String> {
    let path =
        find_benchmark_json().ok_or("BENCHMARK.json not found above the current directory")?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    if text != spec::benchmark_json() {
        return Err(format!(
            "{} differs from `perf list --json`; regenerate it",
            path.display()
        ));
    }
    let _ = OUT_DIR.set(path.with_file_name("target/perf/smoke"));
    spawn_watchdog();
    for w in WORKLOADS {
        for trace in [false, true] {
            let a = RunArgs {
                seed: spec::DEFAULT_SEED,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let outcome = run_workload(w, &a)?;
            report(w, &a, &outcome)?;
            if outcome.failed != 0 {
                return Err(format!(
                    "{}: {} of {} units failed",
                    w.name, outcome.failed, outcome.attempted
                ));
            }
        }
    }
    println!("PERF SMOKE OK");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = match cmd {
        "run" => cmd_run(rest),
        "list" => {
            cmd_list(rest);
            Ok(())
        }
        "aa" => cmd_aa(rest),
        "smoke" => cmd_smoke(),
        other => Err(format!("unknown command `{other}` (run, list, aa, smoke)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The smoke run is the benchmark's own end-to-end test: all four
    /// workloads, both passes, over real sockets.
    #[test]
    fn smoke_emits_every_contract_metric_once() {
        super::cmd_smoke().expect("perf smoke");
    }
}
