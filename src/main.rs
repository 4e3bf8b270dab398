//! `parsec-ccsd-repro` — command-line front end for the reproduction.
//!
//! ```text
//! parsec-ccsd-repro inspect  [--scale S] [--nodes N] [--kernels t2_7,t2_2]
//! parsec-ccsd-repro simulate [--scale S] [--nodes N] [--cores C]
//!                            [--variant v1..v5|original|h<K>]
//!                            [--trace FILE.{json,csv}] [--kernels ...]
//! parsec-ccsd-repro verify   [--scale S] [--nodes N] [--kernels ...]
//! parsec-ccsd-repro dot      [--scale S] [--nodes N] [--variant V] [-o FILE]
//!                            [--kernels ...]
//! parsec-ccsd-repro paper    <fig9|fig10_13|ablations|graph_shapes|multikernel> [--scale S]
//! ```
//!
//! `--nodes` and `--cores` are integers >= 1. A subcommand takes only the
//! options its line shows, each with a value. `paper` prints one figure of
//! the paper's evaluation in its fixed configuration (`src/paper.rs`).
//! Bad input exits 1 with `error: ...`.
//!
//! `simulate --trace x.json` writes a Chrome trace-event file loadable in
//! Perfetto / `chrome://tracing`; `.csv` writes the flat span table.

mod paper;

use ccsd::{build_graph, simulate_baseline, verify, BaselineCfg, VariantCfg};
use parsec_rt::SimEngine;
use std::process::ExitCode;
use std::sync::Arc;
use tce::{inspect_kernels, Kernel, SpaceConfig, TileSpace};

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// A count option: `default` when absent, else an integer >= 1.
fn count(args: &[String], key: &str, default: usize) -> Result<usize, String> {
    let Some(v) = arg(args, key) else {
        return Ok(default);
    };
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{key} must be an integer >= 1, got `{v}`")),
    }
}

fn scale(name: &str) -> Result<SpaceConfig, String> {
    Ok(match name {
        "tiny" => tce::scale::tiny(),
        "small" => tce::scale::small(),
        "medium" => tce::scale::medium(),
        "paper" => tce::scale::paper(),
        other => return Err(format!("unknown scale `{other}`")),
    })
}

fn kernels(args: &[String]) -> Result<Vec<Kernel>, String> {
    match arg(args, "--kernels") {
        None => Ok(vec![Kernel::T2_7]),
        Some(list) => list
            .split(',')
            .map(|k| match k.trim() {
                "t2_7" => Ok(Kernel::T2_7),
                "t2_2" => Ok(Kernel::T2_2),
                other => Err(format!("unknown kernel `{other}` (t2_7, t2_2)")),
            })
            .collect(),
    }
}

fn variant(args: &[String]) -> Result<VariantCfg, String> {
    let name = arg(args, "--variant").unwrap_or_else(|| "v5".into());
    Ok(match name.as_str() {
        "v1" => VariantCfg::v1(),
        "v2" => VariantCfg::v2(),
        "v3" => VariantCfg::v3(),
        "v4" => VariantCfg::v4(),
        "v5" => VariantCfg::v5(),
        h if h.starts_with('h') => {
            let k: usize = h[1..]
                .parse()
                .map_err(|_| format!("bad segment height `{h}` (h<K>)"))?;
            VariantCfg::height(k)
        }
        other => {
            return Err(format!(
                "unknown variant `{other}` (v1..v5, original, h<K>)"
            ))
        }
    })
}

/// `args` must be `key value` pairs whose keys `cmd` reads: an option it
/// does not read would be silently ignored.
fn check_options(cmd: &str, args: &[String]) -> Result<(), String> {
    let only: &[&str] = match cmd {
        "inspect" | "verify" => &[],
        "simulate" => &["--cores", "--variant", "--trace"],
        "dot" => &["--variant", "-o"],
        other => return Err(format!("unknown command `{other}`")),
    };
    for pair in args.chunks(2) {
        let key = pair[0].as_str();
        if !["--scale", "--nodes", "--kernels"].contains(&key) && !only.contains(&key) {
            return Err(format!("`{cmd}` does not take `{key}`"));
        }
        if pair.len() == 1 {
            return Err(format!("{key} needs a value"));
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, args)) = all.split_first() else {
        return Err(
            "usage: parsec-ccsd-repro <inspect|simulate|verify|dot|paper> [options]".into(),
        );
    };
    if cmd == "paper" {
        // A figure is a fixed configuration: any option but --scale would
        // be silently ignored.
        return match args {
            [figure] => paper::run(figure, None),
            [figure, key, name] if key == "--scale" => paper::run(figure, Some(scale(name)?)),
            [] => Err(format!(
                "usage: parsec-ccsd-repro paper <{}> [--scale S]",
                paper::FIGURES
            )),
            [_, rest @ ..] => Err(format!(
                "`paper` takes a figure and at most `--scale S`, not `{}`",
                rest.join(" ")
            )),
        };
    }
    check_options(cmd, args)?;
    let nodes = count(args, "--nodes", 4)?;
    let cores = count(args, "--cores", 3)?;
    let space = TileSpace::build(&match arg(args, "--scale") {
        Some(name) => scale(&name)?,
        None => tce::scale::small(),
    });
    let ks = kernels(args)?;

    match cmd.as_str() {
        "inspect" => {
            let ins = inspect_kernels(&space, nodes, &ks);
            println!(
                "space: {} occ + {} virt spin orbitals ({} tiles)",
                space.n_occ(),
                space.n_virt(),
                space.num_tiles()
            );
            println!(
                "kernels: {}",
                ks.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
            );
            println!(
                "chains: {}   GEMMs: {}   longest chain: {}",
                ins.num_chains(),
                ins.total_gemms,
                ins.max_chain_len
            );
            for (name, layout) in [
                ("t2", &ins.t2),
                ("v_vvvv", &ins.v),
                ("v_oooo", &ins.v_oo),
                ("i2", &ins.i2),
            ] {
                println!(
                    "tensor {name:>7}: {:>12} elements in {:>6} blocks over {} nodes",
                    layout.len(),
                    layout.index.num_blocks(),
                    layout.dist.nodes()
                );
            }
        }
        "simulate" => {
            let ins = Arc::new(inspect_kernels(&space, nodes, &ks));
            let want_trace = arg(args, "--trace");
            if arg(args, "--variant").as_deref() == Some("original") {
                let rep = simulate_baseline(
                    &ins,
                    &BaselineCfg::new(nodes, cores).collect_trace(want_trace.is_some()),
                );
                println!(
                    "original: {:.4} s  ({} chains, {} gets, {} NXTVALs, {:.2} GB moved)",
                    rep.seconds(),
                    rep.chains,
                    rep.gets,
                    rep.nxtvals,
                    rep.bytes as f64 / 1e9
                );
                if let Some(path) = want_trace {
                    write_trace(&rep.trace, &path)?;
                }
            } else {
                let cfg = variant(args)?;
                let graph = build_graph(ins, cfg, None);
                let rep = SimEngine::new(nodes, cores)
                    .collect_trace(want_trace.is_some())
                    .run(&graph);
                println!(
                    "{}: {:.4} s  ({} tasks, {} events, {} messages, {:.2} GB moved)",
                    cfg.name,
                    rep.seconds(),
                    rep.tasks,
                    rep.events,
                    rep.messages,
                    rep.bytes as f64 / 1e9
                );
                if let Some(path) = want_trace {
                    write_trace(&rep.trace, &path)?;
                }
            }
        }
        "verify" => {
            let (ins, ws) = verify::prepare_kernels(&space, nodes, &ks);
            let e_ref = verify::reference_energy(&ws);
            println!("reference energy: {e_ref:.15}");
            let mut worst: f64 = 0.0;
            for cfg in VariantCfg::all() {
                let e = verify::variant_energy_native(&ins, &ws, cfg, 2);
                let d = tensor_kernels::rel_diff(e_ref, e);
                worst = worst.max(d);
                println!("{:>3} native: {e:.15}  (rel diff {d:.2e})", cfg.name);
            }
            let gs = ws.ga.stats();
            println!(
                "GA traffic: {:.2} MB rank-local, {:.2} MB remote  ({} gets, {} accs, {} nxtvals)",
                gs.local_bytes() as f64 / 1e6,
                gs.remote_bytes() as f64 / 1e6,
                gs.gets(),
                gs.accs(),
                gs.nxtvals()
            );
            // The tile cache only fronts remote pieces; a single-process
            // verify run has none and nothing to report.
            let lookups = gs.cache_hits() + gs.cache_joins() + gs.cache_misses();
            if lookups > 0 {
                println!(
                    "tile cache: hit rate {:.3}  ({} hits, {} joins, {} misses, {} invalidations, {:.2} MB served locally, {} verified-stale reads)",
                    (gs.cache_hits() + gs.cache_joins()) as f64 / lookups as f64,
                    gs.cache_hits(),
                    gs.cache_joins(),
                    gs.cache_misses(),
                    gs.cache_invalidations(),
                    gs.cache_hit_bytes() as f64 / 1e6,
                    gs.stale_reads()
                );
            }
            if worst < 1e-12 {
                println!("OK: all variants match the reference to ~14 digits");
            } else {
                return Err(format!("verification FAILED: worst rel diff {worst:.2e}"));
            }
        }
        "dot" => {
            let ins = Arc::new(inspect_kernels(&space, nodes, &ks));
            let cfg = variant(args)?;
            let graph = build_graph(ins, cfg, None);
            let dot = ptg::validate::to_dot(&graph, 50_000)
                .map_err(|e| format!("graph too large or invalid: {e}"))?;
            match arg(args, "-o") {
                Some(path) => {
                    std::fs::write(&path, dot).map_err(|e| e.to_string())?;
                    eprintln!("wrote {path}");
                }
                None => print!("{dot}"),
            }
        }
        _ => unreachable!("check_options accepted `{cmd}`"),
    }
    Ok(())
}

fn write_trace(trace: &xtrace::Trace, path: &str) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let w = std::io::BufWriter::new(f);
    if path.ends_with(".json") {
        trace.write_chrome_json(w).map_err(|e| e.to_string())?;
    } else {
        trace.write_csv(w).map_err(|e| e.to_string())?;
    }
    eprintln!("wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
