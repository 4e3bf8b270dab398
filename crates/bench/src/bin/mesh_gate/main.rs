//! `mesh_gate` — the multi-process socket gates `ci.sh` runs.
//!
//! Each gate launches 4 ranks as real OS processes (rank 0 in this
//! process, the others re-executing this binary) connected by the TCP
//! mesh transport, and passes or fails; nothing is measured and nothing
//! is written outside a temp dir (`perf`, under `perf/`, is where numbers
//! come from).
//!
//! ```text
//! mesh_gate comm-smoke   # v1..v5 reproduce the single-process energy
//! mesh_gate chaos        # every fault schedule, then every death schedule
//! mesh_gate svc-smoke    # job service: two 2-rank-gang jobs, then two full-mesh jobs
//! mesh_gate recovery     # job service survives its last rank dying mid-stream
//!     --seed HEX     chaos: base seed of the schedules' dice; recovery: the victim's plan
//!     --kill-at N    recovery: the victim goes dark at its N-th frame arrival
//!     --port P       first listener port (a gate uses up to 64 from there)
//! ```
//!
//! A failing gate prints the `--seed` / `--kill-at` that replays it.

mod comm_gates;
mod fragment;
mod launch;
mod svc_gates;

use fragment::Fragment;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Every gate's mesh: the gang assertions (two 2-rank gangs, the victim
/// fenced alone off a 3-rank survivor gang) are written for this size.
pub const RANKS: usize = 4;

pub fn connect(rank: usize, port: u16) -> comm::SocketTransport {
    comm::SocketTransport::connect(rank, RANKS, port, Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("rank {rank}: mesh connect failed: {e}"))
}

/// In-process ground truth for one geometry.
pub fn reference(cfg: &tce::SpaceConfig) -> f64 {
    let space = tce::TileSpace::build(cfg);
    ccsd::verify::reference_energy(&tce::build_workspace(&space, 1))
}

/// Value of a `--key value` argument.
fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `(--seed, --kill-at, --port)`; no other option exists.
fn parse_opts(args: &[String]) -> Result<(Option<u64>, u64, u16), String> {
    let known = ["--seed", "--kill-at", "--port"];
    if let Some(odd) = (args.iter().step_by(2)).find(|a| !known.contains(&a.as_str())) {
        return Err(format!("unknown option `{odd}`"));
    }
    let num = |flag: &str, radix: u32| {
        let parse = |v: String| {
            let digits = v.strip_prefix("0x").filter(|_| radix == 16).unwrap_or(&v);
            u64::from_str_radix(digits, radix).map_err(|e| format!("{flag} {v}: {e}"))
        };
        arg_value(args, flag).map(parse).transpose()
    };
    let seed = num("--seed", 16)?;
    // Mid-job, not merely mid-stream. A job is ~40 frame arrivals at the
    // victim, give or take the retries and steal probes of the run, and
    // stops depending on the victim once its enter of the closing
    // reduction is out; an index that can land after that finds the
    // survivors through the job's final collective, and the gate then
    // (rightly) reports no poisoned run to suppress. The spread of job
    // boundaries grows with every job, so the earliest quiet window is
    // the widest. With one opening collective per run (was two), swept
    // over 60-560 runs per even index: 40..42 -> 3 of 120, 58..60 -> 3
    // of 120, 62..100 -> 14 of 1 200 (0-5 per index; 92, the old
    // default, 6 of 350 over all its runs); 44..56 -> 1 of 1 320 (50
    // alone: 0 of 560).
    let kill_at = num("--kill-at", 10)?.unwrap_or(50);
    // One 64-port window per invocation (distinct across concurrent
    // ones), a fresh `RANKS` ports of it per mesh. The whole range must
    // sit BELOW the kernel's ephemeral port span (32768+ on Linux): every
    // dial in a mesh draws an ephemeral source port, and a listener bind
    // that aliases one stalls for a minute and then dies with EADDRINUSE.
    let port = match num("--port", 10)? {
        Some(p) => u16::try_from(p).map_err(|e| format!("--port {p}: {e}"))?,
        None => 18000 + (std::process::id() % 200) as u16 * 64,
    };
    Ok((seed, kill_at, port))
}

/// A member rank: `rank <role> <rank> <port> <dir> <extra..>`, as
/// `launch::run_mesh` spells it. Runs the role's rank body and leaves
/// its fragment in `dir`.
fn member(args: &[String]) {
    let [role, rank, port, dir, extra @ ..] = args else {
        panic!("malformed member command line: {args:?}");
    };
    let num = |s: &String| -> u64 { s.parse().expect("member arguments are numbers") };
    let (rank, port, dir) = (num(rank) as usize, num(port) as u16, Path::new(dir));
    let frag: Fragment = match (role.as_str(), extra) {
        ("smoke", []) => comm_gates::smoke_rank(rank, port),
        ("fault", [schedule, seed]) => comm_gates::fault_rank(rank, port, schedule, num(seed)),
        ("kill", [schedule, seed]) => comm_gates::kill_rank(rank, port, schedule, num(seed)),
        ("svc-smoke", []) => svc_gates::smoke_member(rank, port),
        ("recovery", [kill_at, seed]) => {
            svc_gates::recovery_member(rank, port, num(kill_at), num(seed))
        }
        _ => panic!("malformed member command line: {args:?}"),
    };
    frag.write(dir)
        .unwrap_or_else(|e| panic!("rank {rank}: writing the fragment: {e}"));
}

fn gate(args: &[String]) -> Result<(), String> {
    let (name, rest) = args
        .split_first()
        .ok_or("usage: mesh_gate comm-smoke|chaos|svc-smoke|recovery [--seed HEX] [--kill-at N] [--port P]")?;
    let (seed, kill_at, port) = parse_opts(rest)?;
    match name.as_str() {
        "comm-smoke" => comm_gates::smoke(port),
        "chaos" => comm_gates::chaos(port, seed.unwrap_or(0xC0FF_EE00)),
        "svc-smoke" => svc_gates::smoke(port),
        "recovery" => svc_gates::recovery(port, kill_at, seed.unwrap_or(0xFA11_0001)),
        other => Err(format!("unknown gate `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("rank") {
        member(&args[1..]);
        return ExitCode::SUCCESS;
    }
    match gate(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_options_parse_and_anything_else_is_refused() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_opts(&args)
        };
        let all = parse("--seed 0xc0ffee00 --kill-at 77 --port 20000");
        assert_eq!(all, Ok((Some(0xC0FF_EE00), 77, 20000)));
        let (seed, kill_at, port) = parse("").unwrap();
        assert_eq!((seed, kill_at), (None, 50));
        assert!((18000..32768 - 64).contains(&port), "{port}");
        assert_eq!(parse("--ranks 8").unwrap_err(), "unknown option `--ranks`");
        assert_eq!(parse("--port 1 x").unwrap_err(), "unknown option `x`");
        assert!(parse("--seed xyz").unwrap_err().starts_with("--seed xyz:"));
        assert!(parse("--port 99999")
            .unwrap_err()
            .starts_with("--port 99999:"));
    }
}
