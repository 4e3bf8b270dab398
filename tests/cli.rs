//! The command-line front end rejects bad input with exit status 1 and an
//! `error: ...` line on stderr, before doing any work: non-numeric or
//! zero `--nodes`/`--cores`, an option the subcommand does not read or
//! one without a value, and any option of `paper` but `--scale`. `paper <figure>` reproduces the
//! committed `results/<figure>.txt` byte for byte.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_parsec-ccsd-repro"))
        .args(args)
        .output()
        .expect("run the CLI binary")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

#[test]
fn non_numeric_counts_are_rejected() {
    assert_rejected(&["inspect", "--scale", "tiny", "--nodes", "abc"], "--nodes");
    assert_rejected(
        &["simulate", "--scale", "tiny", "--cores", "abc"],
        "--cores",
    );
    assert_rejected(&["verify", "--scale", "tiny", "--nodes", "-2"], "--nodes");
}

#[test]
fn zero_counts_are_rejected() {
    assert_rejected(&["inspect", "--scale", "tiny", "--nodes", "0"], "--nodes");
    assert_rejected(&["simulate", "--scale", "tiny", "--cores", "0"], "--cores");
}

#[test]
fn options_a_subcommand_does_not_read_are_rejected() {
    for (args, needle) in [
        (
            &["verify", "--scale", "tiny", "--cores", "4"][..],
            "--cores",
        ),
        (
            &["inspect", "--scale", "tiny", "--variant", "v3"],
            "--variant",
        ),
        (&["inspect", "--scale", "tiny", "--nodse", "2"], "--nodse"),
        (
            &["simulate", "--scale", "tiny", "--policy", "fifo"],
            "--policy",
        ),
        (&["dot", "--scale", "tiny", "--trace", "x.csv"], "--trace"),
        (
            &["simulate", "--scale", "tiny", "--nodes"],
            "--nodes needs a value",
        ),
    ] {
        assert_rejected(args, needle);
    }
}

#[test]
fn valid_counts_and_policy_run() {
    for args in [
        &["inspect", "--scale", "tiny", "--nodes", "2"][..],
        &[
            "simulate", "--scale", "tiny", "--nodes", "1", "--cores", "1",
        ],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
}

#[test]
fn paper_reproduces_the_committed_results() {
    // The two figures fast enough for a debug build; ci.sh diffs the
    // three paper-scale ones at release speed.
    for figure in ["graph_shapes", "multikernel"] {
        let out = run(&["paper", figure]);
        assert!(
            out.status.success(),
            "{figure}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = format!("{}/results/{figure}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("read the committed figure");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            committed,
            "`paper {figure}` no longer reproduces {path}: regenerate it, and check \
             its claims and numbers against EXPERIMENTS.md"
        );
    }
}

#[test]
fn paper_figures_print_their_claim_verdicts() {
    for (figure, claims) in [("fig9", 6), ("fig10_13", 1), ("ablations", 1)] {
        let out = run(&["paper", figure, "--scale", "tiny"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{figure}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let verdicts = stdout
            .lines()
            .filter(|l| {
                l.starts_with("claim: ") && (l.ends_with(" — holds") || l.ends_with(" — diverges"))
            })
            .count();
        assert_eq!(verdicts, claims, "{figure}:\n{stdout}");
    }
}

#[test]
fn paper_rejects_unknown_figures_and_ignored_options() {
    assert_rejected(&["paper", "fig99"], "unknown figure `fig99`");
    assert_rejected(&["paper", "fig9", "--nodes", "3"], "--nodes");
    assert_rejected(&["paper", "fig9", "--scale", "huge"], "unknown scale");
}
