//! The command-line front end rejects bad input with exit status 1 and an
//! `error: ...` line on stderr, before doing any work: non-numeric or
//! zero `--nodes`/`--cores`, and `--policy` where nothing schedules by it.

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
fn policy_outside_simulate_is_rejected() {
    assert_rejected(
        &["verify", "--scale", "tiny", "--policy", "bogus"],
        "--policy",
    );
    assert_rejected(
        &["inspect", "--scale", "tiny", "--policy", "fifo"],
        "--policy",
    );
    assert_rejected(
        &[
            "simulate",
            "--scale",
            "tiny",
            "--variant",
            "original",
            "--policy",
            "fifo",
        ],
        "--policy",
    );
    assert_rejected(
        &["simulate", "--scale", "tiny", "--policy", "bogus"],
        "unknown policy",
    );
}

#[test]
fn valid_counts_and_policy_run() {
    for args in [
        &["inspect", "--scale", "tiny", "--nodes", "2"][..],
        &[
            "simulate", "--scale", "tiny", "--nodes", "1", "--cores", "1", "--policy", "fifo",
        ],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    }
}
