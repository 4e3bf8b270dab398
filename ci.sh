#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")"

# Nothing below may write into the tree: compare `git status` at the end
# with what it says now, so a gate that does is caught whatever the
# developer's own uncommitted edits are. (Skipped outside a git checkout.)
tree_before=$(git status --porcelain 2>/dev/null || echo "not a git checkout")

echo "==> cargo build --release (default members: the root package and every crate)"
cargo build --release

echo "==> cargo test -q (workspace: includes the loopback chaos matrices)"
cargo test --workspace -q

echo "==> cargo test --release (engine, ga, ccsd and root stress tests, optimized)"
# The step above builds in debug, where the engine's interleavings run
# 10-30x slower than in the release build every benchmark and service
# runs: a race that needs a tight window (a completion settling inline
# while a sibling steals, a grant landing between claim and poll, a
# worker waking during the all-idle scan) hides there. Run the
# concurrency tests once more at release speed — the engine's unit
# tests, ga's per-thread counters and array views, ccsd's loopback runs
# and stress tests, and the root package's tests/stress.rs.
cargo test --release -q -p parsec-rt -p global-arrays -p ccsd -p parsec-ccsd-repro

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> source size gate (no workspace .rs file over 1300 lines)"
# "No 2.5k-line files" as a gate rather than a wish: a file that outgrows
# this wants splitting along its state machines, as comm::progress was.
big=$(find src tests examples crates -name '*.rs' -not -path '*/target/*' -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 1300 { print "    " $2 ": " $1 " lines" }')
if [ -n "$big" ]; then
    echo "$big"
    echo "source size gate failed"
    exit 1
fi

echo "==> perf smoke (the pinned benchmark of BENCHMARK.json, every workload once)"
# The pipeline's own invocation in smoke form, through the package's own
# manifest and pinned lock file: a protocol change that breaks the
# benchmark's build, or that it would reject as invalid (a retry on its
# clean mesh, a stalled completion), fails here rather than in the
# pipeline.
cargo run --release --quiet --manifest-path crates/bench/src/bin/perf/Cargo.toml -- smoke

echo "==> comm smoke (4 ranks x 4 workers over sockets, v1..v5 vs single-process energies, verified tile cache)"
# The smoke runs every rank with 4 stealing workers beside the comm
# progress thread (the fused-engine hot configuration) and the tile
# cache in paranoia mode: each cache hit is re-fetched fresh from the
# owners and compared, and a single stale read fails the gate. A healthy
# mesh must also show zero recovery activity — any retry/timeout/dup on
# the clean sockets fails CI. Also enforces the wire-accounting
# reconciliation (GA remote get bytes == endpoint requested get bytes).
# After the last run every rank repeats the collective energy reduction:
# it must pull zero bytes on every rank and reproduce that run's energy
# bit for bit (owner-computes: two words per rank travel, no tiles).
cargo run -q --release -p bench-harness --bin mesh_gate -- comm-smoke

echo "==> comm chaos matrix (4 ranks x 4 workers over sockets, fault schedules + kill matrix, fixed seeds)"
# The 4-rank loopback matrix (7 schedules x 2 variants, plus comm-level
# chaos) already ran under `cargo test`; this adds the real-socket pass.
# The same invocation also runs the kill matrix: three scripted death
# schedules (mid-gemm, mid-barrier, mid-submit) where the survivors'
# failure detector must confirm the victim's death — plus a clean
# control that must show zero detector false positives and zero
# recovery activity. Fixed seed so a red run replays exactly; fails on
# energy divergence, any recovery activity in the clean control, or any
# verified-stale cached read under faults (the cache runs with
# verify_reads here too).
cargo run -q --release -p bench-harness --bin mesh_gate -- chaos --seed c0ffee00

echo "==> service smoke (4-rank socket daemons, 2-gang configuration, 2 tenants, 4 jobs)"
# Persistent per-rank daemons serve a multi-tenant job stream over real
# sockets in the gang-scheduled configuration: two 2-rank-gang jobs run
# concurrently on disjoint rank subsets, then two full-mesh jobs. The
# binary gates on every job's energy matching the single-process
# reference to 1e-12, well-formed gang fields (non-empty in-mesh masks
# of the requested size, dense per-gang ordinals), per-rank job counts
# and plan-cache hits exactly as the gang-scoped plan keys predict, and
# — on the clean mesh — zero retries and zero verified-stale cached
# reads. The printed gang masks double-check the 2-gang shape below.
smoke_out=$(cargo run -q --release -p bench-harness --bin mesh_gate -- svc-smoke)
echo "$smoke_out"
echo "$smoke_out" | grep -q "SERVICE SMOKE OK" || { echo "service smoke failed"; exit 1; }
echo "$smoke_out" | grep -q "gangs 0b[01]*/0b[01]*" || { echo "gang fields malformed in smoke output"; exit 1; }
echo "$smoke_out" | grep -q "0 retries, 0 stale reads" || { echo "smoke not clean"; exit 1; }

echo "==> service recovery gate (4-rank socket daemons, rank 3 killed mid-stream, fence + replay gates)"
# The kill-mid-run survival story over real OS processes: rank 3's
# transport goes dark at a scripted frame index while six full-mesh
# jobs stream through the service. Every survivor's detector must
# confirm the death, the gateway must fence the victim and requeue the
# jobs caught on the broken mesh, the replays must match their per-job
# reference energies to 1e-12 with zero stale reads, and the survivors
# must suppress the poisoned runs — each a gate inside the binary that
# precedes `RECOVERY OK`, whose line also carries the detect/recover
# timeline. The printed --kill-at/--seed pair replays a red run exactly.
rec_out=$(cargo run -q --release -p bench-harness --bin mesh_gate -- recovery)
echo "$rec_out"
echo "$rec_out" | grep -q "RECOVERY OK" || { echo "service recovery gate failed"; exit 1; }

echo "==> paper figures (fig9, fig10_13, ablations regenerated at paper scale, diffed against results/)"
# `results/<figure>.txt` is exactly `paper <figure>`'s stdout and the
# simulator is bit-deterministic, so any drift in a number or a
# `claim: … — holds | diverges` verdict shows as a diff. These three run
# the 32-node paper-scale workload (20-50 s each in release), too slow for
# the debug `cargo test`; graph_shapes and multikernel are diffed there,
# in tests/cli.rs. Output goes to the pipe only, never into the tree.
for figure in fig9 fig10_13 ablations; do
    target/release/parsec-ccsd-repro paper "$figure" | diff - "results/$figure.txt" \
        || { echo "results/$figure.txt differs from a regeneration"; exit 1; }
done

echo "==> tree unchanged"
tree_after=$(git status --porcelain 2>/dev/null || echo "not a git checkout")
if [ "$tree_before" != "$tree_after" ]; then
    echo "CI wrote into the tree; git status --porcelain before:"
    echo "$tree_before"
    echo "and after:"
    echo "$tree_after"
    exit 1
fi

echo "CI OK"
