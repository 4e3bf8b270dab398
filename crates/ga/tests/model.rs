//! The data layer against a model: random sequences of `create` / `put`
//! / `put_collective` / `acc` / `acc_local` / `get` / `get_shared_async`
//! / `zero` / `freeze` / `snapshot` must read back exactly what the same
//! sequence does to plain `Vec<f64>`s. The sequences run on in-process
//! instances of 1 to 4 logical nodes and on the ranks of 2- and 3-rank
//! socket meshes, so owner splits, held and remote pieces, the tile
//! cache and NXTVAL-free collectives all face the same model.

use global_arrays::{DistStore, Distribution, Ga, GaHandle};
use proptest::prelude::*;
use std::sync::mpsc::channel;
use std::sync::Arc;

/// One drawn operation: `(kind, a, b, c, value)`. The operands are
/// decoded against the arrays that exist when it runs (array `a`,
/// range from `b` and `c`, node `c`), so every sequence is valid.
type RawOp = (u8, usize, usize, usize, i64);

fn ops() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        (0u8..10, 0usize..1000, 0usize..1000, 0usize..1000, -4i64..5),
        1..40,
    )
}

/// The range `[off, off+cnt)` that `b` and `c` select in `len` elements.
fn range(len: usize, b: usize, c: usize) -> (usize, usize) {
    let off = b % len;
    (off, 1 + c % (len - off))
}

/// Run `ops` on `ga` against the model. `writes` says whether this
/// instance issues the one-sided write at step `i` (every rank issues the
/// collectives); a `sync` follows every step, so each write is visible
/// to every rank's next read. Returns the first mismatch.
fn run(ga: &Ga, ops: &[RawOp], writes: impl Fn(usize) -> bool) -> Result<(), String> {
    // The model: each array's handle, contents and frozen flag.
    let mut arrays: Vec<(GaHandle, Vec<f64>, bool)> = Vec::new();
    let mut first_err = None;
    let mut check = |what: &str, i: usize, got: &[f64], want: &[f64]| {
        if got != want && first_err.is_none() {
            first_err = Some(format!(
                "step {i} {what} on {} nodes: got {got:?}, want {want:?}",
                ga.nnodes()
            ));
        }
    };
    for (i, &(kind, a, b, c, v)) in ops.iter().enumerate() {
        if kind == 0 || arrays.is_empty() {
            let len = 1 + b % 24;
            arrays.push((ga.create(len), vec![0.0; len], false));
            ga.sync();
            continue;
        }
        let count = arrays.len();
        let (h, want, frozen) = &mut arrays[a % count];
        let (h, len) = (*h, want.len());
        let (off, cnt) = range(len, b, c);
        let data: Vec<f64> = (0..cnt).map(|k| (v + (k % 3) as i64) as f64).collect();
        let alpha = [1.0, -1.0, 2.0, 0.5][c % 4];
        // A write to a frozen array panics by contract: read it instead.
        let kind = if *frozen && matches!(kind, 1..=4 | 7) {
            5
        } else {
            kind
        };
        match kind {
            1 => {
                if writes(i) {
                    ga.put(h, off, &data);
                }
                want[off..off + cnt].copy_from_slice(&data);
            }
            2 => {
                ga.put_collective(h, off, &data);
                want[off..off + cnt].copy_from_slice(&data);
            }
            3 => {
                if writes(i) {
                    ga.acc(h, off, &data, alpha);
                }
                for (w, x) in want[off..off + cnt].iter_mut().zip(&data) {
                    *w += alpha * x;
                }
            }
            4 => {
                let node = c % ga.nnodes();
                if writes(i) {
                    ga.acc_local(h, node, off, &data, alpha);
                }
                let owned = Distribution::new(len, ga.nnodes()).range_of(node);
                for k in off.max(owned.start)..(off + cnt).min(owned.end) {
                    want[k] += alpha * data[k - off];
                }
            }
            5 => check("get", i, &ga.get(h, off, cnt), &want[off..off + cnt]),
            6 => {
                let (tx, rx) = channel();
                let spare = ga.get_shared_async(
                    h,
                    off,
                    vec![0.0; cnt],
                    0,
                    Box::new(move |block| tx.send(block).unwrap()),
                );
                assert!(spare.is_none_or(|b| b.len() == cnt));
                check(
                    "get_shared_async",
                    i,
                    &rx.recv().unwrap(),
                    &want[off..off + cnt],
                );
            }
            7 => {
                ga.zero(h);
                want.fill(0.0);
            }
            8 => {
                ga.freeze(h);
                *frozen = true;
            }
            _ => check("snapshot", i, &ga.snapshot(h), want),
        }
        ga.sync();
    }
    first_err.map_or(Ok(()), Err)
}

/// Run `ops` on each rank of an `n`-rank socket mesh (threads), one-sided
/// writes issued round-robin by rank; each rank's result, in rank order.
fn run_mesh(n: usize, ops: Vec<RawOp>) -> Vec<Result<(), String>> {
    let ops = Arc::new(ops);
    let handles: Vec<_> = (comm::SocketTransport::mesh(n)
        .unwrap()
        .into_iter()
        .enumerate())
    .map(|(rank, t)| {
        let ops = ops.clone();
        std::thread::spawn(move || {
            let store = DistStore::new(rank, n);
            let ep = comm::Endpoint::spawn(Box::new(t), store.clone(), comm::CommConfig::default());
            let ga = Ga::init_dist(ep.clone(), store);
            let out = run(&ga, &ops, |i| i % n == rank);
            ga.sync();
            ep.shutdown();
            out
        })
    })
    .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_process_instances_match_the_model(ops in ops()) {
        for n in 1..=4 {
            let ga = Ga::init(n);
            let r = run(&ga, &ops, |_| true);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            // No endpoint: every byte is served in place.
            let s = ga.stats();
            prop_assert_eq!(s.remote_bytes(), 0);
            prop_assert_eq!(s.local_bytes(), s.get_bytes() + s.put_bytes() + s.acc_bytes());
            prop_assert_eq!(s.cache_hits() + s.cache_joins() + s.cache_misses(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mesh_ranks_match_the_model(ops in ops()) {
        for n in 2..=3 {
            for (rank, r) in run_mesh(n, ops.clone()).into_iter().enumerate() {
                prop_assert!(r.is_ok(), "rank {rank}: {}", r.unwrap_err());
            }
        }
    }
}
