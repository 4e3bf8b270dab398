//! Scalar "correlation energy" surrogate.
//!
//! The paper validates its variants by the correlation energy: "the final
//! result (correlation energy) computed by the different variations
//! matched up to the 14th digit". The physical energy contracts the
//! residual with amplitudes and denominators; for agreement checking, any
//! fixed linear functional of the output tensor has the same
//! discriminating power. We use a deterministic pseudo-random weight
//! vector so that every element of every block contributes.
//!
//! # One kernel, any partition
//!
//! The energy is an owner-computes reduction: [`partial`] dots one offset
//! range of `i2` against the weights and returns the sum as an unevaluated
//! pair `(hi, lo)`; [`fold`] adds such pairs. [`energy`] folds the nodes'
//! owned ranges in node order from whichever rank calls it (remote shards
//! come over the wire); a distributed run instead has every rank compute
//! the partial of the shard it holds and ships only the two words.
//!
//! Both must give the same number, and a plain `e += w * x` loop does
//! not: splitting a 212 k-term random-sign sum at a different place
//! re-associates it, which moves the result by about `1e-16 · Σ|w·x|`.
//! The benchmark admits problems down to `|E| = 3e-4 · Σ|w·x|`, where
//! that is `3e-13` of `E` — one third of the 1e-12 agreement gate, so a
//! 3σ draw would fail a correct run. The kernel therefore carries every
//! addition's rounding error along (Knuth's TwoSum; four independent
//! lanes, so the dependent-add chain is no longer than the plain loop's):
//! a pair is off from the exact sum of its rounded products by about
//! `n · 2^-106 · Σ|w·x|`, some `1e-10` ulp of `E` at that conditioning,
//! and adding pairs keeps that order. Every partition of the array thus
//! holds the same value to far below half an ulp before the one final
//! rounding, and two partitions' energies differ by at most the ulp or
//! two that rounding can straddle — the P-rank and the 1-rank answers
//! agree to ≤ 2 ulp, not to 3e-13.

use crate::reference::Workspace;
use crate::util::block_element_2p53;
use global_arrays::HashIndex;
use std::ops::Range;

/// Seed of the weight functional.
pub const W_SEED: u64 = 0xE4E26;

/// Independent accumulator lanes of the kernel.
const LANES: usize = 4;

/// Elements the kernel copies out of the array at a time (4 KiB: stays
/// in L1 beside everything else the loop touches).
const TILE: usize = 512;

/// `a + b` as `(rounded sum, rounding error)`, exactly (Knuth's TwoSum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// Sum of two pairs, renormalized so `hi` is the rounded value.
fn add((ahi, alo): (f64, f64), (bhi, blo): (f64, f64)) -> (f64, f64) {
    let (s, e) = two_sum(ahi, bhi);
    two_sum(s, e + alo + blo)
}

/// The summation kernel: `sum w(key, e) * data[..]` over the part of each
/// block of `index` that lies in the offset range `range`, which `data`
/// holds (`data[0]` is the element at `range.start`). Blocks straddling
/// an end of the range contribute only their elements inside it.
fn dot(index: &HashIndex, range: Range<usize>, data: &[f64]) -> (f64, f64) {
    assert_eq!(data.len(), range.len());
    let (mut sum, mut err) = ([0.0; LANES], [0.0; LANES]);
    let mut tile = [0.0; TILE];
    for (key, offset, size) in index.blocks_in(range.clone()) {
        let (lo, hi) = (offset.max(range.start), (offset + size).min(range.end));
        let mut elem = lo - offset;
        for chunk in data[lo - range.start..hi - range.start].chunks(TILE) {
            // Copy a tile out first. Right after a run the shard's lines
            // are cold or sit in another core's cache, and the sum loop
            // alone keeps too few loads in flight to hide that; a copy
            // streams them. Zero padding to whole groups adds nothing to
            // any lane and gives the loop below a constant trip count.
            let padded = chunk.len().next_multiple_of(LANES);
            tile[..chunk.len()].copy_from_slice(chunk);
            tile[chunk.len()..padded].fill(0.0);
            for group in tile[..padded].chunks_exact(LANES) {
                for lane in 0..LANES {
                    let term = block_element_2p53(W_SEED, key, elem + lane) * group[lane];
                    let (s, e) = two_sum(sum[lane], term);
                    sum[lane] = s;
                    err[lane] += e;
                }
                elem += LANES;
            }
        }
    }
    let (hi, lo) = (0..LANES).fold((0.0, 0.0), |acc, l| add(acc, (sum[l], err[l])));
    // The weights went in as integers; scaling by 2^-53 is exact.
    let down = 1.0 / (1u64 << 53) as f64;
    (hi * down, lo * down)
}

/// The weighted sum of the elements of `i2` in the offset range `range`,
/// as an unevaluated pair `(hi, lo)` whose sum is the value. Pieces a
/// resident shard holds are read in place ([`global_arrays::Ga::access`]);
/// pieces owned by another rank are fetched, one get per owner. Callable
/// from any rank alone.
pub fn partial(ws: &Workspace, range: Range<usize>) -> (f64, f64) {
    let index = &ws.i2_layout.index;
    let pieces = ws.ga.owners_of(ws.i2, range.start, range.len());
    pieces.into_iter().fold((0.0, 0.0), |acc, (node, piece)| {
        let in_place = ws.ga.access(ws.i2, node, |owned, shard| {
            let at = piece.start - owned.start;
            dot(index, piece.clone(), &shard[at..at + piece.len()])
        });
        let part = in_place.unwrap_or_else(|| {
            let fetched = ws.ga.get(ws.i2, piece.start, piece.len());
            dot(index, piece, &fetched)
        });
        add(acc, part)
    })
}

/// The energy of the `(hi, lo)` partials of a partition of `i2`, added
/// in the order given. The order is part of a run's bit pattern (not of
/// its accuracy): gangs add in node order.
pub fn fold(parts: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    parts.into_iter().fold((0.0, 0.0), add).0
}

/// `E = sum_blocks sum_e w(key, e) * i2[block][e]`: the nodes' owned
/// ranges, folded in node order. One-sided — any rank may call it alone.
pub fn energy(ws: &Workspace) -> f64 {
    fold((0..ws.ga.nnodes()).map(|node| partial(ws, ws.ga.distribution(ws.i2, node))))
}

/// Energy computed from a raw snapshot of the output array (when the
/// caller already holds one).
pub fn energy_of_snapshot(ws: &Workspace, snapshot: &[f64]) -> f64 {
    dot(&ws.i2_layout.index, 0..ws.i2_layout.len(), snapshot).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{build_workspace, run_reference};
    use crate::scale;
    use crate::space::TileSpace;
    use crate::util::block_element;
    use proptest::prelude::*;

    #[test]
    fn energy_is_nonzero_and_reproducible() {
        let s = TileSpace::build(&scale::tiny());
        let ws = build_workspace(&s, 2);
        run_reference(&ws);
        let e1 = energy(&ws);
        let e2 = energy(&ws);
        assert_eq!(e1, e2);
        assert!(e1.abs() > 1e-12, "energy {e1}");
        // Snapshot route agrees.
        let snap = ws.output();
        assert!((energy_of_snapshot(&ws, &snap) - e1).abs() < 1e-12);
    }

    #[test]
    fn energy_detects_perturbation() {
        let s = TileSpace::build(&scale::tiny());
        let ws = build_workspace(&s, 2);
        run_reference(&ws);
        let e1 = energy(&ws);
        // Perturb one element.
        ws.ga.acc(ws.i2, 3, &[1e-3], 1.0);
        let e2 = energy(&ws);
        assert!(
            (e1 - e2).abs() > 1e-7,
            "functional must see single-element changes"
        );
    }

    /// How many representable values apart two same-sign energies are.
    fn ulps(a: f64, b: f64) -> u64 {
        assert!(a.is_finite() && b.is_finite() && a.signum() == b.signum());
        a.to_bits().abs_diff(b.to_bits())
    }

    /// A fixed content for `i2`: pseudo-random elements of mixed sign and
    /// magnitudes spread over 2^8, so partial sums cancel and
    /// re-association is visible.
    fn content(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let x = block_element(0xC0FFEE, 7, i);
                let scale = block_element(0x5CA1E, 9, i) + 0.5;
                x * (scale * 8.0).exp2()
            })
            .collect()
    }

    /// The tiny workspace over `nodes` local nodes with `i2 = data`.
    fn workspace_with(nodes: usize, data: &[f64]) -> Workspace {
        let ws = build_workspace(&TileSpace::build(&scale::tiny()), nodes);
        ws.ga.put(ws.i2, 0, data);
        ws
    }

    fn i2_len() -> usize {
        build_workspace(&TileSpace::build(&scale::tiny()), 1)
            .i2_layout
            .len()
    }

    /// The uncompensated loop the kernel replaced, over the same
    /// partition `energy` folds: the negative control.
    fn plain_energy(ws: &Workspace, data: &[f64]) -> f64 {
        let mut e = 0.0;
        for node in 0..ws.ga.nnodes() {
            let r = ws.ga.distribution(ws.i2, node);
            let mut part = 0.0;
            for (key, offset, size) in ws.i2_layout.index.blocks_in(r.clone()) {
                let (lo, hi) = (offset.max(r.start), (offset + size).min(r.end));
                for (i, x) in data[lo..hi].iter().enumerate() {
                    part += block_element(W_SEED, key, lo - offset + i) * x;
                }
            }
            e += part;
        }
        e
    }

    const SPLITS: [usize; 5] = [1, 2, 3, 5, 7];

    #[test]
    fn energy_is_the_same_over_every_node_count() {
        let data = content(i2_len());
        let one = workspace_with(1, &data);
        let e1 = energy(&one);
        assert!(ulps(e1, energy_of_snapshot(&one, &data)) <= 2);
        let mut straddled = 0;
        for nodes in SPLITS {
            let ws = workspace_with(nodes, &data);
            let e = energy(&ws);
            assert!(ulps(e, e1) <= 2, "{nodes} nodes: {e:e} vs {e1:e}");
            assert_eq!(e, energy(&ws), "{nodes} nodes: not reproducible");
            // The splits are by length, not by block: some cut a block.
            straddled += (1..nodes)
                .map(|n| ws.ga.distribution(ws.i2, n).start)
                .filter(|&cut| ws.i2_layout.index.iter().all(|(_, o, _)| o != cut))
                .count();
        }
        assert!(straddled > 0, "no split cut through a block");
    }

    #[test]
    fn compensation_is_what_keeps_ill_conditioned_sums_partition_independent() {
        // Cancel all but 1e-8 of sum |w x| through one well-weighted
        // element: far worse conditioned than any admitted CCSD output.
        let mut data = content(i2_len());
        let index = workspace_with(1, &data).i2_layout.index;
        let terms = |data: &[f64]| -> Vec<f64> {
            (index.iter())
                .flat_map(|(key, o, size)| (0..size).map(move |i| (key, o, i)))
                .map(|(key, o, i)| block_element(W_SEED, key, i) * data[o + i])
                .collect()
        };
        let weight = |data: &[f64]| terms(data).iter().map(|t| t.abs()).sum::<f64>();
        let (key, offset, size) = index.iter().next().unwrap();
        let heavy = (0..size)
            .find(|&i| block_element(W_SEED, key, i).abs() > 0.25)
            .unwrap();
        let (hi, lo) = dot(&index, 0..data.len(), &data);
        data[offset + heavy] -=
            (hi + lo - 1e-8 * weight(&data)) / block_element(W_SEED, key, heavy);

        let one = workspace_with(1, &data);
        let (e1, plain1) = (energy(&one), plain_energy(&one, &data));
        let conditioning = weight(&data) / e1.abs();
        assert!(conditioning >= 1e5, "conditioning {conditioning:e}");
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        let mut plain_worst = 0.0f64;
        for nodes in SPLITS {
            let ws = workspace_with(nodes, &data);
            let e = energy(&ws);
            assert!(rel(e, e1) <= 1e-12, "{nodes} nodes: {e:e} vs {e1:e}");
            plain_worst = plain_worst.max(rel(plain_energy(&ws, &data), plain1));
        }
        assert!(
            plain_worst > 1e-12,
            "plain per-range sums agreed to {plain_worst:e}: the control shows nothing"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any partition of `0..len` into ranges folds to the same value.
        #[test]
        fn any_partition_folds_to_the_same_energy(
            cuts in proptest::collection::vec(0.0..1.0f64, 0..12),
        ) {
            let data = content(i2_len());
            let ws = workspace_with(3, &data);
            let len = data.len();
            let mut cuts: Vec<usize> = cuts.iter().map(|c| (c * len as f64) as usize).collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let parts = cuts.windows(2).map(|w| partial(&ws, w[0]..w[1]));
            let e = fold(parts);
            prop_assert!(ulps(e, energy(&ws)) <= 2, "cuts {:?}: {:e}", cuts, e);
        }
    }
}
