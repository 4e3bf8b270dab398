//! `TCE_SORT_4`: 4-index permutation remap with scale factor.
//!
//! In the original code, after the last GEMM of a chain, up to four guarded
//! `SORT_4` calls remap the chain's output tile `C` into the Global Array's
//! index order (with a permutational-symmetry sign factor) before
//! `ADD_HASH_BLOCK` accumulates it. The paper is explicit that this is a
//! data *remapping*, not a sort.

/// A permutation of the four tensor indices, as in the Fortran call
/// `tce_sort_4(un, srt, d1, d2, d3, d4, p1, p2, p3, p4, factor)`:
/// output index `o` at position `q` equals input index at position
/// `perm[q]`.
pub type Perm4 = [usize; 4];

/// Validate that `p` is a permutation of `{0,1,2,3}`.
pub fn is_perm(p: &Perm4) -> bool {
    let mut seen = [false; 4];
    for &x in p {
        if x >= 4 || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

/// Invert a permutation: `invert_perm(p)[p[i]] == i`.
pub fn invert_perm(p: &Perm4) -> Perm4 {
    assert!(is_perm(p), "not a permutation: {p:?}");
    let mut inv = [0; 4];
    for i in 0..4 {
        inv[p[i]] = i;
    }
    inv
}

/// Edge length of one cache tile of the blocked remap: a 32x32 tile of
/// doubles is 8 KiB, so the source and destination tiles together sit in
/// L1 while every touched cache line is fully consumed.
const SORT_TILE: usize = 32;

/// Tiles smaller than this take the linear walk — the whole remap fits
/// in L1 and the blocked loop structure is pure overhead.
const SORT_TILED_MIN: usize = 4096;

/// Whether [`sort_4`] would take the cache-line-per-element strided walk
/// for this remap (the `SORT_STRIDE_FACTOR` cost-model case), as opposed
/// to the blocked path with contiguous writes or the contiguous
/// `perm[0] == 0` walk.
pub fn sort_4_strided(dims: [usize; 4], perm: Perm4) -> bool {
    perm[0] != 0 && dims.iter().product::<usize>() < SORT_TILED_MIN
}

/// Debug-mode guard against aliasing `src`/`dst`: the remap is a full
/// overwrite of `dst` in permuted order and is never correct in place.
fn assert_no_alias(src: &[f64], dst: &[f64]) {
    if cfg!(debug_assertions) && !src.is_empty() && !dst.is_empty() {
        let (s0, s1) = (src.as_ptr() as usize, src.as_ptr() as usize + src.len() * 8);
        let (d0, d1) = (dst.as_ptr() as usize, dst.as_ptr() as usize + dst.len() * 8);
        assert!(s1 <= d0 || d1 <= s0, "sort_4 src/dst alias");
    }
}

/// Remap `src` (a dense column-major 4-index tile of shape `dims`) into a
/// freshly defined layout where the output's `q`-th index is the input's
/// `perm[q]`-th index, scaling by `factor`. `dst` must have the same total
/// length and is fully overwritten.
///
/// Column-major: input element `(i0,i1,i2,i3)` lives at
/// `i0 + d0*(i1 + d1*(i2 + d2*i3))`.
///
/// Large tiles whose fastest output index is not the fastest input index
/// take a cache-tiled path so writes stay contiguous
/// within blocks instead of striding a cache line per element.
pub fn sort_4(src: &[f64], dst: &mut [f64], dims: [usize; 4], perm: Perm4, factor: f64) {
    assert!(is_perm(&perm), "not a permutation: {perm:?}");
    let total = dims.iter().product::<usize>();
    assert_eq!(src.len(), total, "src size mismatch");
    assert_eq!(dst.len(), total, "dst size mismatch");
    assert_no_alias(src, dst);
    if perm[0] != 0 && total >= SORT_TILED_MIN {
        sort_4_blocked(src, dst, dims, perm, factor);
    } else {
        sort_4_linear(src, dst, dims, perm, factor);
    }
}

/// Output strides indexed by *input* axis: walking input axis `p`
/// advances the output offset by `step[p]`.
fn out_steps(dims: [usize; 4], perm: Perm4) -> [usize; 4] {
    let odims = [dims[perm[0]], dims[perm[1]], dims[perm[2]], dims[perm[3]]];
    let ostride = [
        1,
        odims[0],
        odims[0] * odims[1],
        odims[0] * odims[1] * odims[2],
    ];
    let inv = invert_perm(&perm);
    [
        ostride[inv[0]],
        ostride[inv[1]],
        ostride[inv[2]],
        ostride[inv[3]],
    ]
}

/// Linear walk: stream the input once; the output is written with stride
/// `step[0]` in the inner loop. Optimal when `perm[0] == 0` (both sides
/// contiguous) or when everything fits in L1.
fn sort_4_linear(src: &[f64], dst: &mut [f64], dims: [usize; 4], perm: Perm4, factor: f64) {
    let step = out_steps(dims, perm);
    let mut src_it = src.iter();
    for i3 in 0..dims[3] {
        for i2 in 0..dims[2] {
            for i1 in 0..dims[1] {
                let base = i1 * step[1] + i2 * step[2] + i3 * step[3];
                for i0 in 0..dims[0] {
                    dst[base + i0 * step[0]] = factor * src_it.next().unwrap();
                }
            }
        }
    }
}

/// Cache-tiled remap for `perm[0] != 0`: the DESIGN.md stride argument
/// (`SORT_STRIDE_FACTOR`) is that the linear walk's inner loop writes one
/// element per destination cache line. Blocking over input axis 0 (source
/// contiguous) and input axis `perm[0]` (destination contiguous — its
/// output stride is 1 by construction) turns the remap into a blocked
/// 2-D transpose: within one `SORT_TILE x SORT_TILE` tile the inner loop
/// writes `dst` with stride 1, and every source line loaded for the tile
/// is fully consumed before eviction.
fn sort_4_blocked(src: &[f64], dst: &mut [f64], dims: [usize; 4], perm: Perm4, factor: f64) {
    let p0 = perm[0];
    debug_assert_ne!(p0, 0);
    let istride = [1, dims[0], dims[0] * dims[1], dims[0] * dims[1] * dims[2]];
    let step = out_steps(dims, perm);
    debug_assert_eq!(step[p0], 1);
    // The two axes that are neither input-fastest nor output-fastest.
    let rest: Vec<usize> = (1..4).filter(|&q| q != p0).collect();
    let (q1, q2) = (rest[0], rest[1]);
    let sp = istride[p0];
    for iq2 in 0..dims[q2] {
        for iq1 in 0..dims[q1] {
            let sbase = iq1 * istride[q1] + iq2 * istride[q2];
            let dbase = iq1 * step[q1] + iq2 * step[q2];
            for jp in (0..dims[p0]).step_by(SORT_TILE) {
                let jpe = (jp + SORT_TILE).min(dims[p0]);
                for j0 in (0..dims[0]).step_by(SORT_TILE) {
                    let j0e = (j0 + SORT_TILE).min(dims[0]);
                    for i0 in j0..j0e {
                        let s = sbase + i0;
                        let drow = &mut dst[dbase + i0 * step[0] + jp..][..jpe - jp];
                        for (ip, d) in (jp..jpe).zip(drow) {
                            *d = factor * src[s + ip * sp];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sort_4_naive;

    #[test]
    fn identity_is_scaled_copy() {
        let src: Vec<f64> = (0..24).map(|x| x as f64).collect();
        let mut dst = vec![0.0; 24];
        sort_4(&src, &mut dst, [2, 3, 2, 2], [0, 1, 2, 3], 2.0);
        for (i, v) in dst.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f64);
        }
    }

    #[test]
    fn swap_first_two_indices_is_tile_transpose() {
        // dims (2,3,1,1): treat as a 2x3 matrix; perm [1,0,2,3] transposes.
        let src = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // columns (1,2),(3,4),(5,6)
        let mut dst = vec![0.0; 6];
        sort_4(&src, &mut dst, [2, 3, 1, 1], [1, 0, 2, 3], 1.0);
        // Output is 3x2: rows become columns.
        assert_eq!(dst, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn matches_naive_on_all_permutations() {
        let dims = [2, 3, 4, 2];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|x| (x as f64).sin()).collect();
        // All 24 permutations.
        let mut perms = Vec::new();
        for a in 0..4usize {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let p = [a, b, c, d];
                        if is_perm(&p) {
                            perms.push(p);
                        }
                    }
                }
            }
        }
        assert_eq!(perms.len(), 24);
        for p in perms {
            let mut d1 = vec![0.0; n];
            let mut d2 = vec![0.0; n];
            sort_4(&src, &mut d1, dims, p, -0.5);
            sort_4_naive(&src, &mut d2, dims, p, -0.5);
            assert_eq!(d1, d2, "perm {p:?}");
        }
    }

    #[test]
    fn blocked_path_matches_naive_above_threshold() {
        // 17*9*5*11 = 8415 elements > SORT_TILED_MIN, odd dims straddle
        // SORT_TILE edges, and every perm with perm[0] != 0 takes the
        // blocked path through the public dispatcher.
        let dims = [17, 9, 5, 11];
        let n: usize = dims.iter().product();
        assert!(n >= SORT_TILED_MIN);
        let src: Vec<f64> = (0..n).map(|x| (x as f64).sin()).collect();
        for a in 0..4usize {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let p = [a, b, c, d];
                        if !is_perm(&p) {
                            continue;
                        }
                        let mut got = vec![0.0; n];
                        let mut want = vec![0.0; n];
                        sort_4(&src, &mut got, dims, p, -0.5);
                        sort_4_naive(&src, &mut want, dims, p, -0.5);
                        assert_eq!(got, want, "perm {p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn applying_perm_then_inverse_roundtrips() {
        let dims = [3, 2, 4, 2];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|x| x as f64 + 0.25).collect();
        let p: Perm4 = [2, 0, 3, 1];
        let odims = [dims[p[0]], dims[p[1]], dims[p[2]], dims[p[3]]];
        let mut mid = vec![0.0; n];
        let mut back = vec![0.0; n];
        sort_4(&src, &mut mid, dims, p, 1.0);
        sort_4(&mid, &mut back, odims, invert_perm(&p), 1.0);
        assert_eq!(src, back);
    }

    #[test]
    fn invert_perm_property() {
        let p: Perm4 = [3, 1, 0, 2];
        let inv = invert_perm(&p);
        for i in 0..4 {
            assert_eq!(inv[p[i]], i);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_permutation() {
        let src = vec![0.0; 16];
        let mut dst = vec![0.0; 16];
        sort_4(&src, &mut dst, [2, 2, 2, 2], [0, 0, 1, 2], 1.0);
    }

    #[test]
    fn strided_predicate_matches_dispatch() {
        // perm[0] == 0 is never strided; large strided perms take the
        // blocked (contiguous-write) path, only small ones stay strided.
        assert!(!sort_4_strided([64, 8, 8, 8], [0, 2, 1, 3]));
        assert!(sort_4_strided([8, 8, 8, 4], [1, 0, 2, 3])); // 2048 < min
        assert!(!sort_4_strided([8, 8, 8, 8], [1, 0, 2, 3])); // 4096 >= min
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "alias")]
    fn rejects_in_place_remap() {
        let mut buf = vec![0.0; 16];
        let p = buf.as_mut_ptr();
        // SAFETY: the overlapping views exist only to exercise the alias
        // guard, which panics before any element is touched.
        let src = unsafe { core::slice::from_raw_parts(p, 16) };
        let dst = unsafe { core::slice::from_raw_parts_mut(p, 16) };
        sort_4(src, dst, [2, 2, 2, 2], [1, 0, 2, 3], 1.0);
    }
}
