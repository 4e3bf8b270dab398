//! Column-major `DGEMM`: `C = alpha * op(A) * op(B) + beta * C`.
//!
//! One entry point, [`dgemm_with`] ([`dgemm`] when the caller keeps no
//! packing scratch), choosing between two engines by problem volume:
//!
//! * the small path ([`dgemm_blocked`]) — direct kernels: the
//!   TCE-generated chains call `dgemm('T', 'N', ...)` (Figure 1's task
//!   body), so the `T x N` case gets a 4x4 register-blocked microkernel
//!   ([`tn_block_4x4`]); the other combinations get layout-friendly loop
//!   orderings. No packing, no cache blocking: fast for tiles that fit in
//!   L1/L2.
//! * the packed engine ([`dgemm_packed`]) — BLIS-style: panels of
//!   `op(A)` and `op(B)` are packed into contiguous scratch
//!   ([`crate::pack`]), normalizing all four transpose combinations, and
//!   a `16 x 12` register microkernel (AVX-512F, else AVX2+FMA, picked at
//!   run time) runs an `MC/KC/NC`-blocked loop nest over them, updating
//!   each tile of C in place. Wins once the operands outgrow cache or the
//!   wide units are worth unlocking.
//!
//! Both are exact against the textbook oracle in the tests.

use crate::cm;
use crate::pack::{self, GemmParams, Kernel, BLOCKS, MR, NR};
use std::cell::RefCell;

thread_local! {
    /// The packing scratch of [`dgemm`] and [`dgemm_packed`]: one pair per
    /// thread, grown to the largest shape it has served and then reused.
    static SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Run `f` on this thread's packing scratch.
fn with_scratch(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>)) {
    SCRATCH.with(|s| {
        let (ap, bp) = &mut *s.borrow_mut();
        f(ap, bp)
    })
}

/// Transposition flag for one GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the stored operand.
    T,
}

impl Trans {
    /// Parse a Fortran character flag (`'N'`/`'T'`, case-insensitive).
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'N' => Some(Trans::N),
            'T' => Some(Trans::T),
            _ => None,
        }
    }
}

/// `C(m x n) = alpha * op(A) * op(B) + beta * C`.
///
/// * `op(A)` is `m x k`: `A` is stored `m x k` when `ta == N`, `k x m`
///   when `ta == T`;
/// * `op(B)` is `k x n`: `B` is stored `k x n` when `tb == N`, `n x k`
///   when `tb == T`.
///
/// All matrices are dense column-major with no leading-dimension padding.
/// Panics if slice lengths do not match the shapes. Packing scratch, when
/// the packed engine runs, is the calling thread's, kept across calls;
/// see [`dgemm_with`] to pass your own.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    with_scratch(|ap, bp| dgemm_with(ta, tb, m, n, k, alpha, a, b, beta, c, ap, bp));
}

/// [`dgemm`] with caller-owned packing scratch: runs the packed engine
/// when the problem is large enough to amortize packing and the SIMD
/// microkernel is available, the small path otherwise.
///
/// `ap`/`bp` are grown to at least [`scratch_lens`] when shorter, and
/// their contents on entry are irrelevant; buffers of that length (e.g.
/// from a tile pool) make the call allocation-free. The small path
/// leaves them untouched.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_with(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    ap: &mut Vec<f64>,
    bp: &mut Vec<f64>,
) {
    if packed_profitable(m, n, k) {
        packed(
            &BLOCKS,
            Kernel::best(),
            ta,
            tb,
            m,
            n,
            k,
            alpha,
            a,
            b,
            beta,
            c,
            ap,
            bp,
        );
    } else {
        dgemm_blocked(ta, tb, m, n, k, alpha, a, b, beta, c);
    }
}

/// Lengths of the packed-A and packed-B scratch [`dgemm_with`] uses for
/// an `m x n x k` product; `(0, 0)` when it takes the small path.
pub fn scratch_lens(m: usize, n: usize, k: usize) -> (usize, usize) {
    if packed_profitable(m, n, k) {
        (BLOCKS.packed_a_len(m, k), BLOCKS.packed_b_len(n, k))
    } else {
        (0, 0)
    }
}

/// Volume threshold above which the packed engine is dispatched: below
/// this the tile fits comfortably in cache and packing is pure overhead.
const PACKED_MIN_VOLUME: usize = 16 * 1024;

fn packed_profitable(m: usize, n: usize, k: usize) -> bool {
    m * n * k >= PACKED_MIN_VOLUME && pack::simd_available()
}

/// `C *= beta`, with `beta == 0` overwriting (NaN in `C` does not
/// survive) and `beta == 1` a no-op.
fn scale(c: &mut [f64], beta: f64) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// The small path: the direct (non-packing) kernels; see the module
/// docs.
#[allow(clippy::too_many_arguments)]
fn dgemm_blocked(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "A has wrong size");
    assert_eq!(b.len(), k * n, "B has wrong size");
    assert_eq!(c.len(), m * n, "C has wrong size");

    scale(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }

    match (ta, tb) {
        // Hot path: C[i,j] += alpha * sum_l A[l,i] * B[l,j].
        // Columns of A and B are contiguous: 4x4 register-blocked dot
        // products in the interior, scalar dots on the edges.
        (Trans::T, Trans::N) => {
            let (mb, nb) = (m - m % 4, n - n % 4);
            for j in (0..nb).step_by(4) {
                for i in (0..mb).step_by(4) {
                    tn_block_4x4(k, alpha, a, b, c, i, j, m);
                }
            }
            // Edges: rows mb..m under the blocked columns, then columns
            // nb..n in full.
            for j in 0..n {
                let bj = &b[j * k..(j + 1) * k];
                let i_start = if j < nb { mb } else { 0 };
                for i in i_start..m {
                    let ai = &a[i * k..(i + 1) * k];
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += ai[l] * bj[l];
                    }
                    c[cm(i, j, m)] += alpha * acc;
                }
            }
        }
        // C[i,j] += alpha * sum_l A[i,l] * B[l,j]; iterate l outer so the
        // A column and C column are streamed contiguously.
        (Trans::N, Trans::N) => {
            for j in 0..n {
                let cj = &mut c[j * m..(j + 1) * m];
                for l in 0..k {
                    let blj = alpha * b[cm(l, j, k)];
                    if blj == 0.0 {
                        continue;
                    }
                    let al = &a[l * m..(l + 1) * m];
                    for i in 0..m {
                        cj[i] += al[i] * blj;
                    }
                }
            }
        }
        // C[i,j] += alpha * sum_l A[i,l] * B[j,l].
        (Trans::N, Trans::T) => {
            for l in 0..k {
                let al = &a[l * m..(l + 1) * m];
                for j in 0..n {
                    let bjl = alpha * b[cm(j, l, n)];
                    if bjl == 0.0 {
                        continue;
                    }
                    let cj = &mut c[j * m..(j + 1) * m];
                    for i in 0..m {
                        cj[i] += al[i] * bjl;
                    }
                }
            }
        }
        // C[i,j] += alpha * sum_l A[l,i] * B[j,l].
        (Trans::T, Trans::T) => {
            for j in 0..n {
                for i in 0..m {
                    let ai = &a[i * k..(i + 1) * k];
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += ai[l] * b[cm(j, l, n)];
                    }
                    c[cm(i, j, m)] += alpha * acc;
                }
            }
        }
    }
}

/// `T x N` microkernel: `C[i..i+4, j..j+4] += alpha * A[:, i..i+4]^T *
/// B[:, j..j+4]` with sixteen register accumulators and the k-loop
/// unrolled by four.
///
/// A plain dot product is one serial floating-point add chain — every
/// `acc +=` waits on the previous one, so the FPU runs at the add
/// *latency* instead of its throughput. Sixteen independent accumulators
/// give the out-of-order core sixteen chains to overlap, and each loaded
/// `A`/`B` element is reused four times (2 flops per load instead of
/// one flop per load). Column-major friendly: all eight streamed columns
/// are contiguous.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tn_block_4x4(
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    i: usize,
    j: usize,
    m: usize,
) {
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    let b0 = &b[j * k..(j + 1) * k];
    let b1 = &b[(j + 1) * k..(j + 2) * k];
    let b2 = &b[(j + 2) * k..(j + 3) * k];
    let b3 = &b[(j + 3) * k..(j + 4) * k];

    // acc[jj][ii] accumulates C[i+ii, j+jj].
    let mut acc = [[0.0f64; 4]; 4];
    macro_rules! step {
        ($l:expr) => {{
            let l = $l;
            let av = [a0[l], a1[l], a2[l], a3[l]];
            let bv = [b0[l], b1[l], b2[l], b3[l]];
            for (accj, &bj) in acc.iter_mut().zip(&bv) {
                for (accij, &ai) in accj.iter_mut().zip(&av) {
                    *accij += ai * bj;
                }
            }
        }};
    }
    let ku = k - k % 4;
    for l in (0..ku).step_by(4) {
        step!(l);
        step!(l + 1);
        step!(l + 2);
        step!(l + 3);
    }
    for l in ku..k {
        step!(l);
    }

    for (jj, accj) in acc.iter().enumerate() {
        for (ii, &accij) in accj.iter().enumerate() {
            c[cm(i + ii, j + jj, m)] += alpha * accij;
        }
    }
}

/// The packed cache-blocked engine alone, whatever the problem size, on
/// the calling thread's packing scratch (as [`dgemm`]).
#[allow(clippy::too_many_arguments)]
pub fn dgemm_packed(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    with_scratch(|ap, bp| {
        let kernel = Kernel::best();
        packed(
            &BLOCKS, kernel, ta, tb, m, n, k, alpha, a, b, beta, c, ap, bp,
        )
    });
}

/// Packed cache-blocked GEMM: BLIS loop nest over `params` blocks, each
/// `MR x NR` tile of C computed and updated by `kernel`, with the scratch
/// contract of [`dgemm_with`] (sized by `params`).
#[allow(clippy::too_many_arguments)]
fn packed(
    params: &GemmParams,
    kernel: Kernel,
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    ap: &mut Vec<f64>,
    bp: &mut Vec<f64>,
) {
    assert_eq!(a.len(), m * k, "A has wrong size");
    assert_eq!(b.len(), k * n, "B has wrong size");
    assert_eq!(c.len(), m * n, "C has wrong size");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        scale(c, beta);
        return;
    }

    let a_len = params.packed_a_len(m, k);
    let b_len = params.packed_b_len(n, k);
    if ap.len() < a_len {
        ap.resize(a_len, 0.0);
    }
    if bp.len() < b_len {
        bp.resize(b_len, 0.0);
    }

    for jc in (0..n).step_by(params.nc) {
        let ncc = params.nc.min(n - jc);
        for pc in (0..k).step_by(params.kc) {
            let kcc = params.kc.min(k - pc);
            // `beta` is folded into each C element's first visit (its
            // pc == 0 one) instead of a separate pre-scaling pass; later
            // kc blocks accumulate.
            let beta = if pc == 0 { beta } else { 1.0 };
            pack::pack_b(tb, b, k, n, pc, kcc, jc, ncc, bp);
            for ic in (0..m).step_by(params.mc) {
                let mcc = params.mc.min(m - ic);
                pack::pack_a(ta, a, m, k, ic, mcc, pc, kcc, ap);
                for jr in 0..ncc.div_ceil(NR) {
                    let bpanel = &bp[jr * NR * kcc..(jr + 1) * NR * kcc];
                    let nr_eff = NR.min(ncc - jr * NR);
                    for ir in 0..mcc.div_ceil(MR) {
                        let apanel = &ap[ir * MR * kcc..(ir + 1) * MR * kcc];
                        let mr_eff = MR.min(mcc - ir * MR);
                        // The tile's rows/columns past the block edge
                        // are zero-padded products the kernel never
                        // stores.
                        let c0 = (jc + jr * NR) * m + ic + ir * MR;
                        kernel.run(
                            kcc,
                            apanel,
                            bpanel,
                            &mut c[c0..],
                            m,
                            mr_eff,
                            nr_eff,
                            alpha,
                            beta,
                        );
                    }
                }
            }
        }
    }
}

/// Floating-point operation count of one GEMM (the usual `2*m*n*k`).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::dgemm_naive;
    use proptest::prelude::*;

    #[test]
    fn scratch_is_reused_across_same_shape_calls() {
        // Where this thread's scratch lives and how much it holds.
        let scratch = || {
            SCRATCH.with(|s| {
                let (ap, bp) = &*s.borrow();
                (ap.as_ptr(), ap.capacity(), bp.as_ptr(), bp.capacity())
            })
        };
        let (m, n, k) = (40, 36, 50);
        let (a, b) = (gen(m * k, 1, 2), gen(k * n, 3, 4));
        let mut want = vec![0.0; m * n];
        dgemm_naive(Trans::N, Trans::T, m, n, k, 1.0, &a, &b, 0.0, &mut want);
        let mut c = vec![0.0; m * n];
        dgemm_packed(Trans::N, Trans::T, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        let first = scratch();
        assert!(
            first.1 > 0 && first.3 > 0,
            "the packed engine used the scratch"
        );
        for _ in 0..3 {
            dgemm_packed(Trans::N, Trans::T, m, n, k, 1.0, &a, &b, 0.0, &mut c);
            assert_eq!(scratch(), first, "no growth, no reallocation");
            assert!(c.iter().zip(&want).all(|(x, y)| (x - y).abs() < 1e-12));
        }
        // `dgemm` serves the packed path from the same pair.
        let (m, n, k) = (64, 64, 64);
        let (a, b) = (gen(m * k, 5, 6), gen(k * n, 7, 8));
        let mut c = vec![0.0; m * n];
        dgemm(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        let grown = scratch();
        dgemm(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(scratch(), grown);
    }

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i + 1) as f64).collect()
    }

    /// Deterministic pseudo-random operand in [-0.5, 0.5).
    fn gen(len: usize, seed: u64, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    /// Shrunk blocks: every small size straddles some cache-block edge,
    /// and every full block ends in a half-filled micropanel.
    const SMALL_BLOCKS: GemmParams = GemmParams {
        mc: MR + MR / 2,
        kc: 8,
        nc: NR + NR / 2,
    };

    #[test]
    fn identity_times_matrix() {
        // A = I (2x2), B = [[1,3],[2,4]] column-major.
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![0.0; 4];
        dgemm(Trans::N, Trans::N, 2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn known_2x2_product() {
        // A=[[1,3],[2,4]], B=[[5,7],[6,8]] (column-major lists).
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        dgemm(Trans::N, Trans::N, 2, 2, 2, 1.0, &a, &b, 0.0, &mut c);
        // C = [[1*5+3*6, 1*7+3*8],[2*5+4*6, 2*7+4*8]] = [[23,31],[34,46]]
        assert_eq!(c, vec![23.0, 34.0, 31.0, 46.0]);
    }

    #[test]
    fn transpose_flags_agree_with_naive() {
        let (m, n, k) = (3, 4, 5);
        for &ta in &[Trans::N, Trans::T] {
            for &tb in &[Trans::N, Trans::T] {
                let a = seq(m * k);
                let b = seq(k * n);
                let mut c1 = seq(m * n);
                let mut c2 = c1.clone();
                dgemm(ta, tb, m, n, k, 1.5, &a, &b, 0.5, &mut c1);
                dgemm_naive(ta, tb, m, n, k, 1.5, &a, &b, 0.5, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!((x - y).abs() < 1e-9, "{ta:?}{tb:?}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn tn_block_edges_agree_with_naive() {
        // Sizes straddling the 4x4 block: full blocks, row/column edges,
        // and the k-loop remainder (k % 4 in {0,1,2,3}).
        for &(m, n, k) in &[
            (4, 4, 4),
            (5, 4, 8),
            (4, 7, 9),
            (9, 10, 11),
            (13, 5, 6),
            (3, 3, 3),
            (1, 9, 1),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).cos()).collect();
            let c0: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.01 - 0.2).collect();
            let mut c1 = c0.clone();
            let mut c2 = c0;
            dgemm_blocked(Trans::T, Trans::N, m, n, k, 1.25, &a, &b, -0.5, &mut c1);
            dgemm_naive(Trans::T, Trans::N, m, n, k, 1.25, &a, &b, -0.5, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "{m}x{n}x{k}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta == 0 must not propagate garbage from C.
        let a = vec![1.0];
        let b = vec![2.0];
        let mut c = vec![f64::NAN];
        dgemm(Trans::N, Trans::N, 1, 1, 1, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[0], 2.0);
    }

    #[test]
    fn alpha_zero_is_scaling_only() {
        let a = vec![1.0];
        let b = vec![2.0];
        let mut c = vec![3.0];
        dgemm(Trans::N, Trans::N, 1, 1, 1, 0.0, &a, &b, 2.0, &mut c);
        assert_eq!(c[0], 6.0);
    }

    #[test]
    fn degenerate_dims() {
        let mut c: Vec<f64> = vec![];
        dgemm(Trans::T, Trans::N, 0, 0, 3, 1.0, &[], &[], 0.0, &mut c);
        // k == 0: product is zero matrix.
        let mut c2 = vec![7.0; 4];
        dgemm(Trans::N, Trans::N, 2, 2, 0, 1.0, &[], &[], 1.0, &mut c2);
        assert_eq!(c2, vec![7.0; 4]);
    }

    #[test]
    fn packed_agrees_with_naive_all_transposes() {
        // Sizes straddling the MR x NR micropanels and the shrunk block
        // edges; every transpose combination, through every body.
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 8),
            (MR + 1, NR + 1, 9),
            (2 * MR + 1, 2 * NR + 1, 11),
            (3 * MR, 3 * NR, 16),
        ] {
            let a: Vec<f64> = (0..m * k).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..k * n).map(|i| (i as f64 * 0.3).cos()).collect();
            let c0: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.01 - 0.2).collect();
            for kernel in Kernel::available() {
                for &ta in &[Trans::N, Trans::T] {
                    for &tb in &[Trans::N, Trans::T] {
                        let mut c1 = c0.clone();
                        let mut c2 = c0.clone();
                        let (mut ap, mut bp) = (Vec::new(), Vec::new());
                        packed(
                            &SMALL_BLOCKS,
                            kernel,
                            ta,
                            tb,
                            m,
                            n,
                            k,
                            1.25,
                            &a,
                            &b,
                            -0.5,
                            &mut c1,
                            &mut ap,
                            &mut bp,
                        );
                        dgemm_naive(ta, tb, m, n, k, 1.25, &a, &b, -0.5, &mut c2);
                        for (x, y) in c1.iter().zip(&c2) {
                            assert!(
                                (x - y).abs() < 1e-12,
                                "{kernel:?} {ta:?}{tb:?} {m}x{n}x{k}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_default_params_and_degenerate_dims() {
        // Default blocks far larger than the matrix: single-block path.
        let (m, n, k) = (5, 4, 3);
        let a: Vec<f64> = (0..m * k).map(|i| i as f64 + 0.5).collect();
        let b: Vec<f64> = (0..k * n).map(|i| 2.0 - i as f64 * 0.25).collect();
        let mut c1 = vec![1.0; m * n];
        let mut c2 = vec![1.0; m * n];
        dgemm_packed(Trans::T, Trans::N, m, n, k, 2.0, &a, &b, 1.0, &mut c1);
        dgemm_naive(Trans::T, Trans::N, m, n, k, 2.0, &a, &b, 1.0, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-12);
        }
        // k == 0 leaves only the beta scaling.
        let mut c3 = vec![3.0; 4];
        dgemm_packed(Trans::N, Trans::N, 2, 2, 0, 1.0, &[], &[], 0.5, &mut c3);
        assert_eq!(c3, vec![1.5; 4]);
        // Empty output.
        let mut c4: Vec<f64> = vec![];
        dgemm_packed(Trans::N, Trans::T, 0, 0, 2, 1.0, &[], &[], 0.0, &mut c4);
    }

    #[test]
    fn packed_scratch_is_reused_without_realloc() {
        let (m, n, k) = (40, 40, 40);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        let mut ap = vec![0.0; BLOCKS.packed_a_len(m, k)];
        let mut bp = vec![0.0; BLOCKS.packed_b_len(n, k)];
        let (pa, pb) = (ap.as_ptr(), bp.as_ptr());
        packed(
            &BLOCKS,
            Kernel::best(),
            Trans::T,
            Trans::N,
            m,
            n,
            k,
            1.0,
            &a,
            &b,
            0.0,
            &mut c,
            &mut ap,
            &mut bp,
        );
        assert_eq!(ap.as_ptr(), pa, "A scratch reallocated");
        assert_eq!(bp.as_ptr(), pb, "B scratch reallocated");
        // The entry point sizes its scratch the same way whenever it
        // packs, and asks for none when it does not.
        if pack::simd_available() {
            assert_eq!(scratch_lens(m, n, k), (ap.len(), bp.len()));
        }
        assert_eq!(scratch_lens(4, 4, 4), (0, 0));
    }

    #[test]
    fn dispatcher_threshold_routes_consistently() {
        // Just below / above the volume threshold both match naive.
        for &(m, n, k) in &[(16, 16, 16), (32, 32, 32)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c1 = vec![0.5; m * n];
            let mut c2 = vec![0.5; m * n];
            dgemm(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 1.0, &mut c1);
            dgemm_naive(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 1.0, &mut c2);
            for (x, y) in c1.iter().zip(&c2) {
                let scale = y.abs().max(1.0);
                assert!((x - y).abs() / scale < 1e-12, "{m}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn trans_from_char() {
        assert_eq!(Trans::from_char('t'), Some(Trans::T));
        assert_eq!(Trans::from_char('N'), Some(Trans::N));
        assert_eq!(Trans::from_char('x'), None);
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(10, 20, 30), 12_000);
    }

    proptest! {
        /// The packed engine agrees with the naive oracle to 1e-12 for all
        /// four transpose combinations, degenerate alpha/beta, and odd and
        /// prime sizes, through every body this CPU runs. The shrunk blocks
        /// put every size in the list on both sides of some cache-block
        /// boundary, and sizes that are not multiples of MR / NR exercise
        /// the zero-padded micropanels and the masked C update. The SIMD
        /// bodies issue the same FMAs per element, so their results agree
        /// bitwise (-0.7 and 1.3 make alpha and beta products round).
        #[test]
        fn packed_block_edges_match_naive(
            mi in 0usize..8,
            ni in 0usize..8,
            ki in 0usize..8,
            alpha in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(2.0), Just(-0.7)],
            beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(2.0), Just(1.3)],
            seed in 0u64..1000,
        ) {
            const ODD: [usize; 8] = [1, 5, 7, 9, 13, 17, 23, 31];
            let (m, n, k) = (ODD[mi], ODD[ni], ODD[ki]);
            let a = gen(m * k, seed, 21);
            let b = gen(k * n, seed, 22);
            let c0 = gen(m * n, seed, 23);
            let mut ap = vec![0.0; SMALL_BLOCKS.packed_a_len(m, k)];
            let mut bp = vec![0.0; SMALL_BLOCKS.packed_b_len(n, k)];
            for ta in [Trans::N, Trans::T] {
                for tb in [Trans::N, Trans::T] {
                    let mut want = c0.clone();
                    dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut want);
                    let mut simd: Option<Vec<f64>> = None;
                    for kernel in Kernel::available() {
                        let mut got = c0.clone();
                        packed(
                            &SMALL_BLOCKS, kernel, ta, tb, m, n, k, alpha, &a, &b, beta, &mut got,
                            &mut ap, &mut bp,
                        );
                        for (x, y) in got.iter().zip(&want) {
                            prop_assert!(
                                (x - y).abs() < 1e-12,
                                "{kernel:?} {ta:?}{tb:?} {m}x{n}x{k} a={alpha} b={beta}: {x} vs {y}"
                            );
                        }
                        if kernel == Kernel::Scalar {
                            continue;
                        }
                        match &simd {
                            None => simd = Some(got),
                            Some(first) => prop_assert!(
                                first.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits()),
                                "SIMD bodies differ: {kernel:?} {ta:?}{tb:?} {m}x{n}x{k}"
                            ),
                        }
                    }
                }
            }
        }

        /// The entry point agrees with the oracle on both sides of
        /// `PACKED_MIN_VOLUME`: for a random `m x n` face, the largest
        /// depth below the threshold and the smallest at or above it, in
        /// all four transpose combinations, through pooled-style scratch.
        #[test]
        fn dgemm_matches_naive_across_the_packing_threshold(
            m in 8usize..48,
            n in 8usize..48,
            alpha in prop_oneof![Just(1.0f64), Just(-0.5)],
            beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-1.5)],
            seed in 0u64..1000,
        ) {
            let k_below = (PACKED_MIN_VOLUME - 1) / (m * n);
            for k in [k_below, k_below + 1] {
                prop_assert_eq!(m * n * k < PACKED_MIN_VOLUME, k == k_below);
                let a = gen(m * k, seed, 31);
                let b = gen(k * n, seed, 32);
                let c0 = gen(m * n, seed, 33);
                for ta in [Trans::N, Trans::T] {
                    for tb in [Trans::N, Trans::T] {
                        let (la, lb) = scratch_lens(m, n, k);
                        let (mut ap, mut bp) = (vec![0.0; la], vec![0.0; lb]);
                        let mut c1 = c0.clone();
                        let mut c2 = c0.clone();
                        dgemm_with(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1, &mut ap, &mut bp);
                        dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
                        prop_assert_eq!((ap.len(), bp.len()), (la, lb), "scratch grew");
                        for (x, y) in c1.iter().zip(&c2) {
                            prop_assert!(
                                (x - y).abs() < 1e-12,
                                "{ta:?}{tb:?} {m}x{n}x{k}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }
}
