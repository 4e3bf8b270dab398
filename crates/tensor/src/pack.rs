//! Panel packing and register microkernels for the packed GEMM engine.
//!
//! The BLIS decomposition: the blocked loop nest in [`crate::gemm`] cuts
//! `C = op(A) * op(B)` into `MC x KC` panels of `op(A)` and `KC x NC`
//! panels of `op(B)`, and *packs* each panel into a contiguous scratch
//! buffer before any arithmetic touches it. Packing pays one streamed
//! copy to buy three things at once:
//!
//! * every transpose combination is normalized away — the microkernel
//!   sees one canonical layout regardless of `ta`/`tb`, so there is one
//!   hot loop instead of four;
//! * the microkernel's loads are unit-stride and 64-byte-dense: an
//!   `MR`-row slab of A and an `NR`-column slab of B are interleaved by
//!   `k`-step, so each k-iteration reads exactly `MR + NR` contiguous
//!   doubles;
//! * edge tiles are zero-padded to full `MR x NR` shape inside the pack
//!   buffer, so the k-loop has no bounds logic at all — only the C
//!   update at its end clips to the valid sub-tile.
//!
//! The microkernel accumulates one `MR x NR = 16 x 12` block of outer
//! products in registers, then loads, updates (`alpha`, `beta`) and
//! stores its block of C itself, masking the rows and columns past an
//! edge. The workspace is compiled for baseline x86-64, so the wide
//! units are unlocked by runtime detection ([`Kernel::best`]), one body
//! per instruction set over the same panels:
//!
//! * AVX-512F: 24 `zmm` accumulators (two per column), two A vectors
//!   and a broadcast — 24 FMAs per 14 load-ops per k-step;
//! * AVX2+FMA: four `8 x 6` sub-tiles of 12 `ymm` accumulators each,
//!   the register shape of a 4-lane machine;
//! * elsewhere a scalar body with the same per-element order.
//!
//! The two SIMD bodies issue the same FMA sequence per lane and agree
//! bitwise; the scalar one rounds each product and agrees to ~1e-13.

use crate::gemm::Trans;

/// Microkernel tile height (rows of C per register block: two `zmm`).
pub const MR: usize = 16;
/// Microkernel tile width (columns of C per register block), chosen by
/// a sweep of 8, 12 and 14 (EXPERIMENTS.md, "AVX-512 microkernel").
pub const NR: usize = 12;

/// Cache-blocking parameters of the packed GEMM loop nest. All three are
/// free (the kernels are correct for any values >= 1); production runs
/// [`BLOCKS`], and the tests shrink them so small sizes cross block edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GemmParams {
    /// Rows of `op(A)` per packed panel (L2 blocking).
    pub mc: usize,
    /// Depth of one packed panel pair (L1/L2 blocking).
    pub kc: usize,
    /// Columns of `op(B)` per packed panel (L3/DRAM blocking).
    pub nc: usize,
}

/// The blocks the packed engine runs with. A panel: 128 x 256 doubles =
/// 256 KiB (fits a 1 MiB L2 with room for the B stream); B micropanel:
/// 12 x 256 = 24 KiB (L1).
pub(crate) const BLOCKS: GemmParams = GemmParams {
    mc: 128,
    kc: 256,
    nc: 2048,
};

impl GemmParams {
    /// Length of the packed-A scratch buffer for an `m x k` operand
    /// (largest `MC x KC` block, rows rounded up to full micropanels).
    pub fn packed_a_len(&self, m: usize, k: usize) -> usize {
        let mc = self.mc.min(m.max(1));
        let kc = self.kc.min(k.max(1));
        mc.div_ceil(MR) * MR * kc
    }

    /// Length of the packed-B scratch buffer for a `k x n` operand
    /// (largest `KC x NC` block, columns rounded up to full micropanels).
    pub fn packed_b_len(&self, n: usize, k: usize) -> usize {
        let nc = self.nc.min(n.max(1));
        let kc = self.kc.min(k.max(1));
        nc.div_ceil(NR) * NR * kc
    }
}

/// Pack the `mc x kc` block of `op(A)` starting at `(ic, pc)` into
/// micropanels: panel `ir` holds rows `ir*MR .. ir*MR+MR` of the block,
/// stored k-major (`ap[panel + l*MR + i]`), rows past `mc` zero-padded.
///
/// `op(A)` is `m x k`; storage is `m x k` column-major for `Trans::N`
/// and `k x m` column-major for `Trans::T`.
#[allow(clippy::too_many_arguments)]
pub fn pack_a(
    ta: Trans,
    a: &[f64],
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    ap: &mut [f64],
) {
    debug_assert!(ic + mc <= m && pc + kc <= k);
    let panels = mc.div_ceil(MR);
    debug_assert!(ap.len() >= panels * MR * kc);
    for ir in 0..panels {
        let row0 = ic + ir * MR;
        let rows = MR.min(ic + mc - row0);
        let panel = &mut ap[ir * MR * kc..(ir + 1) * MR * kc];
        match ta {
            // A stored m x k: column pc+l holds rows contiguously.
            Trans::N => {
                for (l, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                    let col = &a[(pc + l) * m + row0..(pc + l) * m + row0 + rows];
                    chunk[..rows].copy_from_slice(col);
                    chunk[rows..].fill(0.0);
                }
            }
            // A stored k x m: row i of op(A) is the contiguous column i
            // of the storage — a transpose into the panel.
            Trans::T => pack_transposed::<MR>(a, k, row0, rows, pc, kc, panel),
        }
    }
}

/// Pack the `kc x nc` block of `op(B)` starting at `(pc, jc)` into
/// micropanels: panel `jr` holds columns `jr*NR .. jr*NR+NR` of the
/// block, stored k-major (`bp[panel + l*NR + j]`), columns past `nc`
/// zero-padded.
///
/// `op(B)` is `k x n`; storage is `k x n` column-major for `Trans::N`
/// and `n x k` column-major for `Trans::T`.
#[allow(clippy::too_many_arguments)]
pub fn pack_b(
    tb: Trans,
    b: &[f64],
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bp: &mut [f64],
) {
    debug_assert!(pc + kc <= k && jc + nc <= n);
    let panels = nc.div_ceil(NR);
    debug_assert!(bp.len() >= panels * NR * kc);
    for jr in 0..panels {
        let col0 = jc + jr * NR;
        let cols = NR.min(jc + nc - col0);
        let panel = &mut bp[jr * NR * kc..(jr + 1) * NR * kc];
        match tb {
            // B stored k x n: column col0+j is contiguous along k — a
            // transpose into the panel.
            Trans::N => pack_transposed::<NR>(b, k, col0, cols, pc, kc, panel),
            // B stored n x k: row pc+l of op(B) holds the NR columns
            // contiguously.
            Trans::T => {
                for (l, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                    let row = &b[(pc + l) * n + col0..(pc + l) * n + col0 + cols];
                    chunk[..cols].copy_from_slice(row);
                    chunk[cols..].fill(0.0);
                }
            }
        }
    }
}

/// The transposing half of packing: `panel[l * W + i] = src[(first + i)
/// * ld + pc + l]` for the `count` source columns `i` (contiguous along
/// `l`) and `l < kc`, zero for `count <= i < W`.
fn pack_transposed<const W: usize>(
    src: &[f64],
    ld: usize,
    first: usize,
    count: usize,
    pc: usize,
    kc: usize,
    panel: &mut [f64],
) {
    assert!(
        (1..=W).contains(&count)
            && (first + count - 1) * ld + pc + kc <= src.len()
            && panel.len() >= kc * W,
        "pack out of bounds"
    );
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // Safety: AVX2 was detected, and the assert bounds the columns.
        unsafe { transpose4_avx2::<W>(src, ld, first, count, pc, kc, panel) };
        done = count - count % 4;
    }
    for i in done..count {
        let col = &src[(first + i) * ld + pc..(first + i) * ld + pc + kc];
        for (l, &v) in col.iter().enumerate() {
            panel[l * W + i] = v;
        }
    }
    for row in panel[..kc * W].chunks_exact_mut(W) {
        row[count..].fill(0.0);
    }
}

/// The columns of [`pack_transposed`] four at a time: four 4-long
/// column pieces loaded, transposed in registers (two unpacks and a
/// lane swap per pair) and stored as four 4-wide panel rows.
///
/// # Safety
/// AVX2 must be present, and the bounds of [`pack_transposed`] hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose4_avx2<const W: usize>(
    src: &[f64],
    ld: usize,
    first: usize,
    count: usize,
    pc: usize,
    kc: usize,
    panel: &mut [f64],
) {
    use core::arch::x86_64::*;
    let kc4 = kc - kc % 4;
    for i0 in (0..count - count % 4).step_by(4) {
        let s = src.as_ptr().add((first + i0) * ld + pc);
        let d = panel.as_mut_ptr().add(i0);
        for l in (0..kc4).step_by(4) {
            let r0 = _mm256_loadu_pd(s.add(l));
            let r1 = _mm256_loadu_pd(s.add(ld + l));
            let r2 = _mm256_loadu_pd(s.add(2 * ld + l));
            let r3 = _mm256_loadu_pd(s.add(3 * ld + l));
            let (lo01, hi01) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
            let (lo23, hi23) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
            _mm256_storeu_pd(d.add(l * W), _mm256_permute2f128_pd(lo01, lo23, 0x20));
            _mm256_storeu_pd(d.add((l + 1) * W), _mm256_permute2f128_pd(hi01, hi23, 0x20));
            _mm256_storeu_pd(d.add((l + 2) * W), _mm256_permute2f128_pd(lo01, lo23, 0x31));
            _mm256_storeu_pd(d.add((l + 3) * W), _mm256_permute2f128_pd(hi01, hi23, 0x31));
        }
        for l in kc4..kc {
            for t in 0..4 {
                *d.add(l * W + t) = *s.add(t * ld + l);
            }
        }
    }
}

/// One microkernel body per instruction set. All three compute the same
/// `MR x NR` tile over the same packed panels and update C themselves;
/// [`Kernel::best`] picks the widest one this CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Kernel {
    /// AVX-512F: the whole tile in 24 `zmm` accumulators.
    Avx512,
    /// AVX2+FMA: the tile as four `8 x 6` sub-tiles of 12 `ymm` each.
    Avx2,
    /// Portable: plain multiply-adds in the same per-element order.
    Scalar,
}

/// The AVX2 body's sub-tile (two `ymm` rows by six broadcast columns).
#[cfg(target_arch = "x86_64")]
const AVX2_MR: usize = 8;
#[cfg(target_arch = "x86_64")]
const AVX2_NR: usize = 6;
#[cfg(target_arch = "x86_64")]
const _: () = assert!(MR == 2 * 8 && MR.is_multiple_of(AVX2_MR) && NR.is_multiple_of(AVX2_NR));

impl Kernel {
    /// The widest body this CPU runs (std caches the feature probe).
    #[cfg(target_arch = "x86_64")]
    pub fn best() -> Kernel {
        use std::arch::is_x86_feature_detected as has;
        if !(has!("avx2") && has!("fma")) {
            Kernel::Scalar
        } else if has!("avx512f") {
            Kernel::Avx512
        } else {
            Kernel::Avx2
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn best() -> Kernel {
        Kernel::Scalar
    }

    /// Every body this CPU runs, widest first (a body runs wherever a
    /// wider one does).
    #[cfg(test)]
    pub fn available() -> Vec<Kernel> {
        [Kernel::Avx512, Kernel::Avx2, Kernel::Scalar]
            .into_iter()
            .filter(|&k| k >= Kernel::best())
            .collect()
    }

    /// One register tile: `C = alpha * Ap_panel * Bp_panel + beta * C`
    /// over depth `kc`, for the top-left `mr x nr` corner of the tile
    /// (`1 <= mr <= MR`, `1 <= nr <= NR`; the rest is zero padding and
    /// is never stored). `c` starts at the tile's first element and has
    /// column stride `ldc`. `beta == 0` overwrites without reading C.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn run(
        self,
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        c: &mut [f64],
        ldc: usize,
        mr: usize,
        nr: usize,
        alpha: f64,
        beta: f64,
    ) {
        assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "short panels");
        assert!(
            (1..=MR).contains(&mr)
                && (1..=NR).contains(&nr)
                && mr <= ldc
                && c.len() >= (nr - 1) * ldc + mr,
            "C tile out of bounds"
        );
        debug_assert!(self >= Kernel::best(), "{self:?} is not available here");
        let (pa, pb, pc) = (ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr());
        match self {
            // Safety: a body runs only where `best` detected it (its
            // callers pass `best()` or one of `available()`), and the
            // asserts above bound every access.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { body_avx512(kc, pa, pb, pc, ldc, mr, nr, alpha, beta) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { body_avx2(kc, pa, pb, pc, ldc, mr, nr, alpha, beta) },
            _ => body_scalar(kc, ap, bp, c, ldc, mr, nr, alpha, beta),
        }
    }
}

/// `true` when the AVX2+FMA instructions (and so a SIMD microkernel) are
/// usable on this machine.
pub fn simd_available() -> bool {
    Kernel::best() != Kernel::Scalar
}

/// Portable body: `NR` accumulator columns of `MR` lanes, each k-step one
/// multiply-add per element in the SIMD bodies' order. The FMA units
/// skip the intermediate product rounding, so the bodies agree to within
/// one rounding step per k-iteration (not bitwise).
#[allow(clippy::too_many_arguments)]
fn body_scalar(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    mr: usize,
    nr: usize,
    alpha: f64,
    beta: f64,
) {
    let mut acc = [[0.0f64; MR]; NR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (accj, &bj) in acc.iter_mut().zip(b) {
            for (accij, &ai) in accj.iter_mut().zip(a) {
                *accij += ai * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate().take(nr) {
        let cj = &mut c[j * ldc..j * ldc + mr];
        for (cij, &t) in cj.iter_mut().zip(accj) {
            *cij = if beta == 0.0 {
                alpha * t
            } else if beta == 1.0 {
                *cij + alpha * t
            } else {
                beta * *cij + alpha * t
            };
        }
    }
}

/// AVX-512F body: 24 `zmm` accumulators (two 8-lane vectors per column
/// of the 16 x 12 tile), two A loads and twelve broadcast-FMA pairs per
/// k-step, three of the 32 registers left for A and the broadcast. C is
/// read and written through row masks, so edge tiles need no scratch.
///
/// # Safety
/// AVX-512F must be present; the panels must hold `kc` k-steps and C
/// the `mr x nr` corner at stride `ldc` (checked in [`Kernel::run`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn body_avx512(
    kc: usize,
    mut pa: *const f64,
    mut pb: *const f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
    alpha: f64,
    beta: f64,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); 2]; NR];
    for _ in 0..kc {
        let a0 = _mm512_loadu_pd(pa);
        let a1 = _mm512_loadu_pd(pa.add(8));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm512_set1_pd(*pb.add(j));
            accj[0] = _mm512_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm512_fmadd_pd(a1, bj, accj[1]);
        }
        pa = pa.add(MR);
        pb = pb.add(NR);
    }
    let mask = |lo: usize| ((1u32 << mr.saturating_sub(lo).min(8)) - 1) as __mmask8;
    let masks = [mask(0), mask(8)];
    let (va, vb) = (_mm512_set1_pd(alpha), _mm512_set1_pd(beta));
    for (j, accj) in acc.iter().enumerate() {
        if j == nr {
            break;
        }
        for (h, (&t, &m)) in accj.iter().zip(&masks).enumerate() {
            // A fully masked half touches no memory; `wrapping_add`
            // keeps its address computation defined too.
            let p = c.wrapping_add(j * ldc + 8 * h);
            let v = if beta == 0.0 {
                _mm512_mul_pd(va, t)
            } else if beta == 1.0 {
                _mm512_fmadd_pd(va, t, _mm512_maskz_loadu_pd(m, p))
            } else {
                _mm512_fmadd_pd(va, t, _mm512_mul_pd(vb, _mm512_maskz_loadu_pd(m, p)))
            };
            _mm512_mask_storeu_pd(p, m, v);
        }
    }
}

/// AVX2+FMA body: the tile as `8 x 6` sub-tiles (12 `ymm` accumulators,
/// two A vectors and one broadcast each: 12 FMAs per 8 load-ops, enough
/// to keep both FMA ports busy), walking the same panels at their
/// `MR`/`NR` strides. Sub-tiles wholly past the edge are skipped.
///
/// # Safety
/// AVX2 and FMA must be present; bounds as for [`body_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn body_avx2(
    kc: usize,
    pa: *const f64,
    pb: *const f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
    alpha: f64,
    beta: f64,
) {
    for c0 in (0..nr).step_by(AVX2_NR) {
        for r0 in (0..mr).step_by(AVX2_MR) {
            subtile_avx2(
                kc,
                pa.add(r0),
                pb.add(c0),
                c.add(c0 * ldc + r0),
                ldc,
                (mr - r0).min(AVX2_MR),
                (nr - c0).min(AVX2_NR),
                alpha,
                beta,
            );
        }
    }
}

/// One `8 x 6` sub-tile of [`body_avx2`]; C through lane masks.
///
/// # Safety
/// As for [`body_avx2`], for the sub-tile's corner.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn subtile_avx2(
    kc: usize,
    mut pa: *const f64,
    mut pb: *const f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
    alpha: f64,
    beta: f64,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; AVX2_NR];
    for _ in 0..kc {
        let a0 = _mm256_loadu_pd(pa);
        let a1 = _mm256_loadu_pd(pa.add(4));
        for (j, accj) in acc.iter_mut().enumerate() {
            let bj = _mm256_broadcast_sd(&*pb.add(j));
            accj[0] = _mm256_fmadd_pd(a0, bj, accj[0]);
            accj[1] = _mm256_fmadd_pd(a1, bj, accj[1]);
        }
        pa = pa.add(MR);
        pb = pb.add(NR);
    }
    // Lane i of half h is live when 4h + i < mr (sign bit set).
    let lanes = _mm256_setr_epi64x(0, 1, 2, 3);
    let mask = |lo: i64| _mm256_cmpgt_epi64(_mm256_set1_epi64x(mr as i64 - lo), lanes);
    let masks = [mask(0), mask(4)];
    let (va, vb) = (_mm256_set1_pd(alpha), _mm256_set1_pd(beta));
    for (j, accj) in acc.iter().enumerate() {
        if j == nr {
            break;
        }
        for (h, (&t, &m)) in accj.iter().zip(&masks).enumerate() {
            let p = c.wrapping_add(j * ldc + 4 * h);
            let v = if beta == 0.0 {
                _mm256_mul_pd(va, t)
            } else if beta == 1.0 {
                _mm256_fmadd_pd(va, t, _mm256_maskload_pd(p, m))
            } else {
                _mm256_fmadd_pd(va, t, _mm256_mul_pd(vb, _mm256_maskload_pd(p, m)))
            };
            _mm256_maskstore_pd(p, m, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_normalizes_transposes() {
        // op(A) = [[1,3],[2,4]] (2x2) from both storages packs identically.
        let m = 2;
        let k = 2;
        let a_n = vec![1.0, 2.0, 3.0, 4.0]; // m x k column-major
        let a_t = vec![1.0, 3.0, 2.0, 4.0]; // k x m column-major
        let mut p1 = vec![-1.0; MR * k];
        let mut p2 = vec![-1.0; MR * k];
        pack_a(Trans::N, &a_n, m, k, 0, m, 0, k, &mut p1);
        pack_a(Trans::T, &a_t, m, k, 0, m, 0, k, &mut p2);
        assert_eq!(p1, p2);
        // k-major layout: [A00, A10, 0.., A01, A11, 0..].
        assert_eq!(&p1[..2], &[1.0, 2.0]);
        assert_eq!(&p1[MR..MR + 2], &[3.0, 4.0]);
        assert!(p1[2..MR].iter().all(|&x| x == 0.0), "zero padding");
    }

    #[test]
    fn pack_b_normalizes_transposes() {
        // op(B) = [[5,7],[6,8]] (2x2) from both storages packs identically.
        let k = 2;
        let n = 2;
        let b_n = vec![5.0, 6.0, 7.0, 8.0]; // k x n column-major
        let b_t = vec![5.0, 7.0, 6.0, 8.0]; // n x k column-major
        let mut p1 = vec![-1.0; NR * k];
        let mut p2 = vec![-1.0; NR * k];
        pack_b(Trans::N, &b_n, k, n, 0, k, 0, n, &mut p1);
        pack_b(Trans::T, &b_t, k, n, 0, k, 0, n, &mut p2);
        assert_eq!(p1, p2);
        // k-major layout: [B00, B01, 0.., B10, B11, 0..].
        assert_eq!(&p1[..2], &[5.0, 7.0]);
        assert_eq!(&p1[NR..NR + 2], &[6.0, 8.0]);
    }

    #[test]
    fn packing_matches_its_definition() {
        // Odd offsets and extents: the transposes' 4 x 4 register blocks,
        // their column and k remainders, and the zero padding.
        let (m, n, k) = (2 * MR + 3, 2 * NR + 5, 23);
        let a: Vec<f64> = (0..m * k).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..k * n).map(|i| -(i as f64)).collect();
        let (pc, kc) = (3, 17);
        for (ic, mc) in [(1, MR + 6), (5, MR), (0, 3)] {
            for ta in [Trans::N, Trans::T] {
                let mut ap = vec![f64::NAN; mc.div_ceil(MR) * MR * kc];
                pack_a(ta, &a, m, k, ic, mc, pc, kc, &mut ap);
                for (e, &got) in ap.iter().enumerate() {
                    let (ir, l, i) = (e / (MR * kc), e % (MR * kc) / MR, e % MR);
                    let row = ir * MR + i;
                    let want = match (row < mc, ta) {
                        (false, _) => 0.0,
                        (true, Trans::N) => a[(pc + l) * m + ic + row],
                        (true, Trans::T) => a[(ic + row) * k + pc + l],
                    };
                    assert_eq!(got, want, "A {ta:?} ic={ic} mc={mc} at {e}");
                }
            }
        }
        for (jc, nc) in [(2, NR + 7), (0, NR), (9, 1)] {
            for tb in [Trans::N, Trans::T] {
                let mut bp = vec![f64::NAN; nc.div_ceil(NR) * NR * kc];
                pack_b(tb, &b, k, n, pc, kc, jc, nc, &mut bp);
                for (e, &got) in bp.iter().enumerate() {
                    let (jr, l, j) = (e / (NR * kc), e % (NR * kc) / NR, e % NR);
                    let col = jr * NR + j;
                    let want = match (col < nc, tb) {
                        (false, _) => 0.0,
                        (true, Trans::N) => b[(jc + col) * k + pc + l],
                        (true, Trans::T) => b[(pc + l) * n + jc + col],
                    };
                    assert_eq!(got, want, "B {tb:?} jc={jc} nc={nc} at {e}");
                }
            }
        }
    }

    /// Panels for `kc` k-steps and a C buffer with sentinel rows and
    /// columns around the tile (stride `MR + 3`, `NR + 2` columns).
    fn fixture(kc: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let ap = (0..kc * MR).map(|i| (i as f64 * 0.37).sin()).collect();
        let bp = (0..kc * NR).map(|i| (i as f64 * 0.73).cos()).collect();
        let c = (0..(MR + 3) * (NR + 2))
            .map(|i| i as f64 * 0.01 - 1.0)
            .collect();
        (ap, bp, c)
    }

    #[test]
    fn microkernel_matches_reference() {
        // One full MR x NR tile at depth 7 through every body, C
        // overwritten (beta = 0: the NaNs in C must not survive).
        let kc = 7;
        let (ap, bp, _) = fixture(kc);
        for kernel in Kernel::available() {
            let mut out = [f64::NAN; MR * NR];
            kernel.run(kc, &ap, &bp, &mut out, MR, MR, NR, 1.0, 0.0);
            for j in 0..NR {
                for i in 0..MR {
                    let want: f64 = (0..kc).map(|l| ap[l * MR + i] * bp[l * NR + j]).sum();
                    let got = out[i + j * MR];
                    assert!((got - want).abs() < 1e-13, "{kernel:?} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn generic_and_dispatch_agree() {
        // Every body this CPU runs, on the same panels, for full and
        // masked edge tiles and alpha/beta inside and outside {0, 1}: the
        // SIMD bodies agree bitwise (same FMA order per lane), the scalar
        // one to ~1 ulp per k-step, and nothing outside the mr x nr
        // corner is written.
        let kc = 13;
        let (ap, bp, c0) = fixture(kc);
        let ldc = MR + 3;
        let shapes = [(MR, NR), (1, 1), (MR - 1, NR), (MR, NR - 1), (9, 7), (5, 3)];
        for (mr, nr) in shapes {
            for (alpha, beta) in [(1.0, 0.0), (1.0, 1.0), (-0.75, 1.5), (2.5, -0.5)] {
                let mut outs = Vec::new();
                for kernel in Kernel::available() {
                    let mut c = c0.clone();
                    kernel.run(kc, &ap, &bp, &mut c[ldc + 1..], ldc, mr, nr, alpha, beta);
                    for (e, (&got, &was)) in c.iter().zip(&c0).enumerate() {
                        let (i, j) = ((e % ldc).wrapping_sub(1), (e / ldc).wrapping_sub(1));
                        if i >= mr || j >= nr {
                            assert_eq!(got, was, "{kernel:?} wrote outside {mr}x{nr} at {e}");
                        }
                    }
                    outs.push((kernel, c));
                }
                let (_, scalar) = outs.last().expect("the scalar body always runs");
                for (kernel, c) in &outs {
                    for (x, y) in c.iter().zip(scalar) {
                        assert!(
                            (x - y).abs() <= 1e-13 * y.abs().max(1.0),
                            "{kernel:?}: {x} vs {y}"
                        );
                    }
                }
                let simd: Vec<_> = outs.iter().filter(|(k, _)| *k != Kernel::Scalar).collect();
                for pair in simd.windows(2) {
                    let same = pair[0]
                        .1
                        .iter()
                        .zip(&pair[1].1)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(
                        same,
                        "{:?} and {:?} differ on {mr}x{nr}",
                        pair[0].0, pair[1].0
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_lens_cover_edges() {
        // One micropanel plus a sliver in each direction.
        let p = GemmParams {
            mc: MR + 2,
            kc: 7,
            nc: 2 * NR - 1,
        };
        // m smaller than mc: rounded to one micropanel row of MR.
        assert_eq!(p.packed_a_len(3, 20), MR * 7);
        // m larger: mc = MR + 2 -> 2 micropanels.
        assert_eq!(p.packed_a_len(64, 5), 2 * MR * 5);
        assert_eq!(p.packed_b_len(4, 20), NR * 7);
        assert_eq!(p.packed_b_len(64, 3), 2 * NR * 3);
        // Degenerate dims never produce zero-length scratch for nonzero work.
        assert!(p.packed_a_len(1, 1) >= MR);
    }
}
