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
//!   buffer, so the microkernel has no bounds logic at all — only the
//!   final writeback clips to the valid sub-tile.
//!
//! The microkernel computes an `MR x NR` block of `A_panel^T`-free
//! outer products into registers. On x86-64 with AVX2+FMA (detected at
//! runtime — the workspace is compiled for baseline x86-64, so this is
//! where the wide units are unlocked) the 8x6 tile holds 12 `ymm`
//! accumulators, two A vectors and one broadcast register: 12 FMAs per
//! 8 load-ops per k-step, enough to saturate both FMA ports. Elsewhere a
//! scalar fallback with the same semantics runs.

use crate::gemm::Trans;

/// Microkernel tile height (rows of C per register block).
pub const MR: usize = 8;
/// Microkernel tile width (columns of C per register block).
pub const NR: usize = 6;

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
/// 6 x 256 = 12 KiB (L1).
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
            // of the storage — stream it with a write stride of MR.
            Trans::T => {
                for i in 0..rows {
                    let col = &a[(row0 + i) * k + pc..(row0 + i) * k + pc + kc];
                    for (l, &v) in col.iter().enumerate() {
                        panel[l * MR + i] = v;
                    }
                }
                for i in rows..MR {
                    for l in 0..kc {
                        panel[l * MR + i] = 0.0;
                    }
                }
            }
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
            // B stored k x n: column col0+j is contiguous along k —
            // stream it with a write stride of NR.
            Trans::N => {
                for j in 0..cols {
                    let col = &b[(col0 + j) * k + pc..(col0 + j) * k + pc + kc];
                    for (l, &v) in col.iter().enumerate() {
                        panel[l * NR + j] = v;
                    }
                }
                for j in cols..NR {
                    for l in 0..kc {
                        panel[l * NR + j] = 0.0;
                    }
                }
            }
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

/// `true` when the AVX2+FMA microkernel is usable on this machine.
#[cfg(target_arch = "x86_64")]
pub fn simd_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let ok = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            STATE.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
            ok
        }
    }
}

/// `true` when the AVX2+FMA microkernel is usable on this machine.
#[cfg(not(target_arch = "x86_64"))]
pub fn simd_available() -> bool {
    false
}

/// Compute one `MR x NR` register tile: `acc = Ap_panel * Bp_panel` over
/// depth `kc`, written to `out` column-major (`out[i + j*MR]`). The
/// caller owns `alpha` scaling and the clipped accumulation into C.
#[inline]
pub fn microkernel(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64; MR * NR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // Safety: AVX2+FMA presence was just verified at runtime.
        unsafe { microkernel_avx2(kc, ap, bp, out) };
        return;
    }
    microkernel_generic(kc, ap, bp, out);
}

/// Portable microkernel: NR independent MR-wide accumulator rows, each
/// k-step one broadcast multiply-add per row. Same per-lane summation
/// *order* as the AVX2 path; the FMA units skip the intermediate
/// product rounding, so the two agree to within one rounding step per
/// k-iteration (not bitwise).
fn microkernel_generic(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64; MR * NR]) {
    let mut acc = [[0.0f64; MR]; NR];
    for l in 0..kc {
        let a = &ap[l * MR..l * MR + MR];
        let b = &bp[l * NR..l * NR + NR];
        for (accj, &bj) in acc.iter_mut().zip(b) {
            for (accij, &ai) in accj.iter_mut().zip(a) {
                *accij += ai * bj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        out[j * MR..j * MR + MR].copy_from_slice(accj);
    }
}

/// AVX2+FMA microkernel: 12 ymm accumulators (two 4-lane vectors per
/// column of the 8x6 tile), two A loads and one B broadcast per FMA
/// pair. 12 FMAs against 8 load-ops per k-step keeps both FMA ports
/// busy without saturating the load ports.
///
/// # Safety
/// Caller must have verified AVX2 and FMA support (see
/// [`simd_available`]); slice lengths are checked by the caller
/// (`debug_assert` in [`microkernel`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(kc: usize, ap: &[f64], bp: &[f64], out: &mut [f64; MR * NR]) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 2]; NR];
    let mut pa = ap.as_ptr();
    let mut pb = bp.as_ptr();
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
    for (j, accj) in acc.iter().enumerate() {
        _mm256_storeu_pd(out.as_mut_ptr().add(j * MR), accj[0]);
        _mm256_storeu_pd(out.as_mut_ptr().add(j * MR + 4), accj[1]);
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
    fn microkernel_matches_reference() {
        // One full MR x NR tile at depth 7, random-ish values.
        let kc = 7;
        let ap: Vec<f64> = (0..kc * MR).map(|i| (i as f64 * 0.37).sin()).collect();
        let bp: Vec<f64> = (0..kc * NR).map(|i| (i as f64 * 0.73).cos()).collect();
        let mut out = [0.0; MR * NR];
        microkernel(kc, &ap, &bp, &mut out);
        for j in 0..NR {
            for i in 0..MR {
                let want: f64 = (0..kc).map(|l| ap[l * MR + i] * bp[l * NR + j]).sum();
                assert!((out[i + j * MR] - want).abs() < 1e-13, "({i},{j})");
            }
        }
    }

    #[test]
    fn generic_and_dispatch_agree() {
        let kc = 13;
        let ap: Vec<f64> = (0..kc * MR).map(|i| (i as f64).sqrt()).collect();
        let bp: Vec<f64> = (0..kc * NR).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut o1 = [0.0; MR * NR];
        let mut o2 = [0.0; MR * NR];
        microkernel(kc, &ap, &bp, &mut o1);
        microkernel_generic(kc, &ap, &bp, &mut o2);
        // Same summation order; FMA only removes the intermediate
        // product rounding, so agreement is to ~1 ulp per k-step.
        for (x, y) in o1.iter().zip(&o2) {
            assert!((x - y).abs() <= 1e-13 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn scratch_lens_cover_edges() {
        let p = GemmParams {
            mc: 10,
            kc: 7,
            nc: 11,
        };
        // m smaller than mc: rounded to one micropanel row of MR.
        assert_eq!(p.packed_a_len(3, 20), MR * 7);
        // m larger: mc=10 -> 2 micropanels.
        assert_eq!(p.packed_a_len(64, 5), 2 * MR * 5);
        assert_eq!(p.packed_b_len(4, 20), NR * 7);
        assert_eq!(p.packed_b_len(64, 3), 2 * NR * 3);
        // Degenerate dims never produce zero-length scratch for nonzero work.
        assert!(p.packed_a_len(1, 1) >= MR);
    }
}
