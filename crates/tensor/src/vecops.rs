//! Elementwise vector helpers (`DFILL`, `DAXPY`, `DDOT`) and comparison
//! utilities for the "matched up to the 14th digit" agreement checks.
//!
//! `dfill`/`daxpy` carry the same runtime AVX2+FMA dispatch as the GEMM
//! microkernel ([`crate::pack::simd_available`]): the chain's accumulates
//! (reduction-tree nodes, the serial SORT's merge) run vectorized too.

/// `DFILL`: set every element to `value`.
pub fn dfill(x: &mut [f64], value: f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::pack::simd_available() {
        // Safety: AVX2 presence was just verified at runtime.
        unsafe { dfill_avx2(x, value) };
        return;
    }
    x.fill(value);
}

/// `DAXPY`-style accumulate: `y += alpha * x`. Panics on length mismatch.
///
/// The SIMD path contracts the multiply-add with FMA, so it agrees with
/// the scalar fallback to one rounding step per element, not bitwise —
/// the same contract as the GEMM microkernel pair.
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "daxpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::pack::simd_available() {
        // Safety: AVX2+FMA presence was just verified at runtime.
        unsafe { daxpy_avx2(alpha, x, y) };
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// # Safety
/// Caller must have verified AVX2 support (see
/// [`crate::pack::simd_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dfill_avx2(x: &mut [f64], value: f64) {
    use core::arch::x86_64::*;
    let v = _mm256_set1_pd(value);
    let mut chunks = x.chunks_exact_mut(8);
    for c in &mut chunks {
        let p = c.as_mut_ptr();
        _mm256_storeu_pd(p, v);
        _mm256_storeu_pd(p.add(4), v);
    }
    for e in chunks.into_remainder() {
        *e = value;
    }
}

/// # Safety
/// Caller must have verified AVX2 and FMA support (see
/// [`crate::pack::simd_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn daxpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    use core::arch::x86_64::*;
    let va = _mm256_set1_pd(alpha);
    let n8 = x.len() / 8 * 8;
    let (mut px, mut py) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(px), _mm256_loadu_pd(py));
        let y1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(px.add(4)), _mm256_loadu_pd(py.add(4)));
        _mm256_storeu_pd(py, y0);
        _mm256_storeu_pd(py.add(4), y1);
        px = px.add(8);
        py = py.add(8);
        i += 8;
    }
    for (yi, xi) in y[n8..].iter_mut().zip(&x[n8..]) {
        *yi += alpha * xi;
    }
}

/// Dot product.
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "ddot length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Largest absolute elementwise difference.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Relative difference `|a - b| / max(|a|, |b|, 1)` — the metric used for
/// the variants-match-reference assertions.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_axpy() {
        let mut y = vec![0.0; 4];
        dfill(&mut y, 2.0);
        daxpy(3.0, &[1.0, 2.0, 3.0, 4.0], &mut y);
        assert_eq!(y, vec![5.0, 8.0, 11.0, 14.0]);
    }

    #[test]
    fn dot() {
        assert_eq!(ddot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn fill_and_axpy_cover_simd_bodies_and_tails() {
        // Lengths straddling the 8-wide vector body: 0..=9 plus a long one.
        for n in (0..=9).chain([1037]) {
            let mut y = vec![0.5; n];
            dfill(&mut y, -3.0);
            assert!(y.iter().all(|&v| v == -3.0), "n={n}");
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.25).collect();
            daxpy(2.0, &x, &mut y);
            for (i, &yi) in y.iter().enumerate() {
                let want = -3.0 + 2.0 * (i as f64 + 0.25);
                assert!((yi - want).abs() < 1e-12, "n={n} i={i}: {yi} vs {want}");
            }
        }
    }

    #[test]
    fn diffs() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 5.0]), 0.5);
        assert!(rel_diff(1e15, 1e15 * (1.0 + 1e-13)) < 1e-12);
        assert!(rel_diff(0.0, 0.5) == 0.5);
    }
}
