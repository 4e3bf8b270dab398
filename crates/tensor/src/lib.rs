//! Dense tile kernels used by the TCE-generated CCSD code.
//!
//! The generated Fortran for the T1/T2 subroutines calls exactly three kinds
//! of computational kernels: `DGEMM` (generalized matrix multiply,
//! `C = alpha*op(A)*op(B) + beta*C`), `TCE_SORT_4` (a 4-index permutation
//! remap with a scale factor — "despite its name, the SORT operation does
//! not perform actual sorting of the data"), and elementwise helpers
//! (`DFILL`, `DAXPY`-style accumulation). This crate implements all of them
//! in Fortran column-major convention; the tests check them against naive
//! reference versions.

mod gemm;
#[cfg(test)]
mod oracle;
mod pack;
mod sort4;
mod vecops;

pub use gemm::{dgemm, dgemm_packed, dgemm_with, gemm_flops, scratch_lens, Trans};
pub use sort4::{invert_perm, sort_4, sort_4_strided, Perm4};
pub use vecops::{daxpy, ddot, dfill, max_abs_diff, rel_diff};

/// Column-major linear index of `(i, j)` in an `m x _` matrix.
#[inline(always)]
pub fn cm(i: usize, j: usize, m: usize) -> usize {
    i + j * m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_indexing() {
        // 2x3 matrix [[1,3,5],[2,4,6]] stored column-major 1..6.
        let m = 2;
        assert_eq!(cm(0, 0, m), 0);
        assert_eq!(cm(1, 0, m), 1);
        assert_eq!(cm(0, 1, m), 2);
        assert_eq!(cm(1, 2, m), 5);
    }
}
