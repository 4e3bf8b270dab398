//! Textbook reference kernels (element addressing only): the oracles the
//! unit and property tests check the fast paths against. Not part of the
//! library — compiled into the crate's own tests, and included by path
//! into `tests/props.rs`.

use super::{Perm4, Trans};

/// `C = alpha * op(A) * op(B) + beta * C`, one dot product per element.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_naive(
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
    let at = |i: usize, l: usize| match ta {
        Trans::N => a[i + l * m],
        Trans::T => a[l + i * k],
    };
    let bt = |l: usize, j: usize| match tb {
        Trans::N => b[l + j * k],
        Trans::T => b[j + l * n],
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for l in 0..k {
                acc += at(i, l) * bt(l, j);
            }
            c[i + j * m] = alpha * acc + beta * c[i + j * m];
        }
    }
}

/// `TCE_SORT_4` by explicit 4-tuple addressing: output index `q` is input
/// index `perm[q]`, every element scaled by `factor`.
pub fn sort_4_naive(src: &[f64], dst: &mut [f64], dims: [usize; 4], perm: Perm4, factor: f64) {
    let odims = [dims[perm[0]], dims[perm[1]], dims[perm[2]], dims[perm[3]]];
    let iidx = |i: [usize; 4]| i[0] + dims[0] * (i[1] + dims[1] * (i[2] + dims[2] * i[3]));
    let oidx = |o: [usize; 4]| o[0] + odims[0] * (o[1] + odims[1] * (o[2] + odims[2] * o[3]));
    for i3 in 0..dims[3] {
        for i2 in 0..dims[2] {
            for i1 in 0..dims[1] {
                for i0 in 0..dims[0] {
                    let i = [i0, i1, i2, i3];
                    let o = [i[perm[0]], i[perm[1]], i[perm[2]], i[perm[3]]];
                    dst[oidx(o)] = factor * src[iidx(i)];
                }
            }
        }
    }
}
