//! Property tests: kernel implementations vs naive oracles.

use proptest::prelude::*;
use tensor_kernels::{dgemm, dgemm_packed, invert_perm, sort_4, Perm4, Trans};

#[path = "../src/oracle.rs"]
mod oracle;
use oracle::{dgemm_naive, sort_4_naive};

fn trans() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::N), Just(Trans::T)]
}

fn perm4() -> impl Strategy<Value = Perm4> {
    Just(()).prop_perturb(|_, mut rng| {
        let mut p = [0usize, 1, 2, 3];
        // Fisher-Yates with the proptest rng.
        for i in (1..4).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            p.swap(i, j);
        }
        p
    })
}

proptest! {
    /// Blocked dgemm agrees with the naive oracle for all flag combinations.
    #[test]
    fn dgemm_matches_naive(
        ta in trans(),
        tb in trans(),
        m in 0usize..12,
        n in 0usize..12,
        k in 0usize..12,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 1);
        let b = gen(k * n, 2);
        let c0 = gen(m * n, 3);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        dgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1);
        dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    /// The 4x4-blocked kernel has edge paths wherever a dimension is not
    /// a multiple of the block: exercise them with odd and prime sizes
    /// (1x1, 1xk, prime dims), all four transpose combinations per case.
    #[test]
    fn dgemm_odd_sizes_all_transposes(
        mi in 0usize..8,
        ni in 0usize..8,
        ki in 0usize..8,
        alpha in prop_oneof![Just(1.0f64), Just(-0.5), Just(2.0)],
        beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-1.5)],
        seed in 0u64..1000,
    ) {
        // 1 and the primes straddling the 4-wide block boundary.
        const ODD: [usize; 8] = [1, 2, 3, 5, 7, 11, 13, 17];
        let (m, n, k) = (ODD[mi], ODD[ni], ODD[ki]);
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 11);
        let b = gen(k * n, 12);
        let c0 = gen(m * n, 13);
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let mut c1 = c0.clone();
                let mut c2 = c0.clone();
                dgemm(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1);
                dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    prop_assert!(
                        (x - y).abs() < 1e-10,
                        "{ta:?}{tb:?} {m}x{n}x{k}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// sort_4 is a bijection: applying a permutation then its inverse (with
    /// reciprocal factors) restores the input exactly.
    #[test]
    fn sort4_roundtrip(
        p in perm4(),
        d0 in 1usize..5,
        d1 in 1usize..5,
        d2 in 1usize..5,
        d3 in 1usize..5,
        factor in prop_oneof![Just(1.0f64), Just(-1.0), Just(2.0), Just(-0.5)],
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let odims = [dims[p[0]], dims[p[1]], dims[p[2]], dims[p[3]]];
        let mut mid = vec![0.0; n];
        let mut back = vec![0.0; n];
        sort_4(&src, &mut mid, dims, p, factor);
        sort_4(&mid, &mut back, odims, invert_perm(&p), 1.0 / factor);
        for (x, y) in src.iter().zip(&back) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// sort_4 preserves the multiset of |values| (scaled).
    #[test]
    fn sort4_preserves_content(
        p in perm4(),
        d0 in 1usize..5,
        d1 in 1usize..5,
        d2 in 1usize..5,
        d3 in 1usize..5,
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let mut dst = vec![0.0; n];
        sort_4(&src, &mut dst, dims, p, 1.0);
        let mut a = src.clone();
        let mut b = dst.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert_eq!(a, b);
    }

    /// The packed engine, as `dgemm_packed` runs it, agrees with the naive
    /// oracle to 1e-12 for all four transpose combinations, degenerate
    /// alpha/beta, and odd and prime sizes: sizes that are not multiples
    /// of the 16 x 12 micropanel exercise the zero-padded panels and the
    /// masked C update. (The cache-block edges and every kernel body are
    /// covered in-crate with shrunk blocks.)
    #[test]
    fn packed_dgemm_matches_naive_all_transposes(
        mi in 0usize..8,
        ni in 0usize..8,
        ki in 0usize..8,
        alpha in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(2.0)],
        beta in prop_oneof![Just(0.0f64), Just(1.0), Just(-0.5), Just(2.0)],
        seed in 0u64..1000,
    ) {
        const ODD: [usize; 8] = [1, 5, 7, 9, 13, 17, 23, 31];
        let (m, n, k) = (ODD[mi], ODD[ni], ODD[ki]);
        let gen = |len: usize, salt: u64| -> Vec<f64> {
            (0..len).map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed ^ salt);
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            }).collect()
        };
        let a = gen(m * k, 21);
        let b = gen(k * n, 22);
        let c0 = gen(m * n, 23);
        for ta in [Trans::N, Trans::T] {
            for tb in [Trans::N, Trans::T] {
                let mut c1 = c0.clone();
                let mut c2 = c0.clone();
                dgemm_packed(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c1);
                dgemm_naive(ta, tb, m, n, k, alpha, &a, &b, beta, &mut c2);
                for (x, y) in c1.iter().zip(&c2) {
                    prop_assert!(
                        (x - y).abs() < 1e-12,
                        "{ta:?}{tb:?} {m}x{n}x{k} a={alpha} b={beta}: {x} vs {y}"
                    );
                }
            }
        }
    }

    /// Above its tiling threshold `sort_4` takes the cache-tiled remap;
    /// that path produces exactly the naive oracle's output (same
    /// multiplications, different order — bitwise equal) for every
    /// permutation, including shapes straddling the 32-wide tile edges.
    #[test]
    fn sort4_tiled_matches_naive(
        p in perm4(),
        d0 in 1usize..40,
        dp in 1usize..40,
        factor in prop_oneof![Just(1.0f64), Just(-1.0), Just(2.0), Just(-0.5)],
    ) {
        // The two tiled axes (input axis 0 and axis p[0]) get the random
        // extents so tile-edge remainders occur; the other two axes grow
        // the tile past the 4096-element threshold.
        let mut dims = [0usize; 4];
        dims[0] = d0;
        if p[0] != 0 {
            dims[p[0]] = dp;
        }
        let fixed: usize = dims.iter().filter(|&&d| d > 0).product();
        let free = dims.iter().filter(|&&d| d == 0).count() as u32;
        let side = (1..).find(|s: &usize| fixed * s.pow(free) >= 4096).unwrap();
        for d in dims.iter_mut().filter(|d| **d == 0) {
            *d = side;
        }
        let n: usize = dims.iter().product();
        let src: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut got = vec![0.0; n];
        let mut want = vec![0.0; n];
        sort_4(&src, &mut got, dims, p, factor);
        sort_4_naive(&src, &mut want, dims, p, factor);
        prop_assert_eq!(got, want);
    }

    /// Debug builds reject aliasing src/dst: the remap is never correct
    /// in place.
    #[test]
    #[cfg(debug_assertions)]
    fn sort4_rejects_aliasing_slices(
        p in perm4(),
        d0 in 1usize..6,
        d1 in 1usize..6,
        d2 in 1usize..6,
        d3 in 1usize..6,
    ) {
        let dims = [d0, d1, d2, d3];
        let n: usize = dims.iter().product();
        let mut buf = vec![0.0; n];
        let ptr = buf.as_mut_ptr();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(move || {
            // SAFETY: the overlapping views exist only to exercise the
            // alias guard, which panics before any element is touched.
            let src = unsafe { std::slice::from_raw_parts(ptr, n) };
            let dst = unsafe { std::slice::from_raw_parts_mut(ptr, n) };
            sort_4(src, dst, dims, p, 1.0);
        });
        std::panic::set_hook(prev);
        prop_assert!(result.is_err(), "aliasing sort_4 did not panic");
    }

    /// dgemm is linear in alpha: gemm(2a) == 2 * gemm(a) with beta=0.
    #[test]
    fn dgemm_alpha_linearity(
        m in 1usize..6,
        n in 1usize..6,
        k in 1usize..6,
    ) {
        let a: Vec<f64> = (0..m * k).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..k * n).map(|i| 1.0 - i as f64 * 0.05).collect();
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        dgemm(Trans::T, Trans::N, m, n, k, 1.0, &a, &b, 0.0, &mut c1);
        dgemm(Trans::T, Trans::N, m, n, k, 2.0, &a, &b, 0.0, &mut c2);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((2.0 * x - y).abs() < 1e-10);
        }
    }
}
