//! Deterministic pseudo-random helpers (splitmix64) used for tile sizes,
//! tensor fills and energy weights. Everything in the reproduction is a
//! pure function of the configured seed, so every execution model sees
//! bit-identical inputs.

/// One step of the splitmix64 generator.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform value in `[-0.5, 0.5)`.
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Deterministic element value for `(seed, block key, element index)`.
pub fn block_element(seed: u64, key: i64, elem: usize) -> f64 {
    unit_f64(block_hash(seed, key, elem))
}

fn block_hash(seed: u64, key: i64, elem: usize) -> u64 {
    splitmix64(seed ^ splitmix64(key as u64).wrapping_add(elem as u64))
}

/// [`block_element`] times 2^53: an integer in `[-2^52, 2^52)`, so exact
/// in an `f64`. Scaling by a power of two commutes with every rounding,
/// which lets a hot loop over many elements work on these (one convert,
/// no multiply or subtract per element) and scale its result once.
pub fn block_element_2p53(seed: u64, key: i64, elem: usize) -> f64 {
    ((block_hash(seed, key, elem) >> 11) as i64 - (1 << 52)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spread() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        let vals: Vec<f64> = (0..1000).map(|i| unit_f64(splitmix64(i))).collect();
        assert!(vals.iter().all(|v| (-0.5..0.5).contains(v)));
        let mean: f64 = vals.iter().sum::<f64>() / 1000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn scaled_block_element_is_the_same_number() {
        let down = 1.0 / (1u64 << 53) as f64;
        for key in [0, 1, -7, i64::MAX] {
            for elem in (0..4096).chain([usize::MAX - 1, usize::MAX]) {
                let (w, w53) = (
                    block_element(5, key, elem),
                    block_element_2p53(5, key, elem),
                );
                assert_eq!(w.to_bits(), (w53 * down).to_bits(), "key {key} elem {elem}");
                assert_eq!(w53, w53.trunc());
            }
        }
    }

    #[test]
    fn block_elements_differ_across_blocks() {
        assert_ne!(block_element(1, 10, 0), block_element(1, 11, 0));
        assert_ne!(block_element(1, 10, 0), block_element(1, 10, 1));
        assert_eq!(block_element(1, 10, 5), block_element(1, 10, 5));
    }
}
