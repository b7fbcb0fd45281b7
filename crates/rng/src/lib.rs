//! A small deterministic PRNG with the subset of the `rand` API this
//! workspace uses.
//!
//! The build must work with no network and no crates.io registry, so the
//! external `rand` crate is off the table. Everything the repo needs from
//! it is seeded uniform draws — synthetic weights, samplers, test
//! matrices — which xoshiro256** (Blackman & Vigna) provides with
//! excellent statistical quality and ~4 ns per draw.
//!
//! Sequences are stable across platforms and compiler versions: the
//! generator is pure integer arithmetic and the float conversion uses the
//! standard 53-bit (or 24-bit) mantissa-fill construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A seeded xoshiro256** generator, API-compatible with the workspace's
/// former `rand::rngs::StdRng` usage (`seed_from_u64`, `gen_range`).
///
/// # Example
///
/// ```
/// use zllm_rng::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let x = rng.gen_range(0.0f32..1.0);
/// assert!((0.0..1.0).contains(&x));
/// // Same seed, same sequence.
/// let mut again = StdRng::seed_from_u64(7);
/// assert_eq!(again.gen_range(0.0f32..1.0), x);
/// ```
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator from a 64-bit seed (splitmix64-expanded, as
    /// the xoshiro reference implementation recommends).
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform draw from a range, for every numeric type the workspace
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform f64 in `[0, 1)` with 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform f32 in `[0, 1)` with 24 random mantissa bits.
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A bool that is `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// An unbiased uniform integer in `[0, bound)` (Lemire's method with
    /// rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection-sample the biased tail away.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }
}

/// Range types [`StdRng::gen_range`] accepts.
pub trait UniformRange {
    /// The sampled value type.
    type Output;
    /// Draws one value.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl UniformRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl UniformRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut StdRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty range");
                let span = (b as i128 - a as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (a as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformRange for std::ops::Range<f32> {
    type Output = f32;
    fn sample(self, rng: &mut StdRng) -> f32 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.gen_f32()
    }
}

impl UniformRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

impl UniformRange for std::ops::RangeInclusive<f32> {
    type Output = f32;
    fn sample(self, rng: &mut StdRng) -> f32 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range");
        a + (b - a) * rng.gen_f32()
    }
}

impl UniformRange for std::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range");
        a + (b - a) * rng.gen_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn int_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(5usize..17);
            assert!((5..17).contains(&v));
            let w = rng.gen_range(-4i32..=4);
            assert!((-4..=4).contains(&w));
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = rng.gen_range(-1.5f32..2.5);
            assert!((-1.5..2.5).contains(&v));
            let w = rng.gen_range(0.0f64..1e-3);
            assert!((0.0..1e-3).contains(&w));
        }
    }

    #[test]
    fn small_ranges_hit_every_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_mean_is_centred() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let _ = StdRng::seed_from_u64(0).gen_range(3u32..3);
    }
}
