//! # simrand — offline stand-in for the `rand` crate
//!
//! This workspace builds in fully offline environments, so it vendors the
//! tiny subset of the `rand` 0.8 API that `ecg_sim` actually uses:
//! [`Rng::gen`], [`Rng::gen_range`] over `f64` ranges,
//! [`SeedableRng::seed_from_u64`], [`rngs::StdRng`] and
//! [`seq::SliceRandom::shuffle`]. The generator core is xoshiro256**
//! seeded through SplitMix64 — statistically solid for simulation and
//! fully deterministic across platforms (which the cohort-reproducibility
//! tests rely on).
//!
//! The crate is consumed under the dependency alias `rand`
//! (`rand = { package = "simrand", ... }`), so swapping the real `rand`
//! back in when a registry is reachable is a one-line manifest change.

use std::ops::Range;

/// Types samplable uniformly from raw generator output (the `Standard`
/// distribution of the real `rand`).
pub trait Standard: Sized {
    /// Draws one sample from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` using the top 53 bits.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Random-number generator interface (the used subset of `rand::Rng`).
pub trait Rng {
    /// Next raw 64-bit output word.
    fn next_u64(&mut self) -> u64;

    /// Samples a value from the standard distribution of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite range.
    fn gen_range(&mut self, range: Range<f64>) -> f64 {
        assert!(
            range.start < range.end && range.start.is_finite() && range.end.is_finite(),
            "invalid range {:?}",
            range
        );
        let u: f64 = self.gen();
        range.start + u * (range.end - range.start)
    }
}

/// Seedable construction (the used subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** generator — the workspace's deterministic `StdRng`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // xoshiro forbids the all-zero state.
            if s == [0, 0, 0, 0] {
                s[0] = 0x9E3779B97F4A7C15;
            }
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::Rng;

    /// The used subset of `rand::seq::SliceRandom`.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                // Debiased bounded sample (multiply-shift).
                let bound = (i + 1) as u64;
                let j = ((rng.next_u64() as u128 * bound as u128) >> 64) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(43);
            (0..8).map(|_| r.gen::<u64>()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_samples_are_unit_uniform() {
        let mut r = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..10_000).map(|_| r.gen::<f64>()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = r.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(3);
        let _ = r.gen_range(1.0..1.0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = StdRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Overwhelmingly unlikely to be identity after shuffling 50 items.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
