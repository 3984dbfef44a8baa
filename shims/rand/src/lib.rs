//! Offline shim for the `rand` crate (0.8-era API surface).
//!
//! The build environment has no network access, so the workspace vendors the
//! subset of `rand` it actually uses: [`SeedableRng::seed_from_u64`]
//! and [`Rng::gen_range`] over integer and float ranges.
//!
//! The generator is xoshiro256++ seeded through SplitMix64. Streams are
//! deterministic for a given seed but do **not** match the real `rand`
//! crate's `StdRng` output; nothing in this workspace depends on the exact
//! stream, only on fixed-seed reproducibility.

use std::ops::{Range, RangeInclusive};

/// Types that can seed an RNG. Only `seed_from_u64` is exercised here.
pub trait SeedableRng: Sized {
    /// The raw seed type (fixed-width byte array for the real crate).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator by expanding a 64-bit seed (SplitMix64).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Core randomness source (subset of the real `RngCore`).
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open or inclusive, ints or floats).
    ///
    /// Panics on an empty range, like the real crate.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Converts 64 random bits into a uniform f64 in [0, 1).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128) % span;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (unit_f64(rng.next_u64()) as $t) * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                lo + (unit_f64(rng.next_u64()) as $t) * (hi - lo)
            }
        }
    )*};
}

impl_float_sample_range!(f32, f64);

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state would be a fixed point; nudge it.
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    /// Alias: the small generator is the same xoshiro core here.
    pub type SmallRng = StdRng;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1 << 40), b.gen_range(0u64..1 << 40));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let f = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&f));
            let i = rng.gen_range(3usize..9);
            assert!((3..9).contains(&i));
            let inc = rng.gen_range(10i64..=12);
            assert!((10..=12).contains(&inc));
        }
    }

    #[test]
    fn seed_zero_is_not_degenerate() {
        let mut rng = StdRng::seed_from_u64(0);
        let draws: Vec<u64> = (0..4).map(|_| rng.gen_range(0..u64::MAX)).collect();
        assert!(draws.iter().any(|&d| d != draws[0]));
    }
}
