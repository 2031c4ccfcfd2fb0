//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the workspace (stochastic rounding, synthetic
//! workloads, Poisson arrivals, random tensors) draws from [`DetRng`], a Xoshiro256**
//! generator seeded through SplitMix64. Using a single in-tree generator keeps every
//! experiment reproducible from a `u64` seed and avoids any dependence on platform
//! entropy.
//!
//! `DetRng` also implements [`rand::RngCore`] so it can drive `rand` distributions when
//! convenient.

use rand::RngCore;

/// SplitMix64 generator.
///
/// Primarily used to expand a single `u64` seed into the 256-bit state required by
/// [`Xoshiro256`]; it is also a perfectly serviceable (if statistically weaker)
/// stand-alone generator for non-critical decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256** generator: the workspace-wide deterministic RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct Xoshiro256 {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_cache: Option<f64>,
}

/// Alias used across the workspace.
pub type DetRng = Xoshiro256;

impl Xoshiro256 {
    /// Creates a generator from a single `u64` seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is invalid for xoshiro; SplitMix64 cannot produce four
        // consecutive zeros from any seed, but guard anyway.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self {
            s,
            gauss_cache: None,
        }
    }

    /// Returns the next raw 64-bit output.
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

    /// Returns the next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(hi >= lo, "range_f32 requires hi >= lo");
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo, "range_f64 requires hi >= lo");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `hi <= lo`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "range_usize requires hi > lo (got {lo}..{hi})");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as usize
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal sample via the Box-Muller transform (with caching of the
    /// second output).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_cache.take() {
            return z;
        }
        // Avoid u1 == 0 which would produce ln(0).
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// `f32` normal sample convenience wrapper.
    pub fn normal_f32(&mut self, mean: f32, std_dev: f32) -> f32 {
        self.normal(mean as f64, std_dev as f64) as f32
    }

    /// Exponential sample with the given rate `lambda` (mean `1/lambda`).
    ///
    /// Used for Poisson-process inter-arrival times in the workload generator.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let mut u = self.next_f64();
        while u <= f64::MIN_POSITIVE {
            u = self.next_f64();
        }
        -u.ln() / lambda
    }

    /// Log-normal sample parameterised by the mean/std of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

impl RngCore for Xoshiro256 {
    fn next_u32(&mut self) -> u32 {
        Xoshiro256::next_u32(self)
    }

    fn next_u64(&mut self) -> u64 {
        Xoshiro256::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_across_seeds() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = DetRng::new(123);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn next_f32_in_unit_interval() {
        let mut rng = DetRng::new(9);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn range_usize_covers_bounds() {
        let mut rng = DetRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            seen[rng.range_usize(0, 10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bins should be hit: {seen:?}");
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let mut rng = DetRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }

    #[test]
    fn normal_moments_are_correct() {
        let mut rng = DetRng::new(17);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "normal mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "normal var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = DetRng::new(23);
        let lambda = 0.25;
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "exponential mean {mean}");
    }

    #[test]
    fn chance_respects_probability() {
        let mut rng = DetRng::new(31);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "chance fraction {frac}");
    }

    #[test]
    fn fill_bytes_fills_partial_chunks() {
        let mut rng = DetRng::new(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn rngcore_impl_matches_inherent() {
        let mut a = DetRng::new(100);
        let mut b = DetRng::new(100);
        assert_eq!(RngCore::next_u64(&mut a), Xoshiro256::next_u64(&mut b));
    }
}
