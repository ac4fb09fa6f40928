//! Deterministic randomness for simulations.
//!
//! Every experiment takes an explicit seed so that reported numbers are
//! exactly reproducible run-to-run. `SimRng` wraps ChaCha8 (fast, portable,
//! stable across platforms) and exposes the handful of distributions the
//! cost models need.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seedable RNG with the distributions used by the Falkon cost models.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child RNG (e.g. one per executor) whose stream
    /// does not overlap with the parent's.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let seed = self.inner.random::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(seed)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform float in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.unit() * (hi - lo)
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// gaps, service jitter).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.unit(); // (0, 1]
        -mean * u.ln()
    }

    /// Log-normal-ish heavy tail: `base * exp(normal(0, sigma))`, clamped to
    /// `[base_min, cap]`. Used for the per-task overhead noise of Figure 10.
    pub fn heavy_tail(&mut self, base: f64, sigma: f64, cap: f64) -> f64 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (base * (sigma * z).exp()).clamp(0.0, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 5);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.unit() == c2.unit()).count();
        assert!(same < 5);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
        }
        assert_eq!(r.uniform(5.0, 2.0), 5.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean = {mean}");
    }

    #[test]
    fn heavy_tail_within_cap() {
        let mut r = SimRng::seed_from_u64(17);
        for _ in 0..1000 {
            let v = r.heavy_tail(0.05, 0.8, 1.3);
            assert!((0.0..=1.3).contains(&v));
        }
    }
}
