//! Deterministic randomness for simulations.
//!
//! Every experiment takes an explicit seed so that reported numbers are
//! exactly reproducible run-to-run. `SimRng` wraps ChaCha8 (fast, portable,
//! stable across platforms) and exposes the two draws the cost models
//! need: a uniform unit float and a clamped heavy tail.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seedable RNG with the draws used by the Falkon cost models.
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

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
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
    fn heavy_tail_within_cap() {
        let mut r = SimRng::seed_from_u64(17);
        for _ in 0..1000 {
            let v = r.heavy_tail(0.05, 0.8, 1.3);
            assert!((0.0..=1.3).contains(&v));
        }
    }
}
