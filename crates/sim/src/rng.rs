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
    pub(crate) fn unit(&mut self) -> f64 {
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

    /// The stream itself, pinned: the first 64 `unit()` draws for seeds 1
    /// and 42, as bit patterns. Any change of generator, seeding or float
    /// conversion moves every simulated figure, so it has to show here first.
    #[test]
    #[rustfmt::skip]
    fn unit_stream_is_golden() {
        const SEED_1: [u64; 64] = [
            0x3fedee5d5e891516, 0x3fe1467752eb334a, 0x3fa8800e9dc491e0, 0x3feb762c130b6cc1,
            0x3fdca163e448aa32, 0x3fba915dfc6ec9d0, 0x3fee50a656d6d047, 0x3fd0af5cd870a0c4,
            0x3fdfc45aec569896, 0x3fd6e8d6b128af92, 0x3fd48e8b783344a2, 0x3fe011357e07cdf2,
            0x3fd53a9cc6ed3fc2, 0x3fe189f6cf5f677a, 0x3fe18cbb8a5b7605, 0x3feff4c73476fb1d,
            0x3fe5a9da4e6eeac2, 0x3fd118c73c14e2c0, 0x3fe107355f877253, 0x3feb16b434c5fb4e,
            0x3fe5d6198550f85e, 0x3febf5a25080094f, 0x3fde06b567e2f586, 0x3fdf70c9f47dde44,
            0x3fe10ec2715761b6, 0x3fd12dd807b2ad6e, 0x3fe7c0c2e234c9c2, 0x3feb8f106b75f13a,
            0x3fe22155f1c273a9, 0x3fd9f6251c0c431a, 0x3fe262f493184e9f, 0x3fd43a2d71742318,
            0x3fbdeda30e3e7048, 0x3fed27ab416a900b, 0x3fd787d3aed19cbc, 0x3fe2863637b3ef16,
            0x3fee2bb56b46ba83, 0x3fa09509aa2c5900, 0x3fe7a8c79982277b, 0x3fe7c82784267c81,
            0x3fca918875cb6c04, 0x3fd555853016882c, 0x3fe46c94dbb6b9de, 0x3fad5f82b15273c0,
            0x3fe22f900d863bb2, 0x3fe82ddeed68f5ac, 0x3fcb6a474e314f00, 0x3fe7798fbde5cfa3,
            0x3fe900a87662405d, 0x3fd25bfdfea60dec, 0x3fd17685df31e00e, 0x3fbabd138f201de0,
            0x3fee5234cc394d43, 0x3fe5cab1ce8d525b, 0x3fc94631aacfefb8, 0x3fe36466a12c5bac,
            0x3fe3ac5de3476318, 0x3fee16d42921d2d5, 0x3fe113f958614d83, 0x3fe9272dc1ba118b,
            0x3fbd7d2dbfb2b438, 0x3fd33e8b8150a486, 0x3fad9a358f2c50f0, 0x3fdea77dda370514,
        ];
        const SEED_42: [u64; 64] = [
            0x3fc88acf7cc3e48c, 0x3fb7559844b41690, 0x3feefa15f7f35b34, 0x3fe7240f5abfa6e9,
            0x3f9cb6c36d84ca60, 0x3fd0146f0efb2898, 0x3fe7f5572e1988e0, 0x3fe5fea84bb1f13a,
            0x3feed0eaa24d728f, 0x3fc33837244a9fc8, 0x3fd53fc52d5aa7ca, 0x3fe39f38bee2a1c0,
            0x3fec6a0fc691c3ae, 0x3fe9138040a9851c, 0x3fe6a3fb91e70a40, 0x3fd8e12dbfac7224,
            0x3fe43acc0d427c51, 0x3f62933ed8c46400, 0x3fd9ba1e6a7bb3d4, 0x3fe92dfea2693dcb,
            0x3fc0d6a54a98eb58, 0x3fb610979f938798, 0x3fe865af5a36f933, 0x3fdbc25ac371fc0c,
            0x3fbd32dd7d677770, 0x3feef35da3696d54, 0x3fa6d90684d5b040, 0x3fe30fb4ae4749bc,
            0x3fc59c67e4e05214, 0x3fe55902313883a4, 0x3fedfb12f801ad6d, 0x3fed51241b97ddf6,
            0x3fe295b2d58fcbe2, 0x3fb56019122d4bb0, 0x3fc07662f3cbb2fc, 0x3fe36d9f3fdac82b,
            0x3fb2a33a24536310, 0x3fee7b402677560c, 0x3fedcf2099c82dea, 0x3fd10c0f9533a210,
            0x3fd7304218c5ad24, 0x3fb72c365169d0f0, 0x3fea54c6ae5ae12f, 0x3fe22a34dd9f9ff3,
            0x3fae320f807afab0, 0x3fe18b77346b2af4, 0x3fc1d6fde347549c, 0x3fd14bd538542c54,
            0x3fd8bbf52e84ee56, 0x3fc71085574a2594, 0x3fd011cd2fa5e568, 0x3fd1754ac8c657d0,
            0x3fe951604dd2807f, 0x3fea7c4de6f885a4, 0x3fbdbfc9df020d78, 0x3fe7b706d6fa5da5,
            0x3fda9d0bf5310184, 0x3fd54a8cd5f8ca56, 0x3fb966e63b05e780, 0x3fe86c913bb8a93a,
            0x3fe3652d30097861, 0x3feff0575b45742e, 0x3fdd79ab8de392b6, 0x3fc79181beeb1b38,
        ];
        for (seed, want) in [(1, SEED_1), (42, SEED_42)] {
            let mut r = SimRng::seed_from_u64(seed);
            let got: Vec<u64> = (0..64).map(|_| r.unit().to_bits()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
