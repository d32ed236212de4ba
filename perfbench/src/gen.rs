//! Seeded input generation: a SplitMix64 stream and a Zipf key sampler.
//!
//! Every random choice a workload makes comes from one of these streams,
//! seeded from `--seed` and the client index, so a seed fixes the inputs
//! each client issues. The engine only ever sees the generated keys.

/// SplitMix64: small, fast, and good enough to drive key choices.
pub struct Rng(u64);

impl Rng {
    /// The stream for client `client` of a run seeded with `seed`.
    pub fn for_client(seed: u64, client: usize) -> Self {
        let mut base = Rng(seed ^ 0x5EED_0FC1_1EA7_u64.wrapping_mul(client as u64 + 1));
        Rng(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-high; the bias is below 2^-40 for the
    /// key counts used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// Zipf-distributed keys over `0..n` with skew `theta` (Gray et al.'s
/// generator, as in YCSB). Rank 0 is the most popular; ranks are
/// scattered over the key space by a fixed permutation so hot keys are
/// not neighbours.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

/// Multiplier of the rank-to-key permutation: a prime, so it is coprime
/// with every key count that is not its multiple.
const SCATTER: u64 = 2_654_435_761;

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(
            n >= 2 && !n.is_multiple_of(SCATTER),
            "zipf needs 2 <= n and n coprime with the scatter"
        );
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf { n, theta, alpha, zetan, eta }
    }

    fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// The key holding popularity rank `rank`.
    pub fn key_of_rank(&self, rank: u64) -> u64 {
        ((rank as u128 * SCATTER as u128) % self.n as u128) as u64
    }

    /// A Zipf-distributed key.
    pub fn key(&self, rng: &mut Rng) -> u64 {
        self.key_of_rank(self.rank(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::for_client(7, 1), Rng::for_client(7, 1));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let (mut a, mut c) = (Rng::for_client(7, 0), Rng::for_client(7, 1));
        assert!((0..100).any(|_| a.next_u64() != c.next_u64()));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100_000, 0.99);
        let mut rng = Rng::for_client(1, 0);
        let hot = zipf.key_of_rank(0);
        let draws = 100_000;
        let mut hot_hits = 0;
        for _ in 0..draws {
            let k = zipf.key(&mut rng);
            assert!(k < 100_000);
            hot_hits += (k == hot) as u32;
        }
        // Rank 0 carries 1/zeta(n) ≈ 8% of the mass at theta 0.99.
        assert!(hot_hits > draws / 20 && hot_hits < draws / 8, "{hot_hits}");
    }
}
