//! A small, deterministic Zipf sampler.
//!
//! Page popularity in graph, key-value and transactional workloads follows a
//! power law. This sampler draws ranks from a Zipf(s) distribution over
//! `{0, 1, …, n-1}` using an inverse-CDF table, which is exact for the bucket
//! counts we need (at most a few hundred thousand pages after scaling). A
//! guide table over the CDF makes each draw O(1) on average.

use rand::Rng;

/// Zipf distribution over `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF reaches `j / guide.len()`
    /// (capped at `n - 1`). The length is a power of two, so `u * len` is
    /// exact and `guide[floor(u * len)]` never lies past the rank for `u`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or `s` is
    /// negative/non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a nonempty support");
        assert!(n <= u64::from(u32::MAX), "Zipf support too large");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let n = n as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let slots = n.next_power_of_two();
        let mut rank = 0;
        let guide = (0..slots)
            .map(|j| {
                let floor = j as f64 / slots as f64;
                while rank < n - 1 && cdf[rank] < floor {
                    rank += 1;
                }
                rank as u32
            })
            .collect();
        Zipf { cdf, guide }
    }

    /// Support size.
    pub fn n(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Draws a rank in `0..n` (rank 0 is the most popular).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF reaches `u` (capped at `n - 1`): the guide
    /// slot of `u` gives a rank at or below it, and a forward scan, one step
    /// on average, finds it.
    fn rank_of(&self, u: f64) -> u64 {
        let last = self.cdf.len() - 1;
        let mut rank = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while rank < last && self.cdf[rank] < u {
            rank += 1;
        }
        rank as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            let s = z.sample(&mut rng) as usize;
            assert!(s < 1000);
            counts[s] += 1;
        }
        // Rank 0 must be sampled far more often than rank 500.
        assert!(counts[0] > 10 * counts[500].max(1));
        // The head (top 10 %) should dominate.
        let head: u64 = counts[..100].iter().sum();
        assert!(head as f64 > 0.5 * 20_000.0);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut counts = vec![0u64; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 2.0, "uniform samples should be balanced");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            (0..32).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// Reference for `rank_of`: a binary search over the CDF.
    fn rank_by_binary_search(z: &Zipf, u: f64) -> u64 {
        match z
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(z.n() - 1),
        }
    }

    #[test]
    fn guide_table_matches_the_binary_search_exactly() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for n in [1u64, 2, 3, 1000, 1310, 5242] {
            for s in [0.0, 0.1, 1.1] {
                let z = Zipf::new(n, s);
                // Distinct CDF values make the binary search's answer the
                // first rank reaching `u`, which is what the scan returns.
                assert!(z.cdf.windows(2).all(|w| w[0] < w[1]), "n={n} s={s}");
                let slots = z.guide.len() as f64;
                let exact = z.cdf.iter().copied();
                let slot_edges = (0..z.guide.len()).map(|j| j as f64 / slots);
                let random = (0..20_000).map(|_| rng.gen::<f64>());
                for u in exact.chain(slot_edges).chain(random) {
                    for u in [u.next_down(), u, u.next_up()] {
                        if (0.0..1.0).contains(&u) {
                            let want = rank_by_binary_search(&z, u);
                            assert_eq!(z.rank_of(u), want, "n={n} s={s} u={u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }
}
