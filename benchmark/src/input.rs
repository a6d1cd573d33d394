//! Seeded inputs. The benchmark carries its own SplitMix64 generator so
//! every workload is a pure function of `--seed`; the program under test
//! only ever sees the generated buffers and arrival times.

/// SplitMix64 (Steele, Lea & Flood): tiny, fast, and reproducible from
/// its seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one input stream: `seed` is the run's `--seed`,
    /// `stream` separates the streams a workload draws from.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, bound)` (multiply-shift; the bias is far below
    /// anything a benchmark input can notice).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Exponentially distributed gap with the given mean.
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        -(1.0 - u).ln() * mean
    }

    /// `0..n` in a seeded order, each `i % kinds` appearing in equal
    /// share: a shuffled deck, so the mix of job shapes is the same for
    /// every seed and only their order and contents vary.
    pub fn deck(&mut self, n: usize, kinds: usize) -> Vec<usize> {
        let mut deck: Vec<usize> = (0..n).map(|i| i % kinds).collect();
        for i in (1..n).rev() {
            deck.swap(i, self.below(i as u64 + 1) as usize);
        }
        deck
    }
}

/// The SplitMix64 finalizer, also used as the checksum's element hash.
fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's sorting input (§6.4): `n` keys uniform in `[0, 2n)`.
pub fn sort_keys(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let hi = (2 * n).max(2) as u64;
    (0..n).map(|_| rng.below(hi) as u32).collect()
}

/// Summands for the divide-and-conquer sum: small enough that no total
/// can wrap.
pub fn sum_terms(n: usize, rng: &mut SplitMix64) -> Vec<u64> {
    (0..n).map(|_| rng.below(1 << 20)).collect()
}

/// Order-independent checksum of a multiset of keys: a sort must keep it.
pub fn multiset_checksum(keys: &[u32]) -> u64 {
    keys.iter()
        .fold(0u64, |acc, &k| acc.wrapping_add(mix(u64::from(k))))
}

/// Whether `keys` is non-decreasing.
pub fn is_sorted(keys: &[u32]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| sort_keys(64, &mut SplitMix64::new(seed, 1));
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(draw(7).iter().all(|&k| k < 128));
    }

    #[test]
    fn decks_keep_the_mix_and_shuffle_the_order() {
        let deck = SplitMix64::new(3, 4).deck(64, 8);
        for kind in 0..8 {
            assert_eq!(deck.iter().filter(|&&k| k == kind).count(), 8);
        }
        assert_ne!(deck, (0..64).map(|i| i % 8).collect::<Vec<_>>());
        assert_ne!(deck, SplitMix64::new(4, 4).deck(64, 8));
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let keys = vec![5u32, 1, 9, 1];
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(multiset_checksum(&keys), multiset_checksum(&sorted));
        assert_ne!(multiset_checksum(&keys), multiset_checksum(&[5, 1, 9, 2]));
        assert!(is_sorted(&sorted) && !is_sorted(&keys));
    }
}
