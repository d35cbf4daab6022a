//! Deterministic pseudo-random number generation.
//!
//! The simulator owns every source of randomness so that a run is a pure
//! function of its seed. We implement xoshiro256\*\* (Blackman & Vigna) seeded
//! through SplitMix64, the authors' recommended seeding procedure. The
//! implementation is self-contained — depending on an external RNG crate
//! would tie trace reproducibility to that crate's version.
//!
//! Streams can be [`fork`](SimRng::fork)ed: each node of the simulation gets
//! an independent child stream, so adding randomness to one node never
//! perturbs another node's draws.

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use cb_simnet::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step; used to expand a 64-bit seed into xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Distinct seeds give (with overwhelming probability) independent
    /// streams; the all-zero internal state is impossible by construction.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream.
    ///
    /// The child is seeded from the parent's output, so forking advances the
    /// parent by one draw. Forking with the same parent state and order is
    /// fully deterministic.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Returns the next 64 uniformly random bits.
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

    /// Returns a uniform value in `[0, bound)` without modulo bias
    /// (Lemire's multiply-shift rejection method).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Lemire's method: widen-multiply and reject the biased low region.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform value in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.gen_below(hi - lo)
    }

    /// Returns a uniform index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.gen_below(len as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Samples an exponentially distributed duration scale with the given
    /// mean (inverse-CDF method). Returns the multiplier, not a duration.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        // 1 - U is in (0, 1], so ln never sees zero.
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Samples a standard normal via the Box–Muller transform.
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.gen_f64();
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Chooses a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_index(items.len())])
        }
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `[0, n)` in selection order.
    ///
    /// Uses a partial Fisher–Yates over an index vector; `O(n)` setup, which
    /// is fine for the neighborhood sizes the simulator deals in.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.gen_index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Child draws do not affect the parent stream.
        let _ = c1.next_u64();
        assert_eq!(parent1.next_u64(), parent2.next_u64());
    }

    #[test]
    fn gen_below_respects_bound() {
        let mut rng = SimRng::seed_from(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(11);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.gen_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from 1000");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut rng = SimRng::seed_from(8);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-0.5));
        assert!(rng.gen_bool(2.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "p=0.3 hit count {hits}");
    }

    #[test]
    fn gen_exp_has_requested_mean() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "exp mean {mean}");
    }

    #[test]
    fn gen_normal_moments() {
        let mut rng = SimRng::seed_from(17);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "normal mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "normal var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle left input untouched");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::seed_from(29);
        let picks = rng.sample_indices(20, 8);
        assert_eq!(picks.len(), 8);
        let mut uniq = picks.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8);
        assert!(picks.iter().all(|&i| i < 20));
        assert!(rng.sample_indices(5, 0).is_empty());
        assert_eq!(rng.sample_indices(1, 1), vec![0]);
    }

    #[test]
    fn choose_handles_empty() {
        let mut rng = SimRng::seed_from(31);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    #[should_panic(expected = "gen_below(0)")]
    fn gen_below_zero_panics() {
        SimRng::seed_from(0).gen_below(0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::seed_from(0).gen_range(5, 5);
    }
}
