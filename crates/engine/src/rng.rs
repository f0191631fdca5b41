//! Deterministic random number generation.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A seeded, deterministic random number generator.
///
/// Every stochastic choice in the simulator (synthetic workload addresses,
/// the LLC's random set probe for Eager Mellow Writes, Start-Gap's
/// randomized start) draws from a `DetRng` so that a simulation is a pure
/// function of its configuration and seed — a property the test suite
/// asserts end to end.
///
/// # Examples
///
/// ```
/// use mellow_engine::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Builds a named top-level stream directly from the experiment seed:
    /// `xor_stream(seed, STREAM)` is exactly `seed_from(seed ^ STREAM)`,
    /// spelled so the stream id is part of the constructor name trail.
    ///
    /// This is the sanctioned way to stand up a standalone stream without
    /// a parent generator to [`derive`](Self::derive) from.
    pub fn xor_stream(seed: u64, stream: u64) -> Self {
        DetRng::seed_from(seed ^ stream)
    }

    /// Derives an independent child generator; `stream` distinguishes
    /// siblings derived from the same parent seed.
    ///
    /// Components each get their own stream so that adding a draw in one
    /// component does not perturb another's sequence.
    pub fn derive(&self, stream: u64) -> Self {
        // SplitMix64-style mixing of the parent's next state with the
        // stream id; cheap and adequately decorrelated for simulation use.
        let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng {
            inner: SmallRng::seed_from_u64(self.peek_state() ^ z ^ (z >> 31)),
        }
    }

    fn peek_state(&self) -> u64 {
        // Clone so peeking does not advance this generator.
        self.inner.clone().random()
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// Advances the generator past the next `n` raw 64-bit outputs in
    /// `O(log n)` without computing them: afterwards the stream continues
    /// exactly as if [`DetRng::next_u64`] had been called `n` times.
    ///
    /// This is the closed-form replacement for draw-replay loops: a span
    /// of cycles whose draws provably cannot change simulation state can
    /// be jumped over while keeping the stream bit-identical (the LLC's
    /// eager-probe span skips when no cache set holds a candidate). Note
    /// the unit is *raw outputs* — [`DetRng::below`] consumes exactly one
    /// output per call only for power-of-two bounds; callers skipping
    /// `below` draws must guarantee that property.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.inner.discard(n);
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// A power-of-two bound takes exactly one raw output and masks it,
    /// `next_u64() & (bound − 1)`: the value the rejection loop that
    /// serves every other bound would return (its acceptance zone is all
    /// of `u64` there, and `x % 2^k == x & (2^k − 1)`), without the
    /// loop's division.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        self.inner.random_range(0..bound)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.random()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let parent = DetRng::seed_from(99);
        let mut c0a = parent.derive(0);
        let mut c0b = parent.derive(0);
        let mut c1 = parent.derive(1);
        assert_eq!(c0a.next_u64(), c0b.next_u64());
        assert_ne!(c0a.next_u64(), c1.next_u64());
    }

    #[test]
    fn derive_does_not_advance_parent() {
        let mut a = DetRng::seed_from(5);
        let mut b = DetRng::seed_from(5);
        let _ = b.derive(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn skip_matches_sequential_draws() {
        // The invariant the event kernel's closed-form eager span relies
        // on: skip(n) ≡ n discarded next_u64 calls, for counts on both
        // sides of the sequential/matrix-jump threshold.
        for &n in &[0u64, 1, 7, 100, 4095, 4096, 50_000, 1 << 20] {
            let mut jumped = DetRng::seed_from(0xAB5 ^ n);
            let mut walked = jumped.clone();
            jumped.skip(n);
            for _ in 0..n {
                walked.next_u64();
            }
            for _ in 0..16 {
                assert_eq!(jumped.next_u64(), walked.next_u64(), "skip({n})");
            }
        }
    }

    #[test]
    fn skip_matches_power_of_two_below_draws() {
        // `below` with a power-of-two bound consumes exactly one raw
        // output (the Lemire rejection zone covers all of u64), so
        // skipping n raw outputs ≡ n discarded below(2^k) draws.
        for &bound in &[64u64, 128, 512, 2048] {
            let mut jumped = DetRng::seed_from(bound);
            let mut walked = jumped.clone();
            jumped.skip(1000);
            for _ in 0..1000 {
                walked.below(bound);
            }
            assert_eq!(jumped.below(bound), walked.below(bound));
        }
    }

    #[test]
    fn below_masks_one_draw_for_power_of_two_bounds() {
        for bound in [1u64, 2, 2048, 1 << 63] {
            let mut rng = DetRng::seed_from(0xB0 ^ bound);
            let mut raw = rng.clone();
            for _ in 0..64 {
                assert_eq!(
                    rng.below(bound),
                    raw.next_u64() & (bound - 1),
                    "below({bound})"
                );
            }
            assert_eq!(
                rng.next_u64(),
                raw.next_u64(),
                "below({bound}) took one draw"
            );
        }
    }

    #[test]
    fn below_keeps_the_rejection_draws_for_other_bounds() {
        // The rejection loop's draws from this seed; the power-of-two
        // path must leave every other bound's values unchanged.
        for (bound, recorded) in [
            (3u64, [1u64, 2, 0, 1, 1, 1, 2, 2]),
            (2047, [1808, 689, 809, 894, 930, 1937, 218, 588]),
        ] {
            let mut rng = DetRng::seed_from(0xB0);
            let drawn: Vec<u64> = (0..8).map(|_| rng.below(bound)).collect();
            assert_eq!(drawn, recorded, "below({bound})");
            assert_eq!(rng.next_u64(), 9_063_968_947_914_210_481);
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::seed_from(11);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn unit_f64_in_range_and_chance_behaves() {
        let mut rng = DetRng::seed_from(13);
        let mut hits = 0u32;
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            if x < 0.25 {
                hits += 1;
            }
        }
        // ~2500 expected; allow generous slack.
        assert!((1800..3200).contains(&hits), "hits = {hits}");
        assert!(!DetRng::seed_from(1).chance(0.0));
        assert!(DetRng::seed_from(1).chance(1.0 + 1e-9));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn below_zero_bound_panics() {
        let _ = DetRng::seed_from(0).below(0);
    }

    #[test]
    fn xor_stream_is_seed_from_of_xor() {
        let mut named = DetRng::xor_stream(0xDEAD_BEEF, 0x6d65_6c6c_6f77);
        let mut plain = DetRng::seed_from(0xDEAD_BEEF ^ 0x6d65_6c6c_6f77);
        for _ in 0..100 {
            assert_eq!(named.next_u64(), plain.next_u64());
        }
    }
}
