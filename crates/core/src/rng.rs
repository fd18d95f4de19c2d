//! Random draw sources for the lottery managers.

use crate::lfsr::Lfsr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A source of bounded uniform random draws — the "pick a winning
/// ticket" step of the lottery.
pub trait RandomSource {
    /// Draws a value uniformly from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `bound` is zero.
    fn draw(&mut self, bound: u32) -> u32;

    /// A short name for reports ("lfsr", "stdrng", …).
    fn name(&self) -> &str;
}

impl<T: RandomSource + ?Sized> RandomSource for Box<T> {
    fn draw(&mut self, bound: u32) -> u32 {
        (**self).draw(bound)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Enum dispatch over the built-in draw sources.
///
/// The lottery managers draw once per contended arbitration — a hot-path
/// call. Holding the source as this enum lets the compiler resolve the
/// built-in cases statically (and inline the LFSR step) instead of going
/// through a `Box<dyn RandomSource>` vtable; [`RandomSourceKind::Custom`]
/// keeps arbitrary user sources pluggable at the old cost.
pub enum RandomSourceKind {
    /// Hardware-faithful maximal-length LFSR draws.
    Lfsr(LfsrSource),
    /// Ideal uniform software draws (ablations).
    StdRng(StdRngSource),
    /// Any other [`RandomSource`], dispatched virtually.
    Custom(Box<dyn RandomSource>),
}

impl fmt::Debug for RandomSourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RandomSourceKind::Lfsr(s) => f.debug_tuple("Lfsr").field(s).finish(),
            RandomSourceKind::StdRng(s) => f.debug_tuple("StdRng").field(s).finish(),
            RandomSourceKind::Custom(s) => f.debug_tuple("Custom").field(&s.name()).finish(),
        }
    }
}

impl RandomSource for RandomSourceKind {
    #[inline]
    fn draw(&mut self, bound: u32) -> u32 {
        match self {
            RandomSourceKind::Lfsr(s) => s.draw(bound),
            RandomSourceKind::StdRng(s) => s.draw(bound),
            RandomSourceKind::Custom(s) => s.draw(bound),
        }
    }

    fn name(&self) -> &str {
        match self {
            RandomSourceKind::Lfsr(s) => s.name(),
            RandomSourceKind::StdRng(s) => s.name(),
            RandomSourceKind::Custom(s) => s.name(),
        }
    }
}

impl From<LfsrSource> for RandomSourceKind {
    fn from(source: LfsrSource) -> Self {
        RandomSourceKind::Lfsr(source)
    }
}

impl From<StdRngSource> for RandomSourceKind {
    fn from(source: StdRngSource) -> Self {
        RandomSourceKind::StdRng(source)
    }
}

impl From<Box<dyn RandomSource>> for RandomSourceKind {
    fn from(source: Box<dyn RandomSource>) -> Self {
        RandomSourceKind::Custom(source)
    }
}

/// Reduces `x` into `[0, d)` with a multiply-shift reciprocal, producing
/// exactly `x % d` for every 32-bit `x` (Lemire's exact-division trick).
///
/// `m` must be the cached reciprocal `u64::MAX / d + 1` for `d >= 2`.
/// Correctness: `m = ceil(2^64 / d)`, so `m·x = x·2^64/d + e·x` with
/// `0 <= e < 1`; the low 64 bits of `m·x` are `(x mod d)·2^64/d` plus an
/// error term below `2^64/d`, and multiplying by `d` and taking the high
/// word recovers `x mod d` exactly because both operands fit in 32 bits.
/// The exhaustive test below checks every bound up to `2^16` against the
/// hardware modulo.
#[inline]
pub(crate) fn mul_shift_mod(x: u32, d: u32, m: u64) -> u32 {
    let low = m.wrapping_mul(u64::from(x));
    ((u128::from(low) * u128::from(d)) >> 64) as u32
}

/// The reciprocal `mul_shift_mod` expects for divisor `d >= 2`.
#[inline]
pub(crate) fn mod_reciprocal(d: u32) -> u64 {
    debug_assert!(d >= 2);
    u64::MAX / u64::from(d) + 1
}

/// Hardware-faithful draw source: a maximal-length [`Lfsr`].
///
/// For power-of-two bounds it collects `log2(bound)` output bits — the
/// static manager's fast path (§4.3). For other bounds it samples one
/// register-width word (`max(width, ceil(log2(bound)))` bits, so the
/// sample always covers the bound) and reduces it modulo the bound,
/// mirroring the dynamic manager's modulo hardware (§4.4), which
/// latches the whole register and feeds it to the modulo unit.
///
/// The modulo introduces the same slight bias the hardware would have:
/// with `b` collected bits the probability of any residue deviates from
/// `1/bound` by less than `bound / 2^b ≤ bound / 2^width`. Use a
/// power-of-two bound (via ticket scaling) when exact proportionality
/// matters.
#[derive(Debug, Clone)]
pub struct LfsrSource {
    lfsr: Lfsr,
    /// Cached `(bound, reciprocal)` for the modulo path: arbitration
    /// draws reuse the same bound for long stretches (the ticket total
    /// only changes when the contender set does), so the division in
    /// [`mod_reciprocal`] is paid once per distinct bound, and each draw
    /// reduces with two multiplies instead of a hardware divide.
    reciprocal: (u32, u64),
}

/// Equality is the register state alone; the reciprocal cache is a pure
/// function of the last bound and carries no entropy.
impl PartialEq for LfsrSource {
    fn eq(&self, other: &Self) -> bool {
        self.lfsr == other.lfsr
    }
}

impl Eq for LfsrSource {}

impl LfsrSource {
    /// Creates a source backed by a `width`-bit LFSR.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `2..=32`.
    pub fn new(width: u32, seed: u32) -> Self {
        LfsrSource { lfsr: Lfsr::new(width, seed), reciprocal: (0, 0) }
    }

    /// Access to the underlying register (e.g. to inspect its state).
    pub fn lfsr(&self) -> &Lfsr {
        &self.lfsr
    }
}

impl RandomSource for LfsrSource {
    fn draw(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "draw bound must be nonzero");
        if bound == 1 {
            return 0;
        }
        if bound.is_power_of_two() {
            // Static-manager fast path: exactly log2(bound) output bits.
            self.lfsr.next_bits(31 - (bound - 1).leading_zeros() + 1)
        } else {
            // Dynamic-manager path: one register-width sample reduced
            // modulo the bound, exactly as the hardware latches the
            // register into the modulo unit. Collecting a fixed 32 bits
            // here (the old behaviour) would span multiple periods of a
            // narrow register and correlate successive draws; width
            // bits shift the whole register once per draw instead. When
            // the bound needs more bits than the register holds, widen
            // the sample just enough to cover it (bias < bound / 2^bits).
            let need = 32 - (bound - 1).leading_zeros();
            let bits = self.lfsr.width().max(need);
            let sample = self.lfsr.next_bits(bits);
            if self.reciprocal.0 != bound {
                self.reciprocal = (bound, mod_reciprocal(bound));
            }
            mul_shift_mod(sample, bound, self.reciprocal.1)
        }
    }

    fn name(&self) -> &str {
        "lfsr"
    }
}

/// Software draw source backed by [`rand::rngs::StdRng`]; produces
/// exactly uniform draws for any bound. Used in ablations to isolate the
/// effect of LFSR-based draws.
pub struct StdRngSource {
    rng: StdRng,
}

impl StdRngSource {
    /// Creates a source seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        StdRngSource { rng: StdRng::seed_from_u64(seed) }
    }
}

impl fmt::Debug for StdRngSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StdRngSource").finish_non_exhaustive()
    }
}

impl RandomSource for StdRngSource {
    fn draw(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "draw bound must be nonzero");
        self.rng.gen_range(0..bound)
    }

    fn name(&self) -> &str {
        "stdrng"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bounds(source: &mut dyn RandomSource) {
        for bound in [1u32, 2, 3, 7, 8, 10, 100, 1 << 16] {
            for _ in 0..200 {
                assert!(source.draw(bound) < bound, "draw out of range for bound {bound}");
            }
        }
    }

    #[test]
    fn lfsr_draws_stay_in_bounds() {
        check_bounds(&mut LfsrSource::new(20, 7));
    }

    #[test]
    fn stdrng_draws_stay_in_bounds() {
        check_bounds(&mut StdRngSource::new(3));
    }

    #[test]
    fn lfsr_power_of_two_draws_are_balanced() {
        let mut source = LfsrSource::new(16, 0xACE1);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[source.draw(4) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn non_power_of_two_draw_consumes_one_register_width() {
        // Regression: the modulo path collected a fixed 32 bits, so a
        // width-8 register was wound through its period 32/8 = 4 times
        // per draw and successive draws were correlated. One draw must
        // advance the register exactly `width` steps (the hardware
        // latches the whole register once into the modulo unit).
        let mut source = LfsrSource::new(8, 0x5A);
        let mut shadow = Lfsr::new(8, 0x5A);
        let expected = shadow.next_bits(8) % 10;
        assert_eq!(source.draw(10), expected);
        assert_eq!(source.lfsr().state(), shadow.state(), "register advanced past one width");
    }

    #[test]
    fn wide_bounds_on_narrow_registers_still_cover_the_range() {
        // A 4-bit register asked for draws in [0, 100): the sample is
        // widened to ceil(log2(100)) = 7 bits so every value is
        // reachable; values above 15 must actually occur.
        let mut source = LfsrSource::new(4, 0xE);
        let mut above_register_range = 0;
        for _ in 0..200 {
            let draw = source.draw(100);
            assert!(draw < 100);
            if draw > 15 {
                above_register_range += 1;
            }
        }
        assert!(above_register_range > 50, "only {above_register_range}/200 draws above 15");
    }

    #[test]
    fn narrow_register_modulo_draws_are_balanced() {
        // Width 7 steps its full 127-state period over 127 draws (7 is
        // coprime to 127), so the empirical distribution over one full
        // sweep is the exact distribution of state % bound.
        let mut source = LfsrSource::new(7, 0x2B);
        let mut counts = [0u32; 5];
        const DRAWS: u32 = 635; // 5 full periods
        for _ in 0..DRAWS {
            counts[source.draw(5) as usize] += 1;
        }
        let expected = DRAWS / 5;
        for (residue, &count) in counts.iter().enumerate() {
            assert!(
                count >= expected / 2 && count <= expected * 2,
                "residue {residue}: {count}/{DRAWS} draws"
            );
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_bound_panics() {
        LfsrSource::new(8, 1).draw(0);
    }

    #[test]
    fn names_identify_sources() {
        assert_eq!(LfsrSource::new(8, 1).name(), "lfsr");
        assert_eq!(StdRngSource::new(1).name(), "stdrng");
    }

    #[test]
    fn kind_delegates_to_wrapped_sources() {
        let mut kinds = [
            RandomSourceKind::from(LfsrSource::new(16, 0xACE1)),
            RandomSourceKind::from(StdRngSource::new(5)),
            RandomSourceKind::from(Box::new(LfsrSource::new(16, 0xACE1)) as Box<dyn RandomSource>),
        ];
        assert_eq!(kinds[0].name(), "lfsr");
        assert_eq!(kinds[1].name(), "stdrng");
        assert_eq!(kinds[2].name(), "lfsr");
        for kind in &mut kinds {
            check_bounds(kind);
        }
        // Enum-wrapped and boxed LFSRs draw the identical stream.
        let mut direct = LfsrSource::new(20, 0xBEEF);
        let mut wrapped = RandomSourceKind::from(LfsrSource::new(20, 0xBEEF));
        let mut boxed =
            RandomSourceKind::from(Box::new(LfsrSource::new(20, 0xBEEF)) as Box<dyn RandomSource>);
        for bound in [2u32, 3, 7, 10, 100, 1000, 1 << 12] {
            for _ in 0..50 {
                let want = direct.draw(bound);
                assert_eq!(wrapped.draw(bound), want);
                assert_eq!(boxed.draw(bound), want);
            }
        }
    }

    /// The multiply-shift reduction must equal the hardware modulo
    /// bit-for-bit. Every bound up to 2^16 is checked against a
    /// structured sample set: an exhaustive low region, values straddling
    /// every small multiple of the bound (where floor/ceiling errors
    /// would surface), and the extremes of every LFSR register width
    /// (2..=32) — the exact values `next_bits` can hand the reducer.
    /// Small bounds additionally get a fully exhaustive 16-bit sweep.
    #[test]
    fn multiply_shift_reduction_matches_modulo_exactly() {
        fn check(x: u32, bound: u32, m: u64) {
            assert_eq!(mul_shift_mod(x, bound, m), x % bound, "x={x} bound={bound}");
        }
        for bound in 2u32..=(1 << 16) {
            let m = mod_reciprocal(bound);
            for x in 0..48u32 {
                check(x, bound, m);
            }
            // Straddle k·bound for small k and for the largest k that
            // fits in 32 bits: the carry boundaries of the reduction.
            let top_k = u32::MAX / bound;
            for k in [1u32, 2, 3, top_k.saturating_sub(1), top_k] {
                let base = bound.wrapping_mul(k);
                for delta in 0..3u32 {
                    check(base.wrapping_sub(delta), bound, m);
                    check(base.wrapping_add(delta), bound, m);
                }
            }
            // Register-width extremes: an LFSR never emits 0 from a full
            // register, but `next_bits` widens past the register for
            // large bounds, so cover all-ones and the half point of
            // every width the source can be built with.
            for width in 2u32..=32 {
                let ones = (((1u64 << width) - 1) & 0xFFFF_FFFF) as u32;
                check(ones, bound, m);
                check(ones >> 1, bound, m);
                check(1u32 << (width - 1), bound, m);
            }
        }
        // Fully exhaustive slab: every 16-bit sample for every bound the
        // narrow registers (width <= 7) would pair with small totals.
        for bound in 2u32..=128 {
            let m = mod_reciprocal(bound);
            for x in 0..=u16::MAX {
                check(u32::from(x), bound, m);
            }
        }
    }

    #[test]
    fn reciprocal_cache_does_not_perturb_the_draw_stream() {
        // Alternate between two non-power-of-two bounds so the cache
        // misses every draw; results must match a cache-cold source.
        let mut source = LfsrSource::new(16, 0x1234);
        let mut shadow = Lfsr::new(16, 0x1234);
        for i in 0..500u32 {
            let bound = if i % 2 == 0 { 10 } else { 23 };
            let expected = shadow.next_bits(16) % bound;
            assert_eq!(source.draw(bound), expected);
        }
    }
}
