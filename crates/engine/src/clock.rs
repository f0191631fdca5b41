//! Fixed-frequency clock domains.

use crate::{Duration, SimTime};

/// A fixed-frequency clock domain.
///
/// Converts between cycle counts and simulation time. The period must be an
/// integer number of picoseconds, which holds for every frequency used by
/// the paper's configuration (2 GHz core = 500 ps, 400 MHz memory = 2500 ps).
///
/// # Examples
///
/// ```
/// use mellow_engine::{Clock, Duration, SimTime};
///
/// let mem = Clock::from_mhz(400);
/// assert_eq!(mem.period(), Duration::from_ps(2500));
/// // A 60-cycle write pulse at 400 MHz is the paper's 150 ns normal write.
/// assert_eq!(mem.cycles_to_duration(60), Duration::from_ns(150));
/// assert_eq!(mem.cycle_at(SimTime::from_ns(150)), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// Creates a clock running at `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or the period is not a whole number of
    /// picoseconds (i.e. `mhz` does not divide 10⁶).
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be non-zero");
        assert!(
            1_000_000 % mhz == 0,
            "{mhz} MHz has a non-integral picosecond period"
        );
        Clock {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// Creates a clock running at `ghz` gigahertz.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Clock::from_mhz`].
    pub fn from_ghz(ghz: u64) -> Self {
        Self::from_mhz(ghz * 1000)
    }

    /// Returns the clock period.
    #[inline]
    pub fn period(&self) -> Duration {
        Duration::from_ps(self.period_ps)
    }

    /// Returns the span occupied by `cycles` clock cycles.
    #[inline]
    pub fn cycles_to_duration(&self, cycles: u64) -> Duration {
        Duration::from_ps(self.period_ps * cycles)
    }

    /// Returns the instant of the rising edge of cycle `cycles`.
    #[inline]
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        SimTime::from_ps(self.period_ps * cycles)
    }

    /// Returns the index of the cycle containing (or starting at) `time`.
    #[inline]
    pub fn cycle_at(&self, time: SimTime) -> u64 {
        time.as_ps() / self.period_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_domains() {
        let core = Clock::from_ghz(2);
        assert_eq!(core.period(), Duration::from_ps(500));
        let mem = Clock::from_mhz(400);
        assert_eq!(mem.period(), Duration::from_ps(2500));
        // Table II: tRCD = 48 memory cycles = 120 ns.
        assert_eq!(mem.cycles_to_duration(48), Duration::from_ns(120));
        // Table II: 3.0x slow write = 180 cycles = 450 ns.
        assert_eq!(mem.cycles_to_duration(180), Duration::from_ns(450));
    }

    #[test]
    fn cycle_indexing() {
        let mem = Clock::from_mhz(400);
        assert_eq!(mem.cycle_at(SimTime::ZERO), 0);
        assert_eq!(mem.cycle_at(SimTime::from_ps(2499)), 0);
        assert_eq!(mem.cycle_at(SimTime::from_ps(2500)), 1);
    }

    #[test]
    #[should_panic(expected = "non-integral")]
    fn rejects_awkward_frequency() {
        let _ = Clock::from_mhz(3);
    }
}
