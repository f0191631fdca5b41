//! The write-latency/endurance analytic model (paper §II, Eq. 2).

use mellow_engine::Duration;

/// The exponent relating write-latency slowdown to endurance gain.
///
/// Eq. 2 of the paper: `Endurance ≈ (tWP / t0)^Expo_Factor`, derived from
/// Strukov's analytic model where `Expo_Factor = U_F/U_S − 1` ranges from
/// 1 (pessimistic, linear) to 3 (optimistic, cubic). The paper's default
/// for ReRAM is 2.0 (quadratic), and its sensitivity study (Fig. 17)
/// sweeps {1.0, 1.5, 2.0, 2.5, 3.0}.
///
/// # Examples
///
/// ```
/// use mellow_nvm::ExpoFactor;
///
/// assert_eq!(ExpoFactor::QUADRATIC.get(), 2.0);
/// assert_eq!(ExpoFactor::SENSITIVITY_SWEEP.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ExpoFactor(f64);

impl ExpoFactor {
    /// The pessimistic linear relationship (`U_F/U_S = 2`).
    pub const LINEAR: ExpoFactor = ExpoFactor(1.0);
    /// The paper's representative ReRAM value (`U_F ≳ 3 eV`).
    pub const QUADRATIC: ExpoFactor = ExpoFactor(2.0);
    /// The optimistic cubic relationship (`U_F/U_S = 4`).
    pub const CUBIC: ExpoFactor = ExpoFactor(3.0);
    /// The five values swept by the paper's sensitivity study (Fig. 17).
    pub const SENSITIVITY_SWEEP: [ExpoFactor; 5] = [
        ExpoFactor(1.0),
        ExpoFactor(1.5),
        ExpoFactor(2.0),
        ExpoFactor(2.5),
        ExpoFactor(3.0),
    ];

    /// Creates an exponent, validating it lies in the physically plausible
    /// `[1.0, 3.0]` range the paper derives.
    ///
    /// # Errors
    ///
    /// Returns `Err` with the offending value when outside `[1.0, 3.0]`
    /// or non-finite.
    pub fn new(value: f64) -> Result<Self, f64> {
        if value.is_finite() && (1.0..=3.0).contains(&value) {
            Ok(ExpoFactor(value))
        } else {
            Err(value)
        }
    }

    /// Returns the exponent value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Default for ExpoFactor {
    fn default() -> Self {
        ExpoFactor::QUADRATIC
    }
}

impl std::fmt::Display for ExpoFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N^{}", self.0)
    }
}

/// The endurance model of a resistive memory cell (paper §II).
///
/// Anchored at a *baseline* (normal) write latency and endurance, the model
/// answers two questions:
///
/// - how many writes does a cell endure if every write is slowed by a
///   factor `f`? ([`endurance_at_factor`](Self::endurance_at_factor))
/// - how much of the cell's life does a single `f`-slow write consume,
///   expressed in *normal-write equivalents*?
///   ([`wear_per_write`](Self::wear_per_write))
///
/// The second form is what the simulator accumulates: a normal write adds
/// 1.0 wear, a 3× slow write at `Expo_Factor` 2.0 adds 1/9, and a cell is
/// dead when accumulated wear reaches the baseline endurance.
///
/// # Examples
///
/// ```
/// use mellow_nvm::{EnduranceModel, ExpoFactor};
/// use mellow_engine::Duration;
///
/// let m = EnduranceModel::reram_default();
/// // Table II's four write speeds:
/// assert_eq!(m.endurance_at_factor(1.0).round(), 5.000e6);
/// assert_eq!(m.endurance_at_factor(1.5).round(), 1.125e7);
/// assert_eq!(m.endurance_at_factor(2.0).round(), 2.000e7);
/// assert_eq!(m.endurance_at_factor(3.0).round(), 4.500e7);
/// assert_eq!(m.write_latency(3.0), Duration::from_ns(450));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    base_write_latency: Duration,
    base_endurance: f64,
    expo_factor: ExpoFactor,
}

impl EnduranceModel {
    /// Creates a model anchored at `base_write_latency` / `base_endurance`.
    ///
    /// # Panics
    ///
    /// Panics if `base_endurance` is not strictly positive or
    /// `base_write_latency` is zero.
    pub fn new(base_write_latency: Duration, base_endurance: f64, expo_factor: ExpoFactor) -> Self {
        assert!(
            base_endurance > 0.0,
            "baseline endurance must be positive, got {base_endurance}"
        );
        assert!(
            base_write_latency > Duration::ZERO,
            "baseline write latency must be non-zero"
        );
        EnduranceModel {
            base_write_latency,
            base_endurance,
            expo_factor,
        }
    }

    /// The paper's representative memory-grade ReRAM device: 150 ns normal
    /// write latency, 5·10⁶ write endurance, quadratic `Expo_Factor`.
    pub fn reram_default() -> Self {
        Self::new(Duration::from_ns(150), 5e6, ExpoFactor::QUADRATIC)
    }

    /// Returns the same device with a different `Expo_Factor`
    /// (Fig. 17's sensitivity axis).
    pub fn with_expo_factor(mut self, expo_factor: ExpoFactor) -> Self {
        self.expo_factor = expo_factor;
        self
    }

    /// Returns the baseline (normal) write latency.
    pub fn base_write_latency(&self) -> Duration {
        self.base_write_latency
    }

    /// Returns the baseline (normal-write) endurance in writes.
    pub fn base_endurance(&self) -> f64 {
        self.base_endurance
    }

    /// Returns the configured exponent.
    pub fn expo_factor(&self) -> ExpoFactor {
        self.expo_factor
    }

    /// Returns the write pulse latency for a write slowed by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` (the model only describes *slowing*
    /// writes; overdriving for speed is outside Eq. 2's validity).
    pub fn write_latency(&self, factor: f64) -> Duration {
        assert!(factor >= 1.0, "latency factor must be >= 1.0, got {factor}");
        self.base_write_latency.scale(factor)
    }

    /// Returns cell endurance (total writes to failure) when every write
    /// is slowed by `factor` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn endurance_at_factor(&self, factor: f64) -> f64 {
        assert!(factor >= 1.0, "latency factor must be >= 1.0, got {factor}");
        self.base_endurance * factor.powf(self.expo_factor.get())
    }

    /// Returns the wear inflicted by one write slowed by `factor`, in
    /// normal-write equivalents (1.0 for a normal write, `1/f^E` for a
    /// slow one).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn wear_per_write(&self, factor: f64) -> f64 {
        assert!(factor >= 1.0, "latency factor must be >= 1.0, got {factor}");
        factor.powf(-self.expo_factor.get())
    }
}

impl Default for EnduranceModel {
    fn default() -> Self {
        Self::reram_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expo_factor_validation() {
        assert!(ExpoFactor::new(1.0).is_ok());
        assert!(ExpoFactor::new(3.0).is_ok());
        assert!(ExpoFactor::new(2.5).is_ok());
        assert_eq!(ExpoFactor::new(0.5), Err(0.5));
        assert_eq!(ExpoFactor::new(3.5), Err(3.5));
        assert!(ExpoFactor::new(f64::NAN).is_err());
        assert_eq!(ExpoFactor::default(), ExpoFactor::QUADRATIC);
        assert_eq!(ExpoFactor::QUADRATIC.to_string(), "N^2");
    }

    #[test]
    fn table_ii_endurance_values() {
        let m = EnduranceModel::reram_default();
        assert!((m.endurance_at_factor(1.0) - 5.000e6).abs() < 1.0);
        assert!((m.endurance_at_factor(1.5) - 1.125e7).abs() < 1.0);
        assert!((m.endurance_at_factor(2.0) - 2.000e7).abs() < 1.0);
        assert!((m.endurance_at_factor(3.0) - 4.500e7).abs() < 1.0);
    }

    #[test]
    fn table_ii_latency_values() {
        let m = EnduranceModel::reram_default();
        assert_eq!(m.write_latency(1.0), Duration::from_ns(150));
        assert_eq!(m.write_latency(1.5), Duration::from_ns(225));
        assert_eq!(m.write_latency(2.0), Duration::from_ns(300));
        assert_eq!(m.write_latency(3.0), Duration::from_ns(450));
    }

    #[test]
    fn wear_is_reciprocal_of_endurance_gain() {
        for expo in ExpoFactor::SENSITIVITY_SWEEP {
            let m = EnduranceModel::reram_default().with_expo_factor(expo);
            for factor in [1.0, 1.5, 2.0, 3.0] {
                let wear = m.wear_per_write(factor);
                let gain = m.endurance_at_factor(factor) / m.base_endurance();
                assert!(
                    (wear * gain - 1.0).abs() < 1e-12,
                    "expo={expo:?} factor={factor}"
                );
            }
        }
    }

    #[test]
    fn linear_expo_gives_linear_tradeoff() {
        let m = EnduranceModel::reram_default().with_expo_factor(ExpoFactor::LINEAR);
        assert!((m.endurance_at_factor(3.0) - 1.5e7).abs() < 1.0);
        assert!((m.wear_per_write(3.0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cubic_expo_gives_cubic_tradeoff() {
        let m = EnduranceModel::reram_default().with_expo_factor(ExpoFactor::CUBIC);
        assert!((m.endurance_at_factor(3.0) - 1.35e8).abs() < 1.0);
    }

    #[test]
    fn fig1_curve_is_monotone_in_factor_and_expo() {
        let factors: Vec<f64> = (10..=30).map(|i| i as f64 / 10.0).collect();
        let mut prev_curve: Option<Vec<f64>> = None;
        for expo in ExpoFactor::SENSITIVITY_SWEEP {
            let m = EnduranceModel::reram_default().with_expo_factor(expo);
            let curve: Vec<f64> = factors.iter().map(|&f| m.endurance_at_factor(f)).collect();
            for w in curve.windows(2) {
                assert!(w[1] > w[0], "endurance must rise with latency");
            }
            if let Some(prev) = &prev_curve {
                // At any factor > 1, a larger exponent gives more endurance.
                for (lo, hi) in prev.iter().zip(&curve).skip(1) {
                    assert!(hi > lo);
                }
            }
            prev_curve = Some(curve);
        }
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn sub_unity_factor_rejected() {
        let _ = EnduranceModel::reram_default().wear_per_write(0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_endurance_rejected() {
        let _ = EnduranceModel::new(Duration::from_ns(150), 0.0, ExpoFactor::QUADRATIC);
    }
}
