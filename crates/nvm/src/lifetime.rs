//! Lifetime projection from observed wear rates (paper §V methodology).

use crate::WearLedger;
use mellow_engine::Duration;

/// Seconds in a Julian year, the unit of the paper's lifetime figures.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Projects memory lifetime from the wear rate observed in a (short)
/// simulation.
///
/// The paper's methodology: "for a given workload, we assume the system
/// will cyclically execute the same execution pattern. Then the lifetime
/// is calculated as how much time it takes until one cell in the memory
/// system reaches its wear limit."
///
/// With Start-Gap wear leveling running at bank granularity for years of
/// cyclic execution, per-bank wear is spread almost evenly over the bank's
/// blocks; the residual unevenness is captured by a *leveling efficiency*
/// factor η (the same consideration that makes the paper budget its Wear
/// Quota at `Ratio_quota = 0.9`). A bank's projected lifetime is then
///
/// ```text
///   lifetime = η · BlkNum_bank · Endur_blk / (bank wear / elapsed)
/// ```
///
/// and the memory's lifetime is the minimum over banks. For small
/// configurations with per-block tracking enabled,
/// [`project_from_blocks`](Self::project_from_blocks) instead uses the
/// observed most-worn block directly.
///
/// # Examples
///
/// ```
/// use mellow_nvm::{CancelWear, EnduranceModel, LifetimeModel, WearLedger, SECONDS_PER_YEAR};
/// use mellow_engine::Duration;
///
/// let model = LifetimeModel::new(5e6, 1 << 20, 0.9);
/// let mut ledger = WearLedger::new(1, EnduranceModel::reram_default(), CancelWear::Prorated);
/// ledger.record_write(0, None, 1.0);
/// // One normal write per microsecond on a 1 Mi-block bank:
/// let years = model.project(&ledger, Duration::from_us(1)).min_years;
/// assert!((years - 0.9 * (1u64 << 20) as f64 * 5e6 * 1e-6 / SECONDS_PER_YEAR).abs() / years < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeModel {
    endurance_per_block: f64,
    blocks_per_bank: u64,
    leveling_efficiency: f64,
}

/// A lifetime projection: per-bank years plus the binding minimum.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeProjection {
    /// Projected lifetime of each bank, in years. Unworn banks project
    /// `f64::INFINITY`.
    pub per_bank_years: Vec<f64>,
    /// The memory lifetime: the minimum over banks.
    pub min_years: f64,
}

impl LifetimeModel {
    /// Creates a model.
    ///
    /// `endurance_per_block` is in normal-write equivalents (the paper's
    /// `Endur_blk`, 5·10⁶ by default); `blocks_per_bank` is the paper's
    /// `BlkNum_bank`; `leveling_efficiency` is η in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or η exceeds 1.
    pub fn new(endurance_per_block: f64, blocks_per_bank: u64, leveling_efficiency: f64) -> Self {
        assert!(
            endurance_per_block > 0.0,
            "block endurance must be positive"
        );
        assert!(blocks_per_bank > 0, "blocks per bank must be non-zero");
        assert!(
            leveling_efficiency > 0.0 && leveling_efficiency <= 1.0,
            "leveling efficiency must be in (0, 1], got {leveling_efficiency}"
        );
        LifetimeModel {
            endurance_per_block,
            blocks_per_bank,
            leveling_efficiency,
        }
    }

    /// Returns the total leveled wear budget of one bank, in normal-write
    /// equivalents: `η · BlkNum · Endur_blk`.
    pub fn bank_wear_budget(&self) -> f64 {
        self.leveling_efficiency * self.blocks_per_bank as f64 * self.endurance_per_block
    }

    /// Projects lifetime from per-bank aggregate wear accumulated over
    /// `elapsed` simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn project(&self, ledger: &WearLedger, elapsed: Duration) -> LifetimeProjection {
        assert!(elapsed > Duration::ZERO, "elapsed time must be non-zero");
        let elapsed_secs = elapsed.as_secs_f64();
        let budget = self.bank_wear_budget();
        let per_bank_years: Vec<f64> = ledger
            .iter()
            .map(|b| {
                if b.total_wear <= 0.0 {
                    f64::INFINITY
                } else {
                    budget / (b.total_wear / elapsed_secs) / SECONDS_PER_YEAR
                }
            })
            .collect();
        let min_years = per_bank_years.iter().copied().fold(f64::INFINITY, f64::min);
        LifetimeProjection {
            per_bank_years,
            min_years,
        }
    }

    /// Projects lifetime from the observed most-worn *block* (requires the
    /// ledger's per-block table): `Endur_blk / (max block wear / elapsed)`.
    ///
    /// Returns `None` when the ledger has no block table.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn project_from_blocks(&self, ledger: &WearLedger, elapsed: Duration) -> Option<f64> {
        assert!(elapsed > Duration::ZERO, "elapsed time must be non-zero");
        let table = ledger.block_table()?;
        let max_wear = table.max_wear();
        Some(if max_wear <= 0.0 {
            f64::INFINITY
        } else {
            self.endurance_per_block / (max_wear / elapsed.as_secs_f64()) / SECONDS_PER_YEAR
        })
    }

    /// Projects the time until usable capacity drops below
    /// `capacity_fraction` (e.g. `0.95` for the years-to-95%-capacity
    /// figure), under lognormal per-block endurance variation of sigma
    /// `endurance_sigma` around the block endurance.
    ///
    /// Framing lifetime as capacity decay instead of a first-failure
    /// cliff (Escuin et al.): with leveling spreading a bank's wear
    /// evenly, blocks fail in ascending order of their sampled limits,
    /// so capacity falls below fraction `q` once per-block wear reaches
    /// the `(1 − q)` quantile of the limit distribution,
    /// `Endur_blk · exp(sigma · Φ⁻¹(1 − q))`. The projection divides
    /// that by the observed per-block wear rate
    /// (`bank wear / (η · BlkNum)` per second) and takes the minimum
    /// over banks. With `endurance_sigma = 0` every threshold collapses
    /// to the first-failure projection ([`project`](Self::project)'s
    /// `min_years`).
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero, `capacity_fraction` is outside
    /// `(0, 1)`, or `endurance_sigma` is negative.
    pub fn years_to_capacity(
        &self,
        ledger: &WearLedger,
        elapsed: Duration,
        endurance_sigma: f64,
        capacity_fraction: f64,
    ) -> f64 {
        assert!(elapsed > Duration::ZERO, "elapsed time must be non-zero");
        assert!(
            capacity_fraction > 0.0 && capacity_fraction < 1.0,
            "capacity fraction must be in (0, 1), got {capacity_fraction}"
        );
        assert!(
            endurance_sigma >= 0.0,
            "endurance sigma must be non-negative, got {endurance_sigma}"
        );
        let elapsed_secs = elapsed.as_secs_f64();
        let quantile_limit = self.endurance_per_block
            * (endurance_sigma * inverse_normal_cdf(1.0 - capacity_fraction)).exp();
        let leveled_blocks = self.leveling_efficiency * self.blocks_per_bank as f64;
        ledger
            .iter()
            .map(|b| {
                if b.total_wear <= 0.0 {
                    f64::INFINITY
                } else {
                    let per_block_rate = b.total_wear / elapsed_secs / leveled_blocks;
                    quantile_limit / per_block_rate / SECONDS_PER_YEAR
                }
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The standard normal inverse CDF Φ⁻¹ (Acklam's rational
/// approximation, relative error < 1.2e-9 over (0, 1)).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile probability must be in (0, 1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - P_LOW {
        -inverse_normal_cdf(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelWear, EnduranceModel};

    fn ledger(banks: usize) -> WearLedger {
        WearLedger::new(banks, EnduranceModel::reram_default(), CancelWear::Prorated)
    }

    #[test]
    fn unworn_memory_lives_forever() {
        let model = LifetimeModel::new(5e6, 1024, 0.9);
        let proj = model.project(&ledger(4), Duration::from_us(1));
        assert!(proj.min_years.is_infinite());
        assert!(proj.per_bank_years.iter().all(|y| y.is_infinite()));
    }

    #[test]
    fn min_over_banks_binds() {
        let model = LifetimeModel::new(5e6, 1024, 0.9);
        let mut l = ledger(2);
        l.record_write(0, None, 1.0);
        for _ in 0..10 {
            l.record_write(1, None, 1.0);
        }
        let proj = model.project(&l, Duration::from_us(1));
        assert!(proj.per_bank_years[1] < proj.per_bank_years[0]);
        assert_eq!(proj.min_years, proj.per_bank_years[1]);
        // 10x the wear -> 1/10 the lifetime.
        assert!((proj.per_bank_years[0] / proj.per_bank_years[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slow_writes_extend_projected_lifetime_by_wear_ratio() {
        let model = LifetimeModel::new(5e6, 1024, 0.9);
        let mut norm = ledger(1);
        let mut slow = ledger(1);
        for _ in 0..100 {
            norm.record_write(0, None, 1.0);
            slow.record_write(0, None, 3.0);
        }
        let e = Duration::from_us(10);
        let ratio = model.project(&slow, e).min_years / model.project(&norm, e).min_years;
        assert!((ratio - 9.0).abs() < 1e-9, "quadratic 3x slow = 9x life");
    }

    #[test]
    fn efficiency_scales_linearly() {
        let mut l = ledger(1);
        l.record_write(0, None, 1.0);
        let e = Duration::from_us(1);
        let y_09 = LifetimeModel::new(5e6, 64, 0.9).project(&l, e).min_years;
        let y_10 = LifetimeModel::new(5e6, 64, 1.0).project(&l, e).min_years;
        assert!((y_09 / y_10 - 0.9).abs() < 1e-12);
    }

    #[test]
    fn block_projection_uses_max_block() {
        let model = LifetimeModel::new(100.0, 16, 1.0);
        let mut l = ledger(1).with_block_tracking(16);
        // Block 5 takes 10 writes over 1 us -> dies after 100/10 us... i.e.
        // lifetime = 100/(10/1e-6 s) = 10 us.
        for _ in 0..10 {
            l.record_write(0, Some(5), 1.0);
        }
        let years = model.project_from_blocks(&l, Duration::from_us(1)).unwrap();
        let expect = 10e-6 / SECONDS_PER_YEAR;
        assert!((years - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn block_projection_none_without_table() {
        let model = LifetimeModel::new(5e6, 16, 0.9);
        assert!(model
            .project_from_blocks(&ledger(1), Duration::from_us(1))
            .is_none());
    }

    #[test]
    fn bank_wear_budget_formula() {
        let model = LifetimeModel::new(5e6, 1 << 20, 0.9);
        let expect = 0.9 * (1u64 << 20) as f64 * 5e6;
        assert!((model.bank_wear_budget() - expect).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn efficiency_above_one_rejected() {
        let _ = LifetimeModel::new(5e6, 16, 1.1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_elapsed_rejected() {
        let model = LifetimeModel::new(5e6, 16, 0.9);
        let _ = model.project(&ledger(1), Duration::ZERO);
    }

    #[test]
    fn inverse_normal_cdf_matches_known_quantiles() {
        for (p, z) in [
            (0.5, 0.0),
            (0.05, -1.6448536269514722),
            (0.95, 1.6448536269514722),
            (0.975, 1.959963984540054),
            (0.01, -2.3263478740408408),
            (0.001, -3.090232306167813),
        ] {
            let got = inverse_normal_cdf(p);
            assert!((got - z).abs() < 1e-6, "phi_inv({p}) = {got}, want {z}");
        }
    }

    #[test]
    fn zero_sigma_capacity_projection_equals_first_failure() {
        let model = LifetimeModel::new(5e6, 1024, 0.9);
        let mut l = ledger(2);
        for _ in 0..7 {
            l.record_write(0, None, 1.0);
        }
        l.record_write(1, None, 3.0);
        let e = Duration::from_us(5);
        let first = model.project(&l, e).min_years;
        for fraction in [0.99, 0.95, 0.5] {
            let years = model.years_to_capacity(&l, e, 0.0, fraction);
            assert!(
                (years - first).abs() / first < 1e-12,
                "sigma 0, fraction {fraction}: {years} vs {first}"
            );
        }
    }

    #[test]
    fn capacity_projection_monotone_in_threshold_and_sigma() {
        let model = LifetimeModel::new(5e6, 1024, 0.9);
        let mut l = ledger(1);
        l.record_write(0, None, 1.0);
        let e = Duration::from_us(1);
        let y99 = model.years_to_capacity(&l, e, 0.3, 0.99);
        let y95 = model.years_to_capacity(&l, e, 0.3, 0.95);
        let y50 = model.years_to_capacity(&l, e, 0.3, 0.50);
        // Losing more capacity takes longer; the weakest 1% fail first.
        assert!(y99 < y95 && y95 < y50, "{y99} {y95} {y50}");
        // Wider variation pulls the early-failure tail earlier.
        let tight = model.years_to_capacity(&l, e, 0.1, 0.95);
        let wide = model.years_to_capacity(&l, e, 0.5, 0.95);
        assert!(wide < tight, "{wide} vs {tight}");
        // At the median threshold sigma cancels out of nothing: the 50%
        // point of a lognormal is the median, exp(0) x base.
        let m_tight = model.years_to_capacity(&l, e, 0.1, 0.5);
        let m_wide = model.years_to_capacity(&l, e, 0.5, 0.5);
        assert!((m_tight - m_wide).abs() / m_tight < 1e-9);
    }

    #[test]
    fn unworn_memory_never_loses_capacity() {
        let model = LifetimeModel::new(5e6, 1024, 0.9);
        assert!(model
            .years_to_capacity(&ledger(3), Duration::from_us(1), 0.2, 0.95)
            .is_infinite());
    }

    #[test]
    #[should_panic(expected = "(0, 1)")]
    fn capacity_fraction_one_rejected() {
        let model = LifetimeModel::new(5e6, 16, 0.9);
        let _ = model.years_to_capacity(&ledger(1), Duration::from_us(1), 0.1, 1.0);
    }
}
