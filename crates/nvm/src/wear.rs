//! Wear bookkeeping for a resistive memory system.

use crate::EnduranceModel;

/// How much wear a *cancelled* write attempt inflicts.
///
/// The paper notes that write cancellation "comes at a penalty to memory
/// lifetime due to the multiple write attempts" without giving a formula,
/// so the charging policy is a knob:
///
/// - `Prorated` (default) — the aborted pulse wears the cell in proportion
///   to the fraction of the pulse completed before cancellation.
/// - `Full` — pessimistic: every attempt counts as a whole write.
/// - `None` — optimistic: aborted pulses are free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CancelWear {
    /// Charge wear proportional to the completed fraction of the pulse.
    #[default]
    Prorated,
    /// Charge a full write's wear per attempt.
    Full,
    /// Charge nothing for aborted attempts.
    None,
}

impl CancelWear {
    /// Returns the wear multiplier for an attempt that completed
    /// `fraction` of its pulse before being cancelled.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn charge(self, fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "completed fraction must be in [0, 1], got {fraction}"
        );
        match self {
            CancelWear::Prorated => fraction,
            CancelWear::Full => 1.0,
            CancelWear::None => 0.0,
        }
    }
}

/// Accumulated wear and write counts for one memory bank.
///
/// Wear is measured in *normal-write equivalents*: a normal write adds 1.0
/// and an `f`-slow write adds `1/f^Expo_Factor` (see
/// [`EnduranceModel::wear_per_write`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BankWear {
    /// Total wear in normal-write equivalents (demand + cancelled +
    /// leveling overhead).
    pub total_wear: f64,
    /// Completed writes issued at normal speed.
    pub normal_writes: u64,
    /// Completed writes issued at a slowed speed.
    pub slow_writes: u64,
    /// Write attempts aborted by write cancellation.
    pub cancelled_writes: u64,
    /// Charged full-write equivalents from cancelled *normal* attempts.
    pub cancelled_normal_equiv: f64,
    /// Charged full-write equivalents from cancelled *slow* attempts.
    pub cancelled_slow_equiv: f64,
    /// Extra physical writes performed by wear-leveling (Start-Gap gap
    /// movement).
    pub leveling_writes: u64,
}

mellow_engine::impl_json_fields!(BankWear {
    total_wear,
    normal_writes,
    slow_writes,
    cancelled_writes,
    cancelled_normal_equiv,
    cancelled_slow_equiv,
    leveling_writes,
});

impl BankWear {
    /// Returns the number of completed demand writes (normal + slow).
    pub fn completed_writes(&self) -> u64 {
        self.normal_writes + self.slow_writes
    }

    /// Recomputes this bank's total wear under a different endurance
    /// exponent and slow factor, from the recorded per-speed counts.
    ///
    /// Valid because scheduling decisions do not depend on the exponent
    /// (absent Wear Quota), so the same run's write counts apply — this
    /// is how the Fig. 17 sensitivity study avoids re-simulating per
    /// exponent.
    pub fn wear_under(&self, expo_factor: f64, slow_factor: f64) -> f64 {
        let normal =
            self.normal_writes as f64 + self.leveling_writes as f64 + self.cancelled_normal_equiv;
        let slow = self.slow_writes as f64 + self.cancelled_slow_equiv;
        normal + slow * slow_factor.powf(-expo_factor)
    }
}

/// Optional per-block wear table for small configurations.
///
/// The default 16 GiB system tracks wear per bank (the quantity Start-Gap
/// levels and the Wear Quota budgets); tests and validation runs on small
/// memories additionally track every block to check the aggregate model
/// against ground truth.
#[derive(Debug, Clone)]
pub struct BlockWearTable {
    blocks_per_bank: u64,
    /// `wear[bank][block]`, in normal-write equivalents.
    wear: Vec<Vec<f64>>,
}

impl BlockWearTable {
    /// Creates a zeroed table of `banks * blocks_per_bank` block counters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(banks: usize, blocks_per_bank: u64) -> Self {
        assert!(banks > 0, "bank count must be non-zero");
        assert!(blocks_per_bank > 0, "block count must be non-zero");
        BlockWearTable {
            blocks_per_bank,
            wear: vec![vec![0.0; blocks_per_bank as usize]; banks],
        }
    }

    /// Adds `wear` to a physical block.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `block` is out of range.
    pub fn add(&mut self, bank: usize, block: u64, wear: f64) {
        self.wear[bank][block as usize] += wear;
    }

    /// Returns the wear of a single block.
    pub fn get(&self, bank: usize, block: u64) -> f64 {
        self.wear[bank][block as usize]
    }

    /// Returns the maximum block wear across the whole memory.
    pub fn max_wear(&self) -> f64 {
        self.wear
            .iter()
            .flat_map(|b| b.iter())
            .fold(0.0f64, |a, &w| a.max(w))
    }

    /// Returns the number of blocks per bank.
    pub fn blocks_per_bank(&self) -> u64 {
        self.blocks_per_bank
    }
}

/// The system-wide wear ledger: per-bank aggregates plus an optional
/// per-block table.
///
/// # Examples
///
/// ```
/// use mellow_nvm::{CancelWear, EnduranceModel, WearLedger};
///
/// let mut ledger = WearLedger::new(16, EnduranceModel::reram_default(), CancelWear::Prorated);
/// ledger.record_write(3, None, 1.0);  // a normal write to bank 3
/// ledger.record_write(3, None, 3.0);  // a 3x slow write
/// let wear = ledger.bank(3).total_wear;
/// assert!((wear - (1.0 + 1.0 / 9.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WearLedger {
    banks: Vec<BankWear>,
    per_block: Option<BlockWearTable>,
    endurance: EnduranceModel,
    cancel_wear: CancelWear,
}

impl WearLedger {
    /// Creates a ledger for `banks` banks without per-block tracking.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize, endurance: EnduranceModel, cancel_wear: CancelWear) -> Self {
        assert!(banks > 0, "bank count must be non-zero");
        WearLedger {
            banks: vec![BankWear::default(); banks],
            per_block: None,
            endurance,
            cancel_wear,
        }
    }

    /// Enables per-block tracking with `blocks_per_bank` blocks per bank.
    pub fn with_block_tracking(mut self, blocks_per_bank: u64) -> Self {
        self.per_block = Some(BlockWearTable::new(self.banks.len(), blocks_per_bank));
        self
    }

    /// Returns the endurance model used to convert latency factors to wear.
    pub fn endurance(&self) -> &EnduranceModel {
        &self.endurance
    }

    /// Records a completed write to `bank` at latency `factor` (1.0 =
    /// normal). `block` is the physical block index when per-block
    /// tracking is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or `factor < 1.0`.
    pub fn record_write(&mut self, bank: usize, block: Option<u64>, factor: f64) {
        let wear = self.endurance.wear_per_write(factor);
        let entry = &mut self.banks[bank];
        entry.total_wear += wear;
        if factor <= 1.0 {
            entry.normal_writes += 1;
        } else {
            entry.slow_writes += 1;
        }
        self.track_block(bank, block, wear);
    }

    /// Records a write attempt cancelled after completing `fraction` of
    /// its pulse, charged per the configured [`CancelWear`] policy.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range, `factor < 1.0`, or `fraction`
    /// is outside `[0, 1]`.
    pub fn record_cancelled(
        &mut self,
        bank: usize,
        block: Option<u64>,
        factor: f64,
        fraction: f64,
    ) {
        let charge = self.cancel_wear.charge(fraction);
        let wear = self.endurance.wear_per_write(factor) * charge;
        let entry = &mut self.banks[bank];
        entry.total_wear += wear;
        entry.cancelled_writes += 1;
        if factor <= 1.0 {
            entry.cancelled_normal_equiv += charge;
        } else {
            entry.cancelled_slow_equiv += charge;
        }
        self.track_block(bank, block, wear);
    }

    /// Records an extra physical write performed by wear leveling (always
    /// at normal speed in this model).
    pub fn record_leveling_write(&mut self, bank: usize, block: Option<u64>) {
        let entry = &mut self.banks[bank];
        entry.total_wear += 1.0;
        entry.leveling_writes += 1;
        self.track_block(bank, block, 1.0);
    }

    fn track_block(&mut self, bank: usize, block: Option<u64>, wear: f64) {
        if let (Some(table), Some(block)) = (self.per_block.as_mut(), block) {
            table.add(bank, block, wear);
        }
    }

    /// Returns the wear record of one bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: usize) -> &BankWear {
        &self.banks[bank]
    }

    /// Iterates over all per-bank wear records.
    pub fn iter(&self) -> impl Iterator<Item = &BankWear> {
        self.banks.iter()
    }

    /// Returns total wear summed over all banks.
    pub fn total_wear(&self) -> f64 {
        self.banks.iter().map(|b| b.total_wear).sum()
    }

    /// Returns the per-block table, when tracking is enabled.
    pub fn block_table(&self) -> Option<&BlockWearTable> {
        self.per_block.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> WearLedger {
        WearLedger::new(4, EnduranceModel::reram_default(), CancelWear::Prorated)
    }

    #[test]
    fn normal_and_slow_wear_accumulate() {
        let mut l = ledger();
        l.record_write(0, None, 1.0);
        l.record_write(0, None, 3.0);
        let b = l.bank(0);
        assert_eq!(b.normal_writes, 1);
        assert_eq!(b.slow_writes, 1);
        assert!((b.total_wear - (1.0 + 1.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn cancelled_write_prorated() {
        let mut l = ledger();
        l.record_cancelled(1, None, 1.0, 0.5);
        let b = l.bank(1);
        assert_eq!(b.cancelled_writes, 1);
        assert_eq!(b.completed_writes(), 0);
        assert!((b.total_wear - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cancelled_write_full_and_none_policies() {
        let mut full = WearLedger::new(1, EnduranceModel::reram_default(), CancelWear::Full);
        full.record_cancelled(0, None, 1.0, 0.1);
        assert!((full.bank(0).total_wear - 1.0).abs() < 1e-12);

        let mut none = WearLedger::new(1, EnduranceModel::reram_default(), CancelWear::None);
        none.record_cancelled(0, None, 1.0, 0.9);
        assert_eq!(none.bank(0).total_wear, 0.0);
    }

    #[test]
    fn cancelled_slow_write_wear_scales_with_speed() {
        let mut l = ledger();
        l.record_cancelled(0, None, 3.0, 1.0);
        assert!((l.bank(0).total_wear - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn leveling_writes_counted_separately() {
        let mut l = ledger();
        l.record_leveling_write(2, None);
        let b = l.bank(2);
        assert_eq!(b.leveling_writes, 1);
        assert_eq!(b.completed_writes(), 0);
        assert!((b.total_wear - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_block_tracking() {
        let mut l = ledger().with_block_tracking(8);
        l.record_write(0, Some(3), 1.0);
        l.record_write(0, Some(3), 3.0);
        l.record_write(1, Some(7), 1.0);
        let t = l.block_table().unwrap();
        assert!((t.get(0, 3) - (1.0 + 1.0 / 9.0)).abs() < 1e-12);
        assert!((t.max_wear() - (1.0 + 1.0 / 9.0)).abs() < 1e-12);
        assert_eq!(t.blocks_per_bank(), 8);
    }

    #[test]
    fn aggregates_across_banks() {
        let mut l = ledger();
        l.record_write(0, None, 1.0);
        l.record_write(1, None, 1.0);
        l.record_write(1, None, 1.0);
        assert!((l.total_wear() - 3.0).abs() < 1e-12);
        assert_eq!(l.iter().count(), 4);
    }

    #[test]
    fn wear_under_recomputes_for_other_exponents() {
        let mut l = ledger();
        l.record_write(0, None, 1.0);
        l.record_write(0, None, 3.0);
        l.record_cancelled(0, None, 3.0, 0.5);
        l.record_leveling_write(0, None);
        let b = l.bank(0);
        // Under the run's own exponent (2.0), wear_under matches the
        // ledger's accumulated total.
        assert!((b.wear_under(2.0, 3.0) - b.total_wear).abs() < 1e-12);
        // Under expo 1.0 the slow parts weigh 1/3 instead of 1/9.
        let expect = 2.0 + (1.0 + 0.5) / 3.0;
        assert!((b.wear_under(1.0, 3.0) - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn cancel_fraction_out_of_range_panics() {
        let _ = CancelWear::Prorated.charge(1.5);
    }
}
