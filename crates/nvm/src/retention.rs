//! Retention-drift modeling: a deterministic per-block drift clock.
//!
//! The endurance model ([`fault`](crate::fault)) captures cells that
//! wear out; this module captures cells that *forget*. In real ReRAM
//! the programmed resistance drifts over time, so a block that has not
//! been written for long enough decays into a read-verify failure —
//! silently, unless a scrubber or a demand read notices first. Two
//! physical couplings make the drift axis interesting for Mellow
//! Writes:
//!
//! * **slow writes retain longer** — a lower-power, longer pulse
//!   programs the cell deeper into its resistance band, widening the
//!   retention margin. This gives the paper's slow-write dial a second
//!   benefit axis beyond endurance (the one the paper never
//!   quantifies).
//! * **worn cells retain worse** — as a cell approaches its endurance
//!   limit its resistance window narrows, shrinking the margin. The
//!   drift deadline is narrowed by the wear fraction reported by the
//!   [`FaultState`](crate::FaultState) endurance model.
//!
//! Every completed write stamps the block's drift deadline: a seeded
//! lognormal draw around [`RetentionConfig::base_retention`], scaled by
//! `factor^slow_write_boost` (the write's latency factor) and divided
//! by `1 + wear_sensitivity * wear_fraction`. Reads past the deadline
//! return [`ReadVerify::Failed`]; the memory controller's scrub engine
//! and demand-read repair path decide what happens next.
//!
//! Like the fault layer, deadline draws derive a child stream per
//! `(bank, block, write generation)` from the configured seed, so the
//! model is deterministic and touch-order independent, and a
//! [`RetentionConfig::disabled`] (the default) configuration constructs
//! no state at all — the additivity guarantee.

use crate::block_hash::BlockHasher;
use mellow_engine::{DetRng, Duration, SimTime};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Stream id for [`DetRng::derive`], disjoint from the fault layer's
/// streams so retention draws never perturb any other sequence.
const STREAM_DEADLINE: u64 = 0xD_21_F7;

/// Configuration of the retention-drift layer.
///
/// Lives in `MemConfig` (like [`FaultConfig`](crate::FaultConfig)) so
/// every construction path can switch drift on per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionConfig {
    /// Master switch. `false` (the default) constructs no retention
    /// state at all: the controller's read path is bit-identical to a
    /// drift-free build.
    pub enabled: bool,
    /// Median time from a write to drift-induced read failure (the
    /// lognormal median of the deadline draw). `ZERO` means "no drift":
    /// writes stamp nothing and reads never fail — the zero-knob
    /// configuration the additivity test compares against disabled.
    pub base_retention: Duration,
    /// Lognormal sigma of the per-write deadline draw. `0.0` gives
    /// every write exactly the (scaled) median deadline.
    pub drift_sigma: f64,
    /// Exponent coupling the write-latency factor to retention margin:
    /// the deadline scales by `factor^slow_write_boost`, so at boost
    /// 1.0 a 3.0x slow write retains 3x longer and at 0.0 the Mellow
    /// hook is off.
    pub slow_write_boost: f64,
    /// Wear narrowing: the deadline divides by
    /// `1 + wear_sensitivity * wear_fraction`, where the wear fraction
    /// comes from the endurance model (0 when faults are disabled).
    pub wear_sensitivity: f64,
    /// Seed for the deadline draws, independent of the system and
    /// fault seeds.
    pub seed: u64,
}

impl RetentionConfig {
    /// The default: no retention layer at all.
    pub fn disabled() -> Self {
        RetentionConfig {
            enabled: false,
            base_retention: Duration::ZERO,
            drift_sigma: 0.0,
            slow_write_boost: 0.0,
            wear_sensitivity: 0.0,
            seed: 0,
        }
    }

    /// Panics on out-of-range parameters.
    ///
    /// # Panics
    ///
    /// Panics if `drift_sigma`, `slow_write_boost`, or
    /// `wear_sensitivity` is negative or non-finite.
    pub fn validate(&self) {
        assert!(
            self.drift_sigma.is_finite() && self.drift_sigma >= 0.0,
            "drift_sigma must be finite and non-negative, got {}",
            self.drift_sigma
        );
        assert!(
            self.slow_write_boost.is_finite() && self.slow_write_boost >= 0.0,
            "slow_write_boost must be finite and non-negative, got {}",
            self.slow_write_boost
        );
        assert!(
            self.wear_sensitivity.is_finite() && self.wear_sensitivity >= 0.0,
            "wear_sensitivity must be finite and non-negative, got {}",
            self.wear_sensitivity
        );
    }
}

impl Default for RetentionConfig {
    fn default() -> Self {
        RetentionConfig::disabled()
    }
}

/// Verdict of the retention check for one array read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadVerify {
    /// The data is still within its retention window (or the block has
    /// no drift clock yet — it was never written).
    Ok,
    /// The block's drift deadline has passed: the stored resistance
    /// levels can no longer be trusted and the controller must repair
    /// (rewrite) or lose the block.
    Failed,
}

/// Per-block drift record; created on the block's first completed
/// write.
#[derive(Debug, Clone, Copy)]
struct BlockRetention {
    /// When the current data was written.
    written_at: SimTime,
    /// When the data decays past the readable margin.
    deadline: SimTime,
    /// Completed writes the block has absorbed, part of the deadline
    /// stream so every rewrite draws a fresh deadline.
    generation: u64,
}

/// The drift table: one deadline clock per written block. Owned by the
/// memory controller when retention is enabled.
///
/// Blocks are keyed by *logical* block index (the address space the
/// controller queues work in), so a repair rewrite can be enqueued by
/// plain line address. Wear-leveling moves copy data between physical
/// cells without resetting the clock — a conservative simplification:
/// a leveling copy is a fresh write, so real hardware would reset it.
#[derive(Debug, Clone)]
pub struct RetentionState {
    cfg: RetentionConfig,
    blocks_per_bank: u64,
    /// Touched blocks only, keyed by logical block index. Accessed
    /// strictly by key (never iterated) so hash order cannot leak into
    /// simulated behaviour. The fixed hasher costs one multiply.
    banks: Vec<HashMap<u64, BlockRetention, BuildHasherDefault<BlockHasher>>>,
    /// Root of the per-block deadline streams (never advanced;
    /// children are derived per `(bank, block, generation)`).
    deadline_root: DetRng,
}

impl RetentionState {
    /// Builds the drift table for `banks` banks of `blocks_per_bank`
    /// logical blocks each.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RetentionConfig::validate`], or either
    /// dimension is zero.
    pub fn new(cfg: RetentionConfig, banks: usize, blocks_per_bank: u64) -> Self {
        cfg.validate();
        assert!(banks > 0, "bank count must be non-zero");
        assert!(blocks_per_bank > 0, "blocks per bank must be non-zero");
        RetentionState {
            cfg,
            blocks_per_bank,
            banks: vec![HashMap::default(); banks],
            // `derive` never advances its parent, so the root is pinned
            // to the seed exactly like the fault layer's limit stream.
            deadline_root: DetRng::seed_from(cfg.seed).derive(STREAM_DEADLINE),
        }
    }

    /// The configuration this table was built from.
    pub fn config(&self) -> &RetentionConfig {
        &self.cfg
    }

    /// Logical blocks per bank the table covers.
    pub fn blocks_per_bank(&self) -> u64 {
        self.blocks_per_bank
    }

    /// Stamps the block's drift clock for a write completed at `now`
    /// with latency factor `factor`, on a cell group whose endurance is
    /// `wear_fraction` consumed (0 when the fault layer is off).
    ///
    /// With [`RetentionConfig::base_retention`] at `ZERO` this is a
    /// no-op — no entry, no draw — so a zero-knob enabled layer stays
    /// bit-identical to a disabled one.
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside the bank's block space.
    pub fn record_write(
        &mut self,
        bank: usize,
        block: u64,
        now: SimTime,
        factor: f64,
        wear_fraction: f64,
    ) {
        assert!(
            block < self.blocks_per_bank,
            "block {block} outside bank block space {}",
            self.blocks_per_bank
        );
        if self.cfg.base_retention == Duration::ZERO {
            return;
        }
        let generation = self.banks[bank].get(&block).map_or(0, |b| b.generation + 1);
        let scale = self.sample_scale(bank, block, generation)
            * factor.powf(self.cfg.slow_write_boost)
            / (1.0 + self.cfg.wear_sensitivity * wear_fraction.clamp(0.0, 1.0));
        let deadline = now + self.cfg.base_retention.scale(scale);
        self.banks[bank].insert(
            block,
            BlockRetention {
                written_at: now,
                deadline,
                generation,
            },
        );
    }

    /// Checks the block's drift clock at read time `now`. A block that
    /// was never written has no clock and reads `Ok` (its contents are
    /// undefined either way).
    pub fn verify_read(&self, bank: usize, block: u64, now: SimTime) -> ReadVerify {
        match self.banks[bank].get(&block) {
            Some(b) if now >= b.deadline => ReadVerify::Failed,
            _ => ReadVerify::Ok,
        }
    }

    /// Retires the block's drift clock (uncorrectable loss: the data is
    /// gone, so there is nothing left to decay). A future write
    /// restamps the block; its generation count survives so the rewrite
    /// still draws a fresh deadline.
    pub fn forget(&mut self, bank: usize, block: u64) {
        if let Some(b) = self.banks[bank].get_mut(&block) {
            b.deadline = SimTime::MAX;
        }
    }

    /// The block's current drift deadline, if it has ever been written.
    pub fn deadline(&self, bank: usize, block: u64) -> Option<SimTime> {
        self.banks[bank].get(&block).map(|b| b.deadline)
    }

    /// When the block's current data was written, if ever.
    pub fn written_at(&self, bank: usize, block: u64) -> Option<SimTime> {
        self.banks[bank].get(&block).map(|b| b.written_at)
    }

    /// The deterministic lognormal deadline scale of write `generation`
    /// at `(bank, block)`: `exp(sigma * z)` with `z` standard normal.
    /// Derivation depends only on the seed and the coordinates, never
    /// on touch order.
    fn sample_scale(&self, bank: usize, block: u64, generation: u64) -> f64 {
        if self.cfg.drift_sigma == 0.0 {
            return 1.0;
        }
        let mut rng = self
            .deadline_root
            .derive(bank as u64)
            .derive(block)
            .derive(generation);
        // Box-Muller; `1 - u` keeps the log argument in (0, 1].
        let u1 = 1.0 - rng.unit_f64();
        let u2 = rng.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.cfg.drift_sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(base_us: u64, sigma: f64) -> RetentionConfig {
        RetentionConfig {
            enabled: true,
            base_retention: Duration::from_us(base_us),
            drift_sigma: sigma,
            slow_write_boost: 1.0,
            wear_sensitivity: 0.0,
            seed: 0xD2_1F,
        }
    }

    fn state(cfg: RetentionConfig) -> RetentionState {
        RetentionState::new(cfg, 4, 64)
    }

    #[test]
    fn disabled_is_the_default() {
        assert_eq!(RetentionConfig::default(), RetentionConfig::disabled());
        assert!(!RetentionConfig::default().enabled);
    }

    #[test]
    #[should_panic(expected = "drift_sigma")]
    fn validate_rejects_bad_sigma() {
        RetentionConfig {
            drift_sigma: -1.0,
            ..RetentionConfig::disabled()
        }
        .validate();
    }

    #[test]
    fn unwritten_blocks_never_fail() {
        let s = state(cfg(10, 0.5));
        assert_eq!(s.verify_read(0, 5, SimTime::MAX), ReadVerify::Ok);
        assert_eq!(s.deadline(0, 5), None);
    }

    #[test]
    fn reads_fail_exactly_at_the_deadline() {
        let mut s = state(cfg(10, 0.0));
        let t0 = SimTime::from_ps(1_000);
        s.record_write(1, 7, t0, 1.0, 0.0);
        let deadline = s.deadline(1, 7).expect("stamped");
        assert_eq!(deadline, t0 + Duration::from_us(10));
        assert_eq!(s.verify_read(1, 7, t0), ReadVerify::Ok);
        assert_eq!(
            s.verify_read(1, 7, SimTime::from_ps(deadline.as_ps() - 1)),
            ReadVerify::Ok
        );
        assert_eq!(s.verify_read(1, 7, deadline), ReadVerify::Failed);
    }

    #[test]
    fn rewrite_restamps_the_clock() {
        let mut s = state(cfg(10, 0.0));
        s.record_write(0, 3, SimTime::ZERO, 1.0, 0.0);
        let first = s.deadline(0, 3).expect("stamped");
        s.record_write(0, 3, first, 1.0, 0.0);
        assert_eq!(s.verify_read(0, 3, first), ReadVerify::Ok);
        assert_eq!(s.deadline(0, 3), Some(first + Duration::from_us(10)));
    }

    #[test]
    fn slow_writes_widen_the_margin() {
        let mut s = state(cfg(10, 0.0));
        s.record_write(0, 1, SimTime::ZERO, 1.0, 0.0);
        s.record_write(0, 2, SimTime::ZERO, 3.0, 0.0);
        let normal = s.deadline(0, 1).expect("stamped");
        let slow = s.deadline(0, 2).expect("stamped");
        // boost 1.0: a 3x slow write retains exactly 3x longer.
        assert_eq!(slow.as_ps(), 3 * normal.as_ps());
    }

    #[test]
    fn wear_narrows_the_margin() {
        let mut s = state(RetentionConfig {
            wear_sensitivity: 1.0,
            ..cfg(10, 0.0)
        });
        s.record_write(0, 1, SimTime::ZERO, 1.0, 0.0);
        s.record_write(0, 2, SimTime::ZERO, 1.0, 1.0);
        let fresh = s.deadline(0, 1).expect("stamped").as_ps();
        let worn = s.deadline(0, 2).expect("stamped").as_ps();
        // sensitivity 1.0 at full wear: half the margin.
        assert_eq!(worn, fresh / 2);
    }

    #[test]
    fn deadlines_are_deterministic_and_touch_order_independent() {
        let mut a = state(cfg(10, 0.5));
        let mut b = state(cfg(10, 0.5));
        for &blk in &[5u64, 17, 3] {
            a.record_write(0, blk, SimTime::ZERO, 1.0, 0.0);
        }
        for &blk in &[3u64, 5, 17] {
            b.record_write(0, blk, SimTime::ZERO, 1.0, 0.0);
        }
        for &blk in &[3u64, 5, 17] {
            assert_eq!(a.deadline(0, blk), b.deadline(0, blk), "block {blk}");
        }
    }

    #[test]
    fn sigma_spreads_deadlines_around_the_median() {
        let s = state(cfg(10, 0.5));
        let mut log_sum = 0.0;
        let n = 2000;
        for block in 0..n {
            log_sum += s.sample_scale(0, block, 0).ln();
        }
        let mean_log = log_sum / n as f64;
        // E[ln scale] = 0; sigma/sqrt(n) ~ 0.011.
        assert!(mean_log.abs() < 0.05, "mean log scale {mean_log}");
    }

    #[test]
    fn forget_retires_the_clock_until_the_next_write() {
        let mut s = state(cfg(10, 0.0));
        s.record_write(0, 4, SimTime::ZERO, 1.0, 0.0);
        let deadline = s.deadline(0, 4).expect("stamped");
        s.forget(0, 4);
        assert_eq!(s.verify_read(0, 4, deadline), ReadVerify::Ok);
        // The rewrite restamps and keeps drawing fresh generations.
        s.record_write(0, 4, deadline, 1.0, 0.0);
        assert_eq!(s.deadline(0, 4), Some(deadline + Duration::from_us(10)));
    }

    #[test]
    fn zero_base_retention_stamps_nothing() {
        let mut s = state(cfg(0, 0.5));
        s.record_write(0, 9, SimTime::ZERO, 1.0, 0.0);
        assert_eq!(s.deadline(0, 9), None);
        assert_eq!(s.verify_read(0, 9, SimTime::MAX), ReadVerify::Ok);
    }
}
