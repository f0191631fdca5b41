//! Whole-system configuration.

use mellow_cache::CacheConfig;
use mellow_core::WritePolicy;
use mellow_cpu::CoreConfig;
use mellow_engine::{Clock, Duration};
use mellow_memctrl::MemConfig;
use mellow_nvm::{CancelWear, EnduranceModel};

/// Configuration of the complete simulated system (Tables I and II).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core clock (2 GHz).
    pub core_clock: Clock,
    /// Out-of-order core parameters.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache (hosts the Eager Mellow Writes machinery).
    pub llc: CacheConfig,
    /// Main-memory geometry and timing.
    pub mem: MemConfig,
    /// Write policy under evaluation.
    pub policy: WritePolicy,
    /// Device endurance model (Eq. 2).
    pub endurance: EnduranceModel,
    /// Wear charged to cancelled write attempts.
    pub cancel_wear: CancelWear,
    /// Master seed (workload and eager-probe RNG streams derive from
    /// it).
    pub seed: u64,
    /// Track per-block wear (ground truth for validating the aggregate
    /// lifetime model). Costs one `f64` per memory block — only enable
    /// on small-capacity configurations.
    pub track_block_wear: bool,
    /// Drive [`System::run_instructions`](crate::System) with the
    /// one-cycle-at-a-time reference loop instead of the event kernel,
    /// which jumps over idle cycles. The reference loop ticks every
    /// component in full on every cycle, the memory controller included
    /// (`Controller::tick_full`, bypassing its next-actionable skip).
    /// The loops produce bit-identical results (the equivalence tests
    /// assert it), so this one switch checks both the kernel's jumps
    /// and the controller's skip.
    pub use_cycle_loop: bool,
}

impl SystemConfig {
    /// The shared sampling period `T_sample` (500 µs in the paper),
    /// single-sourced from [`MemConfig::sample_period`] so the LLC
    /// utility monitor and the Wear Quota can never sample at different
    /// rates.
    pub fn sample_period(&self) -> Duration {
        self.mem.sample_period
    }

    /// The paper's configuration with the given write policy.
    pub fn paper_default(policy: WritePolicy) -> Self {
        SystemConfig {
            core_clock: Clock::from_ghz(2),
            core: CoreConfig::default(),
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc(),
            mem: MemConfig::paper_default(),
            policy,
            endurance: EnduranceModel::reram_default(),
            cancel_wear: CancelWear::Prorated,
            seed: 0xC0FFEE,
            track_block_wear: false,
            use_cycle_loop: false,
        }
    }

    /// Validates cross-component consistency.
    ///
    /// # Panics
    ///
    /// Panics when line sizes disagree across the hierarchy or any
    /// sub-configuration is invalid.
    pub fn validate(&self) {
        assert_eq!(self.l1.line_bytes, self.l2.line_bytes, "line size mismatch");
        assert_eq!(
            self.l2.line_bytes, self.llc.line_bytes,
            "line size mismatch"
        );
        assert_eq!(
            self.llc.line_bytes, self.mem.line_bytes,
            "line size mismatch"
        );
        self.mem.validate();
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default(WritePolicy::norm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_consistent() {
        SystemConfig::paper_default(WritePolicy::be_mellow_sc()).validate();
    }

    #[test]
    fn default_policy_is_norm() {
        assert_eq!(SystemConfig::default().policy, WritePolicy::norm());
    }

    #[test]
    #[should_panic(expected = "line size mismatch")]
    fn mismatched_lines_rejected() {
        let mut c = SystemConfig::default();
        c.l1.line_bytes = 32;
        c.validate();
    }
}
