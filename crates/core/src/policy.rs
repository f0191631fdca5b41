//! The write-policy configuration space of Table III.

use std::fmt;

/// The default slow-write latency factor (the paper uses 3.0× everywhere
/// except the motivation study).
pub const DEFAULT_SLOW_FACTOR: f64 = 3.0;

/// The speed at which a write pulse is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteSpeed {
    /// Full-power write at the baseline latency (1×).
    Normal,
    /// Reduced-power write at the policy's slow factor (default 3×),
    /// wearing the cell less per Eq. 2.
    Slow,
}

impl fmt::Display for WriteSpeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteSpeed::Normal => f.write_str("normal"),
            WriteSpeed::Slow => f.write_str("slow"),
        }
    }
}

/// The base write policies of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasePolicy {
    /// Just normal writes.
    Norm,
    /// Just slow writes.
    Slow,
    /// Bank-Aware Mellow Writes (§IV-A): a write issues slow iff it is
    /// the only request queued for its bank.
    BMellow,
    /// Bank-Aware plus Eager Mellow Writes (§IV-B).
    BEMellow,
    /// Normal writes plus eager writebacks (eager writes also normal).
    ENorm,
    /// Slow writes plus eager writebacks.
    ESlow,
}

impl BasePolicy {
    /// Returns `true` when the LLC performs eager writebacks.
    pub fn uses_eager(self) -> bool {
        matches!(
            self,
            BasePolicy::BEMellow | BasePolicy::ENorm | BasePolicy::ESlow
        )
    }

    /// Returns `true` when demand-write speed adapts to bank queue state
    /// (the Bank-Aware mechanism).
    pub fn bank_aware(self) -> bool {
        matches!(self, BasePolicy::BMellow | BasePolicy::BEMellow)
    }

    /// For non-adaptive policies, the fixed demand-write speed.
    pub fn static_speed(self) -> Option<WriteSpeed> {
        match self {
            BasePolicy::Norm | BasePolicy::ENorm => Some(WriteSpeed::Normal),
            BasePolicy::Slow | BasePolicy::ESlow => Some(WriteSpeed::Slow),
            BasePolicy::BMellow | BasePolicy::BEMellow => None,
        }
    }

    /// The speed of writes issued from the eager queue.
    ///
    /// The Mellow eager queue "can only issue slow writes" (§IV-B2);
    /// `E-Norm` is the performance-aggressive static policy whose eager
    /// writebacks run at normal speed.
    pub fn eager_speed(self) -> WriteSpeed {
        match self {
            BasePolicy::ENorm => WriteSpeed::Normal,
            _ => WriteSpeed::Slow,
        }
    }

    fn name(self) -> &'static str {
        match self {
            BasePolicy::Norm => "Norm",
            BasePolicy::Slow => "Slow",
            BasePolicy::BMellow => "B-Mellow",
            BasePolicy::BEMellow => "BE-Mellow",
            BasePolicy::ENorm => "E-Norm",
            BasePolicy::ESlow => "E-Slow",
        }
    }
}

/// A complete write-policy configuration (Table III row).
///
/// Combines a [`BasePolicy`] with the `+NC` (normal writes cancellable),
/// `+SC` (slow writes cancellable) and `+WQ` (Wear Quota) modifiers and
/// the slow-write latency factor.
///
/// # Examples
///
/// ```
/// use mellow_core::WritePolicy;
///
/// let p = WritePolicy::be_mellow_sc().with_wear_quota();
/// assert_eq!(p.to_string(), "BE-Mellow+SC+WQ");
/// assert!(p.base.uses_eager());
/// assert!(p.cancel_slow && !p.cancel_normal);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePolicy {
    /// The base scheme.
    pub base: BasePolicy,
    /// Whether normal writes may be cancelled by an incoming read (+NC).
    pub cancel_normal: bool,
    /// Whether slow writes may be cancelled by an incoming read (+SC).
    pub cancel_slow: bool,
    /// Whether the Wear Quota lifetime guarantee is active (+WQ).
    pub wear_quota: bool,
    /// Whether cancellable writes *pause* instead of abort (+WP).
    ///
    /// Write pausing (Qureshi et al., HPCA'10 — the same work the paper
    /// takes write cancellation from) services an incoming read by
    /// suspending the conflicting write and later resuming it where it
    /// left off, so no driven pulse energy or wear is wasted. This is an
    /// extension beyond the paper's evaluated configurations.
    pub pause_writes: bool,
    /// Whether slow writes pick among *multiple* latency levels (+GR).
    ///
    /// The paper's stated future work (§VI-I): its two-level scheme
    /// (1× / 3×) loses to the best static policy on latency-sensitive
    /// workloads; grading the slowdown by write-queue pressure softens
    /// that cliff. When enabled, a write that would issue slow picks
    /// 3×, 2×, 1.5× or 1× as the write queue fills past ¼, ½ and ¾
    /// occupancy (see
    /// [`slow_factor_for_occupancy`](Self::slow_factor_for_occupancy)).
    pub graded: bool,
    /// Slow-write latency factor (≥ 1.0; the paper's default is 3.0).
    pub slow_factor: f64,
}

impl WritePolicy {
    /// Creates a policy with no modifiers and the default 3× slow factor.
    pub fn new(base: BasePolicy) -> Self {
        WritePolicy {
            base,
            cancel_normal: false,
            cancel_slow: false,
            wear_quota: false,
            pause_writes: false,
            graded: false,
            slow_factor: DEFAULT_SLOW_FACTOR,
        }
    }

    /// `Norm` — the paper's baseline.
    pub fn norm() -> Self {
        Self::new(BasePolicy::Norm)
    }

    /// `Slow` — every write slow.
    pub fn slow() -> Self {
        Self::new(BasePolicy::Slow)
    }

    /// `E-Norm+NC` — the performance-aggressive static configuration.
    pub fn e_norm_nc() -> Self {
        Self::new(BasePolicy::ENorm).with_cancel_normal()
    }

    /// `E-Slow+SC` — the lifetime-aggressive static configuration.
    pub fn e_slow_sc() -> Self {
        Self::new(BasePolicy::ESlow).with_cancel_slow()
    }

    /// `B-Mellow+SC` — Bank-Aware Mellow Writes with cancellable slow
    /// writes.
    pub fn b_mellow_sc() -> Self {
        Self::new(BasePolicy::BMellow).with_cancel_slow()
    }

    /// `BE-Mellow+SC` — the paper's headline configuration (2.58×
    /// lifetime, 1.06× IPC vs `Norm`).
    pub fn be_mellow_sc() -> Self {
        Self::new(BasePolicy::BEMellow).with_cancel_slow()
    }

    /// Enables cancellation of normal writes (+NC).
    pub fn with_cancel_normal(mut self) -> Self {
        self.cancel_normal = true;
        self
    }

    /// Enables cancellation of slow writes (+SC).
    pub fn with_cancel_slow(mut self) -> Self {
        self.cancel_slow = true;
        self
    }

    /// Enables the Wear Quota guarantee (+WQ).
    pub fn with_wear_quota(mut self) -> Self {
        self.wear_quota = true;
        self
    }

    /// Makes cancellable writes pause-and-resume instead of abort (+WP).
    pub fn with_write_pausing(mut self) -> Self {
        self.pause_writes = true;
        self
    }

    /// Enables graded multi-latency slow writes (+GR).
    pub fn with_graded_latency(mut self) -> Self {
        self.graded = true;
        self
    }

    /// Sets the slow-write latency factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` or non-finite.
    pub fn with_slow_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slow factor must be >= 1.0, got {factor}"
        );
        self.slow_factor = factor;
        self
    }

    /// Returns the latency factor for a slow write given the write
    /// queue's occupancy in `[0, 1]` (+GR extension).
    ///
    /// Without grading this is simply the policy's slow factor. With
    /// grading, higher pressure picks progressively faster writes so a
    /// filling queue never tips into a write drain: 3× below ¼
    /// occupancy, then 2×, 1.5×, and 1× above ¾.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is outside `[0, 1]`.
    pub fn slow_factor_for_occupancy(&self, occupancy: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&occupancy),
            "occupancy must be in [0, 1], got {occupancy}"
        );
        if !self.graded {
            return self.slow_factor;
        }
        // Levels are capped by the configured slow factor so grading
        // composes with non-default factors.
        let level: f64 = if occupancy < 0.25 {
            3.0
        } else if occupancy < 0.5 {
            2.0
        } else if occupancy < 0.75 {
            1.5
        } else {
            1.0
        };
        level.min(self.slow_factor)
    }

    /// Returns whether writes at `speed` are cancellable under this
    /// policy.
    pub fn cancellable(&self, speed: WriteSpeed) -> bool {
        match speed {
            WriteSpeed::Normal => self.cancel_normal,
            WriteSpeed::Slow => self.cancel_slow,
        }
    }

    /// The evaluated configurations of Figs. 10–16, in plot order.
    pub fn paper_set() -> Vec<WritePolicy> {
        vec![
            Self::norm(),
            Self::e_norm_nc(),
            Self::e_slow_sc(),
            Self::b_mellow_sc(),
            Self::be_mellow_sc(),
            Self::norm().with_wear_quota(),
            Self::b_mellow_sc().with_wear_quota(),
            Self::be_mellow_sc().with_wear_quota(),
        ]
    }
}

impl Default for WritePolicy {
    /// The paper's baseline configuration, `Norm`.
    fn default() -> Self {
        Self::norm()
    }
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base.name())?;
        if self.cancel_normal {
            f.write_str("+NC")?;
        }
        if self.cancel_slow {
            f.write_str("+SC")?;
        }
        if self.wear_quota {
            f.write_str("+WQ")?;
        }
        if self.pause_writes {
            f.write_str("+WP")?;
        }
        if self.graded {
            f.write_str("+GR")?;
        }
        if (self.slow_factor - DEFAULT_SLOW_FACTOR).abs() > 1e-9 {
            write!(f, "@{}x", self.slow_factor)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_names() {
        assert_eq!(WritePolicy::norm().to_string(), "Norm");
        assert_eq!(WritePolicy::slow().to_string(), "Slow");
        assert_eq!(WritePolicy::e_norm_nc().to_string(), "E-Norm+NC");
        assert_eq!(WritePolicy::e_slow_sc().to_string(), "E-Slow+SC");
        assert_eq!(WritePolicy::b_mellow_sc().to_string(), "B-Mellow+SC");
        assert_eq!(WritePolicy::be_mellow_sc().to_string(), "BE-Mellow+SC");
        assert_eq!(
            WritePolicy::be_mellow_sc().with_wear_quota().to_string(),
            "BE-Mellow+SC+WQ"
        );
        assert_eq!(
            WritePolicy::slow().with_slow_factor(1.5).to_string(),
            "Slow@1.5x"
        );
    }

    #[test]
    fn write_pausing_modifier() {
        let p = WritePolicy::be_mellow_sc().with_write_pausing();
        assert!(p.pause_writes);
        assert_eq!(p.to_string(), "BE-Mellow+SC+WP");
    }

    #[test]
    fn graded_latency_scales_with_queue_pressure() {
        let p = WritePolicy::be_mellow_sc().with_graded_latency();
        assert_eq!(p.to_string(), "BE-Mellow+SC+GR");
        assert_eq!(p.slow_factor_for_occupancy(0.0), 3.0);
        assert_eq!(p.slow_factor_for_occupancy(0.3), 2.0);
        assert_eq!(p.slow_factor_for_occupancy(0.6), 1.5);
        assert_eq!(p.slow_factor_for_occupancy(0.9), 1.0);
        // Ungraded policies ignore occupancy.
        let q = WritePolicy::be_mellow_sc();
        assert_eq!(q.slow_factor_for_occupancy(0.9), 3.0);
        // Grading never exceeds the configured slow factor.
        let r = WritePolicy::slow()
            .with_graded_latency()
            .with_slow_factor(2.0);
        assert_eq!(r.slow_factor_for_occupancy(0.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn graded_occupancy_validated() {
        let _ = WritePolicy::norm().slow_factor_for_occupancy(1.5);
    }

    #[test]
    fn eager_usage_per_base() {
        assert!(!BasePolicy::Norm.uses_eager());
        assert!(!BasePolicy::Slow.uses_eager());
        assert!(!BasePolicy::BMellow.uses_eager());
        assert!(BasePolicy::BEMellow.uses_eager());
        assert!(BasePolicy::ENorm.uses_eager());
        assert!(BasePolicy::ESlow.uses_eager());
    }

    #[test]
    fn bank_awareness_per_base() {
        assert!(BasePolicy::BMellow.bank_aware());
        assert!(BasePolicy::BEMellow.bank_aware());
        assert!(!BasePolicy::Norm.bank_aware());
        assert!(!BasePolicy::ESlow.bank_aware());
    }

    #[test]
    fn static_speeds() {
        assert_eq!(BasePolicy::Norm.static_speed(), Some(WriteSpeed::Normal));
        assert_eq!(BasePolicy::ENorm.static_speed(), Some(WriteSpeed::Normal));
        assert_eq!(BasePolicy::Slow.static_speed(), Some(WriteSpeed::Slow));
        assert_eq!(BasePolicy::ESlow.static_speed(), Some(WriteSpeed::Slow));
        assert_eq!(BasePolicy::BMellow.static_speed(), None);
        assert_eq!(BasePolicy::BEMellow.static_speed(), None);
    }

    #[test]
    fn eager_speed_only_normal_for_e_norm() {
        assert_eq!(BasePolicy::ENorm.eager_speed(), WriteSpeed::Normal);
        assert_eq!(BasePolicy::ESlow.eager_speed(), WriteSpeed::Slow);
        assert_eq!(BasePolicy::BEMellow.eager_speed(), WriteSpeed::Slow);
    }

    #[test]
    fn cancellation_flags_select_by_speed() {
        let p = WritePolicy::be_mellow_sc();
        assert!(p.cancellable(WriteSpeed::Slow));
        assert!(!p.cancellable(WriteSpeed::Normal));
        let q = WritePolicy::e_norm_nc();
        assert!(q.cancellable(WriteSpeed::Normal));
        assert!(!q.cancellable(WriteSpeed::Slow));
    }

    #[test]
    fn paper_set_contains_the_eight_plotted_policies() {
        let set = WritePolicy::paper_set();
        assert_eq!(set.len(), 8);
        let names: Vec<String> = set.iter().map(|p| p.to_string()).collect();
        assert!(names.contains(&"BE-Mellow+SC+WQ".to_string()));
        assert!(names.contains(&"Norm".to_string()));
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn slow_factor_below_one_rejected() {
        let _ = WritePolicy::slow().with_slow_factor(0.9);
    }
}
