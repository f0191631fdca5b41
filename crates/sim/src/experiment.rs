//! The warm-up/measure experiment runner.

use crate::{Metrics, System, SystemConfig};
use mellow_core::WritePolicy;
use mellow_workloads::{SyntheticWorkload, UnknownWorkload, WorkloadSpec};

/// One `(workload, policy)` experiment following the paper's
/// methodology: warm the caches, then measure a fixed instruction
/// window.
///
/// The paper warms for 6 B instructions and measures 2 B; this
/// reproduction defaults to a scaled 300 k / 1 M window (lifetime and
/// rate metrics extrapolate from steady-state rates, so the window
/// length affects noise, not means — the benches use larger windows).
///
/// # Examples
///
/// ```no_run
/// use mellow_core::WritePolicy;
/// use mellow_sim::Experiment;
///
/// let m = Experiment::try_new("lbm", WritePolicy::norm()).unwrap().run();
/// assert!(m.instructions >= 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    workload: WorkloadSpec,
    config: SystemConfig,
    warmup_instructions: u64,
    measure_instructions: u64,
}

impl Experiment {
    /// Creates an experiment for a Table IV workload by name, or
    /// returns an [`UnknownWorkload`] error listing the valid names.
    ///
    /// # Examples
    ///
    /// ```
    /// use mellow_core::WritePolicy;
    /// use mellow_sim::Experiment;
    ///
    /// assert!(Experiment::try_new("lbm", WritePolicy::norm()).is_ok());
    /// assert!(Experiment::try_new("quake", WritePolicy::norm()).is_err());
    /// ```
    pub fn try_new(workload: &str, policy: WritePolicy) -> Result<Self, UnknownWorkload> {
        Ok(Self::with_spec(
            WorkloadSpec::try_by_name(workload)?,
            policy,
        ))
    }

    /// Creates an experiment for a custom workload specification.
    pub fn with_spec(spec: WorkloadSpec, policy: WritePolicy) -> Self {
        Experiment {
            workload: spec,
            config: SystemConfig::paper_default(policy),
            warmup_instructions: 300_000,
            measure_instructions: 1_000_000,
        }
    }

    /// Sets the measured instruction count.
    pub fn instructions(mut self, n: u64) -> Self {
        self.measure_instructions = n;
        self
    }

    /// Sets the warm-up instruction count.
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup_instructions = n;
        self
    }

    /// Sets the warm-up long enough for the workload to miss the LLC
    /// `fills` times its line count (the LLC must fill before dirty
    /// evictions — i.e. steady-state memory writes — begin), using the
    /// spec's expected MPKI. Never shortens an explicitly set warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `fills` is not positive or the spec's `target_mpki`
    /// is not positive.
    pub fn warmup_llc_fills(mut self, fills: f64) -> Self {
        assert!(fills > 0.0, "fills must be positive");
        assert!(
            self.workload.target_mpki > 0.0,
            "workload target MPKI must be positive for auto warm-up"
        );
        let llc_lines = self.config.llc.size_bytes / self.config.llc.line_bytes;
        let n = (fills * llc_lines as f64 * 1000.0 / self.workload.target_mpki) as u64;
        self.warmup_instructions = self.warmup_instructions.max(n);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Applies an arbitrary configuration edit (bank count, endurance
    /// exponent, cell energy sweeps, …).
    pub fn configure<F: FnOnce(&mut SystemConfig)>(mut self, f: F) -> Self {
        f(&mut self.config);
        self
    }

    /// Returns the workload specification.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// Returns the system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Returns the configured warm-up instruction count.
    pub fn warmup_instructions(&self) -> u64 {
        self.warmup_instructions
    }

    /// Returns the configured measured instruction count.
    pub fn measure_instructions(&self) -> u64 {
        self.measure_instructions
    }

    /// Builds the system, runs warm-up then the measured window, and
    /// returns the metrics row.
    pub fn run(&self) -> Metrics {
        let mut system = self.build();
        if self.warmup_instructions > 0 {
            system.run_instructions(self.warmup_instructions);
        }
        system.begin_measurement();
        system.run_instructions(self.measure_instructions);
        system.metrics(&self.workload.name)
    }

    /// Builds the wired system without running it (for callers that
    /// want to drive the loop themselves).
    pub fn build(&self) -> System {
        let trace = SyntheticWorkload::new(self.workload.clone(), self.config.seed);
        System::new(self.config.clone(), Box::new(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_workloads::WorkloadSpec;

    /// A scaled-down system (small caches, dense traffic) so end-to-end
    /// dynamics — LLC fills, writebacks, drains, eager writes — appear
    /// within a test-sized instruction window. The full-size
    /// configuration is exercised by the integration tests and benches.
    fn quick_seeded(workload: &str, policy: WritePolicy, seed: u64) -> Metrics {
        let mut spec = WorkloadSpec::by_name(workload).unwrap();
        spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
        spec.working_set_bytes = spec.working_set_bytes.min(32 << 20);
        Experiment::with_spec(spec, policy)
            .warmup(80_000)
            .instructions(150_000)
            .seed(seed)
            .configure(|c| {
                c.l1.size_bytes = 4 << 10;
                c.l2.size_bytes = 16 << 10;
                c.llc.size_bytes = 64 << 10;
            })
            .run()
    }

    fn quick(workload: &str, policy: WritePolicy) -> Metrics {
        quick_seeded(workload, policy, 0xC0FFEE)
    }

    #[test]
    fn runs_end_to_end_and_reports() {
        let m = quick("stream", WritePolicy::norm());
        assert_eq!(m.workload, "stream");
        assert_eq!(m.policy, "Norm");
        assert!(m.instructions >= 60_000);
        assert!(m.ipc > 0.0);
        assert!(m.mpki > 1.0, "stream must miss the LLC, mpki {}", m.mpki);
        assert!(m.lifetime_years.is_finite());
        assert!(m.total_wear > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick("gups", WritePolicy::be_mellow_sc());
        let b = quick("gups", WritePolicy::be_mellow_sc());
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.total_wear, b.total_wear);
        assert_eq!(a.ctrl, b.ctrl);
    }

    #[test]
    fn seeds_change_the_trace() {
        let a = quick_seeded("gups", WritePolicy::norm(), 1);
        let b = quick_seeded("gups", WritePolicy::norm(), 2);
        assert_ne!(a.total_wear, b.total_wear);
    }

    #[test]
    fn slow_policy_trades_ipc_for_lifetime() {
        let norm = quick("lbm", WritePolicy::norm());
        let slow = quick("lbm", WritePolicy::slow());
        assert!(
            slow.lifetime_years > norm.lifetime_years * 2.0,
            "slow {} vs norm {}",
            slow.lifetime_years,
            norm.lifetime_years
        );
        assert!(
            slow.ipc < norm.ipc,
            "slow {} should not outperform norm {}",
            slow.ipc,
            norm.ipc
        );
    }

    #[test]
    fn mellow_policies_issue_slow_writes_without_big_ipc_loss() {
        let norm = quick("GemsFDTD", WritePolicy::norm());
        let mellow = quick("GemsFDTD", WritePolicy::be_mellow_sc());
        assert!(mellow.slow_write_fraction > 0.1, "mellow writes slow some");
        assert!(
            mellow.lifetime_years > norm.lifetime_years,
            "mellow {} vs norm {}",
            mellow.lifetime_years,
            norm.lifetime_years
        );
        assert!(mellow.ipc > norm.ipc * 0.9);
    }

    #[test]
    fn eager_policies_send_eager_writes() {
        let m = quick("stream", WritePolicy::be_mellow_sc());
        let (_, _, eager) = m.llc_requests();
        assert!(eager > 0, "eager writebacks expected: {:?}", m.llc);
    }

    #[test]
    fn unknown_bank_counts_work() {
        let m = Experiment::try_new("stream", WritePolicy::norm())
            .unwrap()
            .warmup(5_000)
            .instructions(20_000)
            .configure(|c| c.mem = c.mem.clone().with_banks(4, 1))
            .run();
        assert_eq!(m.per_bank_lifetime_years.len(), 4);
    }

    #[test]
    fn auto_warmup_scales_with_mpki() {
        let hmmer = Experiment::try_new("hmmer", WritePolicy::norm())
            .unwrap()
            .warmup_llc_fills(1.2);
        let mcf = Experiment::try_new("mcf", WritePolicy::norm())
            .unwrap()
            .warmup_llc_fills(1.2);
        // hmmer (MPKI 1.34) needs far longer than mcf (MPKI 56) to fill
        // the LLC.
        assert!(hmmer.warmup_instructions() > 10 * mcf.warmup_instructions());
    }

    #[test]
    fn try_new_reports_valid_names() {
        let err = Experiment::try_new("quake", WritePolicy::norm()).unwrap_err();
        assert_eq!(err.requested, "quake");
        assert_eq!(err.valid.len(), 11);
        assert!(err.to_string().contains("GemsFDTD"));
    }
}
