//! Scale-aware experiment construction.

use mellow_core::WritePolicy;
use mellow_sim::Experiment;
use mellow_workloads::{UnknownWorkload, WorkloadSpec};

/// How much simulation to spend per `(workload, policy)` run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Instructions in the measured window.
    pub measure: u64,
    /// Minimum warm-up instructions.
    pub min_warmup: u64,
    /// Warm-up is extended so the workload misses the LLC at least this
    /// many times its line count (the LLC must fill before dirty
    /// evictions — i.e. memory writes — reach steady state).
    pub llc_fills: f64,
    /// Wear-Quota / utility-monitor sample period, scaled down with the
    /// instruction window so quota dynamics span many periods.
    pub sample_period: mellow_engine::Duration,
}

impl Scale {
    /// The default scale: quick enough for a laptop-class sweep while
    /// past warm-up transients.
    pub fn quick() -> Self {
        Scale {
            measure: 400_000,
            min_warmup: 200_000,
            llc_fills: 1.2,
            sample_period: mellow_engine::Duration::from_us(40),
        }
    }

    /// The publication scale used for EXPERIMENTS.md numbers.
    pub fn full() -> Self {
        Scale {
            measure: 2_000_000,
            min_warmup: 500_000,
            llc_fills: 1.5,
            sample_period: mellow_engine::Duration::from_us(100),
        }
    }

    /// A smoke-test scale for CI: just enough simulation to exercise
    /// every code path while keeping a full `figures perf --tiny` run
    /// in seconds. Not meaningful for paper artifacts.
    pub fn tiny() -> Self {
        Scale {
            measure: 60_000,
            min_warmup: 30_000,
            llc_fills: 0.05,
            sample_period: mellow_engine::Duration::from_us(10),
        }
    }

    /// Returns the warm-up instruction count for a workload with the
    /// given expected MPKI.
    pub fn warmup_for(&self, target_mpki: f64, llc_lines: u64) -> u64 {
        let fills = (self.llc_fills * llc_lines as f64 * 1000.0 / target_mpki) as u64;
        fills.max(self.min_warmup)
    }
}

/// Builds the standard paper-configuration experiment for `(workload,
/// policy)` at `scale`, with MPKI-aware warm-up, or returns an
/// [`UnknownWorkload`] error listing the valid Table IV names.
pub fn try_experiment_for(
    workload: &str,
    policy: WritePolicy,
    scale: Scale,
) -> Result<Experiment, UnknownWorkload> {
    let spec = WorkloadSpec::try_by_name(workload)?;
    Ok(Experiment::with_spec(spec, policy)
        .warmup(scale.min_warmup)
        .warmup_llc_fills(scale.llc_fills)
        .instructions(scale.measure)
        .configure(|c| {
            c.mem.sample_period = scale.sample_period;
        }))
}

/// Wall-clock comparison of the system's two tick loops on one
/// workload, produced by [`compare_system_loops`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoopComparison {
    /// Workload name.
    pub workload: String,
    /// Wall-clock seconds for the reference one-cycle-at-a-time loop
    /// (which also ticks the controller in full on every edge).
    pub cycle_secs: f64,
    /// Wall-clock seconds for the event kernel (the default loop).
    pub event_secs: f64,
    /// Simulated instructions per run (warm-up plus measured window).
    pub instructions: u64,
    /// Whether both loops produced bit-identical [`Metrics`](mellow_sim::Metrics) rows.
    pub metrics_match: bool,
}

impl LoopComparison {
    /// Event-kernel speedup over the cycle loop (> 1 means the event
    /// kernel is faster).
    pub fn speedup(&self) -> f64 {
        self.cycle_secs / self.event_secs
    }

    /// Simulated instructions per wall-clock second under the event
    /// kernel.
    pub fn event_ips(&self) -> f64 {
        self.instructions as f64 / self.event_secs
    }
}

/// Times each `(workload, policy)` experiment end to end under both
/// system tick loops (`SystemConfig::use_cycle_loop` and the event
/// kernel default) and checks the [`Metrics`](mellow_sim::Metrics) rows
/// agree bit for bit.
///
/// The loops are behaviorally identical by construction (see the
/// equivalence tests in `tests/end_to_end.rs` and the system unit
/// tests); this measures the wall-clock benefit of skipping provably
/// idle cycles, which the `figures perf` target reports and records in
/// `BENCH_system.json`.
pub fn compare_system_loops(
    workloads: &[&str],
    policy: WritePolicy,
    scale: Scale,
) -> Result<Vec<LoopComparison>, UnknownWorkload> {
    workloads
        .iter()
        .map(|&w| {
            let timed = |cycle_loop: bool| {
                let e = try_experiment_for(w, policy, scale)?
                    .configure(|c| c.use_cycle_loop = cycle_loop);
                let start = std::time::Instant::now();
                let metrics = e.run();
                Ok::<_, UnknownWorkload>((
                    start.elapsed().as_secs_f64(),
                    e.warmup_instructions() + scale.measure,
                    metrics,
                ))
            };
            let (cycle_secs, instructions, cycle_metrics) = timed(true)?;
            let (event_secs, _, event_metrics) = timed(false)?;
            Ok(LoopComparison {
                workload: w.to_owned(),
                cycle_secs,
                event_secs,
                instructions,
                metrics_match: cycle_metrics.to_json().to_string()
                    == event_metrics.to_json().to_string(),
            })
        })
        .collect()
}

/// Times the microbench configuration from `benches/microbench.rs`
/// (scaled-down caches, 16 MiB working set, 20k instructions, no
/// warm-up) under both tick loops, averaging `reps` runs per loop.
///
/// This isolates raw loop overhead from warm-up and large-cache
/// effects: with a 64 KiB LLC a random-access workload head-blocks the
/// core for most of its cycles, which is where the event kernel's
/// jumps pay off most. The gups row is the speedup number the
/// `BENCH_system.json` trajectory tracks.
pub fn microbench_system_loops(
    workloads: &[&str],
    reps: u32,
) -> Result<Vec<LoopComparison>, UnknownWorkload> {
    const INSTRUCTIONS: u64 = 20_000;
    workloads
        .iter()
        .map(|&w| {
            let mut spec = WorkloadSpec::try_by_name(w)?;
            spec.working_set_bytes = 16 << 20;
            let timed = |cycle_loop: bool| {
                let mut secs = 0.0;
                let mut metrics_json = String::new();
                for _ in 0..reps.max(1) {
                    let mut system =
                        Experiment::with_spec(spec.clone(), WritePolicy::be_mellow_sc())
                            .configure(|c| {
                                c.l1.size_bytes = 4 << 10;
                                c.l2.size_bytes = 16 << 10;
                                c.llc.size_bytes = 64 << 10;
                                c.use_cycle_loop = cycle_loop;
                            })
                            .build();
                    let start = std::time::Instant::now();
                    system.run_instructions(INSTRUCTIONS);
                    secs += start.elapsed().as_secs_f64();
                    metrics_json = system.metrics(w).to_json().to_string();
                }
                (secs / reps.max(1) as f64, metrics_json)
            };
            let (cycle_secs, cycle_metrics) = timed(true);
            let (event_secs, event_metrics) = timed(false);
            Ok(LoopComparison {
                workload: w.to_owned(),
                cycle_secs,
                event_secs,
                instructions: INSTRUCTIONS,
                metrics_match: cycle_metrics == event_metrics,
            })
        })
        .collect()
}

/// Identifies one cell of a run matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixKey {
    /// Workload name.
    pub workload: String,
    /// Policy (display form is used for report lookups).
    pub policy: WritePolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_scales_inversely_with_mpki() {
        let s = Scale::quick();
        let llc_lines = 32_768;
        let heavy = s.warmup_for(56.34, llc_lines);
        let light = s.warmup_for(1.34, llc_lines);
        assert!(light > heavy);
        assert!(light > 20_000_000, "hmmer-class warm-up fills the LLC");
        assert!(heavy >= s.min_warmup);
    }

    #[test]
    fn experiment_builder_wires_policy() {
        let e = try_experiment_for("stream", WritePolicy::be_mellow_sc(), Scale::quick()).unwrap();
        assert_eq!(e.config().policy, WritePolicy::be_mellow_sc());
        assert_eq!(e.workload().name, "stream");
    }

    #[test]
    fn unknown_workload_lists_presets() {
        let err = try_experiment_for("nope", WritePolicy::norm(), Scale::quick()).unwrap_err();
        assert_eq!(err.requested, "nope");
        assert!(err.to_string().contains("lbm"));
    }
}
