//! The per-run metrics row.

use crate::SystemConfig;
use mellow_cache::{Cache, CacheStats};
use mellow_cpu::Core;
use mellow_engine::{CoreCycles, Duration, SimTime};
use mellow_memctrl::{Controller, CtrlStats, FaultStats, RetentionStats, ScrubStats};
use mellow_nvm::energy::{EnergyAccount, EnergyModel};

/// Everything measured in one `(workload, policy)` run — the atom from
/// which every table and figure of the paper's evaluation is assembled.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Workload name.
    pub workload: String,
    /// Policy name (Table III notation, e.g. `BE-Mellow+SC+WQ`).
    pub policy: String,
    /// Instructions retired in the measured window.
    pub instructions: u64,
    /// Loads dispatched by the core (memory reference mix, numerator of
    /// the read share).
    pub loads: u64,
    /// Stores dispatched by the core.
    pub stores: u64,
    /// Core cycles in the measured window.
    pub core_cycles: CoreCycles,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Simulated time measured, in seconds.
    pub elapsed_secs: f64,
    /// LLC misses per 1000 instructions (Table IV's calibration metric).
    pub mpki: f64,
    /// Projected memory lifetime in years (min over banks; Fig. 11).
    pub lifetime_years: f64,
    /// Per-bank projected lifetimes in years.
    pub per_bank_lifetime_years: Vec<f64>,
    /// Projected years until usable capacity drops below 99% (equals
    /// the first-failure lifetime when endurance variation is off).
    pub capacity_99_years: f64,
    /// Projected years until usable capacity drops below 95%.
    pub capacity_95_years: f64,
    /// Usable-capacity fraction at the end of the run: 1.0 unless the
    /// fault layer exhausted a spare pool and declared blocks lost.
    pub usable_capacity_fraction: f64,
    /// Fault-layer counters (write-verify failures, retries, remaps,
    /// spares remaining, uncorrectable losses).
    pub faults: FaultStats,
    /// Retention-layer counters (drift detections on demand reads,
    /// completed repairs, uncorrectable retention losses).
    pub retention: RetentionStats,
    /// Background scrub engine counters (visits, expired-block
    /// rewrites, lost idle-bank arbitrations).
    pub scrub: ScrubStats,
    /// Mean bank utilization (Figs. 3 and 12).
    pub avg_bank_utilization: f64,
    /// Fraction of the measured window spent in write drains (Fig. 13).
    pub drain_fraction: f64,
    /// Total wear in normal-write equivalents across banks.
    pub total_wear: f64,
    /// Per-bank wear records (write counts by speed, cancellations,
    /// leveling overhead) — the raw material for the Fig. 17 exponent
    /// sensitivity recomputation.
    pub bank_wear: Vec<mellow_nvm::BankWear>,
    /// Fraction of completed demand+eager writes that were slow.
    pub slow_write_fraction: f64,
    /// Memory controller counters.
    pub ctrl: CtrlStats,
    /// LLC counters (eager issue/waste accounting lives here).
    pub llc: CacheStats,
    /// Raw energy-bearing operation counts.
    pub energy_ops: EnergyAccount,
    /// Wear-leveling scheme the run used (`start-gap`, `wolfram`,
    /// `softwear`).
    pub leveler: String,
    /// Leveling overhead/migration counters over the measured window,
    /// summed across banks.
    pub leveling: mellow_nvm::LevelerStats,
}

impl Metrics {
    /// Gathers a metrics row from the system's components over the
    /// measured `elapsed` window.
    pub(crate) fn collect(
        workload: &str,
        cfg: &SystemConfig,
        core: &Core,
        llc: &Cache,
        ctrl: &Controller,
        now: SimTime,
        elapsed: Duration,
    ) -> Metrics {
        let instructions = core.retired_instructions();
        let horizon = if elapsed > Duration::ZERO {
            elapsed
        } else {
            Duration::from_ns(1)
        };
        let lifetime = ctrl.lifetime(horizon);
        let ledger = ctrl.ledger();
        let completed: u64 = ledger.iter().map(|b| b.completed_writes()).sum();
        let slow: u64 = ledger.iter().map(|b| b.slow_writes).sum();
        Metrics {
            workload: workload.to_owned(),
            policy: cfg.policy.to_string(),
            instructions,
            loads: core.stats().loads,
            stores: core.stats().stores,
            core_cycles: core.cycles(),
            ipc: core.ipc(),
            elapsed_secs: elapsed.as_secs_f64(),
            mpki: if instructions == 0 {
                0.0
            } else {
                llc.stats().demand_misses as f64 * 1000.0 / instructions as f64
            },
            lifetime_years: lifetime.min_years,
            per_bank_lifetime_years: lifetime.per_bank_years,
            capacity_99_years: ctrl.capacity_years(horizon, 0.99),
            capacity_95_years: ctrl.capacity_years(horizon, 0.95),
            usable_capacity_fraction: ctrl.usable_capacity_fraction(),
            faults: ctrl.fault_stats(),
            retention: ctrl.retention_stats().clone(),
            scrub: ctrl.scrub_stats().clone(),
            avg_bank_utilization: ctrl.avg_bank_utilization(elapsed.max(Duration::from_ns(1))),
            drain_fraction: ctrl
                .drain_time(now)
                .fraction_of(elapsed.max(Duration::from_ns(1))),
            total_wear: ledger.total_wear(),
            bank_wear: ledger.iter().copied().collect(),
            slow_write_fraction: if completed == 0 {
                0.0
            } else {
                slow as f64 / completed as f64
            },
            ctrl: ctrl.stats().clone(),
            llc: *llc.stats(),
            energy_ops: *ctrl.energy(),
            leveler: ctrl.leveler_name().to_owned(),
            leveling: ctrl.leveler_stats(),
        }
    }

    /// Total main-memory energy in picojoules under `model` (Fig. 16
    /// uses CellC).
    pub fn memory_energy_pj(&self, model: &EnergyModel) -> f64 {
        self.energy_ops.total_pj(model)
    }

    /// Memory requests sent from the LLC (Fig. 14): `(reads, demand
    /// writebacks, eager writebacks)`.
    pub fn llc_requests(&self) -> (u64, u64, u64) {
        (
            self.ctrl.reads_accepted + self.ctrl.reads_forwarded,
            self.ctrl.demand_writes_accepted,
            self.ctrl.eager_writes_accepted,
        )
    }

    /// Requests issued to banks, including cancelled write attempts
    /// (Fig. 15).
    pub fn issued_to_banks(&self) -> u64 {
        self.ctrl.issued_to_banks()
    }

    /// Serializes the full row to a JSON object (the `ResultStore`
    /// line format).
    pub fn to_json(&self) -> mellow_engine::json::Json {
        mellow_engine::json::JsonField::to_json(self)
    }

    /// Rebuilds a row from [`Metrics::to_json`] output; `None` if any
    /// field is missing or mistyped.
    pub fn from_json(v: &mellow_engine::json::Json) -> Option<Metrics> {
        mellow_engine::json::JsonField::from_json(v)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<11} {:<18} IPC {:>5.3}  MPKI {:>6.2}  life {:>8.2}y  util {:>5.1}%  drain {:>4.1}%  slow {:>5.1}%",
            self.workload,
            self.policy,
            self.ipc,
            self.mpki,
            self.lifetime_years,
            self.avg_bank_utilization * 100.0,
            self.drain_fraction * 100.0,
            self.slow_write_fraction * 100.0,
        )
    }
}

mellow_engine::impl_json_fields!(Metrics {
    workload,
    policy,
    instructions,
    loads,
    stores,
    core_cycles,
    ipc,
    elapsed_secs,
    mpki,
    lifetime_years,
    per_bank_lifetime_years,
    capacity_99_years,
    capacity_95_years,
    usable_capacity_fraction,
    faults,
    retention,
    scrub,
    avg_bank_utilization,
    drain_fraction,
    total_wear,
    bank_wear,
    slow_write_fraction,
    ctrl,
    llc,
    energy_ops,
    leveler,
    leveling,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_key_fields() {
        let m = Metrics {
            workload: "stream".into(),
            policy: "Norm".into(),
            instructions: 1000,
            loads: 0,
            stores: 0,
            core_cycles: CoreCycles::new(2000),
            ipc: 0.5,
            elapsed_secs: 1e-6,
            mpki: 12.3,
            lifetime_years: 4.5,
            per_bank_lifetime_years: vec![4.5],
            capacity_99_years: 4.5,
            capacity_95_years: 4.5,
            usable_capacity_fraction: 1.0,
            faults: FaultStats::default(),
            retention: RetentionStats::default(),
            scrub: ScrubStats::default(),
            avg_bank_utilization: 0.25,
            drain_fraction: 0.01,
            total_wear: 10.0,
            bank_wear: vec![],
            slow_write_fraction: 0.5,
            ctrl: CtrlStats::default(),
            llc: CacheStats::default(),
            energy_ops: EnergyAccount::default(),
            leveler: "start-gap".into(),
            leveling: mellow_nvm::LevelerStats::default(),
        };
        let s = m.summary();
        assert!(s.contains("stream"));
        assert!(s.contains("Norm"));
        assert!(s.contains("12.30"));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut ctrl = CtrlStats {
            reads_accepted: 123,
            ..Default::default()
        };
        ctrl.read_latency_ns.record(75);
        ctrl.read_latency_ns.record(90_000);
        let llc = CacheStats {
            demand_misses: 42,
            ..Default::default()
        };
        let m = Metrics {
            workload: "gups".into(),
            policy: "BE-Mellow+SC".into(),
            instructions: 1_000_000,
            loads: 0,
            stores: 0,
            core_cycles: CoreCycles::new(2_000_000),
            ipc: 0.5,
            elapsed_secs: 1e-3,
            mpki: 8.91,
            lifetime_years: f64::INFINITY,
            per_bank_lifetime_years: vec![4.25, f64::INFINITY],
            capacity_99_years: 4.25,
            capacity_95_years: f64::INFINITY,
            usable_capacity_fraction: 0.75,
            faults: FaultStats {
                verify_failures: 7,
                retries: 4,
                remaps: 2,
                spares_remaining: 126,
                uncorrectable: 1,
            },
            retention: RetentionStats {
                demand_verify_failures: 5,
                repairs: 6,
                retention_uncorrectable: 2,
            },
            scrub: ScrubStats {
                scrub_reads: 900,
                scrub_rewrites: 3,
                scrub_bank_conflicts: 11,
            },
            avg_bank_utilization: 1.0 / 3.0,
            drain_fraction: 0.01,
            total_wear: 1234.5,
            bank_wear: vec![
                mellow_nvm::BankWear {
                    total_wear: 10.5,
                    normal_writes: 9,
                    slow_writes: 3,
                    cancelled_writes: 1,
                    cancelled_normal_equiv: 0.25,
                    cancelled_slow_equiv: 0.0,
                    leveling_writes: 2,
                },
                mellow_nvm::BankWear::default(),
            ],
            slow_write_fraction: 0.25,
            ctrl,
            llc,
            energy_ops: EnergyAccount::default(),
            leveler: "wolfram".into(),
            leveling: mellow_nvm::LevelerStats {
                overhead_writes: 40,
                migrations: 20,
                fault_remaps: 2,
            },
        };
        let text = m.to_json().to_string();
        let back = Metrics::from_json(&mellow_engine::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.workload, m.workload);
        assert_eq!(back.policy, m.policy);
        assert_eq!(back.ipc.to_bits(), m.ipc.to_bits());
        assert_eq!(
            back.avg_bank_utilization.to_bits(),
            m.avg_bank_utilization.to_bits()
        );
        assert_eq!(back.lifetime_years, f64::INFINITY);
        assert_eq!(back.per_bank_lifetime_years, m.per_bank_lifetime_years);
        assert_eq!(back.bank_wear, m.bank_wear);
        assert_eq!(back.capacity_95_years, f64::INFINITY);
        assert_eq!(back.usable_capacity_fraction.to_bits(), (0.75f64).to_bits());
        assert_eq!(back.faults, m.faults);
        assert_eq!(back.retention, m.retention);
        assert_eq!(back.scrub, m.scrub);
        assert_eq!(back.ctrl, m.ctrl);
        assert_eq!(back.llc, m.llc);
        assert_eq!(back.energy_ops, m.energy_ops);
        assert_eq!(back.leveler, "wolfram");
        assert_eq!(back.leveling, m.leveling);
    }

    #[test]
    fn json_missing_field_is_rejected() {
        let m = Metrics {
            workload: "w".into(),
            policy: "p".into(),
            instructions: 0,
            loads: 0,
            stores: 0,
            core_cycles: CoreCycles::ZERO,
            ipc: 0.0,
            elapsed_secs: 0.0,
            mpki: 0.0,
            lifetime_years: 0.0,
            per_bank_lifetime_years: vec![],
            capacity_99_years: 0.0,
            capacity_95_years: 0.0,
            usable_capacity_fraction: 1.0,
            faults: FaultStats::default(),
            retention: RetentionStats::default(),
            scrub: ScrubStats::default(),
            avg_bank_utilization: 0.0,
            drain_fraction: 0.0,
            total_wear: 0.0,
            bank_wear: vec![],
            slow_write_fraction: 0.0,
            ctrl: CtrlStats::default(),
            llc: CacheStats::default(),
            energy_ops: EnergyAccount::default(),
            leveler: "start-gap".into(),
            leveling: mellow_nvm::LevelerStats::default(),
        };
        let text = m.to_json().to_string().replace("\"ipc\"", "\"ipq\"");
        let v = mellow_engine::json::Json::parse(&text).unwrap();
        assert!(Metrics::from_json(&v).is_none());
    }

    #[test]
    fn energy_uses_model() {
        let mut ops = EnergyAccount::default();
        ops.add_normal_write();
        let m = Metrics {
            workload: "w".into(),
            policy: "p".into(),
            instructions: 0,
            loads: 0,
            stores: 0,
            core_cycles: CoreCycles::ZERO,
            ipc: 0.0,
            elapsed_secs: 0.0,
            mpki: 0.0,
            lifetime_years: 0.0,
            per_bank_lifetime_years: vec![],
            capacity_99_years: 0.0,
            capacity_95_years: 0.0,
            usable_capacity_fraction: 1.0,
            faults: FaultStats::default(),
            retention: RetentionStats::default(),
            scrub: ScrubStats::default(),
            avg_bank_utilization: 0.0,
            drain_fraction: 0.0,
            total_wear: 0.0,
            bank_wear: vec![],
            slow_write_fraction: 0.0,
            ctrl: CtrlStats::default(),
            llc: CacheStats::default(),
            energy_ops: ops,
            leveler: "start-gap".into(),
            leveling: mellow_nvm::LevelerStats::default(),
        };
        let model = EnergyModel::fig16_default();
        assert!((m.memory_energy_pj(&model) - 402.4).abs() < 0.05);
    }
}
