//! Helpers shared by the root integration suites. Each suite uses only
//! part of this module, hence the `dead_code` allowance.
#![allow(dead_code)]

use mellow_writes::core::WritePolicy;
use mellow_writes::engine::{DetRng, Duration, SimTime};
use mellow_writes::memctrl::{Controller, MemConfig};
use mellow_writes::nvm::{CancelWear, EnduranceModel, ExpoFactor};
use mellow_writes::sim::Experiment;
use mellow_writes::workloads::WorkloadSpec;

/// The memory-controller clock period the chaos drivers tick at.
const MEM_CYCLE_PS: u64 = 2500;

/// The scaled-down experiment the end-to-end and additivity tests run:
/// small caches, traffic 8x denser and a shrunken sample period, so
/// every dynamic (LLC fills, writebacks, eager writes, quota periods)
/// appears within a test-sized window.
pub fn scaled(workload: &str, policy: WritePolicy, seed: u64) -> Experiment {
    let mut spec = WorkloadSpec::by_name(workload).expect("preset exists");
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
            c.mem.sample_period = Duration::from_us(10);
        })
}

/// A near-dead part (4-write endurance), so wear crossings, not just
/// injected faults, drive failures.
pub fn near_dead_endurance() -> EnduranceModel {
    EnduranceModel::new(
        Duration::from_ns(150),
        4.0,
        ExpoFactor::new(2.0).expect("2.0 is in [1, 3]"),
    )
}

/// Drives one chaos case's controller: 4,000 memory edges offering a
/// mixed write/read/eager stream drawn from `seed`, then ticks until
/// `drained` holds. Panics naming the seed if the controller has not
/// drained within 3,000,000 edges.
pub fn drive_chaos(
    seed: u64,
    cfg: &MemConfig,
    policy: WritePolicy,
    endurance: EnduranceModel,
    drained: impl Fn(&Controller) -> bool,
) -> Controller {
    let eager_ok = policy.base.uses_eager();
    let mut c = Controller::new(cfg.clone(), policy, endurance, CancelWear::Prorated);
    let mut stream = DetRng::seed_from(seed).derive(0x5_72_EA);
    let lines = cfg.total_lines();
    let mut cyc: u64 = 1;
    while cyc <= 4_000 {
        let now = SimTime::from_ps(cyc * MEM_CYCLE_PS);
        c.tick(now);
        match stream.below(16) {
            0..=4 => {
                c.try_write(stream.below(lines), now);
            }
            5 | 6 => {
                c.try_read(stream.below(lines), now);
            }
            7 if eager_ok && c.eager_has_room() => {
                c.try_eager(stream.below(lines), now);
            }
            _ => {}
        }
        while c.pop_read_done().is_some() {}
        cyc += 1;
    }
    while !drained(&c) {
        assert!(
            cyc < 3_000_000,
            "seed {seed}: never drained: {:?} {:?} {:?} {:?}",
            c.stats(),
            c.fault_stats(),
            c.retention_stats(),
            c.scrub_stats()
        );
        c.tick(SimTime::from_ps(cyc * MEM_CYCLE_PS));
        while c.pop_read_done().is_some() {}
        cyc += 1;
    }
    c
}
