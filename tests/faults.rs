//! Fault-layer integration tests: the additivity guarantee (faults
//! disabled ⇒ bit-identical results) and a seeded chaos suite driving
//! the controller through stuck-at blocks, transient write failures,
//! and endurance exhaustion at many operating points while checking
//! the fault-accounting invariants.

mod common;

use common::{drive_chaos, near_dead_endurance, scaled};
use mellow_writes::core::WritePolicy;
use mellow_writes::engine::DetRng;
use mellow_writes::memctrl::{Controller, MemConfig};
use mellow_writes::nvm::EnduranceModel;

/// The additivity guarantee, end to end: a controller with the fault
/// layer disabled (the default) and one with it enabled but every
/// fault knob at zero — no endurance variation, no stuck-at blocks, no
/// transient failures — produce bit-identical metrics rows, because a
/// zero-knob fault layer can never fail a verify.
#[test]
fn zero_knob_fault_layer_is_bit_identical_to_disabled() {
    for (w, policy) in [
        ("stream", WritePolicy::norm()),
        ("gups", WritePolicy::be_mellow_sc()),
        ("lbm", WritePolicy::b_mellow_sc().with_wear_quota()),
    ] {
        let disabled = scaled(w, policy, 11).run();
        let enabled = scaled(w, policy, 11)
            .configure(|c| c.mem.fault.enabled = true)
            .run();
        assert_eq!(
            disabled.to_json().to_string(),
            enabled.to_json().to_string(),
            "{w}: zero-knob fault layer perturbed the run"
        );
    }
}

/// One chaos case: a controller at a seed-derived fault operating
/// point, fed a seed-derived request stream, then drained and audited.
struct ChaosCase {
    seed: u64,
    cfg: MemConfig,
    policy: WritePolicy,
    endurance: EnduranceModel,
}

impl ChaosCase {
    fn new(seed: u64) -> ChaosCase {
        let mut knobs = DetRng::seed_from(seed).derive(0xC_4A_05);
        let mut cfg = MemConfig::paper_default();
        // 64 KiB over 4 banks: 256 blocks per bank, so stuck-at blocks
        // and wear-outs are actually hit by a short request stream.
        cfg.capacity_bytes = 1 << 16;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg.max_write_retries = [0, 1, 3][knobs.below(3) as usize];
        cfg.set_spares_per_bank([0, 1, 4][knobs.below(3) as usize]);
        cfg.fault.enabled = true;
        cfg.fault.endurance_sigma = [0.0, 0.25, 1.0][knobs.below(3) as usize];
        cfg.fault.transient_rate = [0.0, 0.02, 0.2, 0.8][knobs.below(4) as usize];
        cfg.fault.stuck_at_per_bank = [0, 1, 4, 16][knobs.below(4) as usize];
        cfg.fault.seed = seed;
        let policy = if knobs.chance(0.5) {
            WritePolicy::norm()
        } else {
            WritePolicy::be_mellow_sc()
        };
        let endurance = if knobs.chance(0.25) {
            near_dead_endurance()
        } else {
            EnduranceModel::reram_default()
        };
        ChaosCase {
            seed,
            cfg,
            policy,
            endurance,
        }
    }

    /// Runs the case and returns the drained controller plus the debug
    /// fingerprint used by the determinism check.
    fn run(&self) -> (Controller, String) {
        let drained = |c: &Controller| {
            let s = c.stats();
            s.demand_writes_accepted + s.eager_writes_accepted
                == s.writes_completed_normal
                    + s.writes_completed_slow
                    + c.fault_stats().uncorrectable
        };
        let c = drive_chaos(self.seed, &self.cfg, self.policy, self.endurance, drained);
        let fingerprint = format!("{:?} {:?}", c.stats(), c.fault_stats());
        (c, fingerprint)
    }

    /// The fault-accounting invariants every case must satisfy.
    fn audit(&self, c: &Controller) {
        let seed = self.seed;
        let s = c.stats();
        let f = c.fault_stats();

        // Every verify failure resolves exactly one way.
        assert_eq!(
            f.verify_failures,
            f.retries + f.remaps + f.uncorrectable,
            "seed {seed}: failure resolution does not add up: {f:?}"
        );

        // Spares are never double-allocated and never refilled: each
        // remap consumed exactly one spare from the fixed pool.
        let total_spares = self.cfg.num_banks as u64 * self.cfg.spares_per_bank();
        assert_eq!(
            f.remaps + f.spares_remaining,
            total_spares,
            "seed {seed}: spare pool accounting broken: {f:?}"
        );

        // Retries are bounded by the configured budget: each completed,
        // remapped, or lost write chain consumed at most
        // `max_write_retries` of them.
        let chains =
            s.writes_completed_normal + s.writes_completed_slow + f.remaps + f.uncorrectable;
        assert!(
            f.retries <= self.cfg.max_write_retries as u64 * chains,
            "seed {seed}: retries {} exceed budget {} x {chains} chains",
            f.retries,
            self.cfg.max_write_retries
        );

        // No write is silently lost: the drain condition already forced
        // accepted == completed + uncorrectable. Data loss additionally
        // requires the *losing bank's* pool to be empty, which takes at
        // least one full pool's worth of remaps (pools are per bank, so
        // other banks may still hold spares).
        if f.uncorrectable > 0 && self.cfg.spares_per_bank() > 0 {
            assert!(
                f.remaps >= self.cfg.spares_per_bank(),
                "seed {seed}: data lost before any bank could exhaust its pool: {f:?}"
            );
        }

        // Capacity accounting sums to the total block space (each bank
        // has one extra physical block: Start-Gap's gap spare).
        let total_blocks = self.cfg.num_banks as u64 * (self.cfg.blocks_per_bank() + 1);
        let lost = c.lost_blocks();
        assert!(lost <= total_blocks, "seed {seed}: lost {lost} blocks");
        let expect = 1.0 - lost as f64 / total_blocks as f64;
        assert!(
            (c.usable_capacity_fraction() - expect).abs() < 1e-12,
            "seed {seed}: usable fraction {} != {expect}",
            c.usable_capacity_fraction()
        );
        if f.uncorrectable == 0 {
            assert_eq!(lost, 0, "seed {seed}: blocks lost without data loss");
        } else {
            assert!(lost > 0, "seed {seed}: data lost but no block marked");
        }
    }
}

/// 72 seeded cases across the fault-knob grid (stuck-at × transient ×
/// sigma × retry budget × spare pool × policy × endurance), each
/// audited against the accounting invariants.
#[test]
fn chaos_cases_satisfy_fault_invariants() {
    let mut failures_seen = 0u64;
    let mut losses_seen = 0u64;
    for seed in 0..72 {
        let case = ChaosCase::new(seed);
        let (c, _) = case.run();
        case.audit(&c);
        failures_seen += c.fault_stats().verify_failures;
        losses_seen += c.fault_stats().uncorrectable;
    }
    // The grid must actually exercise the machinery, not vacuously pass.
    assert!(
        failures_seen > 100,
        "chaos grid too tame: {failures_seen} verify failures total"
    );
    assert!(
        losses_seen > 0,
        "chaos grid never exhausted a spare pool; losses untested"
    );
}

/// A chaos case replayed from the same seed is bit-identical — the
/// fault layer draws only from its own derived streams.
#[test]
fn chaos_cases_are_deterministic() {
    for seed in [3, 17, 41, 64] {
        let case = ChaosCase::new(seed);
        let (_, a) = case.run();
        let (_, b) = ChaosCase::new(seed).run();
        assert_eq!(a, b, "seed {seed} not reproducible");
    }
}
