//! Retention-layer integration tests: the additivity guarantee
//! (retention disabled ⇒ bit-identical results, across both tick
//! loops), loop-equivalence with the scrubber enabled, and a seeded
//! chaos suite driving the controller through drift expirations,
//! scrub/demand detections, and failing repair rewrites at many
//! operating points while checking the retention-accounting invariants.

use mellow_writes::core::WritePolicy;
use mellow_writes::engine::{DetRng, Duration, SimTime};
use mellow_writes::memctrl::{Controller, MemConfig, ScrubPriority};
use mellow_writes::nvm::{CancelWear, EnduranceModel, ExpoFactor, SaturatingMerge};
use mellow_writes::sim::Experiment;
use mellow_writes::workloads::WorkloadSpec;

const MEM_CYCLE_PS: u64 = 2500;

/// The scaled-down experiment used by the additivity checks (mirrors
/// `tests/faults.rs` and `tests/end_to_end.rs`).
fn scaled(workload: &str, policy: WritePolicy, seed: u64) -> Experiment {
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

/// Selects the tick loop: the event kernel (the default) or the
/// reference cycle loop.
fn with_loop(e: Experiment, cycle_loop: bool) -> Experiment {
    e.configure(move |c| c.use_cycle_loop = cycle_loop)
}

/// The additivity guarantee, end to end and across every tick loop: a
/// run with the retention layer disabled (the default) and one with it
/// enabled but every drift knob at zero — no base retention, no
/// scrubbing — produce bit-identical metrics rows, because a zero-knob
/// drift clock stamps nothing and a zero-interval scrubber never runs.
#[test]
fn zero_knob_retention_layer_is_bit_identical_to_disabled() {
    for (w, policy) in [
        ("stream", WritePolicy::norm()),
        ("gups", WritePolicy::be_mellow_sc()),
        ("lbm", WritePolicy::b_mellow_sc().with_wear_quota()),
    ] {
        for cycle_loop in [false, true] {
            let disabled = with_loop(scaled(w, policy, 11), cycle_loop).run();
            let enabled = with_loop(scaled(w, policy, 11), cycle_loop)
                .configure(|c| {
                    c.mem.retention.enabled = true;
                    c.mem.retention.base_retention = Duration::ZERO;
                    c.mem.retention.seed = 77;
                    c.mem.scrub_interval = Duration::ZERO;
                })
                .run();
            assert_eq!(
                disabled.to_json().to_string(),
                enabled.to_json().to_string(),
                "{w} cycle_loop={cycle_loop}: zero-knob retention layer perturbed the run"
            );
        }
    }
}

/// With the drift clock and the scrubber fully enabled, the two tick
/// loops still agree bit-for-bit: scrub wake-ups and repair backoff
/// releases ride `next_event` exactly, so the event kernel never
/// sleeps through a visit the cycle loop would have made.
#[test]
fn enabled_scrubber_is_loop_equivalent() {
    let mk = |cycle_loop| {
        with_loop(scaled("gups", WritePolicy::be_mellow_sc(), 23), cycle_loop)
            .configure(|c| {
                c.mem.retention.enabled = true;
                c.mem.retention.base_retention = Duration::from_us(20);
                c.mem.retention.drift_sigma = 0.3;
                c.mem.retention.slow_write_boost = 1.0;
                c.mem.retention.wear_sensitivity = 1.0;
                c.mem.retention.seed = 0xD21F;
                c.mem.scrub_interval = Duration::from_us(2);
                c.mem.fault.enabled = true;
                c.mem.fault.transient_rate = 0.05;
            })
            .run()
    };
    let event = mk(false);
    // The run must exercise the machinery, not vacuously agree.
    assert!(event.scrub.scrub_reads > 0, "scrubber never ran");
    assert!(
        event.retention.demand_verify_failures + event.scrub.scrub_rewrites > 0,
        "no drift failure was ever detected"
    );
    let cycle = mk(true);
    assert_eq!(
        event.to_json().to_string(),
        cycle.to_json().to_string(),
        "event kernel and cycle loop disagree with the scrubber on"
    );
}

/// One chaos case: a controller at a seed-derived retention + fault
/// operating point, fed a seed-derived request stream, then drained
/// and audited.
struct ChaosCase {
    seed: u64,
    cfg: MemConfig,
    policy: WritePolicy,
    endurance: EnduranceModel,
}

impl ChaosCase {
    fn new(seed: u64) -> ChaosCase {
        let mut knobs = DetRng::seed_from(seed).derive(0x4E7_E27);
        let mut cfg = MemConfig::paper_default();
        // 64 KiB over 4 banks: 256 blocks per bank, so a short request
        // stream revisits blocks and the scrubber sweeps a full bank in
        // 256 intervals.
        cfg.capacity_bytes = 1 << 16;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg.max_write_retries = [0, 1, 3][knobs.below(3) as usize];
        cfg.set_spares_per_bank([0, 1, 4][knobs.below(3) as usize]);
        cfg.retention.enabled = true;
        cfg.retention.base_retention = Duration::from_us([2, 10, 50][knobs.below(3) as usize]);
        cfg.retention.drift_sigma = [0.0, 0.3, 1.0][knobs.below(3) as usize];
        cfg.retention.slow_write_boost = [0.0, 1.0, 2.0][knobs.below(3) as usize];
        cfg.retention.wear_sensitivity = [0.0, 2.0][knobs.below(2) as usize];
        cfg.retention.seed = seed;
        // Interval 0 turns the scrubber off: those cases exercise the
        // demand-read detection path alone.
        cfg.scrub_interval = Duration::from_ns([0, 1_000, 5_000][knobs.below(3) as usize]);
        cfg.scrub_priority = if knobs.chance(0.5) {
            ScrubPriority::EagerFirst
        } else {
            ScrubPriority::ScrubFirst
        };
        cfg.repair_backoff = Duration::from_ns([0, 20, 100][knobs.below(3) as usize]);
        // The fault layer supplies the failing-repair substrate: without
        // it a repair rewrite can never fail verify.
        cfg.fault.enabled = true;
        cfg.fault.endurance_sigma = [0.0, 0.25][knobs.below(2) as usize];
        cfg.fault.transient_rate = [0.0, 0.02, 0.2][knobs.below(3) as usize];
        cfg.fault.stuck_at_per_bank = [0, 2][knobs.below(2) as usize];
        cfg.fault.seed = seed;
        let policy = if knobs.chance(0.5) {
            WritePolicy::norm()
        } else {
            WritePolicy::be_mellow_sc()
        };
        // Some cases run on a near-dead part (4-write endurance) so
        // repair rewrites hit wear-outs, walk the remap path, and
        // exhaust spare pools into retention-uncorrectable losses.
        let endurance = if knobs.chance(0.25) {
            EnduranceModel::new(
                Duration::from_ns(150),
                4.0,
                ExpoFactor::new(2.0).expect("2.0 is in [1, 3]"),
            )
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
        let eager_ok = self.policy.base.uses_eager();
        let mut c = Controller::new(
            self.cfg.clone(),
            self.policy,
            self.endurance,
            CancelWear::Prorated,
        );
        let mut stream = DetRng::seed_from(self.seed).derive(0x5_72_EA);
        let lines = self.cfg.total_lines();
        // Offer a mixed stream over 4000 cycles, then drain.
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
        // Drain to a balanced instant: every accepted write and every
        // detected drift failure fully resolved. The scrubber keeps
        // re-detecting as blocks re-expire, so the equality is a
        // recurring quiescence window rather than a terminal state —
        // but it must keep recurring (no silent loss, no stuck repair).
        let drained = |c: &Controller| {
            let s = c.stats();
            let r = c.retention_stats();
            let sc = c.scrub_stats();
            s.demand_writes_accepted
                + s.eager_writes_accepted
                + r.demand_verify_failures
                + sc.scrub_rewrites
                == s.writes_completed_normal
                    + s.writes_completed_slow
                    + r.repairs
                    + c.fault_stats().uncorrectable
        };
        while !drained(&c) {
            assert!(
                cyc < 3_000_000,
                "seed {}: writes/repairs never drained: {:?} {:?} {:?} {:?}",
                self.seed,
                c.stats(),
                c.fault_stats(),
                c.retention_stats(),
                c.scrub_stats()
            );
            c.tick(SimTime::from_ps(cyc * MEM_CYCLE_PS));
            while c.pop_read_done().is_some() {}
            cyc += 1;
        }
        let fingerprint = format!(
            "{:?} {:?} {:?} {:?}",
            c.stats(),
            c.fault_stats(),
            c.retention_stats(),
            c.scrub_stats()
        );
        (c, fingerprint)
    }

    /// The retention- and fault-accounting invariants every case must
    /// satisfy at the drained instant.
    fn audit(&self, c: &Controller) {
        let seed = self.seed;
        let s = c.stats();
        let f = c.fault_stats();
        let r = c.retention_stats();
        let sc = c.scrub_stats();

        // Every detected drift failure resolves exactly one way:
        // repaired, or lost through the spare-exhausted remap path.
        assert_eq!(
            r.demand_verify_failures + sc.scrub_rewrites,
            r.repairs + r.retention_uncorrectable,
            "seed {seed}: detection resolution does not add up: {r:?} {sc:?}"
        );

        // A retention loss is a fault-layer loss (same drop path), and
        // with the scrubber off every detection came from a demand read.
        assert!(
            r.retention_uncorrectable <= f.uncorrectable,
            "seed {seed}: retention losses exceed total losses: {r:?} {f:?}"
        );
        if self.cfg.scrub_interval == Duration::ZERO {
            assert_eq!(sc.scrub_reads, 0, "seed {seed}: disabled scrubber ran");
            assert_eq!(sc.scrub_rewrites, 0, "seed {seed}: disabled scrubber ran");
        }

        // Every verify failure resolves exactly one way (unchanged from
        // the fault suite: repair rewrites participate uniformly).
        assert_eq!(
            f.verify_failures,
            f.retries + f.remaps + f.uncorrectable,
            "seed {seed}: failure resolution does not add up: {f:?}"
        );

        // Spares are never double-allocated and never refilled.
        let total_spares = self.cfg.num_banks as u64 * self.cfg.spares_per_bank();
        assert_eq!(
            f.remaps + f.spares_remaining,
            total_spares,
            "seed {seed}: spare pool accounting broken: {f:?}"
        );

        // Retries are bounded by the configured budget; repair chains
        // consume from the same budget as write chains.
        let chains = s.writes_completed_normal
            + s.writes_completed_slow
            + r.repairs
            + f.remaps
            + f.uncorrectable;
        assert!(
            f.retries <= self.cfg.max_write_retries as u64 * chains,
            "seed {seed}: retries {} exceed budget {} x {chains} chains",
            f.retries,
            self.cfg.max_write_retries
        );

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
        // Degradation is loud: losses always surface as marked blocks
        // and shrunken capacity, never silently.
        if f.uncorrectable == 0 {
            assert_eq!(lost, 0, "seed {seed}: blocks lost without data loss");
        } else {
            assert!(lost > 0, "seed {seed}: data lost but no block marked");
        }
    }
}

/// 72 seeded cases across the retention-knob grid (drift rate × sigma ×
/// slow-write boost × wear coupling × scrub interval × priority ×
/// backoff × the fault grid), each audited against the accounting
/// invariants, with aggregate non-vacuity checks folded through the
/// shared saturating-merge helper.
#[test]
fn chaos_cases_satisfy_retention_invariants() {
    let mut totals = mellow_writes::memctrl::RetentionStats::default();
    let mut scrub_totals = mellow_writes::memctrl::ScrubStats::default();
    for seed in 0..72 {
        let case = ChaosCase::new(seed);
        let (c, _) = case.run();
        case.audit(&c);
        totals.saturating_merge(c.retention_stats());
        scrub_totals.saturating_merge(c.scrub_stats());
    }
    // The grid must exercise every arm of the machinery, not vacuously
    // pass: both detection paths, successful repairs, repair failures
    // all the way to capacity loss, and scrub arbitration pressure.
    assert!(
        totals.demand_verify_failures > 50,
        "chaos grid too tame: {totals:?}"
    );
    assert!(
        scrub_totals.scrub_rewrites > 25,
        "chaos grid too tame: {scrub_totals:?}"
    );
    assert!(totals.repairs > 100, "chaos grid too tame: {totals:?}");
    assert!(
        totals.retention_uncorrectable > 0,
        "chaos grid never lost a repair; the degradation path is untested"
    );
    assert!(
        scrub_totals.scrub_bank_conflicts > 0,
        "chaos grid never contended an idle-bank window"
    );
}

/// A chaos case replayed from the same seed is bit-identical — drift
/// deadlines draw only from their own derived streams.
#[test]
fn chaos_cases_are_deterministic() {
    for seed in [5, 19, 43, 66] {
        let case = ChaosCase::new(seed);
        let (_, a) = case.run();
        let (_, b) = ChaosCase::new(seed).run();
        assert_eq!(a, b, "seed {seed} not reproducible");
    }
}
