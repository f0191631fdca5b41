//! Leveling-layer integration tests: the Start-Gap equivalence oracle
//! (the trait refactor must be bit-identical to the pre-trait
//! controller on every Table IV workload), end-to-end threading of the
//! leveler choice into `Metrics`, and chaos/property coverage of the
//! WoLFRaM table servicing wear rotation and verify-failure remaps
//! from one spare pool.

mod common;

use common::{drive_chaos, scaled};
use mellow_writes::core::WritePolicy;
use mellow_writes::engine::json::Json;
use mellow_writes::engine::DetRng;
use mellow_writes::memctrl::{Controller, MemConfig};
use mellow_writes::nvm::{EnduranceModel, LevelerConfig};
use mellow_writes::workloads::WorkloadSpec;

/// FNV-1a over a metrics row's serialized JSON.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes a metrics row exactly as the pre-trait controller did:
/// the `leveler` / `leveling` keys this PR added — and the
/// `retention` / `scrub` blocks the retention layer added later (all
/// zeros with the layer disabled; its own additivity suite pins the
/// disabled layer bit-identical) — are stripped from the top-level
/// object so the hash compares the fields both versions share (on
/// pre-trait rows the strip is the identity).
fn legacy_json(m: &mellow_writes::sim::Metrics) -> String {
    match m.to_json() {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| {
                    k != "leveler" && k != "leveling" && k != "retention" && k != "scrub"
                })
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

/// The equivalence oracle for the `WearLeveler` refactor: with the
/// default configuration (`leveler = StartGap`, faults off) every
/// Table IV workload's metrics row hashes exactly to the value the
/// pre-trait controller produced (captured before the refactor with
/// the same experiment settings). Any behavioral drift in the
/// remap/note_write call order, the gap arithmetic, or the stats
/// plumbing shows up here as a hash mismatch.
#[test]
fn default_startgap_is_bit_identical_to_pre_trait_controller() {
    let golden: [(&str, u64); 11] = [
        ("leslie3d", 0x08833a81b33f0cd3),
        ("GemsFDTD", 0xa9782586ab1b6c90),
        ("libquantum", 0xc6e62ef6d1d93d49),
        ("stream", 0x1904104027462233),
        ("hmmer", 0x709546c9fc147f0d),
        ("zeusmp", 0xd337adc1088a9631),
        ("bwaves", 0x2a356223b3257d4b),
        ("gups", 0xb8cb7d014ddbc191),
        ("milc", 0xb39637ee53a13500),
        ("mcf", 0x77d0d27d88e98802),
        ("lbm", 0x5fef6da560f43625),
    ];
    assert_eq!(golden.len(), WorkloadSpec::names().len());
    for (w, want) in golden {
        let m = scaled(w, WritePolicy::be_mellow_sc().with_wear_quota(), 7).run();
        assert_eq!(m.leveler, "start-gap", "{w}: default leveler changed");
        let got = fnv1a(&legacy_json(&m));
        assert_eq!(
            got, want,
            "{w}: metrics row drifted from the pre-trait controller (hash {got:#018x})"
        );
    }
}

/// The leveler choice threads from `MemConfig` through the controller
/// into the metrics row: each scheme reports its own name and its
/// leveling activity, and all three produce a full run.
#[test]
fn leveler_choice_threads_through_to_metrics() {
    let configs = [
        (LevelerConfig::start_gap_default(), "start-gap"),
        (LevelerConfig::wolfram_default(), "wolfram"),
        (
            // A short epoch so the page leveler provably migrates
            // within the scaled window.
            LevelerConfig::SoftWear {
                epoch_writes: 64,
                page_blocks: 64,
                spares_per_bank: 8,
            },
            "softwear",
        ),
    ];
    for (cfg, name) in configs {
        let m = scaled("gups", WritePolicy::be_mellow_sc(), 5)
            .configure(move |c| c.mem.leveler = cfg)
            .run();
        assert_eq!(m.leveler, name);
        assert!(
            m.leveling.migrations > 0,
            "{name}: a write-heavy run must trigger leveling activity: {:?}",
            m.leveling
        );
        assert!(
            m.leveling.overhead_writes >= m.leveling.migrations,
            "{name}: every migration writes at least one block: {:?}",
            m.leveling
        );
        assert!(m.ctrl.writes_completed_normal + m.ctrl.writes_completed_slow > 0);
        // The ledger's leveling-write count and the leveler's own
        // overhead counter describe the same events.
        let ledger_leveling: u64 = m.bank_wear.iter().map(|b| b.leveling_writes).sum();
        assert_eq!(
            ledger_leveling, m.leveling.overhead_writes,
            "{name}: ledger and leveler disagree on overhead writes"
        );
    }
}

/// A faultless leveler swap perturbs wear bookkeeping but never the
/// request stream: IPC and completed-write counts are identical across
/// the three schemes (remapping is invisible to timing in this model).
#[test]
fn leveler_swap_preserves_timing_behavior() {
    let base = scaled("stream", WritePolicy::norm(), 3).run();
    for cfg in [
        LevelerConfig::wolfram_default(),
        LevelerConfig::SoftWear {
            epoch_writes: 256,
            page_blocks: 64,
            spares_per_bank: 8,
        },
    ] {
        let m = scaled("stream", WritePolicy::norm(), 3)
            .configure(move |c| c.mem.leveler = cfg)
            .run();
        assert_eq!(m.ipc.to_bits(), base.ipc.to_bits(), "{}", m.leveler);
        assert_eq!(m.ctrl, base.ctrl, "{}", m.leveler);
    }
}

/// One WoLFRaM chaos case: a controller with the programmable remap
/// table at a seed-derived fault operating point, fed a seed-derived
/// stream, drained, and audited against the spare-pool accounting
/// invariants (mirrors `tests/faults.rs::ChaosCase`).
struct WolframCase {
    seed: u64,
    cfg: MemConfig,
    policy: WritePolicy,
    spares: u64,
}

impl WolframCase {
    fn new(seed: u64) -> WolframCase {
        let mut knobs = DetRng::seed_from(seed).derive(0x70_1F_4A);
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 16;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg.max_write_retries = [0, 1, 3][knobs.below(3) as usize];
        let spares = [0, 1, 4][knobs.below(3) as usize];
        cfg.leveler = LevelerConfig::Wolfram {
            remap_interval: [10, 50, 100][knobs.below(3) as usize],
            spares_per_bank: spares,
        };
        cfg.fault.enabled = true;
        cfg.fault.endurance_sigma = [0.0, 0.25][knobs.below(2) as usize];
        cfg.fault.transient_rate = [0.0, 0.02, 0.2, 0.5][knobs.below(4) as usize];
        cfg.fault.stuck_at_per_bank = [0, 1, 4][knobs.below(3) as usize];
        cfg.fault.seed = seed;
        let policy = if knobs.chance(0.5) {
            WritePolicy::norm()
        } else {
            WritePolicy::be_mellow_sc()
        };
        WolframCase {
            seed,
            cfg,
            policy,
            spares,
        }
    }

    fn run(&self) -> Controller {
        let drained = |c: &Controller| {
            let s = c.stats();
            s.demand_writes_accepted + s.eager_writes_accepted
                == s.writes_completed_normal
                    + s.writes_completed_slow
                    + c.fault_stats().uncorrectable
        };
        drive_chaos(
            self.seed,
            &self.cfg,
            self.policy,
            EnduranceModel::reram_default(),
            drained,
        )
    }

    fn audit(&self, c: &Controller) {
        let seed = self.seed;
        let f = c.fault_stats();
        let lv = c.leveler_stats();

        // Every verify failure resolves exactly one way — with the
        // leveler, not the fault layer, servicing the remaps.
        assert_eq!(
            f.verify_failures,
            f.retries + f.remaps + f.uncorrectable,
            "seed {seed}: failure resolution does not add up: {f:?}"
        );

        // One table owns the pool: every controller-level remap was a
        // leveler fault-remap, each consuming exactly one spare.
        assert_eq!(
            lv.fault_remaps, f.remaps,
            "seed {seed}: leveler and controller disagree on remaps"
        );
        let total_spares = self.cfg.num_banks as u64 * self.spares;
        assert_eq!(
            f.remaps + f.spares_remaining,
            total_spares,
            "seed {seed}: spare pool accounting broken: {f:?}"
        );

        // Rotation overhead: two block copies per migration, always.
        assert_eq!(
            lv.overhead_writes,
            2 * lv.migrations,
            "seed {seed}: WoLFRaM swap must copy exactly two blocks: {lv:?}"
        );

        // Data loss requires an exhausted pool (pools are per bank, so
        // at least one bank's worth of remaps must have happened).
        if f.uncorrectable > 0 && self.spares > 0 {
            assert!(
                f.remaps >= self.spares,
                "seed {seed}: data lost before any bank could exhaust its pool: {f:?}"
            );
        }

        // Capacity accounting covers the leveler's whole physical
        // space: `blocks + spares` per bank for the WoLFRaM table.
        let total_blocks = self.cfg.num_banks as u64 * (self.cfg.blocks_per_bank() + self.spares);
        let lost = c.lost_blocks();
        assert!(lost <= total_blocks, "seed {seed}: lost {lost} blocks");
        let expect = 1.0 - lost as f64 / total_blocks as f64;
        assert!(
            (c.usable_capacity_fraction() - expect).abs() < 1e-12,
            "seed {seed}: usable fraction {} != {expect}",
            c.usable_capacity_fraction()
        );
    }
}

/// 48 seeded WoLFRaM chaos cases across the fault-knob grid, each
/// audited against the unified-pool accounting invariants.
#[test]
fn wolfram_chaos_cases_satisfy_pool_invariants() {
    let mut failures_seen = 0u64;
    let mut remaps_seen = 0u64;
    for seed in 0..48 {
        let case = WolframCase::new(seed);
        let c = case.run();
        case.audit(&c);
        failures_seen += c.fault_stats().verify_failures;
        remaps_seen += c.fault_stats().remaps;
    }
    // The grid must exercise the unified remap path, not vacuously pass.
    assert!(
        failures_seen > 100,
        "chaos grid too tame: {failures_seen} verify failures total"
    );
    assert!(
        remaps_seen > 0,
        "chaos grid never drove a WoLFRaM fault remap; the unified pool is untested"
    );
}

mod properties {
    use super::*;
    use mellow_writes::nvm::{RemapOutcome, WearLeveler, WolframLeveler};
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        /// Random interleavings of demand writes (with their rotation
        /// side effects) and injected verify-failure remaps against the
        /// WoLFRaM table: the mapping stays a bijection, the pool never
        /// over-services, and the counters reconcile exactly.
        #[test]
        fn wolfram_table_survives_random_interleavings(
            blocks in 1u64..48,
            interval in 1u32..20,
            spares in 0u64..6,
            ops in proptest::collection::vec((0u8..8, 0u64..48), 0..400),
        ) {
            let mut lv = WolframLeveler::new(2, blocks, interval, spares);
            let mut moved = Vec::new();
            let mut remapped = 0u64;
            let mut exhausted = 0u64;
            for (op, arg) in ops {
                let bank = (arg % 2) as usize;
                let block = arg % blocks;
                if op < 6 {
                    // Demand write (rotation fires every `interval`).
                    lv.note_write(bank, block, &mut moved);
                    for &m in &moved {
                        prop_assert!(m < lv.physical_blocks_per_bank());
                    }
                    moved.clear();
                } else {
                    // Injected verify failure escalated to a remap.
                    match lv.remap_faulty(bank, block) {
                        RemapOutcome::Remapped => remapped += 1,
                        RemapOutcome::Exhausted => exhausted += 1,
                        RemapOutcome::Delegate => {
                            prop_assert!(false, "WoLFRaM owns its pool; it never delegates");
                        }
                    }
                }
            }
            // Pool accounting: every serviced remap consumed one spare,
            // and service stopped exactly at exhaustion.
            let consumed = 2 * spares - lv.spare_pool().expect("owns the pool");
            prop_assert_eq!(remapped, consumed);
            prop_assert_eq!(lv.stats().fault_remaps, remapped);
            if exhausted > 0 {
                prop_assert!(remapped >= spares, "a bank ran dry before using its pool");
            }
            // The mapping is still a bijection in both banks.
            for bank in 0..2 {
                let mut seen = HashSet::new();
                for l in 0..blocks {
                    let p = lv.remap(bank, l);
                    prop_assert!(p < lv.physical_blocks_per_bank());
                    prop_assert!(seen.insert(p), "collision at logical {}", l);
                }
            }
        }

        /// End to end: short random controller runs with the WoLFRaM
        /// leveler under random fault knobs keep the resolution
        /// invariant `verify_failures == retries + remaps +
        /// uncorrectable` and the shared-pool balance.
        #[test]
        fn wolfram_controller_resolution_invariant_holds(seed in 0u64..10_000) {
            let case = WolframCase::new(seed);
            let c = case.run();
            let f = c.fault_stats();
            prop_assert_eq!(f.verify_failures, f.retries + f.remaps + f.uncorrectable);
            prop_assert_eq!(
                f.remaps + f.spares_remaining,
                case.cfg.num_banks as u64 * case.spares
            );
        }
    }
}
