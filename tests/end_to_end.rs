//! Cross-crate integration tests: whole-system behaviour of the Mellow
//! Writes mechanisms.
//!
//! These run on a scaled-down system (small caches, dense traffic,
//! shrunken sample periods) so every dynamic — LLC fills, writebacks,
//! eager writes, drains (once banks are scarce), quota periods —
//! appears within a test-sized window. The full-size configuration is
//! exercised by the `figures` bench harness.

mod common;

use common::scaled;
use mellow_writes::bench::{try_experiment_for, Scale};
use mellow_writes::core::WritePolicy;
use mellow_writes::engine::Duration;
use mellow_writes::sim::{Experiment, Metrics};
use mellow_writes::workloads::WorkloadSpec;

fn run(workload: &str, policy: WritePolicy) -> Metrics {
    scaled(workload, policy, 7).run()
}

#[test]
fn lifetime_ordering_slow_beats_mellow_beats_norm() {
    for w in ["stream", "GemsFDTD"] {
        let norm = run(w, WritePolicy::norm());
        let mellow = run(w, WritePolicy::be_mellow_sc());
        let slow = run(w, WritePolicy::slow());
        assert!(
            slow.lifetime_years > mellow.lifetime_years,
            "{w}: all-slow must out-live mellow ({} vs {})",
            slow.lifetime_years,
            mellow.lifetime_years
        );
        assert!(
            mellow.lifetime_years > norm.lifetime_years,
            "{w}: mellow must out-live norm ({} vs {})",
            mellow.lifetime_years,
            norm.lifetime_years
        );
    }
}

#[test]
fn performance_ordering_norm_beats_slow() {
    for w in ["stream", "lbm"] {
        let norm = run(w, WritePolicy::norm());
        let slow = run(w, WritePolicy::slow());
        assert!(
            norm.ipc >= slow.ipc,
            "{w}: slow writes must not speed the system up ({} vs {})",
            norm.ipc,
            slow.ipc
        );
    }
}

#[test]
fn mellow_ipc_stays_close_to_norm() {
    // The paper's headline: Mellow Writes preserves performance. Allow a
    // modest band on the scaled system.
    let norm = run("GemsFDTD", WritePolicy::norm());
    let mellow = run("GemsFDTD", WritePolicy::be_mellow_sc());
    assert!(
        mellow.ipc > norm.ipc * 0.9,
        "mellow IPC {} too far below norm {}",
        mellow.ipc,
        norm.ipc
    );
}

#[test]
fn no_write_is_lost_between_llc_and_memory() {
    // Conservation: every writeback the LLC emitted was accepted by the
    // controller (demand or eager), modulo what is still queued inside
    // the simulated window.
    let m = run("lbm", WritePolicy::be_mellow_sc());
    let emitted = m.llc.writebacks_out + m.llc.eager_issued;
    let accepted = m.ctrl.demand_writes_accepted + m.ctrl.eager_writes_accepted;
    // Acceptance can exceed emission slightly (in-flight at the
    // measurement boundary) but must never lag by more than the queue
    // depths (32 write + 16 eager + hierarchy buffers).
    assert!(
        accepted + 64 >= emitted,
        "writes lost: emitted {emitted}, accepted {accepted}"
    );
}

#[test]
fn completed_writes_match_wear_ledger() {
    let m = run("stream", WritePolicy::be_mellow_sc());
    let ledger_total: u64 = m.bank_wear.iter().map(|b| b.completed_writes()).sum();
    let ctrl_total = m.ctrl.writes_completed_normal + m.ctrl.writes_completed_slow;
    assert_eq!(ledger_total, ctrl_total);
}

#[test]
fn eager_writes_only_under_eager_policies() {
    let b = run("stream", WritePolicy::b_mellow_sc());
    assert_eq!(b.ctrl.eager_writes_accepted, 0);
    assert_eq!(b.llc.eager_issued, 0);

    let be = run("stream", WritePolicy::be_mellow_sc());
    assert!(be.ctrl.eager_writes_accepted > 0, "{:?}", be.llc);
}

#[test]
fn wear_quota_restricts_hot_workloads() {
    // On the scaled system the quota budget is tiny, so a write-heavy
    // workload must spend most periods restricted -> mostly slow writes.
    let no_wq = run("lbm", WritePolicy::norm());
    let wq = run("lbm", WritePolicy::norm().with_wear_quota());
    assert!(no_wq.slow_write_fraction == 0.0);
    assert!(
        wq.slow_write_fraction > 0.3,
        "quota should force slow writes, got {}",
        wq.slow_write_fraction
    );
    assert!(wq.lifetime_years > no_wq.lifetime_years);
}

#[test]
fn wear_quota_costs_some_performance() {
    let no_wq = run("lbm", WritePolicy::norm());
    let wq = run("lbm", WritePolicy::norm().with_wear_quota());
    assert!(
        wq.ipc <= no_wq.ipc * 1.001,
        "the quota cannot speed things up: {} vs {}",
        wq.ipc,
        no_wq.ipc
    );
}

#[test]
fn cancellation_trades_wear_for_read_latency() {
    let plain = run("milc", WritePolicy::slow());
    let sc = run("milc", WritePolicy::slow().with_cancel_slow());
    assert_eq!(plain.ctrl.writes_cancelled, 0);
    assert!(sc.ctrl.writes_cancelled > 0, "{:?}", sc.ctrl);
    // Cancellation wears the array more (multiple attempts).
    assert!(sc.total_wear >= plain.total_wear);
    // ...and buys read latency back.
    assert!(sc.ctrl.read_latency_ns.mean() <= plain.ctrl.read_latency_ns.mean());
}

#[test]
fn write_pausing_saves_wear_over_cancellation() {
    // +WP extension: pausing never wastes a driven pulse, so for the
    // same policy it must not wear more than abort-style cancellation,
    // and it records pauses instead of cancels.
    let cancel = run("milc", WritePolicy::be_mellow_sc());
    let pause = run("milc", WritePolicy::be_mellow_sc().with_write_pausing());
    assert!(pause.ctrl.writes_paused > 0, "{:?}", pause.ctrl);
    assert_eq!(pause.ctrl.writes_cancelled, 0);
    assert!(
        pause.total_wear <= cancel.total_wear * 1.001,
        "pausing wears more: {} vs {}",
        pause.total_wear,
        cancel.total_wear
    );
    assert!(pause.lifetime_years >= cancel.lifetime_years * 0.999);
}

#[test]
fn graded_latency_dominates_two_level_under_pressure() {
    // +GR extension: under heavy write pressure (scaled lbm), grading
    // keeps more performance than the two-level scheme while still
    // beating Norm's lifetime.
    let norm = run("lbm", WritePolicy::norm());
    let two_level = run("lbm", WritePolicy::be_mellow_sc());
    let graded = run("lbm", WritePolicy::be_mellow_sc().with_graded_latency());
    assert!(
        graded.ipc >= two_level.ipc * 0.999,
        "grading should not lose IPC: {} vs {}",
        graded.ipc,
        two_level.ipc
    );
    assert!(
        graded.lifetime_years > norm.lifetime_years,
        "graded still extends lifetime: {} vs {}",
        graded.lifetime_years,
        norm.lifetime_years
    );
}

#[test]
fn determinism_across_identical_runs() {
    let a = run("gups", WritePolicy::be_mellow_sc().with_wear_quota());
    let b = run("gups", WritePolicy::be_mellow_sc().with_wear_quota());
    assert_eq!(a.ipc, b.ipc);
    assert_eq!(a.total_wear, b.total_wear);
    assert_eq!(a.ctrl, b.ctrl);
    assert_eq!(a.llc, b.llc);
}

#[test]
fn different_seeds_differ() {
    let a = scaled("gups", WritePolicy::norm(), 1).run();
    let b = scaled("gups", WritePolicy::norm(), 2).run();
    assert_ne!(a.total_wear, b.total_wear);
}

#[test]
fn bank_count_sweep_shrinks_mellow_benefit() {
    // Fig. 18's trend: fewer banks -> less idle bank time -> smaller
    // lifetime advantage for Mellow Writes.
    let gain = |banks: usize, ranks: usize| {
        let cfg = move |c: &mut mellow_writes::sim::SystemConfig| {
            c.mem = c.mem.clone().with_banks(banks, ranks);
        };
        let norm = scaled("GemsFDTD", WritePolicy::norm(), 7)
            .configure(cfg)
            .run();
        let mellow = scaled("GemsFDTD", WritePolicy::be_mellow_sc(), 7)
            .configure(cfg)
            .run();
        mellow.lifetime_years / norm.lifetime_years
    };
    let wide = gain(16, 4);
    let narrow = gain(4, 1);
    assert!(
        wide > narrow,
        "16-bank gain {wide} should exceed 4-bank gain {narrow}"
    );
}

#[test]
fn write_drains_appear_when_banks_are_scarce() {
    // Fig. 13's drain path: a drain starts only when the 32-entry write
    // queue fills. At 16 banks the queue empties too fast for that, so
    // the test starves lbm of banks the way Fig. 18 does.
    let m = scaled("lbm", WritePolicy::norm(), 7)
        .configure(|c| c.mem = c.mem.clone().with_banks(4, 1))
        .run();
    assert!(m.ctrl.write_drains > 0, "lbm at 4 banks never drained");
    assert!(
        m.drain_fraction > 0.0,
        "{} drains but no drain time",
        m.ctrl.write_drains
    );
}

#[test]
fn all_policies_run_all_workloads_scaled() {
    // Smoke coverage of the full (policy x workload) space at tiny scale.
    for w in WorkloadSpec::names() {
        for p in [
            WritePolicy::norm(),
            WritePolicy::e_norm_nc(),
            WritePolicy::e_slow_sc(),
            WritePolicy::be_mellow_sc().with_wear_quota(),
        ] {
            let mut spec = WorkloadSpec::by_name(&w).unwrap();
            spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
            spec.working_set_bytes = spec.working_set_bytes.min(16 << 20);
            let m = Experiment::with_spec(spec, p)
                .warmup(30_000)
                .instructions(50_000)
                .configure(|c| {
                    c.l1.size_bytes = 4 << 10;
                    c.l2.size_bytes = 16 << 10;
                    c.llc.size_bytes = 64 << 10;
                    c.mem.sample_period = Duration::from_us(10);
                })
                .run();
            assert!(m.ipc > 0.0, "{w}/{p}: no progress");
            assert!(m.instructions >= 50_000);
        }
    }
}

#[test]
fn cycle_and_event_loops_produce_identical_metrics() {
    // The event kernel (the default loop) must be a pure
    // performance optimization: on every Table IV workload, a full
    // system run produces a bit-identical metrics row (stats, wear,
    // energy, IPC) under the event kernel and the one-cycle-at-a-time
    // reference (`SystemConfig::use_cycle_loop`). The policy exercises every replayed per-cycle
    // effect at once: eager probing (RNG draws), wear-quota periods,
    // slow writes, and cancellation. Every other cycle-vs-event check
    // shrinks L1/L2/LLC to 4/16/64 KiB, so four more rows run the
    // paper-size caches at `Scale::tiny()` under BE-Mellow+SC.
    let shrunk = WorkloadSpec::names().into_iter().map(|w| {
        let mut spec = WorkloadSpec::by_name(&w).unwrap();
        spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
        spec.working_set_bytes = spec.working_set_bytes.min(16 << 20);
        let e = Experiment::with_spec(spec, WritePolicy::be_mellow_sc().with_wear_quota())
            .warmup(30_000)
            .instructions(50_000)
            .configure(|c| {
                c.l1.size_bytes = 4 << 10;
                c.l2.size_bytes = 16 << 10;
                c.llc.size_bytes = 64 << 10;
                c.mem.sample_period = Duration::from_us(10);
            });
        (w, e)
    });
    let paper_caches = ["stream", "gups", "lbm", "GemsFDTD"].map(|w| {
        let e = try_experiment_for(w, WritePolicy::be_mellow_sc(), Scale::tiny()).unwrap();
        (w.to_owned(), e)
    });
    for (w, e) in shrunk.chain(paper_caches) {
        let row = |cycle_loop: bool| {
            e.clone()
                .configure(|c| c.use_cycle_loop = cycle_loop)
                .run()
                .to_json()
                .to_string()
        };
        assert_eq!(row(true), row(false), "{w}: event kernel diverges");
    }
}

#[test]
fn slow_writes_survive_a_write_queue_past_its_cap() {
    // Regression: cancel requeues enter the write queue without the
    // acceptance cap check, so it can run past its cap, and the next
    // slow write then aborted the run on a write-queue occupancy above
    // 1. Cancellable slow writes on a 1 MiB device under gups get there
    // within this window.
    let m = scaled("gups", WritePolicy::slow().with_cancel_slow(), 1)
        .warmup(20_000)
        .instructions(60_000)
        .configure(|c| c.mem.capacity_bytes = 1 << 20)
        .run();
    assert!(m.instructions >= 60_000);
    assert!(m.ctrl.writes_cancelled > 0, "{:?}", m.ctrl);
}

#[test]
fn per_block_ground_truth_consistent_with_aggregate_model() {
    use mellow_writes::nvm::{LevelerConfig, LifetimeModel};

    // A tiny memory (16 banks x 512 blocks) with fast Start-Gap rotation
    // and a random write-heavy workload, tracked per block.
    let mut spec = WorkloadSpec::by_name("gups").expect("preset exists");
    spec.avg_interval = 2.0;
    spec.working_set_bytes = 512 << 10;
    let experiment = Experiment::with_spec(spec, WritePolicy::norm())
        .warmup(60_000)
        .instructions(250_000)
        .configure(|c| {
            c.l1.size_bytes = 2 << 10;
            c.l2.size_bytes = 4 << 10;
            c.llc.size_bytes = 8 << 10;
            c.mem.capacity_bytes = 512 << 10;
            c.mem.leveler = LevelerConfig::start_gap(4, c.mem.spares_per_bank());
            c.track_block_wear = true;
        });
    let mut system = experiment.build();
    system.run_instructions(300_000);

    let ctrl = system.controller();
    let ledger = ctrl.ledger();
    let table = ledger.block_table().expect("tracking enabled");
    assert!(ledger.total_wear() > 100.0, "need meaningful traffic");

    // Bookkeeping consistency: the per-block table accounts for exactly
    // the wear the per-bank aggregates hold.
    let block_sum: f64 = (0..ctrl.config().num_banks)
        .map(|bank| {
            (0..table.blocks_per_bank())
                .map(|b| table.get(bank, b))
                .sum::<f64>()
        })
        .sum();
    assert!(
        (block_sum - ledger.total_wear()).abs() < 1e-6 * ledger.total_wear().max(1.0),
        "block table {block_sum} != aggregate {}",
        ledger.total_wear()
    );

    // Ground truth (most-worn block) can never out-live the ideally
    // leveled projection, and with Start-Gap running it lands within a
    // reasonable band of it.
    let elapsed = system.now().since_origin();
    let ideal = LifetimeModel::new(5e6, ctrl.config().blocks_per_bank(), 1.0);
    let ideal_years = ideal.project(ledger, elapsed).min_years;
    let ground_years = ideal.project_from_blocks(ledger, elapsed).unwrap();
    assert!(
        ground_years <= ideal_years * 1.0001,
        "max-wear block cannot beat the leveled ideal: {ground_years} vs {ideal_years}"
    );
    assert!(
        ground_years > ideal_years * 0.05,
        "Start-Gap should prevent pathological hot blocks: {ground_years} vs {ideal_years}"
    );
}
