//! Property-based tests over the core data structures and invariants.

use mellow_writes::cache::CacheStats;
use mellow_writes::core::{
    decide_write, BankQueueView, UtilityMonitor, WearQuota, WearQuotaConfig, WriteDecision,
    WritePolicy,
};
use mellow_writes::engine::json::{Json, JsonField};
use mellow_writes::engine::{Clock, Duration, SimTime, TimerQueue};
use mellow_writes::memctrl::{
    Controller, CtrlStats, FaultStats, MemConfig, RetentionStats, ScrubStats,
};
use mellow_writes::nvm::energy::EnergyAccount;
use mellow_writes::nvm::{
    BankWear, CancelWear, EnduranceModel, ExpoFactor, LevelerStats, StartGap, WearLedger,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_policy() -> impl Strategy<Value = WritePolicy> {
    (
        0usize..6,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1.0f64..4.0,
    )
        .prop_map(|(base, nc, sc, wq, factor)| {
            use mellow_writes::core::BasePolicy::*;
            let base = [Norm, Slow, BMellow, BEMellow, ENorm, ESlow][base];
            let mut p = WritePolicy::new(base).with_slow_factor(factor);
            if nc {
                p = p.with_cancel_normal();
            }
            if sc {
                p = p.with_cancel_slow();
            }
            if wq {
                p = p.with_wear_quota();
            }
            p
        })
}

/// A small controller configuration (dense bank/line collisions, short
/// quota periods) with the reliability knobs drawn: retention on/off
/// and its base retention, the scrub interval (off in half the cases),
/// and the transient fault rate with the spare pool and retry budget.
/// The write queue cap (with drain thresholds derived from it) is drawn
/// too, so retries and repairs regularly push the queue past its cap.
fn arb_reliability_config() -> impl Strategy<Value = MemConfig> {
    (
        (any::<bool>(), 100u64..5_000),
        (any::<bool>(), 20u64..2_000),
        (0.0f64..0.3, 0u64..4, 0u32..3),
        8usize..33,
    )
        .prop_map(|(retention, scrub, fault, write_cap)| {
            let (retention_on, retention_ns) = retention;
            let (scrub_on, scrub_ns) = scrub;
            let (transient_rate, spares, retries) = fault;
            let mut cfg = MemConfig::paper_default();
            cfg.capacity_bytes = 1 << 22;
            cfg.sample_period = Duration::from_us(2);
            cfg.retention.enabled = retention_on;
            cfg.retention.base_retention = Duration::from_ns(retention_ns);
            cfg.scrub_interval = Duration::from_ns(if scrub_on { scrub_ns } else { 0 });
            cfg.fault.enabled = true;
            cfg.fault.transient_rate = transient_rate;
            cfg.set_spares_per_bank(spares);
            cfg.max_write_retries = retries;
            cfg.write_queue_cap = write_cap;
            cfg.drain_high = write_cap;
            cfg.drain_low = write_cap / 2;
            cfg
        })
}

/// Gives every scalar field of `T`'s JSON row a distinct value (from
/// `base`), rebuilds `T` from that row's text and serializes it again:
/// `true` when the row comes back unchanged, so each field is read from
/// and written to its own key.
fn row_round_trips<T: JsonField + Default>(base: u64, scale: f64) -> bool {
    let Json::Obj(fields) = T::default().to_json() else {
        return false;
    };
    let row = Json::Obj(
        fields
            .into_iter()
            .enumerate()
            .map(|(i, (key, value))| {
                let value = match value {
                    Json::UInt(_) => Json::from(base.wrapping_add(i as u64)),
                    Json::Num(_) => Json::from(scale * (i + 1) as f64),
                    other => other,
                };
                (key, value)
            })
            .collect(),
    );
    let reparsed = Json::parse(&row.to_string()).expect("serialized JSON parses");
    T::from_json(&reparsed).map(|t| t.to_json()) == Some(row)
}

proptest! {
    /// Start-Gap's mapping is a permutation of the logical lines into
    /// the physical lines for every reachable register state.
    #[test]
    fn startgap_remap_is_injective(n in 1u64..200, moves in 0u32..500) {
        let mut sg = StartGap::new(n, 1);
        for _ in 0..moves {
            sg.move_gap();
        }
        let mut seen = HashSet::new();
        for l in 0..n {
            let p = sg.remap(l);
            prop_assert!(p < sg.physical_lines());
            prop_assert!(seen.insert(p), "collision at logical {l}");
        }
    }

    /// The moved (physically written) line reported by a gap move is
    /// always a valid physical index, and overhead accounting counts
    /// exactly the moves.
    #[test]
    fn startgap_overhead_counts_moves(n in 2u64..100, writes in 0u32..5_000) {
        let mut sg = StartGap::new(n, 100);
        for _ in 0..writes {
            if let Some(written) = sg.note_write() {
                prop_assert!(written < sg.physical_lines());
            }
        }
        prop_assert_eq!(sg.overhead_writes(), (writes / 100) as u64);
    }

    /// The Figure 9 decision tree is total and consistent: demand
    /// decisions appear exactly when demand writes wait; eager decisions
    /// only for an idle bank with eager work; quota forces slow.
    #[test]
    fn decision_tree_total_and_quota_forces_slow(
        policy in arb_policy(),
        reads in 0usize..5,
        writes in 0usize..5,
        eager in 0usize..5,
        quota in any::<bool>(),
    ) {
        let view = BankQueueView {
            reads_waiting: reads,
            writes_waiting: writes,
            eager_waiting: eager,
            quota_exceeded: quota,
        };
        match decide_write(&policy, view) {
            WriteDecision::Demand(speed) => {
                prop_assert!(writes > 0);
                if quota {
                    prop_assert_eq!(speed, mellow_writes::core::WriteSpeed::Slow);
                }
            }
            WriteDecision::Eager(speed) => {
                prop_assert_eq!(writes, 0);
                prop_assert_eq!(reads, 0);
                prop_assert!(eager > 0);
                if quota {
                    prop_assert_eq!(speed, mellow_writes::core::WriteSpeed::Slow);
                }
            }
            WriteDecision::Idle => {
                prop_assert!(writes == 0);
                prop_assert!(eager == 0 || reads > 0);
            }
        }
    }

    /// Endurance model: wear x endurance-gain = 1 for any valid factor
    /// and exponent (they are exact reciprocals by Eq. 2).
    #[test]
    fn endurance_wear_reciprocity(factor in 1.0f64..10.0, expo in 1.0f64..3.0) {
        let m = EnduranceModel::reram_default()
            .with_expo_factor(ExpoFactor::new(expo).unwrap());
        let product = m.wear_per_write(factor) * m.endurance_at_factor(factor)
            / m.base_endurance();
        prop_assert!((product - 1.0).abs() < 1e-9);
    }

    /// Slower writes never wear more, and endurance never decreases
    /// with latency (monotonicity of Eq. 2).
    #[test]
    fn endurance_monotone(f1 in 1.0f64..10.0, f2 in 1.0f64..10.0) {
        let m = EnduranceModel::reram_default();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(m.wear_per_write(hi) <= m.wear_per_write(lo) + 1e-12);
        prop_assert!(m.endurance_at_factor(hi) + 1e-9 >= m.endurance_at_factor(lo));
    }

    /// Ledger wear equals the sum of per-write wear contributions.
    #[test]
    fn ledger_wear_additive(ops in proptest::collection::vec((0usize..4, 1.0f64..4.0), 0..200)) {
        let model = EnduranceModel::reram_default();
        let mut ledger = WearLedger::new(4, model, CancelWear::Prorated);
        let mut expect = [0.0f64; 4];
        for (bank, factor) in ops {
            ledger.record_write(bank, None, factor);
            expect[bank] += model.wear_per_write(factor);
        }
        for (bank, want) in expect.iter().enumerate() {
            prop_assert!((ledger.bank(bank).total_wear - want).abs() < 1e-9);
        }
    }

    /// Wear-ledger invariants under arbitrary interleavings of
    /// completed writes, cancelled attempts, slow writes, and leveling
    /// writes: per-bank wear is monotone non-decreasing, the per-block
    /// table always sums back to the bank totals, and prorated cancel
    /// charges never exceed what the pessimistic full-pulse policy
    /// would charge (nor undercut the optimistic free policy).
    #[test]
    fn ledger_sequences_keep_wear_invariants(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 0u64..8, 1.0f64..4.0, 0.0f64..1.0),
            0..200,
        ),
    ) {
        const BLOCKS: u64 = 8;
        let model = EnduranceModel::reram_default();
        let mk = |cw: CancelWear| {
            WearLedger::new(4, model, cw).with_block_tracking(BLOCKS)
        };
        let mut prorated = mk(CancelWear::Prorated);
        let mut full = mk(CancelWear::Full);
        let mut free = mk(CancelWear::None);
        let mut prev = [0.0f64; 4];
        for (op, bank, block, factor, fraction) in ops {
            for l in [&mut prorated, &mut full, &mut free] {
                match op {
                    0 => l.record_write(bank, Some(block), 1.0),
                    1 => l.record_write(bank, Some(block), factor),
                    2 => l.record_cancelled(bank, Some(block), factor, fraction),
                    _ => l.record_leveling_write(bank, Some(block)),
                }
            }

            // Monotonicity: no operation may ever reduce a bank's wear.
            for (b, p) in prev.iter_mut().enumerate() {
                let now = prorated.bank(b).total_wear;
                prop_assert!(now + 1e-12 >= *p, "bank {b} wear decreased");
                *p = now;
            }

            // The block table is a refinement of the bank totals.
            let table = prorated.block_table().unwrap();
            for b in 0..4 {
                let sum: f64 = (0..BLOCKS).map(|blk| table.get(b, blk)).sum();
                prop_assert!(
                    (sum - prorated.bank(b).total_wear).abs() < 1e-9,
                    "bank {b}: block sum {sum} != total {}",
                    prorated.bank(b).total_wear
                );
            }

            // Prorated cancels are bracketed by the Full and None policies.
            for b in 0..4 {
                prop_assert!(
                    prorated.bank(b).total_wear <= full.bank(b).total_wear + 1e-12,
                    "bank {b}: prorated charged more than a full pulse"
                );
                prop_assert!(
                    free.bank(b).total_wear <= prorated.bank(b).total_wear + 1e-12,
                    "bank {b}: prorated charged less than a free cancel"
                );
            }
        }
    }

    /// A bank that never exceeds its cumulative allowance is never
    /// restricted; one that does is restricted until it falls back
    /// under.
    #[test]
    fn quota_restriction_matches_cumulative_allowance(
        increments in proptest::collection::vec(0.0f64..30.0, 1..60),
    ) {
        let cfg = WearQuotaConfig::paper_default(1 << 20);
        let bound = cfg.wear_bound_per_period();
        let mut q = WearQuota::new(cfg, 1);
        let mut cum = 0.0;
        for inc in increments {
            cum += inc;
            q.start_period(&[cum]);
            let allowance = bound * q.periods() as f64;
            prop_assert_eq!(q.exceeded(0), cum > allowance);
        }
    }

    /// The utility monitor's eager position is the *smallest* position
    /// whose tail contributes under the threshold.
    #[test]
    fn monitor_eager_position_is_minimal(
        hits in proptest::collection::vec(0u64..200, 1..16),
        misses in 0u64..500,
    ) {
        let assoc = hits.len();
        let mut m = UtilityMonitor::new(assoc);
        for (pos, &n) in hits.iter().enumerate() {
            for _ in 0..n {
                m.record_hit(pos);
            }
        }
        for _ in 0..misses {
            m.record_miss();
        }
        let total: u64 = hits.iter().sum::<u64>() + misses;
        prop_assume!(total > 0);
        let p = m.sample();
        let tail = |from: usize| hits[from..].iter().sum::<u64>();
        if p < assoc {
            prop_assert!(tail(p) * 32 < total);
        }
        if p > 0 && p <= assoc {
            // One position earlier would break the threshold (or p == assoc
            // and even the empty tail... p == assoc means hits[assoc..] = 0
            // which trivially satisfies; minimality then requires that
            // tail(assoc-1) fails the threshold.)
            let q = p - 1;
            if q < assoc {
                prop_assert!(tail(q) * 32 >= total);
            }
        }
    }

    /// Every stats row's single `impl_json_fields!` list round-trips each
    /// field through JSON text under its own key.
    #[test]
    fn stats_rows_round_trip_through_json(base in any::<u64>(), scale in 0.0f64..1e9) {
        prop_assert!(row_round_trips::<CtrlStats>(base, scale));
        prop_assert!(row_round_trips::<FaultStats>(base, scale));
        prop_assert!(row_round_trips::<RetentionStats>(base, scale));
        prop_assert!(row_round_trips::<ScrubStats>(base, scale));
        prop_assert!(row_round_trips::<CacheStats>(base, scale));
        prop_assert!(row_round_trips::<BankWear>(base, scale));
        prop_assert!(row_round_trips::<LevelerStats>(base, scale));
        prop_assert!(row_round_trips::<EnergyAccount>(base, scale));
    }

    /// Timer queue pops in nondecreasing (time, insertion) order, and
    /// `retain` removes exactly the rejected entries without reordering
    /// the survivors.
    #[test]
    fn timer_queue_ordering(
        entries in proptest::collection::vec((0u64..1_000, any::<bool>()), 1..100),
    ) {
        let mut q = TimerQueue::new();
        for (i, &(t, _)) in entries.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), (t, i));
        }
        q.retain(|&(_, i)| entries[i].1);
        let horizon = SimTime::from_ns(1_000_000);
        let mut prev: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((t, i)) = q.pop_due(horizon) {
            prop_assert!(entries[i].1, "removed entry {} popped", i);
            if let Some((pt, pi)) = prev {
                prop_assert!(pt < t || (pt == t && pi < i), "order violated");
            }
            prev = Some((t, i));
            popped += 1;
        }
        prop_assert_eq!(popped, entries.iter().filter(|&&(_, keep)| keep).count());
    }

    /// Duration scaling round-trips with the latency factors used by the
    /// policies (within one picosecond of rounding).
    #[test]
    fn duration_scale_consistent(ns in 1u64..1_000_000, factor in 1.0f64..4.0) {
        let d = Duration::from_ns(ns);
        let scaled = d.scale(factor);
        let expect = (ns as f64 * 1000.0 * factor).round();
        prop_assert!((scaled.as_ps() as f64 - expect).abs() <= 1.0);
    }

    /// The controller's next-actionable skip is invisible: for any
    /// policy, reliability configuration and request stream, `tick`
    /// (which fast-paths edges before the next actionable time) and
    /// `tick_full` (which runs every edge in full) agree bit for bit,
    /// at every drain probe, on every counter — issue, fault, retention
    /// and scrub — the wear total, the energy account and the queue
    /// occupancies.
    #[test]
    fn controller_skip_matches_full_ticks(
        policy in arb_policy(),
        cfg in arb_reliability_config(),
        ops in proptest::collection::vec((0u8..12, 0u64..1024), 0..300),
    ) {
        let run = |full: bool| {
            let mut c = Controller::new(
                cfg.clone(),
                policy,
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            let mut cyc = 1u64;
            let tick = |c: &mut Controller, cyc: &mut u64| {
                let now = SimTime::from_ps(*cyc * 2500);
                if full {
                    c.tick_full(now);
                } else {
                    c.tick(now);
                }
                *cyc += 1;
            };
            for &(op, line) in &ops {
                for _ in 0..op % 4 {
                    tick(&mut c, &mut cyc);
                }
                let now = SimTime::from_ps(cyc * 2500);
                match op % 3 {
                    0 => {
                        c.try_read(line, now);
                    }
                    1 => {
                        c.try_write(line, now);
                    }
                    _ => {
                        if c.eager_has_room() {
                            c.try_eager(line, now);
                        }
                    }
                }
            }
            // Drain: long enough for every queued request to retire.
            // Probing along the way turns a late wake into a counter
            // that moved at a different time, not just a final diff.
            let mut probes = Vec::new();
            for i in 1..=4_000 {
                tick(&mut c, &mut cyc);
                if i % 200 == 0 {
                    probes.push((
                        c.stats().clone(),
                        c.fault_stats(),
                        c.retention_stats().clone(),
                        c.scrub_stats().clone(),
                        c.queue_depths(),
                        format!("{:?} {:?}", c.ledger().total_wear(), c.energy()),
                    ));
                }
            }
            probes
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The event-kernel system loop reproduces the reference cycle loop
    /// bit for bit for any Table IV workload, policy, and
    /// seed (`SystemConfig::use_cycle_loop` is the oracle).
    #[test]
    fn system_tick_loops_equivalent(
        policy in arb_policy(),
        wl in 0usize..16,
        seed in any::<u64>(),
    ) {
        use mellow_writes::sim::Experiment;
        use mellow_writes::workloads::WorkloadSpec;

        let names = WorkloadSpec::names();
        let name = names[wl % names.len()].clone();
        let run = |cycle_loop: bool| {
            let mut spec = WorkloadSpec::by_name(&name).unwrap();
            spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
            spec.working_set_bytes = spec.working_set_bytes.min(8 << 20);
            Experiment::with_spec(spec, policy)
                .warmup(2_000)
                .instructions(4_000)
                .seed(seed)
                .configure(move |c| {
                    c.l1.size_bytes = 4 << 10;
                    c.l2.size_bytes = 16 << 10;
                    c.llc.size_bytes = 64 << 10;
                    c.mem.capacity_bytes = 1 << 24;
                    c.mem.sample_period = Duration::from_us(2);
                    c.use_cycle_loop = cycle_loop;
                })
                .run()
                .to_json()
                .to_string()
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// The event kernel reproduces the reference cycle loop bit
    /// for bit under randomized system shapes: controller queue depths (and drain
    /// thresholds derived from them), eager policies, the memory-clock
    /// divisor, and the utility-monitor sample period. This is the
    /// 256-case sweep guarding the event kernel's jump target (the
    /// controller horizon's edge alignment and floor) and the
    /// closed-form eager-probe RNG replay.
    #[test]
    fn event_kernel_equivalent_under_random_configs(
        policy in arb_policy(),
        wl in 0usize..16,
        seed in any::<u64>(),
        read_cap in 4usize..24,
        write_cap in 8usize..40,
        eager_cap in 2usize..20,
        div_idx in 0usize..5,
        sample_us in 1u64..5,
    ) {
        use mellow_writes::sim::Experiment;
        use mellow_writes::workloads::WorkloadSpec;

        let names = WorkloadSpec::names();
        let name = names[wl % names.len()].clone();
        // Memory clocks that divide the 2 GHz core clock evenly.
        let mem_mhz = [1000u64, 500, 400, 250, 200][div_idx];
        let run = |cycle_loop: bool| {
            let mut spec = WorkloadSpec::by_name(&name).unwrap();
            spec.avg_interval = (spec.avg_interval / 8.0).max(2.0);
            spec.working_set_bytes = spec.working_set_bytes.min(8 << 20);
            Experiment::with_spec(spec, policy)
                .warmup(2_000)
                .instructions(4_000)
                .seed(seed)
                .configure(move |c| {
                    c.l1.size_bytes = 4 << 10;
                    c.l2.size_bytes = 16 << 10;
                    c.llc.size_bytes = 64 << 10;
                    c.mem.capacity_bytes = 1 << 24;
                    c.mem.clock = Clock::from_mhz(mem_mhz);
                    c.mem.sample_period = Duration::from_us(sample_us);
                    c.mem.read_queue_cap = read_cap;
                    c.mem.write_queue_cap = write_cap;
                    c.mem.eager_queue_cap = eager_cap;
                    c.mem.drain_high = write_cap;
                    c.mem.drain_low = write_cap / 2;
                    c.use_cycle_loop = cycle_loop;
                })
                .run()
                .to_json()
                .to_string()
        };
        prop_assert_eq!(run(true), run(false));
    }
}
