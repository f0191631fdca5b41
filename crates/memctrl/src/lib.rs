//! Cycle-level resistive main-memory controller implementing the Mellow
//! Writes scheduling of the paper.
//!
//! The controller models the memory system of Table II: banks spread
//! over ranks behind a shared 64-bit 400 MHz bus, open-page row buffers
//! for reads (writes bypass the row buffer), tRCD/tCAS/tFAW timing, a
//! 32-entry read queue (highest priority), a 32-entry write queue with
//! write drains (enter at 32, exit at 16), and the 16-entry lowest-
//! priority Eager Mellow queue that may only issue to otherwise-idle
//! banks. Write speed decisions flow through the Figure 9 decision tree
//! in `mellow-core`; completed and cancelled writes feed the wear and
//! energy ledgers of `mellow-nvm`, with Start-Gap remapping demand
//! blocks at bank granularity.
//!
//! Internally the controller is a scheduler (queues, banks, the bus,
//! the wear ledger and energy) plus a reliability pipeline: write
//! verify → retry → remap → spare, drift detection, and the background
//! scrubber with its parked repair retries. The pipeline reports
//! through [`FaultStats`], [`RetentionStats`] and [`ScrubStats`]; with
//! faults and retention disabled (the default) it holds no state.
//!
//! See [`Controller`] for the driving protocol and an example.

mod config;
mod controller;
mod queues;
mod reliability;

pub use config::{LineMapping, MemConfig};
pub use controller::{Controller, CtrlStats};
pub use reliability::{FaultStats, RetentionStats, ScrubStats};

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_core::WritePolicy;
    use mellow_engine::{Duration, SimTime};
    use mellow_nvm::{CancelWear, EnduranceModel};

    const MEM_CYCLE_PS: u64 = 2500;

    fn ctrl(policy: WritePolicy) -> Controller {
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 26; // 64 MiB keeps tests light
        Controller::new(
            cfg,
            policy,
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        )
    }

    /// Ticks the controller through `cycles` memory cycles starting at
    /// cycle `from`, returning the final time.
    fn run(c: &mut Controller, from: u64, cycles: u64) -> SimTime {
        let mut now = SimTime::ZERO;
        for cyc in from..from + cycles {
            now = SimTime::from_ps(cyc * MEM_CYCLE_PS);
            c.tick(now);
        }
        now
    }

    /// Lines that map to distinct banks (one per bank).
    fn line_for_bank(_c: &Controller, bank: usize) -> u64 {
        // Line-interleaved mapping: line i maps to bank i % num_banks.
        bank as u64
    }

    /// A line in the same bank and row as `line` (default 16 banks).
    fn same_bank_line(line: u64) -> u64 {
        line + 16
    }

    #[test]
    fn read_timing_row_miss_then_hit() {
        let mut c = ctrl(WritePolicy::norm());
        assert!(c.try_read(0, SimTime::ZERO));
        run(&mut c, 1, 80);
        assert_eq!(c.pop_read_done(), Some(0));
        // Row miss: tRCD(120) + tCAS(2.5) + bus(20) = 142.5 ns.
        assert_eq!(c.stats().rb_miss_reads, 1);
        let lat = c.stats().read_latency_ns.max();
        assert!((142..=148).contains(&lat), "row-miss latency {lat} ns");

        // Same bank, same row again: row-buffer hit.
        let neighbour = same_bank_line(0);
        assert!(c.try_read(neighbour, SimTime::from_ps(81 * MEM_CYCLE_PS)));
        run(&mut c, 81, 20);
        assert_eq!(c.pop_read_done(), Some(neighbour));
        assert_eq!(c.stats().rb_hit_reads, 1);
    }

    #[test]
    fn write_completes_and_wears_bank() {
        let mut c = ctrl(WritePolicy::norm());
        assert!(c.try_write(0, SimTime::ZERO));
        // Normal write: bus(20) + tWP(150) = 170 ns = 68 cycles.
        run(&mut c, 1, 80);
        assert_eq!(c.stats().writes_completed_normal, 1);
        assert_eq!(c.stats().writes_issued_normal, 1);
        let bank = c.config().map_line(0).bank;
        assert!((c.ledger().bank(bank).total_wear - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_policy_never_issues_slow() {
        let mut c = ctrl(WritePolicy::norm());
        for i in 0..8 {
            c.try_write(i * 7, SimTime::ZERO);
        }
        run(&mut c, 1, 2000);
        assert_eq!(c.stats().writes_issued_slow, 0);
        assert!(c.stats().writes_completed_normal >= 8);
    }

    #[test]
    fn slow_policy_always_issues_slow() {
        let mut c = ctrl(WritePolicy::slow());
        for i in 0..8 {
            c.try_write(i * 7, SimTime::ZERO);
        }
        run(&mut c, 1, 3000);
        assert_eq!(c.stats().writes_issued_normal, 0);
        assert!(c.stats().writes_completed_slow >= 8);
        // A 3x slow write wears 1/9 under the quadratic model.
        let wear = c.ledger().total_wear();
        let expect = c.stats().writes_completed_slow as f64 / 9.0;
        assert!((wear - expect).abs() < 1e-9);
    }

    #[test]
    fn bank_aware_lone_write_goes_slow() {
        let mut c = ctrl(WritePolicy::b_mellow_sc());
        // One write, alone in the system: slow.
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 10);
        assert_eq!(c.stats().writes_issued_slow, 1);
        assert_eq!(c.stats().writes_issued_normal, 0);
    }

    #[test]
    fn bank_aware_backlogged_bank_goes_normal() {
        let mut c = ctrl(WritePolicy::b_mellow_sc());
        // Two writes to the same bank.
        c.try_write(0, SimTime::ZERO);
        c.try_write(same_bank_line(0), SimTime::ZERO);
        run(&mut c, 1, 10);
        // The first issue sees another write waiting -> normal.
        assert_eq!(c.stats().writes_issued_normal, 1);
        assert_eq!(c.stats().writes_issued_slow, 0);
        // After it completes the second is alone -> slow.
        run(&mut c, 11, 200);
        assert_eq!(c.stats().writes_issued_slow, 1);
    }

    #[test]
    fn reads_have_priority_over_writes() {
        let mut c = ctrl(WritePolicy::norm());
        let bank0_line = line_for_bank(&c, 0);
        c.try_write(bank0_line, SimTime::ZERO);
        // Same bank, different line.
        c.try_read(same_bank_line(bank0_line), SimTime::ZERO);
        run(&mut c, 1, 2);
        // The read issued first; the write waits.
        assert_eq!(c.stats().rb_miss_reads, 1);
        assert_eq!(c.stats().writes_issued_normal, 0);
        run(&mut c, 3, 200);
        assert_eq!(c.stats().writes_completed_normal, 1);
    }

    #[test]
    fn forwarding_serves_reads_of_pending_writes() {
        let mut c = ctrl(WritePolicy::norm());
        // Occupy the bank with another write first so the second write
        // stays queued.
        let queued = same_bank_line(0);
        c.try_write(0, SimTime::ZERO);
        c.try_write(queued, SimTime::ZERO);
        run(&mut c, 1, 2);
        assert!(c.try_read(queued, SimTime::from_ps(2 * MEM_CYCLE_PS)));
        assert_eq!(c.stats().reads_forwarded, 1);
        run(&mut c, 3, 20);
        // Forwarded data returns without a bank read.
        assert!(c.stats().read_latency_ns.count() > 0);
        assert_eq!(c.stats().rb_miss_reads + c.stats().rb_hit_reads, 0);
        assert!(c.pop_read_done().is_some());
    }

    #[test]
    fn write_drain_blocks_reads_until_low_watermark() {
        let mut c = ctrl(WritePolicy::norm());
        // Fill the write queue to the high watermark with same-bank writes
        // (they drain one at a time).
        for i in 0..32 {
            assert!(c.try_write(i * 16, SimTime::ZERO), "queue has room");
        }
        assert!(!c.try_write(99 * 16, SimTime::ZERO), "33rd write rejected");
        c.try_read(line_for_bank(&c, 1), SimTime::ZERO); // different bank
        run(&mut c, 1, 2);
        assert!(c.is_draining());
        assert_eq!(c.stats().write_drains, 1);
        // Reads are blocked during the drain, even to idle banks.
        assert_eq!(c.stats().rb_miss_reads, 0);
        // Drain until the queue reaches 16: 16 writes x ~170ns each.
        run(&mut c, 3, 16 * 70 + 50);
        assert!(!c.is_draining());
        let (_, wq, _) = c.queue_depths();
        assert!(wq <= 16, "write queue drained to low watermark, got {wq}");
        // The read finally issues.
        run(&mut c, 16 * 70 + 53, 100);
        assert_eq!(c.stats().rb_miss_reads, 1);
        assert!(c.drain_time(SimTime::from_ps(3000 * MEM_CYCLE_PS)) > Duration::ZERO);
    }

    #[test]
    fn cancellation_aborts_slow_write_for_read() {
        let mut c = ctrl(WritePolicy::b_mellow_sc()); // slow writes cancellable
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 20); // slow write in flight (bus 20ns + 450ns pulse)
        assert_eq!(c.stats().writes_issued_slow, 1);
        // A read for the same bank arrives mid-pulse.
        c.try_read(same_bank_line(0), SimTime::from_ps(20 * MEM_CYCLE_PS));
        run(&mut c, 21, 4);
        assert_eq!(c.stats().writes_cancelled, 1);
        // The read proceeds promptly; the write re-issues afterwards.
        run(&mut c, 25, 600);
        assert_eq!(c.pop_read_done(), Some(same_bank_line(0)));
        assert_eq!(
            c.stats().writes_completed_normal + c.stats().writes_completed_slow,
            1
        );
        // Cancelled attempt charged partial wear: total wear is above a
        // lone completed write's.
        let bank = c.config().map_line(0).bank;
        let wear = c.ledger().bank(bank).total_wear;
        assert!(wear > 1.0 / 9.0, "wear {wear} includes the aborted pulse");
        assert_eq!(c.ledger().bank(bank).cancelled_writes, 1);
    }

    #[test]
    fn non_cancellable_writes_run_to_completion() {
        let mut c = ctrl(WritePolicy::slow()); // no +SC
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 20);
        c.try_read(same_bank_line(0), SimTime::from_ps(20 * MEM_CYCLE_PS));
        run(&mut c, 21, 300);
        assert_eq!(c.stats().writes_cancelled, 0);
        assert_eq!(c.stats().writes_completed_slow, 1);
        assert_eq!(c.pop_read_done(), Some(same_bank_line(0)));
    }

    #[test]
    fn write_pausing_preserves_progress_and_charges_once() {
        // +WP: a slow write paused by a read resumes where it left off,
        // and the wear ledger sees exactly one slow write's worth.
        let mut c = ctrl(WritePolicy::b_mellow_sc().with_write_pausing());
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 40); // slow pulse under way (~20ns bus + 450ns)
        c.try_read(same_bank_line(0), SimTime::from_ps(40 * MEM_CYCLE_PS));
        run(&mut c, 41, 10);
        assert_eq!(c.stats().writes_paused, 1);
        assert_eq!(c.stats().writes_cancelled, 0);
        // No wear charged at the pause.
        let bank = c.config().map_line(0).bank;
        assert_eq!(c.ledger().bank(bank).total_wear, 0.0);

        // The read completes, then the write resumes and finishes.
        run(&mut c, 51, 400);
        assert_eq!(c.pop_read_done(), Some(same_bank_line(0)));
        assert_eq!(c.stats().writes_completed_slow, 1);
        let wear = c.ledger().bank(bank).total_wear;
        assert!(
            (wear - 1.0 / 9.0).abs() < 1e-9,
            "paused write wears exactly one slow write, got {wear}"
        );
        assert_eq!(c.ledger().bank(bank).cancelled_writes, 0);
    }

    #[test]
    fn paused_write_finishes_faster_than_restarted_one() {
        // The resumed segment only drives the outstanding fraction, so a
        // +WP write finishes earlier than an aborted-and-restarted one.
        let finish_cycle = |policy: WritePolicy| {
            let mut c = ctrl(policy);
            c.try_write(0, SimTime::ZERO);
            run(&mut c, 1, 100); // pulse ~60% done
            c.try_read(same_bank_line(0), SimTime::from_ps(100 * MEM_CYCLE_PS));
            let mut cyc = 101;
            while c.stats().writes_completed_slow == 0 {
                c.tick(SimTime::from_ps(cyc * MEM_CYCLE_PS));
                cyc += 1;
                assert!(cyc < 10_000, "write never completed");
            }
            cyc
        };
        let paused = finish_cycle(WritePolicy::b_mellow_sc().with_write_pausing());
        let restarted = finish_cycle(WritePolicy::b_mellow_sc());
        assert!(
            paused < restarted,
            "paused {paused} should finish before restarted {restarted}"
        );
    }

    #[test]
    fn graded_latency_softens_under_queue_pressure() {
        // +GR: a lone write with an empty queue drives 3x; with the
        // write queue above 3/4 occupancy the "slow" write collapses to
        // a normal-speed pulse.
        let relaxed = {
            let mut c = ctrl(WritePolicy::slow().with_graded_latency());
            c.try_write(0, SimTime::ZERO);
            run(&mut c, 1, 250);
            c.stats().writes_completed_slow
        };
        assert_eq!(relaxed, 1, "empty queue grades to a true slow write");

        let mut c = ctrl(WritePolicy::slow().with_graded_latency());
        for i in 0..30 {
            c.try_write(i * 16, SimTime::ZERO); // one bank: queue stays full
        }
        run(&mut c, 1, 80);
        // The first issues saw >3/4 occupancy -> graded down to 1x,
        // which the stats classify as normal-speed issues.
        assert!(
            c.stats().writes_issued_normal >= 1,
            "full queue must grade down: {:?}",
            c.stats()
        );
    }

    #[test]
    fn graded_wear_matches_driven_factor() {
        // A graded 3x write (empty queue) wears 1/9 like a plain slow one.
        let mut c = ctrl(WritePolicy::slow().with_graded_latency());
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 250);
        let bank = c.config().map_line(0).bank;
        assert!((c.ledger().bank(bank).total_wear - 1.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn eager_writes_issue_only_to_idle_banks_and_slow() {
        let mut c = ctrl(WritePolicy::be_mellow_sc());
        assert!(c.eager_has_room());
        c.try_eager(0, SimTime::ZERO);
        run(&mut c, 1, 300);
        assert_eq!(c.stats().eager_completed, 1);
        assert_eq!(c.stats().writes_issued_slow, 1);

        // With a read pending for the bank, the eager write waits.
        let mut c2 = ctrl(WritePolicy::be_mellow_sc());
        c2.try_read(same_bank_line(0), SimTime::ZERO);
        c2.try_eager(0, SimTime::ZERO);
        run(&mut c2, 1, 2);
        assert_eq!(c2.stats().writes_issued_slow, 0);
    }

    #[test]
    fn eager_queue_capacity_enforced() {
        let mut c = ctrl(WritePolicy::be_mellow_sc());
        // Read keeps bank 0 requests from issuing... use distinct banks so
        // nothing issues: occupy them all with a long backlog instead.
        // Simplest: fill without ticking.
        for i in 0..16 {
            assert!(c.eager_has_room());
            c.try_eager(i, SimTime::ZERO);
        }
        assert!(!c.eager_has_room());
    }

    #[test]
    fn wear_quota_forces_slow_writes_on_hot_bank() {
        // Tiny capacity so the quota binds fast: 1 MiB, 16 banks ->
        // 1024 blocks/bank; bound ≈ 1024 * 5e6 * 500us/8yr * 0.9 ≈ 9e-3
        // normal writes per period — a single write exceeds it.
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 20;
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm().with_wear_quota(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        // Period 1: a couple of normal writes land.
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 100);
        assert!(c.stats().writes_completed_normal >= 1);
        // Cross the period boundary (500 us = 200_000 cycles).
        run(&mut c, 101, 200_000);
        // Now the bank is over quota: further writes go slow.
        let t = SimTime::from_ps(200_200 * MEM_CYCLE_PS);
        c.try_write(0, t);
        run(&mut c, 200_201, 300);
        assert!(
            c.stats().writes_issued_slow >= 1,
            "over-quota bank must write slow: {:?}",
            c.stats()
        );
    }

    #[test]
    fn tfaw_limits_activations_per_rank() {
        // Single rank: 5 reads to 5 banks; only 4 may activate within the
        // 50 ns window.
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 26;
        cfg.num_banks = 16;
        cfg.num_ranks = 1;
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        for bank in 0..5 {
            let line = line_for_bank(&c, bank);
            assert!(c.try_read(line, SimTime::ZERO));
        }
        c.tick(SimTime::from_ps(MEM_CYCLE_PS));
        assert_eq!(c.stats().rb_miss_reads, 4, "tFAW caps at 4 activations");
        // The window passes (50 ns = 20 cycles): the fifth activates.
        run(&mut c, 2, 25);
        assert_eq!(c.stats().rb_miss_reads, 5);
    }

    #[test]
    fn bank_utilization_reflects_busy_time() {
        let mut c = ctrl(WritePolicy::norm());
        c.try_write(0, SimTime::ZERO);
        let end = run(&mut c, 1, 100);
        let elapsed = end.since_origin();
        let util = c.bank_utilization(elapsed);
        let bank = c.config().map_line(0).bank;
        // One 170 ns write in 250 ns of simulation.
        assert!(util[bank] > 0.5, "bank util {}", util[bank]);
        assert!(util.iter().enumerate().all(|(i, &u)| i == bank || u == 0.0));
        assert!(c.avg_bank_utilization(elapsed) > 0.0);
    }

    #[test]
    fn lifetime_projection_responds_to_policy() {
        let mut norm = ctrl(WritePolicy::norm());
        let mut slow = ctrl(WritePolicy::slow());
        for i in 0..16 {
            norm.try_write(i * 3, SimTime::ZERO);
            slow.try_write(i * 3, SimTime::ZERO);
        }
        let e1 = run(&mut norm, 1, 3000).since_origin();
        let e2 = run(&mut slow, 1, 3000).since_origin();
        let l_norm = norm.lifetime(e1).min_years;
        let l_slow = slow.lifetime(e2).min_years;
        assert!(l_slow > l_norm * 5.0, "slow {l_slow} vs norm {l_norm}");
    }

    #[test]
    fn determinism_same_inputs_same_stats() {
        let mk = || {
            let mut c = ctrl(WritePolicy::be_mellow_sc());
            for i in 0..20 {
                c.try_write(i * 5, SimTime::ZERO);
                c.try_read(i * 11 + 1, SimTime::ZERO);
            }
            run(&mut c, 1, 5000);
            format!("{:?}", c.stats())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn reads_of_in_flight_writes_forward_instead_of_cancelling() {
        // Regression: a read for the very line being written used to
        // enter the read queue (only *queued* writes were forwarded),
        // and the next tick cancelled the in-flight write holding the
        // only copy of the read's data.
        let mut c = ctrl(WritePolicy::b_mellow_sc());
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 20); // lone slow write in flight (cancellable)
        assert_eq!(c.stats().writes_issued_slow, 1);
        assert!(c.try_read(0, SimTime::from_ps(20 * MEM_CYCLE_PS)));
        assert_eq!(c.stats().reads_forwarded, 1);
        assert_eq!(c.stats().reads_forwarded_in_flight, 1);
        run(&mut c, 21, 300);
        assert_eq!(c.stats().writes_cancelled, 0);
        assert_eq!(c.pop_read_done(), Some(0));
        assert_eq!(c.stats().writes_completed_slow, 1);
    }

    #[test]
    fn pre_pulse_cancel_requires_a_fresh_bus_transfer() {
        // Regression: a write cancelled while its line was still
        // bursting over the bus (now < pulse_start) was re-queued
        // `data_resident`, so its retry skipped the transfer it never
        // finished. The retry must re-burst.
        let mut c = ctrl(WritePolicy::slow().with_cancel_slow());
        // Write issues at cycle 1 (2.5 ns): bus 2.5..22.5 ns, slow
        // pulse 22.5..472.5 ns.
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 1);
        // A same-bank read arrives at 5 ns; the cancel fires at
        // 7.5 ns, mid-burst.
        c.try_read(same_bank_line(0), SimTime::from_ps(2 * MEM_CYCLE_PS));
        run(&mut c, 3, 1);
        assert_eq!(c.stats().writes_cancelled, 1);
        assert_eq!(c.stats().pre_pulse_cancels, 1);
        // Timeline from here: read 7.5..150 ns occupies the bank;
        // the retry issues at 152.5 ns and — because it must
        // re-burst — pulses 172.5..622.5 ns. Were the retry wrongly
        // `data_resident`, it would complete 20 ns (8 cycles)
        // earlier, at 602.5 ns.
        run(&mut c, 4, 241); // through cycle 244 (610 ns)
        assert_eq!(c.stats().writes_completed_slow, 0);
        run(&mut c, 245, 10);
        assert_eq!(c.stats().writes_completed_slow, 1);
    }

    #[test]
    fn pre_pulse_cancel_releases_the_bus_reservation() {
        // Regression: cancelling a write mid-burst refunded the bank but
        // left `bus_free_at` at the aborted transfer's slot, delaying
        // unrelated reads behind a phantom reservation.
        let mut c = ctrl(WritePolicy::slow().with_cancel_slow());
        // Eight writes to eight banks serialize on the bus: the
        // bank-7 write only starts its pulse at 162.5 ns.
        for bank in 0..8 {
            c.try_write(bank as u64, SimTime::ZERO);
        }
        run(&mut c, 1, 1);
        assert_eq!(c.stats().writes_issued_slow, 8);
        // A read for bank 7 (5 ns) cancels that write pre-pulse at
        // 7.5 ns, releasing its 162.5 ns bus slot; the read's data
        // moves at 130..150 ns (latency 145 ns). With the stale
        // reservation it would wait until 162.5 ns (latency 175 ns).
        c.try_read(same_bank_line(7), SimTime::from_ps(2 * MEM_CYCLE_PS));
        run(&mut c, 3, 70);
        assert_eq!(c.stats().pre_pulse_cancels, 1);
        assert_eq!(c.pop_read_done(), Some(same_bank_line(7)));
        let lat = c.stats().read_latency_ns.max();
        assert!(
            lat <= 150,
            "read waited on a cancelled transfer's bus slot ({lat} ns)"
        );
    }

    #[test]
    fn tick_and_tick_full_are_bit_identical() {
        // Drive the skipping `tick` and the full-tick reference with an
        // identical pseudo-random request stream (reads, writes, eager
        // writes, line collisions, quota periods) and require identical
        // counters, wear, energy, and queue occupancies at every probe
        // point.
        let policies = [
            WritePolicy::norm(),
            WritePolicy::slow().with_cancel_slow(),
            WritePolicy::b_mellow_sc(),
            WritePolicy::be_mellow_sc().with_wear_quota(),
            WritePolicy::b_mellow_sc().with_write_pausing(),
            WritePolicy::slow().with_graded_latency().with_cancel_slow(),
        ];
        for policy in policies {
            let fingerprint = |full: bool| {
                let mut cfg = MemConfig::paper_default();
                cfg.capacity_bytes = 1 << 22; // 4 MiB: dense collisions
                cfg.sample_period = Duration::from_us(5);
                let mut c = Controller::new(
                    cfg,
                    policy,
                    EnduranceModel::reram_default(),
                    CancelWear::Prorated,
                );
                let mut state = 0x1234_5678_9abc_def0u64;
                let mut rng = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 33
                };
                let mut probes = String::new();
                for cyc in 1..25_000u64 {
                    let now = SimTime::from_ps(cyc * MEM_CYCLE_PS);
                    if full {
                        c.tick_full(now);
                    } else {
                        c.tick(now);
                    }
                    match rng() % 16 {
                        0 | 1 => {
                            c.try_read(rng() % 4096, now);
                        }
                        2..=4 => {
                            c.try_write(rng() % 4096, now);
                        }
                        5 if c.eager_has_room() => {
                            c.try_eager(rng() % 4096, now);
                        }
                        _ => {}
                    }
                    if cyc % 5_000 == 0 {
                        probes.push_str(&format!(
                            "{:?} {:?} {:?}\n",
                            c.stats(),
                            c.queue_depths(),
                            c.ledger().total_wear()
                        ));
                    }
                }
                probes.push_str(&format!("{:?} {:?}", c.energy(), c.is_draining()));
                probes
            };
            assert_eq!(fingerprint(true), fingerprint(false), "policy {policy}");
        }
    }

    #[test]
    fn next_event_exposes_actionable_horizon() {
        let mut c = ctrl(WritePolicy::norm());
        // A fresh controller must be ticked at the next edge.
        assert_eq!(c.next_event(), Some(SimTime::ZERO));
        // With nothing queued, a tick proves no future edge can act.
        c.tick(SimTime::ZERO);
        assert_eq!(c.next_event(), None);
        // New input resets the horizon...
        assert!(c.try_read(0, SimTime::from_ps(MEM_CYCLE_PS)));
        assert_eq!(c.next_event(), Some(SimTime::ZERO));
        // ...and once the read is issued, the horizon points into the
        // future (the bank's completion), so idle edges can be skipped.
        c.tick(SimTime::from_ps(MEM_CYCLE_PS));
        let horizon = c.next_event().expect("read in flight");
        assert!(
            horizon > SimTime::from_ps(MEM_CYCLE_PS),
            "horizon {horizon:?}"
        );
        // An undrained completed read pins the controller to `ZERO`.
        run(&mut c, 2, 80);
        assert_eq!(c.next_event(), Some(SimTime::ZERO));
        assert_eq!(c.pop_read_done(), Some(0));
    }

    #[test]
    fn cancelled_write_leaves_no_stale_wake_up() {
        // Regression: a cancel left its write's completion entry in the
        // heap, so the horizon pointed at the cancelled pulse's old end.
        let mut c = ctrl(WritePolicy::b_mellow_sc());
        // Lone slow write: bus 2.5..22.5 ns, pulse 22.5..472.5 ns.
        c.try_write(0, SimTime::ZERO);
        run(&mut c, 1, 20);
        // The read cancels the write in its pulse at 52.5 ns and holds
        // the bank until 195 ns; the data-resident retry then pulses
        // 195..645 ns.
        c.try_read(same_bank_line(0), SimTime::from_ps(20 * MEM_CYCLE_PS));
        run(&mut c, 21, 60);
        assert_eq!(c.stats().writes_cancelled, 1);
        assert_eq!(c.pop_read_done(), Some(same_bank_line(0)));
        assert_eq!(c.next_event(), Some(SimTime::from_ps(645_000)));
    }

    #[test]
    fn read_queue_rejects_when_full() {
        let mut c = ctrl(WritePolicy::norm());
        let mut accepted = 0;
        for i in 0..40 {
            if c.try_read(i * 300, SimTime::ZERO) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 32);
        assert_eq!(c.stats().read_rejects, 8);
    }
}
