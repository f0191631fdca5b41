//! Criterion micro-benchmarks for the simulator's hot paths.
//!
//! These measure the cost of the data structures the cycle loop leans
//! on (LRU stacks, Start-Gap remapping, the utility monitor, timer
//! queues, the controller tick) plus end-to-end simulated-instruction
//! throughput of the wired system. They guard the simulator's own
//! performance, not the paper's results — those come from the `figures`
//! binary.

use criterion::{criterion_group, criterion_main, Criterion};
use mellow_core::{UtilityMonitor, WritePolicy};
use mellow_engine::{DetRng, SimTime, TimerQueue};
use mellow_memctrl::{Controller, MemConfig};
use mellow_nvm::{CancelWear, EnduranceModel, StartGap};
use mellow_sim::Experiment;
use mellow_workloads::WorkloadSpec;
use std::hint::black_box;

fn bench_lru(c: &mut Criterion) {
    use mellow_cache::LruSet;
    c.bench_function("lru_set_probe_touch_16way", |b| {
        let mut set = LruSet::new(16);
        for t in 0..16 {
            set.insert(t);
        }
        let mut i = 0u64;
        b.iter(|| {
            let tag = i % 16;
            i += 1;
            if set.probe(tag).is_some() {
                set.touch(tag);
            }
            black_box(set.len())
        });
    });
}

fn bench_startgap(c: &mut Criterion) {
    c.bench_function("startgap_remap", |b| {
        let mut sg = StartGap::new(1 << 24, 100);
        for _ in 0..5000 {
            sg.note_write();
        }
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 977) % (1 << 24);
            black_box(sg.remap(l))
        });
    });
}

fn bench_monitor(c: &mut Criterion) {
    c.bench_function("utility_monitor_record_and_sample", |b| {
        let mut m = UtilityMonitor::new(16);
        let mut i = 0usize;
        b.iter(|| {
            m.record_hit(i % 16);
            i += 1;
            if i.is_multiple_of(1000) {
                black_box(m.sample());
            }
        });
    });
}

fn bench_timer_queue(c: &mut Criterion) {
    c.bench_function("timer_queue_schedule_pop", |b| {
        let mut q: TimerQueue<u64> = TimerQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 7;
            q.schedule(SimTime::from_ns(t % 1000 + t), t);
            black_box(q.pop_due(SimTime::from_ns(t)))
        });
    });
}

fn bench_endurance(c: &mut Criterion) {
    c.bench_function("endurance_wear_per_write", |b| {
        let m = EnduranceModel::reram_default();
        let mut f = 1.0f64;
        b.iter(|| {
            f = if f > 2.9 { 1.0 } else { f + 0.1 };
            black_box(m.wear_per_write(f))
        });
    });
}

fn traffic_controller() -> Controller {
    let mut cfg = MemConfig::paper_default();
    cfg.capacity_bytes = 1 << 26;
    Controller::new(
        cfg,
        WritePolicy::be_mellow_sc(),
        EnduranceModel::reram_default(),
        CancelWear::Prorated,
    )
}

fn bench_controller_tick(c: &mut Criterion) {
    c.bench_function("controller_tick_with_traffic", |b| {
        let mut ctrl = traffic_controller();
        let mut rng = DetRng::seed_from(3);
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            let now = SimTime::from_ps(cycle * 2500);
            if cycle.is_multiple_of(4) {
                let _ = ctrl.try_read(rng.below(1 << 18), now);
            }
            if cycle.is_multiple_of(16) {
                let _ = ctrl.try_write(rng.below(1 << 18), now);
            }
            ctrl.tick(now);
            black_box(ctrl.pop_read_done())
        });
    });
    // Ticks with nothing queued or in flight: the controller's
    // next-actionable skip should make these near-free, which is what
    // lets the system loop coast through memory-idle stretches.
    c.bench_function("controller_tick_idle", |b| {
        let mut ctrl = traffic_controller();
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            ctrl.tick(SimTime::from_ps(cycle * 2500));
            black_box(ctrl.pop_read_done())
        });
    });
}

fn bench_system_loops(c: &mut Criterion) {
    // The same retirement target under both run_instructions loops:
    // `_cycle` is the one-cycle-at-a-time reference, the unsuffixed
    // bench the event-kernel default. The gap is widest on gups,
    // whose random misses keep the core head-blocked on memory for most
    // of its cycles.
    let mut group = c.benchmark_group("system_loop");
    group.sample_size(10);
    for workload in ["gups", "stream"] {
        for (suffix, cycle_loop) in [("", false), ("_cycle", true)] {
            group.bench_function(format!("run_20k_instructions_{workload}{suffix}"), |b| {
                let mut spec = WorkloadSpec::try_by_name(workload).unwrap();
                spec.working_set_bytes = 16 << 20;
                b.iter(|| {
                    let mut system =
                        Experiment::with_spec(spec.clone(), WritePolicy::be_mellow_sc())
                            .configure(|c| {
                                c.l1.size_bytes = 4 << 10;
                                c.l2.size_bytes = 16 << 10;
                                c.llc.size_bytes = 64 << 10;
                                c.use_cycle_loop = cycle_loop;
                            })
                            .build();
                    system.run_instructions(20_000);
                    black_box(system.core().ipc())
                });
            });
        }
    }
    group.finish();
}

fn bench_sweep_overhead(c: &mut Criterion) {
    use mellow_bench::{try_experiment_for, CellKey, Scale};
    // The sweep path builds each cell's experiment and hashes it into a
    // store key before any simulation; this guards that per-cell setup
    // stays negligible next to the simulation itself.
    c.bench_function("sweep_cell_build_and_key", |b| {
        b.iter(|| {
            let e = try_experiment_for(
                black_box("GemsFDTD"),
                WritePolicy::be_mellow_sc(),
                Scale::quick(),
            )
            .unwrap();
            black_box(CellKey::for_experiment(&e))
        });
    });
}

criterion_group!(
    benches,
    bench_lru,
    bench_startgap,
    bench_monitor,
    bench_timer_queue,
    bench_endurance,
    bench_controller_tick,
    bench_system_loops,
    bench_sweep_overhead,
);
criterion_main!(benches);
