//! Criterion micro-benchmarks for the simulator's hot paths.
//!
//! These measure the cost of the data structures the cycle loop leans
//! on (the LLC's demand hit and eager-probe span, Start-Gap remapping,
//! the utility monitor, timer queues, the controller tick) plus the
//! sweep's per-cell set-up. They guard the simulator's own performance,
//! not the paper's results — those come from the `figures` binary.
//! End-to-end throughput is the `benchmark/` package's job.

use criterion::{criterion_group, criterion_main, Criterion};
use mellow_cache::{AccessId, Cache, CacheConfig};
use mellow_core::{UtilityMonitor, WritePolicy};
use mellow_engine::{DetRng, SimTime, TimerQueue};
use mellow_memctrl::{Controller, MemConfig};
use mellow_nvm::{CancelWear, EnduranceModel, StartGap};
use std::hint::black_box;

/// A paper-size LLC (2,048 sets × 16 ways) with Eager Mellow Writes on
/// and every line resident. The LRU line of every 256th set is dirtied
/// through `try_writeback`, so 8 sets hold a candidate, and the all-miss
/// fill trains the eager position to 0. Returns the cache, its line
/// count and the time of its last tick.
fn eager_llc() -> (Cache, u64, SimTime) {
    let cfg = CacheConfig::llc();
    let lines = cfg.num_sets() * cfg.assoc as u64;
    let step = cfg.hit_latency;
    let mut llc = Cache::new(cfg);
    llc.enable_eager();
    let mut now = SimTime::ZERO;
    for line in 0..lines {
        llc.try_fetch(line, now);
        now += step;
        llc.tick(now);
        if let Some(miss) = llc.pop_miss_down() {
            llc.deliver_fill(miss, now);
        }
        llc.pop_fill_up();
    }
    for set in (0..llc.config().num_sets()).step_by(256) {
        llc.try_writeback(set, now);
        now += step;
        llc.tick(now);
    }
    assert!(llc.sample_utility().is_some_and(|p| p < 16));
    (llc, lines, now)
}

fn bench_llc(c: &mut Criterion) {
    let step = CacheConfig::llc().hit_latency;
    c.bench_function("llc_demand_hit_2048x16", |b| {
        let (mut llc, lines, mut now) = eager_llc();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            llc.try_demand(AccessId(i), i * 97 % lines, false, now);
            now += step;
            llc.tick(now);
            black_box(llc.pop_completion())
        });
    });
    // One idle span of 64 probes. A found candidate is re-dirtied by a
    // writeback, so every span sees the same 8 candidate sets; about one
    // span in five finds one, the rest walk all 64 draws.
    c.bench_function("llc_eager_probe_span_64", |b| {
        let (mut llc, _, mut now) = eager_llc();
        let mut rng = DetRng::seed_from(5);
        b.iter(|| {
            let (probes, found) = llc.eager_probe_span(&mut rng, 64);
            if let Some(line) = found {
                llc.try_writeback(line, now);
                now += step;
                llc.tick(now);
            }
            black_box(probes)
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
    bench_llc,
    bench_startgap,
    bench_monitor,
    bench_timer_queue,
    bench_endurance,
    bench_controller_tick,
    bench_sweep_overhead,
);
criterion_main!(benches);
