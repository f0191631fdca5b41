//! Violation-injection tests for the mellow-san runtime sanitizer.
//!
//! Compiled only with `--features sanitize`. Each test seeds a known
//! event-dirty-protocol violation through a `System` test hook and
//! asserts the sanitizer aborts with the right diagnosis. (The
//! stale-generation-pop class cannot be provoked from outside the
//! kernel — the `HorizonQueue` generation filter is exactly what
//! prevents it — so that class is covered by the unit tests in
//! `mellow_engine::sanitize`.)
//!
//! The complementary "clean" direction needs no dedicated test: running
//! this whole suite with `--features sanitize` re-runs the pinned
//! Metrics goldens (`tests/leveling.rs`) and the cycle-vs-event
//! equivalence tests with the shadow checker armed, which both proves
//! real runs are violation-free and that arming the sanitizer leaves
//! results bit-identical.

#![cfg(feature = "sanitize")]

use mellow_writes::core::WritePolicy;
use mellow_writes::engine::Duration;
use mellow_writes::sim::Experiment;
use mellow_writes::workloads::WorkloadSpec;

/// A small dense-traffic experiment so the horizon queue sees real
/// postings from every source before the injection.
fn scaled() -> Experiment {
    let mut spec = WorkloadSpec::by_name("gups").expect("preset exists");
    spec.avg_interval = 2.0;
    spec.working_set_bytes = 1 << 20;
    Experiment::with_spec(spec, WritePolicy::be_mellow_sc())
        .seed(7)
        .configure(|c| {
            c.l1.size_bytes = 4 << 10;
            c.l2.size_bytes = 16 << 10;
            c.llc.size_bytes = 64 << 10;
            c.mem.sample_period = Duration::from_us(10);
        })
}

#[test]
fn clean_traffic_stays_silent() {
    let mut system = scaled().build();
    system.run_instructions(30_000);
    system.sanitize_refresh();
}

#[test]
#[should_panic(expected = "late wake")]
fn injected_late_wake_fires() {
    // Inject into the still-idle L1: its posted horizon is withdrawn,
    // so the sneaked-in demand is guaranteed to be earlier than it.
    let mut system = scaled().build();
    system.inject_late_horizon();
    system.sanitize_refresh();
}

#[test]
#[should_panic(expected = "forbidden site")]
fn injected_forbidden_dirty_site_fires() {
    let mut system = scaled().build();
    system.run_instructions(10_000);
    system.inject_forbidden_dirty_site();
    system.sanitize_refresh();
}

#[test]
#[should_panic(expected = "mem-edge-misaligned")]
fn injected_misaligned_ctrl_horizon_fires() {
    let mut system = scaled().build();
    system.run_instructions(10_000);
    system.inject_misaligned_ctrl_horizon();
}
