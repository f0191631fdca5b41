//! Fixture tests: every rule gets at least one violating and one clean
//! snippet, linted through the same scoping logic as the workspace runner
//! (fixtures pose as files inside simulation crates).

use mellow_lint::{lint_source, runner, Rule};

/// Path under which fixtures are linted: a simulation crate, so every rule
/// is in scope.
const SIM: &str = "crates/memctrl/src/fixture.rs";

fn rules_fired(src: &str) -> Vec<Rule> {
    let mut rules: Vec<Rule> = lint_source(SIM, src).into_iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- L1

#[test]
fn l1_flags_raw_cast_of_cycle_quantity() {
    let src = "fn f(t: SimTime, core_ps: u64) -> u64 { t.as_ps() / core_ps as u64 }";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::ClockDomain && v.message.contains("core_ps")),
        "expected a clock-domain cast violation, got {vs:?}"
    );
}

#[test]
fn l1_flags_raw_integer_cycle_declaration() {
    let src = "pub struct S { pub stall_cycles: u64 }";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::ClockDomain && v.message.contains("stall_cycles")),
        "expected a clock-domain declaration violation, got {vs:?}"
    );
}

#[test]
fn l1_flags_time_named_fn_returning_raw_int() {
    let src = "impl S { pub fn busy_cycles(&self) -> u64 { 0 } }";
    assert!(rules_fired(src).contains(&Rule::ClockDomain));
}

#[test]
fn l1_clean_typed_cycles_pass() {
    let src = "
        pub struct S { pub stall_cycles: CoreCycles }
        impl S {
            pub fn busy_cycles(&self) -> CoreCycles { self.stall_cycles }
            pub fn f(&self, clock: &Clock) -> SimTime { self.stall_cycles.edge(clock) }
        }
        fn unrelated(index: usize) -> u64 { index as u64 }
    ";
    assert!(
        !rules_fired(src).contains(&Rule::ClockDomain),
        "clean snippet must not fire L1"
    );
}

#[test]
fn l1_exempts_engine_time_and_clock() {
    let src = "fn period_ps(hz: u64) -> u64 { 1_000_000_000_000 / hz }";
    for exempt in ["crates/engine/src/time.rs", "crates/engine/src/clock.rs"] {
        assert!(
            lint_source(exempt, src).is_empty(),
            "{exempt} is the sanctioned conversion point"
        );
    }
    assert!(
        !lint_source(SIM, src).is_empty(),
        "same code elsewhere must fire"
    );
}

// ---------------------------------------------------------------- L2

#[test]
fn l2_flags_hashmap_iteration() {
    let src = "
        use std::collections::HashMap;
        pub struct S { pending: HashMap<u64, u32> }
        impl S {
            pub fn total(&self, out: &mut Vec<u32>) {
                for v in self.pending.values() { out.push(*v); }
            }
        }
    ";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::Determinism && v.message.contains("pending")),
        "expected a determinism violation, got {vs:?}"
    );
}

#[test]
fn l2_flags_wall_clock() {
    let src = "pub fn now() -> std::time::Instant { std::time::Instant::now() }";
    assert!(rules_fired(src).contains(&Rule::Determinism));
}

#[test]
fn l2_clean_sorted_iteration_passes() {
    let src = "
        use std::collections::HashMap;
        pub struct S { pending: HashMap<u64, u32> }
        impl S {
            pub fn snapshot(&self) -> Vec<(u64, u32)> {
                let mut rows: Vec<(u64, u32)> =
                    self.pending.iter().map(|(k, v)| (*k, *v)).collect();
                rows.sort();
                rows
            }
            pub fn size(&self) -> usize { self.pending.len() }
        }
    ";
    // `.iter()` is immediately normalized by the `sort` downstream; keyed
    // access and `.len()` never fire.
    let vs = lint_source(SIM, src);
    assert!(
        !vs.iter().any(|v| v.rule == Rule::Determinism),
        "sorted collect must not fire L2, got {vs:?}"
    );
}

#[test]
fn l2_clean_btreemap_passes() {
    let src = "
        use std::collections::BTreeMap;
        pub fn sum(m: &BTreeMap<u64, u64>) -> u64 { m.values().sum() }
    ";
    assert!(!rules_fired(src).contains(&Rule::Determinism));
}

#[test]
fn l2_allow_comment_waives() {
    let src = "
        use std::collections::HashMap;
        pub fn drop_all(m: &mut HashMap<u64, u32>, pending: &mut HashMap<u64, u32>) {
            // mellow-lint: allow(determinism) -- order-insensitive clear
            for (_k, _v) in pending.drain() {}
        }
    ";
    assert!(!rules_fired(src).contains(&Rule::Determinism));
}

// ---------------------------------------------------------------- L3

#[test]
fn l3_flags_unwrap_and_empty_expect() {
    let src = "
        pub fn f(x: Option<u32>) -> u32 { x.unwrap() }
        pub fn g(x: Option<u32>) -> u32 { x.expect(\"\") }
    ";
    let vs = lint_source(SIM, src);
    assert_eq!(
        vs.iter().filter(|v| v.rule == Rule::PanicPolicy).count(),
        2,
        "both the unwrap and the empty expect must fire, got {vs:?}"
    );
}

#[test]
fn l3_clean_expect_with_invariant_passes() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.expect(\"queue cannot be empty here\") }";
    assert!(!rules_fired(src).contains(&Rule::PanicPolicy));
}

#[test]
fn l3_skips_test_code() {
    let src = "
        pub fn lib_fn() -> u32 { 1 }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { assert_eq!(Some(1).unwrap(), 1); }
        }
    ";
    assert!(!rules_fired(src).contains(&Rule::PanicPolicy));
}

#[test]
fn l3_skips_test_files_entirely() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert!(lint_source("crates/memctrl/tests/integration.rs", src).is_empty());
    assert!(lint_source("tests/end_to_end.rs", src).is_empty());
}

// ---------------------------------------------------------------- L4

#[test]
fn l4_flags_write_only_counter() {
    let src = "
        pub struct FooStats { pub hits: u64, pub misses: u64 }
        impl Foo {
            fn record(&mut self) { self.stats.hits += 1; self.stats.misses += 1; }
            fn report(&self) -> u64 { self.stats.hits }
        }
    ";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::StatsExhaustiveness && v.message.contains("misses")),
        "write-only `misses` must fire, got {vs:?}"
    );
    assert!(
        !vs.iter().any(|v| v.message.contains("`FooStats.hits`")),
        "`hits` has accumulate + report sites, got {vs:?}"
    );
}

#[test]
fn l4_clean_fully_reported_stats_pass() {
    let src = "
        pub struct BarStats { pub fills: u64 }
        impl Bar {
            fn record(&mut self) { self.stats.fills += 1; }
            fn report(&self) -> u64 { self.stats.fills }
        }
    ";
    assert!(!rules_fired(src).contains(&Rule::StatsExhaustiveness));
}

#[test]
fn l4_counts_the_json_field_list_as_one_report_site() {
    // `impl_json_fields!` names each field once: it is the report site
    // of a counter that is also incremented, and it alone does not keep
    // a never-incremented field alive.
    let src = "
        pub struct FooStats { pub hits: u64, pub stale: u64 }
        mellow_engine::impl_json_fields!(FooStats { hits, stale });
        impl Foo {
            fn record(&mut self) { self.stats.hits += 1; }
        }
    ";
    let vs: Vec<String> = lint_source(SIM, src)
        .into_iter()
        .filter(|v| v.rule == Rule::StatsExhaustiveness)
        .map(|v| v.message)
        .collect();
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert!(vs[0].contains("`FooStats.stale`"), "{vs:?}");
}

#[test]
fn l4_ignores_non_stats_structs() {
    let src = "pub struct Config { pub depth: u64 }";
    assert!(!rules_fired(src).contains(&Rule::StatsExhaustiveness));
}

// ------------------------------------------- fault-layer coverage (PR 5)

/// The fault layer's home: a simulation crate, so L1–L4 all apply.
const FAULT: &str = "crates/nvm/src/fault.rs";

#[test]
fn l2_covers_fault_state_tables() {
    // A block-failure table iterated in hash order would make spare
    // allocation (and therefore which write gets lost) depend on the
    // map's layout — exactly the replay bug L2 exists to stop.
    let src = "
        use std::collections::HashMap;
        pub struct FaultState { blocks: HashMap<(usize, u64), f64> }
        impl FaultState {
            pub fn worst(&self) -> f64 {
                let mut worst = 0.0f64;
                for w in self.blocks.values() { worst = worst.max(*w); }
                worst
            }
        }
    ";
    let vs = lint_source(FAULT, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::Determinism && v.message.contains("blocks")),
        "hash-order block-table scan must fire L2, got {vs:?}"
    );
}

#[test]
fn l2_clean_keyed_fault_lookup_passes() {
    // The real fault table only ever does keyed lookups and inserts —
    // verify the rule does not tax that shape.
    let src = "
        use std::collections::HashMap;
        pub struct FaultState { blocks: HashMap<(usize, u64), f64> }
        impl FaultState {
            pub fn wear(&self, bank: usize, block: u64) -> f64 {
                self.blocks.get(&(bank, block)).copied().unwrap_or(0.0)
            }
            pub fn charge(&mut self, bank: usize, block: u64, w: f64) {
                *self.blocks.entry((bank, block)).or_insert(0.0) += w;
            }
            pub fn tracked(&self) -> usize { self.blocks.len() }
        }
    ";
    assert!(!rules_fired(src).contains(&Rule::Determinism));
}

#[test]
fn l4_covers_fault_stats_counters() {
    // A FaultStats counter that is bumped on the verify path but never
    // reported is dead telemetry — the exact bug class L4 guards the
    // real `memctrl::FaultStats` against.
    let src = "
        pub struct FaultStats { pub verify_failures: u64, pub remaps: u64 }
        impl Ctrl {
            fn on_verify_failure(&mut self) { self.fault_stats.verify_failures += 1; }
            fn on_remap(&mut self) { self.fault_stats.remaps += 1; }
            fn report(&self) -> u64 { self.fault_stats.verify_failures }
        }
    ";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::StatsExhaustiveness && v.message.contains("remaps")),
        "write-only `remaps` must fire L4, got {vs:?}"
    );
    assert!(
        !vs.iter().any(|v| v.message.contains("verify_failures")),
        "`verify_failures` accumulates and reports, got {vs:?}"
    );
}

#[test]
fn l4_covers_leveler_stats_counters() {
    // The `WearLeveler` counters are exactly the shape L4 polices: a
    // migration counter bumped on every rotation but dropped from the
    // metrics row would silently hollow out the leveling sweep. A
    // fixture with a reported `overhead_writes` but write-only
    // `migrations` must fire on the latter only.
    let src = "
        pub struct LevelerStats { pub overhead_writes: u64, pub migrations: u64 }
        impl Leveler {
            fn rotate(&mut self) { self.stats.overhead_writes += 2; self.stats.migrations += 1; }
            fn report(&self) -> u64 { self.stats.overhead_writes }
        }
    ";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::StatsExhaustiveness && v.message.contains("migrations")),
        "write-only `migrations` must fire L4, got {vs:?}"
    );
    assert!(
        !vs.iter().any(|v| v.message.contains("overhead_writes")),
        "`overhead_writes` accumulates and reports, got {vs:?}"
    );
}

#[test]
fn l4_covers_retention_and_scrub_stats_counters() {
    // The retention/scrub counters are wired into the resolution
    // invariant (`demand_verify_failures + scrub_rewrites == repairs +
    // retention_uncorrectable`), so dropping one from the metrics row
    // would hollow out both the invariant audit and the retention
    // sweep. A fixture where `scrub_rewrites` is bumped on the scrub
    // path but never reported must fire on it — and only on it.
    let src = "
        pub struct RetentionStats { pub demand_verify_failures: u64, pub repairs: u64 }
        pub struct ScrubStats { pub scrub_reads: u64, pub scrub_rewrites: u64 }
        impl Ctrl {
            fn on_demand_detect(&mut self) { self.retention_stats.demand_verify_failures += 1; }
            fn on_repair(&mut self) { self.retention_stats.repairs += 1; }
            fn on_scrub(&mut self, hit: bool) {
                self.scrub_stats.scrub_reads += 1;
                if hit { self.scrub_stats.scrub_rewrites += 1; }
            }
            fn report(&self) -> (u64, u64, u64) {
                (
                    self.retention_stats.demand_verify_failures,
                    self.retention_stats.repairs,
                    self.scrub_stats.scrub_reads,
                )
            }
        }
    ";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::StatsExhaustiveness && v.message.contains("scrub_rewrites")),
        "write-only `scrub_rewrites` must fire L4, got {vs:?}"
    );
    for reported in ["demand_verify_failures", "repairs", "scrub_reads"] {
        assert!(
            !vs.iter().any(|v| v.message.contains(reported)),
            "`{reported}` accumulates and reports, got {vs:?}"
        );
    }
}

// ------------------------------------------------------- diagnostics shape

#[test]
fn violations_carry_file_line_and_sort_deterministically() {
    let src = "\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let vs = lint_source(SIM, src);
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].file, SIM);
    assert_eq!(vs[0].line, 3);
    let rendered = vs[0].to_string();
    assert!(
        rendered.starts_with("crates/memctrl/src/fixture.rs:3: [panic-policy]"),
        "{rendered}"
    );
}

#[test]
fn both_entry_points_report_one_finding_per_line_and_reason() {
    let rel = "crates/sim/src/seeded.rs";
    let src = "pub fn f(core_ps: u64) -> u64 { core_ps as u64 + core_ps as u64 }\n";
    let root = std::env::temp_dir().join(format!("mellow-lint-dedup-{}", std::process::id()));
    let file = root.join(rel);
    std::fs::create_dir_all(file.parent().expect("the path has a parent"))
        .expect("create the temp tree");
    std::fs::write(&file, src).expect("write the temp source");
    let walked = runner::collect_violations(&root);
    let _ = std::fs::remove_dir_all(&root);
    let walked = walked.expect("the temp tree scans");

    let single = lint_source(rel, src);
    assert_eq!(single, walked, "both entry points report one list");
    assert_eq!(single.len(), 2, "{single:?}");
    assert!(
        single
            .iter()
            .all(|v| v.rule == Rule::ClockDomain && v.line == 1),
        "{single:?}"
    );
}

// ---------------------------------------------------------------- L6

#[test]
fn l6_flags_bare_seed_from() {
    let src = "pub fn mk(seed: u64) -> DetRng { DetRng::seed_from(seed) }";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter().any(|v| v.rule == Rule::RngDiscipline
            && v.message.contains("named stream derivation")),
        "bare seed_from must fire L6, got {vs:?}"
    );
}

#[test]
fn l6_clean_derived_stream_passes() {
    let src = "
        pub fn mk(seed: u64) -> DetRng { DetRng::seed_from(seed).derive(STREAM_FILL) }
        pub fn mk2(seed: u64) -> DetRng { DetRng::xor_stream(seed, STREAM_PROBE) }
    ";
    assert!(!rules_fired(src).contains(&Rule::RngDiscipline));
}

#[test]
fn l6_flags_rng_clone_and_smallrng() {
    let src = "
        pub fn fork(rng: &DetRng) -> DetRng { rng.clone() }
        pub fn raw() -> SmallRng { SmallRng::seed_from_u64(1) }
    ";
    let vs = lint_source(SIM, src);
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::RngDiscipline && v.message.contains("clone")),
        "rng clone must fire L6, got {vs:?}"
    );
    assert!(
        vs.iter()
            .any(|v| v.rule == Rule::RngDiscipline && v.message.contains("SmallRng")),
        "raw SmallRng must fire L6, got {vs:?}"
    );
}

#[test]
fn l6_skip_only_in_span_replay_code() {
    let flagged = "pub fn jump(rng: &mut DetRng) { rng.skip(4); }";
    assert!(rules_fired(flagged).contains(&Rule::RngDiscipline));

    let clean = "pub fn eager_probe_span(rng: &mut DetRng, n: u64) { rng.skip(n); }";
    assert!(
        !rules_fired(clean).contains(&Rule::RngDiscipline),
        "skip inside span-replay code is the sanctioned fast-forward"
    );
}

#[test]
fn l6_exempts_the_rng_module_itself() {
    let src = "pub fn mk(seed: u64) -> DetRng { DetRng::seed_from(seed) }";
    assert!(
        lint_source("crates/engine/src/rng.rs", src).is_empty(),
        "the DetRng implementation is the sanctioned construction point"
    );
}

// ------------------------------------------------------ waivers and scope

/// The lines at which `rule` fires on `src` linted as `path`.
fn lines_fired(rule: Rule, path: &str, src: &str) -> Vec<u32> {
    lint_source(path, src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn l1_allow_comment_covers_its_line_and_the_next_only() {
    let src = r#"pub fn f(core_ps: SimTime) -> u64 {
    let a = core_ps as u64; // mellow-lint: allow(clock-domain) -- same line
    // mellow-lint: allow(clock-domain) -- next line
    let b = core_ps as u64;
    // mellow-lint: allow(clock-domain) -- two lines down is out of reach

    let c = core_ps as u64;
    let d = core_ps as u64; // mellow-lint: allow(determinism) -- another rule
    a + b + c + d
}
"#;
    assert_eq!(lines_fired(Rule::ClockDomain, SIM, src), vec![7, 8]);
}

#[test]
fn l3_allow_comment_covers_its_line_and_the_next_only() {
    let src = r#"pub fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap(); // mellow-lint: allow(panic-policy) -- same line
    // mellow-lint: allow(panic-policy) -- next line
    let b = x.expect("");
    // mellow-lint: allow(panic-policy) -- two lines down is out of reach

    let c = x.unwrap();
    let d = x.unwrap(); // mellow-lint: allow(clock-domain) -- another rule
    a + b + c + d
}
"#;
    assert_eq!(lines_fired(Rule::PanicPolicy, SIM, src), vec![7, 8]);
}

#[test]
fn l6_allow_comment_covers_its_line_and_the_next_only() {
    let src = r#"pub fn f(seed: u64, rng: &mut DetRng) -> DetRng {
    rng.skip(1); // mellow-lint: allow(rng-discipline) -- same line
    // mellow-lint: allow(rng-discipline) -- next line
    let _a = rng.clone();
    // mellow-lint: allow(rng-discipline) -- two lines down is out of reach

    rng.skip(2);
    DetRng::seed_from(seed) // mellow-lint: allow(panic-policy) -- another rule
}
"#;
    assert_eq!(lines_fired(Rule::RngDiscipline, SIM, src), vec![7, 8]);
}

#[test]
fn l4_ignores_allow_comments() {
    let src = "pub struct FooStats {
    // mellow-lint: allow(stats-exhaustiveness) -- L4 takes no waiver
    pub above: u64,
    pub beside: u64, // mellow-lint: allow(stats-exhaustiveness) -- nor here
}
";
    assert_eq!(lines_fired(Rule::StatsExhaustiveness, SIM, src), vec![3, 4]);
}

#[test]
fn harness_and_root_sources_draw_l4_only() {
    let src = "
        pub struct FooStats { pub stale: u64 }
        pub fn f(core_ps: SimTime, x: Option<u32>, rng: &DetRng) -> u64 {
            let _t = std::time::Instant::now();
            let _r = rng.clone();
            let _c = core_ps as u64;
            u64::from(x.unwrap())
        }
    ";
    assert_eq!(
        rules_fired(src),
        Rule::ALL,
        "a simulation crate draws all five"
    );
    for path in ["crates/bench/src/figures.rs", "src/lib.rs"] {
        assert_eq!(
            lint_source(path, src)
                .into_iter()
                .map(|v| v.rule)
                .collect::<Vec<_>>(),
            [Rule::StatsExhaustiveness],
            "{path}"
        );
    }
}
