//! The lint rules, and the one routine that runs them over a file.
//!
//! [`lint_file`] lexes a file once, masks its test code once, and calls
//! each file-local rule's `check` whose scope covers the file's path.
//! Each `check` returns `(line, message)` findings; `lint_file` drops
//! those an inline waiver covers and tags the rest with the rule and the
//! file. The cross-file rule (L4 stats references) takes no waivers: the
//! file goes to its [`stats::Collector`], which reports after every file
//! has been added. [`finish`] then sorts and deduplicates the whole list.
//!
//! All rules skip test code: `#[cfg(test)]` modules, `#[test]`/`#[bench]`
//! items, and whole files under `tests/`, `benches/` or `examples/` (see
//! [`library_crate`]).
//!
//! - **clock-domain** (L1): raw integer arithmetic on time-flavored
//!   quantities. Cycle counts must live in `CoreCycles`/`MemCycles` and
//!   picosecond quantities in `SimTime`/`Duration`; the only sanctioned
//!   crossings are in `mellow-engine`'s `time.rs`/`clock.rs`.
//! - **determinism** (L2): iteration over `HashMap`/`HashSet` (order is
//!   randomized-by-construction) and wall-clock types
//!   (`Instant`/`SystemTime`) inside simulation crates.
//! - **panic-policy** (L3): `.unwrap()` and `.expect("")` in non-test
//!   library code. Failures must either become typed errors or carry an
//!   invariant message.
//! - **stats-exhaustiveness** (L4): every field of a `*Stats` struct must
//!   be referenced at least twice outside its declaration — once to
//!   accumulate and once to report/merge.
//! - **rng-discipline** (L6): `DetRng` values are constructed only through
//!   named stream-derivation constructors, never cloned into two
//!   consumers, and `skip(n)` appears only in span-replay code.

mod clock_domain;
mod common;
mod determinism;
mod panic_policy;
mod rng_discipline;
pub(crate) mod stats;

use crate::lexer::{allowed, lex};
use crate::{Rule, Violation};

/// A file-local rule firing: the line and the message.
type Finding = (u32, String);

/// Simulation crates (directory names under `crates/`): the scope of
/// L1–L3 and L6. `bench` is deliberately absent — it is the figures
/// harness, whose wall-clock use (the sweep's progress ETA) is
/// legitimate; its *artifacts* are kept deterministic by `ResultStore`
/// instead.
const SIM_CRATES: &[&str] = &[
    "engine",
    "cache",
    "core",
    "cpu",
    "memctrl",
    "nvm",
    "sim",
    "workloads",
];

/// The crate whose library source `rel_path` (workspace-relative, `/`
/// separators) is, `mellow-writes` for the root `src/`; `None` for a
/// file no rule reads: anything under a `tests/`, `benches/`,
/// `examples/` or `fixtures/` directory, outside a `src/` tree, or in the
/// lint crate itself. L4 reads every other file.
pub(crate) fn library_crate(rel_path: &str) -> Option<&str> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples" | "fixtures"))
    {
        return None;
    }
    match parts.as_slice() {
        ["crates", "lint", ..] => None,
        ["crates", name, "src", ..] => Some(*name),
        ["src", ..] => Some("mellow-writes"),
        _ => None,
    }
}

/// Whether `rule` skips `rel_path` as the engine file that implements
/// what it polices: `time.rs`/`clock.rs`, the one sanctioned crossing
/// between clock domains (L1), and `rng.rs`, the `DetRng` implementation
/// itself (L6).
fn engine_exempt(rule: Rule, rel_path: &str) -> bool {
    match rule {
        Rule::ClockDomain => matches!(
            rel_path,
            "crates/engine/src/time.rs" | "crates/engine/src/clock.rs"
        ),
        Rule::RngDiscipline => rel_path == "crates/engine/src/rng.rs",
        _ => false,
    }
}

/// Lints one file as if it lived at `rel_path`: the unwaived findings of
/// every file-local rule in scope, with the file added to `l4` for the
/// cross-file check. A file no rule reads yields nothing and adds
/// nothing.
pub(crate) fn lint_file(rel_path: &str, src: &str, l4: &mut stats::Collector) -> Vec<Violation> {
    let Some(krate) = library_crate(rel_path) else {
        return Vec::new();
    };
    let lx = lex(src);
    let toks = &lx.toks;
    let excluded = common::test_spans(toks);
    let mut out = Vec::new();
    let mut keep = |rule: Rule, found: Vec<Finding>| {
        let unwaived = found
            .into_iter()
            .filter(|(line, _)| !allowed(&lx.allows, rule.name(), *line));
        out.extend(unwaived.map(|(line, message)| Violation {
            rule,
            file: rel_path.to_string(),
            line,
            message,
        }));
    };
    if SIM_CRATES.contains(&krate) {
        if !engine_exempt(Rule::ClockDomain, rel_path) {
            keep(Rule::ClockDomain, clock_domain::check(toks, &excluded));
        }
        keep(Rule::Determinism, determinism::check(toks, &excluded));
        keep(Rule::PanicPolicy, panic_policy::check(toks, &excluded));
        if !engine_exempt(Rule::RngDiscipline, rel_path) {
            keep(Rule::RngDiscipline, rng_discipline::check(toks, &excluded));
        }
    }
    l4.add(rel_path, toks, &excluded);
    out
}

/// The list both entry points report: the per-file findings `out` plus
/// L4's cross-file ones, sorted, with repeats dropped (a rule that fires
/// twice on one line for one reason is one violation).
pub(crate) fn finish(mut out: Vec<Violation>, l4: stats::Collector) -> Vec<Violation> {
    out.extend(l4.finish());
    out.sort();
    out.dedup();
    out
}
