//! The lint rules, organized as a registry.
//!
//! Every rule implements [`LintRule`] over a shared per-file context
//! ([`FileCtx`]): the runner lexes each workspace file once, computes its
//! test spans once, and hands the same token stream to every rule whose
//! scope matches — five rules, one lexing pass, no duplicated boilerplate.
//! File-local rules return violations straight from
//! [`LintRule::check_file`]; the cross-file rule (L4 stats references)
//! accumulates state there and emits from [`LintRule::finish`] after the
//! walk.
//!
//! All rules skip test code: `#[cfg(test)]` modules, `#[test]`/`#[bench]`
//! items, and whole files under `tests/`, `benches/` or `examples/` (the
//! latter handled by the runner's scoping, see [`crate::runner`]).
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

pub mod clock_domain;
mod common;
pub mod determinism;
pub mod panic_policy;
pub mod rng_discipline;
pub mod stats;

pub use clock_domain::is_time_flavored;
pub use common::{collect_idents, fn_items, test_spans, FnItem};
pub use stats::{collect_stats_structs, StatsStruct};

use crate::lexer::Lexed;
use crate::runner::Scope;
use crate::{Rule, Violation};

/// Everything a rule needs about one file: its workspace-relative path,
/// the scope the runner classified it into, the shared token stream and
/// the shared test-span mask.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub scope: Scope,
    pub lx: &'a Lexed,
    pub excluded: &'a [bool],
}

/// One lint pass over the shared token stream.
pub trait LintRule {
    /// Which [`Rule`] this pass reports as.
    fn rule(&self) -> Rule;

    /// Whether this pass wants to see files classified with `scope`.
    fn applies(&self, scope: &Scope) -> bool;

    /// Visits one file; file-local rules return their violations here,
    /// cross-file rules accumulate state and return nothing.
    fn check_file(&mut self, ctx: &FileCtx<'_>) -> Vec<Violation>;

    /// Emits cross-file violations after every file has been visited.
    fn finish(&mut self) -> Vec<Violation> {
        Vec::new()
    }
}

/// The full registry, in [`Rule::ALL`] order.
pub fn registry() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(clock_domain::ClockDomain),
        Box::new(determinism::Determinism),
        Box::new(panic_policy::PanicPolicy),
        Box::new(stats::StatsExhaustiveness::default()),
        Box::new(rng_discipline::RngDiscipline),
    ]
}
