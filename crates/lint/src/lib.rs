//! `mellow-lint` — the workspace's offline static-analysis pass.
//!
//! The simulator's headline guarantees (bit-identical replay of every
//! experiment, a single blessed crossing point between clock domains,
//! one reproducible RNG stream per consumer) are properties no unit test
//! can protect forever: one `as u64`, one `HashMap` iteration or one
//! cloned `DetRng` in a future patch silently re-introduces the bug
//! class. This crate walks every workspace `.rs` file with a hand-rolled
//! lexer and enforces five rules (see [`rules`]):
//!
//! | rule | name | enforces |
//! |------|------|----------|
//! | L1 | `clock-domain` | no raw integer time arithmetic outside `mellow-engine`'s `time.rs`/`clock.rs` |
//! | L2 | `determinism` | no hash-order iteration or wall clocks in simulation crates |
//! | L3 | `panic-policy` | no `.unwrap()` / `.expect("")` in non-test library code |
//! | L4 | `stats-exhaustiveness` | every `*Stats` field has an accumulate *and* a report site |
//! | L6 | `rng-discipline` | `DetRng` streams come from named derivation constructors; no clones, `skip` only in span replay |
//!
//! Rule numbers are stable: L5 and L7 are retired and not reused.
//!
//! The rules are trait objects in a [`rules::registry`] sharing one lexing
//! pass per file. Any violation fails the build; the one escape hatch is
//! an inline `// mellow-lint: allow(<rule>) -- reason` waiver on a
//! deliberate, permanent site.
//!
//! Run it with `cargo run -p mellow-lint` from anywhere in the workspace.
//! It exits 0 when no rule fires, 1 on any violation, and 2 on a usage
//! or I/O error.

pub mod lexer;
pub mod rules;
pub mod runner;

use std::fmt;

/// The five rules, in severity-of-surprise order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// L1: clock-domain discipline.
    ClockDomain,
    /// L2: deterministic iteration and no wall clocks.
    Determinism,
    /// L3: panic policy in library code.
    PanicPolicy,
    /// L4: every stats counter is accumulated and reported.
    StatsExhaustiveness,
    /// L6: `DetRng` stream construction, cloning and skipping discipline.
    RngDiscipline,
}

impl Rule {
    /// The stable name used in diagnostics and allow-comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ClockDomain => "clock-domain",
            Rule::Determinism => "determinism",
            Rule::PanicPolicy => "panic-policy",
            Rule::StatsExhaustiveness => "stats-exhaustiveness",
            Rule::RngDiscipline => "rng-discipline",
        }
    }

    /// All rules, for iteration in reports.
    pub const ALL: [Rule; 5] = [
        Rule::ClockDomain,
        Rule::Determinism,
        Rule::PanicPolicy,
        Rule::StatsExhaustiveness,
        Rule::RngDiscipline,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule fired at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path with `/` separators (stable across hosts).
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints a single source text as if it lived at `rel_path` inside the
/// workspace. Rule scoping (which crates each rule applies to, the
/// `time.rs`/`clock.rs` exemption, test-file paths) follows the same logic
/// as the workspace runner. The cross-file check (L4) only sees this one
/// file.
///
/// This is the entry point the fixture tests drive.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let scope = runner::classify(rel_path);
    let lx = lexer::lex(src);
    let excluded = rules::test_spans(&lx.toks);
    let ctx = rules::FileCtx {
        path: rel_path,
        scope,
        lx: &lx,
        excluded: &excluded,
    };
    let mut out = Vec::new();
    for rule in &mut rules::registry() {
        if rule.applies(&scope) {
            out.extend(rule.check_file(&ctx));
        }
        out.extend(rule.finish());
    }
    out.sort();
    out
}
