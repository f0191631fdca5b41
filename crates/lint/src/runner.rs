//! Workspace walking, rule scoping and baseline diffing.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline::{Baseline, Entry};
use crate::lexer;
use crate::rules;
use crate::{Rule, Violation};

/// Simulation crates (directory names under `crates/`): the scope of the
/// clock-domain, determinism and panic-policy rules. `bench` is deliberately
/// absent — it is the figures harness, whose wall-clock use (the sweep's
/// progress ETA) is legitimate; its *artifacts* are kept deterministic by
/// `ResultStore` instead.
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

/// Files exempt from the clock-domain rule: the one sanctioned place where
/// cycle counts, clock periods and picoseconds convert into each other.
const CLOCK_DOMAIN_EXEMPT: &[&str] = &["crates/engine/src/time.rs", "crates/engine/src/clock.rs"];

/// The one file allowed to construct rngs from raw seeds: the `DetRng`
/// implementation itself.
const RNG_DISCIPLINE_EXEMPT: &[&str] = &["crates/engine/src/rng.rs"];

/// Which rules apply to a given file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    pub check_clock_domain: bool,
    pub check_determinism: bool,
    pub check_panic_policy: bool,
    pub check_stats: bool,
    /// Whether this file's identifiers count as references for L4.
    pub collect_idents: bool,
    pub check_rng_discipline: bool,
}

impl Scope {
    /// Whether any rule wants this file at all.
    pub fn any(&self) -> bool {
        self.check_clock_domain
            || self.check_determinism
            || self.check_panic_policy
            || self.check_stats
            || self.collect_idents
            || self.check_rng_discipline
    }
}

/// Classifies a workspace-relative path (with `/` separators) into the rules
/// that apply to it. Test-only locations (`tests/`, `benches/`, `examples/`)
/// and the lint crate itself get an empty scope.
pub fn classify(rel_path: &str) -> Scope {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let test_dirs = ["tests", "benches", "examples", "fixtures"];
    if parts.iter().any(|p| test_dirs.contains(p)) {
        return Scope::default();
    }
    let (crate_dir, in_src) = match parts.as_slice() {
        ["crates", name, "src", ..] => (*name, true),
        ["src", ..] => ("mellow-writes", true),
        _ => return Scope::default(),
    };
    if !in_src || crate_dir == "lint" {
        return Scope::default();
    }
    let sim = SIM_CRATES.contains(&crate_dir);
    Scope {
        check_clock_domain: sim && !CLOCK_DOMAIN_EXEMPT.contains(&rel_path),
        check_determinism: sim,
        check_panic_policy: sim,
        check_stats: true,
        collect_idents: true,
        check_rng_discipline: sim && !RNG_DISCIPLINE_EXEMPT.contains(&rel_path),
    }
}

/// Recursively lists every `.rs` file under `root`, skipping build output,
/// vendored dependencies, VCS metadata and the lint crate itself. Paths come
/// back workspace-relative with `/` separators, sorted, so diagnostics are
/// deterministic across hosts.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | ".git" | ".claude") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full rule registry over the workspace and returns the sorted
/// violation list. Each file is read and lexed exactly once; every rule
/// whose scope matches sees the same token stream, and cross-file rules
/// emit from their `finish` hook after the walk.
pub fn collect_violations(root: &Path) -> io::Result<Vec<Violation>> {
    let files = workspace_files(root)?;
    let mut registry = rules::registry();
    let mut violations: Vec<Violation> = Vec::new();

    for rel in &files {
        let scope = classify(rel);
        if !scope.any() {
            continue;
        }
        let src = fs::read_to_string(root.join(rel))?;
        let lx = lexer::lex(&src);
        let excluded = rules::test_spans(&lx.toks);
        let ctx = rules::FileCtx {
            path: rel,
            scope,
            lx: &lx,
            excluded: &excluded,
        };
        for rule in &mut registry {
            if rule.applies(&scope) {
                violations.extend(rule.check_file(&ctx));
            }
        }
    }
    for rule in &mut registry {
        violations.extend(rule.finish());
    }
    violations.sort();
    violations.dedup();
    Ok(violations)
}

/// The outcome of a lint run diffed against the baseline.
#[derive(Debug)]
pub struct Report {
    /// Every violation currently present (baselined or not), sorted.
    pub all: Vec<Violation>,
    /// Violations not covered by the baseline — these fail the build.
    pub fresh: Vec<Violation>,
    /// Baseline entries that no longer match anything — these also fail, so
    /// the baseline cannot rot.
    pub stale: Vec<Entry>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.fresh.is_empty() && self.stale.is_empty()
    }
}

/// Diffs current violations against the baseline. A baseline entry covers
/// any violation with the same `(rule, file, line)`; unknown rule names in
/// the baseline are treated as stale.
pub fn diff(all: Vec<Violation>, baseline: &Baseline) -> Report {
    let covered = |v: &Violation| {
        baseline
            .entries
            .iter()
            .any(|e| e.rule == v.rule.name() && e.file == v.file && e.line == v.line)
    };
    let fresh: Vec<Violation> = all.iter().filter(|v| !covered(v)).cloned().collect();
    let stale: Vec<Entry> = baseline
        .entries
        .iter()
        .filter(|e| {
            !all.iter()
                .any(|v| e.rule == v.rule.name() && e.file == v.file && e.line == v.line)
        })
        .cloned()
        .collect();
    Report { all, fresh, stale }
}

/// Convenience: collect + diff in one call.
pub fn run(root: &Path, baseline: &Baseline) -> io::Result<Report> {
    Ok(diff(collect_violations(root)?, baseline))
}

/// Renders a baseline that covers exactly the given violations (used by
/// `--write-baseline`).
pub fn baseline_for(violations: &[Violation]) -> Baseline {
    let mut entries: Vec<Entry> = violations
        .iter()
        .map(|v| Entry {
            rule: v.rule.name().to_string(),
            file: v.file.clone(),
            line: v.line,
            note: String::new(),
        })
        .collect();
    entries.sort();
    entries.dedup();
    Baseline { entries }
}

/// Per-rule counts for the summary line, in [`Rule::ALL`] order.
pub fn counts(violations: &[Violation]) -> [(Rule, usize); Rule::ALL.len()] {
    Rule::ALL.map(|r| (r, violations.iter().filter(|v| v.rule == r).count()))
}
