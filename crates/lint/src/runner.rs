//! Workspace walking.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules;
use crate::{Rule, Violation};

/// Recursively lists every `.rs` file under `root`, skipping build output,
/// vendored dependencies and VCS metadata. Paths come back
/// workspace-relative with `/` separators, sorted, so diagnostics are
/// deterministic across hosts.
fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
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

/// Lints every workspace file some rule reads and returns the sorted,
/// deduplicated violation list. Each file is read and lexed exactly once
/// by the same per-file routine as [`lint_source`](crate::lint_source);
/// L4's cross-file findings follow the walk.
pub fn collect_violations(root: &Path) -> io::Result<Vec<Violation>> {
    let mut l4 = rules::stats::Collector::default();
    let mut violations = Vec::new();
    for rel in workspace_files(root)? {
        if rules::library_crate(&rel).is_some() {
            let src = fs::read_to_string(root.join(&rel))?;
            violations.extend(rules::lint_file(&rel, &src, &mut l4));
        }
    }
    Ok(rules::finish(violations, l4))
}

/// Per-rule counts for the summary line, in [`Rule::ALL`] order.
pub fn counts(violations: &[Violation]) -> [(Rule, usize); Rule::ALL.len()] {
    Rule::ALL.map(|r| (r, violations.iter().filter(|v| v.rule == r).count()))
}
