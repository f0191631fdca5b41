//! Hashes the simulator's sources into `MELLOW_SIM_SOURCE_HASH`, which
//! `CellKey` mixes into every result-store key: a change to any
//! simulator source file yields fresh keys, so a warm store never
//! replays rows an older simulator produced.

use std::fs;
use std::path::{Path, PathBuf};

/// The source directories, relative to the repository root, whose code
/// determines a cell's `Metrics`: the simulator crates, plus the
/// vendored `rand` that `DetRng` draws from.
const SIM_SOURCES: &[&str] = &[
    "crates/engine/src",
    "crates/nvm/src",
    "crates/cache/src",
    "crates/cpu/src",
    "crates/core/src",
    "crates/memctrl/src",
    "crates/workloads/src",
    "crates/sim/src",
    "vendor/rand/src",
];

/// Appends every `.rs` file under `dir` to `out`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in SIM_SOURCES {
        let src = root.join(dir);
        println!("cargo:rerun-if-changed={}", src.display());
        rust_files(&src, &mut files);
    }
    // Relative '/'-joined paths, so the hash depends on neither the
    // checkout's location nor the host's path separator.
    let mut files: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("file under the root");
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            (rel.join("/"), path)
        })
        .collect();
    files.sort();
    // FNV-1a, 64-bit, with each field delimited.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (rel, path) in &files {
        let text = fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for bytes in [rel.as_bytes(), &text] {
            for &b in bytes.iter().chain(&[0xff]) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    println!("cargo:rustc-env=MELLOW_SIM_SOURCE_HASH={h:016x}");
}
