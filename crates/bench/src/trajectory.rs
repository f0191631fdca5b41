//! Machine-readable performance trajectories.
//!
//! `figures perf` appends one record per benchmark to
//! `BENCH_system.json` at the repository root. The file holds a JSON
//! array of [`BenchRecord`] objects, so the history of simulator
//! wall-clock performance survives across commits and can be plotted
//! or diffed without re-running old builds.
//!
//! Records carry the measurement context needed to compare entries
//! across commits: the [`Scale`](crate::Scale) preset name, the
//! machine's thread count, a monotonic per-file sequence number
//! (assigned by [`append_records`]), and the git hash with a separate
//! `dirty` flag. The CI perf-smoke guard (`figures perf --guard`) uses
//! the scale label to compare like against like.

use mellow_engine::json::Json;
use std::path::{Path, PathBuf};

/// One benchmark measurement destined for a `BENCH_*.json` trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark identifier, e.g. `run_instructions/gups`.
    pub bench: String,
    /// Nanoseconds per operation, for microbench-style records.
    pub ns_per_op: Option<f64>,
    /// Simulated instructions per wall-clock second, for end-to-end
    /// records.
    pub ips: Option<f64>,
    /// Speedup of the optimized path over its reference oracle.
    pub speedup: f64,
    /// Scale preset the measurement ran at (`tiny`, `quick`, `full`,
    /// or `micro` for the fixed 20k-instruction microbench).
    pub scale: String,
    /// Hardware threads available on the measuring machine, for
    /// cross-machine context (runs themselves are single-threaded).
    pub threads: u64,
    /// Git commit hash (`git describe --always`) at measurement time.
    pub git: String,
    /// Whether the working tree was dirty at measurement time.
    pub dirty: bool,
}

impl BenchRecord {
    /// `seq` is assigned by [`append_records`], monotonically per
    /// trajectory file, so records sort by measurement order even
    /// after external tools re-serialize the array.
    fn to_json(&self, seq: u64) -> Json {
        let mut fields = vec![("bench".to_owned(), Json::from(self.bench.as_str()))];
        if let Some(ns) = self.ns_per_op {
            fields.push(("ns_per_op".to_owned(), Json::from(ns)));
        }
        if let Some(ips) = self.ips {
            fields.push(("ips".to_owned(), Json::from(ips)));
        }
        fields.push(("speedup".to_owned(), Json::from(self.speedup)));
        fields.push(("scale".to_owned(), Json::from(self.scale.as_str())));
        fields.push(("threads".to_owned(), Json::from(self.threads)));
        fields.push(("seq".to_owned(), Json::from(seq)));
        fields.push(("git".to_owned(), Json::from(self.git.as_str())));
        fields.push(("dirty".to_owned(), Json::from(self.dirty)));
        Json::Obj(fields)
    }
}

/// The current commit hash and dirty flag: `git describe --always
/// --dirty`, with any `-dirty` suffix split off into the boolean.
/// Returns `("unknown", false)` when git is unavailable (e.g. a source
/// tarball).
pub fn git_state() -> (String, bool) {
    let described = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    match described.strip_suffix("-dirty") {
        Some(hash) => (hash.to_owned(), true),
        None => (described, false),
    }
}

/// The number of hardware threads on this machine, recorded in each
/// [`BenchRecord`] for cross-machine context.
pub fn machine_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// The repository root (the trajectories live beside `Cargo.lock`, not
/// inside the bench crate, so they are easy to find and to upload as
/// CI artifacts).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_trajectory(path: &Path) -> Vec<Json> {
    match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Arr(items)) => items,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    }
}

/// Appends `records` to the JSON-array trajectory at `path`, creating
/// the file if missing and tolerating a corrupt or non-array existing
/// file (it is restarted rather than poisoning the run). Each appended
/// record gets a `seq` number one past the largest already in the file,
/// so measurement order survives re-serialization. Returns the total
/// record count after the append.
///
/// # Errors
///
/// Propagates the I/O error if the final write fails.
pub fn append_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<usize> {
    let mut all = read_trajectory(path);
    let next_seq = all
        .iter()
        .filter_map(|r| r.get("seq").and_then(Json::as_u64))
        .max()
        .map_or(0, |m| m + 1);
    for (seq, record) in (next_seq..).zip(records) {
        all.push(record.to_json(seq));
    }
    let count = all.len();
    std::fs::write(path, format!("{}\n", Json::Arr(all)))?;
    Ok(count)
}

/// The most recently appended record in the trajectory at `path`
/// matching both `bench` and `scale` (highest `seq` wins; legacy
/// records without a `scale` field never match). Used by the perf-smoke
/// regression guard to find the previous committed same-scale entry.
pub fn last_record(path: &Path, bench: &str, scale: &str) -> Option<Json> {
    read_trajectory(path)
        .into_iter()
        .filter(|r| {
            r.get("bench").and_then(Json::as_str) == Some(bench)
                && r.get("scale").and_then(Json::as_str) == Some(scale)
        })
        .max_by_key(|r| r.get("seq").and_then(Json::as_u64).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, speedup: f64) -> BenchRecord {
        BenchRecord {
            bench: bench.to_owned(),
            ns_per_op: Some(125.5),
            ips: None,
            speedup,
            scale: "tiny".to_owned(),
            threads: 8,
            git: "abc1234".to_owned(),
            dirty: false,
        }
    }

    #[test]
    fn records_round_trip_and_append() {
        let path = std::env::temp_dir().join(format!("bench-traj-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        assert_eq!(append_records(&path, &[record("a", 3.5)]).unwrap(), 1);
        assert_eq!(append_records(&path, &[record("b", 1.25)]).unwrap(), 2);

        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Arr(items) = parsed else {
            panic!("trajectory is not an array")
        };
        assert_eq!(items.len(), 2);
        let text = items[1].to_string();
        assert!(text.contains("\"bench\""), "missing bench field: {text}");
        assert!(text.contains("1.25"), "missing speedup: {text}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seq_is_monotonic_across_appends() {
        let path = std::env::temp_dir().join(format!("bench-seq-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        append_records(&path, &[record("a", 1.0), record("b", 2.0)]).unwrap();
        append_records(&path, &[record("a", 3.0)]).unwrap();

        let items = read_trajectory(&path);
        let seqs: Vec<u64> = items
            .iter()
            .map(|r| r.get("seq").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn last_record_matches_bench_and_scale() {
        let path = std::env::temp_dir().join(format!("bench-last-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut quick = record("geo", 2.0);
        quick.scale = "quick".to_owned();
        append_records(&path, &[record("geo", 1.0), quick, record("geo", 3.0)]).unwrap();

        let hit = last_record(&path, "geo", "tiny").unwrap();
        assert_eq!(hit.get("speedup").and_then(Json::as_f64), Some(3.0));
        assert_eq!(hit.get("seq").and_then(Json::as_u64), Some(2));
        assert!(last_record(&path, "geo", "full").is_none());
        assert!(last_record(&path, "nope", "tiny").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_trajectory_restarts_instead_of_failing() {
        let path = std::env::temp_dir().join(format!("bench-corrupt-{}.json", std::process::id()));
        std::fs::write(&path, "not json at all").unwrap();
        assert_eq!(append_records(&path, &[record("a", 2.0)]).unwrap(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn optional_fields_are_omitted_when_absent() {
        let json = BenchRecord {
            bench: "x".to_owned(),
            ns_per_op: None,
            ips: Some(1.0e6),
            speedup: 4.0,
            scale: "quick".to_owned(),
            threads: 1,
            git: "unknown".to_owned(),
            dirty: true,
        }
        .to_json(7)
        .to_string();
        assert!(!json.contains("ns_per_op"));
        assert!(json.contains("ips"));
        assert!(
            json.contains("\"seq\": 7") || json.contains("\"seq\":7"),
            "{json}"
        );
        assert!(json.contains("\"dirty\""), "{json}");
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
