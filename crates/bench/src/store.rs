//! Durable result caching for sweeps.
//!
//! A [`ResultStore`] is an append-only JSON-lines file mapping a
//! [`CellKey`] — a content hash of everything that determines a cell's
//! outcome — to its serialized [`Metrics`] row. Sweeps consult the
//! store before simulating, so re-running `figures` over a warm store
//! replays instantly, and a sweep killed partway resumes from the cells
//! it already finished: every completed cell is flushed to disk the
//! moment its worker reports it.
//!
//! The key hashes the fully-built experiment (workload spec, complete
//! `SystemConfig` including policy and seed, warm-up and measured
//! instruction counts) plus a build-time hash of the simulator's
//! sources, so any change to a config knob, a spec parameter, or a
//! source file of `mellow-{engine,nvm,cache,cpu,core,memctrl,workloads,sim}`
//! or the vendored `rand` produces a distinct key and stale rows are
//! simply never looked up again. Changes elsewhere — this crate's
//! figure formatting, the toolchain — keep the keys.

use mellow_engine::json::Json;
use mellow_sim::{Experiment, Metrics};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// A content hash identifying one sweep cell's full configuration.
///
/// Two experiments collide only if their workload spec, system
/// configuration (policy, seed, every memory/cache knob), instruction
/// windows, crate version and simulator sources all match — the
/// conditions under which the simulator is deterministic, so a stored
/// row is a faithful replay. The sources enter as a hash of every `.rs`
/// file under the simulator crates' and the vendored `rand`'s `src/`
/// directories, computed by this crate's build script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(u64);

/// The build script's hash of the simulator's sources.
const SIM_SOURCE_HASH: &str = env!("MELLOW_SIM_SOURCE_HASH");

impl CellKey {
    /// Computes the key for a fully-built experiment.
    pub fn for_experiment(e: &Experiment) -> CellKey {
        CellKey::with_source(e, SIM_SOURCE_HASH)
    }

    /// The key of `e` as built from simulator sources hashing to
    /// `source_hash`.
    fn with_source(e: &Experiment, source_hash: &str) -> CellKey {
        let mut h = Fnv::new();
        h.write(b"mellow-sweep-v1");
        h.write(env!("CARGO_PKG_VERSION").as_bytes());
        h.write(source_hash.as_bytes());
        h.write(format!("{:?}", e.workload()).as_bytes());
        h.write(format!("{:?}", e.config()).as_bytes());
        h.write(&e.warmup_instructions().to_le_bytes());
        h.write(&e.measure_instructions().to_le_bytes());
        CellKey(h.finish())
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for cache keys
/// (a sweep holds at most a few thousand cells).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Delimit fields so ("ab","c") and ("a","bc") hash differently.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An I/O or format failure on the result store.
#[derive(Debug)]
pub struct StoreError {
    /// The store file involved.
    pub path: PathBuf,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "result store {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for StoreError {}

/// A JSON-lines file of completed sweep cells, keyed by [`CellKey`].
///
/// Each line is `{"key": "<16 hex digits>", "metrics": {…}}`. Lines
/// that fail to parse — typically a final line truncated when a sweep
/// was killed mid-write — are skipped on load, so an interrupted sweep
/// resumes from its last complete cell.
///
/// Rows live in a `BTreeMap`, and [`compact`](Self::compact) rewrites
/// the file in ascending key order, so a store compacted after a sweep
/// is byte-stable: re-running the same sweep — whatever completion
/// order its parallel workers produce — leaves an identical file.
///
/// # Examples
///
/// ```no_run
/// use mellow_bench::{CellKey, ResultStore};
/// # let experiment = mellow_bench::try_experiment_for(
/// #     "lbm", mellow_core::WritePolicy::norm(), mellow_bench::Scale::quick()).unwrap();
///
/// let mut store = ResultStore::open("target/sweep-cache.jsonl").unwrap();
/// let key = CellKey::for_experiment(&experiment);
/// let metrics = match store.get(&key) {
///     Some(cached) => cached.clone(),
///     None => {
///         let m = experiment.run();
///         store.insert(&key, &m).unwrap();
///         m
///     }
/// };
/// ```
pub struct ResultStore {
    path: PathBuf,
    file: File,
    /// Sorted so iteration (and therefore [`compact`](Self::compact))
    /// is deterministic regardless of insertion order.
    rows: BTreeMap<u64, Metrics>,
    skipped_lines: usize,
    /// Whether the on-disk bytes may deviate from the canonical
    /// (sorted, debris-free) form `compact` writes.
    needs_compact: bool,
}

impl ResultStore {
    /// Opens (creating if needed, including parent directories) the
    /// store at `path` and loads every parseable line.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<ResultStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let fail = |message: String| StoreError {
            path: path.clone(),
            message,
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| fail(format!("creating parent directory: {e}")))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| fail(format!("opening: {e}")))?;
        let mut rows = BTreeMap::new();
        let mut skipped_lines = 0;
        let mut disk_keys = Vec::new();
        let mut reader = BufReader::new(file.try_clone().map_err(|e| fail(e.to_string()))?);
        let mut line = String::new();
        let mut torn = false;
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| fail(format!("reading: {e}")))?;
            if n == 0 {
                break;
            }
            torn = !line.ends_with('\n');
            if line.trim().is_empty() {
                skipped_lines += 1;
                continue;
            }
            match Self::parse_line(line.trim_end()) {
                Some((key, metrics)) => {
                    disk_keys.push(key);
                    rows.insert(key, metrics);
                }
                // A malformed line is almost always the tail of a killed
                // sweep; drop it and let the cell re-run.
                None => skipped_lines += 1,
            }
        }
        // Terminate a torn last line, so the next insert starts a line of
        // its own instead of merging into the debris.
        if torn {
            (&file)
                .write_all(b"\n")
                .map_err(|e| fail(format!("terminating torn line: {e}")))?;
        }
        // Already canonical only if the lines were strictly ascending
        // (sorted, no duplicates) with no debris.
        let needs_compact = skipped_lines > 0 || disk_keys.windows(2).any(|w| w[0] >= w[1]);
        Ok(ResultStore {
            path,
            file,
            rows,
            skipped_lines,
            needs_compact,
        })
    }

    fn parse_line(line: &str) -> Option<(u64, Metrics)> {
        let v = Json::parse(line).ok()?;
        let key = u64::from_str_radix(v.get("key")?.as_str()?, 16).ok()?;
        let metrics = Metrics::from_json(v.get("metrics")?)?;
        Some((key, metrics))
    }

    /// Returns the cached row for `key`, if any.
    pub fn get(&self, key: &CellKey) -> Option<&Metrics> {
        self.rows.get(&key.0)
    }

    /// Appends a completed row and flushes it to disk immediately, so
    /// the cell survives the process being killed.
    pub fn insert(&mut self, key: &CellKey, metrics: &Metrics) -> Result<(), StoreError> {
        let line = format!(
            "{{\"key\": \"{key}\", \"metrics\": {}}}\n",
            metrics.to_json()
        );
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| StoreError {
                path: self.path.clone(),
                message: format!("appending: {e}"),
            })?;
        self.rows.insert(key.0, metrics.clone());
        self.needs_compact = true;
        Ok(())
    }

    /// Rewrites the file with every row in ascending key order (and no
    /// truncated-line debris), so that two stores holding the same rows
    /// are byte-identical however their sweeps interleaved. Returns
    /// `true` when the file was rewritten, `false` when it was already
    /// canonical.
    ///
    /// The rewrite goes through a temp file renamed over the original,
    /// so a kill mid-compact leaves either the old or the new file,
    /// never a torn one.
    pub fn compact(&mut self) -> Result<bool, StoreError> {
        if !self.needs_compact {
            return Ok(false);
        }
        let fail = |message: String| StoreError {
            path: self.path.clone(),
            message,
        };
        let tmp = self.path.with_extension("jsonl.tmp");
        let mut out = File::create(&tmp).map_err(|e| fail(format!("creating temp: {e}")))?;
        for (key, metrics) in &self.rows {
            let line = format!(
                "{{\"key\": \"{}\", \"metrics\": {}}}\n",
                CellKey(*key),
                metrics.to_json()
            );
            out.write_all(line.as_bytes())
                .map_err(|e| fail(format!("writing temp: {e}")))?;
        }
        out.flush()
            .map_err(|e| fail(format!("flushing temp: {e}")))?;
        drop(out);
        std::fs::rename(&tmp, &self.path).map_err(|e| fail(format!("replacing: {e}")))?;
        // The old append handle points at the replaced inode; reopen so
        // later inserts land in the new file.
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| fail(format!("reopening: {e}")))?;
        self.needs_compact = false;
        Ok(true)
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Lines that failed to parse on load (interrupted-write debris).
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("rows", &self.rows.len())
            .field("skipped_lines", &self.skipped_lines)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_experiment_for, Scale};
    use mellow_core::WritePolicy;

    fn temp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mellow-store-{}-{name}.jsonl", std::process::id()))
    }

    fn tiny_metrics(workload: &str) -> Metrics {
        try_experiment_for(workload, WritePolicy::norm(), Scale::quick())
            .unwrap()
            .warmup(2_000)
            .instructions(5_000)
            .run()
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_store("round-trip");
        let _ = std::fs::remove_file(&path);
        let e = try_experiment_for("lbm", WritePolicy::norm(), Scale::quick()).unwrap();
        let key = CellKey::for_experiment(&e);
        let m = tiny_metrics("lbm");
        {
            let mut store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.insert(&key, &m).unwrap();
            assert_eq!(store.len(), 1);
        }
        let store = ResultStore::open(&path).unwrap();
        let back = store.get(&key).expect("row persisted");
        assert_eq!(back.ipc.to_bits(), m.ipc.to_bits());
        assert_eq!(back.ctrl, m.ctrl);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_skipped() {
        let path = temp_store("truncated");
        let _ = std::fs::remove_file(&path);
        let e = try_experiment_for("gups", WritePolicy::norm(), Scale::quick()).unwrap();
        let key = CellKey::for_experiment(&e);
        let m = tiny_metrics("gups");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.insert(&key, &m).unwrap();
        }
        // Simulate a sweep killed mid-append.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\": \"00ff, \"metrics\": {\"work")
            .unwrap();
        drop(f);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.skipped_lines(), 1);
        assert!(store.get(&key).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_after_a_torn_tail_survives_a_second_kill() {
        // A sweep killed mid-append, resumed, and killed again before
        // its closing compact: the row the resumed sweep finished must
        // not merge into the first kill's torn line.
        let path = temp_store("torn-resume");
        let _ = std::fs::remove_file(&path);
        let e1 = try_experiment_for("lbm", WritePolicy::norm(), Scale::quick()).unwrap();
        let e2 = try_experiment_for("gups", WritePolicy::norm(), Scale::quick()).unwrap();
        let (k1, k2) = (CellKey::for_experiment(&e1), CellKey::for_experiment(&e2));
        let m = tiny_metrics("lbm");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.insert(&k1, &m).unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\": \"torn").unwrap();
        drop(f);
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.insert(&k2, &m).unwrap();
        }
        let reloaded = ResultStore::open(&path).unwrap();
        assert_eq!(reloaded.skipped_lines(), 1);
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.get(&k1).is_some() && reloaded.get(&k2).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_sorts_rows_and_is_byte_stable() {
        let path_a = temp_store("compact-a");
        let path_b = temp_store("compact-b");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let cells: Vec<(CellKey, Metrics)> = ["lbm", "gups", "stream"]
            .iter()
            .map(|w| {
                let e = try_experiment_for(w, WritePolicy::norm(), Scale::quick()).unwrap();
                (CellKey::for_experiment(&e), tiny_metrics(w))
            })
            .collect();
        // Two stores fed the same rows in different (worker-completion)
        // orders must end up byte-identical once compacted.
        {
            let mut a = ResultStore::open(&path_a).unwrap();
            let mut b = ResultStore::open(&path_b).unwrap();
            for (k, m) in &cells {
                a.insert(k, m).unwrap();
            }
            for (k, m) in cells.iter().rev() {
                b.insert(k, m).unwrap();
            }
            assert!(a.compact().unwrap());
            assert!(b.compact().unwrap());
            assert!(!a.compact().unwrap(), "second compact is a no-op");
        }
        let bytes_a = std::fs::read(&path_a).unwrap();
        let bytes_b = std::fs::read(&path_b).unwrap();
        assert!(!bytes_a.is_empty());
        assert_eq!(bytes_a, bytes_b, "insertion order leaked into the file");
        // Keys on disk are ascending, and reloading preserves the rows.
        let reloaded = ResultStore::open(&path_a).unwrap();
        assert_eq!(reloaded.len(), cells.len());
        for (k, m) in &cells {
            assert_eq!(reloaded.get(k).unwrap().ipc.to_bits(), m.ipc.to_bits());
        }
        assert!(
            !reloaded.needs_compact,
            "compacted file reloads as canonical"
        );
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
    }

    #[test]
    fn compact_replaces_debris_and_appends_go_to_new_file() {
        let path = temp_store("compact-debris");
        let _ = std::fs::remove_file(&path);
        let e1 = try_experiment_for("lbm", WritePolicy::norm(), Scale::quick()).unwrap();
        let e2 = try_experiment_for("gups", WritePolicy::norm(), Scale::quick()).unwrap();
        let (k1, k2) = (CellKey::for_experiment(&e1), CellKey::for_experiment(&e2));
        let m = tiny_metrics("lbm");
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.insert(&k1, &m).unwrap();
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\": \"torn").unwrap();
        drop(f);
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 1);
        assert!(store.compact().unwrap(), "debris forces a rewrite");
        // Inserts after a compact must reach the replacement file.
        store.insert(&k2, &m).unwrap();
        drop(store);
        let reloaded = ResultStore::open(&path).unwrap();
        assert_eq!(reloaded.skipped_lines(), 0);
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.get(&k1).is_some() && reloaded.get(&k2).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn key_tracks_config_and_windows() {
        let base = try_experiment_for("lbm", WritePolicy::norm(), Scale::quick()).unwrap();
        let k = CellKey::for_experiment(&base);
        assert_eq!(k, CellKey::for_experiment(&base.clone()));
        let policy = try_experiment_for("lbm", WritePolicy::slow(), Scale::quick()).unwrap();
        assert_ne!(k, CellKey::for_experiment(&policy));
        assert_ne!(k, CellKey::for_experiment(&base.clone().seed(7)));
        assert_ne!(k, CellKey::for_experiment(&base.clone().instructions(1)));
        assert_ne!(k, CellKey::for_experiment(&base.clone().warmup(1)));
        assert_ne!(
            k,
            CellKey::for_experiment(&base.clone().configure(|c| c.mem.write_queue_cap += 1))
        );
    }

    #[test]
    fn key_tracks_the_simulator_sources() {
        let e = try_experiment_for("lbm", WritePolicy::norm(), Scale::quick()).unwrap();
        assert_ne!(
            CellKey::with_source(&e, "0000000000000000"),
            CellKey::with_source(&e, "0000000000000001")
        );
        assert_eq!(SIM_SOURCE_HASH.len(), 16);
        assert_eq!(
            CellKey::for_experiment(&e),
            CellKey::with_source(&e, SIM_SOURCE_HASH)
        );
    }
}
