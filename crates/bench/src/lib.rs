//! Benchmark harness regenerating every table and figure of the Mellow
//! Writes evaluation.
//!
//! The entry point is the `figures` binary:
//!
//! ```text
//! cargo run -p mellow-bench --release --bin figures -- all
//! cargo run -p mellow-bench --release --bin figures -- fig11 --full --threads 8
//! cargo run -p mellow-bench --release --bin figures -- calibrate --no-cache
//! ```
//!
//! Each `figN`/`tabN` subcommand prints the same rows/series the paper
//! reports (see DESIGN.md §4 for the experiment index). `all` prints
//! every table, the extension studies included; its stdout at the
//! quick scale is the committed `results_quick.txt`. Simulation-based
//! figures run at the quick scale by default or at the publication
//! scale with `--full`; analytic artifacts (Fig. 1, Tables V/VI) are
//! exact at any scale.
//!
//! Simulations run through [`Sweep`]: a parallel, deterministic batch
//! runner backed by a JSON-lines [`ResultStore`], so repeated or
//! interrupted invocations only simulate cells they have not already
//! finished (`--no-cache` opts out; `--store PATH` relocates the
//! cache).

pub mod figures;
mod runner;
mod store;
mod sweep;

pub use runner::{try_experiment_for, Scale};
pub use store::{CellKey, ResultStore, StoreError};
pub use sweep::{Cell, CellResult, ConfigEdit, Sweep, SweepError, SweepSettings};
