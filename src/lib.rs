//! # Mellow Writes
//!
//! A production-quality Rust reproduction of *“Mellow Writes: Extending
//! Lifetime in Resistive Memories through Selective Slow Write Backs”*
//! (ISCA 2016).
//!
//! Resistive memories (ReRAM, PCM) endure only a limited number of
//! writes, but a write driven slowly at lower power wears the cell far
//! less: slowing a write by *N*× multiplies endurance by roughly
//! *N²* (Eq. 2 of the paper). Mellow Writes exploits idle memory-bank
//! time to issue *slow* writes exactly when they will not hurt
//! performance:
//!
//! - **Bank-Aware Mellow Writes** — a write issues slow iff it is the
//!   only request queued for its bank.
//! - **Eager Mellow Writes** — the LLC profiles LRU-stack-position hit
//!   rates, eagerly and slowly writing back dirty lines that will not be
//!   reused, through a lowest-priority queue targeting idle banks.
//! - **Wear Quota** — a per-bank, per-period wear budget that forces
//!   slow writes when a workload would otherwise burn through the
//!   memory's lifetime (guaranteeing e.g. 8 years).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `mellow-core` | the policies (Table III), Figure 9 decision tree, Wear Quota, utility monitor |
//! | [`nvm`] | `mellow-nvm` | endurance model (Eq. 2), wear ledger, Start-Gap, energy model (Tables V/VI), lifetime projection |
//! | [`memctrl`] | `mellow-memctrl` | the cycle-level ReRAM memory controller |
//! | [`cache`] | `mellow-cache` | the three-level hierarchy with the LLC eager machinery |
//! | [`cpu`] | `mellow-cpu` | the trace-driven out-of-order core model |
//! | [`workloads`] | `mellow-workloads` | Table IV synthetic benchmark generators |
//! | [`sim`] | `mellow-sim` | the wired full system and experiment runner |
//! | [`engine`] | `mellow-engine` | simulation time, queues, statistics |
//! | [`mod@bench`] | `mellow-bench` | parallel cached sweeps ([`bench::Sweep`]) and the figure generators |
//!
//! # Quickstart
//!
//! ```no_run
//! use mellow_writes::core::WritePolicy;
//! use mellow_writes::sim::Experiment;
//!
//! // Evaluate the paper's headline configuration on the stream kernel.
//! let metrics = Experiment::try_new("stream", WritePolicy::be_mellow_sc().with_wear_quota())
//!     .expect("a Table IV workload name")
//!     .instructions(1_000_000)
//!     .run();
//! println!("{}", metrics.summary());
//! assert!(metrics.lifetime_years > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every table and figure of the paper.

pub use mellow_bench as bench;
pub use mellow_cache as cache;
pub use mellow_core as core;
pub use mellow_cpu as cpu;
pub use mellow_engine as engine;
pub use mellow_memctrl as memctrl;
pub use mellow_nvm as nvm;
pub use mellow_sim as sim;
pub use mellow_workloads as workloads;

/// The crate version, matching the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
