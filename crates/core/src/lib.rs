//! The Mellow Writes mechanisms (the paper's contribution, §IV).
//!
//! Everything in this crate is *policy*: pure decision logic with no
//! simulator state, consumed by the memory controller
//! (`mellow-memctrl`) and the LLC (`mellow-cache`):
//!
//! - [`WritePolicy`] — the write-policy configuration space of Table III
//!   (`Norm`, `Slow`, `B-Mellow`, `BE-Mellow`, `E-Norm`, `E-Slow`, with
//!   `+NC`/`+SC` cancellation and `+WQ` Wear Quota modifiers).
//! - [`decide_write`] — the Figure 9 decision tree choosing, per bank,
//!   between a normal write, a slow write, or an eager slow write.
//! - [`WearQuota`] — the per-bank, per-period wear budget guaranteeing a
//!   minimum lifetime (§IV-C).
//! - [`UtilityMonitor`] — the LLC-side LRU-stack-position profiler that
//!   identifies *useless* dirty lines for Eager Mellow Writes (§IV-B1).
//!
//! # Examples
//!
//! ```
//! use mellow_core::{decide_write, BankQueueView, WriteDecision, WritePolicy, WriteSpeed};
//!
//! let policy = WritePolicy::be_mellow_sc();
//! // A lone write queued for an otherwise-idle bank issues slow:
//! let view = BankQueueView { reads_waiting: 0, writes_waiting: 1, eager_waiting: 0, quota_exceeded: false };
//! assert_eq!(decide_write(&policy, view), WriteDecision::Demand(WriteSpeed::Slow));
//! // Multiple writes pending: stay fast to avoid a write drain.
//! let busy = BankQueueView { writes_waiting: 3, ..view };
//! assert_eq!(decide_write(&policy, busy), WriteDecision::Demand(WriteSpeed::Normal));
//! ```

mod decision;
mod monitor;
mod policy;
mod quota;

pub use decision::{decide_write, BankQueueView, WriteDecision};
pub use monitor::UtilityMonitor;
pub use policy::{BasePolicy, WritePolicy, WriteSpeed, DEFAULT_SLOW_FACTOR};
pub use quota::{WearQuota, WearQuotaConfig};
