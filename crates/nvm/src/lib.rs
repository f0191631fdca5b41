//! Resistive-memory (ReRAM) device models for the Mellow Writes
//! reproduction.
//!
//! The paper's central physical premise is a write-latency/endurance
//! trade-off: slowing a write by a factor *N* (by writing at lower
//! dissipated power) multiplies cell endurance by *N^Expo_Factor* with
//! `Expo_Factor` between 1 and 3 (Strukov's analytic model, Eq. 2 of the
//! paper). This crate implements that model and everything downstream of
//! it:
//!
//! - [`EnduranceModel`] — Eq. 2: endurance and per-write wear as a
//!   function of the write-latency factor (Fig. 1).
//! - [`WearLedger`] / [`BankWear`] — wear bookkeeping per bank, in units
//!   of normal-write-equivalents, including prorated wear for cancelled
//!   writes.
//! - [`WearLeveler`] — the unified leveling API: logical→physical
//!   remapping, wear-rotation feedback, and verify-failure remaps
//!   behind one trait, with Start-Gap, a WoLFRaM-style programmable
//!   remap table, and a SoftWear-style page leveler as
//!   implementations (see [`leveler`]).
//! - [`StartGap`] — the Start-Gap wear-leveling scheme (Qureshi et al.,
//!   MICRO'09) used by the paper at bank granularity; controllers reach
//!   it through [`StartGapLeveler`].
//! - [`energy`] — the ReRAM cell/peripheral energy model reproducing
//!   Tables V and VI.
//! - [`LifetimeModel`] — projects multi-year memory lifetime from the
//!   wear rate observed in a short simulation, exactly as the paper does
//!   ("assume the system will cyclically execute the same execution
//!   pattern"), plus a capacity-degradation projection (years until the
//!   usable-capacity fraction drops below a threshold).
//! - [`fault`] — per-block endurance variation, stuck-at and transient
//!   fault injection, and the spare-pool/lost-block accounting behind
//!   the controller's write-verify → retry → remap path.
//! - [`retention`] — the retention-drift clock: every write stamps a
//!   deterministic drift deadline (widened by slow pulses, narrowed by
//!   wear), and reads past it fail verify — the fault axis behind the
//!   controller's scrub engine and demand-read repair path.
//!
//! # Examples
//!
//! ```
//! use mellow_nvm::EnduranceModel;
//!
//! // Table II: a 3.0x slow write at Expo_Factor 2.0 endures 4.5e7 writes.
//! let model = EnduranceModel::reram_default();
//! assert_eq!(model.endurance_at_factor(3.0).round(), 4.5e7);
//! // ... equivalently, a slow write inflicts 1/9 the wear of a normal one.
//! assert!((model.wear_per_write(3.0) - 1.0 / 9.0).abs() < 1e-12);
//! ```

mod block_hash;
mod endurance;
pub mod energy;
pub mod fault;
pub mod leveler;
mod lifetime;
pub mod retention;
mod startgap;
mod wear;

pub use endurance::{EnduranceModel, ExpoFactor};
pub use fault::{FaultConfig, FaultState, WriteVerify};
pub use leveler::{
    LevelerConfig, LevelerStats, RemapOutcome, SoftWearLeveler, StartGapLeveler, WearLeveler,
    WolframLeveler,
};
pub use lifetime::{LifetimeModel, LifetimeProjection, SECONDS_PER_YEAR};
pub use retention::{ReadVerify, RetentionConfig, RetentionState};
pub use startgap::StartGap;
pub use wear::{BankWear, BlockWearTable, CancelWear, WearLedger};
