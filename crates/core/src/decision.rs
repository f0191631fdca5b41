//! The per-bank write-issue decision tree of Figure 9.

use crate::{WritePolicy, WriteSpeed};

/// A snapshot of one bank's queued work, as seen by the controller when
/// it considers issuing a write to that bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankQueueView {
    /// Read-queue entries targeting this bank.
    pub reads_waiting: usize,
    /// Write-queue entries targeting this bank.
    pub writes_waiting: usize,
    /// Eager-mellow-queue entries targeting this bank.
    pub eager_waiting: usize,
    /// Whether this bank has exceeded its Wear Quota for the current
    /// period (always `false` when the policy has no `+WQ`).
    pub quota_exceeded: bool,
}

impl BankQueueView {
    /// Builds a view. The memory controller's hot path constructs one
    /// per bank per arbitration pass.
    pub const fn new(
        reads_waiting: usize,
        writes_waiting: usize,
        eager_waiting: usize,
        quota_exceeded: bool,
    ) -> Self {
        BankQueueView {
            reads_waiting,
            writes_waiting,
            eager_waiting,
            quota_exceeded,
        }
    }
}

/// The outcome of the Figure 9 decision tree for one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDecision {
    /// Issue the oldest demand write for this bank at the given speed.
    Demand(WriteSpeed),
    /// Issue the oldest eager write for this bank (speed per
    /// [`BasePolicy::eager_speed`](crate::BasePolicy::eager_speed),
    /// forced slow when over quota).
    Eager(WriteSpeed),
    /// Nothing to issue to this bank.
    Idle,
}

/// Decides what write (if any) to issue to a bank, per Figure 9.
///
/// The caller has already established that a write *may* be issued (reads
/// have priority outside of drains; that arbitration lives in the memory
/// controller). The tree is:
///
/// 1. A demand write is pending:
///    - single request for this bank (no other reads/writes) and the
///      policy is bank-aware → **slow** write;
///    - quota exceeded (`+WQ`) → **slow** write;
///    - otherwise → the policy's static speed (normal for `Norm`/`E-Norm`,
///      slow for `Slow`/`E-Slow`, normal for busy banks under Mellow).
/// 2. No demand write but an eager write is pending, and the bank has no
///    queued reads → **eager** write.
/// 3. Otherwise idle.
///
/// # Examples
///
/// ```
/// use mellow_core::{decide_write, BankQueueView, WriteDecision, WritePolicy, WriteSpeed};
///
/// // Over-quota banks write slow even when backlogged:
/// let p = WritePolicy::norm().with_wear_quota();
/// let v = BankQueueView { reads_waiting: 0, writes_waiting: 4, eager_waiting: 0, quota_exceeded: true };
/// assert_eq!(decide_write(&p, v), WriteDecision::Demand(WriteSpeed::Slow));
/// ```
pub fn decide_write(policy: &WritePolicy, view: BankQueueView) -> WriteDecision {
    if view.writes_waiting > 0 {
        let speed = demand_speed(policy, view);
        return WriteDecision::Demand(speed);
    }
    if view.eager_waiting > 0 && view.reads_waiting == 0 {
        let speed = if view.quota_exceeded {
            WriteSpeed::Slow
        } else {
            policy.base.eager_speed()
        };
        return WriteDecision::Eager(speed);
    }
    WriteDecision::Idle
}

/// The speed for a demand write under `policy` given `view`; factored out
/// so the controller can also query it when draining.
pub fn demand_speed(policy: &WritePolicy, view: BankQueueView) -> WriteSpeed {
    if view.quota_exceeded {
        return WriteSpeed::Slow;
    }
    if policy.base.bank_aware() {
        // Slow iff this is the bank's only queued operation: exactly one
        // write and no reads (§IV-A, Figs. 4 & 5).
        if view.writes_waiting == 1 && view.reads_waiting == 0 {
            WriteSpeed::Slow
        } else {
            WriteSpeed::Normal
        }
    } else {
        policy
            .base
            .static_speed()
            .expect("non-bank-aware base policies have a static speed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(reads: usize, writes: usize, eager: usize) -> BankQueueView {
        BankQueueView {
            reads_waiting: reads,
            writes_waiting: writes,
            eager_waiting: eager,
            quota_exceeded: false,
        }
    }

    #[test]
    fn bank_aware_slow_only_when_lone_request() {
        let p = WritePolicy::b_mellow_sc();
        assert_eq!(
            decide_write(&p, view(0, 1, 0)),
            WriteDecision::Demand(WriteSpeed::Slow)
        );
        // A second write for the bank forces normal speed (Fig. 5).
        assert_eq!(
            decide_write(&p, view(0, 2, 0)),
            WriteDecision::Demand(WriteSpeed::Normal)
        );
        // A queued read also disqualifies the slow write.
        assert_eq!(
            decide_write(&p, view(1, 1, 0)),
            WriteDecision::Demand(WriteSpeed::Normal)
        );
    }

    #[test]
    fn static_policies_ignore_queue_shape() {
        for writes in [1, 5] {
            assert_eq!(
                decide_write(&WritePolicy::norm(), view(0, writes, 0)),
                WriteDecision::Demand(WriteSpeed::Normal)
            );
            assert_eq!(
                decide_write(&WritePolicy::slow(), view(0, writes, 0)),
                WriteDecision::Demand(WriteSpeed::Slow)
            );
        }
    }

    #[test]
    fn quota_forces_slow_demand_writes() {
        for p in [
            WritePolicy::norm().with_wear_quota(),
            WritePolicy::b_mellow_sc().with_wear_quota(),
            WritePolicy::be_mellow_sc().with_wear_quota(),
        ] {
            let v = BankQueueView {
                quota_exceeded: true,
                ..view(0, 3, 0)
            };
            assert_eq!(decide_write(&p, v), WriteDecision::Demand(WriteSpeed::Slow));
        }
    }

    #[test]
    fn eager_issues_only_when_bank_fully_idle() {
        let p = WritePolicy::be_mellow_sc();
        assert_eq!(
            decide_write(&p, view(0, 0, 2)),
            WriteDecision::Eager(WriteSpeed::Slow)
        );
        // Demand write wins over eager.
        assert!(matches!(
            decide_write(&p, view(0, 1, 2)),
            WriteDecision::Demand(_)
        ));
        // A pending read blocks the eager issue.
        assert_eq!(decide_write(&p, view(1, 0, 2)), WriteDecision::Idle);
    }

    #[test]
    fn eager_speed_follows_base_policy() {
        assert_eq!(
            decide_write(&WritePolicy::e_norm_nc(), view(0, 0, 1)),
            WriteDecision::Eager(WriteSpeed::Normal)
        );
        assert_eq!(
            decide_write(&WritePolicy::e_slow_sc(), view(0, 0, 1)),
            WriteDecision::Eager(WriteSpeed::Slow)
        );
    }

    #[test]
    fn eager_forced_slow_over_quota() {
        let p = WritePolicy::e_norm_nc().with_wear_quota();
        let v = BankQueueView {
            quota_exceeded: true,
            ..view(0, 0, 1)
        };
        assert_eq!(decide_write(&p, v), WriteDecision::Eager(WriteSpeed::Slow));
    }

    #[test]
    fn idle_when_nothing_pending() {
        for p in WritePolicy::paper_set() {
            assert_eq!(decide_write(&p, view(0, 0, 0)), WriteDecision::Idle);
            assert_eq!(decide_write(&p, view(3, 0, 0)), WriteDecision::Idle);
        }
    }

    #[test]
    fn decision_is_total_over_small_state_space() {
        // Exhaustive sanity check: every (policy, queue shape) combination
        // yields a decision without panicking, and demand writes are never
        // produced with an empty write queue.
        for p in WritePolicy::paper_set() {
            for r in 0..4 {
                for w in 0..4 {
                    for e in 0..3 {
                        for q in [false, true] {
                            let v = BankQueueView {
                                reads_waiting: r,
                                writes_waiting: w,
                                eager_waiting: e,
                                quota_exceeded: q,
                            };
                            let d = decide_write(&p, v);
                            if w == 0 {
                                assert!(!matches!(d, WriteDecision::Demand(_)));
                            } else {
                                assert!(matches!(d, WriteDecision::Demand(_)));
                            }
                            if matches!(d, WriteDecision::Eager(_)) {
                                assert_eq!(w, 0);
                                assert_eq!(r, 0);
                                assert!(e > 0);
                            }
                        }
                    }
                }
            }
        }
    }
}
