//! The ROB/issue-width-limited core model.

use crate::{TraceRecord, TraceSource};
use mellow_engine::CoreCycles;
use std::collections::VecDeque;

/// A unique identifier for an in-flight memory access issued by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// A memory access the core wants the hierarchy to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Identifier echoed back via [`Core::complete`].
    pub id: ReqId,
    /// Byte address.
    pub addr: u64,
    /// `true` for a store.
    pub is_store: bool,
}

/// Core configuration (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions dispatched and retired per cycle (paper: 8).
    pub issue_width: u32,
    /// Reorder-buffer capacity in instructions.
    pub rob_entries: u32,
    /// Memory operations issued to the L1 per cycle.
    pub mem_issue_width: u32,
}

impl Default for CoreConfig {
    /// The paper's 8-issue out-of-order core with a 192-entry window.
    fn default() -> Self {
        CoreConfig {
            issue_width: 8,
            rob_entries: 192,
            mem_issue_width: 2,
        }
    }
}

/// What a [`Core::tick`] would do in the core's current state — the
/// core's next-event hook for the system's event kernel.
///
/// The core is self-clocked (it has no scheduled future events), so its
/// contract is a state classification rather than a time: `Active`
/// means "I act every cycle, do not skip"; the `Blocked` variants mean
/// "until [`Core::complete`] is called, every tick is the same no-op,
/// batchable via [`Core::fast_forward`]".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStall {
    /// The core would retire, dispatch, or issue something this cycle
    /// (or its state is not provably stable); it must be ticked.
    Active,
    /// ROB full, head blocked on an outstanding load, no memory op
    /// issueable: a tick only counts a blocked cycle.
    Blocked,
    /// As [`Blocked`](Self::Blocked), except one issueable memory op
    /// re-attempts issue every cycle. The owner decides whether that
    /// attempt is a batchable no-op (the L1 input queue is full, so the
    /// attempt is rejected without touching core state) or real
    /// progress.
    BlockedWantsIssue,
}

/// Counters exposed by the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Core cycles elapsed.
    pub cycles: CoreCycles,
    /// Loads dispatched into the ROB.
    pub loads: u64,
    /// Stores dispatched into the ROB.
    pub stores: u64,
    /// Cycles in which the ROB head was an incomplete load (nothing
    /// retired).
    pub head_blocked_cycles: CoreCycles,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemState {
    Waiting,
    Issued,
    Done,
}

#[derive(Debug, Clone)]
enum Entry {
    /// A run of non-memory instructions.
    NonMem(u32),
    Mem {
        id: ReqId,
        addr: u64,
        is_store: bool,
        depends: bool,
        state: MemState,
    },
}

/// The trace-driven out-of-order core.
///
/// Drive it one cycle at a time with [`tick`](Self::tick), passing a
/// closure that attempts to hand a [`MemAccess`] to the memory hierarchy
/// (returning `false` to stall the core when the L1 cannot accept it).
/// Report load completions with [`complete`](Self::complete).
///
/// See the crate-level documentation for an end-to-end example.
pub struct Core {
    cfg: CoreConfig,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<Entry>,
    /// ROB occupancy in instructions.
    rob_insts: u32,
    /// Non-memory instructions of the current record not yet dispatched.
    pending_nonmem: u32,
    /// The current record's memory op, once its `nonmem` prefix is in.
    pending_op: Option<crate::MemOp>,
    /// ROB entries in `MemState::Waiting`. Maintained at the three
    /// state-transition sites so [`stall`](Self::stall) can classify a
    /// fully-issued ROB as `Blocked` in O(1) instead of scanning all
    /// `rob_entries` every event-kernel jump attempt.
    waiting_ops: u32,
    next_id: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cfg", &self.cfg)
            .field("rob_insts", &self.rob_insts)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core reading from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if any width in `cfg` is zero.
    pub fn new(cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        assert!(cfg.issue_width > 0, "issue width must be non-zero");
        assert!(cfg.rob_entries > 0, "ROB size must be non-zero");
        assert!(
            cfg.mem_issue_width > 0,
            "memory issue width must be non-zero"
        );
        Core {
            cfg,
            trace,
            rob: VecDeque::new(),
            rob_insts: 0,
            pending_nonmem: 0,
            pending_op: None,
            waiting_ops: 0,
            next_id: 0,
            stats: CoreStats::default(),
        }
    }

    /// Advances the core by one cycle: retires from the ROB head,
    /// dispatches new instructions, and issues ready memory operations
    /// through `issue`.
    ///
    /// `issue` returns `true` when the hierarchy accepted the access;
    /// on `false` the core stops issuing for this cycle and retries next
    /// cycle.
    pub fn tick<F: FnMut(MemAccess) -> bool>(&mut self, issue: F) {
        self.retire();
        self.dispatch();
        self.issue_ready(issue);
        self.stats.cycles += CoreCycles::ONE;
    }

    fn retire(&mut self) {
        let mut budget = self.cfg.issue_width;
        let mut retired_any = false;
        let mut head_blocked = false;
        while budget > 0 {
            match self.rob.front_mut() {
                None => break,
                Some(Entry::NonMem(n)) => {
                    let take = (*n).min(budget);
                    *n -= take;
                    budget -= take;
                    self.rob_insts -= take;
                    self.stats.retired_instructions += take as u64;
                    retired_any |= take > 0;
                    if *n == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(Entry::Mem {
                    is_store, state, ..
                }) => {
                    let can_retire = match (*is_store, *state) {
                        // Loads must have their data.
                        (false, MemState::Done) => true,
                        (false, _) => false,
                        // Stores retire once the L1 accepted them.
                        (true, MemState::Issued) | (true, MemState::Done) => true,
                        (true, MemState::Waiting) => false,
                    };
                    if can_retire {
                        self.rob.pop_front();
                        self.rob_insts -= 1;
                        self.stats.retired_instructions += 1;
                        budget -= 1;
                        retired_any = true;
                    } else {
                        head_blocked = !*is_store;
                        break;
                    }
                }
            }
        }
        if !retired_any && head_blocked {
            self.stats.head_blocked_cycles += CoreCycles::ONE;
        }
    }

    fn dispatch(&mut self) {
        let mut budget = self.cfg.issue_width;
        while budget > 0 && self.rob_insts < self.cfg.rob_entries {
            if self.pending_nonmem == 0 && self.pending_op.is_none() {
                let TraceRecord { nonmem, op } = self.trace.next_record();
                self.pending_nonmem = nonmem;
                self.pending_op = op;
                if nonmem == 0 && op.is_none() {
                    // An empty record would spin the dispatcher forever.
                    continue;
                }
            }
            if self.pending_nonmem > 0 {
                let room = self.cfg.rob_entries - self.rob_insts;
                let take = self.pending_nonmem.min(budget).min(room);
                self.pending_nonmem -= take;
                self.rob_insts += take;
                budget -= take;
                match self.rob.back_mut() {
                    Some(Entry::NonMem(n)) => *n += take,
                    _ => self.rob.push_back(Entry::NonMem(take)),
                }
                if self.pending_nonmem > 0 {
                    break; // budget or ROB exhausted mid-run
                }
            }
            if budget > 0 && self.rob_insts < self.cfg.rob_entries {
                if let Some(op) = self.pending_op.take() {
                    let id = ReqId(self.next_id);
                    self.next_id += 1;
                    if op.is_store {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                    }
                    self.rob.push_back(Entry::Mem {
                        id,
                        addr: op.addr,
                        is_store: op.is_store,
                        depends: op.depends_on_prev,
                        state: MemState::Waiting,
                    });
                    self.waiting_ops += 1;
                    self.rob_insts += 1;
                    budget -= 1;
                }
            }
        }
    }

    fn issue_ready<F: FnMut(MemAccess) -> bool>(&mut self, mut issue: F) {
        let mut issued = 0;
        let mut earlier_incomplete = false;
        for entry in self.rob.iter_mut() {
            if issued >= self.cfg.mem_issue_width {
                break;
            }
            if let Entry::Mem {
                id,
                addr,
                is_store,
                depends,
                state,
            } = entry
            {
                if *state == MemState::Waiting && !(*depends && earlier_incomplete) {
                    let accepted = issue(MemAccess {
                        id: *id,
                        addr: *addr,
                        is_store: *is_store,
                    });
                    if accepted {
                        *state = MemState::Issued;
                        self.waiting_ops -= 1;
                        issued += 1;
                    } else {
                        // The hierarchy is full; no point trying younger ops.
                        break;
                    }
                }
                earlier_incomplete |= *state != MemState::Done;
            }
        }
    }

    /// Classifies the core's current state for the event kernel
    /// (see [`CoreStall`]).
    ///
    /// The classification is conservative: anything not provably a
    /// stable no-op reports `Active`.
    pub fn stall(&self) -> CoreStall {
        if self.rob_insts < self.cfg.rob_entries {
            return CoreStall::Active; // dispatch would make progress
        }
        match self.rob.front() {
            // Retirement is blocked on an outstanding load (the only
            // head state `retire` counts as blocked and that only an
            // external `complete` can clear).
            Some(Entry::Mem {
                is_store: false,
                state,
                ..
            }) if *state != MemState::Done => {}
            _ => return CoreStall::Active,
        }
        // A ROB with no Waiting op cannot want issue — the common fully
        // issued case resolves in O(1), no scan.
        if self.waiting_ops == 0 {
            return CoreStall::Blocked;
        }
        // Mirror `issue_ready`: find the first Waiting op that would
        // attempt issue this cycle.
        let mut earlier_incomplete = false;
        for entry in &self.rob {
            if let Entry::Mem { depends, state, .. } = entry {
                if *state == MemState::Waiting && !(*depends && earlier_incomplete) {
                    return CoreStall::BlockedWantsIssue;
                }
                earlier_incomplete |= *state != MemState::Done;
            }
        }
        CoreStall::Blocked
    }

    /// Batch-applies `cycles` ticks spent in a [`CoreStall::Blocked`]
    /// or [`CoreStall::BlockedWantsIssue`] state: each such tick
    /// advances the cycle counter and counts one head-blocked cycle,
    /// and changes nothing else.
    pub fn fast_forward(&mut self, cycles: CoreCycles) {
        debug_assert_ne!(
            self.stall(),
            CoreStall::Active,
            "fast_forward of an active core"
        );
        self.stats.cycles += cycles;
        self.stats.head_blocked_cycles += cycles;
    }

    /// Marks the access `id` complete (a load's data arrived, or a
    /// store's line was filled). Unknown identifiers — e.g. stores
    /// already retired — are ignored.
    pub fn complete(&mut self, id: ReqId) {
        for entry in self.rob.iter_mut() {
            if let Entry::Mem { id: eid, state, .. } = entry {
                if *eid == id {
                    if *state == MemState::Waiting {
                        self.waiting_ops -= 1;
                    }
                    *state = MemState::Done;
                    return;
                }
            }
        }
    }

    /// Returns the core's counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zeroes the counters (end-of-warmup measurement boundary). The
    /// microarchitectural state (ROB contents, trace position) is
    /// preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Returns instructions retired so far.
    pub fn retired_instructions(&self) -> u64 {
        self.stats.retired_instructions
    }

    /// Returns cycles elapsed so far.
    pub fn cycles(&self) -> CoreCycles {
        self.stats.cycles
    }

    /// Returns instructions per cycle so far (0.0 before the first
    /// cycle).
    pub fn ipc(&self) -> f64 {
        if self.stats.cycles.is_zero() {
            0.0
        } else {
            self.stats.retired_instructions as f64 / self.stats.cycles.as_f64()
        }
    }

    /// Returns the current ROB occupancy in instructions.
    pub fn rob_occupancy(&self) -> u32 {
        self.rob_insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemOp, TraceRecord};

    /// Emits the given records cyclically.
    struct Cycle {
        records: Vec<TraceRecord>,
        idx: usize,
    }

    impl Cycle {
        fn new(records: Vec<TraceRecord>) -> Self {
            Cycle { records, idx: 0 }
        }
    }

    impl TraceSource for Cycle {
        fn next_record(&mut self) -> TraceRecord {
            let r = self.records[self.idx % self.records.len()];
            self.idx += 1;
            r
        }
    }

    fn nonmem_only() -> Box<dyn TraceSource> {
        Box::new(Cycle::new(vec![TraceRecord {
            nonmem: 100,
            op: None,
        }]))
    }

    #[test]
    fn pure_compute_hits_full_issue_width() {
        let mut core = Core::new(CoreConfig::default(), nonmem_only());
        for _ in 0..1000 {
            core.tick(|_| unreachable!("no memory ops in trace"));
        }
        // After warm-up the core retires 8 instructions per cycle.
        assert!((core.ipc() - 8.0).abs() < 0.1, "ipc = {}", core.ipc());
    }

    #[test]
    fn incomplete_load_blocks_retirement() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Accept every access but never complete any.
        for _ in 0..200 {
            core.tick(|_| true);
        }
        assert_eq!(core.retired_instructions(), 0);
        // ROB is full of waiting loads.
        assert_eq!(core.rob_occupancy(), 192);
        assert!(core.stats().head_blocked_cycles > CoreCycles::new(150));
    }

    #[test]
    fn completing_loads_unblocks_retirement() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 3,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut pending = Vec::new();
        for _ in 0..500 {
            core.tick(|a| {
                pending.push(a.id);
                true
            });
            for id in pending.drain(..) {
                core.complete(id);
            }
        }
        // With instant memory the core sustains nearly full width.
        assert!(core.ipc() > 7.0, "ipc = {}", core.ipc());
    }

    #[test]
    fn stores_retire_once_issued() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::store(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Accept stores, never complete them: they must still retire.
        for _ in 0..100 {
            core.tick(|_| true);
        }
        assert!(core.retired_instructions() > 0);
    }

    #[test]
    fn rejected_issues_stall_and_retry() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::store(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        // Reject everything: nothing retires, nothing leaks.
        for _ in 0..50 {
            core.tick(|_| false);
        }
        assert_eq!(core.retired_instructions(), 0);
        // Now accept: forward progress resumes.
        let mut accepted = 0u32;
        for _ in 0..50 {
            core.tick(|_| {
                accepted += 1;
                true
            });
        }
        assert!(accepted > 0);
        assert!(core.retired_instructions() > 0);
    }

    #[test]
    fn dependent_loads_serialize() {
        // Chain of dependent loads: at most one may be in flight.
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64).dependent()),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut in_flight: Vec<ReqId> = Vec::new();
        let mut max_in_flight = 0usize;
        for cycle in 0..400 {
            let fl = &mut in_flight;
            core.tick(|a| {
                fl.push(a.id);
                true
            });
            max_in_flight = max_in_flight.max(in_flight.len());
            // Complete each load 10 cycles after issue, FIFO.
            if cycle % 10 == 0 {
                if let Some(id) = in_flight.first().copied() {
                    in_flight.remove(0);
                    core.complete(id);
                }
            }
        }
        assert_eq!(max_in_flight, 1, "dependent chain must not overlap");
    }

    #[test]
    fn independent_loads_overlap_up_to_rob() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut in_flight = 0usize;
        let mut max_in_flight = 0usize;
        for _ in 0..300 {
            let count = &mut in_flight;
            core.tick(|_| {
                *count += 1;
                true
            });
            max_in_flight = max_in_flight.max(in_flight);
        }
        // Never completing: the whole ROB fills with in-flight loads.
        assert_eq!(max_in_flight, 192);
    }

    #[test]
    fn mem_issue_width_bounds_per_cycle_issues() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let cfg = CoreConfig {
            mem_issue_width: 2,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, Box::new(trace));
        for _ in 0..20 {
            let mut this_cycle = 0;
            core.tick(|_| {
                this_cycle += 1;
                true
            });
            assert!(this_cycle <= 2);
        }
    }

    #[test]
    fn ipc_zero_before_first_cycle() {
        let core = Core::new(CoreConfig::default(), nonmem_only());
        assert_eq!(core.ipc(), 0.0);
    }

    #[test]
    fn empty_records_do_not_hang_dispatch() {
        let trace = Cycle::new(vec![
            TraceRecord {
                nonmem: 0,
                op: None,
            },
            TraceRecord {
                nonmem: 4,
                op: None,
            },
        ]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        for _ in 0..100 {
            core.tick(|_| true);
        }
        assert!(core.retired_instructions() > 300);
    }

    #[test]
    fn stall_classification_tracks_rob_state() {
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        assert_eq!(core.stall(), CoreStall::Active, "empty ROB dispatches");

        // Accept every access: the ROB fills with Issued loads that
        // never complete — fully blocked.
        for _ in 0..200 {
            core.tick(|_| true);
        }
        assert_eq!(core.rob_occupancy(), 192);
        assert_eq!(core.stall(), CoreStall::Blocked);

        // Reject every access: the ROB fills with Waiting loads that
        // re-attempt issue each cycle.
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64)),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        for _ in 0..200 {
            core.tick(|_| false);
        }
        assert_eq!(core.rob_occupancy(), 192);
        assert_eq!(core.stall(), CoreStall::BlockedWantsIssue);
    }

    #[test]
    fn dependent_waiting_ops_do_not_want_issue() {
        // Head load issued, everything behind it dependent: the core is
        // fully blocked even though Waiting entries exist.
        let trace = Cycle::new(vec![TraceRecord {
            nonmem: 0,
            op: Some(MemOp::load(64).dependent()),
        }]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        for _ in 0..200 {
            core.tick(|_| true); // only the head chain issues
        }
        assert_eq!(core.rob_occupancy(), 192);
        assert_eq!(core.stall(), CoreStall::Blocked);
    }

    #[test]
    fn fast_forward_matches_blocked_ticks() {
        let mk = || {
            let trace = Cycle::new(vec![TraceRecord {
                nonmem: 0,
                op: Some(MemOp::load(64)),
            }]);
            let mut core = Core::new(CoreConfig::default(), Box::new(trace));
            for _ in 0..200 {
                core.tick(|_| true);
            }
            core
        };
        let mut ticked = mk();
        let mut jumped = mk();
        assert_eq!(ticked.stall(), CoreStall::Blocked);
        for _ in 0..137 {
            ticked.tick(|_| unreachable!("blocked core issues nothing"));
        }
        jumped.fast_forward(CoreCycles::new(137));
        assert_eq!(ticked.stats(), jumped.stats());
        assert_eq!(ticked.stall(), jumped.stall());
    }

    /// The waiting-op counter that short-circuits `stall()` must agree
    /// with a direct ROB scan across dispatch, issue, completion, and
    /// retirement.
    #[test]
    fn waiting_counter_matches_rob_scan() {
        let trace = Cycle::new(vec![
            TraceRecord {
                nonmem: 2,
                op: Some(MemOp::load(64)),
            },
            TraceRecord {
                nonmem: 0,
                op: Some(MemOp::store(128).dependent()),
            },
            TraceRecord {
                nonmem: 1,
                op: Some(MemOp::load(192).dependent()),
            },
        ]);
        let mut core = Core::new(CoreConfig::default(), Box::new(trace));
        let mut in_flight: Vec<ReqId> = Vec::new();
        for cycle in 0..500u64 {
            let fl = &mut in_flight;
            // Alternate acceptance so Waiting ops linger in the ROB.
            core.tick(|a| {
                if cycle % 3 != 0 {
                    fl.push(a.id);
                    true
                } else {
                    false
                }
            });
            if cycle % 7 == 0 {
                for id in in_flight.drain(..) {
                    core.complete(id);
                }
            }
            let scanned = core
                .rob
                .iter()
                .filter(|e| matches!(e, Entry::Mem { state, .. } if *state == MemState::Waiting))
                .count() as u32;
            assert_eq!(core.waiting_ops, scanned, "cycle {cycle}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_issue_width_rejected() {
        let cfg = CoreConfig {
            issue_width: 0,
            ..CoreConfig::default()
        };
        let _ = Core::new(cfg, nonmem_only());
    }
}
