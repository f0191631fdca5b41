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
/// A full ROB behind an outstanding miss costs one walk per event, not
/// one per cycle: while the core's *issue license* is clear, no op wants
/// issue, so the issue walk and [`stall`](Self::stall)'s scan are skipped.
/// When they do run, they start at the oldest `Waiting` op, not at the
/// ROB head: two cursors that only move forward keep the oldest waiting
/// op and the oldest incomplete op.
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
    /// The issue license: set by each event that can make a `Waiting` op
    /// issueable (a memory op dispatched, `complete`, `retire` popping an
    /// op that is not `Done`), cleared only by an issue walk that reaches
    /// the ROB's end.
    issue_license: bool,
    /// Entries popped from the ROB's front, so the absolute position of
    /// `rob[0]`. The cursors below are absolute positions; one behind
    /// this count stands for the head.
    popped: u64,
    /// No `Waiting` op sits before this position. An op never returns to
    /// `Waiting` and new ops join at the tail, so it only moves forward.
    waiting_at: u64,
    /// No op that is not `Done` sits before this position (and it never
    /// passes `waiting_at`); it only moves forward, like `waiting_at`.
    incomplete_at: u64,
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
            issue_license: false,
            popped: 0,
            waiting_at: 0,
            incomplete_at: 0,
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

    #[inline]
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
                        self.popped += 1;
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
                        // An issued store leaving unblocks its dependents.
                        self.issue_license |= *state != MemState::Done;
                        self.rob.pop_front();
                        self.popped += 1;
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

    #[inline]
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
                    self.issue_license = true;
                    self.rob_insts += 1;
                    budget -= 1;
                }
            }
        }
    }

    /// Issues waiting memory ops in ROB order, up to `mem_issue_width`
    /// and until the hierarchy rejects one. A walk that reaches the ROB's
    /// end clears the issue license; while it is clear, this returns at once.
    ///
    /// The walk starts at the waiting cursor, since no op before it
    /// waits, and leaves the cursor on the first op it left waiting, or
    /// where it stopped.
    fn issue_ready<F: FnMut(MemAccess) -> bool>(&mut self, mut issue: F) {
        if !self.issue_license {
            debug_assert!(!self.wants_issue(), "missed an issue-license event");
            return;
        }
        let (start, incomplete) = self.walk_start();
        self.incomplete_at = self.popped + incomplete as u64;
        let mut earlier_incomplete = incomplete < start;
        let mut issued = 0;
        let mut left_waiting = None;
        let mut stopped = None;
        for (i, entry) in (start..).zip(self.rob.range_mut(start..)) {
            if issued >= self.cfg.mem_issue_width {
                stopped = Some(i);
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
                if *state == MemState::Waiting {
                    if *depends && earlier_incomplete {
                        left_waiting.get_or_insert(i);
                    } else if issue(MemAccess {
                        id: *id,
                        addr: *addr,
                        is_store: *is_store,
                    }) {
                        *state = MemState::Issued;
                        issued += 1;
                    } else {
                        // The hierarchy is full; no point trying younger ops.
                        stopped = Some(i);
                        break;
                    }
                }
                earlier_incomplete |= *state != MemState::Done;
            }
        }
        let end = stopped.unwrap_or(self.rob.len());
        self.waiting_at = self.popped + left_waiting.unwrap_or(end) as u64;
        self.issue_license = stopped.is_some();
    }

    /// Where the issue walk starts: the waiting cursor's ROB index, and
    /// the index of the oldest incomplete op before it (the start itself
    /// when there is none), found by advancing from the incomplete cursor.
    #[inline]
    fn walk_start(&self) -> (usize, usize) {
        debug_assert!(self.cursors_hold(), "an op sits before its cursor");
        let start = self.index(self.waiting_at);
        let mut incomplete = self.index(self.incomplete_at);
        while incomplete < start
            && !matches!(self.rob[incomplete], Entry::Mem { state, .. } if state != MemState::Done)
        {
            incomplete += 1;
        }
        (start, incomplete)
    }

    /// The ROB index of absolute position `pos`; the head's for a
    /// position already popped.
    #[inline]
    fn index(&self, pos: u64) -> usize {
        pos.saturating_sub(self.popped) as usize
    }

    /// Whether both cursors hold: no `Waiting` op sits before the waiting
    /// cursor, and no op that is not `Done` before the incomplete cursor.
    fn cursors_hold(&self) -> bool {
        let state = |e: &Entry| match e {
            Entry::Mem { state, .. } => Some(*state),
            Entry::NonMem(_) => None,
        };
        let before = |pos| self.rob.range(..self.index(pos)).map(state);
        before(self.waiting_at).all(|s| s != Some(MemState::Waiting))
            && before(self.incomplete_at).all(|s| matches!(s, None | Some(MemState::Done)))
    }

    /// Classifies the core's current state for the event kernel
    /// (see [`CoreStall`]).
    ///
    /// The classification is conservative: anything not provably a
    /// stable no-op reports `Active`. A blocked core is `Blocked` in O(1)
    /// while the issue license is clear; otherwise the ROB is scanned
    /// from the waiting cursor, where the issue walk would start.
    #[inline]
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
        if !self.issue_license {
            debug_assert!(!self.wants_issue(), "missed an issue-license event");
            return CoreStall::Blocked;
        }
        let (start, incomplete) = self.walk_start();
        if self.wants_issue_from(start, incomplete < start) {
            CoreStall::BlockedWantsIssue
        } else {
            CoreStall::Blocked
        }
    }

    /// Whether some `Waiting` op would attempt issue this cycle: the
    /// walk `issue_ready` makes, from the ROB head and without issuing.
    /// It reads neither cursor, so the checks compare the cursors with it.
    fn wants_issue(&self) -> bool {
        self.wants_issue_from(0, false)
    }

    /// [`wants_issue`](Self::wants_issue) from ROB index `start`, with
    /// `earlier_incomplete` telling whether an op before it is not `Done`.
    fn wants_issue_from(&self, start: usize, mut earlier_incomplete: bool) -> bool {
        for entry in self.rob.range(start..) {
            if let Entry::Mem { depends, state, .. } = entry {
                if *state == MemState::Waiting && !(*depends && earlier_incomplete) {
                    return true;
                }
                earlier_incomplete |= *state != MemState::Done;
            }
        }
        false
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
    ///
    /// The search starts at the youngest entry: most completions are L1
    /// hits, which arrive a few cycles after they issue, so their op sits
    /// near the tail while older misses hold the head. Ids are unique, so
    /// the direction changes only the cost.
    pub fn complete(&mut self, id: ReqId) {
        for entry in self.rob.iter_mut().rev() {
            if let Entry::Mem { id: eid, state, .. } = entry {
                if *eid == id {
                    *state = MemState::Done;
                    self.issue_license = true;
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
    #[inline]
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

    /// Ticks `core` once, accepting every access; returns the ids issued.
    fn tick_accepting(core: &mut Core) -> Vec<ReqId> {
        let mut issued = Vec::new();
        core.tick(|a| {
            issued.push(a.id);
            true
        });
        issued
    }

    /// The records of a scripted case: `ops` in order, each with its
    /// `nonmem` prefix, then a non-memory run long enough that no further
    /// memory op is dispatched.
    fn scripted(ops: &[(u32, MemOp)]) -> Box<dyn TraceSource> {
        let mut records: Vec<TraceRecord> = ops
            .iter()
            .map(|&(nonmem, op)| TraceRecord {
                nonmem,
                op: Some(op),
            })
            .collect();
        records.push(TraceRecord {
            nonmem: u32::MAX,
            op: None,
        });
        Box::new(Cycle::new(records))
    }

    /// License event `retire`: a store leaves the ROB once issued, which
    /// unblocks the dependent load behind it in the same tick although
    /// nothing else is dispatched or completed. The incomplete cursor,
    /// left on the store, moves past it.
    #[test]
    fn retiring_an_issued_store_unblocks_its_dependent_load() {
        let trace = scripted(&[(0, MemOp::store(64)), (0, MemOp::load(128).dependent())]);
        let mut core = Core::new(CoreConfig::default(), trace);
        // The store issues; the load behind it waits on it.
        assert_eq!(tick_accepting(&mut core), [ReqId(0)]);
        assert_eq!((core.incomplete_at, core.waiting_at), (0, 1));
        let dispatched = (core.stats().loads, core.stats().stores);
        assert_eq!(tick_accepting(&mut core), [ReqId(1)]);
        assert_eq!((core.stats().loads, core.stats().stores), dispatched);
        assert_eq!(core.retired_instructions(), 1, "only the store retired");
        assert_eq!((core.popped, core.incomplete_at), (1, 1));
    }

    /// License event `complete`: completing a load that is not at the
    /// ROB head unblocks the dependent load behind it. Until then that
    /// load sits at the waiting cursor, and the incomplete cursor stops
    /// at the load it depends on although that load is not the head.
    #[test]
    fn completing_a_non_head_load_unblocks_its_dependent_load() {
        // An outstanding head load holds back 64 non-memory instructions,
        // an independent load and a load that depends on it.
        let trace = scripted(&[
            (0, MemOp::load(64)),
            (64, MemOp::load(128)),
            (0, MemOp::load(192).dependent()),
        ]);
        let mut core = Core::new(CoreConfig::default(), trace);
        let mut issued = Vec::new();
        while core.rob_occupancy() < 192 {
            issued.extend(tick_accepting(&mut core));
        }
        assert_eq!(issued, [ReqId(0), ReqId(1)]);
        // The head completes and retires; the 64-instruction run takes
        // over the head for several cycles.
        core.complete(ReqId(0));
        assert_eq!(tick_accepting(&mut core), []);
        assert!(matches!(core.rob.front(), Some(Entry::NonMem(_))));
        // Positions: the head load, the run, the independent load, the
        // dependent one.
        assert_eq!((core.incomplete_at, core.waiting_at), (2, 3));
        core.complete(ReqId(1));
        assert_eq!(tick_accepting(&mut core), [ReqId(2)]);
        assert!(matches!(core.rob.front(), Some(Entry::NonMem(_))));
    }

    /// License event `dispatch`: an independent load issues in the cycle
    /// it is dispatched, behind a dependent chain that stays blocked.
    #[test]
    fn dispatched_independent_load_issues_behind_a_blocked_chain() {
        let trace = scripted(&[
            (0, MemOp::load(64)),
            (0, MemOp::load(128).dependent()),
            (0, MemOp::load(192).dependent()),
            (30, MemOp::load(256)),
        ]);
        let mut core = Core::new(CoreConfig::default(), trace);
        assert_eq!(tick_accepting(&mut core), [ReqId(0)]);
        // Three cycles of non-memory dispatch issue nothing.
        for _ in 0..3 {
            assert_eq!(tick_accepting(&mut core), []);
        }
        assert_eq!(tick_accepting(&mut core), [ReqId(3)]);
        assert_eq!(core.stats().loads, 4);
    }

    /// A rejected access leaves the waiting cursor on its op, so the next
    /// walk offers that op again.
    #[test]
    fn a_reject_leaves_the_waiting_cursor_on_the_rejected_op() {
        let trace = scripted(&[
            (0, MemOp::load(64)),
            (0, MemOp::load(128)),
            (0, MemOp::load(192)),
        ]);
        let cfg = CoreConfig {
            mem_issue_width: 3,
            ..CoreConfig::default()
        };
        let mut core = Core::new(cfg, trace);
        let mut offered = Vec::new();
        core.tick(|a| {
            offered.push(a.id);
            a.id == ReqId(0)
        });
        assert_eq!(offered, [ReqId(0), ReqId(1)]);
        assert_eq!(core.waiting_at, 1);
        assert_eq!(tick_accepting(&mut core), [ReqId(1), ReqId(2)]);
    }

    /// A walk stopped at `mem_issue_width` leaves the waiting cursor on
    /// the first op it did not reach.
    #[test]
    fn a_walk_stopped_at_the_issue_width_leaves_the_cursor_on_the_next_op() {
        let trace = scripted(&[
            (0, MemOp::load(64)),
            (0, MemOp::load(128)),
            (0, MemOp::load(192)),
        ]);
        let mut core = Core::new(CoreConfig::default(), trace);
        assert_eq!(tick_accepting(&mut core), [ReqId(0), ReqId(1)]);
        assert_eq!(core.waiting_at, 2);
        assert_eq!(tick_accepting(&mut core), [ReqId(2)]);
    }

    /// The core shapes of the random checks, each with its seed: issue
    /// width, ROB entries and memory issue width.
    const SHAPES: [CoreConfig; 3] = [
        CoreConfig {
            issue_width: 8,
            rob_entries: 192,
            mem_issue_width: 2,
        },
        CoreConfig {
            issue_width: 4,
            rob_entries: 32,
            mem_issue_width: 1,
        },
        CoreConfig {
            issue_width: 2,
            rob_entries: 8,
            mem_issue_width: 3,
        },
    ];

    /// 64 random records: dependent and independent loads and stores
    /// behind random non-memory runs.
    fn random_records(rng: &mut proptest::TestRng) -> Vec<TraceRecord> {
        (0..64)
            .map(|_| {
                let addr = 64 * rng.below(1 << 12);
                let op = match rng.below(5) {
                    0 => None,
                    1 | 2 => Some(MemOp::load(addr)),
                    _ => Some(MemOp::store(addr)),
                };
                let depends = rng.below(2) == 0;
                TraceRecord {
                    nonmem: rng.below(24) as u32,
                    op: op.map(|o| if depends { o.dependent() } else { o }),
                }
            })
            .collect()
    }

    /// The issue license against the reference scan, on random records,
    /// random rejects and completions in random order, on three core
    /// shapes. After every tick and after every batch of completions, a
    /// clear license means no op would attempt issue, no op sits before
    /// its cursor, the scan from the cursors answers as the scan from the
    /// head, and `stall()` equals the scan's classification.
    #[test]
    fn issue_license_matches_rob_scan() {
        for (seed, cfg) in SHAPES.into_iter().enumerate() {
            let mut rng = proptest::TestRng::seed_from(seed as u64);
            let records = random_records(&mut rng);
            let rob_entries = cfg.rob_entries;
            let mut core = Core::new(cfg, Box::new(Cycle::new(records)));
            let check = |core: &Core, cycle: u32| {
                assert!(
                    core.cursors_hold(),
                    "seed {seed}, cycle {cycle}: an op sits before its cursor"
                );
                let wants = core.wants_issue();
                let (start, incomplete) = core.walk_start();
                assert_eq!(
                    core.wants_issue_from(start, incomplete < start),
                    wants,
                    "seed {seed}, cycle {cycle}: the cursors' scan differs from the head's"
                );
                assert!(
                    core.issue_license || !wants,
                    "seed {seed}, cycle {cycle}: license clear, yet an op wants issue"
                );
                let head_waits = matches!(
                    core.rob.front(),
                    Some(Entry::Mem { is_store: false, state, .. }) if *state != MemState::Done
                );
                let scanned = match (core.rob_insts == rob_entries && head_waits, wants) {
                    (false, _) => CoreStall::Active,
                    (true, false) => CoreStall::Blocked,
                    (true, true) => CoreStall::BlockedWantsIssue,
                };
                assert_eq!(core.stall(), scanned, "seed {seed}, cycle {cycle}");
            };
            let mut in_flight: Vec<ReqId> = Vec::new();
            for cycle in 0..20_000 {
                core.tick(|a| {
                    let accepted = rng.below(4) != 0;
                    if accepted {
                        in_flight.push(a.id);
                    }
                    accepted
                });
                check(&core, cycle);
                for _ in 0..rng.below(3) {
                    if !in_flight.is_empty() {
                        let i = rng.below(in_flight.len() as u64) as usize;
                        core.complete(in_flight.swap_remove(i));
                    }
                }
                check(&core, cycle);
            }
        }
    }

    /// A reference core that walks its ROB from the head on every issue
    /// and every `stall()`, with no license and no cursors. Retire and
    /// dispatch follow `Core`'s rules.
    struct HeadWalker {
        cfg: CoreConfig,
        trace: Cycle,
        rob: VecDeque<Entry>,
        rob_insts: u32,
        pending_nonmem: u32,
        pending_op: Option<MemOp>,
        next_id: u64,
    }

    impl HeadWalker {
        fn new(cfg: CoreConfig, records: Vec<TraceRecord>) -> Self {
            HeadWalker {
                cfg,
                trace: Cycle::new(records),
                rob: VecDeque::new(),
                rob_insts: 0,
                pending_nonmem: 0,
                pending_op: None,
                next_id: 0,
            }
        }

        fn tick(&mut self, issue: impl FnMut(MemAccess) -> bool) {
            // Retire: runs, done loads and issued stores, in order.
            let mut budget = self.cfg.issue_width;
            while budget > 0 {
                match self.rob.front_mut() {
                    Some(Entry::NonMem(n)) => {
                        let take = (*n).min(budget);
                        *n -= take;
                        budget -= take;
                        self.rob_insts -= take;
                        if *n == 0 {
                            self.rob.pop_front();
                        }
                    }
                    Some(Entry::Mem {
                        is_store, state, ..
                    }) if *state == MemState::Done || (*is_store && *state == MemState::Issued) => {
                        self.rob.pop_front();
                        self.rob_insts -= 1;
                        budget -= 1;
                    }
                    _ => break,
                }
            }
            // Dispatch: each record's run, then its op, while the ROB
            // and the width allow.
            let mut budget = self.cfg.issue_width;
            while budget > 0 && self.rob_insts < self.cfg.rob_entries {
                if self.pending_nonmem == 0 && self.pending_op.is_none() {
                    let record = self.trace.next_record();
                    (self.pending_nonmem, self.pending_op) = (record.nonmem, record.op);
                    continue;
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
                } else if let Some(op) = self.pending_op.take() {
                    self.rob.push_back(Entry::Mem {
                        id: ReqId(self.next_id),
                        addr: op.addr,
                        is_store: op.is_store,
                        depends: op.depends_on_prev,
                        state: MemState::Waiting,
                    });
                    self.next_id += 1;
                    self.rob_insts += 1;
                    budget -= 1;
                }
            }
            self.issue_from_head(issue);
        }

        /// Offers every waiting op not held back by an earlier incomplete
        /// one, from the head, up to the memory issue width and the first
        /// reject.
        fn issue_from_head(&mut self, mut issue: impl FnMut(MemAccess) -> bool) {
            let mut issued = 0;
            let mut earlier_incomplete = false;
            for entry in &mut self.rob {
                if issued == self.cfg.mem_issue_width {
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
                        let access = MemAccess {
                            id: *id,
                            addr: *addr,
                            is_store: *is_store,
                        };
                        if !issue(access) {
                            break;
                        }
                        *state = MemState::Issued;
                        issued += 1;
                    }
                    earlier_incomplete |= *state != MemState::Done;
                }
            }
        }

        fn complete(&mut self, id: ReqId) {
            for entry in &mut self.rob {
                if let Entry::Mem { id: eid, state, .. } = entry {
                    if *eid == id {
                        *state = MemState::Done;
                    }
                }
            }
        }

        fn stall(&mut self) -> CoreStall {
            let head_waits = matches!(
                self.rob.front(),
                Some(Entry::Mem { is_store: false, state, .. }) if *state != MemState::Done
            );
            if self.rob_insts < self.cfg.rob_entries || !head_waits {
                return CoreStall::Active;
            }
            // A walk whose first offer is rejected changes nothing.
            let mut wants_issue = false;
            self.issue_from_head(|_| {
                wants_issue = true;
                false
            });
            if wants_issue {
                CoreStall::BlockedWantsIssue
            } else {
                CoreStall::Blocked
            }
        }
    }

    /// `Core` against the head-walking reference, driven by the random
    /// records, rejects and completions of `issue_license_matches_rob_scan`
    /// on its three shapes: every tick both offer the same accesses in
    /// the same order, and after every tick and every batch of
    /// completions both classify `stall()` alike.
    #[test]
    fn core_offers_what_a_head_walking_core_offers() {
        for (seed, cfg) in SHAPES.into_iter().enumerate() {
            let mut rng = proptest::TestRng::seed_from(seed as u64);
            let records = random_records(&mut rng);
            let mut core = Core::new(cfg, Box::new(Cycle::new(records.clone())));
            let mut reference = HeadWalker::new(cfg, records);
            let mut in_flight: Vec<ReqId> = Vec::new();
            for cycle in 0..20_000 {
                let mut offered = Vec::new();
                core.tick(|a| {
                    let accepted = rng.below(4) != 0;
                    if accepted {
                        in_flight.push(a.id);
                    }
                    offered.push((a, accepted));
                    accepted
                });
                // The reference sees the same answers, offer by offer.
                let mut answers = offered.iter().map(|&(_, accepted)| accepted);
                let mut reference_offered = Vec::new();
                reference.tick(|a| {
                    reference_offered.push(a);
                    answers.next().unwrap_or(false)
                });
                let core_offered: Vec<MemAccess> = offered.iter().map(|&(a, _)| a).collect();
                assert_eq!(
                    core_offered, reference_offered,
                    "seed {seed}, cycle {cycle}"
                );
                assert_eq!(
                    core.stall(),
                    reference.stall(),
                    "seed {seed}, cycle {cycle}"
                );
                for _ in 0..rng.below(3) {
                    if !in_flight.is_empty() {
                        let id = in_flight.swap_remove(rng.below(in_flight.len() as u64) as usize);
                        core.complete(id);
                        reference.complete(id);
                    }
                }
                assert_eq!(
                    core.stall(),
                    reference.stall(),
                    "seed {seed}, cycle {cycle}"
                );
            }
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
