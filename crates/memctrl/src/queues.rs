//! The controller's request queues, held per bank, and the bank masks
//! its passes iterate.
//!
//! The controller arbitrates per bank — "the oldest read for bank 3",
//! "any write waiting for this bank?" — so the queues keep one
//! sub-queue per `(kind, bank)` with cached totals: every per-bank
//! question is O(1) and every pick O(per-bank occupancy).
//!
//! A per-bank FIFO visits requests in exactly the order a scan of one
//! shared FIFO restricted to that bank would, and a cancelled write
//! re-enters at the front of its bank's sub-queue, so the split keeps
//! oldest-first issue order within each bank.
//!
//! Each kind also keeps a `u64` mask of the banks whose sub-queue is
//! non-empty, so the controller's cancel, issue and next-actionable
//! passes visit only the banks with work ([`banks_in`]) instead of
//! all of them; [`due_mask`] derives the per-pass free and scrub-due
//! masks. A controller therefore has at most [`MAX_BANKS`] banks.
//!
//! The controller's skip (the fast path of
//! [`Controller::tick`](crate::Controller::tick)) is checked against
//! [`Controller::tick_full`](crate::Controller::tick_full), which runs
//! every edge in full: the random op-stream proptest
//! `controller_skip_matches_full_ticks` compares the two directly, and
//! the system's cycle reference loop ticks the controller in full.
//! Both loops read the same masks, and a stale write or eager bit only
//! adds a visit or an earlier wake-up, so those checks cannot pin the
//! masks: debug builds check every mask against its sub-queues after
//! each mutation, and `masks_track_sub_queue_occupancy` checks them
//! against a model.

use crate::LineMapping;
use mellow_engine::SimTime;
use std::collections::VecDeque;

/// What a request asks of its bank, and so which queue holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Read,
    DemandWrite,
    EagerWrite,
}

/// A request (read, demand write, or eager write), from acceptance to
/// completion: queued, in flight at its bank, and re-queued by a cancel,
/// a pause or a verify retry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedReq {
    pub(crate) kind: OpKind,
    pub(crate) line: u64,
    /// Where `line` lives, mapped once at acceptance.
    pub(crate) mapping: LineMapping,
    pub(crate) enq: SimTime,
    /// Set when this write was cancelled mid-pulse: its data is already
    /// latched at the bank, so a retry needs no new bus transfer.
    pub(crate) data_resident: bool,
    /// How many times this write has been cancelled already.
    pub(crate) cancels: u32,
    /// Fraction of the write pulse still to drive (1.0 for a fresh
    /// write; less after `+WP` pauses).
    pub(crate) remaining: f64,
    /// Verify-retry attempts consumed so far (fault layer); resets to
    /// zero after a remap to a spare block.
    pub(crate) retries: u32,
    /// Set on retention-repair rewrites (scrub or demand-read detected):
    /// completion counts as a repair, not a demand/eager write, and a
    /// lost repair is a retention-uncorrectable loss.
    pub(crate) repair: bool,
}

impl QueuedReq {
    /// A fresh `kind` request for `line`, enqueued at `enq`.
    pub(crate) fn new(kind: OpKind, line: u64, mapping: LineMapping, enq: SimTime) -> Self {
        QueuedReq {
            kind,
            line,
            mapping,
            enq,
            data_resident: false,
            cancels: 0,
            remaining: 1.0,
            retries: 0,
            repair: false,
        }
    }
}

/// A handle to one read chosen by [`RequestQueues::pick_read`], valid
/// until the queues are next mutated (the controller picks, checks
/// tFAW, and only then removes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadPick {
    bank: usize,
    idx: usize,
}

/// The most banks a controller can have: the width of its per-bank
/// `u64` masks.
pub(crate) const MAX_BANKS: usize = u64::BITS as usize;

/// The banks whose bits are set in `mask`, in ascending order.
pub(crate) fn banks_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bank = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bank
        })
    })
}

/// The mask of banks whose time in `times` is at or before `now`: the
/// free banks for busy-until times, the due banks for scrub due times.
pub(crate) fn due_mask(times: &[SimTime], now: SimTime) -> u64 {
    times
        .iter()
        .enumerate()
        .fold(0, |mask, (bank, &t)| mask | u64::from(t <= now) << bank)
}

/// One request kind's sub-queues, one FIFO per bank, with the kind's
/// total and the mask of banks whose FIFO is non-empty. Every mutation
/// goes through here, so the total and the mask move with the FIFOs;
/// debug builds check the mask after each one.
#[derive(Debug)]
pub(crate) struct BankFifos {
    fifos: Vec<VecDeque<QueuedReq>>,
    total: usize,
    /// Bit `b` is set exactly when bank `b`'s FIFO is non-empty.
    mask: u64,
}

impl BankFifos {
    fn new(num_banks: usize) -> Self {
        BankFifos {
            fifos: (0..num_banks).map(|_| VecDeque::new()).collect(),
            total: 0,
            mask: 0,
        }
    }

    /// Queued requests of this kind.
    pub(crate) fn len(&self) -> usize {
        self.total
    }

    /// Queued requests of this kind targeting `bank`.
    pub(crate) fn at(&self, bank: usize) -> usize {
        self.fifos[bank].len()
    }

    /// The banks with a queued request of this kind.
    pub(crate) fn mask(&self) -> u64 {
        self.mask
    }

    /// Removes and returns the oldest request for `bank`.
    pub(crate) fn take(&mut self, bank: usize) -> Option<QueuedReq> {
        let req = self.fifos[bank].pop_front()?;
        self.left(bank);
        Some(req)
    }

    fn remove(&mut self, bank: usize, idx: usize) -> Option<QueuedReq> {
        let req = self.fifos[bank].remove(idx)?;
        self.left(bank);
        Some(req)
    }

    fn entered(&mut self, bank: usize) {
        self.total += 1;
        self.mask |= 1 << bank;
        self.check_mask();
    }

    fn left(&mut self, bank: usize) {
        self.total -= 1;
        if self.fifos[bank].is_empty() {
            self.mask &= !(1 << bank);
        }
        self.check_mask();
    }

    /// Debug builds: every mask bit equals its FIFO's non-emptiness.
    fn check_mask(&self) {
        debug_assert_eq!(
            self.mask,
            self.fifos
                .iter()
                .enumerate()
                .fold(0, |mask, (bank, f)| mask | u64::from(!f.is_empty()) << bank),
            "occupancy mask drifted from the sub-queues"
        );
    }
}

/// The controller's three request queues (read / demand write / eager):
/// one sub-queue per `(kind, bank)` plus each kind's cached total and
/// occupancy mask, so occupancy questions never walk a queue.
#[derive(Debug)]
pub(crate) struct RequestQueues {
    pub(crate) read: BankFifos,
    pub(crate) write: BankFifos,
    pub(crate) eager: BankFifos,
}

impl RequestQueues {
    /// # Panics
    ///
    /// Panics if `num_banks` exceeds [`MAX_BANKS`].
    pub(crate) fn new(num_banks: usize) -> Self {
        assert!(
            num_banks <= MAX_BANKS,
            "bank count {num_banks} exceeds {MAX_BANKS}, the width of the controller's bank masks"
        );
        RequestQueues {
            read: BankFifos::new(num_banks),
            write: BankFifos::new(num_banks),
            eager: BankFifos::new(num_banks),
        }
    }

    /// The sub-queues of requests of `kind`.
    fn of(&mut self, kind: OpKind) -> &mut BankFifos {
        match kind {
            OpKind::Read => &mut self.read,
            OpKind::DemandWrite => &mut self.write,
            OpKind::EagerWrite => &mut self.eager,
        }
    }

    /// Queues `req` behind every request of its kind for its bank.
    pub(crate) fn push(&mut self, req: QueuedReq) {
        let bank = req.mapping.bank;
        let fifos = self.of(req.kind);
        fifos.fifos[bank].push_back(req);
        fifos.entered(bank);
    }

    /// Re-queues a cancelled, paused or verify-failed write at the front
    /// of its bank's queue so it keeps its age priority.
    pub(crate) fn requeue_front(&mut self, req: QueuedReq) {
        let bank = req.mapping.bank;
        let fifos = self.of(req.kind);
        fifos.fifos[bank].push_front(req);
        fifos.entered(bank);
    }

    /// Whether a demand or eager write for `line` (which maps to `bank`)
    /// is queued. Only the line's bank is walked.
    pub(crate) fn has_queued_write(&self, line: u64, bank: usize) -> bool {
        self.write.fifos[bank]
            .iter()
            .chain(self.eager.fifos[bank].iter())
            .any(|w| w.line == line)
    }

    /// The read to issue for `bank`: the oldest row-buffer hit if any,
    /// else the oldest read. Returns a copy plus a removal handle.
    pub(crate) fn pick_read(
        &self,
        bank: usize,
        open_row: Option<u64>,
    ) -> Option<(QueuedReq, ReadPick)> {
        let sub = &self.read.fifos[bank];
        for (idx, r) in sub.iter().enumerate() {
            if Some(r.mapping.row) == open_row {
                return Some((*r, ReadPick { bank, idx }));
            }
        }
        sub.front().map(|r| (*r, ReadPick { bank, idx: 0 }))
    }

    /// Removes the read a [`pick_read`](Self::pick_read) handle points
    /// at. The queues must not have been mutated since the pick.
    pub(crate) fn remove_read(&mut self, pick: ReadPick) {
        self.read
            .remove(pick.bank, pick.idx)
            .expect("pick handle valid");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(kind: OpKind, line: u64, bank: usize, row: u64) -> QueuedReq {
        QueuedReq::new(
            kind,
            line,
            LineMapping {
                bank,
                row,
                block: 0,
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn totals_and_per_bank_counts_agree() {
        let mut q = RequestQueues::new(4);
        q.push(req(OpKind::Read, 0, 0, 0));
        q.push(req(OpKind::Read, 4, 0, 1));
        q.push(req(OpKind::Read, 1, 1, 0));
        q.push(req(OpKind::DemandWrite, 2, 2, 0));
        q.push(req(OpKind::EagerWrite, 3, 3, 0));
        assert_eq!(q.read.len(), 3);
        assert_eq!(q.write.len(), 1);
        assert_eq!(q.eager.len(), 1);
        assert_eq!(q.read.at(0), 2);
        assert_eq!(q.read.at(1), 1);
        assert_eq!(q.write.at(2), 1);
        assert_eq!(q.eager.at(3), 1);
        assert_eq!(q.read.at(3), 0);
    }

    #[test]
    fn pick_read_prefers_row_hit_then_oldest() {
        let mut q = RequestQueues::new(4);
        q.push(req(OpKind::Read, 10, 1, 5));
        q.push(req(OpKind::Read, 11, 1, 7));
        q.push(req(OpKind::Read, 12, 1, 5));
        // Open row 7: the (single) hit wins over the older misses.
        let (r, _) = q.pick_read(1, Some(7)).unwrap();
        assert_eq!(r.line, 11);
        // No open row: oldest wins.
        let (r, pick) = q.pick_read(1, None).unwrap();
        assert_eq!(r.line, 10);
        q.remove_read(pick);
        assert_eq!(q.read.at(1), 2);
        let (r, _) = q.pick_read(1, None).unwrap();
        assert_eq!(r.line, 11);
    }

    #[test]
    fn take_write_is_per_bank_fifo_and_requeue_front_restores_age() {
        let mut q = RequestQueues::new(4);
        q.push(req(OpKind::DemandWrite, 20, 2, 0));
        q.push(req(OpKind::DemandWrite, 21, 3, 0));
        q.push(req(OpKind::DemandWrite, 22, 2, 0));
        let first = q.write.take(2).unwrap();
        assert_eq!(first.line, 20);
        // A cancelled write re-enters at the front of its bank.
        q.requeue_front(first);
        assert_eq!(q.write.take(2).unwrap().line, 20);
        assert_eq!(q.write.take(2).unwrap().line, 22);
        assert!(q.write.take(2).is_none());
        assert_eq!(q.write.take(3).unwrap().line, 21);
        assert_eq!(q.write.len(), 0);
    }

    #[test]
    fn queued_write_lookup_sees_both_write_kinds() {
        let mut q = RequestQueues::new(4);
        q.push(req(OpKind::DemandWrite, 30, 0, 0));
        q.push(req(OpKind::EagerWrite, 31, 1, 0));
        assert!(q.has_queued_write(30, 0));
        assert!(q.has_queued_write(31, 1));
        assert!(!q.has_queued_write(32, 0));
        q.write.take(0);
        assert!(!q.has_queued_write(30, 0));
    }

    #[test]
    fn eager_fifo_per_bank() {
        let mut q = RequestQueues::new(4);
        q.push(req(OpKind::EagerWrite, 40, 1, 0));
        q.push(req(OpKind::EagerWrite, 41, 1, 0));
        assert_eq!(q.eager.take(1).unwrap().line, 40);
        assert_eq!(q.eager.take(1).unwrap().line, 41);
        assert!(q.eager.take(1).is_none());
    }

    #[test]
    fn banks_in_and_due_mask() {
        assert_eq!(banks_in(0).count(), 0);
        let all: Vec<usize> = banks_in(!0).collect();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        assert_eq!(banks_in(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        let t = |ps| SimTime::from_ps(ps);
        let times = [t(5), t(10), t(15)];
        assert_eq!(due_mask(&times, t(4)), 0b000);
        assert_eq!(due_mask(&times, t(10)), 0b011);
        assert_eq!(due_mask(&times, t(99)), 0b111);
    }

    #[test]
    #[should_panic(expected = "the width of the controller's bank masks")]
    fn more_than_64_banks_rejected() {
        RequestQueues::new(65);
    }

    proptest! {
        /// Random push, requeue-front, take and remove-read sequences
        /// against a per-bank `VecDeque` model: after every operation
        /// each kind's mask has exactly the banks whose model FIFO is
        /// non-empty, and totals, per-bank counts and the requests taken
        /// match the model.
        #[test]
        fn masks_track_sub_queue_occupancy(
            banks_idx in 0usize..3,
            ops in proptest::collection::vec((0u8..7, 0usize..64, 0u64..1 << 16), 1..400),
        ) {
            let banks = [1, 16, 64][banks_idx];
            let mut q = RequestQueues::new(banks);
            // Read, demand write and eager FIFOs per bank, by line.
            let mut model = vec![vec![VecDeque::new(); banks]; 3];
            let kinds = [OpKind::Read, OpKind::DemandWrite, OpKind::EagerWrite];
            for (op, bank, line) in ops {
                let bank = bank % banks;
                let row = line % 4;
                match op {
                    0..=2 => {
                        let r = req(kinds[usize::from(op)], line, bank, row);
                        q.push(r);
                        model[usize::from(op)][bank].push_back(r);
                    }
                    3 => {
                        let k = 1 + usize::from(line % 2 == 1);
                        let r = req(kinds[k], line, bank, row);
                        q.requeue_front(r);
                        model[k][bank].push_front(r);
                    }
                    4 => {
                        let got = q.write.take(bank).map(|w| w.line);
                        prop_assert_eq!(got, model[1][bank].pop_front().map(|w| w.line));
                    }
                    5 => {
                        let got = q.eager.take(bank).map(|w| w.line);
                        prop_assert_eq!(got, model[2][bank].pop_front().map(|w| w.line));
                    }
                    _ => {
                        let reads = &mut model[0][bank];
                        let want = reads.iter().position(|m| m.mapping.row == row).or((!reads.is_empty()).then_some(0));
                        match q.pick_read(bank, Some(row)) {
                            Some((got, pick)) => {
                                let idx = want.expect("the model holds a read");
                                prop_assert_eq!(got.line, reads[idx].line);
                                q.remove_read(pick);
                                reads.remove(idx);
                            }
                            None => prop_assert_eq!(want, None),
                        }
                    }
                }
                let mask = |fifos: &[VecDeque<QueuedReq>]| {
                    banks_in(u64::MAX >> (64 - banks))
                        .filter(|&b| !fifos[b].is_empty())
                        .fold(0u64, |m, b| m | 1 << b)
                };
                let total = |fifos: &[VecDeque<QueuedReq>]| fifos.iter().map(VecDeque::len).sum::<usize>();
                for (fifos, model) in [&q.read, &q.write, &q.eager].into_iter().zip(&model) {
                    prop_assert_eq!(fifos.mask(), mask(model));
                    prop_assert_eq!(fifos.len(), total(model));
                    prop_assert_eq!(fifos.at(bank), model[bank].len());
                }
            }
        }
    }
}
