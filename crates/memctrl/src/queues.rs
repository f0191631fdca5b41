//! The controller's request queues, held per bank.
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
//! The controller's skip (the fast path of
//! [`Controller::tick`](crate::Controller::tick)) is checked against
//! [`Controller::tick_full`](crate::Controller::tick_full), which runs
//! every edge in full: the random op-stream proptest
//! `controller_skip_matches_full_ticks` compares the two directly, and
//! the system's cycle reference loop ticks the controller in full.

use mellow_engine::SimTime;
use std::collections::VecDeque;

/// A queued request (read, demand write, or eager write).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedReq {
    pub(crate) line: u64,
    pub(crate) bank: usize,
    pub(crate) row: u64,
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

/// A handle to one read chosen by [`RequestQueues::pick_read`], valid
/// until the queues are next mutated (the controller picks, checks
/// tFAW, and only then removes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadPick {
    bank: usize,
    idx: usize,
}

/// The controller's three request queues (read / demand write / eager):
/// one sub-queue per `(kind, bank)` plus cached totals, so occupancy
/// questions never walk a queue.
#[derive(Debug)]
pub(crate) struct RequestQueues {
    read: Vec<VecDeque<QueuedReq>>,
    write: Vec<VecDeque<QueuedReq>>,
    eager: Vec<VecDeque<QueuedReq>>,
    read_total: usize,
    write_total: usize,
    eager_total: usize,
}

impl RequestQueues {
    pub(crate) fn new(num_banks: usize) -> Self {
        RequestQueues {
            read: (0..num_banks).map(|_| VecDeque::new()).collect(),
            write: (0..num_banks).map(|_| VecDeque::new()).collect(),
            eager: (0..num_banks).map(|_| VecDeque::new()).collect(),
            read_total: 0,
            write_total: 0,
            eager_total: 0,
        }
    }

    /// Total queued reads.
    pub(crate) fn read_len(&self) -> usize {
        self.read_total
    }

    /// Total queued demand writes.
    pub(crate) fn write_len(&self) -> usize {
        self.write_total
    }

    /// Total queued eager writes.
    pub(crate) fn eager_len(&self) -> usize {
        self.eager_total
    }

    /// Queued reads targeting `bank`.
    pub(crate) fn reads_at(&self, bank: usize) -> usize {
        self.read[bank].len()
    }

    /// Queued demand writes targeting `bank`.
    pub(crate) fn writes_at(&self, bank: usize) -> usize {
        self.write[bank].len()
    }

    /// Queued eager writes targeting `bank`.
    pub(crate) fn eager_at(&self, bank: usize) -> usize {
        self.eager[bank].len()
    }

    pub(crate) fn push_read(&mut self, req: QueuedReq) {
        self.read[req.bank].push_back(req);
        self.read_total += 1;
    }

    pub(crate) fn push_write(&mut self, req: QueuedReq) {
        self.write[req.bank].push_back(req);
        self.write_total += 1;
    }

    pub(crate) fn push_eager(&mut self, req: QueuedReq) {
        self.eager[req.bank].push_back(req);
        self.eager_total += 1;
    }

    /// Re-queues a cancelled or paused write at the front of its bank's
    /// queue so it keeps its age priority.
    pub(crate) fn requeue_front(&mut self, req: QueuedReq, eager: bool) {
        if eager {
            self.eager[req.bank].push_front(req);
            self.eager_total += 1;
        } else {
            self.write[req.bank].push_front(req);
            self.write_total += 1;
        }
    }

    /// Whether a demand or eager write for `line` (which maps to `bank`)
    /// is queued. Only the line's bank is walked.
    pub(crate) fn has_queued_write(&self, line: u64, bank: usize) -> bool {
        self.write[bank]
            .iter()
            .chain(self.eager[bank].iter())
            .any(|w| w.line == line)
    }

    /// The read to issue for `bank`: the oldest row-buffer hit if any,
    /// else the oldest read. Returns a copy plus a removal handle.
    pub(crate) fn pick_read(
        &self,
        bank: usize,
        open_row: Option<u64>,
    ) -> Option<(QueuedReq, ReadPick)> {
        let sub = &self.read[bank];
        for (idx, r) in sub.iter().enumerate() {
            if Some(r.row) == open_row {
                return Some((*r, ReadPick { bank, idx }));
            }
        }
        sub.front().map(|r| (*r, ReadPick { bank, idx: 0 }))
    }

    /// Removes the read a [`pick_read`](Self::pick_read) handle points
    /// at. The queues must not have been mutated since the pick.
    pub(crate) fn remove_read(&mut self, pick: ReadPick) {
        self.read[pick.bank]
            .remove(pick.idx)
            .expect("pick handle valid");
        self.read_total -= 1;
    }

    /// Removes and returns the oldest demand write for `bank`.
    pub(crate) fn take_write(&mut self, bank: usize) -> Option<QueuedReq> {
        let req = self.write[bank].pop_front()?;
        self.write_total -= 1;
        Some(req)
    }

    /// Removes and returns the oldest eager write for `bank`.
    pub(crate) fn take_eager(&mut self, bank: usize) -> Option<QueuedReq> {
        let req = self.eager[bank].pop_front()?;
        self.eager_total -= 1;
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(line: u64, bank: usize, row: u64) -> QueuedReq {
        QueuedReq {
            line,
            bank,
            row,
            enq: SimTime::ZERO,
            data_resident: false,
            cancels: 0,
            remaining: 1.0,
            retries: 0,
            repair: false,
        }
    }

    #[test]
    fn totals_and_per_bank_counts_agree() {
        let mut q = RequestQueues::new(4);
        q.push_read(req(0, 0, 0));
        q.push_read(req(4, 0, 1));
        q.push_read(req(1, 1, 0));
        q.push_write(req(2, 2, 0));
        q.push_eager(req(3, 3, 0));
        assert_eq!(q.read_len(), 3);
        assert_eq!(q.write_len(), 1);
        assert_eq!(q.eager_len(), 1);
        assert_eq!(q.reads_at(0), 2);
        assert_eq!(q.reads_at(1), 1);
        assert_eq!(q.writes_at(2), 1);
        assert_eq!(q.eager_at(3), 1);
        assert_eq!(q.reads_at(3), 0);
    }

    #[test]
    fn pick_read_prefers_row_hit_then_oldest() {
        let mut q = RequestQueues::new(4);
        q.push_read(req(10, 1, 5));
        q.push_read(req(11, 1, 7));
        q.push_read(req(12, 1, 5));
        // Open row 7: the (single) hit wins over the older misses.
        let (r, _) = q.pick_read(1, Some(7)).unwrap();
        assert_eq!(r.line, 11);
        // No open row: oldest wins.
        let (r, pick) = q.pick_read(1, None).unwrap();
        assert_eq!(r.line, 10);
        q.remove_read(pick);
        assert_eq!(q.reads_at(1), 2);
        let (r, _) = q.pick_read(1, None).unwrap();
        assert_eq!(r.line, 11);
    }

    #[test]
    fn take_write_is_per_bank_fifo_and_requeue_front_restores_age() {
        let mut q = RequestQueues::new(4);
        q.push_write(req(20, 2, 0));
        q.push_write(req(21, 3, 0));
        q.push_write(req(22, 2, 0));
        let first = q.take_write(2).unwrap();
        assert_eq!(first.line, 20);
        // A cancelled write re-enters at the front of its bank.
        q.requeue_front(first, false);
        assert_eq!(q.take_write(2).unwrap().line, 20);
        assert_eq!(q.take_write(2).unwrap().line, 22);
        assert!(q.take_write(2).is_none());
        assert_eq!(q.take_write(3).unwrap().line, 21);
        assert_eq!(q.write_len(), 0);
    }

    #[test]
    fn queued_write_lookup_sees_both_write_kinds() {
        let mut q = RequestQueues::new(4);
        q.push_write(req(30, 0, 0));
        q.push_eager(req(31, 1, 0));
        assert!(q.has_queued_write(30, 0));
        assert!(q.has_queued_write(31, 1));
        assert!(!q.has_queued_write(32, 0));
        q.take_write(0);
        assert!(!q.has_queued_write(30, 0));
    }

    #[test]
    fn eager_fifo_per_bank() {
        let mut q = RequestQueues::new(4);
        q.push_eager(req(40, 1, 0));
        q.push_eager(req(41, 1, 0));
        assert_eq!(q.take_eager(1).unwrap().line, 40);
        assert_eq!(q.take_eager(1).unwrap().line, 41);
        assert!(q.take_eager(1).is_none());
    }
}
