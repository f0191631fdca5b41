//! The controller's request queues in two interchangeable layouts: the
//! indexed per-bank layout (the default) and the legacy scan layout.
//!
//! The controller arbitrates per bank — "the oldest read for bank 3",
//! "any write waiting for this bank?" — so the scan layout's three
//! shared FIFOs cost O(banks × queue length) every memory cycle just to
//! rediscover which entries belong to which bank. The indexed layout
//! stores one sub-queue per `(kind, bank)` with cached totals, making
//! every per-bank question O(1) and every pick O(per-bank occupancy).
//!
//! Both layouts produce identical issue orders: a per-bank FIFO is
//! exactly the order a scan of the shared FIFO restricted to that bank
//! would visit, and a cancelled write re-enters at the front of its
//! bank's sub-queue just as it re-entered the front of the shared
//! queue. The scan layout stays selectable through
//! [`MemConfig::use_scan_queues`](crate::MemConfig) so that equivalence
//! is continuously *tested* (see `tests/properties.rs` and the
//! end-to-end workload sweep), not assumed.
//!
//! The scan layout is also the only reference for the controller's
//! skip logic: in scan mode the next-actionable time is always `ZERO`,
//! so the controller ticks in full on every edge. Both system tick
//! loops share the controller's internal skip, so only the scan
//! comparison can catch a late `compute_next_actionable` or a stale
//! pending-write forwarding index, and FNV goldens cannot stand in for
//! the random op-stream proptest `controller_queue_layouts_equivalent`.

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

/// The controller's three request queues (read / demand write / eager)
/// in one of the two layouts.
#[derive(Debug)]
pub(crate) enum RequestQueues {
    /// Legacy reference layout: three shared FIFOs, scanned per bank.
    Scan(ScanQueues),
    /// Default layout: per-bank sub-queues with cached totals.
    Indexed(IndexedQueues),
}

impl RequestQueues {
    pub(crate) fn new(num_banks: usize, scan: bool) -> Self {
        if scan {
            RequestQueues::Scan(ScanQueues::default())
        } else {
            RequestQueues::Indexed(IndexedQueues::new(num_banks))
        }
    }

    /// Whether this is the legacy scan layout.
    pub(crate) fn is_scan(&self) -> bool {
        matches!(self, RequestQueues::Scan(_))
    }

    /// Total queued reads.
    pub(crate) fn read_len(&self) -> usize {
        match self {
            RequestQueues::Scan(q) => q.read.len(),
            RequestQueues::Indexed(q) => q.read_total,
        }
    }

    /// Total queued demand writes.
    pub(crate) fn write_len(&self) -> usize {
        match self {
            RequestQueues::Scan(q) => q.write.len(),
            RequestQueues::Indexed(q) => q.write_total,
        }
    }

    /// Total queued eager writes.
    pub(crate) fn eager_len(&self) -> usize {
        match self {
            RequestQueues::Scan(q) => q.eager.len(),
            RequestQueues::Indexed(q) => q.eager_total,
        }
    }

    /// Queued reads targeting `bank`.
    pub(crate) fn reads_at(&self, bank: usize) -> usize {
        match self {
            RequestQueues::Scan(q) => q.read.iter().filter(|r| r.bank == bank).count(),
            RequestQueues::Indexed(q) => q.read[bank].len(),
        }
    }

    /// Queued demand writes targeting `bank`.
    pub(crate) fn writes_at(&self, bank: usize) -> usize {
        match self {
            RequestQueues::Scan(q) => q.write.iter().filter(|r| r.bank == bank).count(),
            RequestQueues::Indexed(q) => q.write[bank].len(),
        }
    }

    /// Queued eager writes targeting `bank`.
    pub(crate) fn eager_at(&self, bank: usize) -> usize {
        match self {
            RequestQueues::Scan(q) => q.eager.iter().filter(|r| r.bank == bank).count(),
            RequestQueues::Indexed(q) => q.eager[bank].len(),
        }
    }

    pub(crate) fn push_read(&mut self, req: QueuedReq) {
        match self {
            RequestQueues::Scan(q) => q.read.push_back(req),
            RequestQueues::Indexed(q) => {
                q.read[req.bank].push_back(req);
                q.read_total += 1;
            }
        }
    }

    pub(crate) fn push_write(&mut self, req: QueuedReq) {
        match self {
            RequestQueues::Scan(q) => q.write.push_back(req),
            RequestQueues::Indexed(q) => {
                q.write[req.bank].push_back(req);
                q.write_total += 1;
            }
        }
    }

    pub(crate) fn push_eager(&mut self, req: QueuedReq) {
        match self {
            RequestQueues::Scan(q) => q.eager.push_back(req),
            RequestQueues::Indexed(q) => {
                q.eager[req.bank].push_back(req);
                q.eager_total += 1;
            }
        }
    }

    /// Re-queues a cancelled or paused write at the front of its queue
    /// so it keeps its age priority.
    pub(crate) fn requeue_front(&mut self, req: QueuedReq, eager: bool) {
        match self {
            RequestQueues::Scan(q) => {
                if eager {
                    q.eager.push_front(req);
                } else {
                    q.write.push_front(req);
                }
            }
            RequestQueues::Indexed(q) => {
                if eager {
                    q.eager[req.bank].push_front(req);
                    q.eager_total += 1;
                } else {
                    q.write[req.bank].push_front(req);
                    q.write_total += 1;
                }
            }
        }
    }

    /// Whether a demand or eager write for `line` (which maps to `bank`)
    /// is queued. The scan layout walks both shared queues; the indexed
    /// layout only needs the line's bank (callers on the indexed hot
    /// path use the controller's line index instead).
    pub(crate) fn has_queued_write(&self, line: u64, bank: usize) -> bool {
        match self {
            RequestQueues::Scan(q) => q.write.iter().chain(q.eager.iter()).any(|w| w.line == line),
            RequestQueues::Indexed(q) => q.write[bank]
                .iter()
                .chain(q.eager[bank].iter())
                .any(|w| w.line == line),
        }
    }

    /// The read to issue for `bank`: the oldest row-buffer hit if any,
    /// else the oldest read. Returns a copy plus a removal handle.
    pub(crate) fn pick_read(
        &self,
        bank: usize,
        open_row: Option<u64>,
    ) -> Option<(QueuedReq, ReadPick)> {
        match self {
            RequestQueues::Scan(q) => {
                let mut oldest = None;
                for (idx, r) in q.read.iter().enumerate() {
                    if r.bank != bank {
                        continue;
                    }
                    if Some(r.row) == open_row {
                        return Some((*r, ReadPick { bank, idx }));
                    }
                    if oldest.is_none() {
                        oldest = Some((*r, ReadPick { bank, idx }));
                    }
                }
                oldest
            }
            RequestQueues::Indexed(q) => {
                let sub = &q.read[bank];
                for (idx, r) in sub.iter().enumerate() {
                    if Some(r.row) == open_row {
                        return Some((*r, ReadPick { bank, idx }));
                    }
                }
                sub.front().map(|r| (*r, ReadPick { bank, idx: 0 }))
            }
        }
    }

    /// Removes the read a [`pick_read`](Self::pick_read) handle points
    /// at. The queues must not have been mutated since the pick.
    pub(crate) fn remove_read(&mut self, pick: ReadPick) {
        match self {
            RequestQueues::Scan(q) => {
                q.read.remove(pick.idx).expect("pick handle valid");
            }
            RequestQueues::Indexed(q) => {
                q.read[pick.bank]
                    .remove(pick.idx)
                    .expect("pick handle valid");
                q.read_total -= 1;
            }
        }
    }

    /// Removes and returns the oldest demand write for `bank`.
    pub(crate) fn take_write(&mut self, bank: usize) -> Option<QueuedReq> {
        match self {
            RequestQueues::Scan(q) => {
                let idx = q.write.iter().position(|w| w.bank == bank)?;
                q.write.remove(idx)
            }
            RequestQueues::Indexed(q) => {
                let req = q.write[bank].pop_front()?;
                q.write_total -= 1;
                Some(req)
            }
        }
    }

    /// Removes and returns the oldest eager write for `bank`.
    pub(crate) fn take_eager(&mut self, bank: usize) -> Option<QueuedReq> {
        match self {
            RequestQueues::Scan(q) => {
                let idx = q.eager.iter().position(|w| w.bank == bank)?;
                q.eager.remove(idx)
            }
            RequestQueues::Indexed(q) => {
                let req = q.eager[bank].pop_front()?;
                q.eager_total -= 1;
                Some(req)
            }
        }
    }
}

/// The legacy layout: three shared FIFOs in arrival order.
#[derive(Debug, Default)]
pub(crate) struct ScanQueues {
    read: VecDeque<QueuedReq>,
    write: VecDeque<QueuedReq>,
    eager: VecDeque<QueuedReq>,
}

/// The indexed layout: one sub-queue per `(kind, bank)` plus cached
/// totals, so occupancy questions never walk a queue.
#[derive(Debug)]
pub(crate) struct IndexedQueues {
    read: Vec<VecDeque<QueuedReq>>,
    write: Vec<VecDeque<QueuedReq>>,
    eager: Vec<VecDeque<QueuedReq>>,
    read_total: usize,
    write_total: usize,
    eager_total: usize,
}

impl IndexedQueues {
    fn new(num_banks: usize) -> Self {
        IndexedQueues {
            read: (0..num_banks).map(|_| VecDeque::new()).collect(),
            write: (0..num_banks).map(|_| VecDeque::new()).collect(),
            eager: (0..num_banks).map(|_| VecDeque::new()).collect(),
            read_total: 0,
            write_total: 0,
            eager_total: 0,
        }
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

    fn both() -> [RequestQueues; 2] {
        [RequestQueues::new(4, true), RequestQueues::new(4, false)]
    }

    #[test]
    fn totals_and_per_bank_counts_agree_across_layouts() {
        for mut q in both() {
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
    }

    #[test]
    fn pick_read_prefers_row_hit_then_oldest() {
        for mut q in both() {
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
    }

    #[test]
    fn take_write_is_per_bank_fifo_and_requeue_front_restores_age() {
        for mut q in both() {
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
    }

    #[test]
    fn queued_write_lookup_sees_both_write_kinds() {
        for mut q in both() {
            q.push_write(req(30, 0, 0));
            q.push_eager(req(31, 1, 0));
            assert!(q.has_queued_write(30, 0));
            assert!(q.has_queued_write(31, 1));
            assert!(!q.has_queued_write(32, 0));
            q.take_write(0);
            assert!(!q.has_queued_write(30, 0));
        }
    }

    #[test]
    fn eager_fifo_per_bank() {
        for mut q in both() {
            q.push_eager(req(40, 1, 0));
            q.push_eager(req(41, 1, 0));
            assert_eq!(q.take_eager(1).unwrap().line, 40);
            assert_eq!(q.take_eager(1).unwrap().line, 41);
            assert!(q.take_eager(1).is_none());
        }
    }
}
