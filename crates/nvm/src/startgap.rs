//! Start-Gap wear leveling (Qureshi et al., MICRO'09), used by the paper
//! at bank granularity.

/// The Start-Gap wear-leveling remapper for one memory bank.
///
/// Start-Gap provisions one spare line (the *gap*) on top of the `n`
/// logical lines it serves, plus two registers:
///
/// - `gap` — the physical index of the currently unused line,
/// - `start` — a rotation offset applied to logical addresses.
///
/// Every `gap_interval` writes (Ψ, 100 in the original paper) the gap
/// moves down one slot by copying its neighbour into it; when the gap has
/// traversed all `n + 1` physical slots, `start` advances by one, so over
/// time every logical line visits every physical slot and wear evens out.
/// Gap movement itself costs one extra write per Ψ demand writes (≈1%
/// overhead), which is why the paper budgets its Wear Quota with
/// `Ratio_quota = 0.9` rather than 1.0.
///
/// # Examples
///
/// ```
/// use mellow_nvm::StartGap;
///
/// let mut sg = StartGap::new(8, 100);
/// let before = sg.remap(3);
/// // Writes eventually move the gap and change the mapping.
/// for _ in 0..900 {
///     sg.note_write();
/// }
/// assert_ne!(sg.remap(3), before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGap {
    /// Number of logical lines served (physical lines are `n + 1`).
    n: u64,
    /// Rotation offset in `[0, n)`.
    start: u64,
    /// Physical index of the gap in `[0, n]`.
    gap: u64,
    /// Demand writes between gap movements (Ψ).
    gap_interval: u32,
    /// Demand writes since the last gap movement.
    since_move: u32,
    /// Total gap-movement (overhead) writes performed.
    move_writes: u64,
}

impl StartGap {
    /// Creates a remapper for `n` logical lines moving the gap every
    /// `gap_interval` writes (Ψ; the original paper uses 100).
    ///
    /// The Start-Gap [`WearLeveler`](crate::WearLeveler) builds one per
    /// bank; device-level tests and microbenchmarks construct it
    /// directly. Memory controllers select it through
    /// [`LevelerConfig::StartGap`](crate::LevelerConfig) instead, so the
    /// trait also routes fault remaps.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `gap_interval` is zero.
    pub fn new(n: u64, gap_interval: u32) -> Self {
        assert!(n > 0, "line count must be non-zero");
        assert!(gap_interval > 0, "gap interval must be non-zero");
        StartGap {
            n,
            start: 0,
            gap: n,
            gap_interval,
            since_move: 0,
            move_writes: 0,
        }
    }

    /// Returns the number of logical lines served.
    pub fn logical_lines(&self) -> u64 {
        self.n
    }

    /// Returns the number of physical lines (logical + the gap spare).
    pub fn physical_lines(&self) -> u64 {
        self.n + 1
    }

    /// Maps a logical line index to its current physical line index.
    ///
    /// # Panics
    ///
    /// Panics if `logical >= n`.
    #[inline]
    pub fn remap(&self, logical: u64) -> u64 {
        assert!(
            logical < self.n,
            "logical line {logical} out of range (n = {})",
            self.n
        );
        let rotated = (logical + self.start) % self.n;
        if rotated >= self.gap {
            rotated + 1
        } else {
            rotated
        }
    }

    /// Records one demand write; every Ψ-th write triggers a gap movement.
    ///
    /// Returns the physical index of the line rewritten by gap movement,
    /// or `None` when no movement happened. Callers charge wear for that
    /// extra physical write.
    pub fn note_write(&mut self) -> Option<u64> {
        self.since_move += 1;
        if self.since_move < self.gap_interval {
            return None;
        }
        self.since_move = 0;
        Some(self.move_gap())
    }

    /// Moves the gap one slot immediately, returning the physical index
    /// whose contents were copied (the line that was physically written).
    pub fn move_gap(&mut self) -> u64 {
        self.move_writes += 1;
        if self.gap == 0 {
            // The gap wraps to the top and the rotation advances: logical
            // addresses shift by one physical slot.
            self.gap = self.n;
            self.start = (self.start + 1) % self.n;
            // Wrapping copies line 0's contents upward conceptually; the
            // physically written line is the new gap's neighbour.
            self.gap
        } else {
            self.gap -= 1;
            // Copy [gap] <- [gap + 1] in the original formulation; the
            // written (worn) line is the new gap position's old occupant,
            // i.e. physical index `gap` now holds the moved data... the
            // physical cell written is the one the data moved INTO.
            self.gap + 1
        }
    }

    /// Returns the total number of extra writes performed by gap movement.
    pub fn overhead_writes(&self) -> u64 {
        self.move_writes
    }

    /// Returns the current `(start, gap)` registers, for inspection.
    pub fn registers(&self) -> (u64, u64) {
        (self.start, self.gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_is_permutation(sg: &StartGap) {
        let phys: HashSet<u64> = (0..sg.logical_lines()).map(|l| sg.remap(l)).collect();
        assert_eq!(
            phys.len() as u64,
            sg.logical_lines(),
            "remap must be injective"
        );
        for p in &phys {
            assert!(*p < sg.physical_lines());
            assert_ne!(*p, sg.registers().1, "no logical line maps to the gap");
        }
    }

    #[test]
    fn initial_mapping_is_identity() {
        let sg = StartGap::new(16, 100);
        for l in 0..16 {
            assert_eq!(sg.remap(l), l);
        }
    }

    #[test]
    fn mapping_stays_injective_through_many_moves() {
        let mut sg = StartGap::new(13, 1);
        for step in 0..500 {
            assert_is_permutation(&sg);
            let moved = sg.note_write();
            assert!(moved.is_some(), "interval 1 moves every write");
            let _ = step;
        }
    }

    #[test]
    fn gap_interval_controls_movement_rate() {
        let mut sg = StartGap::new(64, 100);
        let mut moves = 0;
        for _ in 0..1000 {
            if sg.note_write().is_some() {
                moves += 1;
            }
        }
        assert_eq!(moves, 10);
        assert_eq!(sg.overhead_writes(), 10);
    }

    #[test]
    fn full_rotation_advances_start() {
        let n = 8;
        let mut sg = StartGap::new(n, 1);
        assert_eq!(sg.registers(), (0, n));
        // n + 1 gap movements bring the gap back to the top with start + 1.
        for _ in 0..(n + 1) {
            sg.move_gap();
        }
        assert_eq!(sg.registers(), (1, n));
    }

    #[test]
    fn every_logical_line_eventually_visits_every_slot() {
        let n = 5u64;
        let mut sg = StartGap::new(n, 1);
        let mut seen: Vec<HashSet<u64>> = vec![HashSet::new(); n as usize];
        // One full start rotation = n * (n + 1) gap moves.
        for _ in 0..(n * (n + 1)) {
            for l in 0..n {
                seen[l as usize].insert(sg.remap(l));
            }
            sg.move_gap();
        }
        for (l, slots) in seen.iter().enumerate() {
            assert_eq!(
                slots.len() as u64,
                n + 1,
                "logical line {l} should visit all physical slots"
            );
        }
    }

    #[test]
    fn moved_line_is_in_range() {
        let mut sg = StartGap::new(32, 1);
        for _ in 0..200 {
            let written = sg.move_gap();
            assert!(written < sg.physical_lines());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_logical_rejected() {
        let sg = StartGap::new(4, 100);
        let _ = sg.remap(4);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_lines_rejected() {
        let _ = StartGap::new(0, 100);
    }
}
