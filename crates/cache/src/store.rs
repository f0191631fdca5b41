//! The flat tag store behind every cache level.

/// The lines of every set of one cache level, in flat arrays.
///
/// Set `s` owns the `assoc` tag slots at `tags[s * assoc..]`, ordered
/// by LRU stack position: slot 0 is the MRU line, slot `assoc − 1` the
/// LRU line, and only the first `len[s]` slots are resident. Each set's
/// line state lives in two `u64` masks indexed by the same positions,
/// `dirty` and `eager_cleaned`; [`touch`](Self::touch) and
/// [`insert`](Self::insert) move the mask bits with the tags. Positions
/// at or above the utility monitor's eager position form the `useless`
/// mask, so a set's Eager Mellow Write candidate (§IV-B1) is the highest
/// bit of `dirty & useless`, and `candidate_sets` counts the sets where
/// that word is non-zero.
#[derive(Debug)]
pub(crate) struct TagStore {
    assoc: usize,
    tags: Vec<u64>,
    len: Vec<u8>,
    dirty: Vec<u64>,
    eager_cleaned: Vec<u64>,
    /// Bits of positions `0..assoc`.
    ways: u64,
    /// Bits of the useless positions, `eager position..assoc`; empty
    /// until the first [`set_eager_position`](Self::set_eager_position).
    useless: u64,
    /// Sets whose `dirty & useless` is non-zero. Kept exact at every
    /// change of a dirty mask and recounted when `useless` moves.
    candidate_sets: usize,
}

/// Returns bit `pos` of `mask`.
#[inline]
fn bit(mask: u64, pos: usize) -> bool {
    mask >> pos & 1 == 1
}

impl TagStore {
    /// Creates an empty store of `num_sets` sets with `assoc` ways;
    /// `assoc` is `1..=64`, the width of the masks (`CacheConfig`
    /// validates it).
    pub(crate) fn new(num_sets: usize, assoc: usize) -> Self {
        debug_assert!((1..=64).contains(&assoc), "assoc {assoc} outside 1..=64");
        TagStore {
            assoc,
            tags: vec![0; num_sets * assoc],
            len: vec![0; num_sets],
            dirty: vec![0; num_sets],
            eager_cleaned: vec![0; num_sets],
            ways: u64::MAX >> (64 - assoc),
            useless: 0,
            candidate_sets: 0,
        }
    }

    /// Returns the LRU stack position of `tag` in `set`, without
    /// promoting it. Scans only the set's resident slots.
    #[inline]
    pub(crate) fn probe(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc;
        self.tags[base..base + usize::from(self.len[set])]
            .iter()
            .position(|&t| t == tag)
    }

    /// Returns the tag at position `pos` of `set`.
    #[inline]
    pub(crate) fn tag(&self, set: usize, pos: usize) -> u64 {
        self.tags[set * self.assoc + pos]
    }

    /// Returns `(dirty, eager_cleaned)` of the line at position `pos` of
    /// `set`.
    pub(crate) fn state(&self, set: usize, pos: usize) -> (bool, bool) {
        (bit(self.dirty[set], pos), bit(self.eager_cleaned[set], pos))
    }

    /// Promotes the line at position `pos` of `set` to MRU; the lines at
    /// positions `0..pos` move down one, and the masks' low `pos + 1`
    /// bits rotate the same way.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, pos: usize) {
        if pos == 0 {
            return;
        }
        let base = set * self.assoc;
        self.tags[base..=base + pos].rotate_right(1);
        let low = u64::MAX >> (63 - pos);
        let rotate = |m: u64| (m & !low) | (m << 1 & low) | (m >> pos & 1);
        self.eager_cleaned[set] = rotate(self.eager_cleaned[set]);
        self.set_dirty_mask(set, rotate(self.dirty[set]));
    }

    /// Inserts `tag` as a clean line at the MRU position of `set`,
    /// moving every resident line down one. When the set was full, the
    /// LRU line leaves it and is returned as
    /// `(tag, dirty, eager_cleaned)`.
    ///
    /// The caller must have probed `tag` absent.
    #[inline]
    pub(crate) fn insert(&mut self, set: usize, tag: u64) -> Option<(u64, bool, bool)> {
        debug_assert!(self.probe(set, tag).is_none(), "insert of present tag");
        let base = set * self.assoc;
        let len = usize::from(self.len[set]);
        let lru = self.assoc - 1;
        let victim = if len == self.assoc {
            let (dirty, cleaned) = self.state(set, lru);
            Some((self.tags[base + lru], dirty, cleaned))
        } else {
            self.len[set] += 1;
            None
        };
        self.tags.copy_within(base..base + len.min(lru), base + 1);
        self.tags[base] = tag;
        self.eager_cleaned[set] = self.eager_cleaned[set] << 1 & self.ways;
        self.set_dirty_mask(set, self.dirty[set] << 1 & self.ways);
        victim
    }

    /// Dirties the line at position `pos` of `set`, returning whether it
    /// had been eagerly cleaned (the eager write was wasted).
    #[inline]
    pub(crate) fn mark_dirty(&mut self, set: usize, pos: usize) -> bool {
        let was_cleaned = bit(self.eager_cleaned[set], pos);
        self.eager_cleaned[set] &= !(1 << pos);
        self.set_dirty_mask(set, self.dirty[set] | 1 << pos);
        was_cleaned
    }

    /// Cleans the line at position `pos` of `set` without evicting it, as
    /// an Eager Mellow Write does.
    pub(crate) fn eager_clean(&mut self, set: usize, pos: usize) {
        self.eager_cleaned[set] |= 1 << pos;
        self.set_dirty_mask(set, self.dirty[set] & !(1 << pos));
    }

    /// Returns the position of `set`'s Eager Mellow Write candidate: its
    /// dirty line at the highest useless position, if any.
    #[inline]
    pub(crate) fn candidate(&self, set: usize) -> Option<usize> {
        let m = self.dirty[set] & self.useless;
        (m != 0).then(|| 63 - m.leading_zeros() as usize)
    }

    /// Makes positions `floor..assoc` the useless ones (none when
    /// `floor >= assoc`) and recounts the candidate sets.
    pub(crate) fn set_eager_position(&mut self, floor: usize) {
        let useless = u64::MAX.checked_shl(floor as u32).unwrap_or(0) & self.ways;
        self.useless = useless;
        self.candidate_sets = self.dirty.iter().filter(|&&d| d & useless != 0).count();
    }

    /// Returns `true` when some position is useless, i.e. a probe can
    /// succeed at all.
    #[inline]
    pub(crate) fn has_useless(&self) -> bool {
        self.useless != 0
    }

    /// Returns the number of sets that hold a candidate.
    #[inline]
    pub(crate) fn candidate_sets(&self) -> usize {
        self.candidate_sets
    }

    /// Replaces `set`'s dirty mask, keeping the candidate count exact.
    #[inline]
    fn set_dirty_mask(&mut self, set: usize, mask: u64) {
        let was = self.dirty[set] & self.useless != 0;
        let is = mask & self.useless != 0;
        self.dirty[set] = mask;
        self.candidate_sets = self.candidate_sets + usize::from(is) - usize::from(was);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A one-set store holding `tags` inserted in order (the last MRU).
    fn filled(assoc: usize, tags: &[u64]) -> TagStore {
        let mut s = TagStore::new(1, assoc);
        for &t in tags {
            assert!(s.insert(0, t).is_none());
        }
        s
    }

    #[test]
    fn stack_order_tracks_recency() {
        let mut s = filled(4, &[0, 1, 2, 3]);
        // 3 is MRU, 0 is LRU.
        assert_eq!(s.probe(0, 3), Some(0));
        assert_eq!(s.probe(0, 0), Some(3));
        s.touch(0, 3);
        assert_eq!(s.probe(0, 0), Some(0));
        assert_eq!(s.probe(0, 3), Some(1));
        assert_eq!(s.probe(0, 1), Some(3));
    }

    #[test]
    fn insert_evicts_lru() {
        let mut s = filled(2, &[1, 2]);
        assert_eq!(s.insert(0, 3), Some((1, false, false)));
        assert_eq!(s.probe(0, 1), None);
        assert_eq!((s.tag(0, 0), s.tag(0, 1)), (3, 2));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut s = filled(1, &[7]);
        assert!(!s.mark_dirty(0, 0));
        assert_eq!(s.insert(0, 8), Some((7, true, false)));
        assert_eq!(s.state(0, 0), (false, false), "the new line is clean");
    }

    #[test]
    fn candidate_prefers_highest_position() {
        // Stack: 4(MRU) 3 2 1(LRU). Dirty 3 and 1.
        let mut s = filled(4, &[1, 2, 3, 4]);
        s.mark_dirty(0, 1);
        s.mark_dirty(0, 3);
        // Floor 0: the LRU-most dirty line, tag 1 at position 3.
        s.set_eager_position(0);
        assert_eq!(s.candidate(0), Some(3));
        // Floor 2 excludes position 1 (tag 3): still tag 1.
        s.set_eager_position(2);
        assert_eq!(s.candidate(0), Some(3));
        s.eager_clean(0, 3);
        assert_eq!(s.state(0, 3), (false, true));
        // Now only tag 3 at position 1 is dirty; floor 2 excludes it.
        assert_eq!(s.candidate(0), None);
        assert_eq!(s.candidate_sets(), 0);
        s.set_eager_position(1);
        assert_eq!(s.candidate(0), Some(1));
        assert_eq!(s.tag(0, 1), 3);
    }

    #[test]
    fn candidate_ignores_clean_lines() {
        let mut s = filled(2, &[1, 2]);
        s.set_eager_position(0);
        assert_eq!(s.candidate(0), None);
        assert_eq!(s.candidate_sets(), 0);
    }

    #[test]
    fn partial_set_inserts_without_eviction() {
        // `filled` asserts that none of the five inserts evicts.
        let s = filled(8, &[1, 2, 3, 4, 5]);
        assert_eq!(s.probe(0, 1), Some(4));
        assert_eq!(s.probe(0, 0), None, "unfilled slots are not resident");
    }

    /// One line of the reference model.
    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        dirty: bool,
        cleaned: bool,
    }

    const SETS: usize = 2;

    proptest! {
        /// Random operation sequences against a `Vec`-of-lines model per
        /// set: after every operation each resident tag sits at the
        /// model's position with the model's state, the candidate is the
        /// model's highest useless dirty line, and the live candidate
        /// count equals a fresh recount.
        #[test]
        fn store_matches_vec_model(
            assoc_idx in 0usize..4,
            ops in proptest::collection::vec((0u8..7, 0usize..SETS, 0u64..1 << 16), 1..400),
        ) {
            let assoc = [1, 2, 16, 64][assoc_idx];
            let tags = assoc as u64 + 4;
            let mut store = TagStore::new(SETS, assoc);
            let mut model: Vec<Vec<Line>> = vec![Vec::new(); SETS];
            let mut floor = assoc;
            for (op, set, arg) in ops {
                let lines = &mut model[set];
                let pos = (!lines.is_empty()).then(|| arg as usize % lines.len());
                match (op, pos) {
                    // Insert a tag the set does not hold (inserts dominate
                    // so that even 64-way sets fill and evict).
                    (0..=2, _) => {
                        let tag = (arg..)
                            .map(|t| t % tags)
                            .find(|t| lines.iter().all(|l| l.tag != *t))
                            .expect("more tags than ways");
                        let victim = if lines.len() == assoc { lines.pop() } else { None };
                        lines.insert(0, Line { tag, dirty: false, cleaned: false });
                        let expect = victim.map(|l| (l.tag, l.dirty, l.cleaned));
                        prop_assert_eq!(store.insert(set, tag), expect);
                    }
                    (3, Some(p)) => {
                        let line = lines.remove(p);
                        lines.insert(0, line);
                        store.touch(set, p);
                    }
                    (4, Some(p)) => {
                        let was_cleaned = lines[p].cleaned;
                        lines[p] = Line { dirty: true, cleaned: false, ..lines[p] };
                        prop_assert_eq!(store.mark_dirty(set, p), was_cleaned);
                    }
                    (5, Some(p)) => {
                        lines[p] = Line { dirty: false, cleaned: true, ..lines[p] };
                        store.eager_clean(set, p);
                    }
                    (6, _) => {
                        floor = arg as usize % (assoc + 1);
                        store.set_eager_position(floor);
                    }
                    _ => {}
                }
                let candidate = |lines: &[Line]| {
                    (floor..lines.len()).rev().find(|&p| lines[p].dirty)
                };
                for (s, lines) in model.iter().enumerate() {
                    for (p, l) in lines.iter().enumerate() {
                        prop_assert_eq!(store.probe(s, l.tag), Some(p));
                        prop_assert_eq!(store.state(s, p), (l.dirty, l.cleaned));
                    }
                    if let Some(absent) = (0..tags).find(|t| lines.iter().all(|l| l.tag != *t)) {
                        prop_assert_eq!(store.probe(s, absent), None);
                    }
                    prop_assert_eq!(store.candidate(s), candidate(lines));
                }
                let recount = model.iter().filter(|lines| candidate(lines).is_some()).count();
                prop_assert_eq!(store.candidate_sets(), recount);
            }
        }
    }
}
