//! Churn-proof sorted posting directory shared by the dynamic indexes.
//!
//! The previous `QueryIndex` kept one eagerly-sorted `Vec<u64>` hash
//! directory: every admission inserting a *new* feature hash paid a
//! `Vec::insert` memmove over the whole directory, and every eviction that
//! emptied a posting list paid the matching `Vec::remove` — O(n) per
//! operation, which dominates admission/eviction-heavy workloads once the
//! directory holds tens of thousands of distinct hashes (ROADMAP item
//! "QueryIndex directory maintenance is O(n) per new hash").
//!
//! [`PostingDir`] replaces that with two classic amortization tricks:
//!
//! * **tombstoned slots** — removal never compacts the directory. A slot
//!   whose posting list drains empty becomes a *tombstone*: its hash stays
//!   in place (so binary search still works) but lookups treat it as
//!   absent. When tombstones reach [`COMPACT_TOMBSTONE_PCT`] percent of
//!   all slots (and at least [`COMPACT_MIN`]), one O(n) compaction sweep
//!   reclaims them — amortized O(1) per removal.
//! * **batched append-and-merge** — insertion of a new hash goes into a
//!   small sorted *tail* run (bounded by `max(16, main/16)` slots), kept
//!   disjoint from the sorted *main* run. Lookups binary-search both runs
//!   (two O(log n) probes). When the tail outgrows its bound it is merged
//!   into the main run in one sweep, so each insertion memmoves at most
//!   the tail — a ~16× cut of the per-insert move cost versus shifting
//!   the whole directory, plus the amortized merge.
//!
//! Probe paths address slots by the opaque index returned from
//! [`PostingDir::find`]; any mutation may invalidate those indices, so they
//! must not be held across inserts/removals (the probes never mutate).
//! Equivalence with the eager directory is property-tested in
//! `tests/prop.rs` against [`crate::reference::EagerQueryIndex`].

/// Compact the posting directory when tombstoned slots reach this
/// percentage of all directory slots.
pub const COMPACT_TOMBSTONE_PCT: usize = 50;

/// Compaction never triggers below this many tombstones, whatever their
/// share (tiny directories are cheap to scan anyway). Public so health
/// checks can assert the real trigger.
pub const COMPACT_MIN: usize = 8;

/// One posting: `(id, count)` — entry id for the query index, graph id for
/// the tree index.
pub(crate) type Posting = (u32, u32);

/// Minimum tail capacity before a merge is considered.
const TAIL_MIN: usize = 16;
/// Tail is merged when it exceeds `main_len >> TAIL_SHIFT` (and `TAIL_MIN`).
const TAIL_SHIFT: usize = 4;

/// Sorted hash directory with tombstoned slots and a batched append tail.
///
/// A slot is *live* iff its posting list is non-empty; an empty list is a
/// tombstone. The `main` and `tail` runs are individually sorted and hold
/// disjoint hashes.
#[derive(Debug, Default)]
pub(crate) struct PostingDir {
    main: Vec<u64>,
    main_posts: Vec<Vec<Posting>>,
    tail: Vec<u64>,
    tail_posts: Vec<Vec<Posting>>,
    tombstones: usize,
}

impl PostingDir {
    /// Opaque slot index of a *live* `hash`, usable with
    /// [`PostingDir::list`] until the next mutation.
    #[inline]
    pub(crate) fn find(&self, hash: u64) -> Option<u32> {
        if let Ok(i) = self.main.binary_search(&hash) {
            return (!self.main_posts[i].is_empty()).then_some(i as u32);
        }
        if let Ok(i) = self.tail.binary_search(&hash) {
            return (!self.tail_posts[i].is_empty()).then_some((self.main.len() + i) as u32);
        }
        None
    }

    /// Posting list of a slot returned by [`PostingDir::find`], sorted by
    /// id.
    #[inline]
    pub(crate) fn list(&self, slot: u32) -> &[Posting] {
        let slot = slot as usize;
        if slot < self.main.len() {
            &self.main_posts[slot]
        } else {
            &self.tail_posts[slot - self.main.len()]
        }
    }

    /// Insert `(id, count)` under `hash`, creating (or reviving) the slot.
    ///
    /// # Panics
    /// Panics if `id` already has a posting under `hash` (each id
    /// contributes one posting per feature by construction).
    pub(crate) fn insert_posting(&mut self, hash: u64, id: u32, count: u32) {
        // `revived`: the hash already had a slot whose list had drained —
        // a tombstone coming back to life (fresh tail slots are not
        // tombstones).
        let (list, revived) = match self.main.binary_search(&hash) {
            Ok(i) => {
                let empty = self.main_posts[i].is_empty();
                (&mut self.main_posts[i], empty)
            }
            Err(_) => match self.tail.binary_search(&hash) {
                Ok(i) => {
                    let empty = self.tail_posts[i].is_empty();
                    (&mut self.tail_posts[i], empty)
                }
                Err(i) => {
                    self.tail.insert(i, hash);
                    self.tail_posts.insert(i, Vec::new());
                    (&mut self.tail_posts[i], false)
                }
            },
        };
        let at = list
            .binary_search_by_key(&id, |&(e, _)| e)
            .expect_err("ids are unique per feature hash");
        list.insert(at, (id, count));
        if revived {
            self.tombstones -= 1;
        }
        if self.tail.len() > TAIL_MIN.max(self.main.len() >> TAIL_SHIFT) {
            self.rebuild();
        }
    }

    /// Remove `id`'s posting under `hash` (missing hash/id is a no-op). A
    /// drained list becomes a tombstone; crossing the tombstone threshold
    /// compacts the directory.
    pub(crate) fn remove_posting(&mut self, hash: u64, id: u32) {
        let list = match self.main.binary_search(&hash) {
            Ok(i) => &mut self.main_posts[i],
            Err(_) => match self.tail.binary_search(&hash) {
                Ok(i) => &mut self.tail_posts[i],
                Err(_) => return,
            },
        };
        if let Ok(pos) = list.binary_search_by_key(&id, |&(e, _)| e) {
            list.remove(pos);
            if list.is_empty() {
                self.tombstones += 1;
                let total = self.main.len() + self.tail.len();
                if self.tombstones >= COMPACT_MIN
                    && self.tombstones * 100 >= COMPACT_TOMBSTONE_PCT * total
                {
                    self.rebuild();
                }
            }
        }
    }

    /// Merge the tail into the main run, dropping tombstones (one sweep
    /// serves both the batched append and the lazy compaction).
    fn rebuild(&mut self) {
        let live = self.main.len() + self.tail.len() - self.tombstones;
        let mut keys = Vec::with_capacity(live);
        let mut posts = Vec::with_capacity(live);
        let main_keys = std::mem::take(&mut self.main);
        let main_posts = std::mem::take(&mut self.main_posts);
        let tail_keys = std::mem::take(&mut self.tail);
        let tail_posts = std::mem::take(&mut self.tail_posts);
        let mut a = main_keys.into_iter().zip(main_posts).peekable();
        let mut b = tail_keys.into_iter().zip(tail_posts).peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some((ka, _)), Some((kb, _))) => ka < kb,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (k, p) = if take_a { a.next() } else { b.next() }.expect("peeked");
            if !p.is_empty() {
                keys.push(k);
                posts.push(p);
            }
        }
        self.main = keys;
        self.main_posts = posts;
        self.tombstones = 0;
    }

    /// Number of live (non-tombstone) slots.
    pub(crate) fn live_slots(&self) -> usize {
        self.main.len() + self.tail.len() - self.tombstones
    }

    /// Number of tombstoned slots currently awaiting compaction.
    pub(crate) fn tombstoned_slots(&self) -> usize {
        self.tombstones
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        let mut bytes = (self.main.capacity() + self.tail.capacity()) * std::mem::size_of::<u64>()
            + (self.main_posts.capacity() + self.tail_posts.capacity())
                * std::mem::size_of::<Vec<Posting>>();
        for list in self.main_posts.iter().chain(&self.tail_posts) {
            bytes += list.capacity() * std::mem::size_of::<Posting>();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(d: &PostingDir, hash: u64) -> Vec<Posting> {
        d.find(hash).map(|s| d.list(s).to_vec()).unwrap_or_default()
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut d = PostingDir::default();
        d.insert_posting(10, 1, 2);
        d.insert_posting(10, 0, 1);
        d.insert_posting(99, 7, 4);
        assert_eq!(cands(&d, 10), vec![(0, 1), (1, 2)]);
        assert_eq!(cands(&d, 99), vec![(7, 4)]);
        assert!(d.find(11).is_none());
        d.remove_posting(10, 0);
        assert_eq!(cands(&d, 10), vec![(1, 2)]);
        d.remove_posting(10, 1);
        assert!(d.find(10).is_none(), "drained slot must read as absent");
        assert_eq!(d.tombstoned_slots(), 1);
        assert_eq!(d.live_slots(), 1);
    }

    #[test]
    fn tombstone_revival_reuses_slot() {
        let mut d = PostingDir::default();
        d.insert_posting(42, 1, 1);
        d.remove_posting(42, 1);
        assert_eq!(d.tombstoned_slots(), 1);
        d.insert_posting(42, 2, 3);
        assert_eq!(d.tombstoned_slots(), 0, "re-insert must revive the tombstone");
        assert_eq!(cands(&d, 42), vec![(2, 3)]);
    }

    #[test]
    fn tail_merges_at_bound_and_lookups_survive() {
        let mut d = PostingDir::default();
        // Enough distinct hashes to force several tail merges.
        for h in 0..200u64 {
            d.insert_posting(h * 17 % 199, h as u32, 1);
        }
        for h in 0..200u64 {
            assert!(d.find(h * 17 % 199).is_some(), "hash {h} lost across merges");
        }
        assert!(d.tail.len() <= TAIL_MIN.max(d.main.len() >> TAIL_SHIFT));
    }

    #[test]
    fn compaction_triggers_exactly_at_threshold() {
        let mut d = PostingDir::default();
        // 16 live slots in one run; threshold is 50% with a floor of 8
        // tombstones, so the 8th drain must compact and the 7th must not.
        for h in 0..16u64 {
            d.insert_posting(h, 1, 1);
        }
        d.rebuild(); // everything into main, empty tail
        for h in 0..7u64 {
            d.remove_posting(h, 1);
        }
        assert_eq!(d.tombstoned_slots(), 7, "below both floors: no compaction yet");
        d.remove_posting(7, 1);
        assert_eq!(d.tombstoned_slots(), 0, "8th tombstone = 50% of 16 slots: compacted");
        assert_eq!(d.live_slots(), 8);
        for h in 8..16u64 {
            assert!(d.find(h).is_some(), "live hash {h} lost by compaction");
        }
    }

    #[test]
    fn removing_unknown_is_noop() {
        let mut d = PostingDir::default();
        d.insert_posting(5, 1, 1);
        d.remove_posting(6, 1);
        d.remove_posting(5, 9);
        assert_eq!(cands(&d, 5), vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "ids are unique")]
    fn duplicate_posting_panics() {
        let mut d = PostingDir::default();
        d.insert_posting(5, 1, 1);
        d.insert_posting(5, 1, 2);
    }
}
