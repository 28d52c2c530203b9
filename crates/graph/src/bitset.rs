//! Fixed-universe bitset used for answer sets and candidate sets.
//!
//! GraphCache stores each cached query's answer set as a bitset over dataset
//! graph ids, and the Candidate Set Pruner is pure bitset algebra
//! (`C = (C_M ∩ ⋂ A(h')) \ S`). A dedicated implementation keeps the hot
//! operations branch-light and avoids an external dependency.

use serde::{Deserialize, Serialize};

const BITS: usize = 64;

/// A fixed-capacity bitset over the universe `0..len`.
///
/// All binary operations require both operands to share the same universe
/// size and panic otherwise: mixing answer sets of different datasets is a
/// logic error we want to catch loudly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    len: usize,
    blocks: Vec<u64>,
}

impl BitSet {
    /// Empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet { len, blocks: vec![0; len.div_ceil(BITS)] }
    }

    /// Full set over the universe `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet { len, blocks: vec![!0u64; len.div_ceil(BITS)] };
        s.trim_tail();
        s
    }

    /// Build from an iterator of member indices.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        crate::simd::popcount_words(&self.blocks)
    }

    /// `true` iff no members.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Membership test.
    ///
    /// # Panics
    /// Panics if `i >= universe`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of universe {}", self.len);
        self.blocks[i / BITS] & (1u64 << (i % BITS)) != 0
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of universe {}", self.len);
        let block = &mut self.blocks[i / BITS];
        let mask = 1u64 << (i % BITS);
        let newly = *block & mask == 0;
        *block |= mask;
        newly
    }

    /// Remove `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of universe {}", self.len);
        let block = &mut self.blocks[i / BITS];
        let mask = 1u64 << (i % BITS);
        let was = *block & mask != 0;
        *block &= !mask;
        was
    }

    /// Remove all members.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check(other);
        crate::simd::or_words(&mut self.blocks, &other.blocks);
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check(other);
        crate::simd::and_words(&mut self.blocks, &other.blocks);
    }

    /// `self \= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.check(other);
        crate::simd::andnot_words(&mut self.blocks, &other.blocks);
    }

    /// `true` iff `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check(other);
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the sets share no member.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.check(other);
        self.blocks.iter().zip(&other.blocks).all(|(a, b)| a & b == 0)
    }

    /// `|self ∩ other|` without materialising the intersection.
    pub fn intersect_count(&self, other: &BitSet) -> usize {
        self.check(other);
        crate::simd::and_popcount_words(&self.blocks, &other.blocks)
    }

    /// `|self ∩ other|` — long-form alias of [`BitSet::intersect_count`].
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.intersect_count(other)
    }

    /// `|self \ other|` without materialising the difference.
    pub fn difference_count(&self, other: &BitSet) -> usize {
        self.check(other);
        crate::simd::andnot_popcount_words(&self.blocks, &other.blocks)
    }

    /// Iterator over the members of `self ∩ other`, ascending, computed one
    /// word at a time — no temporary set is allocated.
    pub fn intersection_ones<'a>(&'a self, other: &'a BitSet) -> PairOnes<'a> {
        self.check(other);
        PairOnes::new(&self.blocks, &other.blocks, false)
    }

    /// Iterator over the members of `self \ other`, ascending, computed one
    /// word at a time — no temporary set is allocated.
    pub fn difference_ones<'a>(&'a self, other: &'a BitSet) -> PairOnes<'a> {
        self.check(other);
        PairOnes::new(&self.blocks, &other.blocks, true)
    }

    /// Iterator over member indices in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over the set bits in ascending order — the hot-path name for
    /// [`BitSet::iter`]. Use this instead of `to_vec()` when the indices are
    /// only walked once: it touches one word at a time and never allocates.
    #[inline]
    pub fn ones(&self) -> Iter<'_> {
        self.iter()
    }

    /// Make this set full over its universe (all bits set, tail trimmed).
    pub fn set_all(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = !0u64);
        self.trim_tail();
    }

    /// `self ∩= members`, where `members` yields indices in **strictly
    /// ascending** order (e.g. a sorted posting list). Works word-parallel:
    /// a 64-bit mask is accumulated per block and applied in one `&=`, and
    /// blocks with no member are zeroed wholesale — no temporary set is
    /// materialized.
    ///
    /// # Panics
    /// Panics if any index is `>= universe`. Debug-asserts ascending order.
    pub fn intersect_with_sorted(&mut self, members: impl IntoIterator<Item = usize>) {
        let mut word = 0usize;
        let mut mask = 0u64;
        let mut prev: Option<usize> = None;
        for i in members {
            assert!(i < self.len, "index {i} out of universe {}", self.len);
            debug_assert!(prev.is_none_or(|p| p < i), "members must be strictly ascending");
            prev = Some(i);
            let w = i / BITS;
            if w != word {
                self.blocks[word] &= mask;
                for b in &mut self.blocks[word + 1..w] {
                    *b = 0;
                }
                word = w;
                mask = 0;
            }
            mask |= 1u64 << (i % BITS);
        }
        if let Some(first) = self.blocks.get_mut(word) {
            *first &= mask;
        }
        let tail = (word + 1).min(self.blocks.len());
        for b in &mut self.blocks[tail..] {
            *b = 0;
        }
    }

    /// `self ∩= { id | (id, c) ∈ postings, c >= need }` — the posting-list
    /// form of [`BitSet::intersect_with_sorted`], for `(id, count)` runs
    /// sorted by strictly ascending id. Runs the dispatched chunked kernel:
    /// the count filter is folded branch-free into the per-word mask and no
    /// temporary set (or filtering iterator) is materialized.
    ///
    /// # Panics
    /// Panics if any id is `>= universe`. Debug-asserts ascending order.
    pub fn intersect_with_postings(&mut self, postings: &[(u32, u32)], need: u32) {
        if let Some(&(last, _)) = postings.last() {
            // Sorted ascending, so the last id bounds them all.
            assert!((last as usize) < self.len, "index {last} out of universe {}", self.len);
        }
        debug_assert!(
            postings.windows(2).all(|w| w[0].0 < w[1].0),
            "postings must be strictly ascending by id"
        );
        crate::simd::intersect_postings(&mut self.blocks, postings, need);
    }

    /// Grow the universe to `new_len`, keeping all members. New indices
    /// `old_len..new_len` start absent. Universes never shrink — a smaller
    /// `new_len` is a logic error (dataset removals tombstone instead of
    /// compacting, precisely so ids stay stable).
    ///
    /// # Panics
    /// Panics if `new_len < universe`.
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len, "bitset universe cannot shrink: {} -> {new_len}", self.len);
        self.len = new_len;
        self.blocks.resize(new_len.div_ceil(BITS), 0);
    }

    /// Collect members into a `Vec<usize>` (ascending).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Append the members to `out` as comma-separated decimal ids,
    /// ascending (`1,17,230`; nothing for an empty set) — the text of a JSON
    /// id array without its brackets, byte-identical to the members joined
    /// with `,`. Space for the widest id is reserved once up front; each id
    /// is written two digits at a time from a lookup table, with no
    /// per-id allocation and no `fmt` machinery.
    pub fn write_ids(&self, out: &mut Vec<u8>) {
        let n = self.count();
        if n == 0 {
            return;
        }
        let mut digits = [0u8; 20];
        let widest = write_decimal(self.len as u64 - 1, &mut digits);
        out.reserve(n * (widest.len() + 1));
        let mut ids = self.iter();
        if let Some(first) = ids.next() {
            out.extend_from_slice(write_decimal(first as u64, &mut digits));
        }
        for id in ids {
            out.push(b',');
            out.extend_from_slice(write_decimal(id as u64, &mut digits));
        }
    }

    /// Approximate heap footprint in bytes (memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u64>()
    }

    #[inline]
    fn check(&self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset universe mismatch: {} vs {}", self.len, other.len);
    }

    fn trim_tail(&mut self) {
        let rem = self.len % BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Render `v` in decimal into the tail of `buf` and return the digits.
fn write_decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[v as usize * 2..v as usize * 2 + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    &buf[at..]
}

/// Iterator over the members of a [`BitSet`].
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BITS + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the members of `a ∩ b` or `a \ b` (see
/// [`BitSet::intersection_ones`] / [`BitSet::difference_ones`]): each
/// combined word is computed lazily when reached, so walking the pair costs
/// no allocation and touches each block once.
pub struct PairOnes<'a> {
    a: &'a [u64],
    b: &'a [u64],
    /// `false`: `a & b`; `true`: `a & !b`.
    invert: bool,
    block_idx: usize,
    current: u64,
}

impl<'a> PairOnes<'a> {
    fn new(a: &'a [u64], b: &'a [u64], invert: bool) -> Self {
        let current = match (a.first(), b.first()) {
            (Some(&x), Some(&y)) => x & if invert { !y } else { y },
            _ => 0,
        };
        PairOnes { a, b, invert, block_idx: 0, current }
    }
}

impl Iterator for PairOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BITS + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.a.len() {
                return None;
            }
            let y = self.b[self.block_idx];
            self.current = self.a[self.block_idx] & if self.invert { !y } else { y };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.to_vec(), vec![0, 129]);
    }

    #[test]
    fn full_respects_universe() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        let e = BitSet::full(0);
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_indices(100, [1, 2, 3, 50, 99]);
        let b = BitSet::from_indices(100, [2, 3, 4, 99]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4, 50, 99]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![2, 3, 99]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 50]);

        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
        assert_eq!(a.intersection_count(&b), 3);
        assert!(!a.is_disjoint(&b));
        assert!(d.is_disjoint(&i));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_range_panics() {
        let mut a = BitSet::new(10);
        a.insert(10);
    }

    #[test]
    fn iter_matches_contains() {
        let members = [0usize, 63, 64, 65, 127, 128, 199];
        let s = BitSet::from_indices(200, members);
        assert_eq!(s.to_vec(), members.to_vec());
        for m in members {
            assert!(s.contains(m));
        }
    }

    #[test]
    fn ones_at_word_boundaries() {
        // 63 / 64 / 65 straddle the u64 block edge; 127/128 the next one.
        let members = [63usize, 64, 65, 127, 128];
        let s = BitSet::from_indices(130, members);
        assert_eq!(s.ones().collect::<Vec<_>>(), members.to_vec());
        // A universe ending exactly on a boundary and one bit short of it.
        for len in [64usize, 65, 128] {
            let full = BitSet::full(len);
            assert_eq!(full.ones().count(), len);
            assert_eq!(full.ones().last(), Some(len - 1));
        }
        assert_eq!(BitSet::new(64).ones().next(), None);
        assert_eq!(BitSet::new(0).ones().next(), None);
    }

    #[test]
    fn set_all_matches_full() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let mut s = BitSet::new(len);
            s.set_all();
            assert_eq!(s, BitSet::full(len), "set_all != full for len {len}");
            assert_eq!(s.count(), len);
        }
    }

    #[test]
    fn intersect_with_sorted_matches_intersect_with() {
        let base: Vec<usize> = vec![0, 1, 62, 63, 64, 65, 100, 127, 128, 129];
        let other: Vec<usize> = vec![1, 63, 64, 90, 128];
        let mut a = BitSet::from_indices(130, base.iter().copied());
        let mut b = a.clone();
        a.intersect_with(&BitSet::from_indices(130, other.iter().copied()));
        b.intersect_with_sorted(other.iter().copied());
        assert_eq!(a, b);
        // Empty member list zeroes everything.
        let mut c = BitSet::from_indices(130, base.iter().copied());
        c.intersect_with_sorted(std::iter::empty());
        assert!(c.is_empty());
        // Empty universe tolerates an empty member list.
        let mut e = BitSet::new(0);
        e.intersect_with_sorted(std::iter::empty());
        assert!(e.is_empty());
        // Members only in a late word: earlier words must be zeroed.
        let mut d = BitSet::from_indices(200, [0usize, 64, 128, 199]);
        d.intersect_with_sorted([199usize]);
        assert_eq!(d.to_vec(), vec![199]);
    }

    #[test]
    fn lazy_counts_and_pair_iterators_match_materialized() {
        let a = BitSet::from_indices(200, [0usize, 1, 63, 64, 65, 127, 128, 129, 199]);
        let b = BitSet::from_indices(200, [1usize, 64, 90, 128, 199]);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        let mut diff = a.clone();
        diff.difference_with(&b);
        assert_eq!(a.intersect_count(&b), inter.count());
        assert_eq!(a.intersection_count(&b), inter.count());
        assert_eq!(a.difference_count(&b), diff.count());
        assert_eq!(a.intersection_ones(&b).collect::<Vec<_>>(), inter.to_vec());
        assert_eq!(a.difference_ones(&b).collect::<Vec<_>>(), diff.to_vec());
        // Empty-universe pairs terminate immediately.
        let e = BitSet::new(0);
        assert_eq!(e.intersection_ones(&e).next(), None);
        assert_eq!(e.difference_ones(&e).next(), None);
    }

    #[test]
    fn intersect_with_postings_matches_filtered_sorted() {
        let base: Vec<usize> = vec![0, 1, 62, 63, 64, 65, 100, 127, 128, 129];
        let postings: Vec<(u32, u32)> = vec![(1, 2), (63, 1), (64, 3), (90, 9), (128, 2)];
        for need in [1u32, 2, 3, 4] {
            let mut a = BitSet::from_indices(130, base.iter().copied());
            let mut b = a.clone();
            a.intersect_with_sorted(
                postings.iter().filter(|&&(_, c)| c >= need).map(|&(id, _)| id as usize),
            );
            b.intersect_with_postings(&postings, need);
            assert_eq!(a, b, "need {need}");
        }
        // Empty posting list clears; empty universe tolerates empty list.
        let mut c = BitSet::from_indices(130, base.iter().copied());
        c.intersect_with_postings(&[], 1);
        assert!(c.is_empty());
        let mut e = BitSet::new(0);
        e.intersect_with_postings(&[], 1);
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn intersect_with_postings_rejects_out_of_universe() {
        let mut a = BitSet::new(64);
        a.intersect_with_postings(&[(10, 1), (64, 1)], 1);
    }

    #[test]
    fn grow_keeps_members_and_extends_universe() {
        let mut s = BitSet::from_indices(10, [0, 9]);
        s.grow(10); // no-op growth is allowed
        s.grow(129);
        assert_eq!(s.universe(), 129);
        assert_eq!(s.to_vec(), vec![0, 9]);
        assert!(!s.contains(10));
        assert!(s.insert(128));
        assert_eq!(s.to_vec(), vec![0, 9, 128]);
        // Grown sets interoperate with fresh sets of the new universe.
        let mut f = BitSet::full(129);
        f.intersect_with(&s);
        assert_eq!(f.to_vec(), vec![0, 9, 128]);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        let mut s = BitSet::new(10);
        s.grow(9);
    }

    #[test]
    fn write_ids_renders_every_digit_width() {
        let mut buf = [0u8; 20];
        for v in [0u64, 9, 10, 99, 100, 999, 1000, 12_345, 10u64.pow(19), u64::MAX] {
            assert_eq!(write_decimal(v, &mut buf), v.to_string().as_bytes());
        }
        let members = [0usize, 7, 10, 99, 100, 1_000, 99_999, 1_000_000];
        let mut out = Vec::new();
        BitSet::from_indices(1_000_001, members).write_ids(&mut out);
        assert_eq!(out, b"0,7,10,99,100,1000,99999,1000000");
        let mut out = Vec::new();
        BitSet::new(0).write_ids(&mut out);
        BitSet::new(100).write_ids(&mut out);
        assert!(out.is_empty(), "an empty set writes nothing");
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::from_indices(20, [5, 6]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }
}
