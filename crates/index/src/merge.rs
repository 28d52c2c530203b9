//! Sorted posting-list intersection kernels for the k-way sub-case merge.
//!
//! One step of [`crate::QueryIndex::sub_case_candidates_into`] intersects
//! the running candidate run `cur` (sorted entry ids) with one posting list
//! (sorted `(id, count)` pairs), keeping ids whose count dominates the
//! query's requirement. Two kernels compute that step:
//!
//! * [`intersect_two_pointer`] — the classic linear merge, optimal when the
//!   inputs have comparable lengths;
//! * [`intersect_gallop`] — walks the *shorter* side and locates each of
//!   its ids in the longer side by exponential (galloping) search from a
//!   monotone cursor: `O(short · log(long/short))`, which wins when the
//!   lengths are wildly skewed (needle-tail posting distributions).
//!
//! A third kernel, [`intersect_simd`], is the word/SIMD-parallel
//! counterpart of the linear merge: it defers to
//! [`gc_graph::simd::intersect_pairs`], which compares one candidate
//! against 8 posting ids per step on AVX2 machines (runtime-dispatched,
//! portable fallback identical to [`intersect_two_pointer`]).
//!
//! [`intersect_adaptive`] picks per step by the length ratio against a
//! cutoff (the indexes pass `GALLOP_CUTOFF`, 8): galloping for wildly skewed
//! lengths, the dispatched SIMD merge otherwise — except the middle-skew
//! band where the AVX2 block-scan outruns exponential search
//! ([`gc_graph::simd::pair_scan_wins`]), which stays SIMD. The kernels are
//! cross-checked on adversarial skews in this module's tests and under
//! randomized inputs in `tests/prop.rs` (`gallop_matches_two_pointer`);
//! all of them write the same result: sorted ids `e ∈ cur` with a
//! posting `(e, c)` in `list` where `c >= need`.

/// Length ratio (longer/shorter) at or above which one step of the
/// indexes' k-way sub-case merge gallops (see [`intersect_adaptive`]).
pub(crate) const GALLOP_CUTOFF: usize = 8;

/// First index in `keys[lo..]` (keys ascending under `key`) whose key is
/// `>= target`, found by exponential search from `lo`.
#[inline]
pub(crate) fn gallop_to<T>(items: &[T], lo: usize, target: u32, key: impl Fn(&T) -> u32) -> usize {
    let mut step = 1usize;
    let mut hi = lo;
    // Widen until the key at `hi` passes the target (or the slice ends).
    while hi < items.len() && key(&items[hi]) < target {
        hi += step;
        step <<= 1;
    }
    let lo = hi.saturating_sub(step >> 1).max(lo);
    let hi = hi.min(items.len());
    lo + items[lo..hi].partition_point(|x| key(x) < target)
}

/// Linear two-pointer intersection step (see module docs for semantics).
pub fn intersect_two_pointer(cur: &[u32], list: &[(u32, u32)], need: u32, out: &mut Vec<u32>) {
    out.clear();
    let (mut a, mut b) = (0usize, 0usize);
    while a < cur.len() && b < list.len() {
        let (e, c) = list[b];
        match cur[a].cmp(&e) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                if c >= need {
                    out.push(e);
                }
                a += 1;
                b += 1;
            }
        }
    }
}

/// Galloping intersection step: iterates the shorter input, exponential
/// search in the longer (see module docs for semantics).
pub fn intersect_gallop(cur: &[u32], list: &[(u32, u32)], need: u32, out: &mut Vec<u32>) {
    out.clear();
    if cur.len() <= list.len() {
        let mut pos = 0usize;
        for &e in cur {
            pos = gallop_to(list, pos, e, |&(id, _)| id);
            match list.get(pos) {
                Some(&(id, c)) if id == e => {
                    if c >= need {
                        out.push(e);
                    }
                    pos += 1;
                }
                Some(_) => {}
                None => break,
            }
        }
    } else {
        let mut pos = 0usize;
        for &(e, c) in list {
            pos = gallop_to(cur, pos, e, |&id| id);
            match cur.get(pos) {
                Some(&id) if id == e => {
                    if c >= need {
                        out.push(e);
                    }
                    pos += 1;
                }
                Some(_) => {}
                None => break,
            }
        }
    }
}

/// Word/SIMD-parallel linear intersection step: semantics identical to
/// [`intersect_two_pointer`], executed by the runtime-dispatched
/// [`gc_graph::simd::intersect_pairs`] kernel (AVX2 8-wide id compares on
/// machines that have it, the portable linear merge elsewhere).
pub fn intersect_simd(cur: &[u32], list: &[(u32, u32)], need: u32, out: &mut Vec<u32>) {
    gc_graph::simd::intersect_pairs(cur, list, need, out)
}

/// Per-step kernel selection: gallop when the longer input is at least
/// `gallop_cutoff` times the shorter one, the dispatched SIMD linear merge
/// ([`intersect_simd`]) otherwise. A cutoff of 1 gallops always;
/// `usize::MAX` never does. One carve-out on AVX2 machines: in the
/// middle-skew band where the vector block-scan beats exponential search
/// ([`gc_graph::simd::pair_scan_wins`], roughly 8×–256× list-over-run),
/// the SIMD kernel is preferred even past the gallop cutoff.
pub fn intersect_adaptive(
    cur: &[u32],
    list: &[(u32, u32)],
    need: u32,
    gallop_cutoff: usize,
    out: &mut Vec<u32>,
) {
    let (short, long) = (cur.len().min(list.len()), cur.len().max(list.len()));
    if long >= gallop_cutoff.saturating_mul(short.max(1))
        && !gc_graph::simd::pair_scan_wins(cur.len(), list.len())
    {
        intersect_gallop(cur, list, need, out);
    } else {
        intersect_simd(cur, list, need, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(cur: &[u32], list: &[(u32, u32)], need: u32) -> Vec<u32> {
        let (mut a, mut b, mut c, mut d) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        intersect_two_pointer(cur, list, need, &mut a);
        intersect_gallop(cur, list, need, &mut b);
        intersect_adaptive(cur, list, need, 4, &mut c);
        intersect_simd(cur, list, need, &mut d);
        assert_eq!(a, b, "gallop diverged from two-pointer");
        assert_eq!(a, c, "adaptive diverged from two-pointer");
        assert_eq!(a, d, "simd diverged from two-pointer");
        a
    }

    #[test]
    fn basic_overlap_and_count_filter() {
        let cur = [1, 3, 5, 7];
        let list = [(0, 9), (3, 1), (5, 2), (8, 9)];
        assert_eq!(both(&cur, &list, 2), vec![5]);
        assert_eq!(both(&cur, &list, 1), vec![3, 5]);
    }

    #[test]
    fn empty_sides() {
        assert!(both(&[], &[(1, 1)], 1).is_empty());
        assert!(both(&[1], &[], 1).is_empty());
        assert!(both(&[], &[], 1).is_empty());
    }

    #[test]
    fn adversarial_skews_agree() {
        // A single candidate against a long run, and the converse skew.
        let long: Vec<(u32, u32)> = (0..10_000u32).map(|i| (i * 3, 1 + (i % 4))).collect();
        let cur = [29_997u32];
        assert_eq!(both(&cur, &long, 1), vec![29_997]);
        assert_eq!(both(&cur, &long, 4), vec![29_997]);
        let wide: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
        let needle = [(4_000u32, 3u32), (4_001, 3)];
        assert_eq!(both(&wide, &needle, 2), vec![4_000]);
    }

    #[test]
    fn full_overlap() {
        let ids: Vec<u32> = (0..512).collect();
        let list: Vec<(u32, u32)> = ids.iter().map(|&i| (i, 2)).collect();
        assert_eq!(both(&ids, &list, 2), ids);
        assert!(both(&ids, &list, 3).is_empty());
    }
}
