//! Runtime-dispatched word/SIMD kernels for the hot set-algebra loops.
//!
//! Every filter, prune, and probe stage bottoms out in a handful of flat
//! loops: bitwise AND/OR/ANDNOT over `u64` blocks, population counts, and
//! sorted posting-list intersection. This module compiles each of them
//! two ways and picks one for the running CPU, **once**, via
//! [`std::arch::is_x86_feature_detected!`]:
//!
//! * `"avx2"` — 256-bit vectors + hardware `POPCNT` (the AND/OR/count
//!   loops autovectorize to `vpand`/`vpor`/nibble-LUT popcount; the
//!   posting merge uses explicit AVX2 intrinsics);
//! * `"scalar"` — the portable reference in [`scalar`], always compiled:
//!   every CPU without AVX2, and the only tier off x86-64.
//!
//! The dispatched entry points are drop-in equal to their [`scalar`]
//! counterparts; the equivalence is property-tested across word-boundary
//! sizes in `tests/prop.rs`, and gcbench times them as
//! `graph.bitset_ns_per_kword` and `graph.intersect_pairs_ns_per_elem`.
//! [`kernel_name`] exposes the chosen tier so deployments can observe
//! which code path is live (the `kernel_dispatch` gauge of `GET /stats`
//! and the demo's End-User Monitor).
//!
//! [`prefetch`] is the one non-arithmetic kernel: a cache-line hint the
//! verify stage issues for the next candidate's arrays.
//!
//! This is the one module in the workspace allowed to use `unsafe`: calling
//! a `#[target_feature]` function from a non-feature context, the raw
//! vector loads of the posting merge, and the prefetch intrinsic.
//! Everything else stays `#![deny(unsafe_code)]`.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};

const UNKNOWN: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;

/// Tier chosen at first use; `UNKNOWN` until then. Relaxed is enough: the
/// stored value is a pure function of the CPU, so racing initializers
/// agree.
static LEVEL: AtomicU8 = AtomicU8::new(UNKNOWN);

#[inline]
fn level() -> u8 {
    match LEVEL.load(Ordering::Relaxed) {
        UNKNOWN => detect(),
        l => l,
    }
}

#[cold]
fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    let l = if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("popcnt")
    {
        AVX2
    } else {
        SCALAR
    };
    #[cfg(not(target_arch = "x86_64"))]
    let l = SCALAR;
    LEVEL.store(l, Ordering::Relaxed);
    l
}

/// Name of the dispatched kernel tier: `"avx2"` or `"scalar"`.
///
/// Detection runs on first call and is cached for the process lifetime.
pub fn kernel_name() -> &'static str {
    match level() {
        AVX2 => "avx2",
        _ => "scalar",
    }
}

/// Portable reference implementations — always compiled, dispatched to on
/// machines without the detected features, and the ground truth the
/// dispatched kernels are property-tested against.
///
/// Bodies are `#[inline(always)]` so the `#[target_feature]` tiers in this
/// module can inline them and have LLVM recompile the very same loops with
/// wider instructions — one source of truth for the semantics.
pub mod scalar {
    /// `a[i] &= b[i]` over the common prefix.
    #[inline(always)]
    pub fn and_words(a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= *y;
        }
    }

    /// `a[i] |= b[i]` over the common prefix.
    #[inline(always)]
    pub fn or_words(a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x |= *y;
        }
    }

    /// `a[i] &= !b[i]` over the common prefix.
    #[inline(always)]
    pub fn andnot_words(a: &mut [u64], b: &[u64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x &= !*y;
        }
    }

    /// Total set bits in `a`.
    #[inline(always)]
    pub fn popcount_words(a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total set bits of `a & b` without materializing it.
    #[inline(always)]
    pub fn and_popcount_words(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (*x & *y).count_ones() as usize).sum()
    }

    /// Total set bits of `a & !b` without materializing it.
    #[inline(always)]
    pub fn andnot_popcount_words(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (*x & !*y).count_ones() as usize).sum()
    }

    /// `blocks ∩= { id | (id, c) ∈ postings, c >= need }`, with `postings`
    /// sorted by strictly ascending id, `id / 64 < blocks.len()` for every
    /// posting. One 64-bit mask is accumulated per block (the count filter
    /// folded in branch-free) and applied in a single `&=`; blocks with no
    /// posting are zeroed wholesale.
    #[inline(always)]
    pub fn intersect_postings(blocks: &mut [u64], postings: &[(u32, u32)], need: u32) {
        let mut word = 0usize;
        let mut mask = 0u64;
        for &(id, c) in postings {
            let i = id as usize;
            let w = i >> 6;
            if w != word {
                blocks[word] &= mask;
                for b in &mut blocks[word + 1..w] {
                    *b = 0;
                }
                word = w;
                mask = 0;
            }
            mask |= u64::from(c >= need) << (i & 63);
        }
        if let Some(first) = blocks.get_mut(word) {
            *first &= mask;
        }
        let tail = (word + 1).min(blocks.len());
        for b in &mut blocks[tail..] {
            *b = 0;
        }
    }

    /// Linear posting-pair intersection: push each `e ∈ cur` (ascending,
    /// unique) that has a pair `(e, c)` in `list` (ascending by id) with
    /// `c >= need`. The reference semantics for
    /// [`intersect_pairs`](super::intersect_pairs) and for
    /// `gc_index::merge::intersect_two_pointer`.
    #[inline(always)]
    pub fn intersect_pairs(cur: &[u32], list: &[(u32, u32)], need: u32, out: &mut Vec<u32>) {
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
}

// The AVX2 posting merge loads `(u32, u32)` pairs as raw 256-bit vectors;
// that is only sound while a pair is exactly two packed little words.
#[cfg(target_arch = "x86_64")]
const _: () = {
    assert!(std::mem::size_of::<(u32, u32)>() == 8);
    assert!(std::mem::offset_of!((u32, u32), 0) == 0);
    assert!(std::mem::offset_of!((u32, u32), 1) == 4);
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::scalar;
    use std::arch::x86_64::*;

    // The word kernels reuse the scalar bodies verbatim; `#[target_feature]`
    // makes LLVM recompile them with POPCNT and 256-bit vectors enabled.

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn and_words_avx2(a: &mut [u64], b: &[u64]) {
        scalar::and_words(a, b)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn or_words_avx2(a: &mut [u64], b: &[u64]) {
        scalar::or_words(a, b)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn andnot_words_avx2(a: &mut [u64], b: &[u64]) {
        scalar::andnot_words(a, b)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn popcount_words_avx2(a: &[u64]) -> usize {
        scalar::popcount_words(a)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn and_popcount_words_avx2(a: &[u64], b: &[u64]) -> usize {
        scalar::and_popcount_words(a, b)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn andnot_popcount_words_avx2(a: &[u64], b: &[u64]) -> usize {
        scalar::andnot_popcount_words(a, b)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub fn intersect_postings_avx2(blocks: &mut [u64], postings: &[(u32, u32)], need: u32) {
        scalar::intersect_postings(blocks, postings, need)
    }

    /// AVX2 posting-pair intersection: semantics of
    /// [`scalar::intersect_pairs`]. Each candidate id is broadcast and
    /// compared against 8 posting ids at once — two 256-bit loads over 8
    /// `(id, count)` pairs, even (id) lanes packed into one vector — with a
    /// monotone block cursor, so a whole block of misses costs one compare
    /// instead of eight. The sub-8-pair tail runs scalar.
    #[target_feature(enable = "avx2")]
    pub fn intersect_pairs_avx2(cur: &[u32], list: &[(u32, u32)], need: u32, out: &mut Vec<u32>) {
        out.clear();
        let even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let mut b = 0usize;
        for &e in cur {
            // Skip whole blocks strictly below `e` (cursor is monotone, so
            // this is linear in `list.len() / 8` across the entire call).
            while b + 8 <= list.len() && list[b + 7].0 < e {
                b += 8;
            }
            if b + 8 <= list.len() {
                // SAFETY: `b + 8 <= list.len()` and a pair is exactly 8
                // bytes (const-asserted above), so the 64 bytes starting at
                // `list[b]` are in bounds; the loads are unaligned.
                let (v0, v1) = unsafe {
                    let p = list.as_ptr().add(b).cast::<__m256i>();
                    (_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)))
                };
                let ids0 = _mm256_permutevar8x32_epi32(v0, even);
                let ids1 = _mm256_permutevar8x32_epi32(v1, even);
                let ids = _mm256_inserti128_si256(ids0, _mm256_castsi256_si128(ids1), 1);
                let eq = _mm256_cmpeq_epi32(ids, _mm256_set1_epi32(e as i32));
                let hit = _mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32;
                if hit != 0 {
                    let lane = hit.trailing_zeros() as usize;
                    if list[b + lane].1 >= need {
                        out.push(e);
                    }
                    b += lane + 1;
                }
                // No lane matched with the block's last id >= e: `e` is
                // absent; the cursor stays for the next candidate.
            } else {
                while b < list.len() && list[b].0 < e {
                    b += 1;
                }
                if b < list.len() && list[b].0 == e {
                    if list[b].1 >= need {
                        out.push(e);
                    }
                    b += 1;
                }
            }
        }
    }
}

macro_rules! dispatched {
    ($(#[$doc:meta])* fn $name:ident / $avx2:ident
        ( $($arg:ident : $ty:ty),* ) $(-> $ret:ty)?) => {
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if level() == AVX2 {
                // SAFETY: `level()` only reports AVX2 after
                // `is_x86_feature_detected!` confirmed avx2 and popcnt on
                // this CPU at runtime.
                return unsafe { x86::$avx2($($arg),*) };
            }
            scalar::$name($($arg),*)
        }
    };
}

dispatched! {
    /// Dispatched [`scalar::and_words`]: `a[i] &= b[i]`.
    fn and_words / and_words_avx2 (a: &mut [u64], b: &[u64])
}

dispatched! {
    /// Dispatched [`scalar::or_words`]: `a[i] |= b[i]`.
    fn or_words / or_words_avx2 (a: &mut [u64], b: &[u64])
}

dispatched! {
    /// Dispatched [`scalar::andnot_words`]: `a[i] &= !b[i]`.
    fn andnot_words / andnot_words_avx2 (a: &mut [u64], b: &[u64])
}

dispatched! {
    /// Dispatched [`scalar::popcount_words`]: total set bits.
    fn popcount_words / popcount_words_avx2 (a: &[u64]) -> usize
}

dispatched! {
    /// Dispatched [`scalar::and_popcount_words`]: `|a ∩ b|` without
    /// materializing the intersection.
    fn and_popcount_words / and_popcount_words_avx2
        (a: &[u64], b: &[u64]) -> usize
}

dispatched! {
    /// Dispatched [`scalar::andnot_popcount_words`]: `|a \ b|` without
    /// materializing the difference.
    fn andnot_popcount_words / andnot_popcount_words_avx2
        (a: &[u64], b: &[u64]) -> usize
}

dispatched! {
    /// Dispatched [`scalar::intersect_postings`]: chunked sorted-posting
    /// intersection straight into bitset blocks.
    fn intersect_postings / intersect_postings_avx2
        (blocks: &mut [u64], postings: &[(u32, u32)], need: u32)
}

/// How much longer than `cur` the posting list must be before the AVX2
/// block-scan beats the linear two-pointer merge. The vector path pays a
/// broadcast-compare per `cur` element, so it only wins when block
/// skipping lets it hop most of the list (measured crossover ≈ 8× on
/// Zen-class cores; below it the scalar walk is up to 4× faster).
const PAIR_SCAN_MIN_RATIO: usize = 8;

/// Where exponential-search galloping overtakes the block-scan again: the
/// scan is linear in `list` (one 8-pair block per step), so once the list
/// is hundreds of times the candidate run, logarithmic skipping wins.
/// Measured crossover sits between 128× and 512×.
const PAIR_SCAN_MAX_RATIO: usize = 256;

/// Whether the AVX2 pair block-scan is live on this machine *and* expected
/// to win on these lengths — the window between the two-pointer crossover
/// (`PAIR_SCAN_MIN_RATIO`, 8×) and the galloping crossover
/// (`PAIR_SCAN_MAX_RATIO`, 256×). Adaptive merges use this to route the
/// middle-skew shapes here instead of galloping.
#[inline]
pub fn pair_scan_wins(cur_len: usize, list_len: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        level() == AVX2
            && list_len >= PAIR_SCAN_MIN_RATIO * cur_len.max(1)
            && list_len < PAIR_SCAN_MAX_RATIO * cur_len.max(1)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cur_len, list_len);
        false
    }
}

/// Cache-line size the prefetch walk steps by (every x86-64 part in use).
const CACHE_LINE: usize = 64;

/// Ask the CPU to pull every cache line of `s` into L1 (`_mm_prefetch`
/// with the T0 hint on x86-64; a no-op elsewhere). Only a hint: nothing is
/// read, a line that arrives late or is evicted again merely costs the miss
/// it was meant to hide, and no result depends on it. Empty and
/// zero-sized-type slices prefetch nothing.
#[inline]
pub fn prefetch<T>(s: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(s);
        if bytes == 0 {
            return;
        }
        let base = s.as_ptr().cast::<i8>();
        let lead = base as usize % CACHE_LINE;
        let first = base.wrapping_sub(lead);
        for line in 0..(lead + bytes).div_ceil(CACHE_LINE) {
            // SAFETY: a prefetch reads no value and never faults, whatever
            // the address; SSE, which provides it, is baseline on x86-64.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(line * CACHE_LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = s;
}

/// Dispatched [`scalar::intersect_pairs`]: SIMD posting-pair block-scan on
/// AVX2 machines when the list is the much longer side (see
/// `PAIR_SCAN_MIN_RATIO`), the portable linear merge elsewhere.
#[inline]
pub fn intersect_pairs(cur: &[u32], list: &[(u32, u32)], need: u32, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if level() == AVX2 && list.len() >= PAIR_SCAN_MIN_RATIO * cur.len().max(1) {
        // SAFETY: `level()` confirmed AVX2 at runtime.
        return unsafe { x86::intersect_pairs_avx2(cur, list, need, out) };
    }
    scalar::intersect_pairs(cur, list, need, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_is_stable_and_valid() {
        let name = kernel_name();
        assert!(["avx2", "scalar"].contains(&name), "unexpected tier {name}");
        assert_eq!(kernel_name(), name, "detection must be cached");
    }

    fn words(bits: &[usize], len: usize) -> Vec<u64> {
        let mut w = vec![0u64; len];
        for &b in bits {
            w[b / 64] |= 1 << (b % 64);
        }
        w
    }

    #[test]
    fn dispatched_word_kernels_match_scalar() {
        let a0 = words(&[0, 1, 63, 64, 65, 127, 128, 200], 4);
        let b0 = words(&[1, 63, 65, 100, 128, 199, 255], 4);
        for (dispatched, reference) in [
            (and_words as fn(&mut [u64], &[u64]), scalar::and_words as fn(&mut [u64], &[u64])),
            (or_words, scalar::or_words),
            (andnot_words, scalar::andnot_words),
        ] {
            let (mut x, mut y) = (a0.clone(), a0.clone());
            dispatched(&mut x, &b0);
            reference(&mut y, &b0);
            assert_eq!(x, y);
        }
        assert_eq!(popcount_words(&a0), scalar::popcount_words(&a0));
        assert_eq!(and_popcount_words(&a0, &b0), scalar::and_popcount_words(&a0, &b0));
        assert_eq!(andnot_popcount_words(&a0, &b0), scalar::andnot_popcount_words(&a0, &b0));
    }

    #[test]
    fn intersect_pairs_matches_scalar_across_block_tails() {
        // Exercise both the 8-pair vector blocks and the scalar tail, with
        // ids straddling block edges and counts filtering.
        let list: Vec<(u32, u32)> = (0..100u32).map(|i| (i * 3, 1 + i % 4)).collect();
        for cur_len in [0usize, 1, 7, 8, 9, 33, 100] {
            let cur: Vec<u32> = (0..cur_len as u32).map(|i| i * 4).collect();
            for need in [1u32, 2, 4, 9] {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                intersect_pairs(&cur, &list, need, &mut got);
                scalar::intersect_pairs(&cur, &list, need, &mut want);
                assert_eq!(got, want, "cur_len {cur_len} need {need}");
            }
        }
    }

    #[test]
    fn intersect_postings_matches_manual() {
        let mut blocks = words(&[0, 5, 63, 64, 65, 127, 128, 129], 3);
        let postings = [(0u32, 2u32), (5, 1), (64, 2), (127, 2), (129, 1)];
        intersect_postings(&mut blocks, &postings, 2);
        assert_eq!(blocks, words(&[0, 64, 127], 3));
        // Empty posting list clears everything.
        let mut blocks = words(&[1, 70], 2);
        intersect_postings(&mut blocks, &[], 1);
        assert_eq!(blocks, vec![0u64; 2]);
        // Empty blocks tolerate an empty posting list.
        intersect_postings(&mut [], &[], 1);
    }

    #[test]
    fn prefetch_accepts_any_slice() {
        // A hint over empty, zero-sized-type, unaligned and multi-line
        // slices: nothing to observe but that it returns.
        prefetch::<u64>(&[]);
        prefetch(&[(); 1000]);
        prefetch(&[(); 0]);
        let v: Vec<u8> = (0..=255).collect();
        prefetch(&v[1..]);
        prefetch(&v[63..65]);
        prefetch(&v[255..]);
    }
}
