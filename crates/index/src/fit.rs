//! Fit signatures: the pre-test of every "contained in the query" probe.
//!
//! An indexed graph `G` can be contained in a query `q` only if each of its
//! feature keys occurs in `q` at least as often, i.e. only if
//! `Σ_f min(cnt_G(f), cnt_q(f)) == total(G)`. That identity implies two
//! conditions that read no posting: `total(G) ≤ total(q)` (the *total cut*)
//! and `mask(G) ⊆ mask(q)`, where a mask sets one of 64 bits per key. The
//! super probes of [`crate::PathTrie`], [`crate::QueryIndex`] and
//! [`crate::TreeIndex`] test both on every indexed graph and confirm the
//! identity exactly on the survivors only, so no candidate set changes.
//! Build and probe both hash keys through [`key_bit`].

/// The mask bit of one feature key: a Fibonacci multiply, whose top six
/// bits pick the bit.
#[inline]
pub(crate) fn key_bit(key: u64) -> u64 {
    1 << (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// The mask of a key set.
pub(crate) fn mask(keys: impl IntoIterator<Item = u64>) -> u64 {
    keys.into_iter().fold(0, |m, k| m | key_bit(k))
}

/// `true` iff a graph with signature `(total, mask)` passes the total cut
/// and the mask test against the query's `(q_total, q_mask)`.
#[inline]
pub(crate) fn fits(total: u64, mask: u64, q_total: u64, q_mask: u64) -> bool {
    total <= q_total && mask & !q_mask == 0
}

/// `true` iff every key of `entry` is present in `query` with at least the
/// entry's count. Both lists are sorted by key, keys unique.
pub(crate) fn dominated(entry: &[(u64, u32)], query: &[(u64, u32)]) -> bool {
    let mut q = query.iter();
    entry.iter().all(|&(k, c)| {
        q.by_ref().find(|&&(qk, _)| qk >= k).is_some_and(|&(qk, qc)| qk == k && qc >= c)
    })
}
