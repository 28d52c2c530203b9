//! The `/query` reply is written by hand ([`QueryReply::write_json`]), not
//! serialized: its bytes must be exactly what `serde_json` produces for the
//! equivalent [`QueryResponse`] — the type clients parse it with — for every
//! answer shape, both kinds, every plan, and scalars up to `u64::MAX`, and
//! whether the ids arrive pre-rendered (an exact hit's shared text) or as a
//! set.

use gc_graph::BitSet;
use gc_server::api::{AnswerIds, QueryReply};
use gc_server::QueryResponse;
use proptest::prelude::*;

/// Scalars drawn from the edges as well as the middle of `u64`.
fn scalar() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(edge, v)| match edge {
        0 => 0,
        1 => u64::MAX,
        2 => v % 1000,
        _ => v,
    })
}

/// Hand-written bytes, both ways of supplying the ids, against `serde_json`.
fn check(answer: &BitSet, kind: &'static str, plan: &'static str, n: &[u64], flags: [bool; 3]) {
    let [exact_hit, memo_hit, deadline_exceeded] = flags;
    let reply = |answer| QueryReply {
        answer,
        kind,
        exact_hit,
        memo_hit,
        plan,
        cm_size: n[0] as usize,
        definite: n[1] as usize,
        verified: n[2] as usize,
        sub_iso_tests: n[3],
        probe_tests: n[4],
        queue_us: n[5],
        parse_us: n[6],
        execute_us: n[7],
        deadline_exceeded,
    };
    let want = serde_json::to_string(&QueryResponse {
        answer: answer.to_vec(),
        kind: kind.into(),
        exact_hit,
        memo_hit,
        plan: plan.into(),
        cm_size: n[0] as usize,
        definite: n[1] as usize,
        verified: n[2] as usize,
        sub_iso_tests: n[3],
        probe_tests: n[4],
        queue_us: n[5],
        parse_us: n[6],
        execute_us: n[7],
        deadline_exceeded,
    })
    .unwrap();
    let mut rendered = Vec::new();
    answer.write_ids(&mut rendered);
    for ids in [AnswerIds::Set(answer), AnswerIds::Rendered(&rendered)] {
        let mut out = Vec::new();
        reply(ids).write_json(&mut out);
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_reply_equals_serialized_response(
        universe in 1usize..5_000,
        members in proptest::collection::vec(0usize..5_000, 0..60),
        kind in 0u8..2,
        plan in 0u8..3,
        n in proptest::collection::vec(scalar(), 8),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let answer = BitSet::from_indices(universe, members.into_iter().filter(|&m| m < universe));
        let kind = ["sub", "super"][kind as usize];
        let plan = ["", "filter", "bounded"][plan as usize];
        check(&answer, kind, plan, &n, [flags.0, flags.1, flags.2]);
    }
}

#[test]
fn empty_single_and_million_id_answers() {
    let n = [u64::MAX, 0, 7, u64::MAX, 1, 12, 345, 6_789];
    let million = 1_000_000;
    for answer in [
        BitSet::new(0),
        BitSet::new(10),
        BitSet::from_indices(10, [9usize]),
        BitSet::from_indices(million + 1, [million]),
        BitSet::full(million),
    ] {
        for (kind, plan) in [("sub", ""), ("super", "filter"), ("sub", "bounded")] {
            check(&answer, kind, plan, &n, [true, false, true]);
        }
    }
}
