//! The `/query` reply is written by hand ([`QueryReply::write_json`]), not
//! serialized: its bytes must be exactly what `serde_json` produces for the
//! equivalent [`QueryResponse`] — the type clients parse it with — for every
//! answer shape, both kinds, every plan, and scalars up to `u64::MAX`, and
//! whether the ids come from a hit's shared text or are rendered from the
//! set.

use gc_core::{AnswerText, QueryReport, QueryTiming};
use gc_graph::BitSet;
use gc_method::QueryKind;
use gc_server::api::QueryReply;
use gc_server::QueryResponse;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Scalars drawn from the edges as well as the middle of `u64`.
fn scalar() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(edge, v)| match edge {
        0 => 0,
        1 => u64::MAX,
        2 => v % 1000,
        _ => v,
    })
}

/// Hand-written bytes, with the ids rendered while writing, rendered into
/// a fresh text slot, and copied from an already rendered one, against
/// `serde_json`. `flags` are `[exact_hit, memo_hit, filter_skipped,
/// deadline_exceeded]`; the plan follows from the first three.
fn check(answer: &BitSet, kind: QueryKind, n: &[u64], flags: [bool; 4]) {
    let [exact_hit, memo_hit, filter_skipped, deadline_exceeded] = flags;
    let report = |answer_text| QueryReport {
        answer: answer.clone(),
        answer_text,
        cm_set: BitSet::new(0),
        definite_set: BitSet::new(0),
        verified_set: BitSet::new(0),
        survivors_set: BitSet::new(0),
        kind,
        exact_hit,
        memo_hit,
        confirm_iso: false,
        filter_skipped,
        sub_hits: Vec::new(),
        super_hits: Vec::new(),
        cm_size: n[0] as usize,
        definite: n[1] as usize,
        verified: n[2] as usize,
        survivors: 0,
        sub_iso_tests: n[3],
        probe_tests: n[4],
        verify_steps: 0,
        probe_steps: 0,
        admitted: None,
        evicted: Vec::new(),
        admission_rejected: false,
        generation: 0,
        timing: QueryTiming::default(),
        elapsed: Duration::ZERO,
    };
    let rendered = Arc::new(AnswerText::default());
    rendered.get_or_render(answer);
    for text in [None, Some(Arc::new(AnswerText::default())), Some(rendered)] {
        let report = report(text);
        let want = serde_json::to_string(&QueryResponse {
            answer: answer.to_vec(),
            kind: kind.as_str().into(),
            exact_hit,
            memo_hit,
            plan: report.plan().into(),
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
        let reply = QueryReply {
            report: &report,
            queue_us: n[5],
            parse_us: n[6],
            execute_us: n[7],
            deadline_exceeded,
        };
        let mut out = Vec::new();
        reply.write_json(&mut out);
        assert_eq!(String::from_utf8(out).unwrap(), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn written_reply_equals_serialized_response(
        universe in 1usize..5_000,
        members in proptest::collection::vec(0usize..5_000, 0..60),
        supergraph in any::<bool>(),
        n in proptest::collection::vec(scalar(), 8),
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let answer = BitSet::from_indices(universe, members.into_iter().filter(|&m| m < universe));
        let kind = if supergraph { QueryKind::Supergraph } else { QueryKind::Subgraph };
        check(&answer, kind, &n, [flags.0, flags.1, flags.2, flags.3]);
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
        // Plans "", "filter" and "bounded".
        for (kind, exact_hit, bounded) in [
            (QueryKind::Subgraph, true, false),
            (QueryKind::Supergraph, false, false),
            (QueryKind::Subgraph, false, true),
        ] {
            check(&answer, kind, &n, [exact_hit, false, bounded, true]);
        }
    }
}
