//! Property tests: random snapshot/journal documents round-trip exactly,
//! and randomly corrupted images (bit flips, truncations, mid-record
//! tears) are always rejected — the fail-closed recovery contract.

use gc_graph::{graph_from_parts, Graph, Label};
use gc_method::{DatasetOp, QueryKind};
use gc_store::journal::{decode_journal, encode_header, encode_record};
use gc_store::snapshot::{decode_snapshot, encode_snapshot};
use gc_store::{EntryRecord, EntryStatsRecord, JournalHeader, JournalOp, SnapshotDoc};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..=max_n).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0u32..8, n);
        let edges = if n >= 2 {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..=(2 * n)).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        (labels, edges).prop_map(|(ls, es)| {
            let mut b = gc_graph::GraphBuilder::new();
            for l in ls {
                b.add_vertex(Label(l));
            }
            for (u, v) in es {
                if u != v {
                    let _ = b.add_edge_dedup(u, v);
                }
            }
            b.build()
        })
    })
}

const UNIVERSE: u64 = 32;

fn arb_answer() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..UNIVERSE as u32, 0..10).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn arb_entry() -> impl Strategy<Value = EntryRecord> {
    (arb_graph(6), arb_answer(), 0u64..100, 0u64..1000, any::<bool>()).prop_map(
        |(graph, answer, base_tests, base_cost, sup)| EntryRecord {
            orig_id: base_tests as u32,
            graph,
            kind: if sup { QueryKind::Supergraph } else { QueryKind::Subgraph },
            answer,
            base_tests,
            base_cost,
            stats: EntryStatsRecord {
                inserted_at: base_tests,
                last_used: base_tests + 1,
                exact_hits: base_cost % 7,
                sub_hits: base_cost % 5,
                super_hits: base_cost % 3,
                tests_saved: base_cost,
                cost_saved: base_cost as f64 * 0.5,
            },
        },
    )
}

fn arb_doc() -> impl Strategy<Value = SnapshotDoc> {
    (proptest::collection::vec(arb_entry(), 0..6), 0u64..1000, 0u64..u64::MAX).prop_map(
        |(entries, clock, fp)| SnapshotDoc {
            dataset_fingerprint: fp,
            base_fingerprint: fp,
            dataset_generation: 0,
            dataset_ops: Vec::new(),
            universe: UNIVERSE,
            clock,
            window_pending: (clock % 10) as u32,
            policy_name: "HD".into(),
            stats: vec![("queries".into(), clock), ("hit_queries".into(), clock / 2)],
            cost: (0..UNIVERSE).map(|i| (i as f64 * 0.25, i % 2 == 0)).collect(),
            entries,
        },
    )
}

fn docs_equal(a: &SnapshotDoc, b: &SnapshotDoc) -> bool {
    a.dataset_fingerprint == b.dataset_fingerprint
        && a.universe == b.universe
        && a.clock == b.clock
        && a.window_pending == b.window_pending
        && a.policy_name == b.policy_name
        && a.stats == b.stats
        && a.cost == b.cost
        && a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.orig_id == y.orig_id
                && x.graph == y.graph
                && x.kind == y.kind
                && x.answer == y.answer
                && x.base_tests == y.base_tests
                && x.base_cost == y.base_cost
                && x.stats == y.stats
        })
}

fn journal_image(doc: &SnapshotDoc, records: usize, seed: u64) -> (Vec<u8>, Vec<usize>) {
    let header = JournalHeader {
        generation: 1,
        dataset_fingerprint: doc.dataset_fingerprint,
        universe: doc.universe,
    };
    let insert = DatasetOp::Insert(graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap());
    let remove = DatasetOp::Remove((seed % UNIVERSE) as u32);
    let mut bytes = encode_header(&header);
    let mut boundaries = vec![bytes.len()];
    for i in 0..records {
        let op = if (seed + i as u64).is_multiple_of(3) { &remove } else { &insert };
        bytes.extend(encode_record(&JournalOp {
            generation: i as u64 + 1,
            resulting_fingerprint: seed + i as u64,
            op,
        }));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_roundtrip(doc in arb_doc(), generation in 0u64..u64::MAX) {
        let bytes = encode_snapshot(&doc, generation);
        let (back, g) = decode_snapshot(&bytes).expect("own encoding must decode");
        prop_assert_eq!(g, generation);
        prop_assert!(docs_equal(&back, &doc));
    }

    #[test]
    fn snapshot_bit_flips_rejected(doc in arb_doc(), pos_seed in any::<u64>(), bit in 0u8..8) {
        let bytes = encode_snapshot(&doc, 1);
        let mut bad = bytes.clone();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert!(decode_snapshot(&bad).is_err(), "flip at {}:{} accepted", pos, bit);
    }

    #[test]
    fn snapshot_truncations_rejected(doc in arb_doc(), cut_seed in any::<u64>()) {
        let bytes = encode_snapshot(&doc, 1);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_snapshot(&bytes[..cut]).is_err(), "truncation to {} accepted", cut);
    }

    #[test]
    fn journal_bit_flips_rejected(
        doc in arb_doc(),
        records in 1usize..6,
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (bytes, _) = journal_image(&doc, records, pos_seed % 97);
        prop_assert!(decode_journal(&bytes).is_ok(), "sanity: clean journal decodes");
        let mut bad = bytes.clone();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert!(decode_journal(&bad).is_err(), "flip at {}:{} accepted", pos, bit);
    }

    #[test]
    fn journal_tears_rejected_boundaries_shorten(
        doc in arb_doc(),
        records in 1usize..6,
        cut_seed in any::<u64>(),
    ) {
        let (bytes, boundaries) = journal_image(&doc, records, cut_seed % 89);
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        match decode_journal(&bytes[..cut]) {
            // A cut exactly at a record boundary is a valid shorter journal
            // (append-only semantics); anywhere else must be rejected.
            Ok((_, recs)) => {
                let idx = boundaries.iter().position(|&b| b == cut);
                prop_assert!(idx.is_some(), "mid-record tear at {} accepted", cut);
                prop_assert_eq!(recs.len(), idx.unwrap());
            }
            Err(_) => prop_assert!(!boundaries.contains(&cut) || cut < boundaries[0]),
        }
    }
}
