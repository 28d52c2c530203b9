//! The versioned, checksummed binary snapshot format.
//!
//! A snapshot is one self-contained file holding everything a cache needs to
//! resume warm: every cached entry (query graph, kind, exact answer set,
//! base costs, accumulated statistics), the global statistics counters, the
//! per-graph cost-model estimates, and the window/clock state. Secondary
//! structures (feature vectors, verification profiles, fingerprints, the
//! containment indexes) are deliberately **not** persisted — they are
//! recomputed deterministically from the entries through the cache's normal
//! insert paths, so the on-disk format stays decoupled from the in-memory
//! index layout.
//!
//! ## File layout
//!
//! ```text
//! magic "GCSNAP01"  8 bytes
//! version           u32      (FORMAT_VERSION)
//! generation        u64      (rotation counter; ties the journal to us)
//! body length       u64
//! body              ...      (see SnapshotDoc encode)
//! crc64             u64      (over everything before it)
//! ```
//!
//! Decoding is strict fail-closed: wrong magic or version, a length that
//! does not match the file, a checksum mismatch, malformed graphs,
//! out-of-universe answer indices or trailing bytes all return an error —
//! the recovery path then starts cold instead of guessing.

use crate::wire::{crc64, ByteReader, ByteWriter, WireError, WireResult};
use gc_graph::{graph_from_parts, Graph, Label};
use gc_method::{DatasetOp, QueryKind};

/// Magic prefix of snapshot files.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"GCSNAP01";

/// Current on-disk format version (bumped on incompatible changes).
/// Version 2 added dynamic-dataset state: the base dataset fingerprint, the
/// dataset generation counter and the mutation op log. Version 3 keeps that
/// layout but changes what the recorded fingerprints *mean*
/// (`Dataset::content_fingerprint` became an incrementally maintained sum),
/// so a version-2 file's fingerprints can never match and it is rejected by
/// version, like any other unsupported file.
pub const FORMAT_VERSION: u32 = 3;

/// Longest accepted counter/policy name (corruption guard).
const MAX_NAME: usize = 256;

/// Portable accumulated statistics of one cached entry (mirrors the
/// kernel's `EntryStats` without depending on it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntryStatsRecord {
    /// Logical admission time.
    pub inserted_at: u64,
    /// Logical time of the last hit.
    pub last_used: u64,
    /// Exact-match hits served.
    pub exact_hits: u64,
    /// Sub-case hits served.
    pub sub_hits: u64,
    /// Super-case hits served.
    pub super_hits: u64,
    /// Total sub-iso tests saved for other queries.
    pub tests_saved: u64,
    /// Total estimated verifier steps saved.
    pub cost_saved: f64,
}

/// One cached entry, self-contained: everything needed to re-admit it
/// through the cache's normal insert path.
#[derive(Debug, Clone)]
pub struct EntryRecord {
    /// The entry's id in the *originating* cache (shard-encoded for the
    /// concurrent front-end), for forensics only: restored entries get
    /// fresh ids.
    pub orig_id: u32,
    /// The cached query graph.
    pub graph: Graph,
    /// Query kind the answer corresponds to.
    pub kind: QueryKind,
    /// Sorted member indices of the exact answer set over the dataset
    /// universe.
    pub answer: Vec<u32>,
    /// `|C_M|` when the query was first executed.
    pub base_tests: u64,
    /// Verifier steps spent when first executed.
    pub base_cost: u64,
    /// Accumulated statistics (drives warm replacement-policy state).
    pub stats: EntryStatsRecord,
}

/// The decoded contents of a snapshot file.
#[derive(Debug, Clone, Default)]
pub struct SnapshotDoc {
    /// Content fingerprint of the dataset the cache served **at snapshot
    /// time** (after all logged mutations) — a snapshot is only restored
    /// over the identical dataset state.
    pub dataset_fingerprint: u64,
    /// Content fingerprint of the dataset *as loaded* (generation 0).
    /// Restore starts from the base dataset, replays
    /// [`SnapshotDoc::dataset_ops`], and then requires the result to match
    /// [`SnapshotDoc::dataset_fingerprint`].
    pub base_fingerprint: u64,
    /// Dataset generation (mutation count) at snapshot time.
    pub dataset_generation: u64,
    /// The dataset mutation log since load, in application order. Length
    /// must equal [`SnapshotDoc::dataset_generation`].
    pub dataset_ops: Vec<DatasetOp>,
    /// Dataset size (answer-set universe) at snapshot time, i.e. after the
    /// op log.
    pub universe: u64,
    /// Logical clock (query sequence number) at snapshot time.
    pub clock: u64,
    /// Admissions pending in the replacement window at snapshot time.
    pub window_pending: u32,
    /// Replacement policy name at snapshot time (informational; restoring
    /// under a different policy is allowed and reported).
    pub policy_name: String,
    /// Global statistics as named counters — self-describing, so adding a
    /// counter never invalidates old snapshots (unknown names are ignored,
    /// missing names read as zero).
    pub stats: Vec<(String, u64)>,
    /// Per-dataset-graph cost-model state: `(estimate, observed)`, indexed
    /// by graph id. Length must equal `universe`.
    pub cost: Vec<(f64, bool)>,
    /// The cached entries, in originating slot order.
    pub entries: Vec<EntryRecord>,
}

// ---- shared field codecs (also used by the journal) -------------------------

pub(crate) fn put_kind(w: &mut ByteWriter, kind: QueryKind) {
    w.put_u8(match kind {
        QueryKind::Subgraph => 0,
        QueryKind::Supergraph => 1,
    });
}

pub(crate) fn get_kind(r: &mut ByteReader<'_>) -> WireResult<QueryKind> {
    match r.get_u8()? {
        0 => Ok(QueryKind::Subgraph),
        1 => Ok(QueryKind::Supergraph),
        other => Err(WireError::new(format!("unknown query kind tag {other}"))),
    }
}

pub(crate) fn put_graph(w: &mut ByteWriter, g: &Graph) {
    w.put_u32(g.vertex_count() as u32);
    for v in g.vertices() {
        w.put_u32(g.label(v).0);
    }
    w.put_u32(g.edge_count() as u32);
    for (u, v) in g.edges() {
        w.put_u32(u);
        w.put_u32(v);
    }
}

pub(crate) fn get_graph(r: &mut ByteReader<'_>) -> WireResult<Graph> {
    let n = r.get_count(4)?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(Label(r.get_u32()?));
    }
    let m = r.get_count(8)?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        edges.push((r.get_u32()?, r.get_u32()?));
    }
    graph_from_parts(&labels, &edges).map_err(|e| WireError::new(format!("malformed graph: {e}")))
}

pub(crate) fn put_answer(w: &mut ByteWriter, answer: &[u32]) {
    w.put_u32(answer.len() as u32);
    for &i in answer {
        w.put_u32(i);
    }
}

/// Read a sorted answer-index list, validating order and the universe bound
/// (an out-of-range index would otherwise panic deep inside `BitSet`).
pub(crate) fn get_answer(r: &mut ByteReader<'_>, universe: u64) -> WireResult<Vec<u32>> {
    let n = r.get_count(4)?;
    let mut out = Vec::with_capacity(n);
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let i = r.get_u32()?;
        if u64::from(i) >= universe {
            return Err(WireError::new(format!("answer index {i} outside universe {universe}")));
        }
        if prev.is_some_and(|p| p >= i) {
            return Err(WireError::new("answer indices not strictly ascending"));
        }
        prev = Some(i);
        out.push(i);
    }
    Ok(out)
}

const OP_INSERT: u8 = 0;
const OP_REMOVE: u8 = 1;

pub(crate) fn put_dataset_op(w: &mut ByteWriter, op: &DatasetOp) {
    match op {
        DatasetOp::Insert(g) => {
            w.put_u8(OP_INSERT);
            put_graph(w, g);
        }
        DatasetOp::Remove(gid) => {
            w.put_u8(OP_REMOVE);
            w.put_u32(*gid);
        }
    }
}

/// Read one dataset mutation. `universe` bounds remove ids: the universe
/// only ever grows, so a removed id is always below the final slot count.
pub(crate) fn get_dataset_op(r: &mut ByteReader<'_>, universe: u64) -> WireResult<DatasetOp> {
    match r.get_u8()? {
        OP_INSERT => Ok(DatasetOp::Insert(get_graph(r)?)),
        OP_REMOVE => {
            let gid = r.get_u32()?;
            if u64::from(gid) >= universe {
                return Err(WireError::new(format!(
                    "removed graph id {gid} outside universe {universe}"
                )));
            }
            Ok(DatasetOp::Remove(gid))
        }
        other => Err(WireError::new(format!("unknown dataset op tag {other}"))),
    }
}

fn put_entry(w: &mut ByteWriter, e: &EntryRecord) {
    w.put_u32(e.orig_id);
    put_kind(w, e.kind);
    w.put_u64(e.base_tests);
    w.put_u64(e.base_cost);
    w.put_u64(e.stats.inserted_at);
    w.put_u64(e.stats.last_used);
    w.put_u64(e.stats.exact_hits);
    w.put_u64(e.stats.sub_hits);
    w.put_u64(e.stats.super_hits);
    w.put_u64(e.stats.tests_saved);
    w.put_f64(e.stats.cost_saved);
    put_graph(w, &e.graph);
    put_answer(w, &e.answer);
}

fn get_entry(r: &mut ByteReader<'_>, universe: u64) -> WireResult<EntryRecord> {
    let orig_id = r.get_u32()?;
    let kind = get_kind(r)?;
    let base_tests = r.get_u64()?;
    let base_cost = r.get_u64()?;
    let stats = EntryStatsRecord {
        inserted_at: r.get_u64()?,
        last_used: r.get_u64()?,
        exact_hits: r.get_u64()?,
        sub_hits: r.get_u64()?,
        super_hits: r.get_u64()?,
        tests_saved: r.get_u64()?,
        cost_saved: r.get_f64()?,
    };
    let graph = get_graph(r)?;
    let answer = get_answer(r, universe)?;
    Ok(EntryRecord { orig_id, graph, kind, answer, base_tests, base_cost, stats })
}

// ---- whole-file encode/decode -----------------------------------------------

/// Encode `doc` into a complete snapshot file image for `generation`.
pub fn encode_snapshot(doc: &SnapshotDoc, generation: u64) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.put_u64(doc.dataset_fingerprint);
    body.put_u64(doc.base_fingerprint);
    body.put_u64(doc.dataset_generation);
    body.put_u64(doc.universe);
    body.put_u64(doc.clock);
    body.put_u32(doc.window_pending);
    body.put_str(&doc.policy_name);
    body.put_u32(doc.dataset_ops.len() as u32);
    for op in &doc.dataset_ops {
        put_dataset_op(&mut body, op);
    }
    body.put_u32(doc.stats.len() as u32);
    for (name, value) in &doc.stats {
        body.put_str(name);
        body.put_u64(*value);
    }
    body.put_u32(doc.cost.len() as u32);
    for &(est, observed) in &doc.cost {
        body.put_f64(est);
        body.put_u8(u8::from(observed));
    }
    body.put_u32(doc.entries.len() as u32);
    for e in &doc.entries {
        put_entry(&mut body, e);
    }

    let mut file = ByteWriter::new();
    file.put_raw(SNAPSHOT_MAGIC);
    file.put_u32(FORMAT_VERSION);
    file.put_u64(generation);
    file.put_u64(body.len() as u64);
    file.put_raw(body.as_bytes());
    let crc = crc64(file.as_bytes());
    file.put_u64(crc);
    file.into_bytes()
}

/// Decode a snapshot file image; returns the document and its generation.
///
/// Strict: any framing, checksum or content anomaly is an error.
pub fn decode_snapshot(bytes: &[u8]) -> WireResult<(SnapshotDoc, u64)> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(8)? != SNAPSHOT_MAGIC {
        return Err(WireError::new("bad snapshot magic"));
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(WireError::new(format!("unsupported snapshot version {version}")));
    }
    let generation = r.get_u64()?;
    let body_len = r.get_u64()? as usize;
    if r.remaining() != body_len + 8 {
        return Err(WireError::new(format!(
            "snapshot length mismatch: header says {body_len}+8 byte tail, {} remain",
            r.remaining()
        )));
    }
    let checked_len = bytes.len() - 8;
    let stored_crc = u64::from_le_bytes(bytes[checked_len..].try_into().expect("8-byte tail"));
    if crc64(&bytes[..checked_len]) != stored_crc {
        return Err(WireError::new("snapshot checksum mismatch"));
    }

    let mut doc = SnapshotDoc {
        dataset_fingerprint: r.get_u64()?,
        base_fingerprint: r.get_u64()?,
        dataset_generation: r.get_u64()?,
        universe: r.get_u64()?,
        clock: r.get_u64()?,
        window_pending: r.get_u32()?,
        policy_name: r.get_str(MAX_NAME)?,
        ..SnapshotDoc::default()
    };
    let n_ops = r.get_count(5)?;
    if n_ops as u64 != doc.dataset_generation {
        return Err(WireError::new(format!(
            "dataset op log length {n_ops} does not match generation {}",
            doc.dataset_generation
        )));
    }
    for _ in 0..n_ops {
        doc.dataset_ops.push(get_dataset_op(&mut r, doc.universe)?);
    }
    let n_stats = r.get_count(12)?;
    for _ in 0..n_stats {
        let name = r.get_str(MAX_NAME)?;
        let value = r.get_u64()?;
        doc.stats.push((name, value));
    }
    let n_cost = r.get_count(9)?;
    if n_cost as u64 != doc.universe {
        return Err(WireError::new(format!(
            "cost table length {n_cost} does not match universe {}",
            doc.universe
        )));
    }
    for _ in 0..n_cost {
        let est = r.get_f64()?;
        let observed = match r.get_u8()? {
            0 => false,
            1 => true,
            other => return Err(WireError::new(format!("bad observed flag {other}"))),
        };
        doc.cost.push((est, observed));
    }
    let n_entries = r.get_count(1)?;
    for _ in 0..n_entries {
        doc.entries.push(get_entry(&mut r, doc.universe)?);
    }
    // Body parsed; the only bytes left must be the checksum we verified.
    if r.remaining() != 8 {
        return Err(WireError::new(format!(
            "snapshot body length mismatch: {} bytes follow the body",
            r.remaining()
        )));
    }
    Ok((doc, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> SnapshotDoc {
        let g = graph_from_parts(&[Label(0), Label(1), Label(2)], &[(0, 1), (1, 2)]).unwrap();
        SnapshotDoc {
            dataset_fingerprint: 0xABCD,
            base_fingerprint: 0xBA5E,
            dataset_generation: 2,
            dataset_ops: vec![
                DatasetOp::Insert(graph_from_parts(&[Label(7)], &[]).unwrap()),
                DatasetOp::Remove(3),
            ],
            universe: 10,
            clock: 42,
            window_pending: 3,
            policy_name: "HD".into(),
            stats: vec![("queries".into(), 100), ("hit_queries".into(), 40)],
            cost: (0..10).map(|i| (i as f64 * 1.5, i % 2 == 0)).collect(),
            entries: vec![EntryRecord {
                orig_id: 7,
                graph: g,
                kind: QueryKind::Subgraph,
                answer: vec![1, 4, 9],
                base_tests: 12,
                base_cost: 340,
                stats: EntryStatsRecord {
                    inserted_at: 5,
                    last_used: 40,
                    exact_hits: 2,
                    sub_hits: 1,
                    super_hits: 0,
                    tests_saved: 99,
                    cost_saved: 12.25,
                },
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let doc = sample_doc();
        let bytes = encode_snapshot(&doc, 9);
        let (back, generation) = decode_snapshot(&bytes).unwrap();
        assert_eq!(generation, 9);
        assert_eq!(back.dataset_fingerprint, doc.dataset_fingerprint);
        assert_eq!(back.base_fingerprint, doc.base_fingerprint);
        assert_eq!(back.dataset_generation, doc.dataset_generation);
        assert_eq!(back.dataset_ops, doc.dataset_ops);
        assert_eq!(back.universe, doc.universe);
        assert_eq!(back.clock, doc.clock);
        assert_eq!(back.window_pending, doc.window_pending);
        assert_eq!(back.policy_name, doc.policy_name);
        assert_eq!(back.stats, doc.stats);
        assert_eq!(back.cost, doc.cost);
        assert_eq!(back.entries.len(), 1);
        let (a, b) = (&back.entries[0], &doc.entries[0]);
        assert_eq!(a.orig_id, b.orig_id);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn every_bit_flip_detected() {
        let bytes = encode_snapshot(&sample_doc(), 1);
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            assert!(decode_snapshot(&bad).is_err(), "flip at byte {byte} accepted");
        }
    }

    #[test]
    fn every_truncation_detected() {
        let bytes = encode_snapshot(&sample_doc(), 1);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_snapshot(&sample_doc(), 1);
        bytes.push(0);
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn answer_indices_validated() {
        let mut doc = sample_doc();
        doc.entries[0].answer = vec![3, 11]; // 11 >= universe 10
        let bytes = encode_snapshot(&doc, 1);
        assert!(decode_snapshot(&bytes).is_err());
        doc.entries[0].answer = vec![4, 4]; // not strictly ascending
        let bytes = encode_snapshot(&doc, 1);
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn cost_table_must_match_universe() {
        let mut doc = sample_doc();
        doc.cost.pop();
        let bytes = encode_snapshot(&doc, 1);
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn dataset_ops_validated() {
        // Op count must match the generation counter.
        let mut doc = sample_doc();
        doc.dataset_generation = 3;
        assert!(decode_snapshot(&encode_snapshot(&doc, 1)).is_err());
        // A removed id outside the universe is rejected.
        let mut doc = sample_doc();
        doc.dataset_ops[1] = DatasetOp::Remove(10);
        assert!(decode_snapshot(&encode_snapshot(&doc, 1)).is_err());
    }

    #[test]
    fn empty_doc_roundtrips() {
        let doc = SnapshotDoc { universe: 0, ..SnapshotDoc::default() };
        let (back, generation) = decode_snapshot(&encode_snapshot(&doc, 0)).unwrap();
        assert_eq!(generation, 0);
        assert!(back.entries.is_empty());
        assert!(back.cost.is_empty());
    }
}
