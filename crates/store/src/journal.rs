//! The append-only dataset journal.
//!
//! Between snapshots, every dataset mutation (a live insert or remove of a
//! data graph) is appended as one length-prefixed, CRC-guarded record. The
//! journal carries the dataset and nothing else: every cached answer is a
//! function of the dataset, so the ops are what must survive a crash, while
//! cache entries reach disk only through a snapshot — a lost entry costs
//! warmth, never correctness. Each journal file belongs to exactly one
//! snapshot generation — the file is named `journal-<gen>.gcj` and its
//! header repeats the generation, the dataset fingerprint and the universe,
//! so a journal can never be replayed over the wrong base.
//!
//! ## File layout
//!
//! ```text
//! magic "GCJRNL01"   8 bytes
//! version            u32
//! generation         u64
//! dataset fp         u64
//! universe           u64
//! header crc64       u64     (over everything before it)
//! record*            each:  len u32 ‖ crc64(payload) u64 ‖ payload
//! ```
//!
//! Reading is fail-closed: a bad header, a checksum mismatch (a bit flip)
//! or trailing payload bytes inside a complete frame reject the **whole**
//! journal and the recovery path starts cold. The one tolerated anomaly is
//! an *incomplete trailing frame* — precisely what a crash mid-append
//! leaves — which [`decode_journal_tolerant`] (the recovery path) drops,
//! keeping the valid prefix. [`decode_journal`] stays strict and rejects
//! even that. The journal never risks a wrong answer — at worst it costs
//! warmth.
//!
//! ## Legacy admission records
//!
//! Files of this format version written by earlier builds also hold one
//! record per cache admission and eviction (tags 1 and 2). They still
//! restore. Such a frame is length-framed and CRC-checked like any other,
//! so a flipped bit inside it still rejects the journal; only then is its
//! payload skipped, unparsed. The entry it described is warmth, which the
//! snapshot carries or not, and no answer depends on it. Any other unknown
//! tag still rejects the journal.

use crate::snapshot::{get_dataset_op, put_dataset_op};
use crate::wire::{crc64, ByteReader, ByteWriter, WireError, WireResult};
use gc_method::DatasetOp;

/// Magic prefix of journal files.
pub const JOURNAL_MAGIC: &[u8; 8] = b"GCJRNL01";

/// Identity a journal binds to: its snapshot generation and dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Snapshot generation this journal extends.
    pub generation: u64,
    /// Dataset content fingerprint.
    pub dataset_fingerprint: u64,
    /// Dataset size (answer universe).
    pub universe: u64,
}

/// A dataset mutation (live insert/remove of a data graph) to append,
/// borrowing the runtime's op. Replay applies the op to the base dataset
/// and validates the resulting fingerprint, so a journal can never mutate
/// the wrong dataset state. An `Insert` grows the running answer universe
/// for all later records in the file. The owned reader-side twin is
/// [`JournalRecord`].
#[derive(Debug, Clone, Copy)]
pub struct JournalOp<'a> {
    /// Dataset generation *after* this mutation.
    pub generation: u64,
    /// `Dataset::content_fingerprint()` after this mutation.
    pub resulting_fingerprint: u64,
    /// The mutation.
    pub op: &'a DatasetOp,
}

/// An owned, decoded dataset mutation (see [`JournalOp`]).
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Dataset generation *after* this mutation.
    pub generation: u64,
    /// `Dataset::content_fingerprint()` after this mutation.
    pub resulting_fingerprint: u64,
    /// The mutation.
    pub op: DatasetOp,
}

/// A journal as [`decode_journal_tolerant`] read it.
#[derive(Debug)]
pub struct DecodedJournal {
    /// The validated header.
    pub header: JournalHeader,
    /// Every complete dataset mutation, in append order.
    pub records: Vec<JournalRecord>,
    /// Legacy admit/evict frames, checksummed and then skipped.
    pub legacy_records: usize,
    /// Bytes of an incomplete trailing frame that were dropped.
    pub torn_tail_bytes: usize,
}

/// Tag of a legacy admission frame (see the module docs).
const TAG_ADMIT: u8 = 1;
/// Tag of a legacy eviction frame (see the module docs).
const TAG_EVICT: u8 = 2;
const TAG_DELTA: u8 = 3;

/// Encode the journal file header.
pub fn encode_header(h: &JournalHeader) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(JOURNAL_MAGIC);
    w.put_u32(crate::snapshot::FORMAT_VERSION);
    w.put_u64(h.generation);
    w.put_u64(h.dataset_fingerprint);
    w.put_u64(h.universe);
    let crc = crc64(w.as_bytes());
    w.put_u64(crc);
    w.into_bytes()
}

/// Byte length of the encoded header.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Encode one framed record (`len ‖ crc ‖ payload`).
pub fn encode_record(op: &JournalOp<'_>) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    payload.put_u8(TAG_DELTA);
    payload.put_u64(op.generation);
    payload.put_u64(op.resulting_fingerprint);
    put_dataset_op(&mut payload, op.op);
    frame(payload.as_bytes())
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = ByteWriter::new();
    frame.put_u32(payload.len() as u32);
    frame.put_u64(crc64(payload));
    frame.put_raw(payload);
    frame.into_bytes()
}

/// Decode one checksummed payload; `None` is a legacy frame, skipped.
fn decode_payload(payload: &[u8], universe: u64) -> WireResult<Option<JournalRecord>> {
    let mut r = ByteReader::new(payload);
    let rec = match r.get_u8()? {
        TAG_ADMIT | TAG_EVICT => return Ok(None),
        TAG_DELTA => JournalRecord {
            generation: r.get_u64()?,
            resulting_fingerprint: r.get_u64()?,
            op: get_dataset_op(&mut r, universe)?,
        },
        other => return Err(WireError::new(format!("unknown journal record tag {other}"))),
    };
    r.expect_end()?;
    Ok(Some(rec))
}

fn walk_journal(bytes: &[u8], tolerate_tail: bool) -> WireResult<DecodedJournal> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(8)? != JOURNAL_MAGIC {
        return Err(WireError::new("bad journal magic"));
    }
    let version = r.get_u32()?;
    if version != crate::snapshot::FORMAT_VERSION {
        return Err(WireError::new(format!("unsupported journal version {version}")));
    }
    let header = JournalHeader {
        generation: r.get_u64()?,
        dataset_fingerprint: r.get_u64()?,
        universe: r.get_u64()?,
    };
    let stored = r.get_u64()?;
    if crc64(&bytes[..HEADER_LEN - 8]) != stored {
        return Err(WireError::new("journal header checksum mismatch"));
    }

    let mut journal =
        DecodedJournal { header, records: Vec::new(), legacy_records: 0, torn_tail_bytes: 0 };
    // The answer universe *runs* across the file: an insert grows the
    // dataset, so a later remove may legitimately name a graph beyond the
    // header's (rotation-time) universe. Validating each record against the
    // universe as of its position keeps the bound exact in both directions.
    let mut universe = header.universe;
    while r.remaining() != 0 {
        if r.remaining() < 12 {
            if tolerate_tail {
                journal.torn_tail_bytes = r.remaining();
                return Ok(journal);
            }
            return Err(WireError::new(format!(
                "torn journal record: {} bytes of frame header",
                r.remaining()
            )));
        }
        // Peek the frame header without committing: a declared length that
        // overruns the file is a tear, and in tolerant mode those 12 bytes
        // belong to the torn tail.
        let before_frame = r.remaining();
        let len = r.get_u32()? as usize;
        let crc = r.get_u64()?;
        if r.remaining() < len {
            if tolerate_tail {
                journal.torn_tail_bytes = before_frame;
                return Ok(journal);
            }
            return Err(WireError::new(format!(
                "torn journal record: payload wants {len} bytes, {} remain",
                r.remaining()
            )));
        }
        let payload = r.get_raw(len)?;
        if crc64(payload) != crc {
            return Err(WireError::new(format!(
                "journal record {} checksum mismatch",
                journal.records.len() + journal.legacy_records
            )));
        }
        match decode_payload(payload, universe)? {
            None => journal.legacy_records += 1,
            Some(rec) => {
                universe += u64::from(matches!(rec.op, DatasetOp::Insert(_)));
                journal.records.push(rec);
            }
        }
    }
    Ok(journal)
}

/// Decode a complete journal file: header plus every record, strictly.
/// Any incomplete trailing frame rejects the whole journal (the
/// corruption-suite contract); recovery uses
/// [`decode_journal_tolerant`] instead.
pub fn decode_journal(bytes: &[u8]) -> WireResult<(JournalHeader, Vec<JournalRecord>)> {
    let journal = walk_journal(bytes, false)?;
    Ok((journal.header, journal.records))
}

/// Decode a journal, tolerating a torn tail.
///
/// An *incomplete trailing frame* — fewer than 12 bytes of frame header
/// left, or a declared payload length that overruns the file — is exactly
/// what a crash mid-append leaves behind. Since appends are strictly
/// ordered, the records before the tear are a valid earlier state: they
/// are returned along with the number of trailing bytes dropped.
///
/// Everything else stays fail-closed exactly like [`decode_journal`]: a
/// bad header, a checksum mismatch on a **complete** frame, or a payload
/// that fails to decode is corruption (not a tear) and rejects the whole
/// journal.
pub fn decode_journal_tolerant(bytes: &[u8]) -> WireResult<DecodedJournal> {
    walk_journal(bytes, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{put_answer, put_graph, put_kind};
    use gc_graph::{graph_from_parts, Label};
    use gc_method::QueryKind;

    fn header() -> JournalHeader {
        JournalHeader { generation: 4, dataset_fingerprint: 0xFEED, universe: 6 }
    }

    fn delta(generation: u64, op: &DatasetOp) -> Vec<u8> {
        encode_record(&JournalOp { generation, resulting_fingerprint: 0xAB00 + generation, op })
    }

    fn insert_op() -> DatasetOp {
        DatasetOp::Insert(graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap())
    }

    /// Header, an insert delta and a remove delta.
    fn sample_records() -> [Vec<u8>; 3] {
        [encode_header(&header()), delta(1, &insert_op()), delta(2, &DatasetOp::Remove(2))]
    }

    fn sample_file() -> Vec<u8> {
        sample_records().concat()
    }

    /// An admission frame as earlier builds wrote it.
    fn legacy_admit() -> Vec<u8> {
        let g = graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap();
        let mut payload = ByteWriter::new();
        payload.put_u8(TAG_ADMIT);
        payload.put_u32(3); // originating entry id
        payload.put_u64(11); // logical time
        put_kind(&mut payload, QueryKind::Subgraph);
        payload.put_u64(5); // base tests
        payload.put_u64(50); // base cost
        put_graph(&mut payload, &g);
        put_answer(&mut payload, &[0, 2, 5]);
        frame(payload.as_bytes())
    }

    /// An eviction frame as earlier builds wrote it.
    fn legacy_evict() -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.put_u8(TAG_EVICT);
        payload.put_u32(1);
        payload.put_u64(12);
        frame(payload.as_bytes())
    }

    #[test]
    fn roundtrip() {
        let bytes = sample_file();
        let (h, records) = decode_journal(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].generation, records[0].resulting_fingerprint), (1, 0xAB01));
        assert_eq!(records[0].op, insert_op());
        assert_eq!((records[1].generation, records[1].op.clone()), (2, DatasetOp::Remove(2)));

        // A file with legacy admit and evict frames around a delta decodes
        // to the delta alone, and counts what it skipped.
        let admit = legacy_admit();
        let head = encode_header(&header());
        let legacy: Vec<u8> =
            [head.clone(), admit.clone(), delta(1, &insert_op()), legacy_evict()].concat();
        let (_, records) = decode_journal(&legacy).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].op, insert_op());
        let decoded = decode_journal_tolerant(&legacy).unwrap();
        assert_eq!((decoded.records.len(), decoded.legacy_records), (1, 2));

        // Skipped is not unchecked: a flipped bit inside the admit frame's
        // payload still rejects the journal.
        for byte in head.len() + 12..head.len() + admit.len() {
            let mut bad = legacy.clone();
            bad[byte] ^= 0x04;
            assert!(decode_journal(&bad).is_err(), "flip at legacy byte {byte} accepted");
            assert!(decode_journal_tolerant(&bad).is_err(), "flip at legacy byte {byte} accepted");
        }

        // An unknown tag is not legacy: it rejects.
        let mut unknown = ByteWriter::new();
        unknown.put_u8(9);
        let bytes = [head, frame(unknown.as_bytes())].concat();
        assert!(decode_journal(&bytes).is_err());
    }

    #[test]
    fn dataset_delta_roundtrip_and_running_universe() {
        // Header universe 6; an Insert delta grows the running universe to
        // 7, so a later Remove delta naming the inserted graph (index 6)
        // validates against the *running* universe, not the header's.
        let new_graph = graph_from_parts(&[Label(9)], &[]).unwrap();
        let ins = DatasetOp::Insert(new_graph.clone());
        let mut bytes = encode_header(&header());
        bytes.extend(delta(1, &ins));
        bytes.extend(delta(2, &DatasetOp::Remove(6)));
        let (h, records) = decode_journal(&bytes).unwrap();
        assert_eq!(h, header());
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].generation, records[0].resulting_fingerprint), (1, 0xAB01));
        assert_eq!(records[0].op, DatasetOp::Insert(new_graph));
        assert_eq!(records[1].op, DatasetOp::Remove(6));
    }

    #[test]
    fn remove_delta_beyond_running_universe_rejected() {
        let mut bytes = encode_header(&header());
        bytes.extend(delta(1, &DatasetOp::Remove(6)));
        assert!(decode_journal(&bytes).is_err());
    }

    #[test]
    fn header_only_is_empty_journal() {
        let (h, records) = decode_journal(&encode_header(&header())).unwrap();
        assert_eq!(h.generation, 4);
        assert!(records.is_empty());
    }

    #[test]
    fn truncations_rejected_except_record_boundaries() {
        // Append-only semantics: a cut exactly at a record boundary is
        // indistinguishable from "fewer appends" and decodes as a valid
        // *shorter* journal (a sound earlier state). Every other cut —
        // inside the header or inside a record — must be rejected.
        let [head, rec1, rec2] = sample_records();
        let boundaries =
            [head.len(), head.len() + rec1.len(), head.len() + rec1.len() + rec2.len()];
        let bytes: Vec<u8> = [head, rec1, rec2].concat();
        for cut in 0..=bytes.len() {
            let result = decode_journal(&bytes[..cut]);
            if let Some(records) = boundaries.iter().position(|&b| b == cut) {
                assert_eq!(
                    result.expect("boundary cut is a valid shorter journal").1.len(),
                    records,
                    "boundary cut at {cut}"
                );
            } else {
                assert!(result.is_err(), "mid-record truncation to {cut} accepted");
            }
        }
    }

    #[test]
    fn every_bit_flip_rejected() {
        let bytes = sample_file();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x04;
            assert!(decode_journal(&bad).is_err(), "flip at byte {byte} accepted");
        }
    }

    #[test]
    fn mid_record_tear_rejected() {
        // Cut inside the first record's payload: the frame header promises
        // more bytes than exist.
        let head = encode_header(&header()).len();
        let bytes = sample_file();
        let cut = head + 20; // 12-byte frame header + 8 payload bytes
        assert!(cut < bytes.len());
        assert!(decode_journal(&bytes[..cut]).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample_file();
        bytes[8] = 99; // version field, little-endian low byte
        assert!(decode_journal(&bytes).is_err());
    }

    #[test]
    fn tolerant_decode_drops_only_the_torn_tail() {
        // Every truncation point from the header boundary on: the cut
        // either lands on a record boundary (no tail) or strictly inside
        // the last frame (tail = the cut-off bytes). Either way the valid
        // prefix must come back intact.
        let [head, rec1, rec2] = sample_records();
        let boundaries =
            [head.len(), head.len() + rec1.len(), head.len() + rec1.len() + rec2.len()];
        let bytes: Vec<u8> = [head, rec1, rec2].concat();
        for cut in boundaries[0]..=bytes.len() {
            let decoded =
                decode_journal_tolerant(&bytes[..cut]).expect("tail cut at {cut} tolerated");
            assert_eq!(decoded.header, header());
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.records.len(), complete, "cut at {cut}");
            let last_boundary = boundaries[complete];
            assert_eq!(decoded.torn_tail_bytes, cut - last_boundary, "cut at {cut}");
        }
    }

    #[test]
    fn tolerant_decode_still_rejects_corruption() {
        // Bit flips inside *complete* frames (or the header) are
        // corruption, not tears: tolerant decode must stay fail-closed.
        let bytes = sample_file();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x04;
            match decode_journal_tolerant(&bad) {
                Err(_) => {}
                // A flip in the final frame's length field can turn it
                // into an overrun, which legitimately reads as a tear —
                // then the record must have been dropped, never accepted.
                Ok(decoded) => {
                    assert!(decoded.torn_tail_bytes > 0, "flip at byte {byte} accepted");
                    assert!(decoded.records.len() < 2, "flip at byte {byte} kept a bad record");
                }
            }
        }
    }

    #[test]
    fn tolerant_decode_rejects_truncated_header() {
        let bytes = sample_file();
        for cut in 0..HEADER_LEN {
            assert!(decode_journal_tolerant(&bytes[..cut]).is_err(), "header cut {cut} accepted");
        }
    }
}
