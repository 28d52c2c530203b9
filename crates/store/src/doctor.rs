//! Forensic validation of a persistence directory — the backend of the
//! `gc doctor <dir>` CLI.
//!
//! [`inspect_dir`] walks a [`crate::CacheStore`] directory without opening
//! it as a store: it validates the snapshot (full CRC + decode), every
//! journal file it finds (header chain, per-record CRC walk, torn-tail
//! measurement), checks the generation chain between snapshot and
//! journals, and reports what [`crate::CacheStore::load`] would recover.
//!
//! The verdict distinguishes *benign* states (fresh directory, stale
//! journal left by an interrupted rotation, a torn tail from a crash
//! mid-append — all survivable by design) from *corruption* (checksum or
//! framing damage in the files a restore depends on).

use crate::journal::decode_journal_tolerant;
use crate::snapshot::decode_snapshot;
use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Validation result for `snapshot.gcs`.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotFileReport {
    /// File size on disk.
    pub bytes: u64,
    /// Generation the snapshot commits (if it decoded).
    pub generation: Option<u64>,
    /// Entries it would restore.
    pub entries: usize,
    /// Logical clock captured at rotation.
    pub clock: u64,
    /// Why validation failed, if it did.
    pub error: Option<String>,
}

/// Validation result for one `journal-<gen>.gcj` file.
#[derive(Debug, Clone, Serialize)]
pub struct JournalFileReport {
    /// File name (`journal-<gen>.gcj`).
    pub name: String,
    /// File size on disk.
    pub bytes: u64,
    /// Generation from the file name.
    pub name_generation: u64,
    /// Generation from the decoded header (must match the name).
    pub header_generation: Option<u64>,
    /// Complete, checksum-valid records.
    pub records: usize,
    /// Dataset deltas (insert/remove mutations) among them; the rest are
    /// legacy admit/evict records, which restore skips.
    pub deltas: usize,
    /// Bytes of an incomplete trailing frame (crash mid-append).
    pub torn_tail_bytes: usize,
    /// True when this journal does not pair with the snapshot's
    /// generation (a leftover from an interrupted rotation — ignored by
    /// restore, harmless).
    pub stale: bool,
    /// Why validation failed, if it did.
    pub error: Option<String>,
}

/// What a restore from this directory would do.
#[derive(Debug, Clone, Serialize)]
pub enum RestoreVerdict {
    /// Nothing usable on disk, benignly: a fresh directory or an
    /// interrupted first rotation. Restore starts cold by design.
    ColdBenign {
        /// What makes the directory cold.
        reason: String,
    },
    /// A valid pair: restore resumes warm.
    Warm {
        /// Generation of the pair.
        generation: u64,
        /// Entries restored from the snapshot.
        entries: usize,
        /// Dataset deltas applied on top.
        journal_deltas: usize,
        /// Torn trailing bytes dropped during replay (0 = clean).
        torn_tail_bytes: usize,
    },
    /// A file a restore depends on exists but fails validation: restore
    /// falls back to cold because of *damage*, not by design.
    Corrupt {
        /// The validation failure.
        reason: String,
    },
}

/// Everything [`inspect_dir`] learned about a persistence directory.
#[derive(Debug, Clone, Serialize)]
pub struct DoctorReport {
    /// Snapshot validation (`None` = no `snapshot.gcs` present).
    pub snapshot: Option<SnapshotFileReport>,
    /// Every journal file found, sorted by generation.
    pub journals: Vec<JournalFileReport>,
    /// What a restore would do.
    pub verdict: RestoreVerdict,
}

impl DoctorReport {
    /// True when the directory is healthy (warm or benignly cold).
    pub fn healthy(&self) -> bool {
        !matches!(self.verdict, RestoreVerdict::Corrupt { .. })
    }

    /// Multi-line human-readable rendering (what `gc doctor` prints).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        match &self.snapshot {
            None => out.push_str("snapshot.gcs        : absent\n"),
            Some(s) => match (&s.error, s.generation) {
                (Some(e), _) => out.push_str(&format!(
                    "snapshot.gcs        : INVALID — {e} ({} bytes)\n",
                    s.bytes
                )),
                (None, g) => out.push_str(&format!(
                    "snapshot.gcs        : ok — generation {}, {} entries, clock {}, {} bytes\n",
                    g.unwrap_or(0),
                    s.entries,
                    s.clock,
                    s.bytes
                )),
            },
        }
        for j in &self.journals {
            let status = match &j.error {
                Some(e) => format!("INVALID — {e}"),
                None => {
                    let mut s = format!("ok — {} records ({} deltas", j.records, j.deltas);
                    let legacy = j.records - j.deltas;
                    if legacy > 0 {
                        s.push_str(&format!(
                            ", {legacy} legacy admit/evict records, skipped on restore"
                        ));
                    }
                    s.push(')');
                    if j.torn_tail_bytes > 0 {
                        s.push_str(&format!(", torn tail {} bytes", j.torn_tail_bytes));
                    }
                    if j.stale {
                        s.push_str(", stale (ignored by restore)");
                    }
                    s
                }
            };
            out.push_str(&format!("{:<20}: {status}, {} bytes\n", j.name, j.bytes));
        }
        match &self.verdict {
            RestoreVerdict::ColdBenign { reason } => {
                out.push_str(&format!("restore             : cold start (benign): {reason}\n"))
            }
            RestoreVerdict::Warm { generation, entries, journal_deltas, torn_tail_bytes } => {
                out.push_str(&format!(
                    "restore             : warm — generation {generation}, {entries} entries + {journal_deltas} dataset deltas",
                ));
                if *torn_tail_bytes > 0 {
                    out.push_str(&format!(" (dropping a {torn_tail_bytes}-byte torn tail)"));
                }
                out.push('\n');
            }
            RestoreVerdict::Corrupt { reason } => out.push_str(&format!(
                "restore             : CORRUPT — cold start forced: {reason}\n"
            )),
        }
        out
    }
}

fn inspect_journal(path: &Path, name: &str, name_generation: u64) -> JournalFileReport {
    let mut report = JournalFileReport {
        name: name.to_string(),
        bytes: 0,
        name_generation,
        header_generation: None,
        records: 0,
        deltas: 0,
        torn_tail_bytes: 0,
        stale: false,
        error: None,
    };
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            report.error = Some(format!("unreadable: {e}"));
            return report;
        }
    };
    report.bytes = bytes.len() as u64;
    match decode_journal_tolerant(&bytes) {
        Ok(journal) => {
            let header = journal.header;
            report.header_generation = Some(header.generation);
            report.deltas = journal.records.len();
            report.records = report.deltas + journal.legacy_records;
            report.torn_tail_bytes = journal.torn_tail_bytes;
            if header.generation != name_generation {
                report.error = Some(format!(
                    "generation chain broken: file name says {name_generation}, header says {}",
                    header.generation
                ));
            }
        }
        Err(e) => report.error = Some(format!("rejected: {e}")),
    }
    report
}

/// Walk and validate `dir` as a persistence directory.
///
/// Errors only on directory-level I/O problems (the directory itself
/// unreadable); per-file damage is captured inside the report.
pub fn inspect_dir(dir: impl AsRef<Path>) -> io::Result<DoctorReport> {
    let dir = dir.as_ref();
    let mut journals = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".gcj"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            journals.push(inspect_journal(&entry.path(), name, g));
        }
    }
    journals.sort_by_key(|j| j.name_generation);

    let snap_path = dir.join("snapshot.gcs");
    let snapshot = match fs::read(&snap_path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => Some(SnapshotFileReport {
            bytes: 0,
            generation: None,
            entries: 0,
            clock: 0,
            error: Some(format!("unreadable: {e}")),
        }),
        Ok(bytes) => Some(match decode_snapshot(&bytes) {
            Ok((doc, generation)) => SnapshotFileReport {
                bytes: bytes.len() as u64,
                generation: Some(generation),
                entries: doc.entries.len(),
                clock: doc.clock,
                error: None,
            },
            Err(e) => SnapshotFileReport {
                bytes: bytes.len() as u64,
                generation: None,
                entries: 0,
                clock: 0,
                error: Some(format!("rejected: {e}")),
            },
        }),
    };

    // Mark staleness relative to the snapshot's generation and derive the
    // verdict exactly as `CacheStore::load` would decide it.
    let verdict = match &snapshot {
        None => {
            if journals.is_empty() {
                RestoreVerdict::ColdBenign { reason: "fresh directory (no snapshot)".into() }
            } else {
                // Journals without a snapshot: an interrupted *first*
                // rotation (journal created before the rename commits).
                RestoreVerdict::ColdBenign {
                    reason: "no snapshot; journal(s) from an interrupted rotation".into(),
                }
            }
        }
        Some(s) => match (&s.error, s.generation) {
            (Some(e), _) => RestoreVerdict::Corrupt { reason: format!("snapshot {e}") },
            (None, None) => RestoreVerdict::Corrupt { reason: "snapshot undecodable".into() },
            (None, Some(generation)) => {
                for j in journals.iter_mut() {
                    j.stale = j.name_generation != generation;
                }
                match journals.iter().find(|j| j.name_generation == generation) {
                    None => RestoreVerdict::Corrupt {
                        reason: format!("journal for generation {generation} is missing"),
                    },
                    Some(j) => match &j.error {
                        Some(e) => RestoreVerdict::Corrupt {
                            reason: format!("active journal {}: {e}", j.name),
                        },
                        None => RestoreVerdict::Warm {
                            generation,
                            entries: s.entries,
                            journal_deltas: j.deltas,
                            torn_tail_bytes: j.torn_tail_bytes,
                        },
                    },
                }
            }
        },
    };

    Ok(DoctorReport { snapshot, journals, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotDoc;
    use crate::store::CacheStore;
    use crate::JournalOp;
    use gc_graph::{graph_from_parts, Label};
    use gc_method::DatasetOp;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gc_doctor_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_dir(tag: &str) -> PathBuf {
        let dir = tmpdir(tag);
        let store = CacheStore::open(&dir).unwrap();
        let doc = SnapshotDoc {
            dataset_fingerprint: 7,
            universe: 4,
            cost: (0..4).map(|i| (i as f64, false)).collect(),
            ..SnapshotDoc::default()
        };
        store.rotate(&doc).unwrap();
        let insert = DatasetOp::Insert(graph_from_parts(&[Label(0)], &[]).unwrap());
        for (generation, op) in [(1, &insert), (2, &DatasetOp::Remove(4))] {
            store
                .append(&[JournalOp { generation, resulting_fingerprint: 7 + generation, op }])
                .unwrap();
        }
        store.sync().unwrap();
        dir
    }

    #[test]
    fn fresh_dir_is_benignly_cold() {
        let dir = tmpdir("fresh");
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy());
        assert!(matches!(report.verdict, RestoreVerdict::ColdBenign { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthy_pair_reports_warm() {
        let dir = seeded_dir("warm");
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy());
        match report.verdict {
            RestoreVerdict::Warm { generation, journal_deltas, torn_tail_bytes, .. } => {
                assert_eq!(generation, 1);
                assert_eq!(journal_deltas, 2);
                assert_eq!(torn_tail_bytes, 0);
            }
            other => panic!("expected warm, got {other:?}"),
        }
        let txt = report.describe();
        assert!(txt.contains("snapshot.gcs"), "describe lists the snapshot: {txt}");
        assert!(txt.contains("journal-1.gcj"), "describe lists the journal: {txt}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_serializes_to_json() {
        let dir = seeded_dir("json");
        let report = inspect_dir(&dir).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        for key in ["\"snapshot\"", "\"journals\"", "\"verdict\"", "\"Warm\"", "journal-1.gcj"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_reported_but_healthy() {
        let dir = seeded_dir("torn");
        let path = dir.join("journal-1.gcj");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy());
        match report.verdict {
            RestoreVerdict::Warm { journal_deltas, torn_tail_bytes, .. } => {
                assert_eq!(journal_deltas, 1, "torn last record dropped");
                assert!(torn_tail_bytes > 0);
            }
            other => panic!("expected warm with torn tail, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_flagged() {
        // Snapshot bit flip.
        let dir = seeded_dir("flip_snap");
        let path = dir.join("snapshot.gcs");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, bytes).unwrap();
        assert!(!inspect_dir(&dir).unwrap().healthy());
        let _ = fs::remove_dir_all(&dir);

        // Journal payload bit flip (inside a complete frame).
        let dir = seeded_dir("flip_jrnl");
        let path = dir.join("journal-1.gcj");
        let mut bytes = fs::read(&path).unwrap();
        bytes[crate::journal::HEADER_LEN + 12 + 1] ^= 0x10;
        fs::write(&path, bytes).unwrap();
        assert!(!inspect_dir(&dir).unwrap().healthy());
        let _ = fs::remove_dir_all(&dir);

        // Missing active journal.
        let dir = seeded_dir("missing_jrnl");
        fs::remove_file(dir.join("journal-1.gcj")).unwrap();
        assert!(!inspect_dir(&dir).unwrap().healthy());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_is_benign() {
        let dir = seeded_dir("stale");
        // A journal for a generation the snapshot does not name.
        fs::write(
            dir.join("journal-9.gcj"),
            crate::journal::encode_header(&crate::JournalHeader {
                generation: 9,
                dataset_fingerprint: 7,
                universe: 4,
            }),
        )
        .unwrap();
        let report = inspect_dir(&dir).unwrap();
        assert!(report.healthy());
        assert!(report.journals.iter().any(|j| j.stale));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_chain_mismatch_is_corrupt() {
        let dir = seeded_dir("chain");
        // Rename the valid journal so its name no longer matches its
        // header: the active journal slot now points at a mismatched file.
        fs::rename(dir.join("journal-1.gcj"), dir.join("journal-2.gcj")).unwrap();
        // Re-point the snapshot's pairing by... simpler: snapshot says 1,
        // journal-1 is gone → missing active journal = corrupt; and the
        // renamed file must flag its broken chain.
        let report = inspect_dir(&dir).unwrap();
        assert!(!report.healthy());
        let j = report.journals.iter().find(|j| j.name == "journal-2.gcj").unwrap();
        assert!(j.error.as_deref().unwrap_or("").contains("generation chain"), "{:?}", j.error);
        let _ = fs::remove_dir_all(&dir);
    }
}
