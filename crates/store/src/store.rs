//! [`CacheStore`]: a persistence directory holding one snapshot plus its
//! append-only journal.
//!
//! ## Crash safety
//!
//! A *rotation* ([`CacheStore::rotate`]) makes the next generation durable
//! in an order that leaves a consistent pair on disk no matter where a
//! crash lands:
//!
//! 1. the new snapshot is written to a temp file and fsynced;
//! 2. the new generation's journal (`journal-<gen>.gcj`, header only) is
//!    created and fsynced;
//! 3. the temp file is atomically renamed over `snapshot.gcs` — the commit
//!    point;
//! 4. stale journals of older generations are deleted (best-effort).
//!
//! The directory itself is fsynced after steps 2 and 3, so the ordering
//! holds across power loss, not just process crashes: step 4's deletions
//! can never reach disk ahead of the rename they depend on.
//!
//! A crash before step 3 leaves the old snapshot with its old journal
//! (both intact); after step 3 the new pair is live. [`CacheStore::load`]
//! always pairs `snapshot.gcs` with the journal *named by the snapshot's
//! own generation*, so a leftover journal from an interrupted rotation is
//! simply ignored.
//!
//! ## Fail-closed recovery
//!
//! [`CacheStore::load`] never guesses: a missing snapshot, a checksum or
//! framing failure anywhere in either file, or a journal whose header does
//! not match the snapshot's generation all come back as
//! [`LoadOutcome::Cold`] with the reason — the caller starts cold and the
//! next rotation overwrites the bad state. Corruption can cost warmth,
//! never correctness.

use crate::faults::{FaultAction, FaultPlan, FaultSite};
use crate::journal::{
    decode_journal_tolerant, encode_header, encode_record, DecodedJournal, JournalHeader,
    JournalOp, JournalRecord,
};
use crate::snapshot::{decode_snapshot, encode_snapshot, SnapshotDoc};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// File name of the current snapshot.
const SNAPSHOT_FILE: &str = "snapshot.gcs";
/// Temp name the next snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.gcs.tmp";

fn journal_file(generation: u64) -> String {
    format!("journal-{generation}.gcj")
}

/// Fsync a directory so renames/creates/unlinks inside it are durable
/// (opening a directory read-only and `sync_all`ing it is the portable
/// POSIX idiom; on platforms where directories cannot be opened this
/// degrades to a no-op error we propagate).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// When the active journal is fsynced (group commit).
///
/// Appends always reach the OS page cache immediately; the policy only
/// decides when `fsync` pushes them to stable storage. The bounded-loss
/// guarantee after a power failure:
///
/// - `Never` — nothing beyond the OS's own writeback; a crash can lose
///   every record since the last rotation or explicit
///   [`CacheStore::sync`].
/// - `EveryN(n)` — at most `n - 1 + B` records, where `B` is the largest
///   single append batch (one dataset mutation): the sync countdown can sit
///   at `n - 1`, and the batch that crosses it can be lost wholesale if
///   power fails before its group commit completes.
/// - `IntervalMs(ms)` — every record older than `ms` milliseconds (plus
///   the in-flight batch) is durable.
///
/// In every case recovery accepts only an intact prefix of the journal:
/// a torn trailing frame is dropped, and corruption anywhere before it
/// fails closed to a cold start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync on append (rotations and explicit `sync` still do).
    #[default]
    Never,
    /// Group-commit: fsync once at least `n` records have accumulated
    /// since the last sync.
    EveryN(u64),
    /// Group-commit: fsync when the last sync is at least this many
    /// milliseconds old.
    IntervalMs(u64),
}

/// Result of one rotation: what was made durable.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotInfo {
    /// The new generation number.
    pub generation: u64,
    /// Size of the snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// Entries captured in the snapshot.
    pub entries: usize,
}

/// Result of [`CacheStore::load`].
#[derive(Debug)]
pub enum LoadOutcome {
    /// Nothing usable on disk — start cold. `reason` says why (missing
    /// files are normal on first boot; anything else names the corruption).
    Cold {
        /// Why the store could not be restored.
        reason: String,
    },
    /// A valid snapshot (and its journal's records, possibly empty) —
    /// apply `journal` to `doc`'s dataset and insert `doc`'s entries to
    /// resume warm.
    Warm(Box<RecoveredState>),
}

/// A validated snapshot + journal pair ready for replay.
#[derive(Debug)]
pub struct RecoveredState {
    /// The decoded snapshot.
    pub doc: SnapshotDoc,
    /// Generation of the snapshot/journal pair.
    pub generation: u64,
    /// Dataset mutations appended after the snapshot, in append order.
    pub journal: Vec<JournalRecord>,
    /// Legacy admit/evict records in the journal, skipped (see
    /// [`crate::journal`]).
    pub legacy_records: usize,
    /// Bytes of an incomplete trailing frame (a crash mid-append) that
    /// were dropped during recovery. Zero for a cleanly closed journal.
    pub torn_tail_bytes: usize,
}

struct Inner {
    /// Generation of the currently active journal, if a rotation happened
    /// in this process.
    active: Option<ActiveJournal>,
    /// Highest generation ever observed (from disk or rotations), so the
    /// next rotation picks a strictly larger one.
    last_generation: u64,
    /// Group-commit policy applied after each append.
    fsync: FsyncPolicy,
    /// Largest single append batch seen (the `B` of the bounded-loss
    /// guarantee on [`FsyncPolicy`]).
    max_batch: u64,
}

struct ActiveJournal {
    generation: u64,
    file: File,
    bytes: u64,
    records: u64,
    /// A previous write failed partway: the file may hold torn bytes past
    /// `bytes` that must be truncated away before the next append.
    dirty: bool,
    /// Records appended since the last fsync (drives `EveryN`).
    unsynced_records: u64,
    /// Byte offset and record count known to be on stable storage.
    synced_bytes: u64,
    synced_records: u64,
    /// When the journal was last fsynced (drives `IntervalMs`).
    last_sync: Instant,
}

impl ActiveJournal {
    /// Truncate away torn bytes left by a failed write, restoring the
    /// file to the last known-good record boundary so a retry (or the
    /// next append) starts clean — a failed write can cost the batch,
    /// never mid-file integrity.
    fn repair(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.set_len(self.bytes)?;
            self.file.seek(SeekFrom::Start(self.bytes))?;
            self.dirty = false;
        }
        Ok(())
    }

    fn mark_synced(&mut self) {
        self.unsynced_records = 0;
        self.synced_bytes = self.bytes;
        self.synced_records = self.records;
        self.last_sync = Instant::now();
    }
}

/// A persistence directory for one cache instance.
///
/// All methods take `&self` — appends and rotations serialize on an
/// internal mutex, so one store can be shared (behind an `Arc`) by the
/// concurrent front-end's query threads.
pub struct CacheStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Installed fault plan (fault tests only; `None` in
    /// production). Kept outside `inner` so arming faults never contends
    /// with I/O.
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("store lock");
        f.debug_struct("CacheStore")
            .field("dir", &self.dir)
            .field("generation", &inner.active.as_ref().map(|a| a.generation))
            .field("journal_bytes", &inner.active.as_ref().map_or(0, |a| a.bytes))
            .finish()
    }
}

impl CacheStore {
    /// Open (creating if needed) the persistence directory `dir`.
    ///
    /// Opening only scans for the highest existing generation; it does not
    /// read cache state (that is [`CacheStore::load`]) and does not accept
    /// appends until the first [`CacheStore::rotate`] establishes which
    /// snapshot the journal extends.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut last_generation = 0u64;
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(gen_str) =
                name.strip_prefix("journal-").and_then(|s| s.strip_suffix(".gcj"))
            {
                if let Ok(g) = gen_str.parse::<u64>() {
                    last_generation = last_generation.max(g);
                }
            }
        }
        // The snapshot's generation also bounds the next one (covers a dir
        // where stale journals were cleaned but the snapshot remains).
        if let Ok(bytes) = fs::read(dir.join(SNAPSHOT_FILE)) {
            if let Ok((_, g)) = decode_snapshot(&bytes) {
                last_generation = last_generation.max(g);
            }
        }
        Ok(CacheStore {
            dir,
            inner: Mutex::new(Inner {
                active: None,
                last_generation,
                fsync: FsyncPolicy::Never,
                max_batch: 0,
            }),
            faults: Mutex::new(None),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Install (or with `None`, remove) a fault plan consulted at every
    /// I/O site. Testing hook; a plain open has no plan and no overhead
    /// beyond one uncontended lock per persistence call.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock().expect("fault plan slot") = plan;
    }

    /// Set the group-commit policy applied by [`CacheStore::append`].
    pub fn set_fsync_policy(&self, policy: FsyncPolicy) {
        self.inner.lock().expect("store lock").fsync = policy;
    }

    /// The current group-commit policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.inner.lock().expect("store lock").fsync
    }

    /// Consult the installed fault plan (if any) for one op at `site`.
    fn fault(&self, site: FaultSite) -> FaultAction {
        let plan = self.faults.lock().expect("fault plan slot").clone();
        plan.map_or(FaultAction::Proceed, |plan| plan.on_op(site))
    }

    /// The common case: sites that either proceed or fail whole (partial
    /// writes are only meaningful for `JournalAppend`/`SnapshotWrite`,
    /// which handle `ShortWrite`/`TornRecord` themselves).
    fn fault_gate(&self, site: FaultSite) -> io::Result<()> {
        match self.fault(site) {
            FaultAction::Proceed => Ok(()),
            FaultAction::Error(msg) => Err(io::Error::other(msg)),
            FaultAction::ShortWrite { .. } | FaultAction::TornRecord => {
                Err(io::Error::other(format!("injected write fault at {}", site.name())))
            }
        }
    }

    /// Read and strictly validate the snapshot + journal pair.
    pub fn load(&self) -> LoadOutcome {
        let snap_path = self.dir.join(SNAPSHOT_FILE);
        let bytes = match fs::read(&snap_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return LoadOutcome::Cold { reason: "no snapshot on disk".into() }
            }
            Err(e) => return LoadOutcome::Cold { reason: format!("snapshot unreadable: {e}") },
        };
        let (doc, generation) = match decode_snapshot(&bytes) {
            Ok(v) => v,
            Err(e) => return LoadOutcome::Cold { reason: format!("snapshot rejected: {e}") },
        };
        let journal_path = self.dir.join(journal_file(generation));
        let journal_bytes = match fs::read(&journal_path) {
            Ok(b) => b,
            Err(e) => {
                return LoadOutcome::Cold {
                    reason: format!("journal for generation {generation} unreadable: {e}"),
                }
            }
        };
        // Tolerant of exactly one anomaly: an incomplete trailing frame
        // (a crash mid-append) is dropped and reported; anything else —
        // bit flips, mid-file framing damage — still fails closed.
        let DecodedJournal { header, records: journal, legacy_records, torn_tail_bytes } =
            match decode_journal_tolerant(&journal_bytes) {
                Ok(v) => v,
                Err(e) => return LoadOutcome::Cold { reason: format!("journal rejected: {e}") },
            };
        let expected = JournalHeader {
            generation,
            dataset_fingerprint: doc.dataset_fingerprint,
            universe: doc.universe,
        };
        if header != expected {
            return LoadOutcome::Cold {
                reason: format!("journal header {header:?} does not match snapshot {expected:?}"),
            };
        }
        LoadOutcome::Warm(Box::new(RecoveredState {
            doc,
            generation,
            journal,
            legacy_records,
            torn_tail_bytes,
        }))
    }

    /// Durably write `doc` as the next generation's snapshot and open a
    /// fresh journal for it (see the module docs for the crash-safe order).
    /// Subsequent [`CacheStore::append`] calls extend the new journal.
    pub fn rotate(&self, doc: &SnapshotDoc) -> io::Result<SnapshotInfo> {
        let mut inner = self.inner.lock().expect("store lock");
        let generation = inner.last_generation + 1;

        // 1. Stage the snapshot.
        let image = encode_snapshot(doc, generation);
        let tmp = self.dir.join(SNAPSHOT_TMP);
        match self.fault(FaultSite::SnapshotWrite) {
            FaultAction::Proceed => {}
            FaultAction::Error(msg) => return Err(io::Error::other(msg)),
            // A short/torn snapshot write models a crash while staging:
            // leave a partial temp file behind (never the commit name)
            // and fail the rotation.
            FaultAction::ShortWrite { keep } => {
                let keep = keep.min(image.len());
                let mut f = File::create(&tmp)?;
                let _ = f.write_all(&image[..keep]);
                return Err(io::Error::other("injected short snapshot write"));
            }
            FaultAction::TornRecord => {
                let mut f = File::create(&tmp)?;
                let _ = f.write_all(&image[..image.len() * 3 / 4]);
                return Err(io::Error::other("injected torn snapshot write"));
            }
        }
        let mut f = File::create(&tmp)?;
        f.write_all(&image)?;
        f.sync_all()?;
        drop(f);

        // 2. Create the new journal with its header; sync the directory so
        //    the journal's dirent is durable before the rename can commit.
        let header = JournalHeader {
            generation,
            dataset_fingerprint: doc.dataset_fingerprint,
            universe: doc.universe,
        };
        let journal_path = self.dir.join(journal_file(generation));
        self.fault_gate(FaultSite::JournalCreate)?;
        let mut journal =
            OpenOptions::new().create(true).write(true).truncate(true).open(&journal_path)?;
        let header_bytes = encode_header(&header);
        journal.write_all(&header_bytes)?;
        journal.sync_all()?;
        self.fault_gate(FaultSite::DirSync)?;
        sync_dir(&self.dir)?;

        // 3. Commit: atomic rename, made durable by a directory sync —
        //    without it, a power loss could persist step 4's deletions
        //    while losing the rename, leaving no journal for the old
        //    generation.
        self.fault_gate(FaultSite::Rename)?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        sync_dir(&self.dir)?;

        // 4. Clean stale journals (best-effort; leftovers are ignored by
        //    `load`, which pairs by the snapshot's generation).
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(g) = name
                    .strip_prefix("journal-")
                    .and_then(|s| s.strip_suffix(".gcj"))
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    if g != generation {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }

        inner.last_generation = generation;
        inner.active = Some(ActiveJournal {
            generation,
            file: journal,
            bytes: header_bytes.len() as u64,
            records: 0,
            dirty: false,
            unsynced_records: 0,
            // The header was just fsynced above.
            synced_bytes: header_bytes.len() as u64,
            synced_records: 0,
            last_sync: Instant::now(),
        });
        Ok(SnapshotInfo {
            generation,
            snapshot_bytes: image.len() as u64,
            entries: doc.entries.len(),
        })
    }

    /// Append `ops` to the active journal as one write, then apply the
    /// group-commit [`FsyncPolicy`].
    ///
    /// Errors if no rotation has happened in this process yet — appends are
    /// only meaningful relative to a snapshot this process wrote.
    ///
    /// Failure semantics: a failed *write* truncates the file back to the
    /// last record boundary before the next append, so a torn partial
    /// batch never survives mid-file; a failed *fsync* leaves the batch
    /// written, so a caller that appended it again would duplicate it — a
    /// duplicated delta fails replay's generation check, which restores
    /// cold, never wrong. The cache never re-appends: after a failed
    /// append it skips the journal until a snapshot has caught up.
    pub fn append(&self, ops: &[JournalOp<'_>]) -> io::Result<u64> {
        if ops.is_empty() {
            return Ok(self.journal_bytes());
        }
        let action = self.fault(FaultSite::JournalAppend);
        let mut inner = self.inner.lock().expect("store lock");
        let fsync = inner.fsync;
        inner.max_batch = inner.max_batch.max(ops.len() as u64);
        let active = inner
            .active
            .as_mut()
            .ok_or_else(|| io::Error::other("no active journal: rotate() first"))?;
        active.repair()?;
        let mut buf = Vec::new();
        let mut last_record_start = 0usize;
        for op in ops {
            last_record_start = buf.len();
            buf.extend(encode_record(op));
        }
        match action {
            FaultAction::Proceed => {}
            FaultAction::Error(msg) => return Err(io::Error::other(msg)),
            FaultAction::ShortWrite { keep } => {
                let keep = keep.min(buf.len());
                let _ = active.file.write_all(&buf[..keep]);
                active.dirty = true;
                return Err(io::Error::other("injected short journal write"));
            }
            FaultAction::TornRecord => {
                // Cut strictly inside the batch's final record (frames are
                // ≥ 13 bytes, so the midpoint is past the frame start and
                // before its end).
                let cut = last_record_start + (buf.len() - last_record_start) / 2;
                let _ = active.file.write_all(&buf[..cut]);
                active.dirty = true;
                return Err(io::Error::other("injected torn journal record"));
            }
        }
        if let Err(e) = active.file.write_all(&buf) {
            // Position unknown after a real short write: repair lazily on
            // the next append.
            active.dirty = true;
            return Err(e);
        }
        active.bytes += buf.len() as u64;
        active.records += ops.len() as u64;
        active.unsynced_records += ops.len() as u64;
        let due = match fsync {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryN(n) => active.unsynced_records >= n,
            FsyncPolicy::IntervalMs(ms) => {
                active.last_sync.elapsed() >= std::time::Duration::from_millis(ms)
            }
        };
        let bytes = active.bytes;
        if due {
            drop(inner);
            self.sync()?;
        }
        Ok(bytes)
    }

    /// Fsync the active journal (planned shutdowns, group commits due
    /// under the [`FsyncPolicy`], and explicit durability points).
    pub fn sync(&self) -> io::Result<()> {
        self.fault_gate(FaultSite::JournalSync)?;
        let mut inner = self.inner.lock().expect("store lock");
        if let Some(active) = inner.active.as_mut() {
            active.file.sync_all()?;
            active.mark_synced();
        }
        Ok(())
    }

    /// Bytes in the active journal (0 before the first rotation) — the
    /// size-threshold input of the auto-snapshot trigger.
    pub fn journal_bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").active.as_ref().map_or(0, |a| a.bytes)
    }

    /// Records appended to the active journal since the last rotation.
    pub fn journal_records(&self) -> u64 {
        self.inner.lock().expect("store lock").active.as_ref().map_or(0, |a| a.records)
    }

    /// Bytes of the active journal known to be on stable storage (the
    /// last fsync's high-water mark; includes the header).
    pub fn journal_synced_bytes(&self) -> u64 {
        self.inner.lock().expect("store lock").active.as_ref().map_or(0, |a| a.synced_bytes)
    }

    /// Records of the active journal known to be on stable storage.
    pub fn journal_synced_records(&self) -> u64 {
        self.inner.lock().expect("store lock").active.as_ref().map_or(0, |a| a.synced_records)
    }

    /// Largest single append batch seen by this store — the `B` term of
    /// the [`FsyncPolicy`] bounded-loss guarantee.
    pub fn max_append_batch(&self) -> u64 {
        self.inner.lock().expect("store lock").max_batch
    }

    /// Generation of the active journal (None before the first rotation).
    pub fn generation(&self) -> Option<u64> {
        self.inner.lock().expect("store lock").active.as_ref().map(|a| a.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};
    use gc_method::DatasetOp;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gc_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn doc_with(universe: u64, fp: u64) -> SnapshotDoc {
        SnapshotDoc {
            dataset_fingerprint: fp,
            universe,
            cost: (0..universe).map(|i| (i as f64, false)).collect(),
            ..SnapshotDoc::default()
        }
    }

    #[test]
    fn fresh_dir_is_cold() {
        let dir = tmpdir("cold");
        let store = CacheStore::open(&dir).unwrap();
        assert!(matches!(store.load(), LoadOutcome::Cold { .. }));
        assert_eq!(store.journal_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_then_load_roundtrips() {
        let dir = tmpdir("rotate");
        let store = CacheStore::open(&dir).unwrap();
        let info = store.rotate(&doc_with(4, 0xAB)).unwrap();
        assert_eq!(info.generation, 1);

        let insert = DatasetOp::Insert(graph_from_parts(&[Label(1)], &[]).unwrap());
        store.append(&[delta_op(&insert, 0)]).unwrap();
        store.append(&[delta_op(&DatasetOp::Remove(4), 1)]).unwrap();
        store.sync().unwrap();
        assert_eq!(store.journal_records(), 2);

        // A second store (a "restarted process") sees the same state.
        let store2 = CacheStore::open(&dir).unwrap();
        match store2.load() {
            LoadOutcome::Warm(state) => {
                assert_eq!(state.generation, 1);
                assert_eq!(state.doc.universe, 4);
                assert_eq!(state.journal.len(), 2);
                assert_eq!(state.journal[0].op, insert);
                assert_eq!(state.journal[1].op, DatasetOp::Remove(4));
            }
            LoadOutcome::Cold { reason } => panic!("expected warm, got cold: {reason}"),
        }
        // And its next rotation advances the generation past ours.
        let info2 = store2.rotate(&doc_with(4, 0xAB)).unwrap();
        assert_eq!(info2.generation, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_without_rotation_errors() {
        let dir = tmpdir("norot");
        let store = CacheStore::open(&dir).unwrap();
        assert!(store.append(&[delta_op(&DatasetOp::Remove(0), 0)]).is_err());
        assert!(store.append(&[]).is_ok(), "empty append is a no-op");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_loads_cold() {
        let dir = tmpdir("corrupt_snap");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(2, 1)).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(CacheStore::open(&dir).unwrap().load(), LoadOutcome::Cold { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_loads_cold() {
        let dir = tmpdir("corrupt_jrnl");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(2, 1)).unwrap();
        let insert = DatasetOp::Insert(graph_from_parts(&[Label(0)], &[]).unwrap());
        store.append(&[delta_op(&insert, 0)]).unwrap();
        store.sync().unwrap();
        let path = dir.join(journal_file(1));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(CacheStore::open(&dir).unwrap().load(), LoadOutcome::Cold { .. }));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_from_interrupted_rotation_is_ignored() {
        let dir = tmpdir("stale");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(2, 1)).unwrap();
        // Simulate a crash mid-rotation: a journal for generation 2 exists
        // but the snapshot still says generation 1.
        fs::write(
            dir.join(journal_file(2)),
            encode_header(&JournalHeader { generation: 2, dataset_fingerprint: 1, universe: 2 }),
        )
        .unwrap();
        let store2 = CacheStore::open(&dir).unwrap();
        match store2.load() {
            LoadOutcome::Warm(state) => assert_eq!(state.generation, 1),
            LoadOutcome::Cold { reason } => panic!("expected warm, got cold: {reason}"),
        }
        // Next rotation must skip past the stale generation 2.
        assert_eq!(store2.rotate(&doc_with(2, 1)).unwrap().generation, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The `i`-th (0-based) mutation since the snapshot.
    fn delta_op(op: &DatasetOp, i: u32) -> JournalOp<'_> {
        JournalOp { generation: i as u64 + 1, resulting_fingerprint: 0xF0 + i as u64, op }
    }

    /// Removes are the smallest deltas; graph 0 is live in every test doc.
    const REMOVE: DatasetOp = DatasetOp::Remove(0);

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = tmpdir("torn_tail");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(2, 1)).unwrap();
        for i in 0..3 {
            store.append(&[delta_op(&REMOVE, i)]).unwrap();
        }
        store.sync().unwrap();
        // Simulate a crash mid-append: cut the file inside the last record.
        let path = dir.join(journal_file(1));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        match CacheStore::open(&dir).unwrap().load() {
            LoadOutcome::Warm(state) => {
                assert_eq!(state.journal.len(), 2, "torn last record dropped");
                assert_eq!(state.torn_tail_bytes, (bytes.len() - 3) - tail_start(&bytes, 2));
            }
            LoadOutcome::Cold { reason } => panic!("expected warm with torn tail: {reason}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Byte offset where record `n` (0-based) starts in a journal image.
    fn tail_start(bytes: &[u8], n: usize) -> usize {
        let mut off = crate::journal::HEADER_LEN;
        for _ in 0..n {
            let len =
                u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
                    as usize;
            off += 12 + len;
        }
        off
    }

    #[test]
    fn group_commit_bounds_loss_and_recovers_exact_prefix() {
        let dir = tmpdir("group_commit");
        let store = CacheStore::open(&dir).unwrap();
        store.set_fsync_policy(FsyncPolicy::EveryN(4));
        store.rotate(&doc_with(2, 1)).unwrap();
        let total = 25u32;
        for i in 0..total {
            store.append(&[delta_op(&REMOVE, i)]).unwrap();
        }
        // 25 single-record batches under EveryN(4): 24 synced, 1 pending.
        assert_eq!(store.journal_synced_records(), 24);
        let synced_bytes = store.journal_synced_bytes() as usize;
        let synced_records = store.journal_synced_records();
        let bound = 4 - 1 + store.max_append_batch();

        // "Crash" at every post-sync cut point: recovery must yield an
        // exact prefix of the appended ops, at least everything synced,
        // and never lose more than the documented bound.
        let path = dir.join(journal_file(1));
        let bytes = fs::read(&path).unwrap();
        for cut in synced_bytes..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            match CacheStore::open(&dir).unwrap().load() {
                LoadOutcome::Warm(state) => {
                    let n = state.journal.len() as u64;
                    assert!(n >= synced_records, "cut {cut}: lost synced records");
                    assert!(total as u64 - n <= bound, "cut {cut}: lost more than bound");
                    for (i, rec) in state.journal.iter().enumerate() {
                        assert_eq!(rec.generation, i as u64 + 1, "cut {cut}: not a prefix");
                    }
                }
                LoadOutcome::Cold { reason } => panic!("cut {cut}: went cold: {reason}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_policy_syncs_after_elapse() {
        let dir = tmpdir("interval");
        let store = CacheStore::open(&dir).unwrap();
        store.set_fsync_policy(FsyncPolicy::IntervalMs(1));
        store.rotate(&doc_with(2, 1)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(3));
        store.append(&[delta_op(&REMOVE, 0)]).unwrap();
        assert_eq!(store.journal_synced_records(), 1, "elapsed interval forces group commit");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_faults_repair_and_retry_cleanly() {
        use crate::faults::{Failpoint, FaultPlan, FaultSite};
        let dir = tmpdir("faulty_append");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(2, 1)).unwrap();
        let plan = Arc::new(FaultPlan::seeded(7));
        store.set_fault_plan(Some(plan.clone()));

        // A transient error: nothing written, retry succeeds.
        plan.arm(FaultSite::JournalAppend, Failpoint::ErrOnce);
        assert!(store.append(&[delta_op(&REMOVE, 0)]).is_err());
        store.append(&[delta_op(&REMOVE, 0)]).unwrap();

        // A torn record: partial bytes hit the file, the next append
        // truncates them away before writing.
        plan.arm(FaultSite::JournalAppend, Failpoint::TornRecord);
        assert!(store.append(&[delta_op(&REMOVE, 1)]).is_err());
        store.append(&[delta_op(&REMOVE, 1)]).unwrap();

        // A short write: same repair path.
        plan.arm(FaultSite::JournalAppend, Failpoint::ShortWrite { keep: 2 });
        assert!(store.append(&[delta_op(&REMOVE, 2)]).is_err());
        store.append(&[delta_op(&REMOVE, 2)]).unwrap();

        store.sync().unwrap();
        assert_eq!(plan.fired(), 3);

        // The journal holds exactly the three successful appends.
        match CacheStore::open(&dir).unwrap().load() {
            LoadOutcome::Warm(state) => {
                assert_eq!(state.journal.len(), 3);
                assert_eq!(state.torn_tail_bytes, 0, "repair removed every torn byte");
            }
            LoadOutcome::Cold { reason } => panic!("expected warm: {reason}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_rotation_faults_fail_closed() {
        use crate::faults::{Failpoint, FaultPlan, FaultSite};
        let dir = tmpdir("faulty_rotate");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(2, 1)).unwrap();
        let plan = Arc::new(FaultPlan::seeded(7));
        store.set_fault_plan(Some(plan.clone()));

        for point in [Failpoint::ErrOnce, Failpoint::TornRecord, Failpoint::ShortWrite { keep: 10 }]
        {
            plan.arm(FaultSite::SnapshotWrite, point);
            assert!(store.rotate(&doc_with(2, 1)).is_err());
            // The committed pair survives every failed rotation attempt.
            match CacheStore::open(&dir).unwrap().load() {
                LoadOutcome::Warm(state) => assert_eq!(state.generation, 1),
                LoadOutcome::Cold { reason } => panic!("rotation fault corrupted store: {reason}"),
            }
        }
        for site in [FaultSite::JournalCreate, FaultSite::DirSync, FaultSite::Rename] {
            plan.arm(site, Failpoint::ErrOnce);
            assert!(store.rotate(&doc_with(2, 1)).is_err());
            match CacheStore::open(&dir).unwrap().load() {
                LoadOutcome::Warm(state) => assert_eq!(state.generation, 1),
                LoadOutcome::Cold { reason } => panic!("rotation fault corrupted store: {reason}"),
            }
        }
        // With the plan drained, rotation works and generations advanced
        // past every failed attempt's number.
        store.set_fault_plan(None);
        let info = store.rotate(&doc_with(2, 1)).unwrap();
        assert!(info.generation > 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_resets_journal() {
        let dir = tmpdir("reset");
        let store = CacheStore::open(&dir).unwrap();
        store.rotate(&doc_with(1, 1)).unwrap();
        store.append(&[delta_op(&REMOVE, 0)]).unwrap();
        assert_eq!(store.journal_records(), 1);
        store.rotate(&doc_with(1, 1)).unwrap();
        assert_eq!(store.journal_records(), 0);
        match store.load() {
            LoadOutcome::Warm(state) => assert!(state.journal.is_empty()),
            LoadOutcome::Cold { reason } => panic!("expected warm: {reason}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
