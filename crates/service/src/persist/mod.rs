//! Durable service state: write-ahead log, compacting snapshots, the
//! table spill store, and crash recovery.
//!
//! Layout under the state directory:
//!
//! * `service.wal` — framed state-change records (see [`wal`] for the
//!   framing, [`state`] for the grammar);
//! * `snapshot` — a compacted image: the same framed records ending
//!   with an `end` marker, written atomically (tmp file + fsync +
//!   rename + directory fsync);
//! * `snapshot.tmp` — scratch for the atomic snapshot write;
//! * `tables/` — one file per cached distance table (see [`tables`]).
//!   Tables are rebuildable, so the log and the snapshot carry only the
//!   small authoritative records.
//!
//! Recovery loads the snapshot (if any), replays the WAL on top of it,
//! reads the table files, and truncates the WAL once a fresh snapshot
//! captures the merged state. A torn WAL tail —
//! the expected residue of a crash mid-append — is dropped silently, as
//! is a damaged table file; a torn *snapshot* is an error, because
//! snapshots are written atomically and a damaged one means something
//! other than a crash-during-append went wrong.
//!
//! Lock order: the WAL mutex is acquired *before* any core state lock,
//! everywhere. Appends therefore never run while the queue lock is
//! held, and [`Persistence::snapshot_with`] can hold the WAL mutex
//! across capture → write → truncate, so no record can land between
//! the captured image and the truncation that makes it authoritative.
//! Table spill I/O takes the store's own lock and never the WAL's. The
//! WAL critical section and the spill store's sync are the only two
//! write paths to the state directory.

pub mod state;
pub mod tables;
pub mod wal;

pub use state::{RecoveredJob, RecoveredState};
pub use wal::WalTap;

/// A replication endpoint: observes every WAL record (through the
/// [`WalTap`] supertrait, i.e. in authoritative commit order under the
/// WAL lock) and can block an acknowledgement until the records behind
/// it are replicated.
///
/// The core calls [`ReplicationSink::barrier`] at each ack point
/// (submit, batch submit, cancel, finish, topology registration,
/// fault) *after* releasing the WAL lock, so implementations may block
/// on follower acknowledgements without stalling concurrent appends.
pub trait ReplicationSink: wal::WalTap {
    /// Block until every record published so far is replicated per the
    /// configured policy. A no-op for asynchronous replication.
    fn barrier(&self);

    /// `key value` lines describing replication state, appended to the
    /// service's `STATS` report.
    fn stats_lines(&self) -> Vec<String> {
        Vec::new()
    }
}

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// WAL file name inside the state directory.
pub const WAL_FILE: &str = "service.wal";
/// Snapshot file name inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot";
/// Scratch file the atomic snapshot write renames from.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Every record is synced, and so is every table spill file.
    Always,
    /// Records that back an acknowledgement (job accept/finish/cancel,
    /// topology registration, fault) are synced; table spill files are
    /// not, because losing one costs a table rebuild, never
    /// correctness. The default.
    #[default]
    OnAck,
    /// Nothing is synced explicitly; a crash can lose the OS write-back
    /// window. Fastest, for throwaway deployments.
    Never,
}

/// Where and how service state is persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistOptions {
    state_dir: PathBuf,
    fsync: FsyncPolicy,
    snapshot_wal_bytes: u64,
}

impl PersistOptions {
    /// Persist under `state_dir` with the default fsync policy
    /// ([`FsyncPolicy::OnAck`]) and auto-snapshot threshold (1 MiB of
    /// WAL).
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            state_dir: state_dir.into(),
            fsync: FsyncPolicy::default(),
            snapshot_wal_bytes: 1 << 20,
        }
    }

    /// Override the fsync policy.
    #[must_use]
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Override the WAL size past which an automatic compacting
    /// snapshot is taken.
    #[must_use]
    pub fn snapshot_wal_bytes(mut self, bytes: u64) -> Self {
        self.snapshot_wal_bytes = bytes;
        self
    }

    /// The configured state directory.
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }
}

/// Why persistence could not be opened or recovered.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The snapshot or an intact WAL record does not parse — state that
    /// framed correctly but cannot be trusted. Recovery refuses to
    /// guess.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "persist io: {e}"),
            Self::Corrupt(why) => write!(f, "persist corrupt: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// What startup recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Records loaded from the snapshot.
    pub snapshot_records: usize,
    /// Intact records replayed from the WAL.
    pub wal_records: usize,
    /// Whether a torn WAL tail was dropped.
    pub torn_tail: bool,
    /// Jobs requeued (accepted but unfinished at crash time).
    pub recovered_jobs: usize,
    /// Topologies restored into the registry.
    pub recovered_topologies: usize,
    /// Distance tables restored into the cache without rebuilding.
    pub restored_tables: usize,
    /// Requeued jobs whose target was retargeted through the epoch
    /// chain (their original fingerprint had been faulted over).
    pub retargeted_jobs: usize,
}

/// An open state directory: the WAL plus snapshot machinery.
pub struct Persistence {
    options: PersistOptions,
    wal: Mutex<wal::WalWriter>,
    tables: tables::TableStore,
    auto_snapshotting: AtomicBool,
}

impl Persistence {
    /// Open (creating if needed) the state directory, its WAL and its
    /// table spill directory.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn open(options: PersistOptions) -> Result<Self, PersistError> {
        std::fs::create_dir_all(&options.state_dir)?;
        let wal = wal::WalWriter::open(&options.state_dir.join(WAL_FILE))?;
        let tables = tables::TableStore::open(&options.state_dir)?;
        Ok(Self {
            options,
            wal: Mutex::new(wal),
            tables,
            auto_snapshotting: AtomicBool::new(false),
        })
    }

    /// The table spill store under this state directory.
    pub fn tables(&self) -> &tables::TableStore {
        &self.tables
    }

    /// The state directory this instance writes under.
    pub fn state_dir(&self) -> &Path {
        &self.options.state_dir
    }

    fn wal_path(&self) -> PathBuf {
        self.options.state_dir.join(WAL_FILE)
    }

    fn snapshot_path(&self) -> PathBuf {
        self.options.state_dir.join(SNAPSHOT_FILE)
    }

    /// Append one record. `ack` marks records that back an
    /// acknowledgement; together with the configured [`FsyncPolicy`] it
    /// decides whether the append is synced before returning. Returns
    /// the WAL size after the append.
    ///
    /// Never call while holding a core state lock (WAL-before-state
    /// lock order).
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn append(&self, payload: &str, ack: bool) -> std::io::Result<u64> {
        let sync = self.should_sync(ack);
        self.with_wal(|wal| wal.append(payload.as_bytes(), sync))
    }

    /// Whether the configured [`FsyncPolicy`] syncs a record with the
    /// given acknowledgement weight.
    pub fn should_sync(&self, ack: bool) -> bool {
        match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::OnAck => ack,
            FsyncPolicy::Never => false,
        }
    }

    /// Run `f` with exclusive access to the WAL. Core state locks may be
    /// taken *inside* `f` (the global order is WAL-before-state), which
    /// is how an append and the in-memory transition it mirrors are made
    /// atomic with respect to [`Self::snapshot_with`] — a snapshot holds
    /// this same lock across capture and truncation, so it either sees
    /// both halves of the transition or neither.
    pub fn with_wal<R>(&self, f: impl FnOnce(&mut wal::WalWriter) -> R) -> R {
        let mut wal = self.wal.lock().expect("wal lock");
        f(&mut wal)
    }

    /// Bytes currently in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().expect("wal lock").bytes()
    }

    /// Whether the WAL has outgrown the auto-snapshot threshold.
    pub fn wants_snapshot(&self) -> bool {
        self.wal_bytes() >= self.options.snapshot_wal_bytes
    }

    /// Claim the (single) auto-snapshot slot. Returns `false` when
    /// another thread is already snapshotting; callers that win must
    /// call [`Self::end_auto_snapshot`] when done.
    pub fn try_begin_auto_snapshot(&self) -> bool {
        self.auto_snapshotting
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Release the auto-snapshot slot.
    pub fn end_auto_snapshot(&self) {
        self.auto_snapshotting.store(false, Ordering::Release);
    }

    /// Write a compacting snapshot and truncate the WAL.
    ///
    /// The WAL mutex is held across the whole operation, so `capture`
    /// (which takes the core's state locks internally) sees a state in
    /// which every appended record is already reflected, and no append
    /// can slip in between the captured image and the truncation.
    ///
    /// The image is made atomic the classic way: write to a tmp file,
    /// `sync_all`, rename over the previous snapshot, fsync the
    /// directory. A crash at any point leaves either the old snapshot
    /// or the new one, never a blend.
    ///
    /// # Errors
    /// Propagates filesystem failures; the WAL is only truncated after
    /// the new snapshot is durable.
    pub fn snapshot_with<F>(&self, capture: F) -> std::io::Result<u64>
    where
        F: FnOnce() -> Vec<String>,
    {
        let mut wal = self.wal.lock().expect("wal lock");
        let mut records = capture();
        records.push("end".to_string());
        let mut image = Vec::new();
        for record in &records {
            wal::encode_frame(&mut image, record.as_bytes())?;
        }
        let tmp = self.options.state_dir.join(SNAPSHOT_TMP_FILE);
        {
            let mut f = File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &image)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.snapshot_path())?;
        // Make the rename itself durable (best-effort: directory
        // handles cannot be synced on every platform).
        let _ = File::open(&self.options.state_dir).and_then(|d| d.sync_all());
        wal.truncate()?;
        Ok(image.len() as u64)
    }

    /// Load the snapshot's records, or `None` when no snapshot exists.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] when the snapshot exists but is torn
    /// or missing its `end` marker — snapshots are written atomically,
    /// so unlike a torn WAL tail this is not a survivable crash
    /// artifact.
    pub fn load_snapshot(&self) -> Result<Option<Vec<String>>, PersistError> {
        let data = match std::fs::read(self.snapshot_path()) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let replayed = wal::replay_bytes(&data);
        if replayed.torn_tail {
            return Err(PersistError::Corrupt("snapshot has a torn tail".into()));
        }
        if replayed.records.last().map(String::as_str) != Some("end") {
            return Err(PersistError::Corrupt("snapshot missing end marker".into()));
        }
        Ok(Some(replayed.records))
    }

    /// Replay the WAL file from disk (tolerating a torn tail).
    ///
    /// # Errors
    /// Propagates filesystem failures other than the file not existing.
    pub fn replay_wal(&self) -> std::io::Result<wal::Replay> {
        wal::replay(&self.wal_path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_options(tag: &str) -> PersistOptions {
        let dir =
            std::env::temp_dir().join(format!("commsched-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PersistOptions::new(dir)
    }

    #[test]
    fn append_replay_snapshot_cycle() {
        let options = temp_options("cycle");
        let dir = options.state_dir().to_path_buf();
        let p = Persistence::open(options).unwrap();
        p.append(
            "accept 1 SCHEDULE topo=paper24 routing=updown:0 clusters=4 seed=1",
            true,
        )
        .unwrap();
        p.append("cancel 1", false).unwrap();
        assert!(p.wal_bytes() > 0);
        let replayed = p.replay_wal().unwrap();
        assert_eq!(replayed.records.len(), 2);
        assert!(!replayed.torn_tail);

        // No snapshot yet.
        assert!(p.load_snapshot().unwrap().is_none());
        let bytes = p.snapshot_with(|| vec!["next 2".to_string()]).unwrap();
        assert!(bytes > 0);
        // Snapshot absorbed the log: WAL is empty, records load back.
        assert_eq!(p.wal_bytes(), 0);
        let records = p.load_snapshot().unwrap().unwrap();
        assert_eq!(records, vec!["next 2", "end"]);

        // A fresh instance over the same directory sees the same state.
        drop(p);
        let p = Persistence::open(PersistOptions::new(&dir)).unwrap();
        assert_eq!(p.wal_bytes(), 0);
        assert_eq!(p.load_snapshot().unwrap().unwrap(), vec!["next 2", "end"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_snapshot_is_rejected() {
        let options = temp_options("torn");
        let dir = options.state_dir().to_path_buf();
        let p = Persistence::open(options).unwrap();
        p.snapshot_with(|| vec!["next 5".to_string()]).unwrap();
        // Chop the end marker off: the snapshot must now be refused.
        let path = dir.join(SNAPSHOT_FILE);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 4]).unwrap();
        assert!(matches!(p.load_snapshot(), Err(PersistError::Corrupt(_))));
        // Dropping the last whole record (the end marker) is also refused.
        let trimmed = wal::replay_bytes(&data).valid_bytes as usize
            - (wal::FRAME_HEADER_BYTES as usize + "end".len());
        std::fs::write(&path, &data[..trimmed]).unwrap();
        assert!(matches!(p.load_snapshot(), Err(PersistError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_and_thresholds() {
        let options = temp_options("policy")
            .fsync(FsyncPolicy::Never)
            .snapshot_wal_bytes(32);
        let dir = options.state_dir().to_path_buf();
        let p = Persistence::open(options).unwrap();
        assert!(!p.wants_snapshot());
        p.append("cancel 1", true).unwrap();
        p.append("cancel 2", true).unwrap();
        assert!(p.wants_snapshot());
        assert!(p.try_begin_auto_snapshot());
        assert!(!p.try_begin_auto_snapshot(), "slot must be exclusive");
        p.end_auto_snapshot();
        assert!(p.try_begin_auto_snapshot());
        p.end_auto_snapshot();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
