//! The table spill store: one file per cached distance table.
//!
//! A table of equivalent distances is derived state — a pure function
//! of (topology, routing, solver spec) — so it stays out of the WAL and
//! the snapshot. Each cached table lives in `<state-dir>/tables/` under
//! a name derived from its cache key, holding exactly one `cache`
//! record (see [`super::state`]) in the WAL frame (see [`super::wal`]).
//! Files are written tmp + rename, so a reader sees a whole file or
//! none; whatever else a crash leaves behind — a stray tmp file, a file
//! whose bytes never reached the disk — fails the frame check and costs
//! a rebuild, never an error.
//!
//! The store keeps the directory equal to the cache: [`TableStore::sync`]
//! writes a file for every cached table that has none and deletes every
//! file whose key the cache no longer holds (LRU eviction, `FAULT`
//! invalidation), so the directory never outgrows the cache capacity.

use super::state::{record_cache, RecoveredState};
use super::wal;
use crate::cache::{DistanceCache, RoutedTable, RoutingSpec, TableSpec};
use crate::protocol::format_fingerprint;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Directory name inside the state directory.
pub const TABLES_DIR: &str = "tables";

const TABLE_EXT: &str = "tbl";

/// A cache key: `(fingerprint, routing, table-spec)`.
pub type TableKey = (u64, RoutingSpec, TableSpec);

/// The file name a key's table is stored under, e.g.
/// `00c0ffee00c0ffee-updown_0-exact.tbl`.
pub fn file_name((fp, routing, tspec): TableKey) -> String {
    format!("{}-{routing}-{tspec}.{TABLE_EXT}", format_fingerprint(fp)).replace(':', "_")
}

/// What one [`TableStore::sync`] did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Tables written.
    pub spilled: u64,
    /// Bytes written (frames included).
    pub bytes: u64,
    /// Writes or deletions that failed.
    pub errors: u64,
    /// Wall time of the pass, encoding included.
    pub nanos: u64,
}

/// The spill directory of one state directory.
pub struct TableStore {
    dir: PathBuf,
    /// Serializes syncs: each reads the cache's membership and updates
    /// the directory as one step, so the last one to run leaves the
    /// directory equal to the cache as it is then. Only syncs wait on it
    /// (for at most another sync's encode and write), and it is
    /// independent of the WAL lock: neither is ever taken inside the
    /// other.
    lock: Mutex<()>,
}

impl TableStore {
    /// Open (creating if needed) `<state_dir>/tables/`.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn open(state_dir: &Path) -> std::io::Result<Self> {
        let dir = state_dir.join(TABLES_DIR);
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            lock: Mutex::new(()),
        })
    }

    /// Write `payload` (a `cache` record) under `name`: tmp file,
    /// optional fsync, rename. Returns the bytes written.
    fn put(&self, name: &str, payload: &str, fsync: bool) -> std::io::Result<u64> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut frame = Vec::with_capacity(wal::FRAME_HEADER_BYTES as usize + payload.len());
        wal::encode_frame(&mut frame, payload.as_bytes())?;
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&frame)?;
            if fsync {
                f.sync_all()?;
            }
        }
        std::fs::rename(&tmp, self.dir.join(name))?;
        if fsync {
            // Best-effort, as for the snapshot rename.
            let _ = File::open(&self.dir).and_then(|d| d.sync_all());
        }
        Ok(frame.len() as u64)
    }

    /// Make the directory equal to `cache`: delete every file whose key
    /// is not a ready cache entry (evicted, invalidated, or crash
    /// residue such as a stray tmp file), then write a file for every
    /// ready entry that has none — just built, restored from an older
    /// daemon's in-log record, or left over from a write that failed. A
    /// file is never rewritten: its name determines its table. `fsync`
    /// forces the new files to stable storage.
    pub fn sync(&self, cache: &DistanceCache, fsync: bool) -> SyncReport {
        let started = Instant::now();
        let mut report = SyncReport::default();
        let _guard = self.lock.lock().expect("table store lock");
        let mut missing: HashMap<String, (TableKey, Arc<RoutedTable>)> = cache
            .ready_entries()
            .into_iter()
            .map(|(key, value)| (file_name(key), (key, value)))
            .collect();
        match std::fs::read_dir(&self.dir) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    let cached = entry
                        .file_name()
                        .to_str()
                        .is_some_and(|name| missing.remove(name).is_some());
                    if !cached && std::fs::remove_file(entry.path()).is_err() {
                        report.errors += 1;
                    }
                }
            }
            Err(_) => report.errors += 1,
        }
        for (name, ((fp, routing, tspec), value)) in missing {
            let record = record_cache(fp, routing, tspec, &value.table, value.approx.as_ref());
            match self.put(&name, &record, fsync) {
                Ok(bytes) => {
                    report.spilled += 1;
                    report.bytes += bytes;
                }
                Err(_) => report.errors += 1,
            }
        }
        report.nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    /// Feed every intact table file to `state` (the one interpreter the
    /// WAL and snapshot use), oldest file first so replay order defines
    /// recency as it does in a log. Returns how many files were
    /// rejected: not exactly one intact frame, not a `cache` record,
    /// unparsable, or stored under a name that is not its key's. A
    /// rejected file is left for [`Self::sync`] to delete.
    pub fn load_into(&self, state: &mut RecoveredState) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == TABLE_EXT))
            .map(|p| {
                let modified = std::fs::metadata(&p)
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                (modified, p)
            })
            .collect();
        files.sort();
        let mut rejected = 0;
        for (_, path) in files {
            if load_file(&path, state).is_none() {
                rejected += 1;
            }
        }
        rejected
    }
}

/// Apply one table file to `state`; `None` when the file is rejected
/// (and `state` is unchanged).
fn load_file(path: &Path, state: &mut RecoveredState) -> Option<()> {
    let data = std::fs::read(path).ok()?;
    let replayed = wal::replay_bytes(&data);
    let [payload] = replayed.records.as_slice() else {
        return None;
    };
    if replayed.torn_tail {
        return None;
    }
    // Parsed on the side: only a table may come out of a table file,
    // whatever record it holds.
    let mut parsed = RecoveredState::default();
    parsed.apply(payload).ok()?;
    let entry = parsed.tables.pop()?;
    // A record filed under another key's name would dodge that key's
    // deletion, so it does not count.
    if path.file_name()?.to_str()? != file_name(entry.0) {
        return None;
    }
    state.push_table(entry);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("commsched-tables-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(fp: u64) -> TableKey {
        (fp, RoutingSpec::UpDown { root: 0 }, TableSpec::Exact)
    }

    /// A cache holding a ring table under each of `fps`.
    fn cache_with(fps: &[u64]) -> DistanceCache {
        let cache = DistanceCache::new(8);
        let topo = designed::ring(5, 1);
        for &fp in fps {
            let routing = UpDownRouting::new(&topo, 0).unwrap();
            let table = equivalent_distance_table(&topo, &routing).unwrap();
            let value = RoutedTable {
                routing: Box::new(routing),
                table: table.into_shared(),
                approx: None,
            };
            cache.insert_ready(key(fp), Arc::new(value));
        }
        cache
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(dir.join(TABLES_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn file_names_are_a_function_of_the_key() {
        assert_eq!(
            file_name(key(0xc0ffee)),
            "0000000000c0ffee-updown_0-exact.tbl"
        );
        assert_eq!(
            file_name((
                1,
                RoutingSpec::ShortestPath,
                TableSpec::Approx { eps_micros: 50_000 }
            )),
            "0000000000000001-shortest-approx_50000.tbl"
        );
    }

    #[test]
    fn sync_makes_the_directory_equal_to_the_cache() {
        let dir = temp_dir("sync");
        let store = TableStore::open(&dir).unwrap();
        let cache = cache_with(&[1, 2]);
        let report = store.sync(&cache, false);
        assert_eq!((report.spilled, report.errors), (2, 0));
        assert!(report.bytes > 0);
        assert_eq!(names(&dir), vec![file_name(key(1)), file_name(key(2))]);
        // Nothing to do: no file is rewritten.
        let report = store.sync(&cache, false);
        assert_eq!((report.spilled, report.bytes, report.errors), (0, 0, 0));

        // Key 1 leaves the cache, key 2's file is lost, and a stray tmp
        // file and an unrelated file appear. The next sync deletes the
        // three strangers and writes key 2 again.
        cache.invalidate_topology(1);
        let tables = dir.join(TABLES_DIR);
        std::fs::remove_file(tables.join(file_name(key(2)))).unwrap();
        std::fs::write(tables.join("x.tbl.tmp"), b"partial").unwrap();
        std::fs::write(tables.join("stranger"), b"?").unwrap();
        let report = store.sync(&cache, true);
        assert_eq!((report.spilled, report.errors), (1, 0));
        assert_eq!(names(&dir), vec![file_name(key(2))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_restores_intact_files_and_rejects_damaged_ones() {
        let dir = temp_dir("load");
        let store = TableStore::open(&dir).unwrap();
        let cache = cache_with(&[1, 2, 3, 4]);
        store.sync(&cache, false);
        let tables = dir.join(TABLES_DIR);
        let path = |fp: u64| tables.join(file_name(key(fp)));

        // 2: one flipped byte; 3: truncated; 4: renamed to another key.
        let mut bytes = std::fs::read(path(2)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path(2), &bytes).unwrap();
        let bytes = std::fs::read(path(3)).unwrap();
        std::fs::write(path(3), &bytes[..bytes.len() - 7]).unwrap();
        std::fs::rename(path(4), path(5)).unwrap();
        // A well-framed record of another kind must not be interpreted.
        let mut frame = Vec::new();
        wal::encode_frame(&mut frame, b"next 99").unwrap();
        std::fs::write(path(6), &frame).unwrap();

        let mut state = RecoveredState::default();
        assert_eq!(store.load_into(&mut state), 4);
        assert_eq!(state.next_id, 0, "a non-cache record was applied");
        assert_eq!(state.tables.len(), 1);
        let (got_key, table, _) = &state.tables[0];
        assert_eq!(*got_key, key(1));
        let (_, expected) = &cache.ready_entries()[0];
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(
                    table.get(i, j).to_bits(),
                    expected.table.get(i, j).to_bits()
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
