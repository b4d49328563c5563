//! The table spill store: one file per cached distance table.
//!
//! A table of equivalent distances is derived state — a pure function
//! of (topology, routing) — so it stays out of the WAL and the
//! snapshot. Each cached table lives in `<state-dir>/tables/` under a
//! name derived from its cache key, holding exactly one `cache` record
//! ([`super::state::record_cache`]) in the WAL frame (see
//! [`super::wal`]): a UTF-8 head line naming the key, then the table's
//! bits in the binary format of `commsched_distance::io` — `n`, a zero
//! report tag, and the upper triangle as `f64::to_bits`, so a restored
//! table is the built one bit for bit and neither side formats or parses
//! a float. It is the one frame whose
//! payload is not all text, and this module reads it itself
//! (`load_file`), not through the log's interpreter.
//!
//! Files are written tmp + rename, so a reader sees a whole file or
//! none; whatever else is found there — a stray tmp file, a file whose
//! bytes never reached the disk, a file in the text format of an older
//! daemon or holding an older daemon's approximate table, bytes an
//! operator put there — fails a check and costs a rebuild, never an
//! error: the file is bytes from outside the program, and every length
//! in it is proved against the bytes present before anything is sized
//! by it.
//!
//! Writes happen off the job's critical path: a worker spills after it
//! has settled the job that built a table, so the directory may lag the
//! cache by the spills in flight — the window the fsync class of a
//! spill (`ack = false`) allows anyway.
//!
//! The store keeps the directory equal to the cache: [`TableStore::sync`]
//! writes a file for every cached table that has none and deletes every
//! file whose key the cache no longer holds (LRU eviction, `FAULT`
//! invalidation), so the directory never outgrows the cache capacity.

use super::state::{record_cache, RecoveredState, RecoveredTable};
use super::wal;
use crate::cache::{DistanceCache, RoutedTable, RoutingSpec, TableSpec};
use crate::protocol::{format_fingerprint, parse_fingerprint};
use commsched_distance::table_from_bytes;
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
    fn put(&self, name: &str, payload: &[u8], fsync: bool) -> std::io::Result<u64> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut frame = Vec::with_capacity(wal::FRAME_HEADER_BYTES as usize + payload.len());
        wal::encode_frame(&mut frame, payload)?;
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
    /// ready entry that has none — just built, or left over from a
    /// write that failed. A
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
            let record = record_cache(fp, routing, tspec, &value.table, None);
            match self.put(&name, record.as_bytes(), fsync) {
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

    /// Add the table of every intact file to `state.tables`, oldest file
    /// first so that order defines recency as replay order does in a
    /// log. Returns how many files were rejected (see `load_file`). A
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
            match load_file(&path) {
                Some(entry) => state.tables.push(entry),
                None => rejected += 1,
            }
        }
        rejected
    }
}

/// The table one spill file holds; `None` when the file is rejected:
/// not exactly one intact frame, no `cache <fp> <routing> <tspec>` head
/// line, stored under a name that is not its key's (distinct names are
/// distinct keys, so no two files restore the same entry), or a body
/// the binary table decoder refuses.
fn load_file(path: &Path) -> Option<RecoveredTable> {
    let data = std::fs::read(path).ok()?;
    let payload = wal::decode_frame(&data)?;
    if wal::FRAME_HEADER_BYTES as usize + payload.len() != data.len() {
        return None;
    }
    let head_len = payload.iter().position(|&b| b == b'\n')?;
    let head = std::str::from_utf8(&payload[..head_len]).ok()?;
    let words: Vec<&str> = head.split_whitespace().collect();
    let ["cache", fp, routing, tspec] = words.as_slice() else {
        return None;
    };
    let key: TableKey = (
        parse_fingerprint(fp)?,
        routing.parse().ok()?,
        tspec.parse().ok()?,
    );
    // A record filed under another key's name would dodge that key's
    // deletion, so it does not count.
    if path.file_name()?.to_str()? != file_name(key) {
        return None;
    }
    let table = table_from_bytes(&payload[head_len + 1..]).ok()?;
    Some((key, table))
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
            };
            cache.insert_ready(key(fp), Arc::new(value));
        }
        cache
    }

    /// Frame `payload` and write it as the file of `key` under `dir`.
    fn write_file(dir: &Path, key: TableKey, payload: &[u8]) -> PathBuf {
        let mut frame = Vec::new();
        wal::encode_frame(&mut frame, payload).unwrap();
        let path = dir.join(file_name(key));
        std::fs::write(&path, &frame).unwrap();
        path
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
            file_name((1, RoutingSpec::ShortestPath, TableSpec::Exact)),
            "0000000000000001-shortest-exact.tbl"
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
        // A well-framed record of another kind is not a table.
        write_file(&tables, key(6), b"next 99");

        let mut state = RecoveredState::default();
        assert_eq!(store.load_into(&mut state), 4);
        assert_eq!(state.tables.len(), 1);
        let (got_key, table) = &state.tables[0];
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

    #[test]
    fn a_file_restores_its_table_bit_exactly() {
        let dir = temp_dir("file");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = designed::ring(5, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let key = key(topo.fingerprint());
        let record = record_cache(key.0, key.1, key.2, &table, None);
        let path = write_file(&dir, key, record.as_bytes());
        let (got_key, got) = load_file(&path).expect("intact file");
        assert_eq!(got_key, key);
        for i in 0..topo.num_switches() {
            for j in 0..topo.num_switches() {
                assert_eq!(got.get(i, j).to_bits(), table.get(i, j).to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stale_approximate_file_is_counted_and_deleted() {
        let dir = temp_dir("approx");
        let store = TableStore::open(&dir).unwrap();
        let tables = dir.join(TABLES_DIR);
        // What an older daemon spilled for an `approx-eps=0.05` job: the
        // key's name and head, then a 2-switch table tagged 1, its report
        // (eps micros, err_max, pairs approximated and escalated) before
        // the triangle.
        let name = "0000000000000001-updown_0-approx_50000.tbl";
        let head = "cache 0000000000000001 updown:0 approx:50000\n";
        let mut body = 2u64.to_le_bytes().to_vec();
        body.push(1);
        body.extend_from_slice(&50_000u32.to_le_bytes());
        body.extend_from_slice(&0.01f64.to_bits().to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        let mut frame = Vec::new();
        wal::encode_frame(&mut frame, &[head.as_bytes(), &body].concat()).unwrap();
        std::fs::write(tables.join(name), &frame).unwrap();
        assert!(load_file(&tables.join(name)).is_none());
        // Either half alone is refused as well: the body under an exact
        // key's head fails the decoder on its tag.
        let exact_head = "cache 0000000000000001 updown:0 exact\n";
        let path = write_file(&tables, key(1), &[exact_head.as_bytes(), &body].concat());
        assert!(load_file(&path).is_none());
        std::fs::remove_file(path).unwrap();

        let mut state = RecoveredState::default();
        assert_eq!(store.load_into(&mut state), 1);
        assert!(state.tables.is_empty());
        let report = store.sync(&DistanceCache::new(8), false);
        assert_eq!((report.spilled, report.errors), (0, 0));
        assert!(names(&dir).is_empty());

        // A restart on such a directory: one spill error, no table, and
        // the file is gone.
        std::fs::write(tables.join(name), &frame).unwrap();
        let (core, recovered) = crate::ServiceCore::recover(
            crate::ServiceCoreConfig::default(),
            super::super::PersistOptions::new(&dir),
        )
        .unwrap();
        assert_eq!(recovered.restored_tables, 0);
        let metrics = core.stats.registry().render_prometheus();
        assert!(
            metrics.contains("service_table_spill_errors_total 1\n"),
            "{metrics}"
        );
        assert!(names(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn files_a_log_reader_would_have_taken_are_rejected() {
        let dir = temp_dir("old");
        std::fs::create_dir_all(&dir).unwrap();
        let topo = designed::ring(5, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let k = key(topo.fingerprint());
        let head = format!("cache {} updown:0 exact\n", format_fingerprint(k.0));
        let body = commsched_distance::table_to_bytes(&table);
        let with_head = |head: &str| [head.as_bytes(), &body[..]].concat();
        assert!(load_file(&write_file(&dir, k, &with_head(&head))).is_some());

        // The text body of a daemon from before the binary format.
        let text = format!("{head}# commsched distance-table v1\nn 1\nrow 0.00000000000000000e0\n");
        assert!(load_file(&write_file(&dir, k, text.as_bytes())).is_none());
        // Head lines: the two-word legacy spelling, an unknown table
        // spec, an unknown routing, a short fingerprint, a fifth word,
        // another verb, no line end at all.
        let fp = format_fingerprint(k.0);
        for head in [
            format!("cache {fp} updown:0\n"),
            format!("cache {fp} updown:0 fuzzy\n"),
            format!("cache {fp} left exact\n"),
            "cache 1 updown:0 exact\n".to_string(),
            format!("cache {fp} updown:0 exact extra\n"),
            format!("table {fp} updown:0 exact\n"),
            format!("cache {fp} updown:0 exact"),
        ] {
            assert!(
                load_file(&write_file(&dir, k, &with_head(&head))).is_none(),
                "accepted head {head:?}"
            );
        }
        // A head line that is not UTF-8.
        let mut latin1 = with_head(&head);
        latin1[3] = 0xe9;
        assert!(load_file(&write_file(&dir, k, &latin1)).is_none());
        // Two frames, or bytes after the frame.
        let mut doubled = std::fs::read(write_file(&dir, k, &with_head(&head))).unwrap();
        doubled.extend_from_slice(&doubled.clone());
        std::fs::write(dir.join(file_name(k)), &doubled).unwrap();
        assert!(load_file(&dir.join(file_name(k))).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
