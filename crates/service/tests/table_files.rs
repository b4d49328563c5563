//! Whatever sits under `tables/`: a spill file is bytes from outside
//! the program — a crash, a disk, an operator or an attacker wrote them
//! — and its first binary field is a length. Valid files are mutated
//! byte by byte (with the frame checksum recomputed half of the time, so
//! that the mutation reaches the record behind it), truncated, and given
//! hostile switch counts (2³², 2⁶⁴ − 1). Whatever is found,
//! `TableStore::load_into` does not panic, asks for no allocation larger
//! than twice the file plus the `8 n` of the diagonal the format does
//! not store, and restores a table only under the key the file is named
//! for.

use commsched_distance::DistanceTable;
use commsched_service::cache::{RoutingSpec, TableSpec};
use commsched_service::persist::state::record_cache;
use commsched_service::persist::tables::{file_name, TableKey, TableStore, TABLES_DIR};
use commsched_service::persist::wal::{encode_frame, FRAME_HEADER_BYTES};
use commsched_service::persist::RecoveredState;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread asked for since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct Watching;

// SAFETY: every call is forwarded unchanged to `System`; the only extra
// work is a store to a const-initialised, destructor-free thread-local,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// What reading a directory entry costs besides the file: path strings,
/// the file list, the head line's words.
const BOOKKEEPING_BYTES: usize = 512;

fn keys() -> impl Strategy<Value = TableKey> {
    (
        any::<u64>(),
        prop_oneof![
            Just(RoutingSpec::ShortestPath),
            (0usize..4).prop_map(|root| RoutingSpec::UpDown { root }),
        ],
        Just(TableSpec::Exact),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_file_panics_over_allocates_or_restores_under_another_key(
        key in keys(),
        n in 0usize..12,
        seed in any::<u64>(),
        edits in collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..4),
        hostile_n in prop_oneof![
            Just(None),
            Just(None),
            Just(Some(1u64 << 32)),
            Just(Some(u64::MAX)),
            (0u64..64).prop_map(Some),
        ],
        reframe in any::<bool>(),
        cut in prop_oneof![Just(None), Just(None), any::<usize>().prop_map(Some)],
    ) {
        let dir = std::env::temp_dir().join(format!("commsched-table-files-{}", std::process::id()));
        let store = TableStore::open(&dir).expect("open store");
        let table = DistanceTable::from_fn(n, |i, j| ((seed >> ((i + j) % 48)) & 0xff) as f64 / 8.0);
        let record = record_cache(key.0, key.1, key.2, &table, None);
        let mut payload = record.as_bytes().to_vec();
        let mut header = Vec::new();
        encode_frame(&mut header, &payload).expect("frame");
        header.truncate(FRAME_HEADER_BYTES as usize);
        if let Some(n) = hostile_n {
            let body = payload.iter().position(|&b| b == b'\n').expect("head line") + 1;
            payload[body..body + 8].copy_from_slice(&n.to_le_bytes());
        }
        for (kind, at, value) in edits {
            let at = at % payload.len();
            match kind % 4 {
                0 => payload[at] = value,
                1 => payload[at] ^= 1 << (value % 8),
                2 => payload.insert(at, value),
                _ => {
                    payload.remove(at);
                }
            }
        }
        let mut file = Vec::new();
        if reframe {
            encode_frame(&mut file, &payload).expect("frame");
        } else {
            file = [header, payload].concat();
        }
        if let Some(cut) = cut {
            file.truncate(cut % (file.len() + 1));
        }
        let path = dir.join(TABLES_DIR).join(file_name(key));
        std::fs::write(&path, &file).expect("write file");

        let mut state = RecoveredState::default();
        LARGEST.with(|l| l.set(0));
        let rejected = store.load_into(&mut state);
        let largest = LARGEST.with(Cell::get);

        prop_assert_eq!(rejected as usize + state.tables.len(), 1);
        let restored_n = state.tables.first().map_or(0, |(_, t)| t.n());
        prop_assert!(
            largest <= 2 * file.len() + 8 * restored_n + BOOKKEEPING_BYTES,
            "{largest} bytes asked for a {} byte file", file.len()
        );
        if let Some((restored_key, ..)) = state.tables.first() {
            prop_assert_eq!(*restored_key, key);
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

#[test]
fn an_unmutated_file_restores() {
    // The property above is vacuous unless the base case is accepted.
    let dir =
        std::env::temp_dir().join(format!("commsched-table-files-base-{}", std::process::id()));
    let store = TableStore::open(&dir).expect("open store");
    let key = (7, RoutingSpec::ShortestPath, TableSpec::Exact);
    let table = DistanceTable::from_fn(5, |i, j| (i + j) as f64);
    let record = record_cache(key.0, key.1, key.2, &table, None);
    let mut file = Vec::new();
    encode_frame(&mut file, record.as_bytes()).expect("frame");
    std::fs::write(dir.join(TABLES_DIR).join(file_name(key)), &file).expect("write file");
    let mut state = RecoveredState::default();
    assert_eq!(store.load_into(&mut state), 0);
    assert_eq!(state.tables.len(), 1);
    assert_eq!(state.tables[0].1, table);
    std::fs::remove_dir_all(&dir).expect("clean up");
}
