//! The binary table format against its oracle and against hostile bytes.
//!
//! *Cross-check:* a random table — subnormals, `f64::MAX`, `-0.0` —
//! comes back from the binary format bit for bit, and equal to what the
//! text format restores.
//!
//! *Boundary:* a spill file is bytes from outside the program whose
//! first field is a length. Valid encodings are mutated byte by byte,
//! truncated, given hostile sizes (2³², 2⁶⁴ − 1) and the tag-1 report
//! of an old approximate table; whatever arrives, `table_from_bytes`
//! does not panic, refuses every report tag but 0, allocates nothing for
//! bytes it rejects, and for bytes it accepts allocates the table only
//! (`8 n²` bytes ≤ twice the bytes supplied, plus `8 n` for the diagonal
//! the format does not store) — and accepts nothing but the one encoding
//! of what it returns.

use commsched_distance::{
    table_from_bytes, table_from_text, table_to_bytes, table_to_text, DistanceTable,
    TableParseError,
};
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

/// Run `f` and return its result with the largest allocation it made.
fn watched<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Entry values a table may hold, the awkward ones over-represented.
fn entry() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..64.0,
        any::<u64>().prop_map(|bits| f64::from_bits(bits >> 12)), // subnormals
        any::<u64>().prop_map(|bits| f64::from_bits(bits & (u64::MAX >> 1)).min(f64::MAX)),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(0.0),
        Just(-0.0),
    ]
    .prop_map(|v| if v.is_finite() { v } else { 1.0 })
}

/// A symmetric table of up to 11 switches.
fn table() -> impl Strategy<Value = DistanceTable> {
    (0usize..12, collection::vec(entry(), 55..56)).prop_map(|(n, entries)| {
        let mut entries = entries.into_iter();
        DistanceTable::from_fn(n, |_, _| entries.next().expect("55 >= 11*10/2"))
    })
}

fn bits(table: &DistanceTable) -> Vec<u64> {
    (0..table.n())
        .flat_map(|i| table.row(i).iter().map(|v| v.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_round_trip_is_bit_equal_and_agrees_with_text(table in table()) {
        let back = table_from_bytes(&table_to_bytes(&table)).expect("own encoding");
        prop_assert_eq!(bits(&back), bits(&table));
        let text_back = table_from_text(&table_to_text(&table)).expect("own text");
        prop_assert_eq!(bits(&back), bits(&text_back));
    }

    #[test]
    fn hostile_bytes_never_panic_or_allocate_by_a_claimed_length(
        table in table(),
        old_report in prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            collection::vec(any::<u8>(), 28..29).prop_map(Some),
        ],
        edits in collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 0..4),
        cut in prop_oneof![Just(None), Just(None), any::<usize>().prop_map(Some)],
        hostile_n in prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            Just(Some(1u64 << 32)),
            Just(Some(u64::MAX)),
            any::<u64>().prop_map(Some),
            (0u64..64).prop_map(Some),
        ],
    ) {
        let mut bytes = table_to_bytes(&table);
        // An old approximate table's encoding: tag 1, then its 28-byte
        // report before the triangle.
        if let Some(report) = old_report {
            bytes[8] = 1;
            bytes.splice(9..9, report);
        }
        if let Some(n) = hostile_n {
            bytes[..8].copy_from_slice(&n.to_le_bytes());
        }
        for (kind, at, value) in edits {
            let at = at % bytes.len();
            match kind % 4 {
                0 => bytes[at] = value,
                1 => bytes[at] ^= 1 << (value % 8),
                2 => bytes.insert(at, value),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let (decoded, largest) = watched(|| table_from_bytes(&bytes));
        if let Some(&tag) = bytes.get(8).filter(|&&tag| tag != 0) {
            prop_assert_eq!(&decoded, &Err(TableParseError::BadReportTag { tag }));
        }
        match decoded {
            Err(_) => prop_assert_eq!(largest, 0, "allocated for rejected bytes"),
            Ok(back) => {
                let n = back.n();
                prop_assert_eq!(largest, 8 * n * n);
                prop_assert!(largest <= 2 * bytes.len() + 8 * n);
                // Accepted means canonical: these bytes are the encoding
                // of what came out, so nothing was skipped or guessed.
                prop_assert_eq!(table_to_bytes(&back), bytes);
            }
        }
    }
}
