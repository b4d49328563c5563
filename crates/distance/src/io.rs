//! Serialization of distance tables: a text format and a binary one.
//!
//! Tables are expensive to recompute for large networks. The text format
//! is the one tools import and export, and the oracle the binary format
//! is tested against:
//!
//! ```text
//! # commsched distance-table v1
//! n 4
//! row 0.0 1.0 2.0 3.0
//! row 1.0 0.0 1.0 2.0
//! ...
//! ```
//!
//! The binary format is what the service's table spill files hold: the
//! table's bits, with no float formatting or parsing on either side.
//! All integers little-endian:
//!
//! ```text
//! n           u64
//! report tag  u8      0 (1 marked the report of an approximate table,
//!                     a kind of table no build makes any more: refused)
//! triangle    n(n-1)/2 x f64 bits: T[i][j] for i < j, row-major
//! ```
//!
//! Both decoders take bytes from outside the program and answer every
//! violated invariant with its own [`TableParseError`] variant.

use crate::table::DistanceTable;
use std::fmt::Write as _;

/// Errors raised while parsing a table.
#[derive(Debug, Clone, PartialEq)]
pub enum TableParseError {
    /// A line did not match any directive.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// Missing or malformed `n` directive.
    MissingSize,
    /// Wrong number of rows or row entries.
    ShapeMismatch {
        /// Expected dimension.
        expected: usize,
        /// What was found.
        found: usize,
    },
    /// A non-finite or unparsable entry.
    BadEntry {
        /// 1-based line number.
        line: usize,
    },
    /// The parsed matrix is not symmetric with a zero diagonal, or holds
    /// a negative entry.
    NotADistanceTable,
    /// Binary: the bytes end before `n` and the report tag do.
    TruncatedHeader {
        /// Bytes supplied.
        found: usize,
    },
    /// Binary: the report tag is not 0.
    BadReportTag {
        /// The tag byte.
        tag: u8,
    },
    /// Binary: `n` is so large that its triangle has no byte length.
    SizeOverflow {
        /// The claimed switch count.
        n: u64,
    },
    /// Binary: the byte length is not the one `n` determines.
    LengthMismatch {
        /// Header + `8 * n(n-1)/2`.
        expected: usize,
        /// Bytes supplied.
        found: usize,
    },
    /// Binary: a triangle entry is NaN or infinite.
    NonFiniteEntry {
        /// Row of the entry.
        i: usize,
        /// Column of the entry (`i < j`).
        j: usize,
    },
    /// Binary: a triangle entry is below zero.
    NegativeEntry {
        /// Row of the entry.
        i: usize,
        /// Column of the entry (`i < j`).
        j: usize,
    },
}

impl std::fmt::Display for TableParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableParseError::BadLine { line } => write!(f, "line {line}: unrecognized"),
            TableParseError::MissingSize => write!(f, "missing 'n' directive"),
            TableParseError::ShapeMismatch { expected, found } => {
                write!(f, "expected {expected} entries/rows, found {found}")
            }
            TableParseError::BadEntry { line } => write!(f, "line {line}: bad entry"),
            TableParseError::NotADistanceTable => {
                write!(
                    f,
                    "matrix is not symmetric, non-negative, with zero diagonal"
                )
            }
            TableParseError::TruncatedHeader { found } => {
                write!(f, "{found} bytes end inside the {HEADER_BYTES}-byte header")
            }
            TableParseError::BadReportTag { tag } => write!(f, "report tag {tag} is not 0"),
            TableParseError::SizeOverflow { n } => {
                write!(f, "no table of {n} switches fits the address space")
            }
            TableParseError::LengthMismatch { expected, found } => {
                write!(f, "expected {expected} bytes, found {found}")
            }
            TableParseError::NonFiniteEntry { i, j } => write!(f, "entry ({i}, {j}) is not finite"),
            TableParseError::NegativeEntry { i, j } => write!(f, "entry ({i}, {j}) is negative"),
        }
    }
}

impl std::error::Error for TableParseError {}

/// Serialize a table to the text format (full precision).
pub fn table_to_text(table: &DistanceTable) -> String {
    let mut out = String::new();
    writeln!(out, "# commsched distance-table v1").expect("write to string");
    writeln!(out, "n {}", table.n()).expect("write to string");
    for i in 0..table.n() {
        out.push_str("row");
        for &v in table.row(i) {
            write!(out, " {v:.17e}").expect("write to string");
        }
        out.push('\n');
    }
    out
}

/// Parse the text format. The `approx` directive of an approximate
/// table is a [`TableParseError::BadLine`].
///
/// # Errors
/// See [`TableParseError`].
pub fn table_from_text(text: &str) -> Result<DistanceTable, TableParseError> {
    let mut n: Option<usize> = None;
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.trim();
        if content.is_empty() || content.starts_with('#') {
            continue;
        }
        let mut parts = content.split_whitespace();
        match parts.next() {
            Some("n") => {
                n = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(TableParseError::MissingSize)?,
                );
            }
            Some("row") => {
                let row: Result<Vec<f64>, _> = parts
                    .map(|v| {
                        v.parse::<f64>()
                            .map_err(|_| TableParseError::BadEntry { line })
                    })
                    .collect();
                let row = row?;
                if row.iter().any(|x| !x.is_finite()) {
                    return Err(TableParseError::BadEntry { line });
                }
                rows.push(row);
            }
            _ => return Err(TableParseError::BadLine { line }),
        }
    }
    let n = n.ok_or(TableParseError::MissingSize)?;
    if rows.len() != n {
        return Err(TableParseError::ShapeMismatch {
            expected: n,
            found: rows.len(),
        });
    }
    for row in &rows {
        if row.len() != n {
            return Err(TableParseError::ShapeMismatch {
                expected: n,
                found: row.len(),
            });
        }
    }
    // Validate symmetry, sign and the zero diagonal before constructing:
    // `get_sq` would square a negative entry into a plausible cost.
    for (i, row) in rows.iter().enumerate() {
        if row[i] != 0.0 {
            return Err(TableParseError::NotADistanceTable);
        }
        for (j, &v) in row.iter().enumerate() {
            if v < 0.0 || (v - rows[j][i]).abs() > 1e-12 {
                return Err(TableParseError::NotADistanceTable);
            }
        }
    }
    Ok(DistanceTable::from_fn(n, |i, j| rows[i][j]))
}

/// Bytes before the triangle: `n` and the report tag.
const HEADER_BYTES: usize = 8 + 1;

/// Byte length of the strict upper triangle of an `n`-switch table, when
/// one exists.
fn triangle_bytes(n: u64) -> Option<usize> {
    let n = usize::try_from(n).ok()?;
    let pairs = n.checked_mul(n.saturating_sub(1))? / 2;
    pairs.checked_mul(8)
}

/// Serialize a table to the binary format (see the module docs). The
/// inverse of [`table_from_bytes`], bit for bit.
pub fn table_to_bytes(table: &DistanceTable) -> Vec<u8> {
    let n = table.n();
    let triangle = triangle_bytes(n as u64).expect("a table in memory has a triangle");
    let mut out = Vec::with_capacity(HEADER_BYTES + triangle);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.push(0);
    // CORRECTNESS: a `DistanceTable` is symmetric with a `+0.0` diagonal
    // by construction — the build mirrors the upper triangle it solved,
    // `from_fn` and `set_pair` write both halves, and nothing ever writes
    // `(i, i)` — so the strict upper triangle is the whole table.
    for i in 0..n {
        for &v in &table.row(i)[i + 1..] {
            // CORRECTNESS: `from_bits(to_bits(v)) == v` bit for bit for
            // every finite `v`, and a table holds nothing else.
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// The `N`-byte little-endian field at the front of `bytes`, and the rest.
fn take<const N: usize>(bytes: &[u8]) -> ([u8; N], &[u8]) {
    let (field, rest) = bytes.split_at(N);
    (field.try_into().expect("split_at(N) yields N bytes"), rest)
}

/// Parse the binary format. Accepts exactly what [`table_to_bytes`]
/// produces from a table the text parser
/// would accept: finite, non-negative entries (`-0.0` is not below zero
/// and keeps its sign, as in the text format).
///
/// The bytes come from outside the program. Nothing is allocated before
/// the length check, and the table allocated after it (`8 n^2` bytes) is
/// `2 * bytes.len() + 8 n` at most.
///
/// # Errors
/// See [`TableParseError`]: one variant per violated invariant.
pub fn table_from_bytes(bytes: &[u8]) -> Result<DistanceTable, TableParseError> {
    let found = bytes.len();
    if found < HEADER_BYTES {
        return Err(TableParseError::TruncatedHeader { found });
    }
    let (n_field, rest) = take::<8>(bytes);
    let n = u64::from_le_bytes(n_field);
    if rest[0] != 0 {
        return Err(TableParseError::BadReportTag { tag: rest[0] });
    }
    // CORRECTNESS: `n` is whatever the bytes say. Its triangle's length
    // is computed in checked arithmetic and must equal the bytes actually
    // supplied before anything is sized by `n`.
    let expected = triangle_bytes(n)
        .and_then(|t| t.checked_add(HEADER_BYTES))
        .ok_or(TableParseError::SizeOverflow { n })?;
    if found != expected {
        return Err(TableParseError::LengthMismatch { expected, found });
    }
    let n = usize::try_from(n).expect("triangle_bytes proved that n fits");
    let triangle = &rest[1..];
    let entry = |chunk: &[u8]| {
        f64::from_bits(u64::from_le_bytes(
            chunk.try_into().expect("chunks_exact(8) yields 8 bytes"),
        ))
    };
    // Validate before constructing: `get_sq` would square a negative
    // entry into a plausible cost.
    let mut entries = triangle.chunks_exact(8).map(entry);
    for i in 0..n {
        for j in (i + 1)..n {
            let v = entries.next().expect("length checked above");
            if !v.is_finite() {
                return Err(TableParseError::NonFiniteEntry { i, j });
            }
            if v < 0.0 {
                return Err(TableParseError::NegativeEntry { i, j });
            }
        }
    }
    let mut entries = triangle.chunks_exact(8).map(entry);
    let table = DistanceTable::from_fn(n, |_, _| entries.next().expect("length checked above"));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;

    #[test]
    fn round_trip_is_exact() {
        let topo = designed::paper_24_switch();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let text = table_to_text(&table);
        let back = table_from_text(&text).unwrap();
        assert_eq!(back, table, "full-precision round trip");
    }

    #[test]
    fn approx_directive_is_refused() {
        // The directive an approximate table's report was written as.
        assert_eq!(
            table_from_text("n 1\napprox 50000 3.125e-2 0 0\nrow 0\n").unwrap_err(),
            TableParseError::BadLine { line: 2 }
        );
    }

    #[test]
    fn shape_errors_detected() {
        assert_eq!(
            table_from_text("n 2\nrow 0 1\n").unwrap_err(),
            TableParseError::ShapeMismatch {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            table_from_text("n 2\nrow 0 1 2\nrow 1 0 2\n").unwrap_err(),
            TableParseError::ShapeMismatch {
                expected: 2,
                found: 3
            }
        );
        // A row before `n` is tolerated, but the header must still appear.
        assert_eq!(
            table_from_text("row 0\n").unwrap_err(),
            TableParseError::MissingSize
        );
        assert_eq!(
            table_from_text("").unwrap_err(),
            TableParseError::MissingSize
        );
        assert_eq!(
            table_from_text("n 1\ncolumn 0\n").unwrap_err(),
            TableParseError::BadLine { line: 2 }
        );
    }

    #[test]
    fn integrity_checks() {
        // Asymmetric.
        assert_eq!(
            table_from_text("n 2\nrow 0 1\nrow 2 0\n").unwrap_err(),
            TableParseError::NotADistanceTable
        );
        // Non-zero diagonal.
        assert_eq!(
            table_from_text("n 2\nrow 1 2\nrow 2 0\n").unwrap_err(),
            TableParseError::NotADistanceTable
        );
        // Negative entry (symmetric, finite).
        assert_eq!(
            table_from_text("n 2\nrow 0 -1\nrow -1 0\n").unwrap_err(),
            TableParseError::NotADistanceTable
        );
        // Non-finite entry.
        assert!(matches!(
            table_from_text("n 2\nrow 0 inf\nrow inf 0\n").unwrap_err(),
            TableParseError::BadEntry { .. }
        ));
    }

    fn paper24_table() -> DistanceTable {
        let topo = designed::paper_24_switch();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        equivalent_distance_table(&topo, &routing).unwrap()
    }

    #[test]
    fn binary_round_trip_is_exact_and_agrees_with_text() {
        let table = paper24_table();
        let bytes = table_to_bytes(&table);
        assert_eq!(bytes.len(), HEADER_BYTES + 8 * (24 * 23 / 2));
        let back = table_from_bytes(&bytes).unwrap();
        assert_eq!(back, table);
        // The text format is the oracle: same table.
        assert_eq!(table_from_text(&table_to_text(&table)).unwrap(), back);
        // The smallest tables have an empty triangle.
        for n in [0, 1] {
            let empty = DistanceTable::from_fn(n, |_, _| unreachable!());
            let bytes = table_to_bytes(&empty);
            assert_eq!(bytes.len(), HEADER_BYTES);
            assert_eq!(table_from_bytes(&bytes).unwrap(), empty);
        }
    }

    /// `n = 2`, report tag 0, `T[0][1]` with the given bits.
    fn pair_bytes(bits: u64) -> Vec<u8> {
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.push(0);
        bytes.extend_from_slice(&bits.to_le_bytes());
        bytes
    }

    #[test]
    fn binary_entries_are_checked_like_text_entries() {
        let decode = |bits: u64| table_from_bytes(&pair_bytes(bits));
        // `-0.0` is not below zero: accepted with its sign, as the text
        // parser does ("-0e0" is what the text encoder prints for it).
        let t = decode((-0.0f64).to_bits()).unwrap();
        assert_eq!(t.get(0, 1).to_bits(), (-0.0f64).to_bits());
        let text = table_from_text(&table_to_text(&t)).unwrap();
        assert_eq!(text.get(1, 0).to_bits(), (-0.0f64).to_bits());
        // The diagonal is not stored: it is `+0.0`, whatever the bytes.
        assert_eq!(t.get(0, 0).to_bits(), 0);
        assert_eq!(t.get(1, 0).to_bits(), t.get(0, 1).to_bits());
        for ok in [f64::MAX, f64::MIN_POSITIVE, f64::from_bits(1)] {
            assert_eq!(
                decode(ok.to_bits()).unwrap().get(0, 1).to_bits(),
                ok.to_bits()
            );
        }
        assert_eq!(
            decode((-1.0f64).to_bits()).unwrap_err(),
            TableParseError::NegativeEntry { i: 0, j: 1 }
        );
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(
                decode(bad.to_bits()).unwrap_err(),
                TableParseError::NonFiniteEntry { i: 0, j: 1 }
            );
        }
    }

    #[test]
    fn binary_lengths_are_proved_before_they_are_believed() {
        use TableParseError::{BadReportTag, LengthMismatch, SizeOverflow, TruncatedHeader};
        let decode = |bytes: &[u8]| table_from_bytes(bytes).unwrap_err();
        let good = pair_bytes(1.5f64.to_bits());
        for cut in 0..HEADER_BYTES {
            assert_eq!(decode(&good[..cut]), TruncatedHeader { found: cut });
        }
        for cut in HEADER_BYTES..good.len() {
            let expected = good.len();
            assert_eq!(
                decode(&good[..cut]),
                LengthMismatch {
                    expected,
                    found: cut
                }
            );
        }
        let mut long = good.clone();
        long.push(0);
        assert_eq!(
            decode(&long),
            LengthMismatch {
                expected: 17,
                found: 18
            }
        );
        // Tag 1 (an approximate table's report) is refused like any
        // other tag but 0.
        let mut tagged = good.clone();
        for tag in [1, 2] {
            tagged[8] = tag;
            assert_eq!(decode(&tagged), BadReportTag { tag });
        }
        // Hostile sizes: nothing is allocated for them.
        let mut hostile = good.clone();
        hostile[..8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        assert_eq!(decode(&hostile), SizeOverflow { n: 1 << 32 });
        hostile[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&hostile), SizeOverflow { n: u64::MAX });
        hostile[..8].copy_from_slice(&(1u64 << 20).to_le_bytes());
        let expected = HEADER_BYTES + 8 * ((1usize << 20) * ((1 << 20) - 1) / 2);
        assert_eq!(
            decode(&hostile),
            LengthMismatch {
                expected,
                found: 17
            }
        );
    }
}
