//! Plain-text serialization of distance tables.
//!
//! Tables are expensive to recompute for large networks; this format lets
//! tools cache them:
//!
//! ```text
//! # commsched distance-table v1
//! n 4
//! row 0.0 1.0 2.0 3.0
//! row 1.0 0.0 1.0 2.0
//! ...
//! ```

use crate::table::{ApproxReport, DistanceTable};
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
        }
    }
}

impl std::error::Error for TableParseError {}

/// Serialize a table to the text format (full precision).
pub fn table_to_text(table: &DistanceTable) -> String {
    table_to_text_with_report(table, None)
}

/// Serialize a table plus its optional approximation report. The report
/// becomes one `approx` directive so a cached approximate table carries
/// its certified error bound across restarts:
///
/// ```text
/// approx <eps_micros> <err_max> <pairs_approximated> <pairs_escalated>
/// ```
pub fn table_to_text_with_report(table: &DistanceTable, report: Option<&ApproxReport>) -> String {
    let mut out = String::new();
    writeln!(out, "# commsched distance-table v1").expect("write to string");
    writeln!(out, "n {}", table.n()).expect("write to string");
    if let Some(r) = report {
        writeln!(
            out,
            "approx {} {:.17e} {} {}",
            crate::table::eps_to_micros(r.eps),
            r.err_max,
            r.pairs_approximated,
            r.pairs_escalated
        )
        .expect("write to string");
    }
    for i in 0..table.n() {
        out.push_str("row");
        for &v in table.row(i) {
            write!(out, " {v:.17e}").expect("write to string");
        }
        out.push('\n');
    }
    out
}

/// Parse the text format, discarding any `approx` directive.
///
/// # Errors
/// See [`TableParseError`].
pub fn table_from_text(text: &str) -> Result<DistanceTable, TableParseError> {
    table_from_text_with_report(text).map(|(table, _)| table)
}

/// Parse the text format, also returning the approximation report when
/// the text carries an `approx` directive (tables written before the
/// directive existed simply return `None`).
///
/// # Errors
/// See [`TableParseError`].
pub fn table_from_text_with_report(
    text: &str,
) -> Result<(DistanceTable, Option<ApproxReport>), TableParseError> {
    let mut n: Option<usize> = None;
    let mut report: Option<ApproxReport> = None;
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
            Some("approx") => {
                let mut next = |bad: TableParseError| parts.next().ok_or(bad);
                let eps_micros: u32 = next(TableParseError::BadEntry { line })?
                    .parse()
                    .map_err(|_| TableParseError::BadEntry { line })?;
                let err_max: f64 = next(TableParseError::BadEntry { line })?
                    .parse()
                    .map_err(|_| TableParseError::BadEntry { line })?;
                let pairs_approximated: u64 = next(TableParseError::BadEntry { line })?
                    .parse()
                    .map_err(|_| TableParseError::BadEntry { line })?;
                let pairs_escalated: u64 = next(TableParseError::BadEntry { line })?
                    .parse()
                    .map_err(|_| TableParseError::BadEntry { line })?;
                if !err_max.is_finite() || err_max < 0.0 {
                    return Err(TableParseError::BadEntry { line });
                }
                report = Some(ApproxReport {
                    eps: f64::from(eps_micros) / 1e6,
                    err_max,
                    pairs_approximated,
                    pairs_escalated,
                });
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
    Ok((DistanceTable::from_fn(n, |i, j| rows[i][j]), report))
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
    fn approx_report_round_trips() {
        let topo = designed::paper_24_switch();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let report = ApproxReport {
            eps: 0.05,
            err_max: 0.031_25,
            pairs_approximated: 200,
            pairs_escalated: 76,
        };
        let text = table_to_text_with_report(&table, Some(&report));
        let (back, back_report) = table_from_text_with_report(&text).unwrap();
        assert_eq!(back, table);
        assert_eq!(back_report, Some(report));
        // The plain parser accepts the directive and discards it.
        assert_eq!(table_from_text(&text).unwrap(), table);
        // Reports without the directive come back as None.
        let (_, none) = table_from_text_with_report(&table_to_text(&table)).unwrap();
        assert_eq!(none, None);
        // Malformed directives are rejected, not ignored.
        assert!(matches!(
            table_from_text("n 1\napprox nope\nrow 0\n").unwrap_err(),
            TableParseError::BadEntry { .. }
        ));
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
}
