//! What a table is asked to be and how building it can fail: options,
//! the hashable spec and errors.

use crate::resistance::{ResistanceError, SolverKind};
use commsched_topology::SwitchId;

/// Errors from table construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// Topology and routing disagree on the switch count.
    SizeMismatch {
        /// Switches in the topology.
        topology: usize,
        /// Switches in the router.
        routing: usize,
    },
    /// The resistance solver failed for a pair.
    Resistance {
        /// Source switch.
        src: SwitchId,
        /// Destination switch.
        dst: SwitchId,
        /// Underlying error.
        error: ResistanceError,
    },
    /// Incremental repair got a previous table whose size does not match
    /// the post-fault topology.
    RepairSize {
        /// Switches in the previous table.
        prev: usize,
        /// Switches in the topology.
        topology: usize,
    },
    /// Incremental repair was asked to recompute a pair outside the table.
    BadRepairPair {
        /// Source switch.
        src: SwitchId,
        /// Destination switch.
        dst: SwitchId,
        /// Switches in the table.
        n: usize,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::SizeMismatch { topology, routing } => {
                write!(f, "topology has {topology} switches, routing {routing}")
            }
            TableError::Resistance { src, dst, error } => {
                write!(f, "resistance failed for pair ({src}, {dst}): {error}")
            }
            TableError::RepairSize { prev, topology } => {
                write!(f, "previous table has {prev} switches, topology {topology}")
            }
            TableError::BadRepairPair { src, dst, n } => {
                write!(
                    f,
                    "repair pair ({src}, {dst}) out of range for {n} switches"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Knobs of the table builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOptions {
    /// Linear solver for the per-pair resistance. Default: the sparse
    /// SPD Cholesky fast path; [`SolverKind::DenseGaussian`] keeps the
    /// original dense elimination as the correctness oracle.
    pub solver: SolverKind,
    /// Worker threads pulling source rows off the shared queue (0 = one
    /// per available CPU). Results are bit-identical for every count.
    pub threads: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            solver: SolverKind::default(),
            threads: 1,
        }
    }
}

/// How a table's equivalent distances are solved, as a hashable value:
/// the table half of a cache key. Every table is exact, so the one
/// variant is spelled `exact` in logs and spill-file names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableSpec {
    /// Exact envelope-LDLᵀ solve of every pair (the oracle).
    #[default]
    Exact,
}

impl TableSpec {
    /// The builder options that produce this spec's table on `threads`
    /// workers.
    pub fn options(self, threads: usize) -> TableOptions {
        match self {
            TableSpec::Exact => TableOptions {
                threads,
                ..TableOptions::default()
            },
        }
    }
}

impl std::fmt::Display for TableSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableSpec::Exact => write!(f, "exact"),
        }
    }
}

impl std::str::FromStr for TableSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(TableSpec::Exact),
            _ => Err(format!("unknown table spec '{s}'")),
        }
    }
}

/// The report of an approximate build. No build makes one any more
/// (every table is exact), and the type has no values, so an
/// `Option<ApproxReport>` is always `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxReport {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_spec_is_exact_and_round_trips_its_spelling() {
        let exact = TableSpec::Exact.options(3);
        assert_eq!((exact.solver, exact.threads), (SolverKind::default(), 3));
        assert_eq!(TableSpec::Exact.to_string().parse(), Ok(TableSpec::Exact));
        // An approximate spec of an older daemon is refused.
        assert!("approx:50000".parse::<TableSpec>().is_err());
    }
}
