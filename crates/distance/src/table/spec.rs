//! What a table is asked to be and how building it can fail: options,
//! the hashable spec, errors and the approximation report.

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
    /// Relative-error budget of [`SolverKind::Approximate`] in millionths
    /// (`50_000` = 5%). Kept integral so `TableOptions` stays `Eq` and
    /// can key the service cache. Ignored by the exact solvers.
    pub approx_eps_micros: u32,
}

impl Default for TableOptions {
    fn default() -> Self {
        Self {
            solver: SolverKind::default(),
            threads: 1,
            approx_eps_micros: DEFAULT_APPROX_EPS_MICROS,
        }
    }
}

impl TableOptions {
    /// Options for the certified approximate build with relative-error
    /// budget `eps` (e.g. `0.05` for 5%).
    pub fn approximate(eps: f64) -> Self {
        Self {
            solver: SolverKind::Approximate,
            approx_eps_micros: eps_to_micros(eps),
            ..Self::default()
        }
    }

    /// The approximation budget as a plain fraction.
    pub fn approx_eps(&self) -> f64 {
        f64::from(self.approx_eps_micros) / 1e6
    }
}

/// How a table's equivalent distances are solved, as a hashable value:
/// the table half of a cache key. An approximate table is a *different
/// artifact* than the exact one — a job asking for `approx-eps=0.05`
/// must never be served an entry built at a different eps (or vice
/// versa), so the eps budget is part of the value. Spelled `exact` /
/// `approx:<micros>` in logs and spill-file names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableSpec {
    /// Exact envelope-LDLᵀ solve of every pair (the oracle).
    #[default]
    Exact,
    /// Certified-interval approximation with the given relative-error
    /// budget in micro-units (`eps = eps_micros / 1e6`).
    Approx {
        /// Error budget × 1e6 (kept integral so the key stays `Eq`).
        eps_micros: u32,
    },
}

impl TableSpec {
    /// The spec an `approx-eps` parameter selects: 0 keeps the exact
    /// solver, anything else the certified approximation.
    pub fn from_eps_micros(eps_micros: u32) -> Self {
        if eps_micros == 0 {
            TableSpec::Exact
        } else {
            TableSpec::Approx { eps_micros }
        }
    }

    /// The builder options that produce this spec's table on `threads`
    /// workers.
    pub fn options(self, threads: usize) -> TableOptions {
        match self {
            TableSpec::Exact => TableOptions {
                threads,
                ..TableOptions::default()
            },
            TableSpec::Approx { eps_micros } => TableOptions {
                solver: SolverKind::Approximate,
                approx_eps_micros: eps_micros,
                threads,
            },
        }
    }
}

impl std::fmt::Display for TableSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableSpec::Exact => write!(f, "exact"),
            TableSpec::Approx { eps_micros } => write!(f, "approx:{eps_micros}"),
        }
    }
}

impl std::str::FromStr for TableSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "exact" {
            return Ok(TableSpec::Exact);
        }
        if let Some(micros) = s.strip_prefix("approx:") {
            return micros
                .parse()
                .map(|eps_micros| TableSpec::Approx { eps_micros })
                .map_err(|_| format!("bad eps in table spec '{s}'"));
        }
        Err(format!("unknown table spec '{s}'"))
    }
}

/// Default approximation budget: 5% relative error.
pub const DEFAULT_APPROX_EPS_MICROS: u32 = 50_000;

/// Convert a relative-error fraction to the integral micros
/// representation used by [`TableOptions::approx_eps_micros`] (and the
/// service cache key). Saturates at `u32::MAX` micros (≈4300× error —
/// far past any useful budget).
pub fn eps_to_micros(eps: f64) -> u32 {
    let micros = (eps * 1e6).round();
    if micros <= 0.0 {
        0
    } else if micros >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        micros as u32
    }
}

/// What the approximate build actually did: the budget, the worst
/// certified relative error among approximated pairs, and how many pairs
/// were answered by bounds vs. escalated to the exact solver.
///
/// The measured error of every approximated entry against the exact
/// table is `≤ err_max` *by construction*: each approximated pair's
/// estimate is the midpoint of a certified interval `[lo, hi]` that
/// contains the exact value, so its true relative error is at most
/// `(hi − lo) / (2·lo)` — exactly the quantity `err_max` maximizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxReport {
    /// The requested budget (fraction, e.g. 0.05).
    pub eps: f64,
    /// Worst certified relative error over all approximated pairs
    /// (0 when every pair was exact).
    pub err_max: f64,
    /// Pairs answered from the certified interval.
    pub pairs_approximated: u64,
    /// Pairs whose interval was too wide and ran the exact solver.
    pub pairs_escalated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_micros_conversions() {
        assert_eq!(eps_to_micros(0.05), 50_000);
        assert_eq!(eps_to_micros(0.0), 0);
        assert_eq!(eps_to_micros(-1.0), 0);
        assert_eq!(eps_to_micros(1e12), u32::MAX);
        let opts = TableOptions::approximate(0.05);
        assert_eq!(opts.solver, SolverKind::Approximate);
        assert!((opts.approx_eps() - 0.05).abs() < 1e-12);
        // A table spec maps to exactly those options (plus the thread
        // count) and round-trips through its log spelling.
        let spec = TableSpec::from_eps_micros(50_000);
        assert_eq!(spec, TableSpec::Approx { eps_micros: 50_000 });
        assert_eq!(spec.options(1), opts);
        assert_eq!(TableSpec::from_eps_micros(0), TableSpec::Exact);
        let exact = TableSpec::Exact.options(3);
        assert_eq!((exact.solver, exact.threads), (SolverKind::default(), 3));
        for spec in [spec, TableSpec::Exact] {
            assert_eq!(spec.to_string().parse(), Ok(spec));
        }
        assert!("approx:x".parse::<TableSpec>().is_err());
    }
}
