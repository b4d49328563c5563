#![warn(missing_docs)]

//! The equivalent-distance model of communication cost (§3).
//!
//! Implements the *table of equivalent distances* of Arnau, Orduña, Ruiz &
//! Duato (PDCS'99), the substrate on which the ICPP 2000 scheduling
//! criterion is built. For each pair of switches, only the links lying on
//! minimal routes *supplied by the routing algorithm* are kept, each link is
//! replaced with a 1 Ω resistor, and the equivalent distance is the
//! electrical resistance between the pair.
//!
//! The model captures both the topology and the routing algorithm: paths
//! forbidden by up*/down* routing do not contribute, and path diversity
//! (parallel routes) lowers the effective distance exactly as it raises the
//! usable bandwidth.
//!
//! # Example
//!
//! ```
//! use commsched_topology::designed;
//! use commsched_routing::UpDownRouting;
//! use commsched_distance::equivalent_distance_table;
//!
//! let topo = designed::ring(6, 4);
//! let routing = UpDownRouting::new(&topo, 0).unwrap();
//! let table = equivalent_distance_table(&topo, &routing).unwrap();
//! // The ring's forbidden turn makes 2 -> 4 a 4-link series detour.
//! assert!((table.get(2, 4) - 4.0).abs() < 1e-9);
//! ```

pub mod io;
pub mod linalg;
pub mod repair;
pub mod resistance;
pub mod sparse;
pub mod table;

pub use io::{table_from_bytes, table_from_text, table_to_bytes, table_to_text, TableParseError};
pub use linalg::{solve, LinalgError, Matrix};
pub use repair::{repair_distance_table, repair_table, RepairOutcome};
pub use resistance::{
    effective_resistance, effective_resistance_weighted, effective_resistance_weighted_in,
    ResistanceError, SolverKind, Workspace,
};
pub use sparse::SpdFactor;
pub use table::{
    equivalent_distance_table, equivalent_distance_table_with,
    equivalent_distance_table_with_report, hop_distance_table, ApproxReport, DistanceTable,
    SharedDistanceTable, TableError, TableOptions, TableSpec,
};
