#![warn(missing_docs)]

//! Switch-based interconnection network topologies.
//!
//! This crate models the networks the ICPP 2000 paper evaluates: irregular
//! switch-based interconnects in the style of Autonet/Myrinet NOWs. A
//! [`Topology`] is an undirected multigraph-free graph of switches; each
//! switch additionally hosts a fixed number of workstations (4 in the
//! paper's experiments — 8-port switches with 4 host ports and 4 switch
//! ports, of which 3 are wired and 1 is left open).
//!
//! Two families of constructors are provided:
//!
//! * [`random`] — seeded random irregular topologies under the paper's
//!   structural constraints (§5.1): fixed inter-switch degree, a single link
//!   between neighbouring switches, connectedness;
//! * [`designed`] — regular/designed topologies, including the
//!   four-rings-of-six network of Figure 4.
//!
//! The networks lose and regain links at run time: [`fault`] applies a
//! [`FaultEvent`] to a [`TopologyEpoch`], yielding the successor network
//! with its fingerprint and connectivity (a partition is reported, never
//! asserted).
//!
//! # Example
//!
//! ```
//! use commsched_topology::designed;
//!
//! let topo = designed::ring(8, 4);
//! assert_eq!(topo.num_switches(), 8);
//! assert!(topo.is_connected());
//! assert_eq!(topo.degree(0), 2);
//! ```

pub mod designed;
pub mod fault;
pub mod graph;
pub mod io;
pub mod random;

pub use fault::{FaultError, FaultEvent, TopologyEpoch};
pub use graph::{Link, LinkId, SwitchId, Topology, TopologyBuilder, TopologyError};
pub use io::{from_text, to_text};
pub use random::{random_regular, RandomTopologyConfig};
