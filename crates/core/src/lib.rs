#![warn(missing_docs)]

//! Core of the communication-aware scheduling criterion (§4 of the paper).
//!
//! This crate holds the objects the scheduler reasons about:
//!
//! * [`Partition`] — the network partition a mapping of processes to
//!   processors induces (which cluster each switch serves);
//! * the quality functions of §4.1 — [`similarity_fg`] (Eq. 2),
//!   [`dissimilarity_dg`] (Eq. 5), and the [`clustering_coefficient`]
//!   `Cc = D_G / F_G` that measures the intracluster/intercluster
//!   bandwidth relationship of a mapping;
//! * [`SwapEvaluator`] — O(1) evaluation of `F_G` changes under the
//!   pairwise swaps the tabu search explores;
//! * [`Workload`] / [`ProcessMapping`] — the process-level view and the
//!   paper's divisibility assumptions, checked.
//!
//! # Example
//!
//! ```
//! use commsched_topology::designed;
//! use commsched_routing::ShortestPathRouting;
//! use commsched_distance::equivalent_distance_table;
//! use commsched_core::{Partition, quality};
//!
//! let topo = designed::line(4, 4);
//! let routing = ShortestPathRouting::new(&topo).unwrap();
//! let table = equivalent_distance_table(&topo, &routing).unwrap();
//! let contiguous = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
//! let interleaved = Partition::new(vec![0, 1, 0, 1], 2).unwrap();
//! // The contiguous mapping has the higher clustering coefficient.
//! assert!(quality(&contiguous, &table).cc > quality(&interleaved, &table).cc);
//! ```

pub mod eval;
pub mod mapping;
pub mod partition;
pub mod quality;

pub use eval::{far_squares, BlockBest, PairBounds, SwapEvaluator};
pub use mapping::{LogicalCluster, ProcessMapping, Workload, WorkloadError};
pub use partition::{ClusterId, Partition, PartitionError};
pub use quality::{
    cluster_dissimilarity, cluster_similarity, clustering_coefficient, dissimilarity_dg,
    intra_square_sum, quality, similarity_fg, Quality,
};
