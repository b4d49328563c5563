#![warn(missing_docs)]

//! # commsched — communication-aware task scheduling for heterogeneous systems
//!
//! A from-scratch Rust reproduction of J. M. Orduña, V. Arnau, A. Ruiz,
//! R. Valero and J. Duato, *"On the Design of Communication-Aware Task
//! Scheduling Strategies for Heterogeneous Systems"* (ICPP 2000).
//!
//! The paper proposes (a) a criterion — the **clustering coefficient**
//! `Cc = D_G / F_G` built on the *table of equivalent distances* — that
//! measures how well an allocation of network resources matches the
//! communication requirements of a set of parallel applications, and (b) a
//! **tabu-search scheduling technique** that minimizes `F_G` to produce a
//! near-optimal mapping of processes to processors on arbitrary (regular or
//! irregular) switch-based networks.
//!
//! ## Crate map
//!
//! | Module (re-export) | Crate | Implements |
//! |---|---|---|
//! | [`topology`] | `commsched-topology` | switch graphs, random irregular and designed topologies (§5.1); link and switch faults as a chain of epochs |
//! | [`routing`] | `commsched-routing` | up*/down* and shortest-path routing (§2); `RoutingSpec` (= [`RoutingKind`]) names and builds one |
//! | [`distance`] | `commsched-distance` | table of equivalent distances — resistive model (§3); its repair after a fault |
//! | [`core`] | `commsched-core` | partitions, quality functions `F_G`, `D_G`, `Cc` (§4.1) |
//! | [`search`] | `commsched-search` | tabu search, multilevel pipeline, the one `map_partition` entry point (§4.2); the comparison heuristics live in `commsched-bench` |
//! | [`netsim`] | `commsched-netsim` | flit-level wormhole simulator (§5) |
//! | [`service`] | `commsched-service` | scheduling daemon: topology registry, distance-table cache, job queue |
//!
//! ## Quickstart
//!
//! ```
//! use commsched::{Scheduler, RoutingKind};
//! use commsched::core::Workload;
//! use commsched::topology::designed;
//!
//! // The paper's specially designed 24-switch network: 4 rings of 6.
//! let topo = designed::paper_24_switch();
//! let scheduler = Scheduler::new(topo, RoutingKind::UpDown { root: 0 }).unwrap();
//! // Four applications of 24 processes each (one per workstation).
//! let workload = Workload::balanced(scheduler.topology(), 4).unwrap();
//! let outcome = scheduler.schedule(&workload, 42).unwrap();
//! // The scheduler recovers the four physical rings (Figure 4).
//! use commsched::core::Partition;
//! use commsched::topology::designed::ring_of_rings_clusters;
//! let truth = Partition::from_clusters(&ring_of_rings_clusters(4, 6)).unwrap();
//! assert!(outcome.partition.same_grouping(&truth));
//! ```

pub mod cli;
pub mod scheduler;

pub use scheduler::{RoutingKind, ScheduleError, ScheduleOutcome, Scheduler, SchedulerOptions};

pub use commsched_core as core;
pub use commsched_distance as distance;
pub use commsched_netsim as netsim;
pub use commsched_routing as routing;
pub use commsched_search as search;
pub use commsched_service as service;
pub use commsched_topology as topology;
