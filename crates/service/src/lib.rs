#![warn(missing_docs)]

//! A long-running communication-aware scheduling service.
//!
//! The library crates compute one answer per process: build a topology,
//! derive the table of equivalent distances, search a partition. This
//! crate keeps that machinery resident in a daemon so repeated requests
//! amortize the expensive parts:
//!
//! * [`registry::TopologyRegistry`] — ingests networks in the
//!   [`commsched_topology::io`] text format and dedupes them by their
//!   content [`commsched_topology::Topology::fingerprint`];
//! * [`cache::DistanceCache`] — an LRU over routing + distance tables
//!   keyed by `(fingerprint, routing, table-spec)`, with single-flight
//!   semantics so concurrent identical requests trigger exactly one
//!   resistive solve;
//! * [`jobs`] — a bounded job queue and worker pool with one admission
//!   path (`submit` is a batch of one), job-id issuance, status polling,
//!   cancellation of queued jobs, queue-full backpressure, and a
//!   graceful drain that finishes every accepted job;
//! * [`persist`] — durable state: a checksummed write-ahead log of
//!   state changes, periodic compacting snapshots, one spill file per
//!   cached table, and startup recovery that requeues in-flight jobs
//!   and restores cached tables bit-exactly (`commsched serve
//!   --state-dir`);
//! * [`stats::ServiceStats`] — counters and latency histograms exposed
//!   over the `STATS` request;
//! * [`server`]/[`client`] — the TCP front end: one event-loop thread
//!   (`commsched_net`) serving two codecs, newline-delimited text and
//!   length-prefixed binary frames. A request is decoded
//!   (`commsched_net::Decoder`), assembled ([`protocol::Assembler`]),
//!   answered (`server`'s one total `apply` over [`Request`]) and
//!   encoded ([`protocol::Reply`]) once each, whichever codec carried
//!   it; the client and [`loadgen`] read replies through the same
//!   `Decoder` and `Reply` (grammar in `docs/protocol.md` and
//!   [`protocol`]).
//!
//! The `commsched` binary front-ends this crate as `commsched serve`,
//! `commsched submit` and `commsched status`.

pub mod cache;
pub mod client;
pub mod jobs;
pub mod loadgen;
pub mod persist;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod stats;

pub use cache::{DistanceCache, RoutedTable, RoutingSpec, TableSpec};
pub use client::{Client, ClientError, RetryPolicy};
pub use jobs::{JobId, JobState, ServiceCore, ServiceCoreConfig, SubmitError};
pub use persist::{
    FsyncPolicy, PersistError, PersistOptions, Persistence, RecoveryReport, ReplicationSink, WalTap,
};
pub use protocol::{JobKind, JobSpec, Request, TopoRef};
pub use registry::TopologyRegistry;
pub use server::{ClusterInfo, Server, ServerConfig, ServerHandle};
pub use stats::ServiceStats;
