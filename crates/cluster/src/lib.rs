#![warn(missing_docs)]

//! A WAL-replicated scheduler cluster: one primary plus warm standbys.
//!
//! Two pieces turn the single-node daemon in `commsched-service` into a
//! cluster:
//!
//! * [`hub`] / [`follower`] — primary→follower WAL replication. The
//!   hub taps the primary's WAL under its lock (stream order =
//!   commit order), followers persist the stream and ack; in `sync`
//!   mode every client acknowledgement waits on those acks, so a
//!   SIGKILLed primary loses no acked job: the follower promotes via
//!   the standard crash-recovery path
//!   ([`commsched_service::ServiceCore::recover`]) and takes over the
//!   primary's client address ([`node::follow_and_promote`]).
//! * [`node`] — node assembly: [`node::start_primary`] and
//!   [`node::follow_and_promote`] over a [`node::ClusterConfig`], whose
//!   [`node::ClusterConfig::info`] is what `CLUSTER` and `STATS` report.
//!
//! The `commsched cluster` CLI arm front-ends [`node`]; the member
//! table is static and names one shard (`--members shard=addr`), which
//! keeps the failure model honest: no membership consensus, one
//! primary and its standbys.

pub mod follower;
pub mod hub;
pub mod node;

pub use follower::{FollowExit, FollowerConfig, FollowerProgress};
pub use hub::{ReplMode, ReplicationHub};
pub use node::{
    follow_and_promote, parse_members, start_primary, ClusterConfig, ClusterNode, Member,
};
