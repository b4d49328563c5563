#![warn(missing_docs)]

//! Every daemon's start path, and WAL replication: one primary plus
//! warm standbys.
//!
//! * [`node`] — node assembly: [`node::start`] starts a standalone node
//!   or a replicating primary, [`node::follow_and_promote`] a standby,
//!   both from one [`node::ClusterConfig`]. `commsched serve`
//!   front-ends both.
//! * [`hub`] / [`follower`] — primary→follower WAL replication. The
//!   hub taps the primary's WAL under its lock (stream order = commit
//!   order), followers persist the stream and ack, and every client
//!   acknowledgement waits on those acks, so a SIGKILLed primary loses
//!   no acked job: the follower promotes via the standard
//!   crash-recovery path ([`commsched_service::ServiceCore::recover`])
//!   and takes over the primary's client address.
//!
//! There is no membership consensus: a standby is told its primary's
//! replication address, and the promoted node binds the client address
//! it was started with.

pub mod follower;
pub mod hub;
pub mod node;

pub use follower::FollowerProgress;
pub use hub::ReplicationHub;
pub use node::{follow_and_promote, start, ClusterConfig, ClusterNode};
