//! Node assembly: the one start path of every daemon.
//!
//! A node is standalone, a replicating primary (it accepts followers on
//! `repl_listen`), or a warm standby (it streams the WAL of the primary
//! at `follow`). A standby promotes when its primary dies: it recovers
//! the replicated state and binds the dead primary's client address, so
//! a client that reconnects finds it there. Replication is WAL shipping,
//! so both a primary and a standby need a state directory.

use crate::follower::{run_follower, FollowExit, FollowerProgress};
use crate::hub::ReplicationHub;
use commsched_service::persist::PersistOptions;
use commsched_service::{
    ClusterInfo, RecoveryReport, Server, ServerConfig, ServerHandle, ServiceCore,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything needed to start one daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Client address (`host:port`; port 0 picks an ephemeral one). A
    /// standby binds it once promoted.
    pub addr: String,
    /// Workers, queue and cache sizing, connection limits.
    pub server: ServerConfig,
    /// Where the snapshot + write-ahead log live and how the log is
    /// synced; `None` runs fully in memory, and then the node neither
    /// replicates nor follows.
    pub persist: Option<PersistOptions>,
    /// Primary: address to accept followers on.
    pub repl_listen: Option<String>,
    /// Standby: the primary's replication address to stream from.
    pub follow: Option<String>,
}

/// A running node: the TCP front end plus (for replicating primaries)
/// the replication hub.
pub struct ClusterNode {
    handle: ServerHandle,
    hub: Option<Arc<ReplicationHub>>,
    /// What recovery found when the core was rebuilt from its state
    /// directory; `None` in memory.
    pub recovery: Option<RecoveryReport>,
}

impl ClusterNode {
    /// The client-facing address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// The replication hub, when this node replicates.
    pub fn hub(&self) -> Option<&Arc<ReplicationHub>> {
        self.hub.as_ref()
    }

    /// Drain and stop: jobs finish, the hub stops streaming.
    pub fn shutdown(self) {
        self.handle.shutdown();
        if let Some(hub) = self.hub {
            hub.shutdown();
        }
    }

    /// Block until the front end exits (e.g. a client sent `SHUTDOWN`).
    pub fn join(self) {
        self.handle.join();
        if let Some(hub) = self.hub {
            hub.shutdown();
        }
    }
}

/// Start a node that serves at once: recover its state directory (or
/// start empty in memory), bind the replication hub when `repl_listen`
/// names one, and bind the client address. `config.follow` is not read:
/// a standby starts through [`follow_and_promote`].
///
/// # Errors
/// Replication without a state directory, or recovery, bind and
/// replication-setup failures.
pub fn start(config: &ClusterConfig) -> Result<ClusterNode, String> {
    start_as(config, false)
}

/// The shared start path. A standalone node reports no cluster info
/// (`CLUSTER` answers `OK standalone`); a primary and a promoted
/// standby report their role. A promoted standby retries its bind
/// briefly: it races the dead primary's socket leaving `TIME_WAIT`.
fn start_as(config: &ClusterConfig, promoted: bool) -> Result<ClusterNode, String> {
    let ServerConfig { workers, core, net } = config.server;
    let (core, recovery) = match &config.persist {
        None => (ServiceCore::new(core), None),
        Some(options) => {
            let (core, report) = ServiceCore::recover(core, options.clone()).map_err(|e| {
                let dir = options.state_dir().display();
                format!("cannot recover state from '{dir}': {e}")
            })?;
            (core, Some(report))
        }
    };
    let core = Arc::new(core);

    let hub = match &config.repl_listen {
        Some(_) if config.persist.is_none() => {
            return Err("replication needs a state directory".into())
        }
        Some(listen) => {
            let hub = ReplicationHub::bind(listen.as_str(), core.stats.registry())
                .map_err(|e| format!("bind replication {listen}: {e}"))?;
            core.set_replication(hub.clone())?;
            Some(hub)
        }
        None => None,
    };

    let role = if promoted {
        Some("promoted")
    } else {
        hub.as_ref().map(|_| "primary")
    };
    let info = role.map(|role| ClusterInfo {
        cluster_lines: vec![format!("role {role}")],
    });
    let patience = Duration::from_secs(if promoted { 10 } else { 0 });
    let deadline = Instant::now() + patience;
    let handle = loop {
        match Server::bind_with_core(&config.addr, workers, net, Arc::clone(&core), info.clone()) {
            Ok(h) => break h,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("bind {}: {e}", config.addr)),
        }
    };
    Ok(ClusterNode {
        handle,
        hub,
        recovery,
    })
}

/// Run as a standby: stream the WAL of the primary at `config.follow`
/// until the primary dies, then promote — recover the replicated state
/// and take over `config.addr`. Returns `Ok(None)` when `stop` was
/// raised before promotion, `Ok(Some(node))` once promoted and serving.
///
/// # Errors
/// No primary or no state directory, local filesystem failures while
/// following, or recovery/bind failures at promotion.
pub fn follow_and_promote(
    config: &ClusterConfig,
    stop: &AtomicBool,
    progress: &Arc<FollowerProgress>,
) -> Result<Option<ClusterNode>, String> {
    let primary = config
        .follow
        .as_deref()
        .ok_or("a standby needs the primary's replication address")?;
    let persist = config
        .persist
        .as_ref()
        .ok_or("a standby needs a state directory")?;
    match run_follower(primary, persist.state_dir(), stop, progress)? {
        FollowExit::Stopped => Ok(None),
        FollowExit::PrimaryDead if stop.load(Ordering::SeqCst) => Ok(None),
        FollowExit::PrimaryDead => start_as(config, true).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_node_without_a_state_directory_neither_replicates_nor_follows() {
        let config = ClusterConfig {
            addr: "127.0.0.1:0".to_string(),
            server: ServerConfig::default(),
            persist: None,
            repl_listen: Some("127.0.0.1:0".to_string()),
            follow: None,
        };
        let err = start(&config).err().expect("a primary in memory");
        assert!(err.contains("state directory"), "{err}");
        let standby = ClusterConfig {
            repl_listen: None,
            follow: Some("127.0.0.1:1".to_string()),
            ..config
        };
        let progress = Arc::new(FollowerProgress::default());
        let err = follow_and_promote(&standby, &AtomicBool::new(false), &progress)
            .err()
            .expect("a standby in memory");
        assert!(err.contains("state directory"), "{err}");
    }
}
