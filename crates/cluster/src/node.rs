//! Cluster node assembly: a primary that serves the shard and replicates
//! its WAL, and a follower that streams that WAL and promotes itself
//! when the primary dies.
//!
//! A cluster serves one shard. The static member table names it and the
//! client address of the node serving it, and every node of the cluster
//! (the primary and its warm standbys) starts with that one-entry table.
//! A promoted standby binds the same address, so a client that
//! reconnects finds it there.

use crate::follower::{run_follower, FollowExit, FollowerConfig, FollowerProgress};
use crate::hub::{ReplMode, ReplicationHub};
use commsched_net::NetConfig;
use commsched_service::persist::PersistOptions;
use commsched_service::{
    ClusterInfo, RecoveryReport, Server, ServerHandle, ServiceCore, ServiceCoreConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One row of the static member table: a shard and the client address
/// of the node serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Shard id.
    pub shard: u32,
    /// `host:port` clients connect to.
    pub addr: String,
}

/// Parse a member table: `shard=addr`, the one shard the cluster serves
/// and the address its primary binds.
///
/// # Errors
/// A malformed entry, an empty table, or a second entry: a cluster is
/// one primary plus warm standbys, with no second shard to route to.
pub fn parse_members(s: &str) -> Result<Vec<Member>, String> {
    let mut members = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (shard, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("member '{part}' is not shard=addr"))?;
        let shard: u32 = shard
            .parse()
            .map_err(|_| format!("bad shard id in '{part}'"))?;
        if !members.is_empty() {
            return Err(format!(
                "member '{part}' names a second shard: a cluster serves one shard \
                 (a primary plus standbys), so its table has one entry"
            ));
        }
        members.push(Member {
            shard,
            addr: addr.to_string(),
        });
    }
    if members.is_empty() {
        return Err("empty member table".into());
    }
    Ok(members)
}

/// Everything needed to start one cluster node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// The shard this node serves (primary) or stands by for
    /// (follower). Must be the shard `members` names.
    pub node_id: u32,
    /// The static member table, identical on every node: one entry.
    pub members: Vec<Member>,
    /// Replication strictness for this node's WAL stream.
    pub repl: ReplMode,
    /// Primary: address to accept followers on (`None` = do not
    /// replicate).
    pub repl_listen: Option<String>,
    /// Follower: the primary's replication address to stream from.
    pub follow: Option<String>,
    /// Durable state directory (cluster nodes are always durable —
    /// replication is WAL shipping).
    pub state_dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Core sizing.
    pub core: ServiceCoreConfig,
    /// Event-loop limits.
    pub net: NetConfig,
}

impl ClusterConfig {
    /// A config with the given identity and defaults everywhere else.
    pub fn new(node_id: u32, members: Vec<Member>, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            node_id,
            members,
            repl: ReplMode::Sync,
            repl_listen: None,
            follow: None,
            state_dir: state_dir.into(),
            workers: 2,
            core: ServiceCoreConfig::default(),
            net: NetConfig::default(),
        }
    }

    /// The member this node serves or stands by for: the table's one
    /// entry, which must name `node_id`.
    fn self_member(&self) -> Result<&Member, String> {
        match self.members.as_slice() {
            [member] if member.shard == self.node_id => Ok(member),
            [_] | [] => Err(format!("node id {} not in member table", self.node_id)),
            _ => Err("a cluster serves one shard: its member table has one entry".into()),
        }
    }

    /// What `CLUSTER` and `STATS` report about a node of this config in
    /// `role` (`primary` / `promoted`). None of it changes after bind.
    pub fn info(&self, role: &str) -> ClusterInfo {
        let mut cluster_lines = vec![
            format!("node {}", self.node_id),
            format!("role {role}"),
            format!("repl {}", self.repl.as_str()),
            format!("shards {}", self.members.len()),
        ];
        for m in &self.members {
            let tag = if m.shard == self.node_id { " self" } else { "" };
            cluster_lines.push(format!("member {} {}{tag}", m.shard, m.addr));
        }
        ClusterInfo {
            cluster_lines,
            stats_lines: vec![
                format!("cluster_shard {}", self.node_id),
                format!("cluster_members {}", self.members.len()),
            ],
        }
    }
}

/// A running cluster node: the TCP front end plus (for replicating
/// primaries) the replication hub.
pub struct ClusterNode {
    handle: ServerHandle,
    hub: Option<Arc<ReplicationHub>>,
    /// What recovery found when the core was (re)built.
    pub recovery: RecoveryReport,
}

impl ClusterNode {
    /// The client-facing address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// The service core (stats, registry, direct submits in tests).
    pub fn core(&self) -> &Arc<ServiceCore> {
        self.handle.core()
    }

    /// The replication hub, when this node replicates.
    pub fn hub(&self) -> Option<&Arc<ReplicationHub>> {
        self.hub.as_ref()
    }

    /// Whether the front end has stopped serving.
    pub fn is_stopped(&self) -> bool {
        self.handle.is_stopped()
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

/// Start a primary: recover the shard's durable state, bind the
/// replication hub (when configured), and serve the member table's
/// address for this shard.
///
/// # Errors
/// A member table that does not name this node's shard alone, or
/// recovery, bind, or replication-setup failures.
pub fn start_primary(config: &ClusterConfig) -> Result<ClusterNode, String> {
    let member = config.self_member()?.clone();
    start_as(config, &member.addr, "primary")
}

/// Shared primary/promoted startup path. Binds `client_addr`,
/// retrying briefly — a promoting follower races the dead primary's
/// socket leaving `TIME_WAIT`.
fn start_as(
    config: &ClusterConfig,
    client_addr: &str,
    role: &'static str,
) -> Result<ClusterNode, String> {
    let (core, recovery) =
        ServiceCore::recover(config.core, PersistOptions::new(&config.state_dir))
            .map_err(|e| format!("recover {}: {e}", config.state_dir.display()))?;
    let core = Arc::new(core);

    let hub = match &config.repl_listen {
        Some(listen) => {
            let hub = ReplicationHub::bind(listen.as_str(), config.repl, core.stats.registry())
                .map_err(|e| format!("bind replication {listen}: {e}"))?;
            core.set_replication(hub.clone())?;
            Some(hub)
        }
        None => None,
    };

    let info = config.info(role);
    let deadline = Instant::now() + Duration::from_secs(10);
    let handle = loop {
        match Server::bind_with_core(
            client_addr,
            config.workers,
            config.net,
            Arc::clone(&core),
            Some(info.clone()),
        ) {
            Ok(h) => break h,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(format!("bind {client_addr}: {e}")),
        }
    };
    Ok(ClusterNode {
        handle,
        hub,
        recovery,
    })
}

/// Run as a standby for shard `config.node_id`: stream the primary's
/// WAL (from `config.follow`) until the primary dies, then promote —
/// recover the replicated state and take over the shard's client
/// address. Returns `Ok(None)` when `stop` was raised before
/// promotion, `Ok(Some(node))` once promoted and serving.
///
/// # Errors
/// Local filesystem failures while following, or recovery/bind
/// failures at promotion.
pub fn follow_and_promote(
    config: &ClusterConfig,
    stop: &AtomicBool,
    progress: &Arc<FollowerProgress>,
) -> Result<Option<ClusterNode>, String> {
    let primary = config
        .follow
        .clone()
        .ok_or("follower mode requires the primary's replication address")?;
    let member = config.self_member()?.clone();
    let mut fc = FollowerConfig::new(primary, &config.state_dir);
    fc.mode = config.repl;
    match run_follower(&fc, stop, progress)? {
        FollowExit::Stopped => Ok(None),
        FollowExit::PrimaryDead => {
            if stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            start_as(config, &member.addr, "promoted").map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_table_parses_one_shard_and_rejects_garbage() {
        let members = parse_members("1=127.0.0.1:7479").unwrap();
        let want = Member {
            shard: 1,
            addr: "127.0.0.1:7479".to_string(),
        };
        assert_eq!(members, [want]);
        assert!(parse_members("").is_err());
        assert!(parse_members("x=1:2").is_err());
        assert!(parse_members("7478").is_err());
        for table in ["0=a,1=b", "0=a,0=b"] {
            let err = parse_members(table).unwrap_err();
            assert!(err.contains("second shard"), "{table}: {err}");
        }
    }

    #[test]
    fn info_reports_the_node_and_its_one_member() {
        let members = parse_members("0=127.0.0.1:7478").unwrap();
        let info = ClusterConfig::new(0, members, "unused").info("primary");
        let cluster = [
            "node 0",
            "role primary",
            "repl sync",
            "shards 1",
            "member 0 127.0.0.1:7478 self",
        ];
        assert_eq!(info.cluster_lines, cluster);
        assert_eq!(info.stats_lines, ["cluster_shard 0", "cluster_members 1"]);
    }

    #[test]
    fn a_table_that_does_not_name_this_shard_alone_does_not_start() {
        let member = |shard| Member {
            shard,
            addr: "127.0.0.1:1".to_string(),
        };
        let other = ClusterConfig::new(0, vec![member(1)], "unused");
        let err = start_primary(&other).err().expect("another shard");
        assert!(err.contains("not in member table"), "{err}");
        let two = ClusterConfig::new(0, vec![member(0), member(1)], "unused");
        let err = start_primary(&two).err().expect("two shards");
        assert!(err.contains("one shard"), "{err}");
    }
}
