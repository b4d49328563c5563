//! Cluster node assembly: a [`RingRouter`] deciding which shard owns
//! each request, a primary that serves its shard and replicates its
//! WAL, and a follower that streams that WAL and promotes itself when
//! the primary dies.
//!
//! Sharding model: the static member table maps shard ids to client
//! addresses; shard `k`'s registry entries and distance-cache keys are
//! exactly the topology fingerprints the hash ring assigns to `k`.
//! Requests naming a *registered* fingerprint route by the ring; the
//! built-in topologies (`paper24`, `ring:*`, `random:*`) are
//! constructible on any node and stay local, and job ids are
//! shard-local, so `STATUS`/`RESULT`/`CANCEL` go to the shard that
//! acked the submit (which the redirect-following client talks to
//! already).

use crate::follower::{run_follower, FollowExit, FollowerConfig, FollowerProgress};
use crate::hub::{ReplMode, ReplicationHub};
use crate::ring::{HashRing, DEFAULT_VNODES};
use commsched_net::NetConfig;
use commsched_service::persist::PersistOptions;
use commsched_service::protocol::TopoRef;
use commsched_service::{
    ClusterHooks, RecoveryReport, RouteDecision, Server, ServerHandle, ServiceCore,
    ServiceCoreConfig,
};
use commsched_telemetry::metrics::{Counter, Registry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One row of the static member table: a shard and the client address
/// of the node serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Shard id (feeds the hash ring).
    pub shard: u32,
    /// `host:port` clients connect to.
    pub addr: String,
}

/// Parse a member table: `shard=addr,shard=addr,...`.
///
/// # Errors
/// Malformed entries or duplicate shard ids.
pub fn parse_members(s: &str) -> Result<Vec<Member>, String> {
    let mut members = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        let (shard, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("member '{part}' is not shard=addr"))?;
        let shard: u32 = shard
            .parse()
            .map_err(|_| format!("bad shard id in '{part}'"))?;
        if members.iter().any(|m: &Member| m.shard == shard) {
            return Err(format!("duplicate shard {shard} in member table"));
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
    /// (follower). Must appear in `members`.
    pub node_id: u32,
    /// The static member table, identical on every node.
    pub members: Vec<Member>,
    /// Virtual points per shard on the hash ring.
    pub vnodes: usize,
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
            vnodes: DEFAULT_VNODES,
            repl: ReplMode::Sync,
            repl_listen: None,
            follow: None,
            state_dir: state_dir.into(),
            workers: 2,
            core: ServiceCoreConfig::default(),
            net: NetConfig::default(),
        }
    }

    fn self_member(&self) -> Result<&Member, String> {
        self.members
            .iter()
            .find(|m| m.shard == self.node_id)
            .ok_or_else(|| format!("node id {} not in member table", self.node_id))
    }
}

/// The routing hooks a cluster node installs into its front end:
/// consult the hash ring for every request that names a registered
/// topology fingerprint, answer `MOVED` for keys another shard owns.
pub struct RingRouter {
    ring: HashRing,
    members: Vec<Member>,
    self_shard: u32,
    role: &'static str,
    repl: ReplMode,
    moved: Counter,
}

impl RingRouter {
    /// Build the router for `self_shard` over the member table.
    /// `role` is reported by `CLUSTER` (`primary` / `promoted`).
    pub fn new(
        members: Vec<Member>,
        self_shard: u32,
        vnodes: usize,
        role: &'static str,
        repl: ReplMode,
        registry: &Registry,
    ) -> Self {
        let shards: Vec<u32> = members.iter().map(|m| m.shard).collect();
        Self {
            ring: HashRing::new(&shards, vnodes),
            members,
            self_shard,
            role,
            repl,
            moved: registry.counter(
                "cluster_moved_total",
                "Requests redirected to their owning shard",
            ),
        }
    }

    /// The ring this router consults.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    fn decide(&self, fp: u64) -> RouteDecision {
        match self.ring.owner(fp) {
            Some(shard) if shard == self.self_shard => RouteDecision::Local,
            Some(shard) => {
                let addr = self
                    .members
                    .iter()
                    .find(|m| m.shard == shard)
                    .map(|m| m.addr.clone())
                    .unwrap_or_default();
                self.moved.inc();
                RouteDecision::Moved { shard, addr }
            }
            None => RouteDecision::Local,
        }
    }
}

impl ClusterHooks for RingRouter {
    fn route(&self, topo: TopoRef) -> RouteDecision {
        match topo {
            // Built-ins are constructible anywhere and pinned local so
            // single-node workloads (and NOOP load tests) never bounce.
            TopoRef::Registered(fp) => self.decide(fp),
            TopoRef::Paper24 | TopoRef::Ring { .. } | TopoRef::Random { .. } => {
                RouteDecision::Local
            }
        }
    }

    fn cluster_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("node {}", self.self_shard),
            format!("role {}", self.role),
            format!("repl {}", self.repl.as_str()),
            format!("shards {}", self.members.len()),
        ];
        for m in &self.members {
            let tag = if m.shard == self.self_shard {
                " self"
            } else {
                ""
            };
            lines.push(format!("member {} {}{tag}", m.shard, m.addr));
        }
        lines
    }

    fn stats_lines(&self) -> Vec<String> {
        vec![
            format!("cluster_shard {}", self.self_shard),
            format!("cluster_members {}", self.members.len()),
            format!("cluster_moved {}", self.moved.get()),
        ]
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
/// Recovery, bind, or replication-setup failures.
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

    let router: Arc<dyn ClusterHooks> = Arc::new(RingRouter::new(
        config.members.clone(),
        config.node_id,
        config.vnodes,
        role,
        config.repl,
        core.stats.registry(),
    ));

    let deadline = Instant::now() + Duration::from_secs(10);
    let handle = loop {
        match Server::bind_with_core(
            client_addr,
            config.workers,
            config.net,
            Arc::clone(&core),
            Some(Arc::clone(&router)),
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
    fn member_table_parses_and_rejects_garbage() {
        let members = parse_members("0=127.0.0.1:7478,1=127.0.0.1:7479").unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[1].shard, 1);
        assert_eq!(members[1].addr, "127.0.0.1:7479");
        assert!(parse_members("").is_err());
        assert!(parse_members("x=1:2").is_err());
        assert!(parse_members("0=a,0=b").is_err());
        assert!(parse_members("7478").is_err());
    }

    #[test]
    fn router_keeps_builtins_local_and_reports_members() {
        let members = parse_members("0=127.0.0.1:7478,1=127.0.0.1:7479").unwrap();
        let registry = Registry::new();
        let router = RingRouter::new(members, 0, 64, "primary", ReplMode::Sync, &registry);
        assert_eq!(
            router.route(TopoRef::Paper24),
            RouteDecision::Local,
            "builtins must never bounce"
        );
        // Registered fingerprints split between the two shards; a key
        // owned by shard 1 must carry shard 1's address.
        let mut saw_moved = false;
        for fp in 0..256u64 {
            match router.route(TopoRef::Registered(fp)) {
                RouteDecision::Local => {}
                RouteDecision::Moved { shard, addr } => {
                    assert_eq!(shard, 1);
                    assert_eq!(addr, "127.0.0.1:7479");
                    saw_moved = true;
                }
            }
        }
        assert!(saw_moved, "some keys must belong to the other shard");
        let lines = router.cluster_lines();
        assert!(lines.contains(&"node 0".to_string()));
        assert!(lines.contains(&"member 0 127.0.0.1:7478 self".to_string()));
        assert!(lines.contains(&"member 1 127.0.0.1:7479".to_string()));
    }
}
