//! Daemon arms: `serve` and `cluster`, the two subcommands whose process
//! becomes a daemon, each started from the library's own config.

use super::Serve;
use commsched_cluster::{ClusterConfig, FollowerProgress};
use commsched_service::{Server, ServiceCore};
use std::sync::Arc;

pub(super) fn serve(cmd: &Serve) -> Result<String, String> {
    let config = &cmd.config;
    let core = match &cmd.persist {
        None => ServiceCore::new(config.core),
        Some(options) => {
            let state_dir = options.state_dir().display();
            let (core, report) = ServiceCore::recover(config.core, options.clone())
                .map_err(|e| format!("cannot recover state from '{state_dir}': {e}"))?;
            println!(
                "recovered from {state_dir}: {} jobs requeued, {} topologies, \
                 {} cached tables ({} snapshot + {} wal records{})",
                report.recovered_jobs,
                report.recovered_topologies,
                report.restored_tables,
                report.snapshot_records,
                report.wal_records,
                if report.torn_tail {
                    ", torn wal tail"
                } else {
                    ""
                }
            );
            core
        }
    };
    let handle =
        Server::bind_with_core(&cmd.addr, config.workers, config.net, Arc::new(core), None)
            .map_err(|e| e.to_string())?;
    // Print immediately: clients need the (possibly ephemeral)
    // port while the daemon blocks below.
    println!("commsched-service listening on {}", handle.addr());
    handle.join();
    Ok("server drained and stopped\n".to_string())
}

pub(super) fn cluster(config: &ClusterConfig) -> Result<String, String> {
    let node_id = config.node_id;
    if let Some(primary) = &config.follow {
        // Standby: stream the primary's WAL; when the primary dies,
        // promote and keep serving until shutdown.
        println!("commsched-cluster node {node_id} following {primary}");
        let stop = std::sync::atomic::AtomicBool::new(false);
        let progress = Arc::new(FollowerProgress::default());
        let Some(node) = commsched_cluster::follow_and_promote(config, &stop, &progress)? else {
            return Ok("follower stopped before promotion\n".to_string());
        };
        println!(
            "commsched-cluster node {node_id} promoted, listening on {}",
            node.addr()
        );
        node.join();
        return Ok("promoted node drained and stopped\n".to_string());
    }
    let node = commsched_cluster::start_primary(config)?;
    println!(
        "recovered from {}: {} jobs requeued, {} topologies",
        config.state_dir.display(),
        node.recovery.recovered_jobs,
        node.recovery.recovered_topologies
    );
    if let Some(hub) = node.hub() {
        println!("replication listening on {}", hub.listen_addr());
    }
    println!(
        "commsched-cluster node {node_id} primary listening on {}",
        node.addr()
    );
    node.join();
    Ok("cluster node drained and stopped\n".to_string())
}
