//! The daemon arm: `serve`, started from the cluster crate's one start
//! path — standalone, as a replicating primary, or as a warm standby
//! that serves once promoted.

use commsched_cluster::{ClusterConfig, FollowerProgress};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

pub(super) fn serve(config: &ClusterConfig) -> Result<String, String> {
    let node = match &config.follow {
        None => commsched_cluster::start(config)?,
        Some(primary) => {
            // Standby: stream the primary's WAL; when the primary dies,
            // promote and serve until shutdown.
            println!("standby following {primary}");
            let stop = AtomicBool::new(false);
            let progress = Arc::new(FollowerProgress::default());
            let node = commsched_cluster::follow_and_promote(config, &stop, &progress)?
                .ok_or("standby stopped before promotion")?;
            println!("standby promoted: {primary} is gone");
            node
        }
    };
    if let (Some(report), Some(options)) = (&node.recovery, &config.persist) {
        println!(
            "recovered from {}: {} jobs requeued, {} topologies, \
             {} cached tables ({} snapshot + {} wal records{})",
            options.state_dir().display(),
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
    }
    if let Some(hub) = node.hub() {
        println!("replication listening on {}", hub.listen_addr());
    }
    // Print immediately: clients need the (possibly ephemeral)
    // port while the daemon blocks below.
    println!("commsched-service listening on {}", node.addr());
    node.join();
    Ok("server drained and stopped\n".to_string())
}
