//! In-process cluster integration: a primary serves uploads, jobs and a
//! NOOP burst itself, and sync WAL replication promotes a follower after
//! the primary goes away.

use commsched_cluster::{follow_and_promote, ClusterConfig, FollowerProgress};
use commsched_service::loadgen::{self, LoadgenConfig, WireMode};
use commsched_service::{Client, PersistOptions, RetryPolicy, ServerConfig};
use commsched_topology::designed;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A localhost address for a node to bind. The port is drawn below the
/// kernel's ephemeral range, so no socket's automatic port can take it
/// between this probe and the node's bind; the pid and a counter spread
/// concurrent tests over that range, and a bind probes each candidate.
fn free_addr() -> String {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    // The range's lower bound (read only); 32768 where it cannot be read.
    let ephemeral_lo = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .ok()
        .and_then(|range| range.split_whitespace().next()?.parse::<u32>().ok())
        .unwrap_or(32768)
        .clamp(2048, 65535);
    let span = ephemeral_lo - 1024;
    let start = std::process::id().wrapping_mul(7919);
    for _ in 0..span {
        let port = 1024 + start.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed)) % span;
        if let Ok(listener) = TcpListener::bind(("127.0.0.1", port as u16)) {
            return listener.local_addr().expect("local addr").to_string();
        }
    }
    panic!("no free port below {ephemeral_lo}");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commsched-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable node serving `addr` from `dir`, default sizing, neither
/// replicating nor following.
fn node_config(addr: &str, dir: &PathBuf) -> ClusterConfig {
    ClusterConfig {
        addr: addr.to_string(),
        server: ServerConfig::default(),
        persist: Some(PersistOptions::new(dir)),
        repl_listen: None,
        follow: None,
    }
}

#[test]
fn a_primary_serves_uploads_jobs_and_a_burst_itself() {
    let addr = free_addr();
    let dir = temp_dir("serve");
    let config = ClusterConfig {
        repl_listen: Some("127.0.0.1:0".to_string()),
        ..node_config(&addr, &dir)
    };
    let node = commsched_cluster::start(&config).unwrap();

    let mut client = Client::connect_with_retry(&addr, RetryPolicy::default()).unwrap();
    let lines = client.cluster().unwrap().expect("cluster node");
    assert!(
        lines.contains(&"role primary".to_string()),
        "lines: {lines:?}"
    );

    // An upload is registered where it lands, and a submit naming its
    // fingerprint runs there. Even switch counts only: clusters=2 must
    // split the host count evenly along switch boundaries.
    let topo = designed::ring(8, 2);
    let fp = client.add_topology(&topo).unwrap();
    assert_eq!(fp, topo.fingerprint());
    let job = client
        .submit_raw(&format!("SCHEDULE topo=fp:{fp:016x} clusters=2 seed=7"))
        .unwrap();
    assert_eq!(client.wait(job, Duration::from_millis(20)).unwrap(), "done");
    assert!(!client.result(job).unwrap().is_empty());

    // A paced NOOP burst loses nothing. The open burst can outrun the
    // node's bounded job queue; a refusal is then the queue bound doing
    // its job, so `queue-full` is the one error class allowed.
    let burst = LoadgenConfig {
        connections: 2,
        batch: 8,
        duration: Duration::from_millis(300),
        mode: WireMode::Binary,
        max_in_flight: 64,
        ..LoadgenConfig::default()
    };
    let r = loadgen::run(&addr, &burst).expect("loadgen run");
    assert_eq!(r.errors, r.errors_queue_full, "{}", r.to_json());
    assert_eq!(r.in_flight_lost, 0, "{}", r.to_json());
    assert!(r.jobs_acked > 0, "acked nothing: {}", r.to_json());

    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sync_replication_promotes_with_every_acked_job_visible() {
    let addr = free_addr();
    let dir_primary = temp_dir("repl-primary");
    let dir_standby = temp_dir("repl-standby");

    let config = ClusterConfig {
        repl_listen: Some("127.0.0.1:0".to_string()),
        ..node_config(&addr, &dir_primary)
    };
    let primary = commsched_cluster::start(&config).unwrap();
    let repl_addr = primary.hub().expect("hub").listen_addr().to_string();

    // Stand up the follower in a thread; it will promote when the
    // primary goes away.
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(FollowerProgress::default());
    let follower_thread = {
        let fconfig = ClusterConfig {
            follow: Some(repl_addr),
            ..node_config(&addr, &dir_standby)
        };
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        std::thread::spawn(move || follow_and_promote(&fconfig, &stop, &progress))
    };

    // Give the follower a beat to connect, then run acked traffic.
    let deadline = Instant::now() + Duration::from_secs(5);
    while progress.connects.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "follower never connected");
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut client = Client::connect_with_retry(&addr, RetryPolicy::default()).unwrap();
    let mut acked = Vec::new();
    for _ in 0..40 {
        acked.push(client.submit_raw("NOOP").unwrap());
    }
    let topo_fp = client.add_topology(&designed::ring(6, 2)).unwrap();
    for id in &acked {
        assert_eq!(client.wait(*id, Duration::from_millis(10)).unwrap(), "done");
    }
    // One real job, so the primary caches (and spills) a table for the
    // uploaded topology. Tables are rebuildable: they do not replicate.
    let schedule = format!("SCHEDULE topo=fp:{topo_fp:016x} clusters=2 seed=3");
    let fg_of = |client: &mut Client, job: u64| -> String {
        let state = client.wait(job, Duration::from_millis(20)).unwrap();
        let lines = client.result(job);
        assert_eq!(state, "done", "schedule job ended {state}: {lines:?}");
        let fg = lines.unwrap().into_iter().find(|l| l.starts_with("fg "));
        fg.expect("fg line")
    };
    let job = client.submit_raw(&schedule).unwrap();
    let fg_on_primary = fg_of(&mut client, job);
    // The spill follows the job's settle, so `done` may be seen first.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.stat_u64("table_spills").unwrap() != Some(1) {
        assert!(
            std::time::Instant::now() < deadline,
            "the table never spilled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every ack above waited on the replication barrier, and METRICS
    // shows the latency histogram of those waits.
    let metrics = client.metrics().unwrap();
    let barrier_waits = metrics
        .iter()
        .find_map(|l| l.strip_prefix("cluster_repl_barrier_us_count "))
        .map(|v| v.parse::<usize>().unwrap());
    assert!(
        metrics
            .iter()
            .any(|l| l.starts_with("cluster_repl_barrier_us_bucket"))
            && barrier_waits >= Some(acked.len()),
        "barrier histogram missing or short: {barrier_waits:?} waits for {} acks",
        acked.len()
    );

    // Acked means replicated: by the time those acks returned, the
    // follower had applied the records behind them. Finish records
    // written after the last ack may still be in flight, so poll the
    // lag to zero.
    let applied = progress.applied.load(Ordering::Relaxed);
    assert!(
        applied >= acked.len() as u64,
        "follower applied {applied} records for {} acked jobs",
        acked.len()
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if client.stat_u64("repl_lag_records").unwrap() == Some(0) {
            break;
        }
        assert!(Instant::now() < deadline, "replication lag never drained");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Kill the primary. The follower's reconnects exhaust, it recovers
    // the replicated WAL, and it binds the shard's client address.
    primary.shutdown();
    let promoted = follower_thread
        .join()
        .expect("follower thread")
        .expect("promotion")
        .expect("promoted node");

    let mut client = Client::connect_with_retry(&addr, RetryPolicy::default()).unwrap();
    client.ping().unwrap();
    let lines = client.cluster().unwrap().expect("cluster node");
    assert!(
        lines.contains(&"role promoted".to_string()),
        "lines: {lines:?}"
    );
    // Zero accepted-job loss: every acked job is visible with its
    // terminal state, and the registered topology survived too.
    for id in &acked {
        let state = client.wait(*id, Duration::from_millis(10)).unwrap();
        assert_eq!(state, "done", "job {id} lost in failover");
    }
    // The table cached on the dead primary was never shipped (nothing
    // to restore here); the promoted node rebuilds it on first use —
    // one miss, the same mapping.
    assert_eq!(client.stat_u64("table_restores").unwrap(), Some(0));
    let job = client.submit_raw(&schedule).unwrap();
    assert_eq!(fg_of(&mut client, job), fg_on_primary);
    assert_eq!(client.stat_u64("cache_misses").unwrap(), Some(1));

    promoted.shutdown();
    let _ = std::fs::remove_dir_all(&dir_primary);
    let _ = std::fs::remove_dir_all(&dir_standby);
}
