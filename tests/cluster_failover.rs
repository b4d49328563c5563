//! Failover torture test at the process level: a two-node cluster
//! (primary + warm standby) under live submit traffic, with the
//! primary SIGKILLed mid-stream. Every job acknowledged to a client —
//! before or after the kill — must be visible on the promoted node,
//! exactly once.

#![cfg(unix)]

use commsched_service::{Client, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
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

/// Spawn a `commsched cluster` node with its stdout pumped into a
/// channel, line by line.
fn spawn_node(args: &[String]) -> (Child, Receiver<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_commsched"))
        .arg("cluster")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn cluster node");
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    (child, rx)
}

/// Wait for a stdout line containing `needle`; returns it.
fn await_line(rx: &Receiver<String>, needle: &str, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) if line.contains(needle) => return line,
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                panic!("no '{needle}' line within {timeout:?}")
            }
        }
    }
}

/// A retry policy patient enough to bridge the promotion window
/// (follower exhausts ~1s of reconnects, then recovers and binds).
fn failover_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base: Duration::from_millis(50),
        cap: Duration::from_secs(1),
        seed: 0xfa11,
    }
}

#[test]
fn sigkill_mid_stream_promotes_without_losing_acked_jobs() {
    let client_addr = free_addr();
    let members = format!("0={client_addr}");
    let base = std::env::temp_dir().join(format!("commsched-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir_primary = base.join("primary");
    let dir_standby = base.join("standby");

    let (mut primary, primary_out) = spawn_node(&[
        "--node-id".into(),
        "0".into(),
        "--members".into(),
        members.clone(),
        "--state-dir".into(),
        dir_primary.to_str().unwrap().into(),
        "--repl".into(),
        "sync".into(),
        "--repl-listen".into(),
        "127.0.0.1:0".into(),
    ]);
    let repl_line = await_line(
        &primary_out,
        "replication listening on ",
        Duration::from_secs(10),
    );
    let repl_addr = repl_line
        .rsplit(' ')
        .next()
        .expect("replication address")
        .to_string();
    await_line(
        &primary_out,
        "primary listening on ",
        Duration::from_secs(10),
    );

    let (mut standby, standby_out) = spawn_node(&[
        "--node-id".into(),
        "0".into(),
        "--members".into(),
        members.clone(),
        "--state-dir".into(),
        dir_standby.to_str().unwrap().into(),
        "--repl".into(),
        "sync".into(),
        "--follow".into(),
        repl_addr,
    ]);
    await_line(&standby_out, "following", Duration::from_secs(10));

    // Live traffic: one writer thread submitting NOOPs, reconnecting
    // (with backoff) whenever its connection dies. Every id it records
    // was acked to it — under repl=sync, acked means replicated.
    let acked = Arc::new(Mutex::new(Vec::<u64>::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let acked = Arc::clone(&acked);
        let stop = Arc::clone(&stop);
        let addr = client_addr.clone();
        std::thread::spawn(move || {
            let mut client = None;
            while !stop.load(Ordering::SeqCst) {
                match client.as_mut().map(|c: &mut Client| c.submit_raw("NOOP")) {
                    Some(Ok(id)) => {
                        acked.lock().unwrap().push(id);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Some(Err(_)) | None => {
                        // Connection died (or first pass): dial again,
                        // riding out the promotion window.
                        client = Client::connect_with_retry(&addr, failover_policy()).ok();
                    }
                }
            }
        })
    };

    // Let some acks land on the original primary, then SIGKILL it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while acked.lock().unwrap().len() < 20 {
        assert!(Instant::now() < deadline, "no acks on the primary");
        std::thread::sleep(Duration::from_millis(10));
    }
    let before_kill = acked.lock().unwrap().len();
    primary.kill().expect("SIGKILL primary");
    primary.wait().expect("reap primary");

    await_line(
        &standby_out,
        "promoted, listening on ",
        Duration::from_secs(30),
    );

    // Keep the stream going on the promoted node, then stop the writer.
    let deadline = Instant::now() + Duration::from_secs(10);
    while acked.lock().unwrap().len() < before_kill + 20 {
        assert!(Instant::now() < deadline, "no acks after promotion");
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().expect("writer thread");

    let acked = Arc::try_unwrap(acked)
        .expect("writer done")
        .into_inner()
        .unwrap();
    assert!(acked.len() >= before_kill + 20);

    // No duplicates: the job-id sequence survived the failover (the
    // next-id record replicates with everything else).
    let mut unique = acked.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        acked.len(),
        "duplicate job ids across failover"
    );

    // Every acked job is visible on the promoted node with a terminal
    // state — zero accepted-job loss.
    let mut client = Client::connect_with_retry(&client_addr, failover_policy()).expect("connect");
    let lines = client.cluster().expect("cluster").expect("cluster node");
    assert!(
        lines.contains(&"role promoted".to_string()),
        "lines: {lines:?}"
    );
    for id in &acked {
        let state = client.wait(*id, Duration::from_millis(10)).expect("status");
        assert_eq!(state, "done", "job {id} lost in failover");
    }

    client.shutdown().expect("shutdown promoted node");
    standby.wait().expect("standby exits");
    let _ = std::fs::remove_dir_all(&base);
}
