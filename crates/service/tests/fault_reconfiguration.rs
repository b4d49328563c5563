//! End-to-end dynamic-reconfiguration test: a `FAULT` against a cached
//! topology bumps its epoch, invalidates exactly that topology's cache
//! entries (repair-refreshing them under the successor fingerprint — a
//! shortest-path entry by a rebuild), fails later jobs against the stale
//! epoch with a typed error instead of hanging them, and leaves unrelated
//! topologies untouched.

use commsched_service::{Client, Server, ServerConfig, ServerHandle, ServiceCoreConfig};
use commsched_topology::designed;
use std::time::Duration;

fn server() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            core: ServiceCoreConfig {
                queue_capacity: 16,
                cache_capacity: 8,
                search_seeds: 2,
                search_threads: 1,
                table_threads: 2,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Run `args` to completion and return its `RESULT` payload.
fn run(client: &mut Client, args: &str) -> Vec<String> {
    let job = client.submit_raw(args).expect("submit");
    let state = client.wait(job, Duration::from_millis(10)).expect("wait");
    assert_eq!(state, "done", "{args} ended {state}");
    client.result(job).expect("result")
}

fn value_of<'a>(lines: &'a [String], key: &str) -> &'a str {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in {lines:?}"))
}

#[test]
fn fault_invalidates_one_entry_and_stale_jobs_fail_typed() {
    let handle = server();
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Warm the cache with two topologies: the paper network (uploaded,
    // so we hold its fingerprint) under both routers, and a builtin ring.
    let fp = client
        .add_topology(&designed::paper_24_switch())
        .expect("upload");
    for args in [
        format!("SCHEDULE topo=fp:{fp:016x} clusters=4 seed=1"),
        format!("SCHEDULE topo=fp:{fp:016x} clusters=4 seed=1 routing=shortest"),
        "SCHEDULE topo=ring:8:4 clusters=2 seed=1".to_string(),
    ] {
        run(&mut client, &args);
    }
    assert_eq!(client.stat_u64("cache_entries").unwrap(), Some(3));
    let misses_before = client.stat_u64("cache_misses").unwrap().unwrap();
    let hits_before = client.stat_u64("cache_hits").unwrap().unwrap();

    // Kill one link of the paper network.
    let report = client
        .fault_raw(&format!("topo=fp:{fp:016x} kill=0:1"))
        .expect("fault");
    assert_eq!(value_of(&report, "event"), "link-down 0:1");
    assert_eq!(value_of(&report, "epoch"), "1");
    assert_eq!(value_of(&report, "previous"), format!("{fp:016x}"));
    assert_eq!(value_of(&report, "connected"), "true");
    // Exactly the faulted topology's two entries were invalidated and
    // then repair-refreshed under the successor fingerprint; the ring's
    // entry survived, so the cache is back at three entries after two
    // extra (repair) misses and no new hits. The up*/down* entry re-solves
    // some pairs; the shortest-path entry has no transition diff to name
    // them, so its repair is a rebuild of all 276.
    assert_eq!(value_of(&report, "invalidated"), "2");
    assert_eq!(value_of(&report, "refreshed"), "2");
    let new_fp = value_of(&report, "topology").to_string();
    assert_ne!(new_fp, format!("{fp:016x}"));
    assert!(
        report
            .iter()
            .any(|l| l.starts_with("repair updown:0 pairs ")),
        "no repair line in {report:?}"
    );
    assert!(
        report
            .iter()
            .any(|l| l.starts_with("repair shortest pairs 276/276 ")),
        "no shortest-path rebuild line in {report:?}"
    );
    assert_eq!(client.stat_u64("cache_entries").unwrap(), Some(3));
    assert_eq!(
        client.stat_u64("cache_misses").unwrap(),
        Some(misses_before + 2)
    );
    assert_eq!(client.stat_u64("cache_hits").unwrap(), Some(hits_before));

    // A job against the stale fingerprint fails with the typed
    // stale-epoch error naming the successor — it never hangs.
    let stale_job = client
        .submit_raw(&format!("SCHEDULE topo=fp:{fp:016x} clusters=4 seed=2"))
        .expect("submit against stale epoch");
    let state = client
        .wait(stale_job, Duration::from_millis(10))
        .expect("wait");
    assert_eq!(state, "failed");
    let err = client
        .result(stale_job)
        .expect_err("stale job has no result");
    let msg = err.to_string();
    assert!(msg.contains("stale-epoch"), "error was: {msg}");
    assert!(
        msg.contains(&new_fp),
        "error does not name successor: {msg}"
    );

    // The successor fingerprint schedules on the repaired table: a cache
    // hit, not another solve.
    let job = client
        .submit_raw(&format!("SCHEDULE topo=fp:{new_fp} clusters=4 seed=3"))
        .expect("submit against successor");
    assert_eq!(
        client.wait(job, Duration::from_millis(10)).expect("wait"),
        "done"
    );
    assert_eq!(
        client.stat_u64("cache_misses").unwrap(),
        Some(misses_before + 2)
    );
    assert_eq!(
        client.stat_u64("cache_hits").unwrap(),
        Some(hits_before + 1)
    );

    // The rebuilt shortest-path entry serves the successor (a hit) and
    // maps it exactly as a fresh daemon's cold build of the same net.
    let shortest = format!("SCHEDULE topo=fp:{new_fp} clusters=4 seed=3 routing=shortest");
    let repaired = run(&mut client, &shortest);
    assert_eq!(
        client.stat_u64("cache_hits").unwrap(),
        Some(hits_before + 2)
    );
    let fresh = server();
    let mut cold = Client::connect(fresh.addr()).expect("connect");
    let paper = designed::paper_24_switch();
    let faulted = paper
        .without_link(paper.link_between(0, 1).unwrap())
        .unwrap();
    let cold_fp = cold.add_topology(&faulted).expect("upload successor");
    assert_eq!(format!("{cold_fp:016x}"), new_fp);
    let rebuilt = run(&mut cold, &shortest);
    assert_eq!(value_of(&repaired, "fg"), value_of(&rebuilt, "fg"));
    assert!(cold.shutdown().expect("shutdown").starts_with("drained"));
    fresh.join();

    // Faulting the stale epoch is itself a typed error.
    let err = client
        .fault_raw(&format!("topo=fp:{fp:016x} kill=2:3"))
        .expect_err("stale fault must be rejected");
    assert!(err.to_string().contains("stale-epoch"), "got: {err}");

    // Satellite regression: an invalid builtin shape is a clean typed
    // failure through the whole service — no worker panic.
    let bad = client
        .submit_raw("SCHEDULE topo=ring:2:1 clusters=2 seed=1")
        .expect("submit invalid ring");
    assert_eq!(
        client.wait(bad, Duration::from_millis(10)).expect("wait"),
        "failed"
    );
    let msg = client
        .result(bad)
        .expect_err("invalid ring has no result")
        .to_string();
    assert!(msg.contains("ring needs at least 3"), "error was: {msg}");
    assert!(!msg.contains("worker-panic"), "error was: {msg}");
    assert_eq!(client.stat_u64("jobs_panicked").unwrap(), Some(0));

    let farewell = client.shutdown().expect("shutdown");
    assert!(farewell.starts_with("drained"), "farewell: {farewell}");
    handle.join();
}
