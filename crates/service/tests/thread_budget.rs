//! A daemon's answers do not depend on its thread budget: the same flat
//! and multilevel `SCHEDULE`s and a nine-point `SWEEP`, through a real
//! `Server::bind` whose jobs each get `search_threads` / `table_threads`
//! 1/1 or 2/2, return byte-identical `RESULT` lines. `ci.sh` runs this
//! file with `--release` too, the build the daemon ships.

use commsched_service::{Client, Server, ServerConfig, ServiceCoreConfig};
use commsched_topology::{random_regular, RandomTopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The `RESULT` lines of each job of the script, from a daemon that gives
/// every job `threads` threads for its table build, its search and (one
/// job running at a time) its sweep.
fn results(threads: usize) -> Vec<Vec<String>> {
    let config = ServerConfig {
        workers: 1,
        core: ServiceCoreConfig {
            search_threads: threads,
            table_threads: threads,
            ..ServiceCoreConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // 264 switches pass the multilevel default `max_coarse_n`, so that job
    // coarsens and refines (the daemon has no knob to lower the bound).
    let jobs = [
        (48, "SCHEDULE", ""),
        (264, "SCHEDULE", " strategy=multilevel"),
        (16, "SWEEP", " points=9"),
    ];
    let out = jobs
        .map(|(n, verb, suffix)| {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
            let fp = client.add_topology(&topo).expect("upload");
            let args = format!("{verb} topo=fp:{fp:016x} clusters=4 seed=3{suffix}");
            let id = client.submit_raw(&args).expect("submit");
            let state = client.wait(id, Duration::from_millis(2)).expect("wait");
            assert_eq!(state, "done", "{args}");
            client.result(id).expect("result")
        })
        .to_vec();
    handle.shutdown();
    out
}

#[test]
fn results_are_byte_identical_under_one_and_two_threads() {
    let one = results(1);
    assert!(
        one[1].iter().any(|l| l == "ml_levels 1"),
        "the multilevel job must coarsen: {:?}",
        one[1]
    );
    let sweep = &one[2];
    assert!(
        sweep.iter().any(|l| l.starts_with("saturation ")),
        "{sweep:?}"
    );
    assert_eq!(sweep.iter().filter(|l| l.starts_with("point ")).count(), 9);
    assert_eq!(one, results(2));
}
