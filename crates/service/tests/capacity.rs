//! Capacity-constrained admission, end to end: a capacitated topology's
//! per-switch memory limits must bound what the service admits (typed
//! `capacity:` rejection, never an over-commit), and the commitments
//! must survive a kill-style crash — the restarted core re-derives the
//! same ledger from the WAL's admitted-but-unfinished jobs, so the
//! post-restart admitted set and rejections match the pre-crash ones.

use commsched_service::{
    Client, JobSpec, PersistOptions, Server, ServiceCore, ServiceCoreConfig, SubmitError, TopoRef,
};
use commsched_topology::TopologyBuilder;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commsched-capacity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_core(dir: &Path) -> (ServiceCore, commsched_service::RecoveryReport) {
    ServiceCore::recover(
        ServiceCoreConfig {
            queue_capacity: 64,
            cache_capacity: 4,
            search_seeds: 1,
            search_threads: 1,
            table_threads: 1,
        },
        PersistOptions::new(dir),
    )
    .expect("recover")
}

fn capped_topology() -> commsched_topology::Topology {
    TopologyBuilder::new(2, 1)
        .link(0, 1)
        .uniform_mem_capacity(100)
        .build()
        .expect("build capped topology")
}

fn spec(fp: u64, mem: u64) -> JobSpec {
    JobSpec {
        topo: TopoRef::Registered(fp),
        mem,
        ..JobSpec::default()
    }
}

#[test]
fn capacity_ledger_survives_kill_restart_with_same_admitted_set() {
    let dir = temp_dir("restart");
    let fp;
    // Session 1: fill both 100-byte switches with one 70-byte job each;
    // the third 70-byte job fits nowhere and must bounce with the typed
    // error. No worker runs, so the admitted jobs stay queued — exactly
    // the state a SIGKILL would freeze.
    {
        let (core, _) = durable_core(&dir);
        fp = core.register_topology(capped_topology()).0;
        assert_eq!(core.submit(spec(fp, 70)), Ok(1));
        assert_eq!(core.submit(spec(fp, 70)), Ok(2));
        let err = core.submit(spec(fp, 70)).expect_err("over-commit");
        assert!(
            matches!(err, SubmitError::Capacity(_)),
            "expected capacity rejection, got {err:?}"
        );
        assert!(
            err.to_string().starts_with("capacity: "),
            "wire spelling must be typed: {err}"
        );
        // Crash: the core drops here without drain or shutdown hooks.
    }
    // Session 2: recovery requeues the admitted set unchanged and
    // re-derives the ledger from it — the same third job still fits
    // nowhere, smaller jobs use only the genuinely free bytes, and a
    // cancellation frees exactly the cancelled job's switch share.
    {
        let (core, report) = durable_core(&dir);
        assert_eq!(report.recovered_jobs, 2, "admitted set changed: {report:?}");
        use commsched_service::JobState;
        assert_eq!(core.status(1), Some(JobState::Queued));
        assert_eq!(core.status(2), Some(JobState::Queued));
        let err = core.submit(spec(fp, 70)).expect_err("still over-commit");
        assert!(matches!(err, SubmitError::Capacity(_)), "got {err:?}");
        // 30 bytes remain free on each switch.
        assert!(core.submit(spec(fp, 30)).is_ok());
        assert!(matches!(
            core.submit(spec(fp, 31)),
            Err(SubmitError::Capacity(_))
        ));
        core.cancel(1).expect("cancel recovered job");
        assert!(core.submit(spec(fp, 70)).is_ok(), "freed switch reusable");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capacity_rejection_is_typed_on_the_wire() {
    let dir = temp_dir("wire");
    let (core, _) = durable_core(&dir);
    let fp = core.register_topology(capped_topology()).0;
    let handle = Server::bind_with_core("127.0.0.1:0", 1, Default::default(), Arc::new(core), None)
        .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // A demand no single switch can hold is rejected however idle the
    // network is; the error reaches the client with the `capacity:` tag.
    let err = client
        .submit_raw(&format!(
            "NOOP topo=fp:{} mem=150",
            commsched_service::protocol::format_fingerprint(fp)
        ))
        .expect_err("demand exceeds every switch");
    assert!(
        err.to_string().contains("capacity: "),
        "wire error not typed: {err}"
    );
    // A fitting job with a deadline rides through the same grammar.
    let job = client
        .submit_raw(&format!(
            "NOOP topo=fp:{} mem=80 deadline-ms=5000",
            commsched_service::protocol::format_fingerprint(fp)
        ))
        .expect("fitting job admitted");
    assert_eq!(
        client
            .wait(job, std::time::Duration::from_millis(5))
            .expect("wait"),
        "done"
    );
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
