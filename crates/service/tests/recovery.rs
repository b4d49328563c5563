//! Crash-recovery property tests: a durable core runs a randomized
//! job/FAULT workload, "crashes" (the process state is simply dropped),
//! the WAL is truncated at arbitrary byte offsets — including
//! mid-record, the residue of a torn write — and a fresh core recovers
//! from the damaged state directory. Whatever the truncation point,
//! recovery must never invent state: every job the recovered core
//! reports as finished must carry the exact pre-crash payload, no
//! finished job may run again, and every restored distance table must
//! be bit-identical to the one the crashed core computed. With the WAL
//! intact, nothing is lost at all.
//!
//! Distance tables live outside the log, one spill file each under
//! `tables/`: the second half of this file damages those files every
//! way a crash or an operator can, and checks that the cost is a
//! rebuild, never an error, and that the directory stays as small as
//! the cache.

use commsched_distance::table_to_text;
use commsched_service::cache::{RoutingSpec, TableSpec};
use commsched_service::persist::state::record_topo;
use commsched_service::persist::tables::{file_name, TABLES_DIR};
use commsched_service::persist::wal::{encode_frame, WalWriter, FRAME_HEADER_BYTES};
use commsched_service::persist::{ReplicationSink, WalTap, SNAPSHOT_FILE, WAL_FILE};
use commsched_service::protocol::format_fingerprint;
use commsched_service::{
    Client, JobKind, JobSpec, JobState, PersistOptions, Server, ServiceCore, ServiceCoreConfig,
    TopoRef,
};
use commsched_topology::FaultEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("commsched-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config() -> ServiceCoreConfig {
    ServiceCoreConfig {
        queue_capacity: 64,
        cache_capacity: 8,
        search_seeds: 1,
        search_threads: 1,
        table_threads: 1,
    }
}

fn durable_core(dir: &Path) -> (Arc<ServiceCore>, commsched_service::RecoveryReport) {
    // A huge auto-snapshot threshold keeps the whole workload in the
    // WAL, so truncation offsets can land inside any record of it.
    let (core, report) = ServiceCore::recover(
        small_config(),
        PersistOptions::new(dir).snapshot_wal_bytes(u64::MAX),
    )
    .expect("recover");
    (Arc::new(core), report)
}

fn drain_with_worker(core: &Arc<ServiceCore>) {
    let worker = {
        let core = Arc::clone(core);
        std::thread::spawn(move || core.worker_loop())
    };
    core.drain();
    worker.join().expect("worker");
}

/// Names of the files under `dir/tables/`, sorted.
fn table_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join(TABLES_DIR))
        .expect("tables dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    names
}

/// The spill-file names of everything `core` has cached, sorted.
fn cached_file_names(core: &ServiceCore) -> Vec<String> {
    let mut names: Vec<String> = core
        .cache
        .ready_entries()
        .into_iter()
        .map(|(key, _)| file_name(key))
        .collect();
    names.sort();
    names
}

/// Everything observable about a finished workload, captured before the
/// simulated crash.
struct GroundTruth {
    /// Final state and `result_lines` outcome per issued job id.
    jobs: HashMap<u64, (JobState, Result<Vec<String>, String>)>,
    /// `table_to_text` of every ready cache entry at crash time.
    tables: HashMap<(u64, RoutingSpec, TableSpec), String>,
    max_id: u64,
}

fn capture(core: &ServiceCore, max_id: u64) -> GroundTruth {
    let mut jobs = HashMap::new();
    for id in 1..=max_id {
        let state = core.status(id).expect("issued job is known");
        jobs.insert(id, (state, core.result_lines(id)));
    }
    let tables = core
        .cache
        .ready_entries()
        .into_iter()
        .map(|(key, value)| (key, table_to_text(&value.table)))
        .collect();
    GroundTruth {
        jobs,
        tables,
        max_id,
    }
}

/// Run a randomized workload (jobs on several topologies, one cancel,
/// one mid-stream FAULT) to completion and crash. Returns the ground
/// truth and the fingerprint the fault retired.
fn run_workload(dir: &Path, seed: u64) -> GroundTruth {
    let mut rng = StdRng::seed_from_u64(seed);
    let (core, report) = durable_core(dir);
    assert_eq!(report.recovered_jobs, 0);
    let (fault_fp, fresh) = core.register_topology(commsched_topology::designed::ring(5, 2));
    assert!(fresh);

    let spec = |rng: &mut StdRng, topo: TopoRef| JobSpec {
        topo,
        routing: if rng.gen_bool(0.5) {
            RoutingSpec::UpDown { root: 0 }
        } else {
            RoutingSpec::ShortestPath
        },
        strategy: commsched_search::MapStrategy::Flat,
        kind: JobKind::Schedule {
            clusters: 2,
            seed: rng.gen_range(0_u64..100),
        },
    };
    let topos = [
        TopoRef::Registered(fault_fp),
        TopoRef::Ring {
            switches: 4,
            hosts: 1,
        },
        TopoRef::Ring {
            switches: 6,
            hosts: 2,
        },
    ];

    let mut max_id = 0;
    let n_jobs = rng.gen_range(5_usize..9);
    for i in 0..n_jobs {
        let topo = topos[rng.gen_range(0_usize..topos.len())];
        max_id = core.submit(spec(&mut rng, topo)).expect("submit");
        if i == 1 {
            // One cancellation, so cancel records replay too.
            core.cancel(max_id).expect("cancel queued job");
        }
        if i == n_jobs / 2 {
            // A mid-stream fault: jobs already queued against the old
            // fingerprint will fail with the typed stale-epoch error —
            // failures are ground truth like any other outcome.
            core.fault(
                TopoRef::Registered(fault_fp),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .expect("fault");
        }
    }
    drain_with_worker(&core);
    capture(&core, max_id)
    // `core` drops here without any shutdown hook: the crash.
}

/// Copy `src`'s snapshot, WAL and table files into a scratch directory,
/// truncating the WAL to `wal_len` bytes.
fn crashed_copy(src: &Path, dst: &Path, wal_len: u64) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst.join(TABLES_DIR))?;
    for name in [SNAPSHOT_FILE, WAL_FILE] {
        if src.join(name).exists() {
            std::fs::copy(src.join(name), dst.join(name))?;
        }
    }
    for name in table_files(src) {
        let name = Path::new(TABLES_DIR).join(name);
        std::fs::copy(src.join(&name), dst.join(&name))?;
    }
    let wal = std::fs::OpenOptions::new()
        .write(true)
        .open(dst.join(WAL_FILE))?;
    wal.set_len(wal_len)?;
    Ok(())
}

/// The invariants every recovery must satisfy, however much of the WAL
/// survived: no invented outcomes, no double runs, bit-exact tables.
fn check_recovery(dir: &Path, truth: &GroundTruth, wal_len: u64) {
    let (core, report) = durable_core(dir);
    let mut requeued = 0;
    for id in 1..=truth.max_id {
        let Some(state) = core.status(id) else {
            // The job's accept record fell past the truncation point;
            // it simply never happened on this timeline.
            continue;
        };
        let (final_state, final_result) = &truth.jobs[&id];
        match state {
            JobState::Queued => {
                requeued += 1;
            }
            JobState::Running => panic!("job {id} recovered as running"),
            terminal => {
                // A terminal state can only come from a durable finish
                // or cancel record, which the crashed core wrote from
                // this exact outcome.
                assert_eq!(terminal, *final_state, "job {id} at wal_len {wal_len}");
                assert_eq!(
                    &core.result_lines(id),
                    final_result,
                    "job {id} payload at wal_len {wal_len}"
                );
            }
        }
    }
    assert_eq!(report.recovered_jobs, requeued);
    assert_eq!(core.stats.recovered() as usize, requeued);
    for (key, value) in core.cache.ready_entries() {
        if let Some(expected) = truth.tables.get(&key) {
            assert_eq!(
                &table_to_text(&value.table),
                expected,
                "table {key:?} at wal_len {wal_len}"
            );
        }
        // A table restores from its spill file whenever the WAL prefix
        // still registers its topology; every file on disk belongs to a
        // crash-time entry, so each restored key has ground truth.
        assert!(truth.tables.contains_key(&key), "invented table {key:?}");
    }
    assert_eq!(report.restored_tables, core.cache.len());
    assert_eq!(table_files(dir), cached_file_names(&core));

    // Re-running the recovered queue executes each requeued job exactly
    // once and leaves every recovered-finished job untouched.
    let done_before: Vec<(u64, Result<Vec<String>, String>)> = (1..=truth.max_id)
        .filter(|id| matches!(core.status(*id), Some(JobState::Done | JobState::Failed)))
        .map(|id| (id, core.result_lines(id)))
        .collect();
    drain_with_worker(&core);
    let ran = core.stats.completed() + core.stats.failed();
    assert_eq!(ran as usize, requeued, "double or lost run at {wal_len}");
    for id in 1..=truth.max_id {
        if let Some(state) = core.status(id) {
            assert!(
                !matches!(state, JobState::Queued | JobState::Running),
                "job {id} still live after drain"
            );
        }
    }
    for (id, before) in done_before {
        assert_eq!(
            core.result_lines(id),
            before,
            "job {id} re-ran at {wal_len}"
        );
    }
}

#[test]
fn truncated_wal_recovery_never_invents_or_repeats_work() {
    let base = temp_dir("prop");
    let scratch = temp_dir("prop-scratch");
    for seed in [11_u64, 47, 2000] {
        let truth = run_workload(&base, seed);
        let wal = std::fs::read(base.join(WAL_FILE)).expect("read wal");
        let wal_len = wal.len() as u64;
        assert!(wal_len > 0, "workload must leave a WAL to damage");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let mut cuts = vec![0, 1, wal_len / 2, wal_len - 1, wal_len];
        for _ in 0..6 {
            cuts.push(rng.gen_range(0..=wal_len));
        }
        for cut in cuts {
            crashed_copy(&base, &scratch, cut).expect("copy state dir");
            check_recovery(&scratch, &truth, cut);
        }

        // With the WAL intact, recovery is lossless: every acked job is
        // present in its exact final state and every crash-time table
        // restores from its spill file.
        crashed_copy(&base, &scratch, wal_len).expect("copy state dir");
        let (core, report) = durable_core(&scratch);
        assert_eq!(report.recovered_jobs, 0, "all jobs finished before crash");
        for id in 1..=truth.max_id {
            let (state, result) = &truth.jobs[&id];
            assert_eq!(core.status(id), Some(*state), "job {id} lost");
            assert_eq!(&core.result_lines(id), result, "job {id} payload");
        }
        let restored: HashMap<(u64, RoutingSpec, TableSpec), String> = core
            .cache
            .ready_entries()
            .into_iter()
            .map(|(key, value)| (key, table_to_text(&value.table)))
            .collect();
        for (key, expected) in &truth.tables {
            assert_eq!(
                restored.get(key),
                Some(expected),
                "table {key:?} not restored bit-exactly"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn snapshot_request_compacts_and_state_survives_server_restart() {
    let dir = temp_dir("wire");

    // Session 1: a served core takes a job, then a SNAPSHOT request
    // compacts the WAL into the snapshot file.
    {
        let (core, _) = durable_core(&dir);
        let handle =
            Server::bind_with_core("127.0.0.1:0", 1, Default::default(), core, None).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let job = client
            .submit_raw("SCHEDULE topo=ring:4:1 clusters=2 seed=7")
            .expect("submit");
        assert_eq!(
            client.wait(job, Duration::from_millis(10)).expect("wait"),
            "done"
        );
        // The job's table goes to its spill file once the job is settled
        // — the client may see `done` first — and both views of the
        // registry say so.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while client.stat_u64("table_spills").expect("stats") != Some(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "the table never spilled"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(client.stat_u64("table_spill_bytes").expect("stats") > Some(0));
        let metrics = client.metrics().expect("metrics");
        assert!(metrics.contains(&"service_table_spills_total 1".to_string()));
        let ack = client.snapshot().expect("snapshot");
        assert!(
            ack.starts_with("snapshot "),
            "unexpected snapshot ack: {ack}"
        );
        assert_eq!(
            client.stat_u64("wal_bytes").expect("stats"),
            Some(0),
            "snapshot must truncate the WAL"
        );
        client.shutdown().expect("shutdown");
        handle.join();
    }

    // Session 2: a fresh server over the same state directory serves the
    // old job's result from recovered state, and a no-persistence server
    // rejects SNAPSHOT with a typed error.
    {
        let (core, report) = durable_core(&dir);
        assert!(report.snapshot_records > 0, "report: {report:?}");
        let handle =
            Server::bind_with_core("127.0.0.1:0", 1, Default::default(), core, None).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        assert_eq!(client.status(1).expect("status"), "done");
        assert_eq!(client.stat_u64("table_restores").expect("stats"), Some(1));
        assert!(client.stat_u64("table_restore_nanos").expect("stats") > Some(0));
        assert_eq!(client.stat_u64("table_spills").expect("stats"), Some(0));
        let metrics = client.metrics().expect("metrics");
        assert!(metrics.contains(&"service_table_restores_total 1".to_string()));
        assert!(metrics.contains(&"service_table_spill_errors_total 0".to_string()));
        let lines = client.result(1).expect("recovered result");
        assert!(
            lines.iter().any(|l| l.starts_with("partition ")),
            "lines: {lines:?}"
        );
        client.shutdown().expect("shutdown");
        handle.join();
    }
    {
        let handle = Server::bind("127.0.0.1:0", Default::default()).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let err = client.snapshot().expect_err("in-memory server");
        assert!(err.to_string().contains("no-persistence"), "error: {err}");
        client.shutdown().expect("shutdown");
        handle.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn schedule_on(fp: u64, clusters: usize, seed: u64) -> JobSpec {
    JobSpec {
        topo: TopoRef::Registered(fp),
        kind: JobKind::Schedule { clusters, seed },
        ..JobSpec::default()
    }
}

/// A crashed state directory with three cached tables (rings of 6, 8
/// and 10 switches), and what the crashed core held.
fn three_table_state(dir: &Path) -> (Vec<u64>, GroundTruth) {
    let (core, _) = durable_core(dir);
    let mut fps = Vec::new();
    let mut max_id = 0;
    for switches in [6, 8, 10] {
        let (fp, _) = core.register_topology(commsched_topology::designed::ring(switches, 1));
        max_id = core.submit(schedule_on(fp, 2, 1)).expect("submit");
        fps.push(fp);
    }
    drain_with_worker(&core);
    let truth = capture(&core, max_id);
    assert_eq!(truth.tables.len(), 3);
    assert_eq!(table_files(dir), cached_file_names(&core));
    assert_eq!(core.stats.table_spills(), 3);
    (fps, truth)
}

#[test]
fn damaged_spill_files_cost_a_rebuild_never_an_error() {
    let base = temp_dir("spill");
    let scratch = temp_dir("spill-scratch");
    let (fps, truth) = three_table_state(&base);
    let wal_len = std::fs::metadata(base.join(WAL_FILE)).expect("wal").len();
    let victim_key = (fps[1], RoutingSpec::UpDown { root: 0 }, TableSpec::Exact);
    let victim = Path::new(TABLES_DIR).join(file_name(victim_key));
    let intact = std::fs::read(base.join(&victim)).expect("victim file");
    let mut rng = StdRng::seed_from_u64(0x5b111);

    // Each case: a file under the copy and its new content (`None`
    // deletes it), how many files recovery must then reject, and whether
    // the victim's table must survive.
    type Case = (&'static str, PathBuf, Option<Vec<u8>>, u64, bool);
    let mut cases: Vec<Case> = Vec::new();
    for _ in 0..4 {
        let cut = rng.gen_range(0..intact.len());
        let bytes = intact[..cut].to_vec();
        cases.push(("truncated", victim.clone(), Some(bytes), 1, false));
    }
    for _ in 0..4 {
        let mut bytes = intact.clone();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0..8_u32);
        cases.push(("flipped bit", victim.clone(), Some(bytes), 1, false));
    }
    cases.push(("deleted", victim.clone(), None, 0, false));
    let half = intact[..intact.len() / 2].to_vec();
    let tmp = victim.with_extension("tbl.tmp");
    cases.push(("stray tmp", tmp, Some(half), 0, true));
    {
        // A well-formed table filed under a fingerprint nobody registered:
        // the victim's payload with the fingerprint of its head line (the
        // only text in it) replaced.
        let orphan_key = (0xdead_beef_u64, victim_key.1, victim_key.2);
        let payload = &intact[FRAME_HEADER_BYTES as usize..];
        let head = format!("cache {} ", format_fingerprint(victim_key.0));
        assert!(payload.starts_with(head.as_bytes()));
        let mut record = format!("cache {} ", format_fingerprint(orphan_key.0)).into_bytes();
        record.extend_from_slice(&payload[head.len()..]);
        let mut frame = Vec::new();
        encode_frame(&mut frame, &record).unwrap();
        let orphan = Path::new(TABLES_DIR).join(file_name(orphan_key));
        cases.push(("unregistered fingerprint", orphan, Some(frame), 1, true));
    }

    {
        // The victim's file as a daemon from before the binary format
        // wrote it: the same head line, the table as text.
        let text = &truth.tables[&victim_key];
        let record = format!(
            "cache {} {} {}\n{text}",
            format_fingerprint(victim_key.0),
            victim_key.1,
            victim_key.2
        );
        let mut frame = Vec::new();
        encode_frame(&mut frame, record.as_bytes()).unwrap();
        cases.push(("text-era file", victim.clone(), Some(frame), 1, false));
    }

    for (what, file, content, rejected, victim_survives) in cases {
        crashed_copy(&base, &scratch, wal_len).expect("copy state dir");
        match content {
            Some(bytes) => std::fs::write(scratch.join(&file), bytes).expect("damage file"),
            None => std::fs::remove_file(scratch.join(&file)).expect("delete file"),
        }
        let (core, report) = durable_core(&scratch);
        let restored: HashMap<_, _> = core
            .cache
            .ready_entries()
            .into_iter()
            .map(|(key, value)| (key, table_to_text(&value.table)))
            .collect();
        assert_eq!(
            restored.contains_key(&victim_key),
            victim_survives,
            "{what}"
        );
        for (key, text) in &restored {
            assert_eq!(
                Some(text),
                truth.tables.get(key),
                "{what}: {key:?} not bit-exact"
            );
        }
        let expected = if victim_survives { 3 } else { 2 };
        assert_eq!(report.restored_tables, expected, "{what}: {report:?}");
        assert_eq!(core.stats.table_restores(), expected as u64, "{what}");
        assert_eq!(core.stats.table_spill_errors(), rejected, "{what}");
        // Whatever was wrong with the directory is gone after recovery.
        assert_eq!(table_files(&scratch), cached_file_names(&core), "{what}");

        // The lost table rebuilds on first use (exactly one miss), bit
        // for bit, and gets its file back.
        core.submit(schedule_on(victim_key.0, 2, 9))
            .expect("submit");
        drain_with_worker(&core);
        assert_eq!(core.stats.completed(), 1, "{what}");
        assert_eq!(core.cache.misses(), u64::from(!victim_survives), "{what}");
        let rebuilt = core
            .cache
            .ready_entries()
            .into_iter()
            .find(|(key, _)| *key == victim_key)
            .expect("victim cached after its job");
        assert_eq!(
            table_to_text(&rebuilt.1.table),
            truth.tables[&victim_key],
            "{what}"
        );
        assert_eq!(table_files(&scratch).len(), 3, "{what}");
        assert_eq!(
            std::fs::read(scratch.join(&victim)).unwrap(),
            intact,
            "{what}"
        );
    }

    // Restored tables are the crashed core's, bit for bit, so a fault
    // after the restart repairs incrementally instead of rebuilding.
    crashed_copy(&base, &scratch, wal_len).expect("copy state dir");
    let (core, _) = durable_core(&scratch);
    let lines = core
        .fault(
            TopoRef::Registered(victim_key.0),
            &FaultEvent::LinkDown { a: 0, b: 1 },
        )
        .expect("fault");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("repair updown:0 pairs ")),
        "post-restart fault must take the repair path: {lines:?}"
    );
    assert_eq!(core.cache.misses(), 1, "the repair is the only build");
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn spill_directory_never_outgrows_the_cache() {
    let dir = temp_dir("bounded");
    let cap = 4;
    let (core, _) = ServiceCore::recover(
        ServiceCoreConfig {
            cache_capacity: cap,
            ..small_config()
        },
        PersistOptions::new(&dir),
    )
    .expect("recover");
    let core = Arc::new(core);
    // 3 x cap cold builds, raced by two workers.
    for k in 0..3 * cap {
        let ring = TopoRef::Ring {
            switches: 4 + 2 * k,
            hosts: 1,
        };
        core.submit(JobSpec {
            topo: ring,
            kind: JobKind::Schedule {
                clusters: 2,
                seed: 1,
            },
            ..JobSpec::default()
        })
        .expect("submit");
    }
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        })
        .collect();
    // Quiescent once every job is done; then fault a cached topology.
    while core.stats.completed() < 3 * cap as u64 {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(core.cache.misses(), 3 * cap as u64);
    let (stale_fp, ..) = core.cache.ready_entries()[0].0;
    core.fault(
        TopoRef::Registered(stale_fp),
        &FaultEvent::LinkDown { a: 0, b: 1 },
    )
    .expect("fault");
    core.drain();
    for w in workers {
        w.join().expect("worker");
    }

    let files = table_files(&dir);
    assert_eq!(files, cached_file_names(&core), "directory != cache");
    assert_eq!(files.len(), cap);
    assert!(
        files.iter().all(|f| f.ends_with(".tbl")),
        "files: {files:?}"
    );
    let stale = format_fingerprint(stale_fp);
    assert!(
        !files.iter().any(|f| f.starts_with(&stale)),
        "stale {stale} still has a file: {files:?}"
    );
    assert_eq!(core.stats.table_spill_errors(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replication sink that looks at the spill store at the instant each
/// `finish` record is logged (it is called under the WAL lock, inside
/// `settle`): `(job id, table_spills, files under tables/)`.
struct SpillProbe {
    dir: PathBuf,
    core: std::sync::OnceLock<std::sync::Weak<ServiceCore>>,
    at_finish: Mutex<Vec<(u64, u64, usize)>>,
}

impl WalTap for SpillProbe {
    fn record(&self, payload: &[u8]) {
        let text = std::str::from_utf8(payload).expect("utf-8 record");
        let Some(rest) = text.strip_prefix("finish ") else {
            return;
        };
        let id = rest.split_whitespace().next().unwrap().parse().unwrap();
        let core = self.core.get().and_then(std::sync::Weak::upgrade).unwrap();
        let seen = (id, core.stats.table_spills(), table_files(&self.dir).len());
        self.at_finish.lock().unwrap().push(seen);
    }
}

impl ReplicationSink for SpillProbe {
    fn barrier(&self) {}
}

/// A durable core whose `finish` records are watched by a [`SpillProbe`].
fn probed_core(dir: &Path) -> (Arc<ServiceCore>, Arc<SpillProbe>) {
    let (core, _) = durable_core(dir);
    let probe = Arc::new(SpillProbe {
        dir: dir.to_path_buf(),
        core: std::sync::OnceLock::new(),
        at_finish: Mutex::new(Vec::new()),
    });
    probe.core.set(Arc::downgrade(&core)).unwrap();
    core.set_replication(Arc::clone(&probe) as Arc<dyn ReplicationSink>)
        .expect("set replication");
    (core, probe)
}

#[test]
fn a_cold_job_is_finished_before_its_table_is_spilled() {
    let dir = temp_dir("spill-order");
    let (core, probe) = probed_core(&dir);
    let (fp, _) = core.register_topology(commsched_topology::designed::ring(6, 1));
    // One worker, three jobs in order: cold, warm on the same table, and
    // one that fails *after* building a table of its own (a 5-ring has
    // no three equal clusters).
    let cold = core.submit(schedule_on(fp, 2, 1)).expect("submit");
    let warm = core.submit(schedule_on(fp, 2, 2)).expect("submit");
    let (odd_fp, _) = core.register_topology(commsched_topology::designed::ring(5, 1));
    let failing = core.submit(schedule_on(odd_fp, 3, 1)).expect("submit");
    drain_with_worker(&core);
    assert_eq!(core.status(cold), Some(JobState::Done));
    assert_eq!(core.status(warm), Some(JobState::Done));
    assert_eq!(core.status(failing), Some(JobState::Failed));
    assert_eq!(core.cache.misses(), 2);

    // When the cold job's outcome was logged nothing had been spilled;
    // its one spill ran before the next job started; the warm job
    // spilled nothing; the failing job's table was still unspilled when
    // its failure was logged, and has its file now.
    assert_eq!(
        *probe.at_finish.lock().unwrap(),
        vec![(cold, 0, 0), (warm, 1, 1), (failing, 1, 1)]
    );
    assert_eq!(core.stats.table_spills(), 2);
    assert_eq!(core.stats.table_spill_errors(), 0);
    assert_eq!(table_files(&dir), cached_file_names(&core));
    assert_eq!(table_files(&dir).len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_workers_building_two_tables_leave_the_directory_equal_to_the_cache() {
    let dir = temp_dir("spill-two");
    let (core, probe) = probed_core(&dir);
    for switches in [6, 8] {
        let (fp, _) = core.register_topology(commsched_topology::designed::ring(switches, 1));
        core.submit(schedule_on(fp, 2, 1)).expect("submit");
    }
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        })
        .collect();
    core.drain();
    for w in workers {
        w.join().expect("worker");
    }
    // Whichever worker took whichever spill: a table is written once,
    // never before some job's outcome was logged, and both are there
    // once both workers are parked for good.
    assert_eq!(core.stats.completed(), 2);
    assert_eq!(core.stats.table_spills(), 2);
    assert_eq!(core.stats.table_spill_errors(), 0);
    assert_eq!(table_files(&dir), cached_file_names(&core));
    assert_eq!(table_files(&dir).len(), 2);
    let at_finish = probe.at_finish.lock().unwrap();
    assert_eq!(at_finish.len(), 2);
    assert_eq!(
        (at_finish[0].1, at_finish[0].2),
        (0, 0),
        "a spill ran before any job had finished"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Collects every record a replication sink is handed.
#[derive(Default)]
struct Recorder(Mutex<Vec<String>>);

impl WalTap for Recorder {
    fn record(&self, payload: &[u8]) {
        let text = String::from_utf8(payload.to_vec()).expect("utf-8 record");
        self.0.lock().unwrap().push(text);
    }
}

impl ReplicationSink for Recorder {
    fn barrier(&self) {}
}

#[test]
fn snapshots_and_the_replication_stream_carry_no_table_bodies() {
    let dir = temp_dir("small-snapshot");
    let (core, _) = durable_core(&dir);
    // Eight N=128 tables: 1.7 MB of table text that used to ride in
    // every snapshot.
    for seed in 0..8_u64 {
        let topo = commsched_topology::random_regular(
            commsched_topology::RandomTopologyConfig::paper(128),
            &mut StdRng::seed_from_u64(seed),
        )
        .expect("random topology");
        let (fp, _) = core.register_topology(topo);
        let id = core
            .submit(JobSpec {
                strategy: commsched_search::MapStrategy::Multilevel,
                ..schedule_on(fp, 8, seed)
            })
            .expect("submit");
        assert!(id > 0);
    }
    drain_with_worker(&core);
    assert_eq!(core.stats.completed(), 8);
    assert_eq!(core.cache.len(), 8);
    assert_eq!(table_files(&dir).len(), 8);

    // The replication seed is exactly `snapshot_records()`, and the
    // tap then sees every appended record.
    let sink = Arc::new(Recorder::default());
    core.set_replication(Arc::clone(&sink) as Arc<dyn ReplicationSink>)
        .expect("set replication");
    let bytes = core.snapshot_now().expect("snapshot");
    assert!(bytes < 64 * 1024, "snapshot image is {bytes} bytes");
    let on_disk = core
        .persistence()
        .expect("durable core")
        .load_snapshot()
        .expect("load snapshot")
        .expect("snapshot exists");
    let seeded = sink.0.lock().unwrap().clone();
    assert!(seeded.iter().any(|r| r.starts_with("topo")));
    for record in seeded.iter().chain(&on_disk) {
        assert!(!record.starts_with("cache"), "table body in a log record");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_in_log_cache_records_are_skipped_and_rebuilt() {
    let dir = temp_dir("legacy");
    // A state directory as a daemon from before the spill store left it:
    // the table rides in the WAL as text, and there is no tables/
    // directory at all.
    let topo = commsched_topology::designed::ring(6, 1);
    let fp = topo.fingerprint();
    let routing = commsched_routing::UpDownRouting::new(&topo, 0).expect("routing");
    let table = commsched_distance::equivalent_distance_table(&topo, &routing).expect("table");
    let key = (fp, RoutingSpec::UpDown { root: 0 }, TableSpec::Exact);
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut wal = WalWriter::open(&dir.join(WAL_FILE)).expect("open wal");
        wal.append(record_topo(&topo).as_bytes(), true).unwrap();
        let record = format!(
            "cache {} updown:0 exact\n{}",
            format_fingerprint(fp),
            table_to_text(&table)
        );
        wal.append(record.as_bytes(), false).unwrap();
    }
    // The start succeeds; the record is derived state nobody reads.
    let (core, report) = durable_core(&dir);
    assert_eq!(report.wal_records, 2, "report: {report:?}");
    assert_eq!(report.recovered_topologies, 1, "report: {report:?}");
    assert_eq!(report.restored_tables, 0, "report: {report:?}");
    assert_eq!(core.stats.table_spill_errors(), 1);
    assert_eq!(core.cache.len(), 0);
    assert!(table_files(&dir).is_empty());
    let snapshot = core
        .persistence()
        .expect("durable core")
        .load_snapshot()
        .expect("load snapshot")
        .expect("post-recovery snapshot");
    assert!(!snapshot.iter().any(|r| r.starts_with("cache")));

    // The first job that needs the table rebuilds it — one miss, the
    // same bits — and the store gets its file.
    core.submit(schedule_on(fp, 2, 1)).expect("submit");
    drain_with_worker(&core);
    assert_eq!(core.stats.completed(), 1);
    assert_eq!(core.cache.misses(), 1);
    let (_, rebuilt) = &core.cache.ready_entries()[0];
    assert_eq!(table_to_text(&rebuilt.table), table_to_text(&table));
    assert_eq!(table_files(&dir), vec![file_name(key)]);
    drop(core);

    // The next start restores those bits from the file alone.
    let (core, report) = durable_core(&dir);
    assert_eq!(report.restored_tables, 1, "report: {report:?}");
    assert_eq!(core.stats.table_spill_errors(), 0);
    assert_eq!(
        core.stats.table_spills(),
        0,
        "an intact file is not rewritten"
    );
    let (_, restored) = &core.cache.ready_entries()[0];
    assert_eq!(table_to_text(&restored.table), table_to_text(&table));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn logged_retired_keys_recover_onto_the_same_job() {
    let dir = temp_dir("retired-keys");
    std::fs::create_dir_all(&dir).unwrap();
    // How older daemons logged a job: one that still built approximate
    // tables, and one that admitted by deadline and switch memory.
    {
        let mut wal = WalWriter::open(&dir.join(WAL_FILE)).expect("open wal");
        for (id, keys) in [(1, "approx-eps=0.05"), (2, "deadline-ms=60000 mem=1")] {
            let accept = format!(
                "accept {id} SCHEDULE topo=ring:8:1 routing=updown:0 strategy=flat \
                 {keys} clusters=2 seed=1"
            );
            wal.append(accept.as_bytes(), true).unwrap();
        }
    }
    let (core, report) = durable_core(&dir);
    assert_eq!(report.recovered_jobs, 2, "report: {report:?}");
    let plain = core
        .submit(JobSpec {
            topo: TopoRef::Ring {
                switches: 8,
                hosts: 1,
            },
            kind: JobKind::Schedule {
                clusters: 2,
                seed: 1,
            },
            ..JobSpec::default()
        })
        .expect("submit");
    drain_with_worker(&core);
    let result = |id| core.result_lines(id).expect("done");
    let fg = |lines: Vec<String>| lines.into_iter().find(|l| l.starts_with("fg "));
    for id in [1, 2] {
        assert!(fg(result(id)).is_some());
        assert_eq!(fg(result(id)), fg(result(plain)));
        assert_eq!(result(id), result(plain));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A network with switch memory capacities, as a daemon's log holds it
/// (the text after `topo\n`), and the fingerprint it registers under.
/// Both were recorded when the scenario engine, the capacities' last
/// reader, was deleted: dropping the capacities from `Topology` would
/// change this fingerprint, and the log below must still replay.
const CAPACITATED_TOPO: &str = "\
# commsched topology v1
switches 6
hosts_per_switch 1
link 0 1
link 1 2
link 2 3
link 3 4
link 4 5
link 0 5
mem_per_switch 4096
";
const CAPACITATED_FP: &str = "68c974ff935e7497";

#[test]
fn a_capacitated_networks_queued_job_recovers_under_its_fingerprint() {
    let dir = temp_dir("capacities");
    // Session 1: register the network, queue a SCHEDULE by fingerprint,
    // and crash with the job still queued.
    {
        let (core, _) = durable_core(&dir);
        let topo = commsched_topology::from_text(CAPACITATED_TOPO).expect("parse");
        let (fp, fresh) = core.register_topology(topo);
        assert!(fresh);
        assert_eq!(format_fingerprint(fp), CAPACITATED_FP);
        assert_eq!(core.submit(schedule_on(fp, 2, 1)), Ok(1));
        assert_eq!(core.status(1), Some(JobState::Queued));
    }
    // Session 2: the restart registers the network under the same
    // fingerprint and runs the job it had queued.
    let (core, report) = durable_core(&dir);
    assert_eq!(report.recovered_topologies, 1, "report: {report:?}");
    assert_eq!(report.recovered_jobs, 1, "report: {report:?}");
    drain_with_worker(&core);
    assert_eq!(core.status(1), Some(JobState::Done));
    let lines = core.result_lines(1).expect("done");
    assert!(
        lines.iter().any(|l| l.starts_with("partition ")),
        "lines: {lines:?}"
    );
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);

    // The same log written byte for byte, as an older daemon left it.
    std::fs::create_dir_all(&dir).unwrap();
    {
        let mut wal = WalWriter::open(&dir.join(WAL_FILE)).expect("open wal");
        let topo = format!("topo\n{CAPACITATED_TOPO}");
        wal.append(topo.as_bytes(), true).unwrap();
        let accept = format!(
            "accept 1 SCHEDULE topo=fp:{CAPACITATED_FP} routing=updown:0 strategy=flat \
             clusters=2 seed=1"
        );
        wal.append(accept.as_bytes(), true).unwrap();
    }
    let (core, report) = durable_core(&dir);
    assert_eq!(report.recovered_jobs, 1, "report: {report:?}");
    drain_with_worker(&core);
    assert_eq!(core.result_lines(1), Ok(lines));
    let _ = std::fs::remove_dir_all(&dir);
}
