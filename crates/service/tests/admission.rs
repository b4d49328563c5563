//! The daemon has one admission path: `submit` is `submit_batch` of one
//! spec, and an in-memory core runs the durable protocol with nothing
//! to log. These tests hold that to account from outside: the same
//! scripts through both entry points on both kinds of core must yield
//! the same outcomes (and, on durable cores, the same WAL records and
//! the same recovered queue), and backpressure must stay exact under
//! concurrent submitters although the queue lock is not held across the
//! log append.

use commsched_service::{
    JobId, JobSpec, JobState, PersistOptions, ServiceCore, ServiceCoreConfig, SubmitError,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("commsched-admission-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(queue_capacity: usize) -> ServiceCoreConfig {
    ServiceCoreConfig {
        queue_capacity,
        cache_capacity: 2,
        search_seeds: 1,
        search_threads: 1,
        table_threads: 1,
    }
}

fn durable_core(dir: &Path, queue_capacity: usize) -> ServiceCore {
    ServiceCore::recover(config(queue_capacity), PersistOptions::new(dir))
        .expect("recover")
        .0
}

enum Op {
    /// Submit this many NOOPs: one `submit` each, or one `submit_batch`.
    Submit(usize),
    Cancel(JobId),
    Drain,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Submitted(Vec<Result<JobId, SubmitError>>),
    Cancelled(Result<(), String>),
    Drained,
}

struct Scenario {
    name: &'static str,
    queue_capacity: usize,
    ops: Vec<Op>,
    /// The `Submit` outcomes, flattened, as `Ok(id)` / `Err(text)`.
    expect: Vec<Result<JobId, &'static str>>,
    /// Jobs still queued at the end (what a restart must requeue).
    queued: Vec<JobId>,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "queue-full tail",
            queue_capacity: 3,
            ops: vec![Op::Submit(5)],
            expect: vec![Ok(1), Ok(2), Ok(3), Err("queue-full"), Err("queue-full")],
            queued: vec![1, 2, 3],
        },
        Scenario {
            name: "ids unique and ascending across calls",
            queue_capacity: 16,
            ops: vec![Op::Submit(3), Op::Cancel(2), Op::Submit(3)],
            expect: (1..=6).map(Ok).collect(),
            queued: vec![1, 3, 4, 5, 6],
        },
        Scenario {
            name: "shutting-down after drain",
            queue_capacity: 4,
            ops: vec![Op::Submit(1), Op::Cancel(1), Op::Drain, Op::Submit(2)],
            expect: vec![Ok(1), Err("shutting-down"), Err("shutting-down")],
            queued: vec![],
        },
    ]
}

/// Run a scenario's script on `core`. `batched` picks the entry point.
fn run(core: &ServiceCore, scenario: &Scenario, batched: bool) -> Vec<Outcome> {
    scenario
        .ops
        .iter()
        .map(|op| match op {
            Op::Submit(n) => {
                let specs = vec![JobSpec::default(); *n];
                Outcome::Submitted(if batched {
                    core.submit_batch(&specs)
                } else {
                    specs.into_iter().map(|s| core.submit(s)).collect()
                })
            }
            Op::Cancel(id) => Outcome::Cancelled(core.cancel(*id)),
            Op::Drain => {
                core.drain();
                Outcome::Drained
            }
        })
        .collect()
}

fn wal_records(core: &ServiceCore) -> Vec<String> {
    let persist = core.persistence().expect("durable core");
    persist.replay_wal().expect("replay").records
}

#[test]
fn both_entry_points_on_both_core_kinds_admit_identically() {
    for scenario in scenarios() {
        let name = scenario.name;
        let reference = run(
            &ServiceCore::new(config(scenario.queue_capacity)),
            &scenario,
            false,
        );
        // The script's outcome is the documented one...
        let submitted: Vec<Result<JobId, String>> = reference
            .iter()
            .filter_map(|o| match o {
                Outcome::Submitted(results) => Some(results),
                _ => None,
            })
            .flatten()
            .map(|r| r.clone().map_err(|e| e.to_string()))
            .collect();
        assert_eq!(submitted.len(), scenario.expect.len(), "{name}");
        for (got, want) in submitted.iter().zip(&scenario.expect) {
            match (got, want) {
                (Ok(g), Ok(w)) => assert_eq!(g, w, "{name}"),
                (Err(g), Err(w)) => assert!(g.starts_with(w), "{name}: {g} vs {w}"),
                _ => panic!("{name}: got {got:?}, want {want:?}"),
            }
        }
        // ...and the same through `submit_batch` on an in-memory core.
        let in_memory_batched = run(
            &ServiceCore::new(config(scenario.queue_capacity)),
            &scenario,
            true,
        );
        assert_eq!(in_memory_batched, reference, "{name}: in-memory, batched");

        // Durable cores: same outcomes, same log, same recovered queue.
        let mut logs = Vec::new();
        for batched in [false, true] {
            let dir = temp_dir(&format!("{}-{batched}", name.replace(' ', "-")));
            {
                let core = durable_core(&dir, scenario.queue_capacity);
                let got = run(&core, &scenario, batched);
                assert_eq!(got, reference, "{name}: durable, batched={batched}");
                logs.push(wal_records(&core));
                // Dropped without a drain: a crash with the queue full.
            }
            let core = durable_core(&dir, scenario.queue_capacity);
            let issued = scenario.expect.iter().filter(|r| r.is_ok()).count() as JobId;
            for id in 1..=issued {
                let want = if scenario.queued.contains(&id) {
                    JobState::Queued
                } else {
                    JobState::Cancelled
                };
                assert_eq!(
                    core.status(id),
                    Some(want),
                    "{name}: job {id} after restart"
                );
            }
            assert_eq!(core.status(issued + 1), None, "{name}: no invented job");
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
        assert_eq!(
            logs[0], logs[1],
            "{name}: WAL records differ by entry point"
        );
        let accepts = logs[0].iter().filter(|r| r.starts_with("accept ")).count();
        let issued = scenario.expect.iter().filter(|r| r.is_ok()).count();
        assert_eq!(accepts, issued, "{name}: one accept record per issued id");
    }
}

/// Eight submitters race for `CAPACITY` queue slots (no worker drains
/// the queue). Exactly `CAPACITY` submissions may win, with distinct
/// ids — on a durable core too, where the accept records are written
/// between two separate holds of the queue lock.
#[test]
fn concurrent_submitters_get_exactly_the_queue_capacity() {
    const CAPACITY: usize = 5;
    const THREADS: usize = 8;
    let dir = temp_dir("concurrent");
    let cores = [
        ServiceCore::new(config(CAPACITY)),
        durable_core(&dir, CAPACITY),
    ];
    for core in cores {
        let core = Arc::new(core);
        let start = Arc::new(Barrier::new(THREADS));
        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let core = Arc::clone(&core);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    // Half the threads use each entry point.
                    if t % 2 == 0 {
                        (0..2).map(|_| core.submit(JobSpec::default())).collect()
                    } else {
                        core.submit_batch(&[JobSpec::default(); 2])
                    }
                })
            })
            .collect();
        let results: Vec<Result<JobId, SubmitError>> = submitters
            .into_iter()
            .flat_map(|t| t.join().expect("submitter"))
            .collect();
        let mut ids: Vec<JobId> = results.iter().filter_map(|r| r.clone().ok()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=CAPACITY as JobId).collect::<Vec<_>>());
        for r in results.iter().filter(|r| r.is_err()) {
            assert_eq!(r, &Err(SubmitError::QueueFull));
        }
        assert_eq!(core.stats.rejected(), (2 * THREADS - CAPACITY) as u64);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
