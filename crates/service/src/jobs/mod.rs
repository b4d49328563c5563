//! The job queue, worker pool, and job execution pipeline.
//!
//! [`ServiceCore`] is the daemon's brain, independent of any socket:
//! a bounded FIFO of jobs, a pool of worker threads, the topology
//! registry, the distance-table cache, and the stats block. The TCP
//! layer ([`crate::server`]) is a thin translator on top, which keeps
//! everything here directly unit-testable.
//!
//! This file holds the core's types and the plumbing every part
//! shares (construction, the WAL critical section, snapshots,
//! replication, reports); its behaviour lives in one module per seam:
//! `queue` (admission, cancel, drain, the worker loop), `epochs`
//! (topology resolution and `FAULT`), `recovery` (startup replay and
//! snapshot records) and `execute` (table building and the job body).

mod epochs;
mod execute;
mod queue;
mod recovery;

use crate::cache::DistanceCache;
use crate::persist::{wal::WalWriter, Persistence, ReplicationSink, WalTap};
use crate::protocol::JobSpec;
use crate::registry::TopologyRegistry;
use crate::stats::ServiceStats;
use epochs::EpochState;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Identifier of a submitted job (issued sequentially from 1).
pub type JobId = u64;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the result payload is available.
    Done,
    /// Finished with an error.
    Failed,
    /// Removed from the queue before a worker picked it up.
    Cancelled,
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        })
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (backpressure; retry later).
    QueueFull,
    /// The service is draining and accepts no new work.
    ShuttingDown,
    /// The accept record could not be durably logged; the job was not
    /// enqueued (the acknowledgement would have been a lie).
    Persist(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("queue-full"),
            SubmitError::ShuttingDown => f.write_str("shutting-down"),
            SubmitError::Persist(e) => write!(f, "persist: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    /// Payload lines for `RESULT` once `Done`.
    result: Vec<String>,
    /// Error message once `Failed`.
    error: String,
    submitted_at: Instant,
}

struct QueueState {
    pending: VecDeque<JobId>,
    jobs: HashMap<JobId, JobRecord>,
    next_id: JobId,
    accepting: bool,
    running: usize,
    /// Ids handed out by a submission whose accept records are still
    /// being written (the queue lock is not held across the I/O).
    /// Counted against capacity so backpressure stays exact.
    reserved: usize,
}

/// Sizing knobs of a [`ServiceCore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCoreConfig {
    /// Maximum queued (not yet running) jobs before submissions bounce.
    pub queue_capacity: usize,
    /// Distance-table cache entries kept (LRU beyond this).
    pub cache_capacity: usize,
    /// Independent tabu restarts per schedule job.
    pub search_seeds: usize,
    /// Threads used *within* one job's search, at one pool level
    /// ([`commsched_search::MapPlan::threads`]), and shared by a SWEEP
    /// job's simulations with the other running jobs
    /// ([`commsched_netsim::SweepConfig::threads`]: this ÷ jobs running
    /// when the sweep starts, at least 1); results do not depend on it.
    /// Defaults to the CPU count, as `table_threads` does.
    pub search_threads: usize,
    /// Threads used to build one distance table.
    pub table_threads: usize,
}

impl Default for ServiceCoreConfig {
    fn default() -> Self {
        let cpus = commsched_search::resolve_threads(0);
        Self {
            queue_capacity: 16,
            cache_capacity: 8,
            search_seeds: 4,
            search_threads: cpus,
            table_threads: cpus,
        }
    }
}

/// The log half of one [`ServiceCore::logged`] state change: the WAL
/// writer of a durable core (its lock is held), nothing on an
/// in-memory core.
struct Log<'a> {
    wal: Option<&'a mut WalWriter>,
    sync: bool,
}

impl Log<'_> {
    /// Append `records` with one `write(2)` and one policy fsync. On
    /// error none of them counts as logged. Always `Ok` without a WAL.
    fn append(&mut self, records: &[String]) -> std::io::Result<()> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        wal.append_all(records.iter().map(String::as_bytes), self.sync)?;
        Ok(())
    }
}

/// The socket-independent daemon core: registry + cache + queue + stats.
pub struct ServiceCore {
    /// Uploaded topologies, deduped by fingerprint.
    pub registry: TopologyRegistry,
    /// Routing/distance-table cache.
    pub cache: DistanceCache,
    /// Lifetime counters and latency histograms.
    pub stats: ServiceStats,
    config: ServiceCoreConfig,
    state: Mutex<QueueState>,
    /// Stale-fingerprint chains and per-fingerprint epoch indices.
    epochs: Mutex<EpochState>,
    /// Signals workers that work arrived or draining began.
    work_cv: Condvar,
    /// Signals drainers that a job left the queue/worker.
    done_cv: Condvar,
    /// Durable state (WAL + snapshots), absent for in-memory-only cores.
    persist: Option<Persistence>,
    /// A job built a table that has no spill file yet. Set by the
    /// worker that built it, taken by the next worker to settle a job
    /// (see [`Self::spill_if_due`]).
    spill_due: AtomicBool,
    /// Replication sink (cluster primaries): observes every WAL record
    /// via the tap and gates acknowledgements at [`Self::repl_barrier`].
    repl: OnceLock<Arc<dyn ReplicationSink>>,
}

impl ServiceCore {
    /// A fresh, in-memory-only core with the given sizing. State dies
    /// with the process; use [`Self::recover`] for a durable core.
    pub fn new(config: ServiceCoreConfig) -> Self {
        Self::with_persistence(config, None)
    }

    fn with_persistence(config: ServiceCoreConfig, persist: Option<Persistence>) -> Self {
        Self {
            registry: TopologyRegistry::new(),
            cache: DistanceCache::new(config.cache_capacity),
            stats: ServiceStats::new(),
            config,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                jobs: HashMap::new(),
                next_id: 1,
                accepting: true,
                running: 0,
                reserved: 0,
            }),
            epochs: Mutex::new(EpochState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            persist,
            spill_due: AtomicBool::new(false),
            repl: OnceLock::new(),
        }
    }

    /// Install the replication sink of a cluster primary. The sink is
    /// seeded with the full current durable state (as snapshot-style
    /// records) and installed as the WAL tap inside ONE WAL critical
    /// section, so no record can slip between the seed and the live
    /// stream. From then on every ack point waits on
    /// [`ReplicationSink::barrier`] before returning — acked means
    /// replicated, at whatever strictness the sink's policy implements.
    ///
    /// # Errors
    /// `replication requires a durable core` for in-memory cores;
    /// `replication already configured` on a second call.
    pub fn set_replication(&self, sink: Arc<dyn ReplicationSink>) -> Result<(), String> {
        let Some(p) = &self.persist else {
            return Err("replication requires a durable core".into());
        };
        p.with_wal(|wal| {
            for record in self.snapshot_records() {
                sink.record(record.as_bytes());
            }
            wal.set_tap(Arc::clone(&sink) as Arc<dyn WalTap>);
        });
        self.repl
            .set(sink)
            .map_err(|_| "replication already configured".to_string())
    }

    /// Block until the installed replication sink (if any) has
    /// replicated everything published so far. Called at ack points,
    /// never while holding the WAL or a state lock.
    fn repl_barrier(&self) {
        if let Some(sink) = self.repl.get() {
            sink.barrier();
        }
    }

    /// The installed replication sink's `STATS` lines (empty when this
    /// core does not replicate).
    pub fn replication_stats_lines(&self) -> Vec<String> {
        self.repl.get().map(|s| s.stats_lines()).unwrap_or_default()
    }

    /// The sizing this core was built with.
    pub fn config(&self) -> &ServiceCoreConfig {
        &self.config
    }

    /// The persistence layer, when this core is durable.
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.as_ref()
    }

    /// Run a state change and log the records that mirror it in ONE
    /// WAL critical section: a snapshot holds the same lock across
    /// capture and truncation, so it sees both halves of the change or
    /// neither. `f` may take core state locks (the global order is
    /// WAL-before-state) but must not hold the queue lock across an
    /// append. On an in-memory core there is no log: `f` runs with a
    /// [`Log`] whose appends write nothing, so every caller has one
    /// body for both kinds of core. Every record this module logs backs
    /// an acknowledgement, hence the `ack` fsync class.
    fn logged<R>(&self, f: impl FnOnce(&mut Log<'_>) -> R) -> R {
        let Some(p) = &self.persist else {
            return f(&mut Log {
                wal: None,
                sync: false,
            });
        };
        let sync = p.should_sync(true);
        let (out, wal_bytes) = p.with_wal(|wal| {
            let out = f(&mut Log {
                wal: Some(&mut *wal),
                sync,
            });
            (out, wal.bytes())
        });
        self.stats.set_wal_bytes(wal_bytes);
        out
    }

    /// Make `<state-dir>/tables/` equal to the cache: a file for every
    /// cached table, none for an evicted or invalidated one. Takes no
    /// WAL lock and runs under the fsync class of unacknowledged
    /// records: a lost spill costs a rebuild after the next restart.
    /// `FAULT` and recovery call it where they change the cache; a job
    /// that builds a table leaves it to [`Self::spill_if_due`]. With
    /// [`Self::logged`] this is one of the two write paths to the state
    /// directory.
    fn spill_tables(&self) {
        let Some(p) = &self.persist else { return };
        let done = p.tables().sync(&self.cache, p.should_sync(false));
        self.stats
            .note_table_spill(done.spilled, done.bytes, done.errors, done.nanos);
    }

    /// Note that a job built a table: the next [`Self::spill_if_due`]
    /// writes its file.
    fn note_table_built(&self) {
        // Release, paired with the Acquire in `spill_if_due`: whoever
        // takes the flag locks the cache after this builder's insert.
        self.spill_due.store(true, Ordering::Release);
    }

    /// Spill if a table was built since the last spill. A worker calls
    /// this once its job is settled, with no lock held: a table's file
    /// is derived state under the `ack = false` fsync class, so the
    /// client has its `RESULT` before the file exists, and `tables/`
    /// lags the cache by the spills in flight. Every worker passes here
    /// after every job, the one that built included, so the directory
    /// equals the cache whenever the workers are idle or joined.
    fn spill_if_due(&self) {
        if self.spill_due.swap(false, Ordering::AcqRel) {
            self.spill_tables();
        }
    }

    /// Write a compacting snapshot now and truncate the WAL. The
    /// `SNAPSHOT` wire request lands here. Returns the snapshot size in
    /// bytes.
    ///
    /// # Errors
    /// `no-persistence` for in-memory cores, otherwise the I/O failure.
    pub fn snapshot_now(&self) -> Result<u64, String> {
        let Some(p) = &self.persist else {
            return Err("no-persistence".into());
        };
        self.write_snapshot(p).map_err(|e| e.to_string())
    }

    fn write_snapshot(&self, p: &Persistence) -> std::io::Result<u64> {
        let started = Instant::now();
        let bytes = p.snapshot_with(|| self.snapshot_records())?;
        self.stats
            .set_snapshot_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.stats.set_wal_bytes(p.wal_bytes());
        Ok(bytes)
    }

    /// Take a compacting snapshot when the WAL has outgrown its
    /// threshold. The CAS slot keeps concurrent workers from stampeding;
    /// the snapshot itself serializes on the WAL lock. Call only with no
    /// locks held.
    fn maybe_snapshot(&self) {
        let Some(p) = &self.persist else { return };
        if !p.wants_snapshot() || !p.try_begin_auto_snapshot() {
            return;
        }
        let _ = self.write_snapshot(p);
        p.end_auto_snapshot();
    }

    /// `key value` lines for `STATS`: queue gauges, cache and registry
    /// counters, then the [`ServiceStats`] block.
    pub fn stats_lines(&self) -> Vec<String> {
        let (queued, running) = {
            let state = self.state.lock().expect("queue lock");
            (state.pending.len(), state.running)
        };
        let mut out = vec![
            format!("jobs_queued {queued}"),
            format!("jobs_running {running}"),
            format!("cache_hits {}", self.cache.hits()),
            format!("cache_misses {}", self.cache.misses()),
            format!("cache_entries {}", self.cache.len()),
            format!(
                "cache_build_ms_total {:.3}",
                self.cache.build_nanos_total() as f64 / 1e6
            ),
            format!(
                "cache_build_ms_last {:.3}",
                self.cache.build_nanos_last() as f64 / 1e6
            ),
            format!("topologies {}", self.registry.len()),
        ];
        out.extend(self.stats.report_lines());
        out.extend(self.replication_stats_lines());
        out
    }

    /// The full Prometheus-format metrics dump served by `METRICS`:
    /// the process-global registry (distance builds, tabu search,
    /// netsim, pool), this core's [`ServiceStats`] registry, and the
    /// queue/cache/registry gauges the core owns directly.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let (queued, running) = {
            let state = self.state.lock().expect("queue lock");
            (state.pending.len(), state.running)
        };
        let mut out = commsched_telemetry::global().render_prometheus();
        out.push_str(&self.stats.registry().render_prometheus());
        let gauges: [(&str, &str, f64); 7] = [
            (
                "service_jobs_queued",
                "Jobs waiting for a worker",
                queued as f64,
            ),
            (
                "service_jobs_running",
                "Jobs currently executing",
                running as f64,
            ),
            (
                "service_cache_entries",
                "Distance tables resident in the cache",
                self.cache.len() as f64,
            ),
            (
                "service_cache_build_ms_last",
                "Milliseconds the most recent cache build took",
                self.cache.build_nanos_last() as f64 / 1e6,
            ),
            (
                "service_topologies",
                "Topologies in the registry",
                self.registry.len() as f64,
            ),
            (
                "service_cache_hits_total",
                "Distance-cache lookups served from memory",
                self.cache.hits() as f64,
            ),
            (
                "service_cache_misses_total",
                "Distance-cache lookups that built a table",
                self.cache.misses() as f64,
            ),
        ];
        for (name, help, value) in gauges {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            writeln!(out, "# HELP {name} {help}").expect("write to string");
            writeln!(out, "# TYPE {name} {kind}").expect("write to string");
            if value.fract() == 0.0 {
                writeln!(out, "{name} {value:.0}").expect("write to string");
            } else {
                writeln!(out, "{name} {value:.3}").expect("write to string");
            }
        }
        writeln!(
            out,
            "# HELP service_cache_build_ms_total Milliseconds spent building cached tables\n# TYPE service_cache_build_ms_total counter\nservice_cache_build_ms_total {:.3}",
            self.cache.build_nanos_total() as f64 / 1e6
        )
        .expect("write to string");
        out
    }
}

/// Fixtures shared by the unit tests of this module's parts.
#[cfg(test)]
mod testkit {
    use super::{ServiceCore, ServiceCoreConfig};
    use crate::cache::RoutingSpec;
    use crate::persist::{PersistOptions, RecoveryReport};
    use crate::protocol::{JobKind, JobSpec, TopoRef};
    use commsched_search::MapStrategy;
    use std::sync::Arc;

    pub fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            topo: TopoRef::Ring {
                switches: 4,
                hosts: 1,
            },
            routing: RoutingSpec::UpDown { root: 0 },
            strategy: MapStrategy::Flat,
            kind: JobKind::Schedule { clusters: 2, seed },
        }
    }

    pub fn small_config(queue_capacity: usize) -> ServiceCoreConfig {
        ServiceCoreConfig {
            queue_capacity,
            cache_capacity: 4,
            search_seeds: 2,
            search_threads: 1,
            table_threads: 1,
        }
    }

    pub fn small_core(queue_capacity: usize) -> Arc<ServiceCore> {
        Arc::new(ServiceCore::new(small_config(queue_capacity)))
    }

    pub fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("commsched-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub fn durable_core(
        dir: &std::path::Path,
        queue_capacity: usize,
    ) -> (Arc<ServiceCore>, RecoveryReport) {
        let (core, report) =
            ServiceCore::recover(small_config(queue_capacity), PersistOptions::new(dir)).unwrap();
        (Arc::new(core), report)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::{small_core, tiny_spec};
    use std::sync::Arc;

    #[test]
    fn stats_lines_cover_queue_and_cache() {
        let core = small_core(4);
        let joined = core.stats_lines().join("\n");
        for key in [
            "jobs_queued",
            "jobs_running",
            "cache_hits",
            "cache_misses",
            "cache_build_ms_total",
            "cache_build_ms_last",
            "topologies",
            "jobs_submitted",
            "jobs_panicked",
        ] {
            assert!(joined.contains(key), "missing {key}");
        }
    }

    #[test]
    fn metrics_text_renders_all_registries() {
        let core = small_core(4);
        core.submit(tiny_spec(3)).unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        let text = core.metrics_text();
        // Per-core registry (job lifecycle).
        assert!(text.contains("service_jobs_submitted_total 1"));
        assert!(text.contains("service_jobs_completed_total 1"));
        assert!(text.contains("service_job_run_ms_count 1"));
        // Core-owned gauges and cache counters.
        for name in [
            "service_jobs_queued",
            "service_jobs_running",
            "service_cache_entries",
            "service_cache_hits_total",
            "service_cache_misses_total",
            "service_cache_build_ms_total",
            "service_cache_build_ms_last",
            "service_topologies",
        ] {
            assert!(text.contains(name), "missing {name} in metrics text");
        }
        // Process-global registry: the job ran a distance build and a
        // tabu search, so the kernel metrics appear too (enabled by the
        // telemetry default).
        assert!(text.contains("distance_builds_total"));
        assert!(text.contains("tabu_restarts_total"));
    }
}
