//! The job queue, worker pool, and job execution pipeline.
//!
//! [`ServiceCore`] is the daemon's brain, independent of any socket:
//! a bounded FIFO of jobs, a pool of worker threads, the topology
//! registry, the distance-table cache, and the stats block. The TCP
//! layer ([`crate::server`]) is a thin translator on top, which keeps
//! everything here directly unit-testable.

use crate::cache::{DistanceCache, RoutedTable, RoutingSpec, TableSpec};
use crate::persist::{
    state as pstate, PersistError, PersistOptions, Persistence, RecoveryReport, ReplicationSink,
    WalTap,
};
use crate::protocol::{format_fingerprint, JobKind, JobSpec, TopoRef};
use crate::registry::TopologyRegistry;
use crate::stats::ServiceStats;
use commsched_core::{quality, ProcessMapping, Workload};
use commsched_distance::{
    equivalent_distance_table_with_report, RepairMemo, SolverKind, TableOptions,
};
use commsched_dynamics::{repair_table, FaultEvent, RepairReport, TopologyEpoch};
use commsched_netsim::{paper_sweep, SimConfig, SweepConfig};
use commsched_routing::{Routing, ShortestPathRouting, UpDownRouting};
use commsched_search::{
    multilevel_map, parallel_multi_seed, MapStrategy, MultilevelParams, TabuParams, TabuSearch,
};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Identifier of a submitted job (issued sequentially from 1).
pub type JobId = u64;

/// Best-effort text of a caught panic payload (`&str` and `String`
/// payloads cover everything `panic!`/`assert!` produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Build the routing implementation a [`RoutingSpec`] names, for
/// `topo`. Shared by cache builds, fault repairs, and recovery's
/// bit-exact cache restoration.
fn build_routing(topo: &Topology, spec: RoutingSpec) -> Result<Box<dyn Routing>, String> {
    Ok(match spec {
        RoutingSpec::UpDown { root } => {
            Box::new(UpDownRouting::new(topo, root).map_err(|e| e.to_string())?)
        }
        RoutingSpec::ShortestPath => {
            Box::new(ShortestPathRouting::new(topo).map_err(|e| e.to_string())?)
        }
    })
}

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
    /// The job's memory demand does not fit on any switch of its
    /// (capacitated) topology given what admitted jobs already hold.
    /// Rejected at admission — capacity is never over-committed.
    Capacity(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("queue-full"),
            SubmitError::ShuttingDown => f.write_str("shutting-down"),
            SubmitError::Persist(e) => write!(f, "persist: {e}"),
            SubmitError::Capacity(e) => write!(f, "capacity: {e}"),
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
    /// Ids handed out by a persisted submission whose accept record is
    /// still being written (the queue lock is not held across the I/O).
    /// Counted against capacity so backpressure stays exact.
    reserved: usize,
}

/// One admitted job's hold on switch memory: which switch of which
/// topology it was placed on and how many bytes it charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CapacityClaim {
    fp: u64,
    switch: usize,
    bytes: u64,
}

/// Per-switch memory commitments of every capacitated topology, keyed
/// by fingerprint. Admission places a job's whole demand on the
/// least-committed switch that fits (ties broken by lowest index —
/// deterministic, so recovery replays the same placement from the same
/// admitted set). The ledger is rebuilt from the WAL's unfinished jobs
/// on recovery rather than persisted separately.
#[derive(Default)]
struct CapacityLedger {
    /// fingerprint -> committed bytes per switch.
    committed: HashMap<u64, Vec<u64>>,
    /// job -> its claim, for release on finish/cancel.
    claims: HashMap<JobId, CapacityClaim>,
}

impl CapacityLedger {
    /// Place `bytes` on the best fitting switch of `caps` or explain
    /// why no switch fits.
    fn claim(&mut self, fp: u64, caps: &[u64], bytes: u64) -> Result<CapacityClaim, String> {
        let committed = self
            .committed
            .entry(fp)
            .or_insert_with(|| vec![0; caps.len()]);
        let mut best: Option<usize> = None;
        for (s, (&cap, &used)) in caps.iter().zip(committed.iter()).enumerate() {
            if cap.saturating_sub(used) >= bytes && best.is_none_or(|b| used < committed[b]) {
                best = Some(s);
            }
        }
        match best {
            Some(s) => {
                committed[s] += bytes;
                Ok(CapacityClaim {
                    fp,
                    switch: s,
                    bytes,
                })
            }
            None => Err(format!(
                "no switch fits {bytes} bytes on topology {} ({} switches)",
                format_fingerprint(fp),
                caps.len()
            )),
        }
    }

    /// Record which job owns a claim taken before its id existed.
    fn bind(&mut self, id: JobId, claim: CapacityClaim) {
        self.claims.insert(id, claim);
    }

    /// Return a claim's bytes without a bound job (admission failed
    /// after the claim was taken).
    fn unclaim(&mut self, claim: CapacityClaim) {
        if let Some(committed) = self.committed.get_mut(&claim.fp) {
            committed[claim.switch] = committed[claim.switch].saturating_sub(claim.bytes);
        }
    }

    /// Release the claim a finished/cancelled job held, if any.
    fn release(&mut self, id: JobId) {
        if let Some(claim) = self.claims.remove(&id) {
            self.unclaim(claim);
        }
    }
}

/// Epoch bookkeeping for dynamically reconfigured topologies.
///
/// `successor` maps a superseded fingerprint to the fingerprint that
/// replaced it when a `FAULT` was applied; `index` records how many
/// faults deep each fingerprint sits (0 for freshly registered ones).
/// The insertion discipline in [`ServiceCore::fault`] — the new
/// fingerprint's own successor entry is removed before the old one is
/// linked to it — keeps the successor graph acyclic even when a
/// `restore` brings back a fingerprint that was superseded earlier.
#[derive(Default)]
struct EpochState {
    successor: HashMap<u64, u64>,
    index: HashMap<u64, u64>,
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
    /// Threads used *within* one job's search.
    pub search_threads: usize,
    /// Threads used to build one distance table.
    pub table_threads: usize,
}

impl Default for ServiceCoreConfig {
    fn default() -> Self {
        let hw = std::thread::available_parallelism().map_or(2, usize::from);
        Self {
            queue_capacity: 16,
            cache_capacity: 8,
            search_seeds: 4,
            search_threads: 1,
            table_threads: hw,
        }
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
    /// Per-switch memory commitments of capacitated topologies (leaf
    /// lock: never held across resolve/WAL/queue operations).
    capacity: Mutex<CapacityLedger>,
    /// Cross-epoch memo of compacted route circuits, shared by every
    /// repair this core performs.
    repair_memo: Mutex<RepairMemo>,
    /// Signals workers that work arrived or draining began.
    work_cv: Condvar,
    /// Signals drainers that a job left the queue/worker.
    done_cv: Condvar,
    /// Durable state (WAL + snapshots), absent for in-memory-only cores.
    persist: Option<Persistence>,
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
            capacity: Mutex::new(CapacityLedger::default()),
            repair_memo: Mutex::new(RepairMemo::new()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            persist,
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

    /// Open (or create) a state directory and rebuild a core from it:
    /// load the snapshot, replay the WAL on top (dropping a torn tail),
    /// read the table spill files (dropping damaged ones), restore the
    /// registry, epoch chains, jobs, and cached tables, and requeue
    /// every job that was accepted but unfinished at crash time. Jobs
    /// whose fingerprint was faulted over mid-flight are retargeted
    /// through the recovered epoch chain, exactly as a live fault would
    /// have moved them. Finishes with an immediate compacting snapshot
    /// so the next startup replays less.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failures;
    /// [`PersistError::Corrupt`] when the snapshot is torn or an intact
    /// log record does not parse (recovery refuses to guess at state).
    pub fn recover(
        config: ServiceCoreConfig,
        options: PersistOptions,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let persistence = Persistence::open(options)?;
        let mut recovered = pstate::RecoveredState::default();
        let mut report = RecoveryReport::default();
        if let Some(records) = persistence.load_snapshot()? {
            report.snapshot_records = records.len();
            for record in &records {
                recovered.apply(record).map_err(PersistError::Corrupt)?;
            }
        }
        let replayed = persistence.replay_wal()?;
        report.wal_records = replayed.records.len();
        report.torn_tail = replayed.torn_tail;
        for record in &replayed.records {
            recovered.apply(record).map_err(PersistError::Corrupt)?;
        }
        // Table files go through the same interpreter, after whatever
        // `cache` records an older daemon left in the log.
        let mut rejected = persistence.tables().load_into(&mut recovered);

        let core = Self::with_persistence(config, Some(persistence));
        for fp in &recovered.topo_order {
            if let Some(topo) = recovered.topologies.get(fp) {
                core.registry.register_arc(Arc::clone(topo));
            }
        }
        report.recovered_topologies = recovered.topo_order.len();
        {
            let mut epochs = core.epochs.lock().expect("epoch lock");
            epochs.successor = recovered.successor.clone();
            epochs.index = recovered.index.clone();
        }
        // Follow a fingerprint to the tip of its recovered epoch chain.
        let tip = |mut fp: u64| {
            while let Some(&next) = recovered.successor.get(&fp) {
                fp = next;
            }
            fp
        };
        {
            let mut state = core.state.lock().expect("queue lock");
            state.next_id = recovered.next_id.max(1);
            for (id, job) in &recovered.jobs {
                let mut spec = job.spec;
                if job.state == JobState::Queued {
                    if let TopoRef::Registered(fp) = spec.topo {
                        let current = tip(fp);
                        if current != fp {
                            spec.topo = TopoRef::Registered(current);
                            report.retargeted_jobs += 1;
                        }
                    }
                    // BTreeMap iteration order requeues by ascending id,
                    // preserving submission order.
                    state.pending.push_back(*id);
                    report.recovered_jobs += 1;
                }
                state.jobs.insert(
                    *id,
                    JobRecord {
                        spec,
                        state: job.state,
                        result: job.result.clone(),
                        error: job.error.clone(),
                        submitted_at: Instant::now(),
                    },
                );
            }
        }
        core.stats.note_recovered(report.recovered_jobs as u64);
        // Restored tables are bit-exact (the text format round-trips
        // doubles exactly), so post-restart faults still take the
        // incremental-repair path instead of a full rebuild.
        for ((fp, spec, tspec), table, approx) in recovered.tables {
            // No job can name a fingerprint a fault has superseded.
            if recovered.successor.contains_key(&fp) {
                continue;
            }
            let Some(Ok(routing)) = core.registry.get(fp).map(|t| build_routing(&t, spec)) else {
                rejected += 1;
                continue;
            };
            core.cache.insert_ready(
                (fp, spec, tspec),
                Arc::new(RoutedTable {
                    routing,
                    table: table.into_shared(),
                    approx,
                }),
            );
            report.restored_tables += 1;
        }
        core.stats
            .note_table_recovery(report.restored_tables as u64, rejected);
        // One file per restored table and nothing else, before the
        // snapshot below drops the bodies of in-log `cache` records.
        core.spill_tables();
        // Re-derive the capacity ledger from the recovered unfinished
        // jobs: placement is deterministic (least-committed switch,
        // lowest index first) and jobs replay in ascending id order, so
        // the post-restart commitments equal the pre-crash ones for the
        // same admitted set — no separate WAL record kind needed. A
        // job that no longer fits (e.g. its topology was retargeted to
        // a smaller epoch) stays admitted: accepted work is never
        // dropped, the ledger just saturates.
        let requeued: Vec<(JobId, JobSpec)> = {
            let state = core.state.lock().expect("queue lock");
            let mut jobs: Vec<(JobId, JobSpec)> = state
                .jobs
                .iter()
                .filter(|(_, rec)| rec.state == JobState::Queued && rec.spec.mem > 0)
                .map(|(&id, rec)| (id, rec.spec))
                .collect();
            jobs.sort_unstable_by_key(|&(id, _)| id);
            jobs
        };
        for (id, spec) in requeued {
            if let Ok(claim) = core.claim_capacity(&spec) {
                core.bind_claim(id, claim);
            }
        }
        core.write_snapshot(core.persist.as_ref().expect("persistence set"))?;
        Ok((core, report))
    }

    /// The sizing this core was built with.
    pub fn config(&self) -> &ServiceCoreConfig {
        &self.config
    }

    /// The persistence layer, when this core is durable.
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.as_ref()
    }

    /// Append one WAL record (best-effort: outside the submit path a
    /// logging failure must not take down a worker mid-job) and refresh
    /// the WAL-size gauge. Never call while holding a state lock — the
    /// global order is WAL-before-state.
    fn log_record(&self, payload: &str, ack: bool) {
        let Some(p) = &self.persist else { return };
        let _ = p.append(payload, ack);
        self.stats.set_wal_bytes(p.wal_bytes());
    }

    /// Serialize the whole durable state as snapshot records: the
    /// small authoritative ones only — cached tables are rebuildable
    /// and live in the spill store. Called with the WAL lock held by
    /// the snapshot machinery; takes the registry, epoch, and queue
    /// locks internally (allowed: WAL-before-state order).
    fn snapshot_records(&self) -> Vec<String> {
        let mut records = Vec::new();
        for topo in self.registry.topologies() {
            records.push(pstate::record_topo(&topo));
        }
        {
            let epochs = self.epochs.lock().expect("epoch lock");
            let mut succ: Vec<(u64, u64)> =
                epochs.successor.iter().map(|(&a, &b)| (a, b)).collect();
            succ.sort_unstable();
            for (old, new) in succ {
                records.push(pstate::record_succ(old, new));
            }
            let mut idx: Vec<(u64, u64)> = epochs.index.iter().map(|(&f, &i)| (f, i)).collect();
            idx.sort_unstable();
            for (fp, index) in idx {
                records.push(pstate::record_epoch(fp, index));
            }
        }
        {
            let state = self.state.lock().expect("queue lock");
            records.push(pstate::record_next(state.next_id));
            let mut ids: Vec<JobId> = state.jobs.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                let rec = &state.jobs[&id];
                records.push(pstate::record_accept(id, &rec.spec));
                match rec.state {
                    JobState::Done => records.push(pstate::record_finish_ok(id, &rec.result)),
                    JobState::Failed => records.push(pstate::record_finish_err(id, &rec.error)),
                    JobState::Cancelled => records.push(pstate::record_cancel(id)),
                    // Queued and Running replay as requeued work. A
                    // running job cannot finish concurrently with this
                    // capture: the finish is applied under the WAL lock
                    // the snapshot is holding.
                    JobState::Queued | JobState::Running => {}
                }
            }
        }
        records
    }

    /// Make `<state-dir>/tables/` equal to the cache: a file for every
    /// cached table, none for an evicted or invalidated one. Takes no
    /// WAL lock and runs under the fsync class of unacknowledged
    /// records: a lost spill costs a rebuild after the next restart.
    fn spill_tables(&self) {
        let Some(p) = &self.persist else { return };
        let done = p.tables().sync(&self.cache, p.should_sync(false));
        self.stats
            .note_table_spill(done.spilled, done.bytes, done.errors, done.nanos);
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

    /// Capacity admission for one spec, before any id is reserved.
    /// `mem=0` jobs, jobs on uncapacitated topologies, and jobs whose
    /// topology cannot be resolved (they will fail at execution with
    /// the real error) are exempt and return `Ok(None)`. Otherwise the
    /// demand is placed on the least-committed fitting switch and held
    /// until [`Self::bind_claim`] or [`Self::unclaim`].
    ///
    /// Called without any lock held: resolving the topology may
    /// register a builtin (registry + WAL locks), and the ledger lock
    /// is a leaf taken afterwards.
    fn claim_capacity(&self, spec: &JobSpec) -> Result<Option<CapacityClaim>, SubmitError> {
        if spec.mem == 0 {
            return Ok(None);
        }
        let Ok(topo) = self.resolve_topology(spec.topo) else {
            return Ok(None);
        };
        let Some(caps) = topo.mem_capacities() else {
            return Ok(None);
        };
        let fp = topo.fingerprint();
        let mut ledger = self.capacity.lock().expect("capacity lock");
        match ledger.claim(fp, caps, spec.mem) {
            Ok(claim) => Ok(Some(claim)),
            Err(e) => {
                self.stats.note_rejected();
                Err(SubmitError::Capacity(e))
            }
        }
    }

    /// Attach an admission-time claim to the job id it ended up with.
    fn bind_claim(&self, id: JobId, claim: Option<CapacityClaim>) {
        if let Some(claim) = claim {
            self.capacity.lock().expect("capacity lock").bind(id, claim);
        }
    }

    /// Give back a claim whose submission failed after admission.
    fn unclaim(&self, claim: Option<CapacityClaim>) {
        if let Some(claim) = claim {
            self.capacity.lock().expect("capacity lock").unclaim(claim);
        }
    }

    /// Release the capacity a finished/cancelled job held.
    fn release_capacity(&self, id: JobId) {
        self.capacity.lock().expect("capacity lock").release(id);
    }

    /// Enqueue a job.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] while draining,
    /// [`SubmitError::Capacity`] when the job's memory demand fits on no
    /// switch of its capacitated topology.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let claim = self.claim_capacity(&spec)?;
        let Some(p) = &self.persist else {
            // In-memory core: accept under a single brief lock.
            let mut state = self.state.lock().expect("queue lock");
            if !state.accepting {
                self.stats.note_rejected();
                drop(state);
                self.unclaim(claim);
                return Err(SubmitError::ShuttingDown);
            }
            if state.pending.len() + state.reserved >= self.config.queue_capacity {
                self.stats.note_rejected();
                drop(state);
                self.unclaim(claim);
                return Err(SubmitError::QueueFull);
            }
            let id = state.next_id;
            state.next_id += 1;
            state.jobs.insert(
                id,
                JobRecord {
                    spec,
                    state: JobState::Queued,
                    result: Vec::new(),
                    error: String::new(),
                    submitted_at: Instant::now(),
                },
            );
            state.pending.push_back(id);
            self.stats.note_submitted();
            drop(state);
            self.bind_claim(id, claim);
            self.work_cv.notify_one();
            return Ok(id);
        };
        // Durable core, phase 1: admission + id reservation under a
        // brief queue lock. The reservation holds the capacity slot
        // while the accept record is written without the lock.
        let id = {
            let mut state = self.state.lock().expect("queue lock");
            if !state.accepting {
                self.stats.note_rejected();
                drop(state);
                self.unclaim(claim);
                return Err(SubmitError::ShuttingDown);
            }
            if state.pending.len() + state.reserved >= self.config.queue_capacity {
                self.stats.note_rejected();
                drop(state);
                self.unclaim(claim);
                return Err(SubmitError::QueueFull);
            }
            let id = state.next_id;
            state.next_id += 1;
            state.reserved += 1;
            id
        };
        self.bind_claim(id, claim);
        // Phases 2+3 under the WAL lock: the durable accept record and
        // the in-memory enqueue are one atomic step as far as a
        // concurrent snapshot is concerned, so an acknowledged job can
        // never fall into the gap between a truncated WAL and a
        // snapshot image captured before the insert.
        let sync = p.should_sync(true);
        let outcome = p.with_wal(|wal| {
            match wal.append(pstate::record_accept(id, &spec).as_bytes(), sync) {
                Ok(_) => {
                    let mut state = self.state.lock().expect("queue lock");
                    state.reserved -= 1;
                    if !state.accepting {
                        // Raced with drain: withdraw the logged accept.
                        let _ = wal.append(pstate::record_cancel(id).as_bytes(), sync);
                        return Err(SubmitError::ShuttingDown);
                    }
                    state.jobs.insert(
                        id,
                        JobRecord {
                            spec,
                            state: JobState::Queued,
                            result: Vec::new(),
                            error: String::new(),
                            submitted_at: Instant::now(),
                        },
                    );
                    state.pending.push_back(id);
                    Ok(())
                }
                Err(e) => {
                    // Neutralize whatever torn prefix of the accept
                    // record may have reached the disk.
                    let _ = wal.append(pstate::record_cancel(id).as_bytes(), sync);
                    let mut state = self.state.lock().expect("queue lock");
                    state.reserved -= 1;
                    Err(SubmitError::Persist(e.to_string()))
                }
            }
        });
        self.stats.set_wal_bytes(p.wal_bytes());
        if let Err(e) = outcome {
            self.stats.note_rejected();
            self.release_capacity(id);
            return Err(e);
        }
        self.stats.note_submitted();
        self.work_cv.notify_one();
        // Ack-means-replicated: the id is not returned (and no OK goes
        // out) until the accept record has reached the followers.
        self.repl_barrier();
        self.maybe_snapshot();
        Ok(id)
    }

    /// Enqueue many jobs at once, returning per-job outcomes in
    /// submission order. The point of batching: on a durable core every
    /// accept record of the batch shares ONE WAL critical section and
    /// (under an fsync-on-ack policy) one `fsync` covers them all — the
    /// dominant per-submit cost at high rates. Admission (capacity,
    /// drain) is still per job, so a batch that straddles the capacity
    /// limit gets a `queue-full` tail instead of an all-or-nothing
    /// bounce.
    pub fn submit_batch(&self, specs: &[JobSpec]) -> Vec<Result<JobId, SubmitError>> {
        if specs.is_empty() {
            return Vec::new();
        }
        // Capacity admission per spec, before any ids exist. A claim
        // taken here is released again on any later rejection.
        let mut claims: Vec<Result<Option<CapacityClaim>, SubmitError>> =
            specs.iter().map(|s| self.claim_capacity(s)).collect();
        let Some(p) = &self.persist else {
            // In-memory core: one lock for the whole batch.
            let mut out = Vec::with_capacity(specs.len());
            let mut bound: Vec<(JobId, Option<CapacityClaim>)> = Vec::new();
            let mut state = self.state.lock().expect("queue lock");
            for (i, &spec) in specs.iter().enumerate() {
                let claim = match std::mem::replace(&mut claims[i], Ok(None)) {
                    Ok(c) => c,
                    Err(e) => {
                        out.push(Err(e));
                        continue;
                    }
                };
                if !state.accepting {
                    self.stats.note_rejected();
                    self.unclaim(claim);
                    out.push(Err(SubmitError::ShuttingDown));
                    continue;
                }
                if state.pending.len() + state.reserved >= self.config.queue_capacity {
                    self.stats.note_rejected();
                    self.unclaim(claim);
                    out.push(Err(SubmitError::QueueFull));
                    continue;
                }
                let id = state.next_id;
                state.next_id += 1;
                state.jobs.insert(
                    id,
                    JobRecord {
                        spec,
                        state: JobState::Queued,
                        result: Vec::new(),
                        error: String::new(),
                        submitted_at: Instant::now(),
                    },
                );
                state.pending.push_back(id);
                self.stats.note_submitted();
                bound.push((id, claim));
                out.push(Ok(id));
            }
            drop(state);
            for (id, claim) in bound {
                self.bind_claim(id, claim);
            }
            self.work_cv.notify_all();
            return out;
        };
        // Durable core, phase 1: admission + id reservation for every
        // job of the batch under one brief queue lock (same protocol as
        // the single-job path; `out[i]` corresponds to `specs[i]`).
        let mut out: Vec<Result<JobId, SubmitError>> = Vec::with_capacity(specs.len());
        let mut accepted: Vec<(usize, JobId)> = Vec::new();
        let mut bound: Vec<(JobId, Option<CapacityClaim>)> = Vec::new();
        {
            let mut state = self.state.lock().expect("queue lock");
            for (i, slot) in claims.iter_mut().enumerate() {
                let claim = match std::mem::replace(slot, Ok(None)) {
                    Ok(c) => c,
                    Err(e) => {
                        out.push(Err(e));
                        continue;
                    }
                };
                if !state.accepting {
                    self.stats.note_rejected();
                    self.unclaim(claim);
                    out.push(Err(SubmitError::ShuttingDown));
                    continue;
                }
                if state.pending.len() + state.reserved >= self.config.queue_capacity {
                    self.stats.note_rejected();
                    self.unclaim(claim);
                    out.push(Err(SubmitError::QueueFull));
                    continue;
                }
                let id = state.next_id;
                state.next_id += 1;
                state.reserved += 1;
                accepted.push((i, id));
                bound.push((id, claim));
                out.push(Ok(id));
            }
        }
        for (id, claim) in bound {
            self.bind_claim(id, claim);
        }
        if accepted.is_empty() {
            return out;
        }
        // Phases 2+3, one WAL critical section for the whole batch: ONE
        // buffered append covers every accept record (one `write(2)`,
        // not one per job — the per-record syscall dominates at high
        // rates), the jobs are inserted, then a single fsync (per
        // policy) makes the batch durable before the caller acks any of
        // it.
        let sync = p.should_sync(true);
        p.with_wal(|wal| {
            let records: Vec<String> = accepted
                .iter()
                .map(|&(i, id)| pstate::record_accept(id, &specs[i]))
                .collect();
            let appended = wal.append_all(records.iter().map(String::as_bytes), false);
            if let Err(e) = &appended {
                // Withdraw every id (neutralizes whatever torn prefix of
                // the batch may have reached the disk) and report the
                // persist error on each job.
                let failure = e.to_string();
                for &(i, id) in &accepted {
                    let _ = wal.append(pstate::record_cancel(id).as_bytes(), false);
                    out[i] = Err(SubmitError::Persist(failure.clone()));
                    self.stats.note_rejected();
                }
            }
            let mut state = self.state.lock().expect("queue lock");
            state.reserved -= accepted.len();
            if appended.is_err() {
                // Nothing logged: ids already withdrawn above.
            } else if state.accepting {
                // One clock read for the whole batch: every job of the
                // batch was accepted at the same instant.
                let submitted_at = Instant::now();
                for &(i, id) in &accepted {
                    state.jobs.insert(
                        id,
                        JobRecord {
                            spec: specs[i],
                            state: JobState::Queued,
                            result: Vec::new(),
                            error: String::new(),
                            submitted_at,
                        },
                    );
                    state.pending.push_back(id);
                    self.stats.note_submitted();
                }
            } else {
                // Raced with drain: withdraw every logged accept.
                for &(i, id) in &accepted {
                    let _ = wal.append(pstate::record_cancel(id).as_bytes(), false);
                    out[i] = Err(SubmitError::ShuttingDown);
                    self.stats.note_rejected();
                }
            }
            drop(state);
            if sync {
                let _ = wal.sync();
            }
        });
        self.stats.set_wal_bytes(p.wal_bytes());
        // Give back the capacity of jobs withdrawn after admission
        // (persist failure or a drain race flipped their slot to Err).
        for &(i, id) in &accepted {
            if out[i].is_err() {
                self.release_capacity(id);
            }
        }
        self.work_cv.notify_all();
        // One barrier covers the whole batch's accept records.
        self.repl_barrier();
        self.maybe_snapshot();
        out
    }

    /// The state of a job, if the id is known.
    pub fn status(&self, id: JobId) -> Option<JobState> {
        let state = self.state.lock().expect("queue lock");
        state.jobs.get(&id).map(|r| r.state)
    }

    /// The result payload of a `Done` job.
    ///
    /// # Errors
    /// `unknown-job` for unissued ids, `job-failed: ...` for failures,
    /// `not-done (<state>)` otherwise.
    pub fn result_lines(&self, id: JobId) -> Result<Vec<String>, String> {
        let state = self.state.lock().expect("queue lock");
        let Some(rec) = state.jobs.get(&id) else {
            return Err("unknown-job".into());
        };
        match rec.state {
            JobState::Done => Ok(rec.result.clone()),
            JobState::Failed => Err(format!("job-failed: {}", rec.error)),
            other => Err(format!("not-done ({other})")),
        }
    }

    /// Cancel a still-queued job. Running jobs run to completion (the
    /// search is not interruptible); finished jobs are immutable.
    ///
    /// # Errors
    /// `unknown-job` or `not-cancellable (<state>)`.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let cancel_in_state = || -> Result<(), String> {
            let mut state = self.state.lock().expect("queue lock");
            let Some(rec) = state.jobs.get(&id) else {
                return Err("unknown-job".into());
            };
            match rec.state {
                JobState::Queued => {
                    state.pending.retain(|&p| p != id);
                    state.jobs.get_mut(&id).expect("checked above").state = JobState::Cancelled;
                    self.stats.note_cancelled();
                    self.done_cv.notify_all();
                    Ok(())
                }
                other => Err(format!("not-cancellable ({other})")),
            }
        };
        let Some(p) = &self.persist else {
            let result = cancel_in_state();
            if result.is_ok() {
                self.release_capacity(id);
            }
            return result;
        };
        // The guarded transition and its record share one WAL critical
        // section, so a concurrent snapshot cannot capture the job as
        // cancelled and then truncate the record away (or vice versa).
        let sync = p.should_sync(true);
        let result = p.with_wal(|wal| {
            cancel_in_state()?;
            let _ = wal.append(pstate::record_cancel(id).as_bytes(), sync);
            Ok(())
        });
        self.stats.set_wal_bytes(p.wal_bytes());
        if result.is_ok() {
            self.release_capacity(id);
            self.repl_barrier();
        }
        result
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

    /// Stop accepting work and block until every accepted job has left
    /// the queue and every running job has finished. Idempotent; safe to
    /// call from several threads. Workers exit their loop once drained.
    pub fn drain(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.accepting = false;
        self.work_cv.notify_all();
        while !state.pending.is_empty() || state.running > 0 {
            state = self.done_cv.wait(state).expect("queue lock");
        }
    }

    /// A worker: pops and executes jobs until the core is drained.
    /// Spawn one thread per worker with this as its body.
    pub fn worker_loop(self: &Arc<Self>) {
        loop {
            let (id, spec, submitted_at) = {
                let mut state = self.state.lock().expect("queue lock");
                loop {
                    if let Some(id) = state.pending.pop_front() {
                        state.running += 1;
                        let rec = state.jobs.get_mut(&id).expect("queued job exists");
                        rec.state = JobState::Running;
                        break (id, rec.spec, rec.submitted_at);
                    }
                    if !state.accepting {
                        return;
                    }
                    state = self.work_cv.wait(state).expect("queue lock");
                }
            };
            let started = Instant::now();
            let wait_ms = started.duration_since(submitted_at).as_secs_f64() * 1e3;
            // A panicking job must not kill the worker: an abandoned job
            // would sit `Running` forever and deadlock `drain()`. Catch
            // the unwind and report it as a failure. `AssertUnwindSafe`
            // is sound here because `execute` only reads `self` through
            // lock-guarded or atomic state — a mid-panic job cannot leave
            // the core's invariants broken.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(spec)));
            let run_ms = started.elapsed().as_secs_f64() * 1e3;
            let (panicked, outcome) = match outcome {
                Ok(result) => (false, result),
                // `payload.as_ref()`, not `&payload`: a plain borrow
                // would unsize the *Box itself* into `dyn Any` and
                // every downcast would miss.
                Err(payload) => (
                    true,
                    Err(format!("worker-panic: {}", panic_message(payload.as_ref()))),
                ),
            };
            self.settle(id, outcome, panicked, wait_ms, run_ms);
            self.maybe_snapshot();
        }
    }

    /// Record a job's outcome: durably first (the finish record), then
    /// in memory. The two happen under one WAL critical section, so a
    /// concurrent snapshot either sees the job still running (and the
    /// finish record lands in the post-truncation WAL) or already
    /// finished (and the snapshot itself carries the outcome) — never a
    /// window where a durable outcome is truncated away. Replaying
    /// `finish` before the crash-interrupted state transition is what
    /// guarantees a finished job is never run twice.
    fn settle(
        &self,
        id: JobId,
        outcome: Result<Vec<String>, String>,
        panicked: bool,
        wait_ms: f64,
        run_ms: f64,
    ) {
        let record = match &outcome {
            Ok(lines) => pstate::record_finish_ok(id, lines),
            Err(e) => pstate::record_finish_err(id, e),
        };
        let apply = move || {
            let mut state = self.state.lock().expect("queue lock");
            let rec = state.jobs.get_mut(&id).expect("running job exists");
            match outcome {
                Ok(lines) => {
                    rec.state = JobState::Done;
                    rec.result = lines;
                    self.stats.note_finished(true, wait_ms, run_ms);
                }
                Err(e) => {
                    rec.state = JobState::Failed;
                    rec.error = e;
                    if panicked {
                        self.stats.note_panicked();
                    }
                    self.stats.note_finished(false, wait_ms, run_ms);
                }
            }
            state.running -= 1;
            self.done_cv.notify_all();
        };
        match &self.persist {
            Some(p) => {
                let sync = p.should_sync(true);
                p.with_wal(|wal| {
                    // Best-effort: a failed append must not abandon the
                    // job in `Running` (that would deadlock `drain`).
                    let _ = wal.append(record.as_bytes(), sync);
                    apply();
                });
                self.stats.set_wal_bytes(p.wal_bytes());
                // A finish visible here must be visible after failover:
                // a promoted follower must never re-run a job whose
                // completion a client already observed via STATUS.
                self.repl_barrier();
            }
            None => apply(),
        }
        // The job no longer occupies its switch; later admissions may
        // reuse the memory.
        self.release_capacity(id);
    }

    /// The fingerprint currently at the end of `fp`'s epoch chain (`fp`
    /// itself when it was never superseded by a fault).
    pub fn current_epoch_of(&self, fp: u64) -> u64 {
        let epochs = self.epochs.lock().expect("epoch lock");
        let mut cur = fp;
        while let Some(&next) = epochs.successor.get(&cur) {
            cur = next;
        }
        cur
    }

    /// Resolve a [`TopoRef`] to a registered topology. Builtin specs are
    /// registered on first use so later jobs (and `fp:` references) share
    /// one copy. A fingerprint that a `FAULT` has superseded fails with a
    /// typed `stale-epoch` error naming the current fingerprint, so
    /// clients can resubmit against the live network.
    fn resolve_topology(&self, topo: TopoRef) -> Result<Arc<Topology>, String> {
        let built = match topo {
            TopoRef::Registered(fp) => {
                let current = self.current_epoch_of(fp);
                if current != fp {
                    return Err(format!(
                        "stale-epoch: {} superseded by {}",
                        format_fingerprint(fp),
                        format_fingerprint(current)
                    ));
                }
                return self
                    .registry
                    .get(fp)
                    .ok_or_else(|| format!("unknown-topology {fp:016x}"));
            }
            TopoRef::Paper24 => designed::paper_24_switch(),
            TopoRef::Ring { switches, hosts } => {
                designed::try_ring(switches, hosts).map_err(|e| e.to_string())?
            }
            TopoRef::Random {
                switches,
                degree,
                hosts,
                seed,
            } => {
                let cfg = RandomTopologyConfig {
                    switches,
                    degree,
                    hosts_per_switch: hosts,
                    max_attempts: 10_000,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                random_regular(cfg, &mut rng).map_err(|e| e.to_string())?
            }
        };
        let (fp, fresh) = self.registry.register(built);
        if fresh {
            if let Some(t) = self.registry.get(fp) {
                self.log_record(&pstate::record_topo(&t), true);
            }
        }
        // A builtin spelling names the epoch-0 network; once a fault has
        // superseded it, jobs and further faults through that spelling get
        // the same typed failure as a stale fingerprint reference.
        let current = self.current_epoch_of(fp);
        if current != fp {
            return Err(format!(
                "stale-epoch: {} superseded by {}",
                format_fingerprint(fp),
                format_fingerprint(current)
            ));
        }
        self.registry.get(fp).ok_or_else(|| "registry race".into())
    }

    /// Register a topology uploaded through the wire (`ADDTOPO`),
    /// durably logging it when it is new. Returns the fingerprint and
    /// whether it was freshly registered.
    pub fn register_topology(&self, topo: Topology) -> (u64, bool) {
        let (fp, fresh) = self.registry.register(topo);
        if fresh {
            if let Some(t) = self.registry.get(fp) {
                self.log_record(&pstate::record_topo(&t), true);
            }
            self.repl_barrier();
        }
        (fp, fresh)
    }

    /// The cached routing + distance table for a topology, under the
    /// given solver spec (exact, or the certified approximation).
    fn routed_table(
        &self,
        topo: &Arc<Topology>,
        routing: RoutingSpec,
        tspec: TableSpec,
    ) -> Result<Arc<RoutedTable>, String> {
        let key = (topo.fingerprint(), routing, tspec);
        let topo_for_build = Arc::clone(topo);
        let threads = self.config.table_threads;
        // The flag is set inside the closure, which only the winning
        // builder runs — threads served from the cache (or by waiting on
        // a concurrent build) must not spill the entry again.
        let mut built = false;
        let built_flag = &mut built;
        let value = self.cache.get_or_build(key, move || {
            let routing_impl = build_routing(&topo_for_build, routing)?;
            let options = match tspec {
                TableSpec::Exact => TableOptions {
                    threads,
                    ..TableOptions::default()
                },
                TableSpec::Approx { eps_micros } => TableOptions {
                    solver: SolverKind::Approximate,
                    approx_eps_micros: eps_micros,
                    threads,
                    ..TableOptions::default()
                },
            };
            let (table, approx) = equivalent_distance_table_with_report(
                &topo_for_build,
                routing_impl.as_ref(),
                options,
            )
            .map_err(|e| e.to_string())?;
            *built_flag = true;
            Ok(RoutedTable {
                routing: routing_impl,
                table: table.into_shared(),
                approx,
            })
        })?;
        if built {
            self.spill_tables();
        }
        Ok(value)
    }

    /// Rebuild the invalidated `(new fingerprint, spec)` cache entry by
    /// incrementally repairing the stale table instead of re-solving the
    /// whole network, reusing the core's cross-epoch memo. Returns the
    /// repair report (`None` when a concurrent request built the entry
    /// first and the closure never ran).
    fn refresh_entry(
        &self,
        old_topo: &Arc<Topology>,
        next: &TopologyEpoch,
        spec: RoutingSpec,
        stale: &Arc<RoutedTable>,
    ) -> Result<Option<RepairReport>, String> {
        let topo = Arc::clone(&next.topology);
        let old_topo = Arc::clone(old_topo);
        let threads = self.config.table_threads;
        let mut report = None;
        let report_slot = &mut report;
        let key = (next.fingerprint, spec, TableSpec::Exact);
        self.cache.get_or_build(key, move || {
            let routing = build_routing(&topo, spec)?;
            let mut memo = self.repair_memo.lock().expect("repair memo lock");
            let (table, rep) = repair_table(
                &stale.table,
                &old_topo,
                stale.routing.as_ref(),
                &topo,
                routing.as_ref(),
                TableOptions {
                    threads,
                    ..TableOptions::default()
                },
                &mut memo,
            )
            .map_err(|e| e.to_string())?;
            *report_slot = Some(rep);
            Ok(RoutedTable {
                routing,
                table: table.into_shared(),
                approx: None,
            })
        })?;
        Ok(report)
    }

    /// Apply one fault event to a topology: bump its epoch, register the
    /// successor network, mark the old fingerprint stale, invalidate its
    /// cache entries (repair-refreshing each under the new fingerprint),
    /// and retarget still-queued jobs at the successor. Returns the
    /// report lines of the `FAULT` response.
    ///
    /// # Errors
    /// `stale-epoch`/`unknown-topology` from resolution, or
    /// `fault-rejected: ...` when the event does not apply (missing
    /// link, out-of-range switch, ...).
    pub fn fault(&self, topo: TopoRef, event: &FaultEvent) -> Result<Vec<String>, String> {
        let old = self.resolve_topology(topo)?;
        let old_fp = old.fingerprint();
        let mut epoch = TopologyEpoch::initial(Arc::clone(&old));
        epoch.index = {
            let epochs = self.epochs.lock().expect("epoch lock");
            epochs.index.get(&old_fp).copied().unwrap_or(0)
        };
        let next = epoch
            .apply(event)
            .map_err(|e| format!("fault-rejected: {e}"))?;
        let (_, fresh) = self.registry.register_arc(Arc::clone(&next.topology));
        {
            let mut epochs = self.epochs.lock().expect("epoch lock");
            // Unhooking the successor's own outgoing edge first keeps the
            // chain acyclic when a restore resurrects an old fingerprint.
            epochs.successor.remove(&next.fingerprint);
            if next.fingerprint != old_fp {
                epochs.successor.insert(old_fp, next.fingerprint);
            }
            epochs.index.insert(next.fingerprint, next.index);
        }
        // Durability before repairs start: a crash mid-repair must still
        // recover the successor network and the epoch bump, so replayed
        // jobs retarget correctly (the repaired tables just rebuild).
        if fresh {
            self.log_record(&pstate::record_topo(&next.topology), true);
        }
        self.log_record(
            &pstate::record_fault(old_fp, next.fingerprint, next.index),
            true,
        );
        let removed = self.cache.invalidate_topology(old_fp);
        let mut repair_lines = Vec::new();
        let mut refreshed = 0usize;
        for (spec, tspec, stale) in &removed {
            if let TableSpec::Approx { .. } = tspec {
                // Approximate tables carry no repair memo-compatible
                // certificate across topologies; they are cheap to
                // rebuild on demand under the successor fingerprint.
                repair_lines.push(format!("repair {spec} {tspec} dropped"));
                continue;
            }
            match self.refresh_entry(&old, &next, *spec, stale) {
                Ok(Some(rep)) => {
                    refreshed += 1;
                    repair_lines.push(format!(
                        "repair {spec} pairs {}/{} wall_ms {:.3} max_delta {:.6e}",
                        rep.pairs_recomputed, rep.pairs_total, rep.wall_ms, rep.max_delta
                    ));
                }
                Ok(None) => {
                    // A concurrent builder made the entry (and spilled it).
                    refreshed += 1;
                    repair_lines.push(format!("repair {spec} shared"));
                }
                Err(e) => repair_lines.push(format!("repair {spec} skipped: {e}")),
            }
        }
        // The repaired tables get their files; the stale fingerprint's go.
        self.spill_tables();
        // Still-queued jobs naming the stale fingerprint follow it to the
        // successor; running jobs keep their (already resolved) tables.
        let requeued = {
            let mut state = self.state.lock().expect("queue lock");
            let pending: Vec<JobId> = state.pending.iter().copied().collect();
            let mut moved = 0usize;
            for id in pending {
                let rec = state.jobs.get_mut(&id).expect("pending job exists");
                if rec.spec.topo == TopoRef::Registered(old_fp) {
                    rec.spec.topo = TopoRef::Registered(next.fingerprint);
                    moved += 1;
                }
            }
            moved
        };
        let mut lines = vec![
            format!("event {event}"),
            format!("epoch {}", next.index),
            format!("topology {}", format_fingerprint(next.fingerprint)),
            format!("previous {}", format_fingerprint(old_fp)),
            format!("connected {}", next.connected),
            format!("components {}", next.components),
            format!("invalidated {}", removed.len()),
            format!("refreshed {refreshed}"),
            format!("requeued {requeued}"),
        ];
        lines.extend(repair_lines);
        // The fault (and successor-topology) records ride to the
        // followers before the epoch bump is acknowledged.
        self.repl_barrier();
        self.maybe_snapshot();
        Ok(lines)
    }

    /// Run one job to completion, returning the `RESULT` payload lines.
    fn execute(&self, spec: JobSpec) -> Result<Vec<String>, String> {
        let (clusters, seed) = match spec.kind {
            // NOOP completes without resolving anything: it exists so
            // load generators measure the protocol/queue/WAL path, not
            // the solver.
            JobKind::Noop => return Ok(vec!["noop".to_string()]),
            JobKind::Schedule { clusters, seed } | JobKind::Sweep { clusters, seed, .. } => {
                (clusters, seed)
            }
        };
        let topo = self.resolve_topology(spec.topo)?;
        let tspec = TableSpec::from_eps_micros(spec.approx_eps_micros);
        let routed = self.routed_table(&topo, spec.routing, tspec)?;
        if let Some(rep) = &routed.approx {
            self.stats.note_approx_err_max(rep.err_max);
        }
        let workload = Workload::balanced(&topo, clusters).map_err(|e| e.to_string())?;
        let sizes = workload.switch_demands(topo.hosts_per_switch());
        let (winning_seed, result, ml) = match spec.strategy {
            MapStrategy::Flat => {
                let mapper = TabuSearch::new(TabuParams::scaled(topo.num_switches()));
                let (winning_seed, result) = parallel_multi_seed(
                    &mapper,
                    &routed.table,
                    &sizes,
                    seed,
                    self.config.search_seeds,
                    self.config.search_threads,
                );
                (winning_seed, result, None)
            }
            MapStrategy::Multilevel => {
                let params = MultilevelParams {
                    threads: self.config.search_threads,
                    ..MultilevelParams::default()
                };
                let (result, stats) = multilevel_map(&routed.table, &sizes, seed, &params);
                self.stats
                    .note_multilevel(stats.levels as u64, stats.refine_moves);
                (seed, result, Some(stats))
            }
        };
        let q = quality(&result.partition, &routed.table);
        let assignment: Vec<String> = result
            .partition
            .assignment()
            .iter()
            .map(ToString::to_string)
            .collect();
        let mut lines = vec![
            format!("topology {:016x}", topo.fingerprint()),
            format!("clusters {}", result.partition.num_clusters()),
            format!("partition {}", assignment.join(" ")),
            format!("fg {:.9}", q.fg),
            format!("dg {:.9}", q.dg),
            format!("cc {:.9}", q.cc),
            format!("winning_seed {winning_seed}"),
            format!("strategy {}", spec.strategy),
        ];
        if let Some(stats) = ml {
            lines.push(format!("ml_levels {}", stats.levels));
            lines.push(format!("ml_coarse_n {}", stats.coarse_n));
            lines.push(format!("ml_refine_moves {}", stats.refine_moves));
        }
        if let Some(rep) = &routed.approx {
            lines.push(format!("approx_eps {:.6}", rep.eps));
            lines.push(format!("approx_err_max {:.9e}", rep.err_max));
            lines.push(format!(
                "approx_pairs {} escalated {}",
                rep.pairs_approximated, rep.pairs_escalated
            ));
        }
        if let JobKind::Sweep { points, .. } = spec.kind {
            let mapping = ProcessMapping::place(&topo, &workload, &result.partition)
                .map_err(|e| e.to_string())?;
            // Short windows keep sweep jobs interactive; the figures
            // binaries remain the place for publication-length runs.
            let sim = SimConfig {
                warmup_cycles: 500,
                measure_cycles: 3_000,
                seed: 0xC0FFEE,
                ..Default::default()
            };
            let sweep_cfg = SweepConfig {
                points,
                ..Default::default()
            };
            let (sweep, sat) = paper_sweep(
                &topo,
                routed.routing.as_ref(),
                mapping.host_clusters(),
                sim,
                sweep_cfg,
            )
            .map_err(|e| e.to_string())?;
            lines.push(format!("saturation {sat:.6}"));
            for p in &sweep.points {
                // `-` stands in for the average when a point delivered
                // nothing: a literal NaN on the wire would poison any
                // client that parses the column numerically.
                let latency = p
                    .stats
                    .network_latency()
                    .map_or_else(|| "-".to_string(), |l| format!("{l:.2}"));
                lines.push(format!(
                    "point {:.6} {:.6} {latency}",
                    p.rate, p.stats.accepted_flits_per_switch_cycle
                ));
            }
        }
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> JobSpec {
        JobSpec {
            topo: TopoRef::Ring {
                switches: 4,
                hosts: 1,
            },
            routing: RoutingSpec::UpDown { root: 0 },
            strategy: MapStrategy::Flat,
            approx_eps_micros: 0,
            deadline_ms: None,
            mem: 0,
            kind: JobKind::Schedule { clusters: 2, seed },
        }
    }

    fn small_core(queue_capacity: usize) -> Arc<ServiceCore> {
        Arc::new(ServiceCore::new(ServiceCoreConfig {
            queue_capacity,
            cache_capacity: 4,
            search_seeds: 2,
            search_threads: 1,
            table_threads: 1,
        }))
    }

    fn capped_spec(fp: u64, mem: u64) -> JobSpec {
        JobSpec {
            topo: TopoRef::Registered(fp),
            mem,
            ..JobSpec::default()
        }
    }

    #[test]
    fn capacity_admission_never_over_commits() {
        use commsched_topology::TopologyBuilder;
        let core = small_core(16);
        let topo = TopologyBuilder::new(2, 1)
            .link(0, 1)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let (fp, _) = core.register_topology(topo);
        // Two 60-byte jobs spread across the two switches; a third fits
        // nowhere (40 bytes free on each switch).
        let a = core.submit(capped_spec(fp, 60)).unwrap();
        let _b = core.submit(capped_spec(fp, 60)).unwrap();
        let err = core.submit(capped_spec(fp, 60)).unwrap_err();
        assert!(matches!(err, SubmitError::Capacity(_)), "got {err:?}");
        assert!(err.to_string().starts_with("capacity: "));
        // Demand larger than any single switch is rejected outright.
        let err = core.submit(capped_spec(fp, 101)).unwrap_err();
        assert!(matches!(err, SubmitError::Capacity(_)));
        // mem=0 jobs and uncapacitated topologies are exempt.
        core.submit(capped_spec(fp, 0)).unwrap();
        core.submit(tiny_spec(1)).unwrap();
        // Cancelling an admitted job frees its switch for the next one.
        core.cancel(a).unwrap();
        core.submit(capped_spec(fp, 60)).unwrap();
    }

    #[test]
    fn capacity_batch_rejects_only_the_overflow() {
        use commsched_topology::TopologyBuilder;
        let core = small_core(16);
        let topo = TopologyBuilder::new(2, 1)
            .link(0, 1)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let (fp, _) = core.register_topology(topo);
        let out = core.submit_batch(&[
            capped_spec(fp, 90),
            capped_spec(fp, 90),
            capped_spec(fp, 90),
            capped_spec(fp, 0),
        ]);
        assert!(out[0].is_ok());
        assert!(out[1].is_ok());
        assert!(matches!(out[2], Err(SubmitError::Capacity(_))));
        assert!(out[3].is_ok(), "exempt spec must ride through: {out:?}");
    }

    #[test]
    fn capacity_released_when_jobs_finish() {
        use commsched_topology::TopologyBuilder;
        let core = small_core(16);
        let topo = TopologyBuilder::new(1, 1)
            .uniform_mem_capacity(100)
            .build()
            .unwrap();
        let (fp, _) = core.register_topology(topo);
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        let id = core.submit(capped_spec(fp, 80)).unwrap();
        while core.status(id) != Some(JobState::Done) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // The finished job's 80 bytes are free again.
        let id2 = core.submit(capped_spec(fp, 80)).unwrap();
        while core.status(id2) != Some(JobState::Done) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        core.drain();
        worker.join().unwrap();
    }

    #[test]
    fn backpressure_rejects_when_full() {
        let core = small_core(1);
        // No workers running: the first submission fills the queue.
        let id = core.submit(tiny_spec(1)).unwrap();
        assert_eq!(id, 1);
        assert_eq!(core.submit(tiny_spec(2)), Err(SubmitError::QueueFull));
        assert_eq!(core.stats.rejected(), 1);
        assert_eq!(core.status(id), Some(JobState::Queued));
    }

    #[test]
    fn batch_submit_is_per_job_admitted_and_ordered() {
        let core = small_core(3);
        let specs = vec![tiny_spec(1), tiny_spec(2), tiny_spec(3), tiny_spec(4)];
        let out = core.submit_batch(&specs);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Ok(2));
        assert_eq!(out[2], Ok(3));
        // The straddling tail bounces with queue-full, not the batch.
        assert_eq!(out[3], Err(SubmitError::QueueFull));
        assert_eq!(core.stats.rejected(), 1);
        // Empty batches are a no-op.
        assert!(core.submit_batch(&[]).is_empty());
    }

    #[test]
    fn batch_submit_of_noops_executes_instantly() {
        let core = small_core(64);
        let specs: Vec<JobSpec> = (0..16)
            .map(|_| JobSpec {
                topo: TopoRef::Paper24,
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Noop,
            })
            .collect();
        let ids: Vec<JobId> = core
            .submit_batch(&specs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        for id in ids {
            assert_eq!(core.status(id), Some(JobState::Done));
            assert_eq!(core.result_lines(id).unwrap(), vec!["noop".to_string()]);
        }
        // NOOP never resolves a topology or builds a table.
        assert_eq!(core.registry.len(), 0);
        assert_eq!(core.cache.len(), 0);
    }

    #[test]
    fn durable_batch_submit_survives_restart() {
        let dir = temp_dir("batch");
        let noop = JobSpec {
            topo: TopoRef::Paper24,
            routing: RoutingSpec::UpDown { root: 0 },
            strategy: MapStrategy::Flat,
            approx_eps_micros: 0,
            deadline_ms: None,
            mem: 0,
            kind: JobKind::Noop,
        };
        {
            let (core, _) = durable_core(&dir, 8);
            let out = core.submit_batch(&[noop, noop, noop]);
            assert!(out.iter().all(Result::is_ok), "out: {out:?}");
            // Crash with all three still queued (no worker ran).
        }
        let (core, report) = durable_core(&dir, 8);
        assert_eq!(report.recovered_jobs, 3, "report: {report:?}");
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        for id in 1..=3 {
            assert_eq!(core.status(id), Some(JobState::Done));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancel_queued_job() {
        let core = small_core(4);
        let id = core.submit(tiny_spec(1)).unwrap();
        core.cancel(id).unwrap();
        assert_eq!(core.status(id), Some(JobState::Cancelled));
        // Not cancellable twice; unknown ids reported.
        assert!(core.cancel(id).unwrap_err().contains("not-cancellable"));
        assert_eq!(core.cancel(999).unwrap_err(), "unknown-job");
        // The cancelled job never reaches a worker: drain returns with
        // nothing running.
        core.drain();
        assert_eq!(core.stats.cancelled(), 1);
    }

    #[test]
    fn worker_executes_schedule_job() {
        let core = small_core(4);
        let id = core.submit(tiny_spec(7)).unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        // Wait for completion via drain, then inspect.
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(id), Some(JobState::Done));
        let lines = core.result_lines(id).unwrap();
        let partition = lines
            .iter()
            .find_map(|l| l.strip_prefix("partition "))
            .expect("partition line");
        assert_eq!(partition.split_whitespace().count(), 4);
        assert!(lines.iter().any(|l| l.starts_with("cc ")));
        // Submissions after drain bounce.
        assert_eq!(core.submit(tiny_spec(8)), Err(SubmitError::ShuttingDown));
    }

    #[test]
    fn failed_job_reports_error() {
        let core = small_core(4);
        // 4 switches cannot host 3 equal clusters of hosts: workload
        // construction fails inside the worker.
        let bad = JobSpec {
            kind: JobKind::Schedule {
                clusters: 3,
                seed: 1,
            },
            ..tiny_spec(1)
        };
        let id = core.submit(bad).unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(id), Some(JobState::Failed));
        assert!(core.result_lines(id).unwrap_err().starts_with("job-failed"));
        assert_eq!(core.stats.failed(), 1);
    }

    #[test]
    fn repeated_jobs_hit_the_cache() {
        let core = small_core(8);
        for seed in 0..3 {
            core.submit(tiny_spec(seed)).unwrap();
        }
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.cache.misses(), 1);
        assert_eq!(core.cache.hits(), 2);
        // All three used the same registered topology.
        assert_eq!(core.registry.len(), 1);
    }

    #[test]
    fn unknown_fingerprint_fails_cleanly() {
        let core = small_core(4);
        let id = core
            .submit(JobSpec {
                topo: TopoRef::Registered(0xbad),
                ..tiny_spec(0)
            })
            .unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(id), Some(JobState::Failed));
        assert!(core
            .result_lines(id)
            .unwrap_err()
            .contains("unknown-topology"));
    }

    #[test]
    fn sweep_job_produces_points() {
        let core = small_core(4);
        let id = core
            .submit(JobSpec {
                kind: JobKind::Sweep {
                    clusters: 2,
                    seed: 1,
                    points: 3,
                },
                ..tiny_spec(1)
            })
            .unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        let lines = core.result_lines(id).unwrap();
        assert!(lines.iter().any(|l| l.starts_with("saturation ")));
        assert_eq!(lines.iter().filter(|l| l.starts_with("point ")).count(), 3);
    }

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
    fn invalid_ring_spec_fails_cleanly_without_panicking() {
        let core = small_core(4);
        // A 2-switch ring used to trip `designed::ring`'s assert inside
        // the worker and ride out through the catch_unwind backstop as a
        // `worker-panic`. Shape validation now rejects it as a plain
        // typed error before anything can panic; the backstop stays as
        // defense in depth but must not fire here.
        let bad = core
            .submit(JobSpec {
                topo: TopoRef::Ring {
                    switches: 2,
                    hosts: 1,
                },
                ..tiny_spec(1)
            })
            .unwrap();
        let good = core.submit(tiny_spec(2)).unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(bad), Some(JobState::Failed));
        let err = core.result_lines(bad).unwrap_err();
        assert!(!err.contains("worker-panic"), "error was: {err}");
        assert!(err.contains("ring needs at least 3"), "error was: {err}");
        assert_eq!(core.status(good), Some(JobState::Done));
        assert_eq!(core.stats.panicked(), 0);
        assert_eq!(core.stats.failed(), 1);
        assert_eq!(core.stats.completed(), 1);
        assert!(core.stats_lines().iter().any(|l| l == "jobs_panicked 0"));
    }

    #[test]
    fn fault_bumps_epoch_invalidates_cache_and_requeues() {
        let core = small_core(8);
        // Register paper24 and warm the cache for it by running one job.
        let first = core
            .submit(JobSpec {
                topo: TopoRef::Paper24,
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 1,
                },
            })
            .unwrap();
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        while core.status(first) != Some(JobState::Done) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let old_fp = {
            let lines = core.result_lines(first).unwrap();
            let line = lines
                .iter()
                .find_map(|l| l.strip_prefix("topology "))
                .expect("topology line");
            crate::protocol::parse_fingerprint(line).unwrap()
        };
        // A queued job against the current fingerprint, left unexecuted
        // by keeping it behind nothing (the worker is idle, so submit it
        // and apply the fault before it can resolve — retry until the
        // fault observes it still queued).
        let entries_before = core.cache.len();
        assert_eq!(entries_before, 1);
        let lines = core
            .fault(
                TopoRef::Registered(old_fp),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .unwrap();
        let get = |key: &str| -> String {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(&format!("{key} ")))
                .unwrap_or_else(|| panic!("missing {key} in {lines:?}"))
                .to_string()
        };
        assert_eq!(get("event"), "link-down 0:1");
        assert_eq!(get("epoch"), "1");
        assert_eq!(get("previous"), format_fingerprint(old_fp));
        assert_eq!(get("connected"), "true");
        assert_eq!(get("invalidated"), "1");
        assert_eq!(get("refreshed"), "1");
        let new_fp = crate::protocol::parse_fingerprint(&get("topology")).unwrap();
        assert_ne!(new_fp, old_fp);
        // The repaired entry replaced the stale one under the new key.
        assert_eq!(core.cache.len(), 1);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("repair updown:0 pairs ")));
        // The old fingerprint is now a typed stale-epoch failure...
        let stale = core
            .resolve_topology(TopoRef::Registered(old_fp))
            .unwrap_err();
        assert!(stale.starts_with("stale-epoch:"), "got: {stale}");
        assert!(stale.contains(&format_fingerprint(new_fp)), "got: {stale}");
        // ...and the successor resolves (chains collapse to the tip).
        assert_eq!(core.current_epoch_of(old_fp), new_fp);
        core.resolve_topology(TopoRef::Registered(new_fp)).unwrap();
        // A job against the new fingerprint completes on the repaired
        // table without a rebuild: the refresh already paid the miss.
        let misses_before = core.cache.misses();
        let follow = core
            .submit(JobSpec {
                topo: TopoRef::Registered(new_fp),
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 2,
                },
            })
            .unwrap();
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(follow), Some(JobState::Done));
        assert_eq!(core.cache.misses(), misses_before);
    }

    #[test]
    fn fault_requeues_queued_jobs_onto_the_successor() {
        let core = small_core(8);
        let (fp, _) = core.registry.register(designed::paper_24_switch());
        // No worker is running: the job stays queued across the fault.
        let queued = core
            .submit(JobSpec {
                topo: TopoRef::Registered(fp),
                routing: RoutingSpec::UpDown { root: 0 },
                strategy: MapStrategy::Flat,
                approx_eps_micros: 0,
                deadline_ms: None,
                mem: 0,
                kind: JobKind::Schedule {
                    clusters: 4,
                    seed: 3,
                },
            })
            .unwrap();
        let lines = core
            .fault(
                TopoRef::Registered(fp),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .unwrap();
        assert!(lines.iter().any(|l| l == "requeued 1"), "lines: {lines:?}");
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        // The retargeted job ran against the successor epoch.
        assert_eq!(core.status(queued), Some(JobState::Done));
        let new_fp = core.current_epoch_of(fp);
        let lines = core.result_lines(queued).unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l == &format!("topology {}", format_fingerprint(new_fp))),
            "lines: {lines:?}"
        );
    }

    #[test]
    fn fault_on_unknown_or_invalid_input_is_rejected() {
        let core = small_core(4);
        let err = core
            .fault(
                TopoRef::Registered(0xbad),
                &FaultEvent::LinkDown { a: 0, b: 1 },
            )
            .unwrap_err();
        assert!(err.contains("unknown-topology"), "got: {err}");
        let err = core
            .fault(TopoRef::Paper24, &FaultEvent::LinkDown { a: 0, b: 99 })
            .unwrap_err();
        assert!(err.starts_with("fault-rejected:"), "got: {err}");
        // A rejected event changes nothing: the topology stays current.
        let fp = core.registry.register(designed::paper_24_switch()).0;
        assert_eq!(core.current_epoch_of(fp), fp);
    }

    #[test]
    fn restore_walks_the_epoch_chain_back_without_cycles() {
        let core = small_core(4);
        let (fp0, _) = core.registry.register(designed::paper_24_switch());
        core.fault(
            TopoRef::Registered(fp0),
            &FaultEvent::LinkDown { a: 0, b: 1 },
        )
        .unwrap();
        let fp1 = core.current_epoch_of(fp0);
        assert_ne!(fp1, fp0);
        // Restoring the wire brings back the original fingerprint as the
        // current epoch; resolving either fingerprint must terminate.
        core.fault(
            TopoRef::Registered(fp1),
            &FaultEvent::LinkUp {
                a: 0,
                b: 1,
                slowdown: 1,
            },
        )
        .unwrap();
        assert_eq!(core.current_epoch_of(fp1), fp0);
        assert_eq!(core.current_epoch_of(fp0), fp0);
        core.resolve_topology(TopoRef::Registered(fp0)).unwrap();
        assert!(core
            .resolve_topology(TopoRef::Registered(fp1))
            .unwrap_err()
            .starts_with("stale-epoch:"));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("commsched-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_core(
        dir: &std::path::Path,
        queue_capacity: usize,
    ) -> (Arc<ServiceCore>, RecoveryReport) {
        let (core, report) = ServiceCore::recover(
            ServiceCoreConfig {
                queue_capacity,
                cache_capacity: 4,
                search_seeds: 2,
                search_threads: 1,
                table_threads: 1,
            },
            PersistOptions::new(dir),
        )
        .unwrap();
        (Arc::new(core), report)
    }

    #[test]
    fn durable_core_recovers_done_queued_and_cached_state() {
        let dir = temp_dir("recover");
        // Session 1: run one job to completion, then drain cleanly.
        let done_result = {
            let (core, report) = durable_core(&dir, 8);
            assert_eq!(report.recovered_jobs, 0);
            let done = core.submit(tiny_spec(1)).unwrap();
            let worker = {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.worker_loop())
            };
            core.drain();
            worker.join().unwrap();
            assert_eq!(core.status(done), Some(JobState::Done));
            core.result_lines(done).unwrap()
        };
        // Session 2: leave a job queued (no worker), then "crash".
        {
            let (core, report) = durable_core(&dir, 8);
            assert!(report.snapshot_records > 0, "report: {report:?}");
            let queued = core.submit(tiny_spec(2)).unwrap();
            assert_eq!(queued, 2);
            assert_eq!(core.status(queued), Some(JobState::Queued));
        }
        // Session 3: the finished job survives verbatim, the queued one
        // requeues, and the cached table restores without a rebuild.
        let (core, report) = durable_core(&dir, 8);
        assert_eq!(report.recovered_jobs, 1, "report: {report:?}");
        assert_eq!(core.stats.recovered(), 1);
        assert_eq!(core.status(1), Some(JobState::Done));
        assert_eq!(core.result_lines(1).unwrap(), done_result);
        assert_eq!(core.status(2), Some(JobState::Queued));
        assert_eq!(report.restored_tables, 1, "report: {report:?}");
        assert_eq!(core.cache.len(), 1);
        // Fresh ids continue past everything ever issued.
        assert_eq!(core.submit(tiny_spec(3)).unwrap(), 3);
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(2), Some(JobState::Done));
        assert_eq!(core.status(3), Some(JobState::Done));
        // Both jobs ran entirely off the restored table.
        assert_eq!(core.cache.misses(), 0);
        assert_eq!(core.cache.hits(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_requeues_onto_the_faulted_successor() {
        let dir = temp_dir("fault-recover");
        let spec_for = |fp: u64, seed: u64| JobSpec {
            topo: TopoRef::Registered(fp),
            routing: RoutingSpec::UpDown { root: 0 },
            strategy: MapStrategy::Flat,
            approx_eps_micros: 0,
            deadline_ms: None,
            mem: 0,
            kind: JobKind::Schedule { clusters: 4, seed },
        };
        // Session 1: register paper24, warm its cache, drain.
        let old_fp = {
            let (core, _) = durable_core(&dir, 8);
            let (fp, fresh) = core.register_topology(designed::paper_24_switch());
            assert!(fresh);
            let warm = core.submit(spec_for(fp, 1)).unwrap();
            let worker = {
                let core = Arc::clone(&core);
                std::thread::spawn(move || core.worker_loop())
            };
            core.drain();
            worker.join().unwrap();
            assert_eq!(core.status(warm), Some(JobState::Done));
            fp
        };
        // Session 2: queue a job against the old fingerprint, apply a
        // fault — the repair must work off the *restored* table, not a
        // rebuild — then crash with the job still queued.
        {
            let (core, report) = durable_core(&dir, 8);
            assert_eq!(report.restored_tables, 1, "report: {report:?}");
            core.submit(spec_for(old_fp, 2)).unwrap();
            let lines = core
                .fault(
                    TopoRef::Registered(old_fp),
                    &FaultEvent::LinkDown { a: 0, b: 1 },
                )
                .unwrap();
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with("repair updown:0 pairs ")),
                "post-restart fault must repair incrementally: {lines:?}"
            );
        }
        // Session 3: the queued job replays retargeted at the successor
        // and runs off the repaired (and restored) table.
        let (core, report) = durable_core(&dir, 8);
        assert_eq!(report.recovered_jobs, 1, "report: {report:?}");
        assert_eq!(report.retargeted_jobs, 1, "report: {report:?}");
        let new_fp = core.current_epoch_of(old_fp);
        assert_ne!(new_fp, old_fp);
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.worker_loop())
        };
        core.drain();
        worker.join().unwrap();
        assert_eq!(core.status(2), Some(JobState::Done));
        let lines = core.result_lines(2).unwrap();
        assert!(
            lines
                .iter()
                .any(|l| l == &format!("topology {}", format_fingerprint(new_fp))),
            "lines: {lines:?}"
        );
        assert_eq!(core.cache.misses(), 0, "successor table should restore");
        std::fs::remove_dir_all(&dir).unwrap();
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
