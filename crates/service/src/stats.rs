//! Service-level counters and latency histograms.
//!
//! Since the telemetry subsystem landed, this is a *view* over a
//! per-core [`Registry`]: every counter and histogram lives in the
//! registry (so `METRICS` exposes it in Prometheus form) and the
//! methods here are the service's typed handles onto those cells. Each
//! [`ServiceStats`] owns a private registry, so concurrently running
//! cores — the unit tests spin up several per process — never observe
//! each other's counts.

use commsched_net::NetMetrics;
use commsched_telemetry::{Counter, Gauge, Histo, Registry};

/// Counters and histograms accumulated over the daemon's lifetime,
/// reported by the `STATS` request and exposed by `METRICS`. All
/// methods are thread-safe.
pub struct ServiceStats {
    registry: Registry,
    submitted: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    rejected: Counter,
    panicked: Counter,
    /// Jobs requeued by crash recovery at startup.
    recovered: Counter,
    /// Bytes currently in the write-ahead log (0 without persistence).
    wal_bytes: Gauge,
    /// Wall time of the most recent compacting snapshot.
    snapshot_nanos: Gauge,
    /// Distance tables written to the spill directory.
    table_spills: Counter,
    /// Bytes of table files written.
    table_spill_bytes: Counter,
    /// Wall time of the most recent spill (encode + write).
    table_spill_nanos: Gauge,
    /// Wall time recovery spent reading and decoding the spill files.
    table_restore_nanos: Gauge,
    /// Tables restored from spill files at startup instead of being
    /// rebuilt.
    table_restores: Counter,
    /// Spill writes that failed plus table files rejected at recovery.
    table_spill_errors: Counter,
    /// Coarsening levels of the most recent multilevel job.
    ml_levels: Gauge,
    /// Refinement swaps applied across all multilevel jobs.
    ml_refine_moves: Counter,
    /// Time jobs spent queued before a worker picked them up.
    queue_wait_ms: Histo,
    /// Worker execution time.
    run_ms: Histo,
    /// Event-loop front-end metrics (connections, frames, bytes,
    /// pipeline depth), registered in the same registry.
    net: NetMetrics,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    /// Fresh zeroed stats backed by a private metric registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let submitted = registry.counter(
            "service_jobs_submitted_total",
            "Jobs accepted into the queue",
        );
        let completed =
            registry.counter("service_jobs_completed_total", "Jobs finished successfully");
        let failed = registry.counter("service_jobs_failed_total", "Jobs that ended in an error");
        let cancelled = registry.counter(
            "service_jobs_cancelled_total",
            "Jobs cancelled while queued",
        );
        let rejected = registry.counter(
            "service_jobs_rejected_total",
            "Submissions bounced by backpressure or drain",
        );
        let panicked = registry.counter(
            "service_jobs_panicked_total",
            "Jobs whose worker panicked (caught; worker survived)",
        );
        let recovered = registry.counter(
            "service_recovered_jobs_total",
            "Jobs requeued by crash recovery at startup",
        );
        let wal_bytes = registry.gauge(
            "service_wal_bytes",
            "Bytes currently in the write-ahead log",
        );
        let snapshot_nanos = registry.gauge(
            "service_snapshot_nanos",
            "Wall time of the most recent compacting snapshot, in nanoseconds",
        );
        let table_spills = registry.counter(
            "service_table_spills_total",
            "Distance tables written to the spill directory",
        );
        let table_spill_bytes = registry.counter(
            "service_table_spill_bytes_total",
            "Bytes of distance-table spill files written",
        );
        let table_spill_nanos = registry.gauge(
            "service_table_spill_nanos",
            "Wall time of the most recent table spill (encode + write), in nanoseconds",
        );
        let table_restore_nanos = registry.gauge(
            "service_table_restore_nanos",
            "Wall time startup recovery spent reading and decoding table spill files, in nanoseconds",
        );
        let table_restores = registry.counter(
            "service_table_restores_total",
            "Distance tables restored at startup instead of rebuilt",
        );
        let table_spill_errors = registry.counter(
            "service_table_spill_errors_total",
            "Table spill writes that failed plus spill files rejected at recovery",
        );
        let ml_levels = registry.gauge(
            "service_ml_levels",
            "Coarsening levels of the most recent multilevel mapping job",
        );
        let ml_refine_moves = registry.counter(
            "service_ml_refine_moves_total",
            "Refinement swaps applied across all multilevel mapping jobs",
        );
        let queue_wait_ms = registry.histogram(
            "service_job_queue_wait_ms",
            "Milliseconds jobs spent queued before a worker picked them up",
        );
        let run_ms = registry.histogram(
            "service_job_run_ms",
            "Milliseconds workers spent executing jobs",
        );
        let net = NetMetrics::register(&registry);
        Self {
            registry,
            submitted,
            completed,
            failed,
            cancelled,
            rejected,
            panicked,
            recovered,
            wal_bytes,
            snapshot_nanos,
            table_spills,
            table_spill_bytes,
            table_spill_nanos,
            table_restore_nanos,
            table_restores,
            table_spill_errors,
            ml_levels,
            ml_refine_moves,
            queue_wait_ms,
            run_ms,
            net,
        }
    }

    /// The event-loop metric handles (updated by the TCP front end).
    pub fn net(&self) -> &NetMetrics {
        &self.net
    }

    /// The backing registry (for Prometheus exposition by `METRICS`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Count an accepted submission.
    pub fn note_submitted(&self) {
        self.submitted.inc();
    }

    /// Count a submission bounced by backpressure.
    pub fn note_rejected(&self) {
        self.rejected.inc();
    }

    /// Count a cancelled queued job.
    pub fn note_cancelled(&self) {
        self.cancelled.inc();
    }

    /// Count a worker panic (the job is also recorded as failed via
    /// [`ServiceStats::note_finished`]).
    pub fn note_panicked(&self) {
        self.panicked.inc();
    }

    /// Count a job finishing, with its queue-wait and run durations.
    pub fn note_finished(&self, ok: bool, queue_wait_ms: f64, run_ms: f64) {
        if ok {
            self.completed.inc();
        } else {
            self.failed.inc();
        }
        self.queue_wait_ms.record(queue_wait_ms.max(0.0) as u64);
        self.run_ms.record(run_ms.max(0.0) as u64);
    }

    /// Jobs accepted into the queue so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.get()
    }

    /// Jobs finished successfully.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Jobs that ended in an error.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Jobs cancelled while queued.
    pub fn cancelled(&self) -> u64 {
        self.cancelled.get()
    }

    /// Submissions rejected because the queue was full.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// Jobs whose worker panicked (caught and reported as failed).
    pub fn panicked(&self) -> u64 {
        self.panicked.get()
    }

    /// Count jobs requeued by crash recovery.
    pub fn note_recovered(&self, jobs: u64) {
        self.recovered.add(jobs);
    }

    /// Jobs requeued by crash recovery since startup.
    pub fn recovered(&self) -> u64 {
        self.recovered.get()
    }

    /// Record the current WAL size.
    pub fn set_wal_bytes(&self, bytes: u64) {
        self.wal_bytes.set(i64::try_from(bytes).unwrap_or(i64::MAX));
    }

    /// Bytes currently in the write-ahead log.
    pub fn wal_bytes(&self) -> u64 {
        u64::try_from(self.wal_bytes.get()).unwrap_or(0)
    }

    /// Record the duration of the most recent compacting snapshot.
    pub fn set_snapshot_nanos(&self, nanos: u64) {
        self.snapshot_nanos
            .set(i64::try_from(nanos).unwrap_or(i64::MAX));
    }

    /// Wall time of the most recent compacting snapshot, in nanoseconds.
    pub fn snapshot_nanos(&self) -> u64 {
        u64::try_from(self.snapshot_nanos.get()).unwrap_or(0)
    }

    /// Count one spill pass: tables and bytes written, failures, and
    /// (when anything was written) how long the pass took.
    pub fn note_table_spill(&self, tables: u64, bytes: u64, errors: u64, nanos: u64) {
        self.table_spills.add(tables);
        self.table_spill_bytes.add(bytes);
        self.table_spill_errors.add(errors);
        if tables > 0 {
            self.table_spill_nanos
                .set(i64::try_from(nanos).unwrap_or(i64::MAX));
        }
    }

    /// Count what recovery made of the spill store: tables restored
    /// without a rebuild, table files (or legacy in-log records) it
    /// rejected, and how long reading the files took.
    pub fn note_table_recovery(&self, restored: u64, rejected: u64, load_nanos: u64) {
        self.table_restores.add(restored);
        self.table_spill_errors.add(rejected);
        self.table_restore_nanos
            .set(i64::try_from(load_nanos).unwrap_or(i64::MAX));
    }

    /// Distance tables written to the spill directory.
    pub fn table_spills(&self) -> u64 {
        self.table_spills.get()
    }

    /// Tables restored at startup instead of rebuilt.
    pub fn table_restores(&self) -> u64 {
        self.table_restores.get()
    }

    /// Failed spill writes plus table files rejected at recovery.
    pub fn table_spill_errors(&self) -> u64 {
        self.table_spill_errors.get()
    }

    /// Record the shape of a finished multilevel mapping job.
    pub fn note_multilevel(&self, levels: u64, refine_moves: u64) {
        self.ml_levels
            .set(i64::try_from(levels).unwrap_or(i64::MAX));
        self.ml_refine_moves.add(refine_moves);
    }

    /// Coarsening levels of the most recent multilevel job.
    pub fn ml_levels(&self) -> u64 {
        u64::try_from(self.ml_levels.get()).unwrap_or(0)
    }

    /// Refinement swaps applied across all multilevel jobs.
    pub fn ml_refine_moves(&self) -> u64 {
        self.ml_refine_moves.get()
    }

    /// `key value` lines for the `STATS` response (the caller appends
    /// queue gauges and cache counters it owns).
    pub fn report_lines(&self) -> Vec<String> {
        let mut out = vec![
            format!("jobs_submitted {}", self.submitted()),
            format!("jobs_completed {}", self.completed()),
            format!("jobs_failed {}", self.failed()),
            format!("jobs_cancelled {}", self.cancelled()),
            format!("jobs_rejected {}", self.rejected()),
            format!("jobs_panicked {}", self.panicked()),
            format!("jobs_recovered {}", self.recovered()),
            format!("wal_bytes {}", self.wal_bytes()),
            format!("snapshot_nanos {}", self.snapshot_nanos()),
            format!("table_spills {}", self.table_spills()),
            format!("table_spill_bytes {}", self.table_spill_bytes.get()),
            format!("table_spill_nanos {}", self.table_spill_nanos.get()),
            format!("table_restore_nanos {}", self.table_restore_nanos.get()),
            format!("table_restores {}", self.table_restores()),
            format!("table_spill_errors {}", self.table_spill_errors()),
            format!("ml_levels {}", self.ml_levels()),
            format!("ml_refine_moves {}", self.ml_refine_moves()),
            format!("net_connections_open {}", self.net.connections_open.get()),
            format!("net_frames_rx {}", self.net.frames_rx.get()),
            format!("net_frames_tx {}", self.net.frames_tx.get()),
            format!("net_bytes_rx {}", self.net.bytes_rx.get()),
            format!("net_bytes_tx {}", self.net.bytes_tx.get()),
            format!("net_busy_rejections {}", self.net.busy_rejections.get()),
            format!("net_idle_closed {}", self.net.idle_closed.get()),
        ];
        for (name, hist) in [
            ("queue_wait_ms", &self.queue_wait_ms),
            ("run_ms", &self.run_ms),
            ("net_pipeline_depth", &self.net.pipeline_depth),
        ] {
            out.push(format!("{name}_count {}", hist.count()));
            for q in [0.5, 0.9] {
                let tag = (q * 100.0) as u32;
                match hist.approx_quantile(q) {
                    Some(v) => out.push(format!("{name}_p{tag} {v:.1}")),
                    None => out.push(format!("{name}_p{tag} nan")),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ServiceStats::new();
        s.note_submitted();
        s.note_submitted();
        s.note_rejected();
        s.note_cancelled();
        s.note_finished(true, 5.0, 120.0);
        s.note_finished(false, 1.0, 3.0);
        s.note_panicked();
        s.note_recovered(3);
        s.set_wal_bytes(4096);
        s.set_snapshot_nanos(1_500_000);
        s.note_table_spill(2, 4096, 1, 7_000);
        s.note_table_spill(0, 0, 0, 9_000); // nothing written: "last" stays
        s.note_table_recovery(3, 2, 11_000);
        s.note_multilevel(3, 17);
        s.note_multilevel(2, 5);

        assert_eq!(s.submitted(), 2);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.cancelled(), 1);
        assert_eq!(s.completed(), 1);
        assert_eq!(s.failed(), 1);
        assert_eq!(s.panicked(), 1);
        assert_eq!(s.recovered(), 3);
        assert_eq!(s.wal_bytes(), 4096);
        assert_eq!(s.snapshot_nanos(), 1_500_000);
        assert_eq!(s.table_spills(), 2);
        assert_eq!(s.table_restores(), 3);
        assert_eq!(s.table_spill_errors(), 3);
        let lines = s.report_lines();
        assert!(lines.contains(&"table_spill_bytes 4096".to_string()));
        assert!(lines.contains(&"table_spill_nanos 7000".to_string()));
        assert!(lines.contains(&"table_restore_nanos 11000".to_string()));
        assert_eq!(s.ml_levels(), 2);
        assert_eq!(s.ml_refine_moves(), 22);
    }

    #[test]
    fn report_lists_all_keys() {
        let s = ServiceStats::new();
        s.note_finished(true, 10.0, 20.0);
        let lines = s.report_lines();
        let joined = lines.join("\n");
        for key in [
            "jobs_submitted",
            "jobs_completed",
            "jobs_failed",
            "jobs_cancelled",
            "jobs_rejected",
            "jobs_panicked",
            "jobs_recovered",
            "wal_bytes",
            "snapshot_nanos",
            "table_spills",
            "table_spill_bytes",
            "table_spill_nanos",
            "table_restore_nanos",
            "table_restores",
            "table_spill_errors",
            "ml_levels",
            "ml_refine_moves",
            "queue_wait_ms_count",
            "queue_wait_ms_p50",
            "run_ms_p90",
        ] {
            assert!(joined.contains(key), "missing {key} in {joined}");
        }
    }

    #[test]
    fn registry_exposes_the_same_counts() {
        let s = ServiceStats::new();
        s.note_submitted();
        s.note_finished(true, 12.0, 34.0);
        let text = s.registry().render_prometheus();
        assert!(text.contains("service_jobs_submitted_total 1"));
        assert!(text.contains("service_jobs_completed_total 1"));
        assert!(text.contains("service_job_run_ms_count 1"));
        // A second core's stats are isolated.
        let other = ServiceStats::new();
        assert_eq!(other.submitted(), 0);
    }

    #[test]
    fn quantiles_are_log_bucket_approximations() {
        let s = ServiceStats::new();
        for _ in 0..10 {
            s.note_finished(true, 100.0, 1000.0);
        }
        let joined = s.report_lines().join("\n");
        // All samples equal: p50 and p90 are the same bucket midpoint,
        // within the layout's relative-error bound of the true value.
        let p50: f64 = joined
            .lines()
            .find_map(|l| l.strip_prefix("run_ms_p50 "))
            .unwrap()
            .parse()
            .unwrap();
        assert!((p50 - 1000.0).abs() / 1000.0 < 0.2, "p50 = {p50}");
    }
}
