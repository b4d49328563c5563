//! Startup recovery of a durable core, and its inverse: the snapshot
//! records that re-emit live state in the grammar recovery reads.

use super::{JobId, JobRecord, JobState, ServiceCore, ServiceCoreConfig};
use crate::cache::RoutedTable;
use crate::persist::{state as pstate, PersistError, PersistOptions, Persistence, RecoveryReport};
use crate::protocol::TopoRef;
use std::sync::Arc;
use std::time::Instant;

impl ServiceCore {
    /// Open (or create) a state directory and rebuild a core from it:
    /// load the snapshot, replay the WAL on top (dropping a torn tail),
    /// read the table spill files (dropping damaged ones and ones in an
    /// older format), restore the
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
        // Tables come from the spill store alone. A `cache` record an
        // older daemon left in the log was skipped above and counts with
        // the files that could not be read: each costs one rebuild.
        let load_started = Instant::now();
        let mut rejected = persistence.tables().load_into(&mut recovered);
        let load_nanos = u64::try_from(load_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        rejected += recovered.skipped_cache_records;

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
        // Restored tables are bit-exact (a spill file holds the table's
        // `f64::to_bits`), so post-restart faults still take the
        // incremental-repair path instead of a full rebuild.
        for ((fp, spec, tspec), table) in recovered.tables {
            // No job can name a fingerprint a fault has superseded.
            if recovered.successor.contains_key(&fp) {
                continue;
            }
            let Some(Ok(routing)) = core.registry.get(fp).map(|t| spec.build(&t)) else {
                rejected += 1;
                continue;
            };
            core.cache.insert_ready(
                (fp, spec, tspec),
                Arc::new(RoutedTable {
                    routing,
                    table: table.into_shared(),
                }),
            );
            report.restored_tables += 1;
        }
        core.stats
            .note_table_recovery(report.restored_tables as u64, rejected, load_nanos);
        // One file per restored table and nothing else: whatever was
        // rejected above is deleted here.
        core.spill_tables();
        core.write_snapshot(core.persist.as_ref().expect("persistence set"))?;
        Ok((core, report))
    }

    /// Serialize the whole durable state as snapshot records: the
    /// small authoritative ones only — cached tables are rebuildable
    /// and live in the spill store. Called with the WAL lock held by
    /// the snapshot machinery; takes the registry, epoch, and queue
    /// locks internally (allowed: WAL-before-state order).
    pub(super) fn snapshot_records(&self) -> Vec<String> {
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
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{durable_core, temp_dir, tiny_spec};
    use super::*;
    use crate::cache::RoutingSpec;
    use crate::protocol::{format_fingerprint, JobKind, JobSpec};
    use commsched_search::MapStrategy;
    use commsched_topology::{designed, FaultEvent};

    #[test]
    fn durable_batch_submit_survives_restart() {
        let dir = temp_dir("batch");
        let noop = JobSpec {
            topo: TopoRef::Paper24,
            routing: RoutingSpec::UpDown { root: 0 },
            strategy: MapStrategy::Flat,
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
}
