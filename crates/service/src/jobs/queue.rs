//! The bounded job queue: admission, status, cancellation, drain, and
//! the worker loop that takes jobs off it and settles their outcomes.

use super::{JobId, JobRecord, JobState, ServiceCore, SubmitError};
use crate::persist::state as pstate;
use crate::protocol::JobSpec;
use std::sync::Arc;
use std::time::Instant;

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

impl ServiceCore {
    /// Enqueue a job: a batch of one through [`Self::submit_batch`].
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] while draining,
    /// [`SubmitError::Persist`] when the accept record could not be
    /// logged.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_batch(&[spec])
            .pop()
            .expect("one outcome per spec")
    }

    /// Enqueue many jobs at once, returning per-job outcomes in
    /// submission order. This is the daemon's one admission path. The
    /// point of batching: on a durable core every accept record of the
    /// batch shares ONE WAL critical section, one `write(2)` and (under
    /// an fsync-on-ack policy) one `fsync` — the dominant per-submit
    /// cost at high rates. Admission (the queue bound, drain) is still
    /// per job, so a batch that straddles the queue bound gets a
    /// `queue-full` tail instead of an all-or-nothing bounce. It is the
    /// daemon's only admission rule: a job is placed on switches by its
    /// search, never online. An in-memory core runs the same phases; its
    /// log step writes nothing.
    pub fn submit_batch(&self, specs: &[JobSpec]) -> Vec<Result<JobId, SubmitError>> {
        // Phase 1: admission + id reservation for every job under one
        // brief queue lock (`out[i]` corresponds to `specs[i]`). The
        // reservation holds the queue slot while the accept records are
        // written without the lock, so backpressure stays exact.
        let mut out: Vec<Result<JobId, SubmitError>> = Vec::with_capacity(specs.len());
        let mut accepted: Vec<(usize, JobId)> = Vec::new();
        {
            let mut state = self.state.lock().expect("queue lock");
            for i in 0..specs.len() {
                let rejection = if !state.accepting {
                    Some(SubmitError::ShuttingDown)
                } else if state.pending.len() + state.reserved >= self.config.queue_capacity {
                    Some(SubmitError::QueueFull)
                } else {
                    None
                };
                if let Some(e) = rejection {
                    self.stats.note_rejected();
                    out.push(Err(e));
                    continue;
                }
                let id = state.next_id;
                state.next_id += 1;
                state.reserved += 1;
                accepted.push((i, id));
                out.push(Ok(id));
            }
        }
        if accepted.is_empty() {
            return out;
        }
        // Phases 2+3 under the WAL lock: the durable accept records (one
        // buffered append, one policy fsync for the whole batch) and the
        // in-memory enqueue are one atomic step as far as a concurrent
        // snapshot is concerned, so an acknowledged job can never fall
        // into the gap between a truncated WAL and a snapshot image
        // captured before the insert.
        let records: Vec<String> = accepted
            .iter()
            .map(|&(i, id)| pstate::record_accept(id, &specs[i]))
            .collect();
        let withdrawn = self.logged(|log| {
            let appended = log.append(&records);
            let mut state = self.state.lock().expect("queue lock");
            state.reserved -= accepted.len();
            let failure = match appended {
                Err(e) => SubmitError::Persist(e.to_string()),
                // Raced with drain between the two queue-lock sections.
                Ok(()) if !state.accepting => SubmitError::ShuttingDown,
                Ok(()) => {
                    // One clock read: every job of the batch was
                    // accepted at the same instant.
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
                    }
                    return None;
                }
            };
            drop(state);
            // Withdraw every id: cancels the logged accepts (drain race)
            // or neutralizes whatever torn prefix of the batch may have
            // reached the disk (failed append).
            let cancels: Vec<String> = accepted
                .iter()
                .map(|&(_, id)| pstate::record_cancel(id))
                .collect();
            let _ = log.append(&cancels);
            Some(failure)
        });
        for &(i, _) in &accepted {
            match &withdrawn {
                None => self.stats.note_submitted(),
                Some(e) => {
                    out[i] = Err(e.clone());
                    self.stats.note_rejected();
                }
            }
        }
        self.work_cv.notify_all();
        // Ack-means-replicated: no id is returned (and no OK goes out)
        // until the accept records have reached the followers. One
        // barrier covers the whole batch.
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
        // The guarded transition and its record share one WAL critical
        // section, so a concurrent snapshot cannot capture the job as
        // cancelled and then truncate the record away (or vice versa).
        self.logged(|log| {
            let mut state = self.state.lock().expect("queue lock");
            match state.jobs.get(&id).map(|rec| rec.state) {
                None => return Err("unknown-job".to_string()),
                Some(JobState::Queued) => {}
                Some(other) => return Err(format!("not-cancellable ({other})")),
            }
            state.pending.retain(|&p| p != id);
            state.jobs.get_mut(&id).expect("checked above").state = JobState::Cancelled;
            self.stats.note_cancelled();
            self.done_cv.notify_all();
            drop(state);
            let _ = log.append(&[pstate::record_cancel(id)]);
            Ok(())
        })?;
        self.repl_barrier();
        Ok(())
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
            // The outcome is logged and visible; what is left is
            // housekeeping no client waits for.
            self.spill_if_due();
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
        self.logged(|log| {
            // Best-effort: a failed append must not abandon the job in
            // `Running` (that would deadlock `drain`).
            let _ = log.append(&[record]);
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
        });
        // A finish visible here must be visible after failover: a
        // promoted follower must never re-run a job whose completion a
        // client already observed via STATUS.
        self.repl_barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{small_core, tiny_spec};
    use super::*;
    use crate::cache::RoutingSpec;
    use crate::protocol::{JobKind, TopoRef};
    use commsched_search::MapStrategy;

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
}
