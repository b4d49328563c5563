//! Driving the live daemon: set-up (spawn, uploads, cache warm-up) and
//! the closed-loop timed window.

use crate::daemon::Daemon;
use crate::span::{Span, SpanLog};
use crate::workload::{Inputs, JobPlan, Spec, TopoUse};
use commsched_service::{Client, ClientError};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop connections of a loaded window: callers that block on a
/// mapping, one per core of the reference box and per daemon worker.
pub const CONNECTIONS: usize = 2;
/// `Client::wait` poll interval.
pub const POLL: Duration = Duration::from_millis(1);
/// A window in which no job finishes for this long is declared stalled:
/// the daemon is killed so every blocked call fails instead of hanging.
const STALL: Duration = Duration::from_secs(30);

/// A daemon that is up, has the workload's networks registered and its
/// warm set cached.
pub struct Ready {
    pub daemon: Daemon,
    /// Fingerprints of the networks the set-up uploaded.
    pub fingerprints: BTreeMap<TopoUse, u64>,
    /// Spawn to the last warm-up result.
    pub setup_s: f64,
}

fn err(e: ClientError) -> String {
    e.to_string()
}

/// Spawn a daemon and bring it to the state the timed window starts
/// from.
///
/// # Errors
/// Spawn, upload or warm-up failure; the daemon is reaped on the way out.
pub fn set_up(bin: &Path, scratch: &Path, spec: &Spec, inputs: &Inputs) -> Result<Ready, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, scratch)?;
    let mut client = Client::connect(daemon.addr()).map_err(err)?;
    let warm_set = spec.warm_set();
    let mut fingerprints = BTreeMap::new();
    for (k, topo) in inputs.pool.iter().enumerate() {
        // A cold workload's jobs upload their own networks.
        if !spec.cold || warm_set.contains(&TopoUse::Pool(k)) {
            fingerprints.insert(TopoUse::Pool(k), client.add_topology(topo).map_err(err)?);
        }
    }
    let warm: Vec<u64> = warm_set
        .into_iter()
        .map(|which| {
            client
                .submit_raw(&spec.warm_args(&topo_ref(which, &fingerprints)))
                .map_err(err)
        })
        .collect::<Result<_, _>>()?;
    for id in warm {
        let state = client.wait(id, POLL).map_err(err)?;
        if state != "done" {
            return Err(format!("warm-up job {id} ended {state}"));
        }
    }
    Ok(Ready {
        daemon,
        fingerprints,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn topo_ref(which: TopoUse, fingerprints: &BTreeMap<TopoUse, u64>) -> String {
    match which {
        TopoUse::Paper24 => "paper24".to_string(),
        TopoUse::Pool(_) => format!("fp:{:016x}", fingerprints[&which]),
    }
}

/// One attempted job.
#[derive(Debug, Clone)]
pub struct Sample {
    pub plan: JobPlan,
    /// `submit_raw` call to its durable `OK <id>`.
    pub ack_ms: f64,
    /// First request of the job (ADDTOPO when it uploads, else SUBMIT)
    /// to the return of `RESULT`. Meaningless when `outcome` is `Err`.
    pub result_ms: f64,
    /// The `RESULT` payload, or why there is none.
    pub outcome: Result<Vec<String>, String>,
}

pub struct Window {
    pub samples: Vec<Sample>,
    /// Window start to the last job's result.
    pub elapsed_s: f64,
    pub spans: Vec<Span>,
}

/// What bounds a window and whether its jobs are traced.
pub struct WindowPlan {
    /// Closed-loop connections: [`CONNECTIONS`] for a loaded window, 1
    /// for a solo one (each job has the daemon and the box to itself).
    pub connections: usize,
    /// Index of the first job; later windows of a run continue the
    /// sequence so no job repeats.
    pub first_index: u64,
    /// Stop starting new jobs after this long.
    pub duration: Duration,
    /// Record client-side spans against this epoch.
    pub trace_epoch: Option<Instant>,
}

/// Run one job over `client`.
fn run_job(
    client: &mut Client,
    spec: &Spec,
    inputs: &Inputs,
    ready: &Ready,
    plan: &JobPlan,
    log: Option<&mut SpanLog>,
) -> Sample {
    let t0 = Instant::now();
    let mut marks = [t0; 3];
    let mut ack_ms = f64::NAN;
    let mut go = || -> Result<Vec<String>, ClientError> {
        let topo_ref = if spec.cold {
            format!(
                "fp:{:016x}",
                client.add_topology(inputs.topology(plan.topo))?
            )
        } else {
            topo_ref(plan.topo, &ready.fingerprints)
        };
        let args = spec.submit_args(plan, &topo_ref);
        let t_submit = Instant::now();
        let id = client.submit_raw(&args)?;
        marks[0] = Instant::now();
        ack_ms = marks[0].duration_since(t_submit).as_secs_f64() * 1e3;
        let state = client.wait(id, POLL)?;
        marks[1] = Instant::now();
        // A job that did not end `done` has its reason in RESULT's error.
        let lines = client.result(id)?;
        marks[2] = Instant::now();
        if state == "done" {
            Ok(lines)
        } else {
            Err(ClientError::Server(format!("job ended {state}")))
        }
    };
    let outcome = go().map_err(err);
    let end = Instant::now();
    if let (Some(log), Ok(_)) = (log, &outcome) {
        let job = log.open_root();
        log.child("client.submit", plan.index, job, t0, marks[0]);
        log.child("client.wait", plan.index, job, marks[0], marks[1]);
        log.child("client.result", plan.index, job, marks[1], marks[2]);
        log.close_root(job, "job", plan.index, t0, end);
    }
    Sample {
        plan: plan.clone(),
        ack_ms,
        result_ms: end.duration_since(t0).as_secs_f64() * 1e3,
        outcome,
    }
}

/// Drive `plan.connections` closed-loop connections for the planned
/// duration. Jobs are taken in sequence order from a shared counter, so
/// the completed jobs are always a prefix of the sequence; every job
/// that was started is finished before the window closes.
///
/// A daemon that dies, or a window that stalls for 30 s (the daemon is
/// then killed), ends the window: the job in flight on each connection
/// is a failure and no further job starts.
pub fn run_window(spec: &Spec, inputs: &Inputs, ready: &Ready, plan: &WindowPlan) -> Window {
    let next = AtomicU64::new(plan.first_index);
    let done = AtomicU64::new(0);
    let live = AtomicU64::new(plan.connections as u64);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let mut last_end = start;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..plan.connections)
            .map(|lane| {
                let (next, done, live, stop) = (&next, &done, &live, &stop);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut log = plan.trace_epoch.map(|e| SpanLog::new(e, lane as u32 + 1));
                    let mut client = Client::connect(ready.daemon.addr()).ok();
                    let mut end = Instant::now();
                    while !stop.load(Ordering::Relaxed) && start.elapsed() < plan.duration {
                        let job = spec.job(inputs.seed, next.fetch_add(1, Ordering::Relaxed));
                        let sample = match client.as_mut() {
                            Some(c) => run_job(c, spec, inputs, ready, &job, log.as_mut()),
                            None => Sample {
                                plan: job,
                                ack_ms: f64::NAN,
                                result_ms: f64::NAN,
                                outcome: Err("cannot connect to the daemon".into()),
                            },
                        };
                        end = Instant::now();
                        done.fetch_add(1, Ordering::Relaxed);
                        // A transport failure (not an `ERR` reply) means
                        // the daemon is gone: nothing more can run.
                        let transport_failed = sample
                            .outcome
                            .as_ref()
                            .is_err_and(|e| !e.starts_with("server: "));
                        out.push(sample);
                        if transport_failed {
                            break;
                        }
                    }
                    live.fetch_sub(1, Ordering::Relaxed);
                    (out, log.map(SpanLog::into_spans).unwrap_or_default(), end)
                })
            })
            .collect();
        // Watchdog: this thread only sleeps, so it takes no core from
        // the two connections.
        let (mut seen, mut progressed) = (0, Instant::now());
        while live.load(Ordering::Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(20));
            let now_done = done.load(Ordering::Relaxed);
            if now_done != seen {
                (seen, progressed) = (now_done, Instant::now());
            } else if progressed.elapsed() > STALL {
                stop.store(true, Ordering::Relaxed);
                ready.daemon.kill();
                break;
            }
        }
        for w in workers {
            let (out, lane_spans, end) = w.join().expect("connection thread panicked");
            samples.extend(out);
            spans.extend(lane_spans);
            last_end = last_end.max(end);
        }
    });
    samples.sort_by_key(|s| s.plan.index);
    Window {
        samples,
        elapsed_s: last_end.duration_since(start).as_secs_f64(),
        spans,
    }
}
