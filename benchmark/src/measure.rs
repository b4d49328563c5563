//! The two kinds of run: end-to-end (tracing off; what a user sees)
//! and per-layer (probes, scrape deltas, a traced window and the layer
//! replay). Both verify every result they time.

use crate::check;
use crate::drive::{run_window, set_up, Sample, WindowPlan, CONNECTIONS};
use crate::probe::{noop_us, ping_us, Scrape};
use crate::replay;
use crate::report::{Metric, Metrics, SpanTotal, END_TO_END, PER_LAYER};
use crate::span;
use crate::stats::{mean, p50, percentile, sorted, tail_percentile};
use crate::workload::{Inputs, Spec, TopoUse};
use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_routing::UpDownRouting;
use commsched_service::Client;
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything a run needs besides the workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The `commsched` binary under test.
    pub daemon_bin: PathBuf,
    /// Where state directories, replay WALs and traces go.
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: f64,
    /// Most set-ups an end-to-end run makes (the smoke tier makes one).
    pub max_setups: usize,
    /// Cap on replayed jobs (the smoke tier replays two).
    pub max_replay_jobs: usize,
}

/// The outcome of one run: the metrics of its kind plus the job counts
/// the driver asks for.
pub struct RunOutcome {
    pub metrics: Metrics,
    pub attempted: usize,
    /// One reason per failed job (`failed` is its length).
    pub failures: Vec<String>,
    pub netsim_digests: Vec<(String, String)>,
    /// Per span name of the traced run: count, total and self time.
    pub span_totals: Vec<SpanTotal>,
}

/// The harness's own exact table of a network and the `F_G` of one
/// seeded random balanced partition on it (the paper's random mapping).
struct Reference {
    table: DistanceTable,
    random_fg: f64,
}

fn reference(inputs: &Inputs, which: TopoUse, clusters: usize) -> Result<Reference, String> {
    let topo = inputs.topology(which);
    let routing = UpDownRouting::new(topo, 0).map_err(|e| e.to_string())?;
    let table = equivalent_distance_table(topo, &routing).map_err(|e| e.to_string())?;
    Ok(Reference {
        random_fg: check::random_fg(&table, clusters, inputs.seed),
        table,
    })
}

/// The verdict on a window's samples.
struct Verified {
    /// SUBMIT-to-result of the jobs that passed every check, ms.
    result_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    /// Reported `F_G` of the first `fg_jobs` jobs.
    fg: Vec<f64>,
    failures: Vec<String>,
}

/// Check every sample (see README, "Result checks"). On cold workloads
/// each job has its own N=320 network, so the `F_G` recomputation —
/// one table build per job — covers the first `fg_jobs` jobs; the
/// structural checks cover all.
fn verify(spec: &Spec, inputs: &Inputs, samples: &[Sample]) -> Verified {
    let mut refs: BTreeMap<TopoUse, Reference> = BTreeMap::new();
    let mut v = Verified {
        result_ms: Vec::new(),
        ack_ms: Vec::new(),
        fg: Vec::new(),
        failures: Vec::new(),
    };
    for s in samples {
        let n = inputs.topology(s.plan.topo).num_switches();
        let hosts_per_switch = inputs.topology(s.plan.topo).hosts_per_switch();
        let mut check = || -> Result<Option<f64>, String> {
            let lines = s.outcome.as_ref().map_err(Clone::clone)?;
            let r = check::parse_result(lines)?;
            if r.clusters != spec.clusters {
                return Err(format!(
                    "{} clusters, asked for {}",
                    r.clusters, spec.clusters
                ));
            }
            check::check_balance(&r.partition, n, spec.clusters)?;
            if s.plan.topo == TopoUse::Paper24 {
                check::check_paper24(&r)?;
            }
            if let Some(points) = spec.sweep_points {
                let sim = replay::daemon_sim_config();
                let msgs_per_unit_rate =
                    (n * hosts_per_switch) as f64 * sim.measure_cycles as f64 / sim.msg_len as f64;
                check::check_sweep(&r, points, hosts_per_switch, msgs_per_unit_rate)?;
            }
            let in_fg_prefix = (s.plan.index as usize) < spec.fg_jobs;
            if spec.cold && !in_fg_prefix {
                return Ok(None);
            }
            let reference = match refs.entry(s.plan.topo) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(reference(inputs, s.plan.topo, spec.clusters)?),
            };
            let fg = check::recompute_fg(&r.partition, spec.clusters, &reference.table)?;
            check::check_fg_matches(r.fg, fg)?;
            if fg >= reference.random_fg {
                return Err(format!(
                    "fg {fg:.6} does not beat a random mapping ({:.6})",
                    reference.random_fg
                ));
            }
            Ok(in_fg_prefix.then_some(fg))
        };
        match check() {
            Ok(fg) => {
                v.result_ms.push(s.result_ms);
                v.ack_ms.push(s.ack_ms);
                v.fg.extend(fg);
            }
            Err(why) => v.failures.push(format!("job {}: {why}", s.plan.index)),
        }
        if spec.cold {
            // One multi-MB table per job: keep only the current one.
            refs.clear();
        }
    }
    v
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the tables"))
        .unit
}

fn metric(name: &str, value: Option<f64>, samples: usize, missing: &str) -> (String, Metric) {
    let value = value.filter(|v| v.is_finite());
    (
        name.to_string(),
        Metric {
            value,
            unit: unit_of(name).to_string(),
            samples,
            reason: value.is_none().then(|| missing.to_string()),
        },
    )
}

/// Set-ups are repeated until this much time has gone into them (at
/// least two, at most `max_setups`): cheap set-ups get many samples.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// End-to-end run: repeated set-ups (the fastest is reported; the last
/// one's daemon serves the window), one untraced **solo** window of
/// `seconds` — a single closed-loop connection, so every job has the
/// daemon and the box to itself — then verification of every result.
///
/// Both times are minima, and the window is solo, because interference
/// on the shared reference box only ever adds time, in bursts about as
/// long as a job (README, "Noise"): the fastest unloaded job and the
/// fastest set-up are what the code costs; medians and loaded windows
/// (measured by the per-layer run, not gating) mostly show what the
/// neighbours cost.
///
/// # Errors
/// The daemon cannot be set up or will not shut down cleanly.
pub fn run_end_to_end(spec: &Spec, cfg: &RunConfig) -> Result<RunOutcome, String> {
    let inputs = spec.generate(cfg.seed);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut ready = set_up(&cfg.daemon_bin, &cfg.out_dir, spec, &inputs)?;
    setups.push(ready.setup_s);
    while setups.len() < cfg.max_setups && (setups.len() < 2 || started.elapsed() < SETUP_BUDGET) {
        ready.daemon.shutdown()?;
        ready = set_up(&cfg.daemon_bin, &cfg.out_dir, spec, &inputs)?;
        setups.push(ready.setup_s);
    }
    let window = run_window(
        spec,
        &inputs,
        &ready,
        &WindowPlan {
            connections: 1,
            first_index: 0,
            duration: Duration::from_secs_f64(cfg.seconds),
            trace_epoch: None,
        },
    );
    let died = !ready.daemon.alive();
    let stopped = ready.daemon.shutdown();
    let v = verify(spec, &inputs, &window.samples);
    let mut failures = v.failures;
    if died {
        failures.push("the daemon died during the window".into());
    } else {
        stopped?;
    }
    let ok = v.result_ms.len();
    let fastest = |v: &[f64]| v.iter().copied().reduce(f64::min);
    let metrics = vec![
        metric(
            "setup_s",
            fastest(&setups),
            setups.len(),
            "no set-up finished",
        ),
        metric(
            "result_min_ms",
            fastest(&v.result_ms),
            ok,
            "no job passed its checks",
        ),
        metric(
            "fg_mean",
            (v.fg.len() == spec.fg_jobs.min(window.samples.len()))
                .then(|| mean(&v.fg))
                .flatten(),
            v.fg.len(),
            "a job among the first fg_jobs failed",
        ),
    ];
    Ok(RunOutcome {
        metrics,
        attempted: window.samples.len(),
        failures,
        netsim_digests: Vec::new(),
        span_totals: Vec::new(),
    })
}

/// Per-layer run: one set-up, ping and NOOP probes, an untraced and a
/// traced loaded window (two connections; each 0.3 × `seconds`, the
/// traced one bracketed by scrapes), then the in-process layer replay. Writes
/// `<out>/<workload>.trace.jsonl`.
///
/// # Errors
/// The daemon cannot be set up, probed or shut down, or the replay
/// fails.
pub fn run_per_layer(spec: &Spec, cfg: &RunConfig) -> Result<RunOutcome, String> {
    let client_err = |e: commsched_service::ClientError| e.to_string();
    let inputs = spec.generate(cfg.seed);
    let ready = set_up(&cfg.daemon_bin, &cfg.out_dir, spec, &inputs)?;
    let mut client = Client::connect(ready.daemon.addr()).map_err(client_err)?;
    let ping = ping_us(&mut client, 200).map_err(client_err)?;
    let (noop_ack, noop_result) = noop_us(&mut client, 100).map_err(client_err)?;

    let part = Duration::from_secs_f64(0.3 * cfg.seconds);
    let untraced = run_window(
        spec,
        &inputs,
        &ready,
        &WindowPlan {
            connections: CONNECTIONS,
            first_index: 0,
            duration: part,
            trace_epoch: None,
        },
    );
    let epoch = Instant::now();
    let before = Scrape::take(&mut client).map_err(client_err)?;
    let traced = run_window(
        spec,
        &inputs,
        &ready,
        &WindowPlan {
            connections: CONNECTIONS,
            first_index: untraced.samples.len() as u64,
            duration: part,
            trace_epoch: Some(epoch),
        },
    );
    let after = Scrape::take(&mut client).map_err(client_err)?;
    let state_mb = ready.daemon.state_mb();
    let peak_rss = ready.daemon.peak_rss_mb();
    drop(client);
    let died = !ready.daemon.alive();
    let stopped = ready.daemon.shutdown();

    let v_untraced = verify(spec, &inputs, &untraced.samples);
    let v_traced = verify(spec, &inputs, &traced.samples);
    let mut failures = v_untraced.failures;
    failures.extend(v_traced.failures);
    if died {
        failures.push("the daemon died during the windows".into());
    } else {
        stopped?;
    }

    // Layer replay, on the same filesystem as the daemon's state.
    let wal_dir = cfg.out_dir.join(format!("replay-{}", std::process::id()));
    let k = spec.replay_jobs.min(cfg.max_replay_jobs);
    let replayed = replay::replay_jobs(spec, &inputs, k, epoch, &wal_dir);
    let append_us = replay::open_wal(&wal_dir, "accept.wal")
        .and_then(|mut wal| replay::accept_append_us(&mut wal, 200));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let replayed = replayed?;
    let append_us = append_us?;
    let digests = if spec.sweep_points.is_some() {
        replay::netsim_digests()?
    } else {
        Vec::new()
    };

    let mut spans = traced.spans;
    spans.extend(replayed.spans.iter().cloned());
    let trace_path = cfg.out_dir.join(format!("{}.trace.jsonl", spec.name));
    std::fs::File::create(&trace_path)
        .and_then(|f| span::write_jsonl(&spans, std::io::BufWriter::new(f)))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    // ---- replay-derived metrics ----
    const NOT_RUN: &str = "this workload's jobs never run that stage";
    let stage = |name: &str| replayed.median_ms(name);
    let search_name = spec.strategy.search_stage();
    let search_ms = stage(search_name);
    let search_busy_s: f64 = replayed.stage_ms[search_name].iter().sum::<f64>() / 1e3;
    let rates = &replayed.netsim_rates;
    let rate = |pick: fn(&(f64, f64, f64)) -> f64| p50(&rates.iter().map(pick).collect::<Vec<_>>());
    let pinned: Vec<bool> = digests
        .iter()
        .filter_map(|(_, d, pin)| pin.map(|p| p == *d))
        .collect();
    let mut m: Metrics = vec![
        metric("topology.parse_ms", stage("topology.parse"), k, NOT_RUN),
        metric("routing.build_ms", stage("routing.build"), k, NOT_RUN),
        metric("distance.build_ms", stage("distance.build"), k, NOT_RUN),
        metric(
            "distance.pairs_per_s",
            p50(&replayed.table_pairs_per_s),
            k,
            NOT_RUN,
        ),
        metric("search.flat_ms", stage("search.flat"), k, NOT_RUN),
        metric(
            "search.multilevel_ms",
            stage("search.multilevel"),
            k,
            NOT_RUN,
        ),
        metric(
            "search.evals_per_job",
            Some(replayed.search_evals as f64 / k as f64),
            k,
            NOT_RUN,
        ),
        metric(
            "search.evals_per_s",
            Some(replayed.search_evals as f64 / search_busy_s),
            k,
            NOT_RUN,
        ),
        metric("core.quality_ms", stage("core.quality"), k, NOT_RUN),
        metric(
            "netsim.sweep_ms",
            stage("netsim.sweep"),
            rates.len(),
            NOT_RUN,
        ),
        metric(
            "netsim.cycles_per_s.low",
            rate(|r| r.0),
            rates.len(),
            NOT_RUN,
        ),
        metric(
            "netsim.cycles_per_s.sat",
            rate(|r| r.1),
            rates.len(),
            NOT_RUN,
        ),
        metric(
            "netsim.flits_per_s.sat",
            rate(|r| r.2),
            rates.len(),
            NOT_RUN,
        ),
        metric(
            "netsim.digest_match",
            (!pinned.is_empty())
                .then(|| pinned.iter().filter(|&&ok| ok).count() as f64 / pinned.len() as f64),
            pinned.len(),
            if digests.is_empty() {
                NOT_RUN
            } else {
                "no digest is pinned in baseline/netsim-digests.txt"
            },
        ),
        metric(
            "service.persist.accept_append_us",
            Some(append_us),
            200,
            NOT_RUN,
        ),
        metric(
            "service.persist.cache_record_ms",
            stage("service.persist.cache_record"),
            k,
            NOT_RUN,
        ),
    ];

    // ---- live probes and scrape deltas over the traced window ----
    const NO_CELL: &str = "the program does not expose this cell";
    let delta = |key: &str| after.delta(&before, key);
    let jobs = delta("service_jobs_completed_total").filter(|&j| j > 0.0);
    let per_job = |key: &str| Some(delta(key)? / jobs?);
    let n_jobs = jobs.unwrap_or(0.0) as usize;
    let queue_wait = per_job("service_job_queue_wait_ms_sum");
    let run_ms = per_job("service_job_run_ms_sum");
    let hits = delta("service_cache_hits_total");
    let misses = delta("service_cache_misses_total");
    let traced_ms = sorted(v_traced.result_ms.clone());
    let untraced_p50 = p50(&v_untraced.result_ms);
    let traced_p50 = percentile(&traced_ms, 0.5);
    let both_ms = sorted(
        v_untraced
            .result_ms
            .iter()
            .chain(&traced_ms)
            .copied()
            .collect(),
    );
    let both_acks: Vec<f64> = v_untraced
        .ack_ms
        .iter()
        .chain(&v_traced.ack_ms)
        .copied()
        .collect();
    const NO_JOB: &str = "no job passed its checks";
    m.extend([
        metric(
            "jobs_per_s",
            (!both_ms.is_empty())
                .then(|| both_ms.len() as f64 / (untraced.elapsed_s + traced.elapsed_s)),
            both_ms.len(),
            NO_JOB,
        ),
        metric(
            "result_p50_ms",
            percentile(&both_ms, 0.5),
            both_ms.len(),
            NO_JOB,
        ),
        metric(
            "result_p90_ms",
            tail_percentile(&both_ms, 0.9),
            both_ms.len(),
            "fewer than 100 samples: under ten lie beyond p90",
        ),
        metric("ack_p50_ms", p50(&both_acks), both_acks.len(), NO_JOB),
        metric(
            "peak_rss_mb",
            peak_rss,
            1,
            "daemon gone before VmHWM was read",
        ),
    ]);
    m.extend([
        metric("net.ping_us", Some(ping), 200, NO_CELL),
        metric("service.noop_ack_us", Some(noop_ack), 100, NO_CELL),
        metric("service.noop_result_us", Some(noop_result), 100, NO_CELL),
        metric("service.queue.wait_ms_mean", queue_wait, n_jobs, NO_CELL),
        metric("service.run_ms_mean", run_ms, n_jobs, NO_CELL),
        metric(
            "service.worker_busy_share",
            delta("service_job_run_ms_sum")
                .map(|busy| busy / (CONNECTIONS as f64 * traced.elapsed_s * 1e3)),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "service.cache.hit_share",
            hits.zip(misses)
                .filter(|(h, m)| h + m > 0.0)
                .map(|(h, m)| h / (h + m)),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "service.persist.snapshot_ms_last",
            after.get("service_snapshot_nanos").map(|ns| ns / 1e6),
            1,
            NO_CELL,
        ),
        metric(
            "service.persist.state_mb",
            state_mb,
            1,
            "state directory unreadable",
        ),
        metric(
            "distance.builds",
            delta("distance_builds_total"),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "search.tabu_iterations_per_job",
            per_job("tabu_iterations_total"),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "netsim.cycles_per_job",
            delta("netsim_measure_cycles_total")
                .zip(delta("netsim_warmup_cycles_total"))
                .zip(jobs)
                .map(|((measure, warmup), j)| (measure + warmup) / j),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "net.frames_per_job",
            per_job("net_frames_rx_total"),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "net.bytes_per_job",
            per_job("net_bytes_rx_total")
                .zip(per_job("net_bytes_tx_total"))
                .map(|(rx, tx)| rx + tx),
            n_jobs,
            NO_CELL,
        ),
        metric(
            "client.overhead_ms_mean",
            mean(&traced_ms)
                .zip(queue_wait)
                .zip(run_ms)
                .map(|((total, wait), run)| total - wait - run),
            traced_ms.len(),
            NO_CELL,
        ),
        metric(
            "client.result_p99_ms",
            tail_percentile(&traced_ms, 0.99),
            traced_ms.len(),
            "fewer than 1000 samples: under ten lie beyond p99",
        ),
    ]);

    // ---- how the layers add up against the untraced median ----
    let persist_ms = 2.0 * append_us / 1e3
        + if spec.cold {
            stage("service.persist.cache_record").unwrap_or(0.0)
                + after
                    .get("service_snapshot_nanos")
                    .map_or(0.0, |ns| ns / 1e6)
        } else {
            0.0
        };
    let distance_ms = if spec.cold {
        ["topology.parse", "routing.build", "distance.build"]
            .iter()
            .filter_map(|s| stage(s))
            .sum()
    } else {
        0.0
    };
    let netsim_ms = stage("netsim.sweep").unwrap_or(0.0);
    let quality_ms = stage("core.quality").unwrap_or(0.0);
    let share = |ms: f64| untraced_p50.map(|p| ms / p);
    const NO_P50: &str = "no untraced job passed its checks";
    m.extend([
        metric(
            "result_p50_ms.untraced",
            untraced_p50,
            v_untraced.result_ms.len(),
            NO_P50,
        ),
        metric("result_p50_ms.traced", traced_p50, traced_ms.len(), NO_P50),
        metric(
            "trace_overhead_share",
            traced_p50.zip(untraced_p50).map(|(t, u)| t / u),
            traced_ms.len(),
            NO_P50,
        ),
        metric(
            "layer_cover_share",
            search_ms.and_then(|s| share(s + quality_ms + netsim_ms + distance_ms + persist_ms)),
            k,
            NO_P50,
        ),
        metric("share.search", search_ms.and_then(share), k, NO_P50),
        metric("share.netsim", share(netsim_ms), k, NO_P50),
        metric("share.persist", share(persist_ms), k, NO_P50),
        metric("share.distance", share(distance_ms), k, NO_P50),
        metric("setup_s.traced_run", Some(ready.setup_s), 1, NO_CELL),
    ]);
    // Table order, so every run lists the same names in the same place.
    let mut by_name: BTreeMap<String, Metric> = m.into_iter().collect();
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = by_name
                .remove(def.name)
                .unwrap_or_else(|| panic!("per-layer metric '{}' was not computed", def.name));
            (def.name.to_string(), value)
        })
        .collect();
    Ok(RunOutcome {
        metrics,
        attempted: untraced.samples.len() + traced.samples.len(),
        failures,
        netsim_digests: digests
            .into_iter()
            .map(|(name, digest, _)| (name, format!("{digest:016x}")))
            .collect(),
        span_totals: span::totals_by_name(&spans)
            .into_iter()
            .map(|(name, (count, total_us, self_us))| SpanTotal {
                name: name.to_string(),
                count,
                total_ms: total_us / 1e3,
                self_ms: self_us / 1e3,
            })
            .collect(),
    })
}
