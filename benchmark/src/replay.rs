//! Layer replay: re-execute jobs of a workload's sequence in-process,
//! calling the layers' public functions in the order
//! `ServiceCore::execute` does, one span per call. This is where the
//! per-layer times come from until the daemon records spans itself.

use crate::span::{Span, SpanLog};
use crate::stats::p50;
use crate::workload::{Inputs, Spec, Strategy};
use commsched_core::{quality, Partition};
use commsched_distance::{equivalent_distance_table_with_report, DistanceTable, TableOptions};
use commsched_netsim::{paper_sweep, LoadSweep, SimConfig, Simulator, SweepConfig, TrafficPattern};
use commsched_routing::UpDownRouting;
use commsched_search::{
    multilevel_map, parallel_multi_seed, MultilevelParams, TabuParams, TabuSearch,
};
use commsched_service::persist::state::record_cache;
use commsched_service::persist::wal::WalWriter;
use commsched_service::{RoutingSpec, ServiceCoreConfig, TableSpec};
use commsched_topology::Topology;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The `SimConfig` `ServiceCore::execute` builds for SWEEP jobs (it is
/// private to the daemon, so its three overrides are mirrored here).
pub fn daemon_sim_config() -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 3_000,
        seed: 0xC0FFEE,
        ..SimConfig::default()
    }
}

/// The daemon's `--workers`: how many jobs it executes at once.
pub const WORKERS: usize = 2;

/// Stage times and work counts of the replayed jobs, one entry per job.
#[derive(Default)]
pub struct Replay {
    /// Milliseconds per stage, keyed by the stage's span name.
    pub stage_ms: BTreeMap<&'static str, Vec<f64>>,
    pub table_pairs_per_s: Vec<f64>,
    /// Tabu swap evaluations of all replayed jobs together (the counter
    /// is process-wide, so lanes cannot be told apart); repeats exactly.
    pub search_evals: u64,
    /// `(cycles/s at 0.1x saturation, cycles/s at 1.2x, flits/s at 1.2x)`.
    pub netsim_rates: Vec<(f64, f64, f64)>,
    pub spans: Vec<Span>,
}

impl Replay {
    /// Median milliseconds of a stage; `None` when it never ran.
    pub fn median_ms(&self, stage: &str) -> Option<f64> {
        p50(self.stage_ms.get(stage)?)
    }
}

fn tabu_evaluations() -> u64 {
    commsched_telemetry::global()
        .counter(
            "tabu_evaluations_total",
            "Candidate swap evaluations (delta computations)",
        )
        .get()
}

/// Workstation → cluster list of a partition: each switch's hosts all
/// serve the switch's cluster (what `ProcessMapping::place` produces).
pub fn host_clusters(partition: &[usize], hosts_per_switch: usize) -> Vec<usize> {
    partition
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, hosts_per_switch))
        .collect()
}

/// Re-execute jobs `0..k` of the sequence on [`WORKERS`] concurrent
/// lanes (job `i` on lane `i % WORKERS`), because that is how the daemon
/// runs them: its two workers are busy at once and contend for the same
/// cores and memory, and a stage timed alone on an idle box is up to
/// twice as fast as the same stage inside a loaded daemon. Each lane
/// appends its cache records, unsynced, to its own WAL under `wal_dir`.
///
/// # Errors
/// A layer rejected an input the daemon accepted (a harness bug), or
/// the WAL file cannot be written.
pub fn replay_jobs(
    spec: &Spec,
    inputs: &Inputs,
    k: usize,
    epoch: Instant,
    wal_dir: &Path,
) -> Result<Replay, String> {
    let evals0 = tabu_evaluations();
    let lanes: Vec<Result<Replay, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|lane| scope.spawn(move || replay_lane(spec, inputs, lane, k, epoch, wal_dir)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });
    let mut out = Replay {
        search_evals: tabu_evaluations() - evals0,
        ..Replay::default()
    };
    for lane in lanes {
        let lane = lane?;
        for (stage, ms) in lane.stage_ms {
            out.stage_ms.entry(stage).or_default().extend(ms);
        }
        out.table_pairs_per_s.extend(lane.table_pairs_per_s);
        out.netsim_rates.extend(lane.netsim_rates);
        out.spans.extend(lane.spans);
    }
    Ok(out)
}

fn replay_lane(
    spec: &Spec,
    inputs: &Inputs,
    lane: usize,
    k: usize,
    epoch: Instant,
    wal_dir: &Path,
) -> Result<Replay, String> {
    let mut wal = open_wal(wal_dir, &format!("replay-{lane}.wal"))?;
    let core = ServiceCoreConfig::default();
    let mut out = Replay::default();
    let mut log = SpanLog::new(epoch, 0x40 + lane as u32);
    for i in (lane..k).step_by(WORKERS).map(|i| i as u64) {
        let plan = spec.job(inputs.seed, i);
        let text = commsched_topology::to_text(inputs.topology(plan.topo));
        let root = log.open_root();
        let t_job = Instant::now();
        let mut stage =
            |name: &'static str, ms: f64| out.stage_ms.entry(name).or_default().push(ms);

        let (topo, ms) = log.time("topology.parse", i, root, || {
            commsched_topology::from_text(&text)
        });
        let topo: Topology = topo.map_err(|e| e.to_string())?;
        stage("topology.parse", ms);

        let (routing, ms) = log.time("routing.build", i, root, || UpDownRouting::new(&topo, 0));
        let routing = routing.map_err(|e| e.to_string())?;
        stage("routing.build", ms);

        let options = TableOptions {
            threads: core.table_threads,
            ..TableOptions::default()
        };
        let (built, ms) = log.time("distance.build", i, root, || {
            equivalent_distance_table_with_report(&topo, &routing, options)
        });
        let (table, _): (DistanceTable, _) = built.map_err(|e| e.to_string())?;
        stage("distance.build", ms);
        let n = table.n();
        out.table_pairs_per_s
            .push((n * (n - 1) / 2) as f64 / (ms / 1e3));

        let (appended, ms) = log.time("service.persist.cache_record", i, root, || {
            let record = record_cache(
                topo.fingerprint(),
                RoutingSpec::UpDown { root: 0 },
                TableSpec::Exact,
                &table,
                None,
            );
            wal.append(record.as_bytes(), false)
        });
        appended.map_err(|e| format!("replay WAL append: {e}"))?;
        stage("service.persist.cache_record", ms);

        let sizes = vec![n / spec.clusters; spec.clusters];
        let search_stage = spec.strategy.search_stage();
        let (result, ms) = log.time(search_stage, i, root, || match spec.strategy {
            Strategy::Flat => {
                let mapper = TabuSearch::new(TabuParams::scaled(n));
                parallel_multi_seed(
                    &mapper,
                    &table,
                    &sizes,
                    plan.search_seed,
                    core.search_seeds,
                    core.search_threads,
                )
                .1
            }
            Strategy::Multilevel => {
                let params = MultilevelParams {
                    threads: core.search_threads,
                    ..MultilevelParams::default()
                };
                multilevel_map(&table, &sizes, plan.search_seed, &params).0
            }
        });
        stage(search_stage, ms);

        let (q, ms) = log.time("core.quality", i, root, || {
            quality(&result.partition, &table)
        });
        std::hint::black_box(q);
        stage("core.quality", ms);

        if let Some(points) = spec.sweep_points {
            let hosts = host_clusters(result.partition.assignment(), topo.hosts_per_switch());
            let sim = daemon_sim_config();
            let (swept, ms) = log.time("netsim.sweep", i, root, || {
                let cfg = SweepConfig {
                    points,
                    ..SweepConfig::default()
                };
                paper_sweep(&topo, &routing, &hosts, sim, cfg)
            });
            let (_, sat) = swept.map_err(|e| e.to_string())?;
            stage("netsim.sweep", ms);
            let rate_at = |factor: f64| -> Result<(f64, f64), String> {
                let pattern = TrafficPattern::new(hosts.clone());
                let mut simulator =
                    Simulator::new(&topo, &routing, pattern, sim.with_rate(factor * sat))
                        .map_err(|e| e.to_string())?;
                let t = Instant::now();
                let stats = simulator.run();
                let s = t.elapsed().as_secs_f64();
                Ok((
                    simulator.cycle() as f64 / s,
                    stats.delivered_flits as f64 / s,
                ))
            };
            let (low, _) = rate_at(0.1)?;
            let (sat_cycles, sat_flits) = rate_at(1.2)?;
            out.netsim_rates.push((low, sat_cycles, sat_flits));
        }
        log.close_root(root, "replay", i, t_job, Instant::now());
    }
    out.spans = log.into_spans();
    Ok(out)
}

/// Median microseconds of `n` synced appends of an accept-sized record:
/// what every acknowledged `SUBMIT` and every finished job pays.
///
/// # Errors
/// The WAL file cannot be written.
pub fn accept_append_us(wal: &mut WalWriter, n: usize) -> Result<f64, String> {
    let record = b"accept 1000000 SCHEDULE topo=fp:0123456789abcdef routing=updown:0 clusters=4 seed=123456789012";
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        wal.append(record, true)
            .map_err(|e| format!("replay WAL append: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(p50(&us).unwrap_or(f64::NAN))
}

/// Open one of the replay's own WAL files under `dir`.
///
/// # Errors
/// The directory or file cannot be created.
pub fn open_wal(dir: &Path, file: &str) -> Result<WalWriter, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    WalWriter::open(&dir.join(file)).map_err(|e| format!("cannot open replay WAL: {e}"))
}

/// The fixed simulator cases whose statistics are pinned in
/// `baseline/netsim-digests.txt`: inputs that depend on neither
/// `--seed` nor the search, so only a change to the simulator (or to
/// the sweep protocol) can move them.
const DIGEST_CASES: [(&str, &str); 3] = [
    ("rand16-a", include_str!("../baseline/digest-rand16-a.topo")),
    ("rand16-b", include_str!("../baseline/digest-rand16-b.topo")),
    ("rand16-c", include_str!("../baseline/digest-rand16-c.topo")),
];
const PINNED_DIGESTS: &str = include_str!("../baseline/netsim-digests.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of everything a sweep simulated: the saturation rate and
/// every statistic of every point, through their exact `Debug` text.
fn sweep_digest(sweep: &LoadSweep, saturation: f64) -> u64 {
    fnv1a(format!("{saturation:?} {:?}", sweep.points).as_bytes())
}

/// Run the pinned cases (block partition into four clusters, the
/// daemon's `SimConfig`, nine points); returns `(case, digest, pinned)`.
///
/// # Errors
/// A pinned topology file does not parse or simulate.
pub fn netsim_digests() -> Result<Vec<(String, u64, Option<u64>)>, String> {
    let pinned: BTreeMap<&str, u64> = PINNED_DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (case, hex) = l.split_once(' ')?;
            Some((case, u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect();
    let mut cases: Vec<(String, Topology)> = vec![(
        "paper24".to_string(),
        commsched_topology::designed::paper_24_switch(),
    )];
    for (name, text) in DIGEST_CASES {
        cases.push((
            name.to_string(),
            commsched_topology::from_text(text).map_err(|e| format!("{name}: {e}"))?,
        ));
    }
    cases
        .into_iter()
        .map(|(name, topo)| {
            let n = topo.num_switches();
            let block = Partition::new((0..n).map(|s| s / (n / 4)).collect(), 4)
                .map_err(|e| e.to_string())?;
            let routing = UpDownRouting::new(&topo, 0).map_err(|e| e.to_string())?;
            let hosts = host_clusters(block.assignment(), topo.hosts_per_switch());
            let (sweep, sat) = paper_sweep(
                &topo,
                &routing,
                &hosts,
                daemon_sim_config(),
                SweepConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            let digest = sweep_digest(&sweep, sat);
            let pin = pinned.get(name.as_str()).copied();
            Ok((name, digest, pin))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_clusters_repeat_each_switch_cluster_per_host() {
        assert_eq!(host_clusters(&[1, 0], 3), vec![1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn every_digest_case_simulates_and_has_a_pin() {
        // Whether the pins still match is `netsim.digest_match`'s to
        // report: a later simulator change may move them on purpose.
        let cases = netsim_digests().unwrap();
        assert_eq!(cases.len(), 1 + DIGEST_CASES.len());
        for (name, _, pinned) in cases {
            assert!(
                pinned.is_some(),
                "{name} has no line in baseline/netsim-digests.txt"
            );
        }
    }
}
