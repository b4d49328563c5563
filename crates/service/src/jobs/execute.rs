//! Running one job: the routing + distance table it needs (cached,
//! built, or repaired after a fault), the search, and the optional
//! simulation sweep.

use super::ServiceCore;
use crate::cache::{RoutedTable, RoutingSpec, TableSpec};
use crate::protocol::{JobKind, JobSpec};
use commsched_core::{quality, ProcessMapping, Workload};
use commsched_distance::{equivalent_distance_table_with, repair_table};
use commsched_netsim::{paper_sweep, SimConfig, SweepConfig};
use commsched_search::{map_partition, resolve_threads, MapPlan, MultilevelParams, TabuParams};
use commsched_topology::{Topology, TopologyEpoch};
use std::sync::Arc;
use std::time::Instant;

impl ServiceCore {
    /// The cached routing + distance table for a topology. A build is
    /// only noted here: the table's spill file is written by the worker
    /// after the job has settled, not between the build and the search.
    fn routed_table(
        &self,
        topo: &Arc<Topology>,
        routing: RoutingSpec,
    ) -> Result<Arc<RoutedTable>, String> {
        let key = (topo.fingerprint(), routing, TableSpec::Exact);
        let topo_for_build = Arc::clone(topo);
        let threads = self.config.table_threads;
        // The flag is set inside the closure, which only the winning
        // builder runs — threads served from the cache (or by waiting on
        // a concurrent build) have nothing to spill.
        let mut built = false;
        let built_flag = &mut built;
        let value = self.cache.get_or_build(key, move || {
            let routing_impl = routing.build(&topo_for_build).map_err(|e| e.to_string())?;
            let table = equivalent_distance_table_with(
                &topo_for_build,
                routing_impl.as_ref(),
                TableSpec::Exact.options(threads),
            )
            .map_err(|e| e.to_string())?;
            *built_flag = true;
            Ok(RoutedTable {
                routing: routing_impl,
                table: table.into_shared(),
            })
        })?;
        if built {
            self.note_table_built();
        }
        Ok(value)
    }

    /// Rebuild the invalidated `(new fingerprint, spec)` cache entry by
    /// incrementally repairing the stale table instead of re-solving the
    /// whole network: the entry gets the bits a build of the successor
    /// would give it, for the cost of its affected pairs. Returns the
    /// repair's `pairs … wall_ms … max_delta …` report (`None` when a
    /// concurrent request built the entry first and the closure never
    /// ran).
    pub(super) fn refresh_entry(
        &self,
        old_topo: &Arc<Topology>,
        next: &TopologyEpoch,
        spec: RoutingSpec,
        stale: &Arc<RoutedTable>,
    ) -> Result<Option<String>, String> {
        let topo = Arc::clone(&next.topology);
        let old_topo = Arc::clone(old_topo);
        let threads = self.config.table_threads;
        let mut report = None;
        let report_slot = &mut report;
        let key = (next.fingerprint, spec, TableSpec::Exact);
        self.cache.get_or_build(key, move || {
            let routing = spec.build(&topo).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let out = repair_table(
                &stale.table,
                &old_topo,
                stale.routing.as_ref(),
                &topo,
                routing.as_ref(),
                TableSpec::Exact.options(threads),
            )
            .map_err(|e| e.to_string())?;
            *report_slot = Some(format!(
                "pairs {}/{} wall_ms {:.3} max_delta {:.6e}",
                out.pairs_recomputed,
                out.pairs_total,
                t0.elapsed().as_secs_f64() * 1e3,
                out.max_delta
            ));
            Ok(RoutedTable {
                routing,
                table: out.table.into_shared(),
            })
        })?;
        Ok(report)
    }

    /// Workers for a SWEEP job's simulations: the thread budget shared by
    /// the jobs running now (at least 1), so speculation uses idle CPUs only.
    fn sweep_threads(&self) -> usize {
        let running = self.state.lock().expect("queue lock").running;
        (resolve_threads(self.config.search_threads) / running.max(1)).max(1)
    }

    /// Run one job to completion, returning the `RESULT` payload lines.
    pub(super) fn execute(&self, spec: JobSpec) -> Result<Vec<String>, String> {
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
        let routed = self.routed_table(&topo, spec.routing)?;
        let workload = Workload::balanced(&topo, clusters).map_err(|e| e.to_string())?;
        let sizes = workload.switch_demands(topo.hosts_per_switch());
        let plan = MapPlan {
            strategy: spec.strategy,
            tabu: TabuParams::scaled(topo.num_switches()),
            seeds: self.config.search_seeds,
            threads: self.config.search_threads,
            max_coarse_n: MultilevelParams::default().max_coarse_n,
        };
        let (winning_seed, result, ml) = map_partition(&routed.table, &sizes, seed, &plan);
        if let Some(stats) = &ml {
            self.stats
                .note_multilevel(stats.levels as u64, stats.refine_moves);
        }
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
                threads: self.sweep_threads(),
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
    use super::super::testkit::{small_config, small_core, tiny_spec};
    use super::*;
    use crate::jobs::JobState;
    use crate::protocol::TopoRef;

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
    fn a_sweep_shares_the_budget_with_the_running_jobs() {
        let core = ServiceCore::new(crate::ServiceCoreConfig {
            search_threads: 2,
            ..small_config(4)
        });
        let sweep_threads = |running| {
            core.state.lock().unwrap().running = running;
            core.sweep_threads()
        };
        assert_eq!(sweep_threads(1), 2);
        assert_eq!(sweep_threads(2), 1);
        assert_eq!(sweep_threads(3), 1);
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
}
