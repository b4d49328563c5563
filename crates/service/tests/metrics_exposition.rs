//! End-to-end METRICS test: run jobs through a live daemon, scrape the
//! Prometheus dump over the wire, and check it against the `STATS` view
//! of the same core — the two must be consistent because they read the
//! same registry.

use commsched_service::{Client, Server, ServerConfig, ServiceCoreConfig};
use std::collections::HashMap;
use std::time::Duration;

/// Parse plain `name value` samples (skipping `#` comments and labelled
/// series like `_bucket{le="…"}`).
fn parse_samples(lines: &[String]) -> HashMap<String, f64> {
    lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            if name.contains('{') {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn metrics_agree_with_stats_after_jobs_run() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            core: ServiceCoreConfig {
                queue_capacity: 16,
                cache_capacity: 4,
                search_seeds: 2,
                search_threads: 1,
                table_threads: 1,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Three jobs on two distinct topologies: one build per topology, one
    // cache hit for the repeat.
    for (topo, seed) in [("ring:6:2", 1), ("ring:6:2", 2), ("paper24", 1)] {
        let job = client
            .submit_raw(&format!("SCHEDULE topo={topo} clusters=2 seed={seed}"))
            .expect("submit");
        let state = client.wait(job, Duration::from_millis(20)).expect("wait");
        assert_eq!(state, "done", "job on {topo} ended {state}");
    }
    // One multilevel job exercises the scale pipeline's gauges (the
    // network is too small to coarsen, so the level gauge stays 0 — the
    // twin check below still runs).
    let job = client
        .submit_raw("SCHEDULE topo=ring:8:2 clusters=2 seed=3 strategy=multilevel")
        .expect("submit multilevel");
    let state = client.wait(job, Duration::from_millis(20)).expect("wait");
    assert_eq!(state, "done", "multilevel job ended {state}");

    let stats: HashMap<String, String> = client.stats().expect("stats").into_iter().collect();
    let metrics_lines = client.metrics().expect("metrics");
    let samples = parse_samples(&metrics_lines);
    let text = metrics_lines.join("\n");

    // Job latency histograms are live: four runs were recorded.
    assert_eq!(samples["service_job_run_ms_count"], 4.0);
    assert_eq!(samples["service_job_queue_wait_ms_count"], 4.0);
    assert!(
        text.contains("service_job_run_ms_bucket{le=\"+Inf\"} 4"),
        "missing +Inf bucket in:\n{text}"
    );

    // Every counter STATS reports must match its METRICS twin exactly —
    // same registry, same moment (no jobs running between the reads).
    for (stat_key, metric_name) in [
        ("jobs_submitted", "service_jobs_submitted_total"),
        ("jobs_completed", "service_jobs_completed_total"),
        ("jobs_failed", "service_jobs_failed_total"),
        ("jobs_panicked", "service_jobs_panicked_total"),
        ("cache_hits", "service_cache_hits_total"),
        ("cache_misses", "service_cache_misses_total"),
        ("cache_entries", "service_cache_entries"),
        ("topologies", "service_topologies"),
        ("ml_levels", "service_ml_levels"),
        ("ml_refine_moves", "service_ml_refine_moves_total"),
        ("wal_bytes", "service_wal_bytes"),
        ("snapshot_nanos", "service_snapshot_nanos"),
        ("table_spills", "service_table_spills_total"),
        ("table_spill_bytes", "service_table_spill_bytes_total"),
        ("table_spill_nanos", "service_table_spill_nanos"),
        ("table_restore_nanos", "service_table_restore_nanos"),
        ("table_restores", "service_table_restores_total"),
        ("table_spill_errors", "service_table_spill_errors_total"),
    ] {
        let from_stats: f64 = stats[stat_key].parse().expect("numeric stat");
        assert_eq!(
            samples[metric_name], from_stats,
            "{metric_name} disagrees with STATS {stat_key}"
        );
    }
    assert_eq!(samples["service_cache_misses_total"], 3.0);
    assert_eq!(samples["service_cache_hits_total"], 1.0);

    // The multilevel run registered the search-side pipeline counters.
    assert_eq!(samples["ml_runs_total"], 1.0);

    // The process-global registry rode along: the jobs ran distance
    // builds and tabu searches in this process.
    assert!(samples["distance_builds_total"] >= 2.0);
    assert!(samples["tabu_restarts_total"] >= 1.0);
    assert!(samples["distance_build_ms_count"] >= 2.0);
    // A route link set was extracted for the pairs the row scan could not
    // answer, and for no other.
    assert_eq!(
        samples["distance_route_walks_total"],
        samples["distance_pairs_total"] - samples["distance_series_path_total"]
    );

    // The event-loop front end exports its own family and STATS mirrors
    // it: this very connection is open, and everything above arrived as
    // decoded requests with byte counts.
    assert_eq!(samples["net_connections_open"], 1.0);
    assert!(
        samples["net_frames_rx_total"] >= 9.0,
        "submits + waits + stats"
    );
    assert!(samples["net_frames_tx_total"] >= 9.0);
    assert!(samples["net_bytes_rx_total"] > 0.0);
    assert!(samples["net_bytes_tx_total"] > 0.0);
    assert_eq!(samples["net_busy_rejections_total"], 0.0);
    assert_eq!(samples["net_idle_closed_total"], 0.0);
    assert!(samples["net_pipeline_depth_count"] >= 1.0);
    for (stat_key, metric_name) in [
        ("net_connections_open", "net_connections_open"),
        ("net_busy_rejections", "net_busy_rejections_total"),
        ("net_idle_closed", "net_idle_closed_total"),
    ] {
        let from_stats: f64 = stats[stat_key].parse().expect("numeric stat");
        assert_eq!(
            samples[metric_name], from_stats,
            "{metric_name} disagrees with STATS {stat_key}"
        );
    }

    client.shutdown().expect("shutdown");
    handle.join();
}
