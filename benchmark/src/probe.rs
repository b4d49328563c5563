//! Live probes of the running daemon (ping and NOOP floors) and scrapes
//! of its `STATS` / `METRICS` cells, taken outside the timed window or
//! as before/after deltas around it.

use crate::drive::POLL;
use crate::stats::p50;
use commsched_service::{Client, ClientError};
use std::collections::BTreeMap;
use std::time::Instant;

/// The daemon's counters and gauges at one instant: every `STATS` key
/// and every label-free `METRICS` sample, by the name the program gives
/// it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// # Errors
    /// Transport or protocol failure.
    pub fn take(client: &mut Client) -> Result<Self, ClientError> {
        let mut cells = parse_metrics(&client.metrics()?);
        cells.extend(parse_stats(&client.stats()?));
        Ok(Self(cells))
    }

    /// A cell's value; `None` when the program does not expose it.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.get(key).copied()
    }

    /// Growth of a counter between `before` and `self`; `None` when
    /// either scrape lacks the key — a missing cell is reported as
    /// missing, never as zero and never as an error.
    pub fn delta(&self, before: &Scrape, key: &str) -> Option<f64> {
        Some(self.get(key)? - before.get(key)?)
    }
}

fn parse_stats(pairs: &[(String, String)]) -> BTreeMap<String, f64> {
    pairs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.parse().ok()?)))
        .collect()
}

/// Prometheus text: `name value` lines; comments and labelled samples
/// (histogram buckets) are skipped.
fn parse_metrics(lines: &[String]) -> BTreeMap<String, f64> {
    lines
        .iter()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

/// Median round trip of `n` `PING`s, in microseconds: the wire and
/// event-loop floor under every request.
///
/// # Errors
/// Transport or protocol failure.
pub fn ping_us(client: &mut Client, n: usize) -> Result<f64, ClientError> {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        client.ping()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(p50(&us).unwrap_or(f64::NAN))
}

/// Median `(ack, result)` of `n` `SUBMIT NOOP` jobs taken through the
/// same submit / wait / result calls as a real job, in microseconds: the
/// front-end floor (wire, queue, two fsynced WAL records, one poll).
///
/// # Errors
/// Transport or protocol failure, or a NOOP that does not end `done`.
pub fn noop_us(client: &mut Client, n: usize) -> Result<(f64, f64), ClientError> {
    let (mut ack, mut result) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let t = Instant::now();
        let id = client.submit_raw("NOOP")?;
        ack.push(t.elapsed().as_secs_f64() * 1e6);
        let state = client.wait(id, POLL)?;
        if state != "done" {
            return Err(ClientError::Protocol(format!("NOOP ended {state}")));
        }
        client.result(id)?;
        result.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((
        p50(&ack).unwrap_or(f64::NAN),
        p50(&result).unwrap_or(f64::NAN),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(stats: &[(&str, &str)], metrics: &[&str]) -> Scrape {
        let pairs: Vec<(String, String)> = stats
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let lines: Vec<String> = metrics.iter().map(|l| l.to_string()).collect();
        let mut cells = parse_metrics(&lines);
        cells.extend(parse_stats(&pairs));
        Scrape(cells)
    }

    #[test]
    fn deltas_subtract_and_a_missing_key_is_none_not_zero() {
        let before = scrape(
            &[("net_frames_rx", "100"), ("queue_wait_ms_p50", "nan")],
            &[
                "# HELP tabu_iterations_total Tabu iterations",
                "# TYPE tabu_iterations_total counter",
                "tabu_iterations_total 1488",
                "service_job_run_ms_bucket{le=\"4\"} 2",
                "service_job_run_ms_sum 687",
            ],
        );
        let after = scrape(
            &[("net_frames_rx", "350")],
            &[
                "tabu_iterations_total 2000",
                "service_job_run_ms_sum 1000",
                "netsim_runs_total 9",
            ],
        );
        assert_eq!(after.delta(&before, "net_frames_rx"), Some(250.0));
        assert_eq!(after.delta(&before, "tabu_iterations_total"), Some(512.0));
        assert_eq!(after.delta(&before, "service_job_run_ms_sum"), Some(313.0));
        // Present only after, absent in both, and a labelled bucket line.
        assert_eq!(after.delta(&before, "netsim_runs_total"), None);
        assert_eq!(after.delta(&before, "service_job_stage_ms_sum"), None);
        assert_eq!(before.get("service_job_run_ms_bucket"), None);
        // `nan` parses as a float; the harness filters non-finite values
        // when it reports.
        assert!(before.get("queue_wait_ms_p50").is_some_and(f64::is_nan));
    }
}
