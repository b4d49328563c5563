//! Load sweeps: the paper's simulation points S1..S9.
//!
//! Each network/mapping pair is simulated "from low traffic (simulation
//! point S1) to saturation (simulation point S9)" (§5.2). This module finds
//! the saturation rate by bracketing + bisection and lays out evenly spaced
//! offered loads across that range, producing the latency/throughput curves
//! of Figures 3 and 5.

use crate::config::SimConfig;
use crate::engine::{simulate, Phase, SimError, Simulator};
use crate::stats::SimStats;
use crate::traffic::TrafficPattern;
use commsched_routing::Routing;
use commsched_telemetry::pool::{resolve_threads, run_indexed};
use commsched_topology::Topology;

/// Parameters of a paper-style sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Number of simulation points (the paper uses 9: S1..S9).
    pub points: usize,
    /// A run is saturated when it delivers fewer flits than
    /// `saturation_threshold` × the traffic actually generated in the
    /// measurement window.
    pub saturation_threshold: f64,
    /// Upper bound for the saturation search (flits/host/cycle).
    pub max_rate: f64,
    /// The last simulation point is placed at `overdrive` × saturation to
    /// show the post-saturation regime.
    pub overdrive: f64,
    /// Workers for the points and the bisection (0 = one per CPU); results
    /// do not depend on it. A speculative bisection probe is spent work,
    /// so give the sweep only CPUs that would otherwise idle.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            points: 9,
            saturation_threshold: 0.95,
            max_rate: 4.0,
            overdrive: 1.2,
            threads: 1,
        }
    }
}

/// One sweep point: offered rate plus the measured statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Offered load (flits per host per cycle).
    pub rate: f64,
    /// Measured statistics.
    pub stats: SimStats,
}

/// A full sweep of one mapping.
#[derive(Debug, Clone, Default)]
pub struct LoadSweep {
    /// Points ordered by offered load.
    pub points: Vec<SweepPoint>,
}

impl LoadSweep {
    /// The throughput the paper reports: maximum accepted traffic over the
    /// sweep, in flits per switch per cycle.
    pub fn throughput(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.stats.accepted_flits_per_switch_cycle)
            .fold(0.0, f64::max)
    }
}

/// Run one simulation per offered rate on `threads` workers (0 = one per
/// CPU), claiming the last rate (a grid's costliest) first; the points
/// come back in rate order.
///
/// # Errors
/// See [`SimError`]; of several, the first in rate order.
pub fn sweep(
    topo: &Topology,
    routing: &dyn Routing,
    host_clusters: &[usize],
    base: SimConfig,
    rates: &[f64],
    threads: usize,
) -> Result<LoadSweep, SimError> {
    // CORRECTNESS: a point is a pure function of its rate and the pool
    // returns task order, so claiming the rates in reverse changes no bit;
    // `rev` then meets errors in the serial loop's order.
    let runs = run_indexed(rates.len(), threads, |k| {
        let rate = rates[rates.len() - 1 - k];
        let stats = simulate(topo, routing, host_clusters, base.with_rate(rate))?;
        Ok(SweepPoint { rate, stats })
    });
    let points = runs.into_iter().rev().collect::<Result<_, _>>()?;
    Ok(LoadSweep { points })
}

/// Find (approximately) the offered rate at which the network saturates:
/// bracket by doubling from 0.02, then bisect on `cfg.threads` workers.
///
/// # Errors
/// See [`SimError`].
pub fn find_saturation_rate(
    topo: &Topology,
    routing: &dyn Routing,
    host_clusters: &[usize],
    base: SimConfig,
    cfg: SweepConfig,
) -> Result<f64, SimError> {
    let threshold = cfg.saturation_threshold;
    let saturated = |rate: f64| -> Result<bool, SimError> {
        let pattern = TrafficPattern::new(host_clusters.to_vec());
        let mut sim = Simulator::new(topo, routing, pattern, base.with_rate(rate))?;
        let (_, stuck) = sim.window(Phase::Warmup, |sim| sim.advance(base.warmup_cycles));
        if stuck {
            return Ok(true);
        }
        // Flits still in flight when the window closes were *accepted*
        // by the network, just not delivered yet; counting them as lost
        // biases short runs toward declaring saturation early. So the
        // measurement window ends with a short grace drain (just long
        // enough for a message that was mid-injection at window close to
        // finish streaming — far too short for a saturated source-queue
        // backlog to clear, so the threshold shift is a couple of percent
        // at most; nothing is generated while it lasts), and the flits
        // occupying network resources afterwards are credited too. What
        // remains uncredited is exactly the traffic stuck in source
        // queues — the genuine saturation signal.
        let grace = 2 * base.msg_len as u64;
        let (window, stuck) = sim.window(Phase::Measure, |sim| {
            sim.advance(base.measure_cycles) || sim.drain(grace)
        });
        if stuck {
            return Ok(true);
        }
        // Compare accepted traffic against the *realized* offered traffic
        // (generated flits), not the nominal rate: the Bernoulli generator
        // matches the nominal rate only in expectation, and on small
        // networks at low rates that sampling noise would turn the
        // nominal-rate test into a coin flip.
        let generated_flits = (window.generated * base.msg_len as u64) as f64;
        let delivered = (window.delivered_flits + sim.flits_in_network()) as f64;
        Ok(delivered < threshold * generated_flits)
    };
    // Bracket.
    let mut lo = 0.0_f64;
    let mut hi = 0.02_f64;
    while hi < cfg.max_rate && !saturated(hi)? {
        lo = hi;
        hi *= 2.0;
    }
    if hi >= cfg.max_rate {
        return Ok(cfg.max_rate);
    }
    bisect(lo, hi, resolve_threads(cfg.threads), saturated).map(|(rate, _)| rate)
}

/// Halve `[lo, hi]` six times on `saturated`; return the last midpoint
/// and the rounds taken. A round with two or more steps left also probes
/// the next midpoints below and (from 3 threads) above, and the one the
/// serial path skips is dropped, error included.
fn bisect<E: Send>(
    mut lo: f64,
    mut hi: f64,
    threads: usize,
    saturated: impl Fn(f64) -> Result<bool, E> + Sync,
) -> Result<(f64, usize), E> {
    let (mut steps, mut rounds) = (6, 0);
    while steps > 0 {
        let mid = 0.5 * (lo + hi);
        let width = if steps >= 2 { threads.min(3) } else { 1 };
        // CORRECTNESS: a probe is a pure function of its rate, and a
        // speculative rate is the expression the serial path evaluates
        // after the step (`step` below), so each outcome used is the
        // serial one, bit for bit, whichever worker ran it.
        let probes = [mid, 0.5 * (lo + mid), 0.5 * (mid + hi)];
        let mut outcomes = run_indexed(width, threads, |i| saturated(probes[i])).into_iter();
        rounds += 1;
        let mut step = |sat: bool| {
            let mid = 0.5 * (lo + hi);
            *if sat { &mut hi } else { &mut lo } = mid;
            steps -= 1;
        };
        let mid_saturated = outcomes.next().expect("the midpoint is probed")?;
        step(mid_saturated);
        let (below, above) = (outcomes.next(), outcomes.next());
        if let Some(next) = if mid_saturated { below } else { above } {
            step(next?);
        }
    }
    Ok((0.5 * (lo + hi), rounds))
}

/// The paper's S1..S9 protocol: find the saturation rate, then sweep
/// `cfg.points` evenly spaced offered loads from low traffic to
/// `cfg.overdrive` × saturation.
///
/// Returns the sweep and the estimated saturation rate.
///
/// # Errors
/// See [`SimError`].
pub fn paper_sweep(
    topo: &Topology,
    routing: &dyn Routing,
    host_clusters: &[usize],
    base: SimConfig,
    cfg: SweepConfig,
) -> Result<(LoadSweep, f64), SimError> {
    let sat = find_saturation_rate(topo, routing, host_clusters, base, cfg)?;
    let rates = sweep_rates(sat, cfg.points, cfg.overdrive);
    let sw = sweep(topo, routing, host_clusters, base, &rates, cfg.threads)?;
    Ok((sw, sat))
}

/// Evenly spaced offered rates from `top/points` up to
/// `overdrive × saturation` (the S1..S9 grid).
pub fn sweep_rates(saturation: f64, points: usize, overdrive: f64) -> Vec<f64> {
    let points = points.max(1);
    let top = saturation * overdrive;
    (1..=points)
        .map(|i| top * i as f64 / points as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_500,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_rates_grid() {
        let rates = sweep_rates(0.9, 9, 1.2);
        assert_eq!(rates.len(), 9);
        assert!((rates[8] - 1.08).abs() < 1e-12);
        assert!((rates[0] - 0.12).abs() < 1e-12);
        // Strictly increasing.
        assert!(rates.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn saturation_found_for_tiny_net() {
        let topo = designed::line(2, 1);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let sat = find_saturation_rate(
            &topo,
            &routing,
            &[0, 0],
            quick_cfg(),
            SweepConfig::default(),
        )
        .unwrap();
        // The single link caps throughput at <= 1 flit/host/cycle.
        assert!(sat > 0.2, "saturation {sat} implausibly low");
        assert!(sat <= 1.1, "saturation {sat} beyond link capacity");
    }

    #[test]
    fn short_unsaturated_run_is_not_flagged_saturated() {
        let topo = designed::ring(4, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let clusters: Vec<usize> = (0..8).map(|h| h / 4).collect();
        // A very short window with no warm-up: at window close a tail of
        // messages is inevitably still in flight.
        let cfg = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 150,
            seed: 4,
            ..Default::default()
        };
        // The probed load is far below this ring's capacity, yet the
        // pre-fix windowed accounting (delivered vs generated inside the
        // window, in-flight tail counted as lost) flags it saturated.
        let rate = 0.05;
        let stats = simulate(&topo, &routing, &clusters, cfg.with_rate(rate)).unwrap();
        let generated_flits = stats.generated_messages * cfg.msg_len as u64;
        assert!(generated_flits > 0, "window too short to generate traffic");
        assert!(
            (stats.delivered_flits as f64) < 0.95 * generated_flits as f64,
            "expected the raw window to miss the in-flight tail \
             (delivered {} of {generated_flits} flits)",
            stats.delivered_flits
        );
        // The tail-aware detector keeps its estimate well above that
        // clearly feasible load instead of collapsing onto it.
        let sat =
            find_saturation_rate(&topo, &routing, &clusters, cfg, SweepConfig::default()).unwrap();
        assert!(
            sat > 2.0 * rate,
            "saturation estimate {sat} collapsed near the unsaturated probe {rate}"
        );
    }

    #[test]
    fn paper_sweep_shape() {
        let topo = designed::ring(4, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let clusters: Vec<usize> = (0..8).map(|h| h / 4).collect();
        let (sw, sat) = paper_sweep(
            &topo,
            &routing,
            &clusters,
            quick_cfg(),
            SweepConfig {
                points: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sw.points.len(), 5);
        assert!(sat > 0.0);
        // Latency grows (weakly) with load up to saturation.
        assert!(
            sw.points[4].stats.avg_network_latency >= sw.points[0].stats.avg_network_latency,
            "latency should not shrink with load"
        );
        assert!(sw.throughput() > 0.0);
    }

    /// `(netsim_runs_total, warm-up + measurement cycles)` as the daemon's
    /// `METRICS` shows them.
    fn simulated() -> (u64, u64) {
        let text = commsched_telemetry::global().render_prometheus();
        let read = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or(0)
        };
        let cycles = read("netsim_warmup_cycles_total") + read("netsim_measure_cycles_total");
        (read("netsim_runs_total"), cycles)
    }

    #[test]
    fn paper_sweep_counts_every_simulator_it_advanced() {
        let topo = designed::ring(4, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let clusters: Vec<usize> = (0..8).map(|h| h / 4).collect();
        let (runs0, cycles0) = simulated();
        paper_sweep(
            &topo,
            &routing,
            &clusters,
            quick_cfg(),
            SweepConfig::default(),
        )
        .unwrap();
        let (runs, cycles) = simulated();
        // The saturation search probes at least seven rates (one to
        // bracket, six to bisect) before the nine points run, each a full
        // warm-up and measurement. Other tests share the registry, so
        // these are floors, not equalities.
        assert!(runs - runs0 >= 7 + 9, "{} runs counted", runs - runs0);
        assert!(cycles - cycles0 >= (7 + 9) * (300 + 1_500));
    }

    #[test]
    fn sweep_propagates_errors() {
        let topo = designed::line(2, 1);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let err = sweep(&topo, &routing, &[0], quick_cfg(), &[0.1], 1).unwrap_err();
        assert!(matches!(err, SimError::HostCountMismatch { .. }));
        // A rate past u16::MAX is invalid: with this overdrive S1 runs and
        // S2..S9 fail, so the pool's first claims (S9, S8) fail first.
        let sat = find_saturation_rate(
            &topo,
            &routing,
            &[0, 0],
            quick_cfg(),
            SweepConfig::default(),
        )
        .unwrap();
        let overdrive = 9.0 * 50_000.0 / sat;
        let rates = sweep_rates(sat, 9, overdrive);
        let serial = sweep(&topo, &routing, &[0, 0], quick_cfg(), &rates[1..], 1).unwrap_err();
        assert!(matches!(serial, SimError::Config(_)), "{serial:?}");
        assert!(sweep(&topo, &routing, &[0, 0], quick_cfg(), &rates[..1], 1).is_ok());
        for threads in [1, 2] {
            let cfg = SweepConfig {
                threads,
                ..SweepConfig::default()
            };
            let err = paper_sweep(&topo, &routing, &[0], quick_cfg(), cfg).unwrap_err();
            assert_eq!(
                err,
                SimError::HostCountMismatch {
                    pattern: 1,
                    topology: 2
                }
            );
            let cfg = SweepConfig { overdrive, ..cfg };
            let err = paper_sweep(&topo, &routing, &[0, 0], quick_cfg(), cfg).unwrap_err();
            assert_eq!(err, serial, "threads = {threads}");
            let err = sweep(&topo, &routing, &[0, 0], quick_cfg(), &rates, threads).unwrap_err();
            assert_eq!(err, serial, "threads = {threads}");
        }
    }

    /// The serial bisection, the reference [`bisect`] must reproduce: the
    /// rates it probes, in order, and the last bracket's midpoint.
    fn serial_bisect(mut lo: f64, mut hi: f64, saturated: impl Fn(f64) -> bool) -> (Vec<f64>, f64) {
        let mut probed = Vec::new();
        for _ in 0..6 {
            let mid = 0.5 * (lo + hi);
            probed.push(mid);
            if saturated(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (probed, 0.5 * (lo + hi))
    }

    /// A threshold predicate for each of the 64 leaves six halvings of
    /// `[lo, hi]` end in: saturated from the middle of the leaf on.
    fn leaf_thresholds(lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        (0..64).map(move |leaf| lo + (hi - lo) * (f64::from(leaf) + 0.5) / 64.0)
    }

    #[test]
    fn the_bisection_one_step_ahead_lands_in_every_leaf_serially() {
        // A bracket of the doubling, and one whose midpoints a differently
        // rounded expression (`lo + 0.5 * (mid - lo)`) would miss.
        for (lo, hi) in [(0.04, 0.08), (0.1, 0.7)] {
            one_step_ahead_in_every_leaf(lo, hi);
        }
    }

    fn one_step_ahead_in_every_leaf(lo: f64, hi: f64) {
        let mut leaves = Vec::new();
        for threshold in leaf_thresholds(lo, hi) {
            let saturated = |rate: f64| rate >= threshold;
            let (serial, want) = serial_bisect(lo, hi, saturated);
            assert!((want - threshold).abs() < (hi - lo) / 128.0);
            leaves.push(want.to_bits());
            // A speculative hit: a saturated midpoint with a step after it,
            // whose next probe (below) a two-wide round already ran.
            let (mut hits, mut step) = (0, 0);
            while step < 6 {
                let hit = step < 5 && saturated(serial[step]);
                hits += usize::from(hit);
                step += if hit { 2 } else { 1 };
            }
            for threads in [1, 2, 3] {
                let probed = std::sync::Mutex::new(Vec::new());
                let (rate, rounds) = bisect(lo, hi, threads, |rate| {
                    probed.lock().unwrap().push(rate);
                    Ok::<_, ()>(saturated(rate))
                })
                .unwrap();
                assert_eq!(rate.to_bits(), want.to_bits(), "threads = {threads}");
                let probed = probed.into_inner().unwrap();
                assert!(serial.iter().all(|r| probed.contains(r)));
                match threads {
                    1 => assert_eq!((probed, rounds), (serial.clone(), 6)),
                    2 => assert_eq!(rounds, 6 - hits, "threshold {threshold}"),
                    _ => assert_eq!(rounds, 3, "threshold {threshold}"),
                }
            }
        }
        leaves.dedup();
        assert_eq!(leaves.len(), 64);
    }

    #[test]
    fn the_bisection_returns_the_first_error_the_serial_path_meets() {
        let (lo, hi) = (0.0, 1.0);
        for threshold in leaf_thresholds(lo, hi) {
            let saturated = |rate: f64| rate >= threshold;
            let (serial, want) = serial_bisect(lo, hi, saturated);
            // Serial probes before the `k`-th succeed; it, every later
            // one and every probe the serial path never runs fail, each
            // with its own rate.
            for k in 0..=6 {
                let probe = |rate: f64| match serial.iter().position(|&r| r == rate) {
                    Some(i) if i < k => Ok(saturated(rate)),
                    _ => Err(rate),
                };
                let expect = serial.get(k).map_or(Ok(want), |&r| Err(r));
                for threads in [1, 2, 3] {
                    let got = bisect(lo, hi, threads, probe).map(|(rate, _)| rate);
                    assert_eq!(
                        got, expect,
                        "threshold {threshold}, k {k}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_sweep_starts_no_pool_inside_a_pool_worker() {
        let topo = designed::ring(4, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let clusters: Vec<usize> = (0..8).map(|h| h / 4).collect();
        let cfg = SweepConfig {
            points: 5,
            threads: 2,
            ..SweepConfig::default()
        };
        let (_, starts) = commsched_telemetry::pool::logged(|| {
            paper_sweep(&topo, &routing, &clusters, quick_cfg(), cfg).unwrap()
        });
        assert!(starts.iter().all(|s| !s.on_worker), "{starts:?}");
        assert!(starts.iter().any(|s| s.width == 2), "{starts:?}");
    }
}
