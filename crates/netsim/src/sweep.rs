//! Load sweeps: the paper's simulation points S1..S9.
//!
//! Each network/mapping pair is simulated "from low traffic (simulation
//! point S1) to saturation (simulation point S9)" (§5.2). This module finds
//! the saturation rate by bracketing + bisection and lays out evenly spaced
//! offered loads across that range, producing the latency/throughput curves
//! of Figures 3 and 5.

use crate::config::SimConfig;
use crate::engine::{count_sweep_probes, simulate, Phase, SimError, Simulator};
use crate::stats::SimStats;
use crate::traffic::TrafficPattern;
use commsched_routing::Routing;
use commsched_telemetry::pool::{resolve_threads, run_indexed};
use commsched_topology::Topology;
use std::collections::BTreeMap;

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
    /// Workers for the saturation search's probes and the points (0 = one
    /// per CPU); results do not depend on it. A speculative probe whose
    /// outcome the search never reads is spent work, so give the sweep
    /// only CPUs that would otherwise idle.
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
/// bracket by doubling from 0.02, then bisect six times. The probes run
/// in rounds on `cfg.threads` workers: each runs the rate the serial
/// search needs next, and spare workers run the rate it would need after
/// that — at two workers under a predicted outcome of the needed one, at
/// three or more under both. The rate is the serial search's, bit for bit.
///
/// # Errors
/// See [`SimError`]; the one the serial search would meet first.
pub fn find_saturation_rate(
    topo: &Topology,
    routing: &dyn Routing,
    host_clusters: &[usize],
    base: SimConfig,
    cfg: SweepConfig,
) -> Result<f64, SimError> {
    saturation_search(topo, routing, host_clusters, base, cfg).0
}

/// [`find_saturation_rate`] and what its search spent.
fn saturation_search(
    topo: &Topology,
    routing: &dyn Routing,
    host_clusters: &[usize],
    base: SimConfig,
    cfg: SweepConfig,
) -> (Result<f64, SimError>, Tally) {
    let threshold = cfg.saturation_threshold;
    let probe = |rate: f64| -> Result<Probe, SimError> {
        let pattern = TrafficPattern::new(host_clusters.to_vec());
        let mut sim = Simulator::new(topo, routing, pattern, base.with_rate(rate))?;
        let stuck = |sim: &Simulator| Probe {
            saturated: true,
            ratio: 0.0,
            load: sim.busiest_link_flits() as f64 / sim.cycle() as f64,
        };
        let (_, stuck_in_warmup) = sim.window(Phase::Warmup, |sim| sim.advance(base.warmup_cycles));
        if stuck_in_warmup {
            return Ok(stuck(&sim));
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
        let (window, stuck_in_measure) = sim.window(Phase::Measure, |sim| {
            sim.advance(base.measure_cycles) || sim.drain(grace)
        });
        if stuck_in_measure {
            return Ok(stuck(&sim));
        }
        // Compare accepted traffic against the *realized* offered traffic
        // (generated flits), not the nominal rate: the Bernoulli generator
        // matches the nominal rate only in expectation, and on small
        // networks at low rates that sampling noise would turn the
        // nominal-rate test into a coin flip.
        let generated_flits = (window.generated * base.msg_len as u64) as f64;
        let delivered = (window.delivered_flits + sim.flits_in_network()) as f64;
        Ok(Probe {
            saturated: delivered < threshold * generated_flits,
            ratio: if generated_flits > 0.0 {
                delivered / generated_flits
            } else {
                1.0
            },
            load: sim.busiest_link_flits() as f64 / sim.cycle() as f64,
        })
    };
    let start = Bracket {
        lo: 0.0,
        hi: 0.02,
        max_rate: cfg.max_rate,
    };
    let threads = resolve_threads(cfg.threads);
    let (rate, tally) = search(
        start,
        threads,
        |known, rate| predict(known, rate, threshold),
        probe,
    );
    count_sweep_probes(tally.probes, tally.spent);
    (rate, tally)
}

/// What one saturation probe measured.
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// The outcome: what the search reads.
    saturated: bool,
    /// Delivered ÷ generated flits of the measurement window (0 for a
    /// run that ended stuck): a hint.
    ratio: f64,
    /// Flits per cycle over the busiest switch-to-switch channel: a hint.
    load: f64,
}

/// Probe outcomes by `rate.to_bits()`, which orders positive rates by
/// value.
type Memo<E> = BTreeMap<u64, Result<Probe, E>>;

/// Where the serial search starts: it doubles `hi` while `hi` is below
/// `max_rate` and unsaturated (answering `max_rate` if it gets there),
/// then halves `[lo, hi]` six times.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    lo: f64,
    hi: f64,
    max_rate: f64,
}

/// Where the serial search stands over the outcomes known so far.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// It probes this rate next.
    Probe(f64),
    /// It has ended after reading `read` outcomes: at a rate, or with the
    /// error of the probe at `Err`'s rate.
    Done { read: usize, end: Result<f64, f64> },
}

/// Replay the serial search over `known`, with `assumed` standing in for
/// one outcome, up to the first rate it has no outcome for.
fn walk<E>(known: &Memo<E>, assumed: Option<(f64, bool)>, start: Bracket) -> Step {
    let mut read = 0;
    let mut outcome = |rate: f64| match assumed {
        Some((at, saturated)) if at.to_bits() == rate.to_bits() => Ok(saturated),
        _ => {
            let known = known.get(&rate.to_bits()).ok_or(Step::Probe(rate))?;
            read += 1;
            let end = Err(rate);
            known
                .as_ref()
                .map(|p| p.saturated)
                .map_err(|_| Step::Done { read, end })
        }
    };
    let mut serial = || -> Result<f64, Step> {
        let Bracket {
            mut lo,
            mut hi,
            max_rate,
        } = start;
        while hi < max_rate && !outcome(hi)? {
            lo = hi;
            hi *= 2.0;
        }
        if hi >= max_rate {
            return Ok(max_rate);
        }
        for _ in 0..6 {
            let mid = 0.5 * (lo + hi);
            *if outcome(mid)? { &mut hi } else { &mut lo } = mid;
        }
        Ok(0.5 * (lo + hi))
    };
    match serial() {
        Ok(rate) => Step::Done {
            read,
            end: Ok(rate),
        },
        Err(step) => step,
    }
}

/// What a saturation search spent.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Rounds of probes run side by side.
    rounds: usize,
    /// Probes run.
    probes: usize,
    /// Probes whose outcome no step of the search read.
    spent: usize,
}

/// Run the serial search from `start` in rounds of up to `threads`
/// probes; `predict(known, rate)` guesses whether `rate` is saturated.
fn search<E: Send>(
    start: Bracket,
    threads: usize,
    mut predict: impl FnMut(&Memo<E>, f64) -> bool,
    probe: impl Fn(f64) -> Result<Probe, E> + Sync,
) -> (Result<f64, E>, Tally) {
    let mut known = Memo::new();
    let mut tally = Tally::default();
    loop {
        let need = match walk(&known, None, start) {
            Step::Probe(rate) => rate,
            Step::Done { read, end } => {
                tally.spent = tally.probes - read;
                let end = end.map_err(|rate| match known.remove(&rate.to_bits()) {
                    Some(Err(e)) => e,
                    _ => unreachable!("the search ends on an error it read"),
                });
                return (end, tally);
            }
        };
        let guesses = match threads {
            1 => vec![],
            2 => vec![predict(&known, need)],
            _ => vec![true, false],
        };
        let mut rates = vec![need];
        for saturated in guesses {
            if let Step::Probe(next) = walk(&known, Some((need, saturated)), start) {
                rates.push(next);
            }
        }
        // CORRECTNESS: a probe is a pure function of its rate, and the
        // walk reads only outcomes that probes returned — a guess decides
        // which rate runs early, never what a step reads — so the search
        // takes the serial steps to the serial end, bit for bit, however
        // wide its rounds and however wrong its guesses. A speculative
        // probe's error waits in `known` until a step reads it.
        let outcomes = run_indexed(rates.len(), threads, |i| probe(rates[i]));
        tally.rounds += 1;
        tally.probes += rates.len();
        known.extend(rates.iter().map(|rate| rate.to_bits()).zip(outcomes));
    }
}

/// Guess whether `rate` is saturated from the probes in `known`:
/// monotonicity first, then the delivered ratio interpolated between the
/// nearest probes either side, then — with unsaturated probes only — the
/// rate at which the highest one's busiest channel would carry a flit per
/// cycle, with a 0.8 margin (over eight nets the search's answer was
/// 0.75–1.24 × that rate).
fn predict<E>(known: &Memo<E>, rate: f64, threshold: f64) -> bool {
    let bits = rate.to_bits();
    let ok = |(&bits, probe): (&u64, &Result<Probe, E>)| {
        Some((f64::from_bits(bits), *probe.as_ref().ok()?))
    };
    let (mut below, mut above) = (
        known.range(..=bits).filter_map(ok),
        known.range(bits..).filter_map(ok),
    );
    if below.clone().any(|(_, p)| p.saturated) {
        return true;
    }
    if above.clone().any(|(_, p)| !p.saturated) {
        return false;
    }
    let lower = below.next_back();
    match (lower, above.next()) {
        (_, Some((hi, upper))) => {
            let (lo, lo_ratio) = lower.map_or((0.0, 1.0), |(lo, p)| (lo, p.ratio));
            let ratio = lo_ratio + (upper.ratio - lo_ratio) * (rate - lo) / (hi - lo);
            ratio < threshold
        }
        (Some((x, p)), None) => rate > 0.8 * x / p.load,
        (None, None) => false,
    }
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
    use commsched_topology::{designed, random_regular, RandomTopologyConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The serial search, the reference [`search`] must reproduce: the
    /// rates it probes, in order, and its answer.
    fn serial_search(start: Bracket, saturated: impl Fn(f64) -> bool) -> (Vec<f64>, f64) {
        let mut probed = Vec::new();
        let mut outcome = |rate: f64| {
            probed.push(rate);
            saturated(rate)
        };
        let Bracket {
            mut lo,
            mut hi,
            max_rate,
        } = start;
        while hi < max_rate && !outcome(hi) {
            lo = hi;
            hi *= 2.0;
        }
        let answer = if hi >= max_rate {
            max_rate
        } else {
            for _ in 0..6 {
                let mid = 0.5 * (lo + hi);
                if outcome(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            0.5 * (lo + hi)
        };
        (probed, answer)
    }

    /// The daemon's start: doubling from 0.02 under the default cap.
    const START: Bracket = Bracket {
        lo: 0.0,
        hi: 0.02,
        max_rate: 4.0,
    };

    /// A threshold for each of the 64 leaves six halvings of `[lo, hi]`
    /// end in: saturated from the middle of the leaf on.
    fn leaf_thresholds(lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        (0..64).map(move |leaf| lo + (hi - lo) * (f64::from(leaf) + 0.5) / 64.0)
    }

    /// Thresholds that end the bracket from [`START`] after each doubling
    /// (0.02 itself saturated, … 2.56 the first saturated rate), then one
    /// that leaves it at the cap.
    fn bracket_ends() -> impl Iterator<Item = f64> {
        (0..8).map(|k| 0.75 * 0.02 * f64::from(1 << k)).chain([3.0])
    }

    /// A probe under a threshold: saturated from `threshold` on, with a
    /// delivered ratio that crosses 0.95 there and a busiest channel that
    /// carries a flit per cycle there.
    fn fake_probe(threshold: f64, rate: f64) -> Probe {
        Probe {
            saturated: rate >= threshold,
            ratio: 1.0 - 0.05 * rate / threshold,
            load: rate / threshold,
        }
    }

    /// The guesses a schedule is tried under.
    #[derive(Debug, Clone, Copy)]
    enum Guess {
        /// [`predict`] over the fake probes.
        Predicted,
        /// The opposite of the truth, every time.
        Wrong,
        /// The truth, every time.
        Right,
        /// A coin seeded with the threshold's bits.
        Coin,
    }

    /// [`search`] from `start` on `threads` workers under `guess`, with
    /// `probe` as the probe: its answer, its tally and the rates it ran.
    fn run_search<E: Send>(
        start: Bracket,
        threads: usize,
        threshold: f64,
        guess: Guess,
        probe: impl Fn(f64) -> Result<Probe, E> + Sync,
    ) -> (Result<f64, E>, Tally, Vec<f64>) {
        let mut coin = StdRng::seed_from_u64(threshold.to_bits());
        let probed = std::sync::Mutex::new(Vec::new());
        let (end, tally) = search(
            start,
            threads,
            |known, rate| match guess {
                Guess::Predicted => predict(known, rate, 0.95),
                Guess::Wrong => rate < threshold,
                Guess::Right => rate >= threshold,
                Guess::Coin => coin.gen(),
            },
            |rate| {
                probed.lock().unwrap().push(rate);
                probe(rate)
            },
        );
        (end, tally, probed.into_inner().unwrap())
    }

    const GUESSES: [Guess; 4] = [Guess::Predicted, Guess::Wrong, Guess::Right, Guess::Coin];

    /// Under every guess and at 1, 2 and 3 workers, the schedule ends
    /// where the serial search does, bit for bit, having run every rate it
    /// runs; one worker runs exactly those, in order; three take two steps
    /// a round — ⌈(bracket + 6) / 2⌉ rounds, or ⌈bracket / 2⌉ when the cap
    /// ends it — and so do two guessing right, while two guessing wrong
    /// take one.
    fn schedule_is_serial(start: Bracket, threshold: f64) -> f64 {
        let (serial, want) = serial_search(start, |rate| rate >= threshold);
        let n = serial.len();
        for guess in GUESSES {
            for threads in [1, 2, 3] {
                let ok = |rate| Ok::<_, ()>(fake_probe(threshold, rate));
                let (end, tally, probed) = run_search(start, threads, threshold, guess, ok);
                let case = format!("threshold {threshold}, {guess:?}, threads {threads}");
                assert_eq!(end.map(f64::to_bits), Ok(want.to_bits()), "{case}");
                assert!(serial.iter().all(|r| probed.contains(r)), "{case}");
                assert_eq!(tally.probes, probed.len(), "{case}");
                assert_eq!(tally.probes - tally.spent, n, "{case}");
                let rounds = match (threads, guess) {
                    (1, _) => {
                        assert_eq!(probed, serial, "{case}");
                        n..=n
                    }
                    (2, Guess::Wrong) => n..=n,
                    (2, Guess::Right) | (3, _) => n.div_ceil(2)..=n.div_ceil(2),
                    _ => n.div_ceil(2)..=n,
                };
                assert!(rounds.contains(&tally.rounds), "{case}: {tally:?}");
            }
        }
        want
    }

    #[test]
    fn the_probe_schedule_lands_in_every_leaf_serially() {
        // A bracket of the doubling, and one whose midpoints a differently
        // rounded expression (`lo + 0.5 * (hi - lo)`) would miss; the
        // second starts at its saturated end.
        let cases = [
            (START, 0.04, 0.08),
            (
                Bracket {
                    lo: 0.1,
                    hi: 0.7,
                    max_rate: 4.0,
                },
                0.1,
                0.7,
            ),
        ];
        for (start, lo, hi) in cases {
            let mut leaves = Vec::new();
            for threshold in leaf_thresholds(lo, hi) {
                let want = schedule_is_serial(start, threshold);
                assert!((want - threshold).abs() < (hi - lo) / 128.0);
                leaves.push(want.to_bits());
            }
            leaves.dedup();
            assert_eq!(leaves.len(), 64);
        }
    }

    #[test]
    fn the_probe_schedule_ends_the_bracket_where_the_serial_one_does() {
        for threshold in bracket_ends() {
            let want = schedule_is_serial(START, threshold);
            if threshold > 2.56 {
                assert_eq!(want, START.max_rate);
            } else {
                assert!((want - threshold).abs() <= threshold / 64.0, "{threshold}");
            }
        }
    }

    #[test]
    fn the_search_returns_the_first_error_the_serial_path_meets() {
        let whole = Bracket {
            lo: 0.0,
            hi: 1.0,
            max_rate: 4.0,
        };
        let cases = leaf_thresholds(0.0, 1.0)
            .map(|threshold| (whole, threshold))
            .chain(bracket_ends().map(|threshold| (START, threshold)));
        for (start, threshold) in cases {
            let (serial, want) = serial_search(start, |rate| rate >= threshold);
            // Serial probes before the `k`-th succeed; it, every later
            // one and every probe the serial path never runs fail, each
            // with its own rate.
            for k in 0..=serial.len() {
                let probe = |rate: f64| match serial.iter().position(|&r| r == rate) {
                    Some(i) if i < k => Ok(fake_probe(threshold, rate)),
                    _ => Err(rate),
                };
                let expect = serial.get(k).map_or(Ok(want), |&r| Err(r));
                for guess in GUESSES {
                    for threads in [1, 2, 3] {
                        let (got, tally, _) = run_search(start, threads, threshold, guess, probe);
                        assert_eq!(
                            got, expect,
                            "threshold {threshold}, k {k}, {guess:?}, threads {threads}"
                        );
                        assert_eq!(tally.probes - tally.spent, (k + 1).min(serial.len()));
                    }
                }
            }
        }
    }

    #[test]
    fn the_golden_sweep_nets_search_in_fewer_rounds_at_two_workers() {
        // The golden sweep nets (netsim/tests/golden.rs: three `paper(16)`
        // nets, then paper24) under the daemon's `SimConfig`.
        let daemon_sim = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 3_000,
            seed: 0xC0FFEE,
            ..Default::default()
        };
        let paper16 = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            random_regular(RandomTopologyConfig::paper(16), &mut rng).unwrap()
        };
        let nets = [161, 162, 163].map(paper16);
        let paper24 = designed::paper_24_switch();
        let cfg = SweepConfig {
            threads: 2,
            ..SweepConfig::default()
        };
        let tallies: Vec<_> = nets
            .iter()
            .chain([&paper24])
            .map(|topo| {
                let routing = UpDownRouting::new(topo, 0).unwrap();
                let (n, hps) = (topo.num_switches(), topo.hosts_per_switch());
                let apps: Vec<usize> = (0..n * hps).map(|h| (h / hps) / (n / 4)).collect();
                let (end, tally) = saturation_search(topo, &routing, &apps, daemon_sim, cfg);
                end.unwrap();
                (tally.rounds, tally.probes, tally.spent)
            })
            .collect();
        // `(rounds, probes, spent)`. Serially the searches read 10, 9, 10
        // and 10 probes. The schedule that bracketed serially and always
        // guessed "saturated" in the bisection took 8, 8, 8 and 9 rounds.
        assert_eq!(tallies, [(6, 12, 2), (5, 9, 0), (7, 13, 3), (6, 12, 2)]);
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
