//! Result checks. Every job's `RESULT` payload is parsed and checked;
//! a miss makes the job a failure, which has no latency and counts
//! against every limit.

use commsched_core::{quality, Partition};
use commsched_distance::DistanceTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's designed network: the optimum is its four rings.
pub const PAPER24_FG: f64 = 0.178_265;
pub const PAPER24_CC: f64 = 6.890;

/// One `point <offered> <accepted> <latency|->` line of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub rate: f64,
    pub accepted: f64,
    /// `None` for the literal `-` (no message delivered in the window).
    pub latency: Option<f64>,
}

/// A parsed `RESULT` payload of a SCHEDULE or SWEEP job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobResult {
    pub clusters: usize,
    pub partition: Vec<usize>,
    pub fg: f64,
    pub cc: f64,
    pub saturation: Option<f64>,
    pub points: Vec<SweepPoint>,
}

/// Parse the `key value` payload lines.
///
/// # Errors
/// A required key is missing or a value does not parse.
pub fn parse_result(lines: &[String]) -> Result<JobResult, String> {
    let mut r = JobResult {
        fg: f64::NAN,
        cc: f64::NAN,
        ..JobResult::default()
    };
    let mut seen_partition = false;
    for line in lines {
        let (key, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        let bad = || format!("unparsable result line '{line}'");
        match key {
            "clusters" => r.clusters = rest.parse().map_err(|_| bad())?,
            "partition" => {
                r.partition = rest
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?;
                seen_partition = true;
            }
            "fg" => r.fg = rest.parse().map_err(|_| bad())?,
            "cc" => r.cc = rest.parse().map_err(|_| bad())?,
            "saturation" => r.saturation = Some(rest.parse().map_err(|_| bad())?),
            "point" => {
                let cols: Vec<&str> = rest.split_whitespace().collect();
                let [rate, accepted, latency] = cols[..] else {
                    return Err(bad());
                };
                r.points.push(SweepPoint {
                    rate: rate.parse().map_err(|_| bad())?,
                    accepted: accepted.parse().map_err(|_| bad())?,
                    latency: match latency {
                        "-" => None,
                        l => Some(l.parse().map_err(|_| bad())?),
                    },
                });
            }
            _ => {}
        }
    }
    if !seen_partition || r.clusters == 0 || r.fg.is_nan() {
        return Err("result lacks clusters, partition or fg".into());
    }
    Ok(r)
}

/// The partition names every switch once and every cluster holds
/// exactly `n / clusters` of them.
///
/// # Errors
/// Says which property fails.
pub fn check_balance(partition: &[usize], n: usize, clusters: usize) -> Result<(), String> {
    if partition.len() != n {
        return Err(format!(
            "partition has {} entries for {n} switches",
            partition.len()
        ));
    }
    let mut sizes = vec![0usize; clusters];
    for &c in partition {
        *sizes
            .get_mut(c)
            .ok_or_else(|| format!("cluster id {c} out of range 0..{clusters}"))? += 1;
    }
    match sizes.iter().position(|&s| s * clusters != n) {
        Some(c) => Err(format!(
            "cluster {c} holds {} switches, expected {}",
            sizes[c],
            n / clusters
        )),
        None => Ok(()),
    }
}

/// The harness's own `F_G` of `partition` under its own exact `table`.
///
/// # Errors
/// The partition is not a valid one for the table.
pub fn recompute_fg(
    partition: &[usize],
    clusters: usize,
    table: &DistanceTable,
) -> Result<f64, String> {
    let p = Partition::new(partition.to_vec(), clusters).map_err(|e| e.to_string())?;
    Ok(quality(&p, table).fg)
}

/// The reported `F_G` equals the harness's recomputation.
///
/// # Errors
/// They differ by more than 1e-6 (or either is not a number).
pub fn check_fg_matches(reported: f64, recomputed: f64) -> Result<(), String> {
    if (reported - recomputed).abs() <= 1e-6 {
        Ok(())
    } else {
        Err(format!(
            "reported fg {reported:.9} != recomputed {recomputed:.9}"
        ))
    }
}

/// `F_G` of one seeded random balanced partition: the paper's random
/// mapping, which the search must beat.
pub fn random_fg(table: &DistanceTable, clusters: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = Partition::random_balanced(table.n(), clusters, &mut rng)
        .expect("workload sizes divide evenly");
    quality(&p, table).fg
}

/// A `paper24` job must return the four rings of six.
///
/// # Errors
/// Wrong grouping, `F_G` or `Cc`.
pub fn check_paper24(r: &JobResult) -> Result<(), String> {
    let rings_ok = r.partition.len() == 24
        && r.partition
            .chunks(6)
            .all(|ring| ring.iter().all(|&c| c == ring[0]));
    if !rings_ok {
        return Err("paper24 partition is not the four rings".into());
    }
    if (r.fg - PAPER24_FG).abs() > 1e-6 {
        return Err(format!("paper24 fg {:.9} != {PAPER24_FG}", r.fg));
    }
    if (r.cc - PAPER24_CC).abs() > 1e-3 {
        return Err(format!("paper24 cc {:.6} != {PAPER24_CC}", r.cc));
    }
    Ok(())
}

/// A sweep has a positive saturation rate and `points` load points with
/// ascending offered rates, accepted traffic that does not exceed what
/// was offered, and a numeric latency (or `-`).
///
/// `accepted` is flits per *switch* per cycle and `rate` flits per
/// *host* per cycle, so the comparison scales by `hosts_per_switch`.
/// Sources are Bernoulli, so a window realizes its nominal rate only in
/// expectation: `msgs_per_unit_rate` (hosts × measured cycles ÷ message
/// length) gives the expected message count M of a point, and accepted
/// traffic may exceed offered by five standard deviations, 5/√M.
///
/// # Errors
/// Says which property fails.
pub fn check_sweep(
    r: &JobResult,
    points: usize,
    hosts_per_switch: usize,
    msgs_per_unit_rate: f64,
) -> Result<(), String> {
    match r.saturation {
        Some(s) if s > 0.0 && s.is_finite() => {}
        other => return Err(format!("saturation {other:?} is not positive")),
    }
    if r.points.len() != points {
        return Err(format!(
            "{} sweep points, expected {points}",
            r.points.len()
        ));
    }
    for (i, p) in r.points.iter().enumerate() {
        if !(p.rate.is_finite() && p.rate > 0.0 && p.accepted.is_finite() && p.accepted >= 0.0) {
            return Err(format!(
                "point {i} has a non-numeric rate or accepted traffic"
            ));
        }
        if i > 0 && p.rate <= r.points[i - 1].rate {
            return Err(format!("point {i} rate does not ascend"));
        }
        let slack = 5.0 / (p.rate * msgs_per_unit_rate).sqrt();
        if p.accepted > p.rate * hosts_per_switch as f64 * (1.0 + slack) {
            return Err(format!("point {i} accepted {} exceeds offered", p.accepted));
        }
        if p.latency.is_some_and(|l| !l.is_finite() || l < 0.0) {
            return Err(format!("point {i} latency is not a number"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;

    fn lines(text: &str) -> Vec<String> {
        text.lines().map(str::to_string).collect()
    }

    const GOOD: &str = "topology d04a92caefb409d1\nclusters 2\npartition 0 0 1 1\nfg 0.5\ndg 1.0\ncc 2.0\nwinning_seed 3\nstrategy flat";

    #[test]
    fn parses_schedule_and_sweep_payloads() {
        let r = parse_result(&lines(GOOD)).unwrap();
        assert_eq!(
            (r.clusters, r.partition.as_slice(), r.fg),
            (2, &[0, 0, 1, 1][..], 0.5)
        );
        assert!(r.saturation.is_none() && r.points.is_empty());
        let sweep = format!("{GOOD}\nsaturation 0.25\npoint 0.1 0.39 20.5\npoint 0.2 0.75 -");
        let r = parse_result(&lines(&sweep)).unwrap();
        assert_eq!(r.saturation, Some(0.25));
        assert_eq!(
            r.points[1],
            SweepPoint {
                rate: 0.2,
                accepted: 0.75,
                latency: None
            }
        );
        assert!(parse_result(&lines("noop")).is_err());
        assert!(parse_result(&lines("clusters 2\npartition 0 x\nfg 1")).is_err());
    }

    #[test]
    fn unbalanced_or_malformed_partitions_are_rejected() {
        assert!(check_balance(&[0, 0, 1, 1], 4, 2).is_ok());
        let e = check_balance(&[0, 0, 0, 1], 4, 2).unwrap_err();
        assert!(e.contains("cluster 0 holds 3"), "{e}");
        assert!(check_balance(&[0, 0, 1], 4, 2)
            .unwrap_err()
            .contains("3 entries"));
        assert!(check_balance(&[0, 0, 1, 2], 4, 2)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn wrong_fg_is_caught_against_the_harness_table() {
        let topo = designed::paper_24_switch();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let rings: Vec<usize> = (0..24).map(|s| s / 6).collect();
        let fg = recompute_fg(&rings, 4, &table).unwrap();
        assert!((fg - PAPER24_FG).abs() < 1e-6, "{fg}");
        assert!(check_fg_matches(fg + 5e-7, fg).is_ok());
        assert!(check_fg_matches(fg + 1e-3, fg).is_err());
        assert!(check_fg_matches(f64::NAN, fg).is_err());
        // The optimum beats a random mapping.
        assert!(fg < random_fg(&table, 4, 1));
        let good = JobResult {
            clusters: 4,
            partition: rings,
            fg,
            cc: 6.8901,
            ..JobResult::default()
        };
        assert!(check_paper24(&good).is_ok());
        let mut mixed = good.clone();
        mixed.partition.swap(0, 6);
        assert!(check_paper24(&mixed).is_err());
        assert!(check_paper24(&JobResult { fg: 0.2, ..good }).is_err());
    }

    #[test]
    fn sweep_checks_reject_nan_latency_descending_rates_and_excess_traffic() {
        let point = |rate, accepted, latency| SweepPoint {
            rate,
            accepted,
            latency,
        };
        let base = JobResult {
            saturation: Some(0.2),
            points: vec![point(0.1, 0.39, Some(20.0)), point(0.2, 0.6, None)],
            ..JobResult::default()
        };
        assert!(check_sweep(&base, 2, 4, 12_000.0).is_ok());
        assert!(check_sweep(&base, 3, 4, 12_000.0).is_err());
        let with = |f: &dyn Fn(&mut JobResult)| {
            let mut r = base.clone();
            f(&mut r);
            check_sweep(&r, 2, 4, 12_000.0)
        };
        assert!(with(&|r| r.points[0].latency = Some(f64::NAN)).is_err());
        assert!(with(&|r| r.points[1].rate = 0.05).is_err());
        assert!(with(&|r| r.points[0].accepted = 0.9).is_err());
        assert!(with(&|r| r.saturation = Some(0.0)).is_err());
        assert!(with(&|r| r.saturation = None).is_err());
    }
}
