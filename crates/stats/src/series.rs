//! Helpers for latency/throughput curves.
//!
//! The simulator produces, per mapping, a curve of `(accepted traffic,
//! average latency)` points swept from low load to saturation (the paper's
//! simulation points S1..S9). These helpers extract the quantities the paper
//! reports: the saturation throughput of a curve and normalized series for
//! correlation studies.

/// One point of a latency/throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Offered load (flits per node per cycle).
    pub offered: f64,
    /// Accepted traffic (flits per node per cycle).
    pub accepted: f64,
    /// Average message latency in cycles.
    pub latency: f64,
}

/// A latency/throughput curve for a single mapping, ordered by offered load.
#[derive(Debug, Clone, Default)]
pub struct Curve {
    /// Points ordered by increasing offered load.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// Create a curve from points (sorted by offered load).
    pub fn new(mut points: Vec<CurvePoint>) -> Self {
        points.sort_by(|a, b| a.offered.partial_cmp(&b.offered).expect("NaN offered load"));
        Self { points }
    }

    /// Maximum accepted traffic over the curve — the throughput the paper
    /// reports ("maximum amount of information delivered per time unit").
    pub fn throughput(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.accepted)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Latency at the lowest offered load (the "zero-load" latency proxy).
    pub fn base_latency(&self) -> Option<f64> {
        self.points.first().map(|p| p.latency)
    }
}

/// Index of the saturation point: the first point where accepted traffic
/// falls below `threshold` (default use: 0.95) times offered load, i.e. the
/// network stops accepting what is offered. Returns `points.len()` if the
/// curve never saturates.
pub fn saturation_point(points: &[CurvePoint], threshold: f64) -> usize {
    points
        .iter()
        .position(|p| p.accepted < threshold * p.offered)
        .unwrap_or(points.len())
}

/// Normalize a series to `[0, 1]` by min/max. A constant series maps to all
/// zeros.
pub fn normalize(xs: &[f64]) -> Vec<f64> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !lo.is_finite() || !hi.is_finite() || hi == lo {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|&x| (x - lo) / (hi - lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, accepted: f64, latency: f64) -> CurvePoint {
        CurvePoint {
            offered,
            accepted,
            latency,
        }
    }

    #[test]
    fn curve_sorts_points() {
        let c = Curve::new(vec![pt(0.3, 0.3, 30.0), pt(0.1, 0.1, 20.0)]);
        assert_eq!(c.points[0].offered, 0.1);
        assert_eq!(c.base_latency(), Some(20.0));
    }

    #[test]
    fn throughput_is_max_accepted() {
        let c = Curve::new(vec![
            pt(0.1, 0.1, 20.0),
            pt(0.2, 0.2, 25.0),
            pt(0.3, 0.22, 90.0), // saturated: accepted dips
        ]);
        assert_eq!(c.throughput(), Some(0.22));
    }

    #[test]
    fn empty_curve() {
        let c = Curve::default();
        assert_eq!(c.throughput(), None);
        assert_eq!(c.base_latency(), None);
    }

    #[test]
    fn saturation_detection() {
        let points = vec![pt(0.1, 0.1, 20.0), pt(0.2, 0.2, 30.0), pt(0.3, 0.21, 200.0)];
        assert_eq!(saturation_point(&points, 0.95), 2);
        let unsat = vec![pt(0.1, 0.1, 20.0)];
        assert_eq!(saturation_point(&unsat, 0.95), 1);
    }

    #[test]
    fn normalize_basic() {
        assert_eq!(normalize(&[1.0, 3.0, 2.0]), vec![0.0, 1.0, 0.5]);
        assert_eq!(normalize(&[2.0, 2.0]), vec![0.0, 0.0]);
        assert_eq!(normalize(&[]), Vec::<f64>::new());
    }
}
