//! The table of equivalent distances (the paper's `T_N`).
//!
//! `spec` says what a table is asked to be, `solve` resolves one pair
//! and `build` fans the pairs of a whole table out over workers. The repair
//! path (`crate::repair`) drives the same `solve` and the same fan-out,
//! so a repaired pair has the bits a rebuild gives it.
//! `reference` exists in debug builds only: the list-based series-path
//! test every resolved pair is checked against.

mod build;
#[cfg(debug_assertions)]
mod reference;
mod solve;
mod spec;

pub(crate) use build::{check_sizes, fan_out, FirstFailure};
pub use build::{
    equivalent_distance_table, equivalent_distance_table_with,
    equivalent_distance_table_with_report,
};
pub(crate) use solve::{PairSolver, PairTally};
pub use spec::{ApproxReport, TableError, TableOptions, TableSpec};

use commsched_routing::Routing;
use commsched_topology::SwitchId;

/// A cheaply clonable, immutable handle to a finished table.
///
/// Long-running consumers (the `commsched-service` distance-table cache)
/// key finished tables by topology fingerprint and hand them to
/// concurrent jobs; sharing an `Arc` makes each hand-off a pointer bump
/// instead of an `N²` copy.
pub type SharedDistanceTable = std::sync::Arc<DistanceTable>;

/// A symmetric `N × N` table of internode distances with zero diagonal.
///
/// `T[i][j]` is the equivalent distance between switches `i` and `j`. The
/// table "does not satisfy the triangular inequality, and thus it does not
/// define a metric space" (§3) — it is a cost measurement, not a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceTable {
    n: usize,
    /// Row-major full matrix (kept symmetric by construction).
    data: Vec<f64>,
}

impl DistanceTable {
    /// Build from a closure giving the distance for each unordered pair
    /// `i < j`.
    pub fn from_fn<F: FnMut(SwitchId, SwitchId) -> f64>(n: usize, mut f: F) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        Self { n, data }
    }

    /// Number of switches.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between `i` and `j`.
    #[inline]
    pub fn get(&self, i: SwitchId, j: SwitchId) -> f64 {
        self.data[i * self.n + j]
    }

    /// Squared distance between `i` and `j` (the quality functions work on
    /// squared distances throughout).
    #[inline]
    pub fn get_sq(&self, i: SwitchId, j: SwitchId) -> f64 {
        let d = self.get(i, j);
        d * d
    }

    /// Sum of squared distances over all unordered pairs.
    pub fn total_square(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                acc += self.get_sq(i, j);
            }
        }
        acc
    }

    /// Quadratic average over all unordered pairs: `Σ T²_{ij} / (N(N-1)/2)`
    /// — the normalization denominator of the paper's Eq. 2 and Eq. 5.
    ///
    /// Returns 0 for `n < 2`.
    pub fn mean_square(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.total_square() / (self.n * (self.n - 1) / 2) as f64
    }

    /// Maximum off-diagonal entry (0 for `n < 2`).
    pub fn max_distance(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                best = best.max(self.get(i, j));
            }
        }
        best
    }

    /// Row `i` of the table.
    pub fn row(&self, i: SwitchId) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Wrap the finished table in a [`SharedDistanceTable`] handle.
    pub fn into_shared(self) -> SharedDistanceTable {
        std::sync::Arc::new(self)
    }

    /// Overwrite the symmetric pair `(i, j)` — the repair path's patch
    /// primitive.
    pub(crate) fn set_pair(&mut self, i: SwitchId, j: SwitchId, d: f64) {
        self.data[i * self.n + j] = d;
        self.data[j * self.n + i] = d;
    }

    /// Triples `(i, j, k)` with `i < k` violating the triangle inequality
    /// (`T[i][k] > T[i][j] + T[j][k] + tol`).
    ///
    /// The paper remarks (§3) that the table of equivalent distances "does
    /// not satisfy the triangular inequality, and thus it does not define
    /// a metric space" — because every pair's resistance is computed on a
    /// *different* sub-network. This diagnostic makes that concrete; an
    /// up*/down*-routed ring exhibits violations (e.g. the forbidden-turn
    /// detour pair). The table is symmetric, so the mirrored triple
    /// `(k, j, i)` would repeat the same fact; restricting to `i < k`
    /// reports each violation exactly once.
    ///
    /// The scan is `O(N³)` and a large table can violate the inequality
    /// almost everywhere, so the report is capped at
    /// [`TRIANGLE_REPORT_CAP`] triples — diagnostics must not allocate
    /// `O(N³)` memory on a 4096-switch build. Use
    /// [`DistanceTable::triangle_violation_count`] for the exact total
    /// without any allocation.
    pub fn triangle_violations(&self, tol: f64) -> Vec<(SwitchId, SwitchId, SwitchId)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for k in (i + 1)..self.n {
                let direct = self.get(i, k);
                for j in 0..self.n {
                    if j == i || j == k {
                        continue;
                    }
                    if direct > self.get(i, j) + self.get(j, k) + tol {
                        out.push((i, j, k));
                        if out.len() >= TRIANGLE_REPORT_CAP {
                            return out;
                        }
                    }
                }
            }
        }
        out
    }

    /// Exact count of triangle violations (same predicate as
    /// [`DistanceTable::triangle_violations`]) with `O(1)` memory: the
    /// streaming form for large tables where materializing triples would
    /// dominate the build itself.
    pub fn triangle_violation_count(&self, tol: f64) -> u64 {
        let mut count = 0u64;
        for i in 0..self.n {
            for k in (i + 1)..self.n {
                let direct = self.get(i, k);
                for j in 0..self.n {
                    if j != i && j != k && direct > self.get(i, j) + self.get(j, k) + tol {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}

/// Upper bound on the triples materialized by
/// [`DistanceTable::triangle_violations`].
pub const TRIANGLE_REPORT_CAP: usize = 4096;

/// Plain hop-distance table under the same routing algorithm (the ablation
/// baseline: what you get if you skip the electrical model and use legal
/// route length directly).
pub fn hop_distance_table(routing: &dyn Routing) -> DistanceTable {
    let n = routing.num_switches();
    DistanceTable::from_fn(n, |i, j| f64::from(routing.route_distance(i, j)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use commsched_routing::{ShortestPathRouting, UpDownRouting};
    use commsched_topology::designed;

    pub(crate) fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn shared_handle_is_a_cheap_alias() {
        let t = designed::line(3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let shared = equivalent_distance_table(&t, &r).unwrap().into_shared();
        let other = std::sync::Arc::clone(&shared);
        assert!(std::sync::Arc::ptr_eq(&shared, &other));
        // Deref gives the full table API.
        assert_close(other.get(0, 2), 2.0);
    }

    #[test]
    fn table_is_symmetric_with_zero_diagonal() {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        for i in 0..24 {
            assert_eq!(table.get(i, i), 0.0);
            for j in 0..24 {
                assert_close(table.get(i, j), table.get(j, i));
            }
        }
    }

    #[test]
    fn hop_table_matches_routing() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = hop_distance_table(&r);
        assert_close(table.get(2, 4), 4.0);
        assert_close(table.get(1, 2), 1.0);
    }

    #[test]
    fn mean_square_normalization() {
        // 3-node line: distances 1, 1, 2 -> squares 1, 1, 4 -> mean 2.
        let t = designed::line(3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        assert_close(table.total_square(), 6.0);
        assert_close(table.mean_square(), 2.0);
        assert_close(table.max_distance(), 2.0);
    }

    #[test]
    fn updown_table_is_not_a_metric() {
        // §3: the ring's forbidden-turn detour makes T(2,4) = 4 while
        // T(2,3) + T(3,4) = 2 — a triangle violation, reported once as
        // (2, 3, 4) (not also as its mirror (4, 3, 2)).
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let violations = table.triangle_violations(1e-9);
        assert!(
            violations.contains(&(2, 3, 4)),
            "expected the (2,3,4) violation, got {violations:?}"
        );
        assert!(
            !violations.contains(&(4, 3, 2)),
            "mirrored duplicate reported: {violations:?}"
        );
    }

    #[test]
    fn triangle_violations_reported_once() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let violations = table.triangle_violations(1e-9);
        assert!(!violations.is_empty());
        let mut seen = std::collections::HashSet::new();
        for &(i, j, k) in &violations {
            assert!(i < k, "unordered endpoints in ({i}, {j}, {k})");
            // Canonical endpoint order means no triple can recur.
            assert!(seen.insert((i, j, k)), "duplicate ({i}, {j}, {k})");
        }
    }

    #[test]
    fn unconstrained_tree_table_is_a_metric() {
        // Without routing constraints on a tree, T = hop distance, which
        // IS a metric: no violations.
        let t = designed::line(6, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        assert!(table.triangle_violations(1e-9).is_empty());
    }

    #[test]
    fn triangle_scan_capped_and_counted() {
        let t = designed::ring(6, 1);
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let listed = table.triangle_violations(1e-9);
        assert_eq!(listed.len() as u64, table.triangle_violation_count(1e-9));
        assert!(listed.len() <= TRIANGLE_REPORT_CAP);
        // A metric table counts zero.
        let line = designed::line(6, 1);
        let sp = ShortestPathRouting::new(&line).unwrap();
        let metric = equivalent_distance_table(&line, &sp).unwrap();
        assert_eq!(metric.triangle_violation_count(1e-9), 0);
    }

    #[test]
    fn row_accessor() {
        let t = designed::line(3, 1);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        assert_eq!(table.row(0), &[0.0, 1.0, 2.0]);
    }
}
