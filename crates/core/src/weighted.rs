//! Future-work extensions: non-uniform communication requirements.
//!
//! The paper's §6 leaves "eliminating the simplifying assumptions" to
//! future work. This module provides the two natural generalizations of the
//! quality criterion so the library is usable beyond the paper's setting:
//!
//! * [`weighted_similarity_fg`] — per-application traffic weights: an
//!   application with twice the bandwidth demand counts twice in the
//!   intracluster cost;
//! * [`traffic_cost`] — a fully general per-process communication matrix
//!   evaluated at host granularity, `J = Σ_{p<q} w(p,q) · T²(sw(p), sw(q))`,
//!   which reduces to the unweighted numerator of Eq. 2 when `w` is the
//!   intracluster indicator.
//!
//! Both reduce exactly to the paper's functions for uniform weights; tests
//! pin that equivalence.

use crate::mapping::ProcessMapping;
use crate::partition::Partition;
use crate::quality::cluster_similarity;
use commsched_distance::DistanceTable;

/// Per-process symmetric communication-demand matrix (host granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CommMatrix {
    /// Zero matrix for `n` processes.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Demand between processes `p` and `q`.
    #[inline]
    pub fn get(&self, p: usize, q: usize) -> f64 {
        self.data[p * self.n + q]
    }

    /// Set the (symmetric) demand between `p` and `q`.
    pub fn set(&mut self, p: usize, q: usize, w: f64) {
        self.data[p * self.n + q] = w;
        self.data[q * self.n + p] = w;
    }

    /// The paper's implicit matrix: demand 1 between processes in the same
    /// logical cluster, 0 otherwise.
    pub fn intracluster_indicator(mapping: &ProcessMapping) -> Self {
        let n = mapping.num_hosts();
        let mut m = Self::zeros(n);
        for p in 0..n {
            for q in (p + 1)..n {
                if mapping.cluster_of_host(p) == mapping.cluster_of_host(q) {
                    m.set(p, q, 1.0);
                }
            }
        }
        m
    }
}

/// Weighted global similarity: Eq. 2 with every cluster's quadratic sum
/// scaled by its traffic weight. Weights are normalized so uniform weights
/// reproduce `F_G` exactly.
///
/// # Panics
/// Panics if `weights.len() != partition.num_clusters()`.
pub fn weighted_similarity_fg(
    partition: &Partition,
    table: &DistanceTable,
    weights: &[f64],
) -> f64 {
    assert_eq!(
        weights.len(),
        partition.num_clusters(),
        "one weight per cluster"
    );
    let mean_sq = table.mean_square();
    if mean_sq == 0.0 {
        return 0.0;
    }
    let clusters = partition.clusters();
    let mut num = 0.0;
    let mut pairs = 0.0;
    for (members, &w) in clusters.iter().zip(weights) {
        num += w * cluster_similarity(members, table);
        pairs += w * (members.len() * (members.len() - 1) / 2) as f64;
    }
    if pairs == 0.0 {
        return 0.0;
    }
    num / pairs / mean_sq
}

/// Fully general mapping cost under a process-level communication matrix:
/// `J = Σ_{p<q} w(p,q) · T²(switch(p), switch(q))`.
///
/// # Panics
/// Panics if the matrix size differs from the mapping's host count.
pub fn traffic_cost(mapping: &ProcessMapping, comm: &CommMatrix, table: &DistanceTable) -> f64 {
    assert_eq!(comm.n(), mapping.num_hosts(), "matrix/host count mismatch");
    let n = mapping.num_hosts();
    let mut acc = 0.0;
    for p in 0..n {
        let sp = mapping.switch_of_host(p);
        for q in (p + 1)..n {
            let w = comm.get(p, q);
            if w != 0.0 {
                acc += w * table.get_sq(sp, mapping.switch_of_host(q));
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SwapEvaluator;
    use crate::mapping::Workload;
    use crate::quality::{intra_square_sum, similarity_fg};
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::ShortestPathRouting;
    use commsched_topology::designed;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    fn setup() -> (DistanceTable, Partition, ProcessMapping) {
        let t = designed::ring(8, 4);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let p = Partition::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4).unwrap();
        let wl = Workload::balanced(&t, 4).unwrap();
        let m = ProcessMapping::place(&t, &wl, &p).unwrap();
        (table, p, m)
    }

    #[test]
    fn uniform_weights_reduce_to_fg() {
        let (table, p, _) = setup();
        let w = vec![1.0; 4];
        assert_close(
            weighted_similarity_fg(&p, &table, &w),
            similarity_fg(&p, &table),
        );
        // Any uniform scale is equivalent.
        let w = vec![3.5; 4];
        assert_close(
            weighted_similarity_fg(&p, &table, &w),
            similarity_fg(&p, &table),
        );
    }

    #[test]
    fn heavy_cluster_dominates() {
        let (table, _, _) = setup();
        // Cluster 0 contiguous (cheap), cluster 1 spread antipodally
        // (expensive).
        let p = Partition::new(vec![0, 0, 1, 2, 2, 1, 3, 3], 4).unwrap();
        let cheap_heavy = weighted_similarity_fg(&p, &table, &[10.0, 1.0, 1.0, 1.0]);
        let costly_heavy = weighted_similarity_fg(&p, &table, &[1.0, 10.0, 1.0, 1.0]);
        assert!(costly_heavy > cheap_heavy);
    }

    #[test]
    fn indicator_matrix_matches_intra_sum() {
        let (table, p, m) = setup();
        let comm = CommMatrix::intracluster_indicator(&m);
        // Every intracluster host pair contributes T² of its switch pair;
        // hosts on the same switch contribute 0 (T(s,s) = 0). With 4 hosts
        // per switch, each switch pair inside a cluster is counted 16
        // times.
        let j = traffic_cost(&m, &comm, &table);
        let per_pair = 16.0;
        assert_close(j, per_pair * intra_square_sum(&p, &table));
    }

    #[test]
    fn traffic_cost_zero_matrix() {
        let (table, _, m) = setup();
        let comm = CommMatrix::zeros(m.num_hosts());
        assert_close(traffic_cost(&m, &comm, &table), 0.0);
    }

    #[test]
    fn comm_matrix_is_symmetric() {
        let mut m = CommMatrix::zeros(4);
        m.set(0, 3, 2.5);
        assert_eq!(m.get(3, 0), 2.5);
        assert_eq!(m.get(0, 3), 2.5);
        assert_eq!(m.n(), 4);
    }

    #[test]
    #[should_panic(expected = "one weight per cluster")]
    fn wrong_weight_count_panics() {
        let (table, p, _) = setup();
        let _ = weighted_similarity_fg(&p, &table, &[1.0, 2.0]);
    }

    #[test]
    fn weighted_evaluator_matches_direct() {
        let (table, p, _) = setup();
        let weights = vec![5.0, 1.0, 2.0, 1.0];
        let eval = SwapEvaluator::with_weights(p.clone(), &table, weights.clone());
        assert_close(eval.fg(), weighted_similarity_fg(&p, &table, &weights));
        for a in 0..8 {
            for b in (a + 1)..8 {
                if p.cluster_of(a) == p.cluster_of(b) {
                    continue;
                }
                let mut q = p.clone();
                q.swap(a, b);
                let direct = weighted_similarity_fg(&q, &table, &weights)
                    - weighted_similarity_fg(&p, &table, &weights);
                assert_close(eval.delta_fg(a, b), direct);
            }
        }
    }

    #[test]
    fn weighted_evaluator_apply_consistent() {
        let (table, p, _) = setup();
        let weights = vec![3.0, 1.0, 1.0, 2.0];
        let mut eval = SwapEvaluator::with_weights(p, &table, weights.clone());
        for (a, b) in [(0usize, 2usize), (1, 7), (3, 5), (0, 2)] {
            if eval.partition().cluster_of(a) == eval.partition().cluster_of(b) {
                continue;
            }
            eval.apply_swap(a, b);
            let direct = weighted_similarity_fg(eval.partition(), &table, &weights);
            assert_close(eval.fg(), direct);
        }
    }

    #[test]
    fn weighted_evaluator_uniform_matches_unweighted() {
        let (table, p, _) = setup();
        let w = SwapEvaluator::with_weights(p.clone(), &table, vec![2.0; 4]);
        let u = SwapEvaluator::new(p, &table);
        assert_close(w.fg(), u.fg());
        assert_close(w.delta_fg(0, 2), u.delta_fg(0, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_evaluator_rejects_zero_weight() {
        let (table, p, _) = setup();
        let _ = SwapEvaluator::with_weights(p, &table, vec![1.0, 0.0, 1.0, 1.0]);
    }
}
