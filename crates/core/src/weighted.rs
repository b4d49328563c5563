//! Future-work extension: non-uniform communication requirements.
//!
//! The paper's §6 leaves "eliminating the simplifying assumptions" to
//! future work. [`weighted_similarity_fg`] is the one generalization of
//! the quality criterion the library carries: per-application traffic
//! weights, so an application with twice the bandwidth demand counts
//! twice in the intracluster cost. The CLI's `--weights`,
//! `Scheduler::schedule_weighted` and the weighted [`SwapEvaluator`]
//! minimise it. Uniform weights reduce it exactly to the paper's `F_G`;
//! tests pin that equivalence.
//!
//! [`SwapEvaluator`]: crate::SwapEvaluator

use crate::partition::Partition;
use crate::quality::cluster_similarity;
use commsched_distance::DistanceTable;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SwapEvaluator;
    use crate::quality::similarity_fg;
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::ShortestPathRouting;
    use commsched_topology::designed;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    fn setup() -> (DistanceTable, Partition) {
        let t = designed::ring(8, 4);
        let r = ShortestPathRouting::new(&t).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let p = Partition::new(vec![0, 0, 1, 1, 2, 2, 3, 3], 4).unwrap();
        (table, p)
    }

    #[test]
    fn uniform_weights_reduce_to_fg() {
        let (table, p) = setup();
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
        let (table, _) = setup();
        // Cluster 0 contiguous (cheap), cluster 1 spread antipodally
        // (expensive).
        let p = Partition::new(vec![0, 0, 1, 2, 2, 1, 3, 3], 4).unwrap();
        let cheap_heavy = weighted_similarity_fg(&p, &table, &[10.0, 1.0, 1.0, 1.0]);
        let costly_heavy = weighted_similarity_fg(&p, &table, &[1.0, 10.0, 1.0, 1.0]);
        assert!(costly_heavy > cheap_heavy);
    }

    #[test]
    #[should_panic(expected = "one weight per cluster")]
    fn wrong_weight_count_panics() {
        let (table, p) = setup();
        let _ = weighted_similarity_fg(&p, &table, &[1.0, 2.0]);
    }

    #[test]
    fn weighted_evaluator_matches_direct() {
        let (table, p) = setup();
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
        let (table, p) = setup();
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
        let (table, p) = setup();
        let w = SwapEvaluator::with_weights(p.clone(), &table, vec![2.0; 4]);
        let u = SwapEvaluator::new(p, &table);
        assert_close(w.fg(), u.fg());
        assert_close(w.delta_fg(0, 2), u.delta_fg(0, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_evaluator_rejects_zero_weight() {
        let (table, p) = setup();
        let _ = SwapEvaluator::with_weights(p, &table, vec![1.0, 0.0, 1.0, 1.0]);
    }
}
