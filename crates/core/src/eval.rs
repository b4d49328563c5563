//! Incremental evaluation of `F_G` under pairwise swaps.
//!
//! The tabu search evaluates every cross-cluster swap at every iteration —
//! `O(N²)` candidate moves. Recomputing Eq. 2 from scratch per move costs
//! `O(N²)` each, which the search cannot afford. [`SwapEvaluator`] caches,
//! for every switch `v` and cluster `c`, the partial sum
//! `S(v, c) = Σ_{u ∈ c} T²(v, u)`, so that
//!
//! * the `F_G` change of a candidate swap is `O(1)`,
//! * applying a swap updates the cache in `O(N)`.
//!
//! Since swaps never change cluster *sizes*, the normalization of Eq. 2
//! (intracluster pair count × quadratic average distance) is constant and
//! cached once.

use crate::partition::Partition;
use commsched_distance::DistanceTable;
use commsched_topology::SwitchId;

/// Incremental `F_G` evaluator over a working partition, with one traffic
/// weight per cluster: the value is [`crate::weighted_similarity_fg`],
/// which at unit weights ([`SwapEvaluator::new`]) is the paper's
/// [`crate::similarity_fg`] — and the unit-weight arithmetic is exact
/// (`1.0 · x`), so that case pays nothing for the general one.
#[derive(Debug, Clone)]
pub struct SwapEvaluator<'t> {
    table: &'t DistanceTable,
    partition: Partition,
    /// Traffic weight of each cluster.
    weights: Vec<f64>,
    /// `sums[v * M + c] = Σ_{u ∈ cluster c} T²(v, u)`.
    sums: Vec<f64>,
    /// Current numerator `Σ_c w_c · F_{A_c}` of Eq. 2.
    intra_sum: f64,
    /// Constant denominator: `Σ_c w_c · pairs_c × mean_square`.
    norm: f64,
}

impl<'t> SwapEvaluator<'t> {
    /// Build the paper's (unit-weight) evaluator for `partition` over
    /// `table`.
    ///
    /// # Panics
    /// Panics if the partition and table sizes disagree.
    pub fn new(partition: Partition, table: &'t DistanceTable) -> Self {
        let weights = vec![1.0; partition.num_clusters()];
        Self::with_weights(partition, table, weights)
    }

    /// Build the evaluator with one traffic weight per cluster (the
    /// paper's future-work setting of unequal communication requirements).
    ///
    /// # Panics
    /// Panics on size mismatches or non-positive weights.
    pub fn with_weights(partition: Partition, table: &'t DistanceTable, weights: Vec<f64>) -> Self {
        assert_eq!(
            partition.num_switches(),
            table.n(),
            "partition/table size mismatch"
        );
        assert_eq!(
            weights.len(),
            partition.num_clusters(),
            "one weight per cluster"
        );
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let n = partition.num_switches();
        let m = partition.num_clusters();
        let mut sums = vec![0.0; n * m];
        for v in 0..n {
            for u in 0..n {
                if u != v {
                    sums[v * m + partition.cluster_of(u)] += table.get_sq(v, u);
                }
            }
        }
        // `intra_square_sum`'s (i < j) order: unit weights reproduce it
        // bit for bit.
        let mut intra_sum = 0.0;
        for i in 0..n {
            let ci = partition.cluster_of(i);
            for j in (i + 1)..n {
                if partition.cluster_of(j) == ci {
                    intra_sum += weights[ci] * table.get_sq(i, j);
                }
            }
        }
        let sizes = partition.sizes();
        let weighted_pairs = sizes.iter().zip(&weights);
        let pairs: f64 = weighted_pairs
            .map(|(&size, &w)| w * (size * (size - 1) / 2) as f64)
            .sum();
        Self {
            table,
            partition,
            weights,
            sums,
            intra_sum,
            norm: pairs * table.mean_square(),
        }
    }

    /// The working partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Consume the evaluator, returning the working partition.
    pub fn into_partition(self) -> Partition {
        self.partition
    }

    /// Current (weighted) `F_G` value (Eq. 2).
    pub fn fg(&self) -> f64 {
        if self.norm == 0.0 {
            0.0
        } else {
            self.intra_sum / self.norm
        }
    }

    #[inline]
    fn sum(&self, v: SwitchId, cluster: usize) -> f64 {
        self.sums[v * self.partition.num_clusters() + cluster]
    }

    /// Change in the Eq.-2 numerator if switches `a` and `b` (in different
    /// clusters) swapped assignments. Negative is an improvement.
    pub fn delta_intra(&self, a: SwitchId, b: SwitchId) -> f64 {
        let ca = self.partition.cluster_of(a);
        let cb = self.partition.cluster_of(b);
        debug_assert_ne!(ca, cb, "swap within a cluster");
        let (wa, wb) = (self.weights[ca], self.weights[cb]);
        let t_ab = self.table.get_sq(a, b);
        wb * self.sum(a, cb) + wa * self.sum(b, ca)
            - wa * self.sum(a, ca)
            - wb * self.sum(b, cb)
            - (wa + wb) * t_ab
    }

    /// Change in `F_G` if `a` and `b` swapped (O(1)).
    ///
    /// `#[inline]`: the tabu scan calls this for every cross-cluster pair
    /// of every iteration from another crate; with the weights it is past
    /// the size rustc inlines across crates unasked.
    #[inline]
    pub fn delta_fg(&self, a: SwitchId, b: SwitchId) -> f64 {
        if self.norm == 0.0 {
            0.0
        } else {
            self.delta_intra(a, b) / self.norm
        }
    }

    /// Apply the swap of `a` and `b`, updating the cache in O(N).
    pub fn apply_swap(&mut self, a: SwitchId, b: SwitchId) {
        let ca = self.partition.cluster_of(a);
        let cb = self.partition.cluster_of(b);
        debug_assert_ne!(ca, cb, "swap within a cluster");
        self.intra_sum += self.delta_intra(a, b);
        let m = self.partition.num_clusters();
        let n = self.partition.num_switches();
        for v in 0..n {
            let ta = self.table.get_sq(v, a);
            let tb = self.table.get_sq(v, b);
            // Cluster ca loses a, gains b; cluster cb loses b, gains a.
            self.sums[v * m + ca] += tb - ta;
            self.sums[v * m + cb] += ta - tb;
        }
        self.partition.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::similarity_fg;
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    fn setup() -> (DistanceTable, Partition) {
        let t = designed::paper_24_switch();
        let r = UpDownRouting::new(&t, 0).unwrap();
        let table = equivalent_distance_table(&t, &r).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let p = Partition::random_balanced(24, 4, &mut rng).unwrap();
        (table, p)
    }

    #[test]
    fn initial_fg_matches_direct() {
        let (table, p) = setup();
        let eval = SwapEvaluator::new(p.clone(), &table);
        assert_close(eval.fg(), similarity_fg(&p, &table));
    }

    #[test]
    fn delta_matches_recompute_for_all_swaps() {
        let (table, p) = setup();
        let eval = SwapEvaluator::new(p.clone(), &table);
        let base = similarity_fg(&p, &table);
        for a in 0..24 {
            for b in (a + 1)..24 {
                if p.cluster_of(a) == p.cluster_of(b) {
                    continue;
                }
                let mut q = p.clone();
                q.swap(a, b);
                let direct = similarity_fg(&q, &table) - base;
                assert_close(eval.delta_fg(a, b), direct);
            }
        }
    }

    #[test]
    fn apply_swap_keeps_cache_consistent() {
        let (table, p) = setup();
        let mut eval = SwapEvaluator::new(p, &table);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let a = rng.gen_range(0..24);
            let b = rng.gen_range(0..24);
            if eval.partition().cluster_of(a) == eval.partition().cluster_of(b) {
                continue;
            }
            eval.apply_swap(a, b);
            let fresh = SwapEvaluator::new(eval.partition().clone(), &table);
            assert_close(eval.fg(), fresh.fg());
        }
    }

    /// A pair of switches in different clusters (a legal swap), independent
    /// of the RNG stream that produced the partition.
    fn cross_cluster_pair(p: &Partition) -> (usize, usize) {
        (1..24)
            .map(|b| (0, b))
            .find(|&(a, b)| p.cluster_of(a) != p.cluster_of(b))
            .expect("a balanced 4-way partition has cross-cluster pairs")
    }

    #[test]
    fn swap_and_inverse_cancel() {
        let (table, p) = setup();
        let (a, b) = cross_cluster_pair(&p);
        let mut eval = SwapEvaluator::new(p.clone(), &table);
        let before = eval.fg();
        eval.apply_swap(a, b);
        eval.apply_swap(a, b);
        assert_close(eval.fg(), before);
        assert_eq!(eval.partition(), &p);
    }

    #[test]
    fn into_partition_returns_current_state() {
        let (table, p) = setup();
        let (a, b) = cross_cluster_pair(&p);
        let mut eval = SwapEvaluator::new(p.clone(), &table);
        eval.apply_swap(a, b);
        let out = eval.into_partition();
        assert_ne!(out, p);
        assert_eq!(out.sizes(), p.sizes());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let (table, _) = setup();
        let p = Partition::new(vec![0, 1], 2).unwrap();
        let _ = SwapEvaluator::new(p, &table);
    }
}
