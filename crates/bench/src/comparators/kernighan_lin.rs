//! Kernighan–Lin partition refinement as a mapping baseline.
//!
//! KL is the classic graph-partitioning heuristic; on the mapping problem
//! it refines a random partition by *passes*: within a pass over a cluster
//! pair, repeatedly take the best swap (even if it worsens the objective),
//! lock the swapped switches, and at the end rewind to the best prefix of
//! the swap sequence. The lookahead lets it climb out of some local minima
//! that pure steepest descent cannot — structurally similar to the tabu
//! escape rule, which makes it a meaningful comparator for §4.2.
//!
//! Multi-way partitions are handled by sweeping all cluster pairs until a
//! full sweep yields no improvement (or the pass budget is exhausted).

use commsched_core::{Partition, SwapEvaluator};
use commsched_distance::DistanceTable;
use commsched_search::{check_sizes, Mapper, SearchResult};
use commsched_topology::SwitchId;
use rand::RngCore;

/// The Kernighan–Lin mapper.
#[derive(Debug, Clone, Copy)]
pub struct KernighanLin {
    /// Random restarts.
    pub seeds: usize,
    /// Maximum pair-sweeps per restart.
    pub max_sweeps: usize,
}

impl Default for KernighanLin {
    fn default() -> Self {
        Self {
            seeds: 4,
            max_sweeps: 20,
        }
    }
}

/// One KL pass over the cluster pair `(ca, cb)`: returns the objective
/// improvement (>= 0) left applied on `eval`.
fn kl_pass(eval: &mut SwapEvaluator<'_>, ca: usize, cb: usize, evaluations: &mut u64) -> f64 {
    let n = eval.partition().num_switches();
    let mut locked = vec![false; n];
    // Sequence of applied swaps and the cumulative objective delta after
    // each.
    let mut seq: Vec<(SwitchId, SwitchId)> = Vec::new();
    let mut cumulative = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0;

    loop {
        // Best swap among unlocked members of the two clusters.
        let mut best: Option<(f64, SwitchId, SwitchId)> = None;
        for a in 0..n {
            if locked[a] || eval.partition().cluster_of(a) != ca {
                continue;
            }
            for (b, &b_locked) in locked.iter().enumerate() {
                if b_locked || eval.partition().cluster_of(b) != cb {
                    continue;
                }
                let d = eval.delta_fg(a, b);
                *evaluations += 1;
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, a, b));
                }
            }
        }
        let Some((d, a, b)) = best else { break };
        eval.apply_swap(a, b);
        locked[a] = true;
        locked[b] = true;
        seq.push((a, b));
        cumulative += d;
        if cumulative < best_cum - 1e-15 {
            best_cum = cumulative;
            best_len = seq.len();
        }
    }

    // Rewind to the best prefix (swaps are involutions).
    for &(a, b) in seq[best_len..].iter().rev() {
        eval.apply_swap(a, b);
    }
    -best_cum
}

impl Mapper for KernighanLin {
    fn name(&self) -> &'static str {
        "kernighan-lin"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let m = sizes.len();
        let mut best: Option<(f64, Partition)> = None;
        let mut evaluations = 0u64;
        for _ in 0..self.seeds.max(1) {
            let start = Partition::random(table.n(), sizes, rng).expect("validated sizes");
            let mut eval = SwapEvaluator::new(start, table);
            for _ in 0..self.max_sweeps {
                let mut improved = 0.0;
                for ca in 0..m {
                    for cb in (ca + 1)..m {
                        improved += kl_pass(&mut eval, ca, cb, &mut evaluations);
                    }
                }
                if improved <= 1e-12 {
                    break;
                }
            }
            let fg = eval.fg();
            if best.as_ref().is_none_or(|(f, _)| fg < *f) {
                best = Some((fg, eval.into_partition()));
            }
        }
        let (fg, partition) = best.expect("at least one seed");
        SearchResult {
            partition,
            fg,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparators::testutil::{dumbbell_table, dumbbell_truth, rings_table};
    use commsched_core::similarity_fg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_dumbbell_clusters() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(61);
        let res = KernighanLin::default().search(&table, &[4, 4], &mut rng);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
    }

    #[test]
    fn finds_the_four_rings() {
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(62);
        let res = KernighanLin::default().search(&table, &[6, 6, 6, 6], &mut rng);
        let truth = commsched_core::Partition::from_clusters(
            &commsched_topology::designed::ring_of_rings_clusters(4, 6),
        )
        .unwrap();
        assert!(
            res.partition.same_grouping(&truth),
            "got {} (fg {})",
            res.partition,
            res.fg
        );
    }

    #[test]
    fn reported_fg_consistent() {
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(63);
        let res = KernighanLin::default().search(&table, &[12, 6, 6], &mut rng);
        assert_eq!(res.partition.sizes(), vec![12, 6, 6]);
        assert!((res.fg - similarity_fg(&res.partition, &table)).abs() < 1e-9);
    }

    #[test]
    fn pass_never_worsens() {
        // A single KL pass must leave the objective no worse than before
        // (the rewind guarantees it).
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..10 {
            let p = Partition::random(8, &[4, 4], &mut rng).unwrap();
            let before = similarity_fg(&p, &table);
            let mut eval = SwapEvaluator::new(p, &table);
            let mut evals = 0;
            let gain = kl_pass(&mut eval, 0, 1, &mut evals);
            assert!(gain >= -1e-12);
            assert!(eval.fg() <= before + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let table = dumbbell_table();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            KernighanLin::default().search(&table, &[4, 4], &mut rng)
        };
        assert_eq!(run(3).partition, run(3).partition);
    }
}
