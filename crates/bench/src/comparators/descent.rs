//! Baseline searches: steepest descent and blind random sampling.
//!
//! Steepest descent is the tabu search with the escape mechanism removed —
//! the natural ablation for the tabu list. Random sampling is the paper's
//! "random mapping" baseline dressed as a search: draw `samples` random
//! partitions, keep the best.

use commsched_core::{Partition, SwapEvaluator};
use commsched_distance::DistanceTable;
use commsched_search::{check_sizes, Mapper, SearchResult};
use rand::RngCore;

/// Multi-start steepest descent: from each random start, apply the best
/// improving cross-cluster swap until a local minimum.
#[derive(Debug, Clone, Copy)]
pub struct SteepestDescent {
    /// Number of random starts.
    pub seeds: usize,
}

impl Default for SteepestDescent {
    fn default() -> Self {
        Self { seeds: 10 }
    }
}

impl Mapper for SteepestDescent {
    fn name(&self) -> &'static str {
        "steepest-descent"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        const EPS: f64 = 1e-12;
        let mut best: Option<(f64, Partition)> = None;
        let mut evaluations = 0u64;
        for _ in 0..self.seeds.max(1) {
            let start = Partition::random(table.n(), sizes, rng).expect("validated sizes");
            let mut eval = SwapEvaluator::new(start, table);
            loop {
                let n = table.n();
                let mut best_move: Option<(f64, usize, usize)> = None;
                for a in 0..n {
                    for b in (a + 1)..n {
                        if eval.partition().cluster_of(a) == eval.partition().cluster_of(b) {
                            continue;
                        }
                        let d = eval.delta_fg(a, b);
                        evaluations += 1;
                        if best_move.is_none_or(|(bd, _, _)| d < bd) {
                            best_move = Some((d, a, b));
                        }
                    }
                }
                match best_move {
                    Some((d, a, b)) if d < -EPS => eval.apply_swap(a, b),
                    _ => break,
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

/// Draw `samples` random partitions, keep the lowest `F_G`.
#[derive(Debug, Clone, Copy)]
pub struct RandomSampling {
    /// Number of random partitions to draw.
    pub samples: usize,
}

impl Default for RandomSampling {
    fn default() -> Self {
        Self { samples: 1000 }
    }
}

impl Mapper for RandomSampling {
    fn name(&self) -> &'static str {
        "random-sampling"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let mut best: Option<(f64, Partition)> = None;
        for _ in 0..self.samples.max(1) {
            let p = Partition::random(table.n(), sizes, rng).expect("validated sizes");
            let fg = commsched_core::similarity_fg(&p, table);
            if best.as_ref().is_none_or(|(f, _)| fg < *f) {
                best = Some((fg, p));
            }
        }
        let (fg, partition) = best.expect("at least one sample");
        SearchResult {
            partition,
            fg,
            evaluations: self.samples.max(1) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparators::testutil::{dumbbell_table, dumbbell_truth};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn descent_finds_dumbbell() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(8);
        let res = SteepestDescent::default().search(&table, &[4, 4], &mut rng);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
    }

    #[test]
    fn descent_never_worse_than_sampling_start() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(9);
        let descent = SteepestDescent { seeds: 1 }.search(&table, &[4, 4], &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let start = Partition::random(8, &[4, 4], &mut rng).unwrap();
        assert!(descent.fg <= commsched_core::similarity_fg(&start, &table) + 1e-12);
    }

    #[test]
    fn sampling_improves_with_more_samples() {
        let table = dumbbell_table();
        let few =
            RandomSampling { samples: 2 }.search(&table, &[4, 4], &mut StdRng::seed_from_u64(10));
        let many =
            RandomSampling { samples: 500 }.search(&table, &[4, 4], &mut StdRng::seed_from_u64(10));
        assert!(many.fg <= few.fg + 1e-12);
        assert_eq!(many.evaluations, 500);
    }

    #[test]
    fn sampling_respects_sizes() {
        let table = dumbbell_table();
        let res =
            RandomSampling { samples: 10 }.search(&table, &[6, 2], &mut StdRng::seed_from_u64(3));
        assert_eq!(res.partition.sizes(), vec![6, 2]);
    }
}
