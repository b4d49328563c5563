//! Simulated annealing (§2's second comparison heuristic).
//!
//! Considers one mapping at a time; a random cross-cluster swap is always
//! accepted when it improves `F_G` and accepted with probability
//! `exp(-Δ/T)` otherwise, with geometric cooling of the temperature `T`.

use commsched_core::{Partition, SwapEvaluator};
use commsched_distance::DistanceTable;
use commsched_search::{check_sizes, Mapper, SearchResult};
use rand::{Rng, RngCore};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealingParams {
    /// Initial temperature, as a multiple of the starting `F_G` (scale-free
    /// across tables).
    pub initial_temp_factor: f64,
    /// Geometric cooling rate per step (`T ← rate · T`).
    pub cooling: f64,
    /// Proposal steps.
    pub steps: usize,
    /// Independent restarts.
    pub restarts: usize,
}

impl Default for SimulatedAnnealingParams {
    fn default() -> Self {
        Self {
            initial_temp_factor: 0.5,
            cooling: 0.995,
            steps: 2000,
            restarts: 3,
        }
    }
}

/// The simulated-annealing mapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatedAnnealing {
    /// Schedule parameters.
    pub params: SimulatedAnnealingParams,
}

impl SimulatedAnnealing {
    /// Mapper with custom parameters.
    pub fn new(params: SimulatedAnnealingParams) -> Self {
        Self { params }
    }
}

impl Mapper for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "simulated-annealing"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let n = table.n();
        let mut best: Option<(f64, Partition)> = None;
        let mut evaluations = 0u64;
        for _ in 0..self.params.restarts.max(1) {
            let start = Partition::random(n, sizes, rng).expect("validated sizes");
            let mut eval = SwapEvaluator::new(start, table);
            let mut temp = (eval.fg() * self.params.initial_temp_factor).max(1e-6);
            let mut local_best = (eval.fg(), eval.partition().clone());
            for _ in 0..self.params.steps {
                // Propose a random cross-cluster swap.
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if eval.partition().cluster_of(a) == eval.partition().cluster_of(b) {
                    temp *= self.params.cooling;
                    continue;
                }
                let delta = eval.delta_fg(a, b);
                evaluations += 1;
                let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
                if accept {
                    eval.apply_swap(a, b);
                    let fg = eval.fg();
                    if fg < local_best.0 {
                        local_best = (fg, eval.partition().clone());
                    }
                }
                temp *= self.params.cooling;
            }
            if best.as_ref().is_none_or(|(f, _)| local_best.0 < *f) {
                best = Some(local_best);
            }
        }
        let (fg, partition) = best.expect("at least one restart");
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
    use crate::comparators::testutil::{dumbbell_table, dumbbell_truth};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_dumbbell_clusters() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(21);
        let res = SimulatedAnnealing::default().search(&table, &[4, 4], &mut rng);
        assert!(
            res.partition.same_grouping(&dumbbell_truth()),
            "got {} with fg {}",
            res.partition,
            res.fg
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let table = dumbbell_table();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            SimulatedAnnealing::default().search(&table, &[4, 4], &mut rng)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn best_tracked_not_final_state() {
        // With a hot schedule the final state may be uphill from the best;
        // the result must report the best-seen, which is consistent with
        // its own partition.
        let table = dumbbell_table();
        let params = SimulatedAnnealingParams {
            initial_temp_factor: 5.0,
            cooling: 1.0, // never cools: pure random walk
            steps: 300,
            restarts: 1,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let res = SimulatedAnnealing::new(params).search(&table, &[4, 4], &mut rng);
        let direct = commsched_core::similarity_fg(&res.partition, &table);
        assert!((res.fg - direct).abs() < 1e-9);
    }

    #[test]
    fn zero_steps_returns_start() {
        let table = dumbbell_table();
        let params = SimulatedAnnealingParams {
            steps: 0,
            restarts: 1,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let res = SimulatedAnnealing::new(params).search(&table, &[4, 4], &mut rng);
        assert_eq!(res.evaluations, 0);
        assert!(res.fg.is_finite());
    }
}
