//! Genetic algorithm and genetic simulated annealing (§2).
//!
//! The paper's §2 surveys both: a GA works on a population of chromosomes
//! (candidate mappings) with selection, crossover and mutation; *genetic
//! simulated annealing* (Shroff et al., HCW'96) combines the population
//! with a Metropolis acceptance rule so that each individual performs an
//! annealed local search while selection spreads good material.
//!
//! Chromosome = a [`Partition`]'s assignment vector with fixed cluster
//! sizes; crossover is uniform with a size-repair pass; mutation is a
//! random cross-cluster swap.

use commsched_core::{similarity_fg, Partition, SwapEvaluator};
use commsched_distance::DistanceTable;
use commsched_search::{check_sizes, pool, Mapper, SearchResult};
use rand::{Rng, RngCore};

/// Parameters shared by [`GeneticSearch`] and [`GeneticSimulatedAnnealing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticParams {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Per-child probability of a mutation swap.
    pub mutation_rate: f64,
    /// Elite individuals copied unchanged each generation.
    pub elites: usize,
    /// GSA only: initial temperature as a multiple of the mean initial
    /// `F_G`.
    pub initial_temp_factor: f64,
    /// GSA only: geometric cooling per generation.
    pub cooling: f64,
    /// Worker threads for fitness evaluation (0 = one per available
    /// CPU). All randomness is drawn on the caller's thread, so results
    /// are identical for every thread count.
    pub threads: usize,
}

impl Default for GeneticParams {
    fn default() -> Self {
        Self {
            population: 32,
            generations: 120,
            mutation_rate: 0.7,
            elites: 2,
            initial_temp_factor: 0.3,
            cooling: 0.95,
            threads: 0,
        }
    }
}

fn random_population(
    table: &DistanceTable,
    sizes: &[usize],
    count: usize,
    rng: &mut dyn RngCore,
) -> Vec<(f64, Partition)> {
    (0..count)
        .map(|_| {
            let p = Partition::random(table.n(), sizes, rng).expect("validated sizes");
            (similarity_fg(&p, table), p)
        })
        .collect()
}

/// Tournament selection of 2: pick two random individuals, keep the fitter.
fn tournament<'a>(pop: &'a [(f64, Partition)], rng: &mut dyn RngCore) -> &'a (f64, Partition) {
    let a = &pop[rng.gen_range(0..pop.len())];
    let b = &pop[rng.gen_range(0..pop.len())];
    if a.0 <= b.0 {
        a
    } else {
        b
    }
}

/// Uniform crossover with size repair: take each gene from a random parent,
/// then move switches out of overfull clusters into underfull ones until
/// the size vector matches.
fn crossover(a: &Partition, b: &Partition, sizes: &[usize], rng: &mut dyn RngCore) -> Partition {
    let n = a.num_switches();
    let m = sizes.len();
    let mut assign: Vec<usize> = (0..n)
        .map(|i| {
            if rng.gen::<bool>() {
                a.cluster_of(i)
            } else {
                b.cluster_of(i)
            }
        })
        .collect();
    // Repair sizes.
    let mut counts = vec![0usize; m];
    for &c in &assign {
        counts[c] += 1;
    }
    while let Some(over) = (0..m).find(|&c| counts[c] > sizes[c]) {
        let under = (0..m)
            .find(|&c| counts[c] < sizes[c])
            .expect("totals match, so an underfull cluster exists");
        // Move a random member of the overfull cluster.
        let members: Vec<usize> = (0..n).filter(|&i| assign[i] == over).collect();
        let victim = members[rng.gen_range(0..members.len())];
        assign[victim] = under;
        counts[over] -= 1;
        counts[under] += 1;
    }
    Partition::new(assign, m).expect("repaired assignment is valid")
}

/// Random cross-cluster swap mutation (in place); no-op when the partition
/// is a single cluster.
fn mutate(p: &mut Partition, rng: &mut dyn RngCore) {
    let n = p.num_switches();
    for _ in 0..16 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if p.cluster_of(a) != p.cluster_of(b) {
            p.swap(a, b);
            return;
        }
    }
}

/// Classic generational GA with elitism.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneticSearch {
    /// Evolution parameters.
    pub params: GeneticParams,
}

impl Mapper for GeneticSearch {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let p = &self.params;
        let mut pop = random_population(table, sizes, p.population.max(2), rng);
        let mut evaluations = pop.len() as u64;
        for _ in 0..p.generations {
            pop.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite fitness"));
            let elites: Vec<(f64, Partition)> =
                pop.iter().take(p.elites.min(pop.len())).cloned().collect();
            // Breed serially (all RNG draws stay on this thread, in the
            // same order a serial loop would make them)…
            let children: Vec<Partition> = (0..pop.len() - elites.len())
                .map(|_| {
                    let pa = tournament(&pop, rng);
                    let pb = tournament(&pop, rng);
                    let mut child = crossover(&pa.1, &pb.1, sizes, rng);
                    if rng.gen::<f64>() < p.mutation_rate {
                        mutate(&mut child, rng);
                    }
                    child
                })
                .collect();
            // …then score the brood on the worker pool; `similarity_fg`
            // is pure, so the thread count cannot change the outcome.
            let scores = pool::run_indexed(children.len(), p.threads, |i| {
                similarity_fg(&children[i], table)
            });
            evaluations += children.len() as u64;
            let mut next = elites;
            next.extend(scores.into_iter().zip(children));
            pop = next;
        }
        let (fg, partition) = pop
            .into_iter()
            .min_by(|x, y| x.0.partial_cmp(&y.0).expect("finite fitness"))
            .expect("non-empty population");
        SearchResult {
            partition,
            fg,
            evaluations,
        }
    }
}

/// Genetic simulated annealing: every individual performs one annealed swap
/// per generation (Metropolis acceptance); selection periodically replaces
/// the worst individuals with mutated copies of the best.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneticSimulatedAnnealing {
    /// Evolution parameters.
    pub params: GeneticParams,
}

impl Mapper for GeneticSimulatedAnnealing {
    fn name(&self) -> &'static str {
        "genetic-simulated-annealing"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let p = &self.params;
        let n = table.n();
        let pop_size = p.population.max(2);
        // Draw the population serially, then build the evaluators (each
        // one computes its initial F_G) on the worker pool.
        let parts: Vec<Partition> = (0..pop_size)
            .map(|_| Partition::random(n, sizes, rng).expect("validated sizes"))
            .collect();
        let mut pop: Vec<SwapEvaluator> = pool::run_indexed(parts.len(), p.threads, |i| {
            SwapEvaluator::new(parts[i].clone(), table)
        });
        let mut evaluations = pop.len() as u64;
        let mean_fg = pop.iter().map(SwapEvaluator::fg).sum::<f64>() / pop.len() as f64;
        let mut temp = (mean_fg * p.initial_temp_factor).max(1e-6);
        let mut best: (f64, Partition) = pop
            .iter()
            .map(|e| (e.fg(), e.partition().clone()))
            .min_by(|x, y| x.0.partial_cmp(&y.0).expect("finite fitness"))
            .expect("non-empty population");

        for generation in 0..p.generations {
            for eval in &mut pop {
                // One annealed swap proposal per individual.
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if eval.partition().cluster_of(a) == eval.partition().cluster_of(b) {
                    continue;
                }
                let delta = eval.delta_fg(a, b);
                evaluations += 1;
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                    eval.apply_swap(a, b);
                    let fg = eval.fg();
                    if fg < best.0 {
                        best = (fg, eval.partition().clone());
                    }
                }
            }
            // Selection pressure every few generations: clone the best over
            // the worst, with a mutation kick.
            if generation % 10 == 9 {
                let best_idx = (0..pop.len())
                    .min_by(|&x, &y| pop[x].fg().partial_cmp(&pop[y].fg()).expect("finite"))
                    .expect("non-empty");
                let worst_idx = (0..pop.len())
                    .max_by(|&x, &y| pop[x].fg().partial_cmp(&pop[y].fg()).expect("finite"))
                    .expect("non-empty");
                if best_idx != worst_idx {
                    let mut clone = pop[best_idx].partition().clone();
                    mutate(&mut clone, rng);
                    pop[worst_idx] = SwapEvaluator::new(clone, table);
                    evaluations += 1;
                }
            }
            temp = (temp * p.cooling).max(1e-9);
        }
        SearchResult {
            partition: best.1,
            fg: best.0,
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
    fn ga_finds_dumbbell() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(31);
        let res = GeneticSearch::default().search(&table, &[4, 4], &mut rng);
        assert!(
            res.partition.same_grouping(&dumbbell_truth()),
            "got {} fg {}",
            res.partition,
            res.fg
        );
    }

    #[test]
    fn gsa_finds_dumbbell() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(32);
        let res = GeneticSimulatedAnnealing::default().search(&table, &[4, 4], &mut rng);
        assert!(
            res.partition.same_grouping(&dumbbell_truth()),
            "got {} fg {}",
            res.partition,
            res.fg
        );
    }

    #[test]
    fn crossover_preserves_sizes() {
        let mut rng = StdRng::seed_from_u64(33);
        let sizes = [3usize, 2, 3];
        let a = Partition::random(8, &sizes, &mut rng).unwrap();
        let b = Partition::random(8, &sizes, &mut rng).unwrap();
        for _ in 0..50 {
            let child = crossover(&a, &b, &sizes, &mut rng);
            assert_eq!(child.sizes(), vec![3, 2, 3]);
        }
    }

    #[test]
    fn crossover_of_identical_parents_is_identity() {
        let mut rng = StdRng::seed_from_u64(34);
        let a = Partition::random(8, &[4, 4], &mut rng).unwrap();
        let child = crossover(&a, &a, &[4, 4], &mut rng);
        assert_eq!(child, a);
    }

    #[test]
    fn mutate_preserves_sizes() {
        let mut rng = StdRng::seed_from_u64(35);
        let mut p = Partition::random(9, &[3, 3, 3], &mut rng).unwrap();
        for _ in 0..50 {
            mutate(&mut p, &mut rng);
            assert_eq!(p.sizes(), vec![3, 3, 3]);
        }
    }

    #[test]
    fn mutate_single_cluster_noop() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut p = Partition::new(vec![0, 0, 0], 1).unwrap();
        mutate(&mut p, &mut rng);
        assert_eq!(p.assignment(), &[0, 0, 0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let table = dumbbell_table();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            GeneticSearch::default().search(&table, &[4, 4], &mut rng)
        };
        assert_eq!(run(1).fg, run(1).fg);
        assert_eq!(run(1).partition, run(1).partition);
    }
}
