//! A* tree search for the mapping problem (§2's third comparison
//! heuristic, after Kafil & Ahmad).
//!
//! Nodes of the search tree assign switches to clusters one at a time (in
//! switch order, with the same equal-size symmetry breaking as the
//! exhaustive enumeration). The path cost `g` is the accumulated
//! intracluster quadratic sum; the heuristic `h` lower-bounds the cost any
//! completion must still pay: every unassigned switch will join *some*
//! cluster with free capacity and then pays at least its distance-square
//! sum to that cluster's already-assigned members — so
//! `h = Σ_{v unassigned} min_{c: free} Σ_{u ∈ c} T²(v, u)` is admissible
//! (pair costs among two unassigned switches are bounded by zero).
//!
//! With an admissible `h`, the first goal popped is optimal. A node budget
//! caps memory/time; when exhausted the best goal found so far is returned
//! (flagged in [`SearchResult::evaluations`] semantics as usual).

use commsched_core::Partition;
use commsched_distance::DistanceTable;
use commsched_search::{check_sizes, Mapper, SearchResult};
use rand::RngCore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A* mapper with a node-expansion budget.
#[derive(Debug, Clone, Copy)]
pub struct AStarSearch {
    /// Maximum heap pops before falling back to the best goal seen.
    pub max_expansions: usize,
}

impl Default for AStarSearch {
    fn default() -> Self {
        Self {
            max_expansions: 2_000_000,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// f = g + h (lower bound on any completion through this node).
    f: f64,
    /// Accumulated intracluster cost of the assigned prefix.
    g: f64,
    /// Per-switch assignment for `assign.len()` switches.
    assign: Vec<usize>,
    /// Remaining capacity per cluster.
    remaining: Vec<usize>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f (BinaryHeap is a max-heap).
        other
            .f
            .partial_cmp(&self.f)
            .expect("finite costs")
            // Deterministic tie-breaking: deeper nodes first.
            .then_with(|| self.assign.len().cmp(&other.assign.len()))
    }
}

/// Admissible completion bound: every unassigned switch must pay at least
/// its cheapest attachment to a cluster with free capacity.
fn heuristic(table: &DistanceTable, assign: &[usize], remaining: &[usize], n: usize) -> f64 {
    let mut h = 0.0;
    for v in assign.len()..n {
        let mut best = f64::INFINITY;
        for (c, &rem) in remaining.iter().enumerate() {
            if rem == 0 {
                continue;
            }
            let attach: f64 = assign
                .iter()
                .enumerate()
                .filter(|&(_, &cu)| cu == c)
                .map(|(u, _)| table.get_sq(v, u))
                .sum();
            best = best.min(attach);
        }
        if best.is_finite() {
            h += best;
        }
    }
    h
}

impl Mapper for AStarSearch {
    fn name(&self) -> &'static str {
        "a-star"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        _rng: &mut dyn RngCore,
    ) -> SearchResult {
        assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
        let n = table.n();
        let m = sizes.len();
        let norm = {
            let pairs: usize = sizes.iter().map(|&x| x * (x - 1) / 2).sum();
            pairs as f64 * table.mean_square()
        };

        let mut heap = BinaryHeap::new();
        heap.push(Node {
            f: 0.0,
            g: 0.0,
            assign: Vec::new(),
            remaining: sizes.to_vec(),
        });
        let mut evaluations = 0u64;
        let mut best_goal: Option<(f64, Vec<usize>)> = None;
        let mut expansions = 0usize;

        while let Some(node) = heap.pop() {
            expansions += 1;
            if expansions > self.max_expansions {
                break;
            }
            // Prune against the incumbent.
            if let Some((best_g, _)) = &best_goal {
                if node.f >= *best_g - 1e-15 {
                    continue;
                }
            }
            let depth = node.assign.len();
            if depth == n {
                if best_goal.as_ref().is_none_or(|(g, _)| node.g < *g) {
                    best_goal = Some((node.g, node.assign.clone()));
                }
                // Admissible h: the first goal popped is optimal.
                break;
            }
            // Expand: assign switch `depth` to each eligible cluster,
            // breaking symmetry among still-empty clusters of equal size.
            let mut tried_empty_of_size: Vec<usize> = Vec::new();
            for c in 0..m {
                if node.remaining[c] == 0 {
                    continue;
                }
                let is_empty = node.remaining[c] == sizes[c];
                if is_empty {
                    if tried_empty_of_size.contains(&sizes[c]) {
                        continue;
                    }
                    tried_empty_of_size.push(sizes[c]);
                }
                let attach: f64 = node
                    .assign
                    .iter()
                    .enumerate()
                    .filter(|&(_, &cu)| cu == c)
                    .map(|(u, _)| table.get_sq(depth, u))
                    .sum();
                let mut assign = node.assign.clone();
                assign.push(c);
                let mut remaining = node.remaining.clone();
                remaining[c] -= 1;
                let g = node.g + attach;
                let h = heuristic(table, &assign, &remaining, n);
                evaluations += 1;
                let f = g + h;
                if let Some((best_g, _)) = &best_goal {
                    if f >= *best_g - 1e-15 {
                        continue;
                    }
                }
                heap.push(Node {
                    f,
                    g,
                    assign,
                    remaining,
                });
            }
        }

        // Budget fallback: greedily complete from scratch (cheapest
        // attachment per switch) so a result always exists.
        let (g, assign) = best_goal.unwrap_or_else(|| {
            let mut assign: Vec<usize> = Vec::with_capacity(n);
            let mut remaining = sizes.to_vec();
            let mut g = 0.0;
            for v in 0..n {
                let (c, attach) = (0..m)
                    .filter(|&c| remaining[c] > 0)
                    .map(|c| {
                        let attach: f64 = assign
                            .iter()
                            .enumerate()
                            .filter(|&(_, &cu)| cu == c)
                            .map(|(u, _)| table.get_sq(v, u))
                            .sum();
                        (c, attach)
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                    .expect("capacity always remains");
                assign.push(c);
                remaining[c] -= 1;
                g += attach;
            }
            (g, assign)
        });
        let partition = Partition::new(assign, m).expect("complete assignment is valid");
        SearchResult {
            partition,
            fg: if norm == 0.0 { 0.0 } else { g / norm },
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparators::testutil::{dumbbell_table, dumbbell_truth};
    use commsched_search::ExhaustiveSearch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn astar_finds_dumbbell_optimum() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        let res = AStarSearch::default().search(&table, &[4, 4], &mut rng);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
    }

    #[test]
    fn astar_matches_exhaustive() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        for sizes in [vec![4usize, 4], vec![2, 2, 2, 2], vec![6, 2], vec![3, 3, 2]] {
            let a = AStarSearch::default().search(&table, &sizes, &mut rng);
            let e = ExhaustiveSearch.search(&table, &sizes, &mut rng);
            assert!(
                (a.fg - e.fg).abs() < 1e-9,
                "sizes {sizes:?}: A* {} vs exhaustive {}",
                a.fg,
                e.fg
            );
        }
    }

    #[test]
    fn astar_explores_fewer_nodes_than_exhaustive() {
        // 12-switch random net, 4 clusters of 3: 15 400 groupings for the
        // exhaustive pass; A* must match the optimum in fewer expansions.
        use commsched_distance::equivalent_distance_table;
        use commsched_routing::UpDownRouting;
        use commsched_topology::{random_regular, RandomTopologyConfig};
        let mut trng = StdRng::seed_from_u64(50);
        let topo = random_regular(RandomTopologyConfig::paper(12), &mut trng).unwrap();
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let a = AStarSearch::default().search(&table, &[3, 3, 3, 3], &mut rng);
        let e = ExhaustiveSearch.search(&table, &[3, 3, 3, 3], &mut rng);
        assert!((a.fg - e.fg).abs() < 1e-9);
        assert!(
            a.evaluations < e.evaluations,
            "A* {} vs exhaustive {}",
            a.evaluations,
            e.evaluations
        );
    }

    #[test]
    fn astar_budget_fallback_is_valid() {
        // With a tiny expansion budget the greedy fallback must still
        // return a size-respecting partition.
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        let res = AStarSearch { max_expansions: 1 }.search(&table, &[4, 4], &mut rng);
        assert_eq!(res.partition.sizes(), vec![4, 4]);
        let direct = commsched_core::similarity_fg(&res.partition, &table);
        assert!((res.fg - direct).abs() < 1e-9);
    }

    #[test]
    fn astar_result_consistent_with_direct_eval() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        let res = AStarSearch::default().search(&table, &[4, 4], &mut rng);
        let direct = commsched_core::similarity_fg(&res.partition, &table);
        assert!((res.fg - direct).abs() < 1e-9);
    }

    #[test]
    fn heuristic_is_admissible_on_samples() {
        // h at the root must lower-bound the true optimum numerator.
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(0);
        let e = ExhaustiveSearch.search(&table, &[4, 4], &mut rng);
        let pairs: f64 = (4 * 3 / 2 * 2) as f64;
        let optimum_numerator = e.fg * pairs * table.mean_square();
        let h0 = heuristic(&table, &[], &[4, 4], 8);
        assert!(h0 <= optimum_numerator + 1e-9);
    }
}
