//! The paper's tabu-search variant (§4.2).
//!
//! From a random mapping, each iteration applies the cross-cluster node
//! swap with the greatest decrease of the target function `F_G`. When no
//! swap decreases `F_G` (a local minimum), the swap with the *smallest
//! increase* is applied instead, and the inverse swap becomes tabu for `h`
//! iterations. A seed's search ends when the same local-minimum value has
//! been reached three times or the iteration budget is exhausted; the whole
//! search repeats from `seeds` random starting points and keeps the best
//! local minimum seen.
//!
//! "The best swap" is the minimum over all `O(N²)` cross-cluster pairs,
//! every iteration — but an applied swap between clusters p and q changes
//! the delta of a pair `(u, v)` only if one of them sits in p or q. So
//! `run_seed` keeps, per unordered cluster pair, the best swap of all and
//! the best not tabu ([`BlockBest`], found by one block scan of
//! [`SwapEvaluator::best_swaps_between_with`]); an iteration's bests are
//! the lowest `(delta, a, b)` over the pairs — the swap a scan in `(a, b)`
//! order with a strict `<` would keep — and a pair's bests are dropped by
//! one of two rules: (i) the last swap touched one of its clusters (2M − 3
//! of the M(M − 1)/2 pairs), or (ii) a tabu entry whose switches sit in it
//! expired this iteration. The tabu list is its live entries, at most
//! `tenure + 1`.
//!
//! An iteration takes two passes. The first merges the bests still known
//! and takes the bound pass ([`SwapEvaluator::block_bounds`]) of every
//! pair a swap dropped; a pair keeps its bounds until a swap touches it,
//! whatever expires. The second visits the pairs with no known bests,
//! lowest floor first, and scans one only if its floor can beat the
//! allowed best known so far ([`PairBounds::excludes`]): a pair that
//! cannot holds neither best, keeps no memo and is asked again next
//! iteration. A scanned pair scores only the rows whose lower bound lets
//! them hold a best, and `evaluations` counts the candidates scored.
//! Debug builds recompute the full scan every iteration and assert the
//! same bests (`reference_scan`).
//!
//! `far_sq`, the row maxima of `T²` every bound is made of, is a property
//! of the table: [`TabuSearch::search_traced`] computes it once
//! ([`commsched_core::far_squares`]) and passes it to every restart's
//! bound passes and scans.
//!
//! The per-iteration `F(P_i)` trace is recorded so the harness can
//! regenerate Figure 1.

use crate::{check_sizes, Mapper, SearchResult};
use commsched_core::{far_squares, BlockBest, PairBounds, Partition, SwapEvaluator};
use commsched_distance::DistanceTable;
use commsched_telemetry as telemetry;
use commsched_topology::SwitchId;
use rand::RngCore;
use std::sync::OnceLock;

/// A forbidden swap `(a, b, until)`, `a < b`: tabu while `iterations < until`.
type TabuEntry = (SwitchId, SwitchId, usize);

/// Telemetry handles for the tabu driver, resolved once per process.
struct TabuMetrics {
    restarts: telemetry::Counter,
    iterations: telemetry::Counter,
    evaluations: telemetry::Counter,
}

fn tabu_metrics() -> &'static TabuMetrics {
    static METRICS: OnceLock<TabuMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = telemetry::global();
        TabuMetrics {
            restarts: r.counter("tabu_restarts_total", "Tabu random restarts (seeds) run"),
            iterations: r.counter(
                "tabu_iterations_total",
                "Tabu iterations (applied swaps) across all seeds",
            ),
            evaluations: r.counter(
                "tabu_evaluations_total",
                "Candidate swaps scored by the tabu scans",
            ),
        }
    })
}

/// Tuning parameters of the tabu search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabuParams {
    /// Random restarts (the paper uses 10).
    pub seeds: usize,
    /// Iteration budget per seed (the paper uses 20).
    pub max_iterations: usize,
    /// Stop a seed once the same local minimum is reached this many times
    /// (the paper uses 3).
    pub local_min_repeats: usize,
    /// Tabu tenure `h`: how many iterations the inverse of an uphill move
    /// stays forbidden. Unreported in the paper; default 4 (ablated in the
    /// bench suite).
    pub tenure: usize,
    /// Worker threads running the seed restarts (0 = one per available
    /// CPU). The restarts are independent and their merge is ordered by
    /// seed index, so every thread count returns identical results.
    /// [`crate::map_partition`] and [`crate::multilevel_map`] set it to
    /// their own budget; inside another pool's worker it must be 1.
    pub threads: usize,
}

impl Default for TabuParams {
    fn default() -> Self {
        Self {
            seeds: 10,
            max_iterations: 20,
            local_min_repeats: 3,
            tenure: 4,
            threads: 0,
        }
    }
}

impl TabuParams {
    /// Parameters exactly as reported in the paper.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A heavier-duty setting for networks larger than the paper's:
    /// budget scaled with the switch count.
    pub fn scaled(n: usize) -> Self {
        Self {
            max_iterations: (3 * n).max(20),
            ..Self::default()
        }
    }
}

/// One event of the search trace: the `F_G` value after a given total
/// iteration (Figure 1's plotted series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Total iteration number across all seeds (X axis of Figure 1).
    pub iteration: usize,
    /// Seed (restart) index this event belongs to.
    pub seed: usize,
    /// `F_G` of the current mapping.
    pub fg: f64,
    /// Whether this event is the random starting point of a seed.
    pub is_seed_start: bool,
}

/// Full trace of a tabu run.
#[derive(Debug, Clone, Default)]
pub struct TabuTrace {
    /// Events in chronological order.
    pub events: Vec<TraceEvent>,
}

impl TabuTrace {
    /// The seed-start events (the peaks of Figure 1).
    pub fn seed_starts(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(|e| e.is_seed_start)
    }

    /// Minimum `F_G` over the whole trace.
    pub fn min_fg(&self) -> Option<f64> {
        self.events
            .iter()
            .map(|e| e.fg)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))))
    }
}

/// The tabu-search mapper.
///
/// # Example
///
/// ```
/// use commsched_search::{Mapper, TabuSearch};
/// use commsched_distance::equivalent_distance_table;
/// use commsched_routing::UpDownRouting;
/// use commsched_topology::designed;
/// use rand::SeedableRng;
///
/// let topo = designed::paper_24_switch();
/// let routing = UpDownRouting::new(&topo, 0).unwrap();
/// let table = equivalent_distance_table(&topo, &routing).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let result = TabuSearch::default().search(&table, &[6, 6, 6, 6], &mut rng);
/// // The paper's Figure 4: the search identifies the four physical rings.
/// assert_eq!(result.partition.sizes(), vec![6, 6, 6, 6]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TabuSearch {
    /// Tuning parameters.
    pub params: TabuParams,
}

impl TabuSearch {
    /// Mapper with the paper's parameters.
    pub fn new(params: TabuParams) -> Self {
        Self { params }
    }

    /// Run the search and also return the iteration trace (Figure 1).
    ///
    /// The restarts run on the crate's scoped worker pool
    /// ([`crate::pool::run_indexed`]; `params.threads` workers, 0 = one
    /// per CPU). All starting partitions are drawn from `rng` up front —
    /// the same stream a serial loop would consume — and each seed records
    /// a private trace that is merged by seed index with cumulative
    /// iteration offsets, so the result and trace are identical for every
    /// thread count.
    ///
    /// # Panics
    /// Panics on invalid sizes or `params.seeds == 0` (nothing to run).
    pub fn search_traced(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> (SearchResult, TabuTrace) {
        let n = table.n();
        assert!(
            check_sizes(n, sizes),
            "invalid cluster sizes {sizes:?} for {n} switches"
        );
        assert!(
            self.params.seeds > 0,
            "TabuParams::seeds is 0: no restart to run"
        );
        let _span = telemetry::Span::enter("tabu.search");
        // The seed runs themselves consume no randomness, so drawing every
        // start here preserves the exact RNG stream of a serial loop.
        let starts: Vec<Partition> = (0..self.params.seeds)
            .map(|_| {
                Partition::random(n, sizes, rng)
                    .expect("validated sizes always produce a partition")
            })
            .collect();

        type SeedOutcome = ((f64, Partition), u64, TabuTrace, usize);
        // A property of the table: computed once, shared by every restart.
        let far_sq = far_squares(table);
        let per_seed: Vec<SeedOutcome> =
            crate::pool::run_indexed(starts.len(), self.params.threads, |seed_idx| {
                let mut trace = TabuTrace::default();
                let mut local_iter = 0usize;
                let start = starts[seed_idx].clone();
                let (seed_best, seed_evals) = self.run_seed(
                    SwapEvaluator::new(start, table),
                    &far_sq,
                    seed_idx,
                    &mut local_iter,
                    &mut trace,
                );
                (seed_best, seed_evals, trace, local_iter)
            });

        let mut trace = TabuTrace::default();
        let mut best: Option<(f64, Partition)> = None;
        let mut evaluations = 0u64;
        let mut offset = 0usize;
        for (seed_best, seed_evals, seed_trace, seed_iters) in per_seed {
            trace
                .events
                .extend(seed_trace.events.iter().map(|e| TraceEvent {
                    iteration: offset + e.iteration,
                    ..*e
                }));
            offset += seed_iters;
            evaluations += seed_evals;
            if best.as_ref().is_none_or(|(f, _)| seed_best.0 < *f) {
                best = Some(seed_best);
            }
        }

        let m = tabu_metrics();
        m.restarts.add(starts.len() as u64);
        m.iterations.add(offset as u64);
        m.evaluations.add(evaluations);
        // When tracing is armed, replay the merged F_G trajectory (the
        // Figure-1 series) as point events — bounded by the iteration
        // budget, and free when tracing is off.
        if telemetry::tracing_enabled() {
            for e in &trace.events {
                let name = if e.is_seed_start {
                    "tabu.seed_start"
                } else {
                    "tabu.fg"
                };
                telemetry::trace::instant(name, Some(e.fg));
            }
        }

        let (fg, partition) = best.expect("at least one restart ran");
        (
            SearchResult {
                partition,
                fg,
                evaluations,
            },
            trace,
        )
    }

    /// Run one seed; returns the best local minimum `(value, partition)`
    /// and the evaluation count. `far_sq` is `far_squares` of `eval`'s
    /// table.
    fn run_seed(
        &self,
        mut eval: SwapEvaluator<'_>,
        far_sq: &[f64],
        seed_idx: usize,
        global_iter: &mut usize,
        trace: &mut TabuTrace,
    ) -> ((f64, Partition), u64) {
        const EPS: f64 = 1e-12;
        let mut evaluations = 0u64;
        trace.events.push(TraceEvent {
            iteration: *global_iter,
            seed: seed_idx,
            fg: eval.fg(),
            is_seed_start: true,
        });

        // The tabu list as its live entries: an escape adds one, `until`
        // grows with `iterations`, so at most `tenure + 1` are ever live.
        let mut tabu: Vec<TabuEntry> = Vec::new();
        #[cfg(debug_assertions)]
        let mut ever_tabu: Vec<TabuEntry> = Vec::new();
        // Local minima seen this seed: (value, hit count).
        let mut minima: Vec<(f64, usize)> = Vec::new();
        let mut seed_best: (f64, Partition) = (eval.fg(), eval.partition().clone());
        let mut iterations = 0usize;

        let m = eval.partition().num_clusters();
        // The memo: `memo[slot(r, s)]` holds the bests of cluster pair
        // {r, s}, `None` once dropped or skipped; `bounds[slot(r, s)]` its
        // bound pass, `None` once a swap touched it (a diagonal cell is
        // never read).
        let slot = |r: usize, s: usize| r.min(s) * m + r.max(s);
        let mut memo: Vec<Option<BlockBest>> = vec![None; m * m];
        let mut bounds: Vec<Option<PairBounds>> = vec![None; m * m];
        let mut unknown: Vec<PairBounds> = Vec::with_capacity(m * m / 2);
        loop {
            #[cfg(test)]
            let (scored_before, live_before) = (evaluations, tabu.len());
            // CORRECTNESS (rule ii): an entry that expires now makes its
            // swap allowed again, and the pair its switches sit in may have
            // chosen its cached `allowed` around it: drop that pair. Its
            // bounds hold every swap, tabu or not: they stay.
            tabu.retain(|&(a, b, until)| {
                if iterations >= until {
                    let clusters = eval.partition();
                    memo[slot(clusters.cluster_of(a), clusters.cluster_of(b))] = None;
                }
                iterations < until
            });
            // Pass one: the bests still known, and the bounds of the rest.
            let mut best: Option<BlockBest> = None;
            unknown.clear();
            for r in 0..m {
                for s in (r + 1)..m {
                    if let Some(found) = memo[slot(r, s)] {
                        best = Some(best.map_or(found, |b| b.merged(found)));
                    } else {
                        unknown.push(*bounds[slot(r, s)].get_or_insert_with(|| {
                            #[cfg(test)]
                            tests::note_bounds(eval.partition(), r, s);
                            eval.block_bounds(r, s, far_sq)
                        }));
                    }
                }
            }
            // Pass two: the other pairs, lowest floor first, each scanned
            // only if its floor lets it beat the allowed best known so far.
            unknown.sort_unstable_by(|x, y| x.floor().total_cmp(&y.floor()));
            for pair in &unknown {
                let allowed = best.and_then(|b| b.allowed);
                let cutoff = allowed.map_or(f64::INFINITY, |swap| eval.cutoff_of(swap));
                // CORRECTNESS: every swap of an excluded pair scores above
                // the allowed best already known, and so above the best of
                // all (any ≤ allowed): it is neither, and the iteration's
                // bests are those of the pairs merged. Such a pair keeps no
                // memo (it may yet hold its own bests) and is asked again
                // next iteration. With no allowed swap known, `cutoff` is
                // infinite and nothing is skipped.
                if pair.excludes(cutoff) {
                    continue;
                }
                let (r, s) = pair.pair();
                #[cfg(test)]
                tests::note_block(eval.partition(), r, s);
                let is_tabu = |a, b| tabu.iter().any(|&(ta, tb, _)| (ta, tb) == (a, b));
                let (found, scored) = eval.best_swaps_between_with(pair, far_sq, is_tabu);
                evaluations += scored as u64;
                memo[slot(r, s)] = Some(found);
                best = Some(best.map_or(found, |b| b.merged(found)));
            }
            #[cfg(test)]
            tests::note_scan(iterations, evaluations - scored_before, live_before);
            #[cfg(debug_assertions)]
            assert_eq!(best, reference_scan(&eval, &ever_tabu, iterations));
            let Some(BlockBest {
                any: best_any,
                allowed: best_allowed,
            }) = best
            else {
                // Degenerate: a single cluster, nothing to swap.
                break;
            };

            let at_local_min = best_any.0 >= -EPS;
            let (a, b) = if at_local_min {
                // Record this local minimum.
                let fg = eval.fg();
                if fg < seed_best.0 {
                    seed_best = (fg, eval.partition().clone());
                }
                let hits = match minima.iter_mut().find(|(v, _)| (*v - fg).abs() <= 1e-9) {
                    Some((_, count)) => {
                        *count += 1;
                        *count
                    }
                    None => {
                        minima.push((fg, 1));
                        1
                    }
                };
                if hits >= self.params.local_min_repeats {
                    break;
                }
                if iterations >= self.params.max_iterations {
                    break;
                }
                // Escape: smallest-increase non-tabu move; forbid its
                // inverse for `tenure` iterations.
                let Some((_, a, b)) = best_allowed else {
                    break; // everything tabu: give up this seed
                };
                tabu.push((a, b, iterations + 1 + self.params.tenure));
                #[cfg(debug_assertions)]
                ever_tabu.push((a, b, iterations + 1 + self.params.tenure));
                (a, b)
            } else {
                // Greedy improving move. Improving moves respect the tabu
                // list too; if the list blocks every improving move, fall
                // back to the raw best (which may be the blocked one — the
                // aspiration-by-default of taking a strictly improving step
                // can never re-enter a visited local minimum cycle).
                let (_, a, b) = best_allowed
                    .filter(|&(d, _, _)| d < -EPS)
                    .unwrap_or(best_any);
                (a, b)
            };
            // CORRECTNESS (rule i): the swap writes columns p and q of `S`
            // and nothing else, so `delta(u, v)` moved iff u or v sits in p
            // or q: every pair with p or q in it is dropped, and any other
            // pair's cached bests are what a rescan would return. A tabu
            // entry just added is `(a, b)` itself, in the dropped {p, q}.
            let clusters = eval.partition();
            let (p, q) = (clusters.cluster_of(a), clusters.cluster_of(b));
            eval.apply_swap(a, b);
            for c in 0..m {
                (memo[slot(c, p)], memo[slot(c, q)]) = (None, None);
                (bounds[slot(c, p)], bounds[slot(c, q)]) = (None, None);
            }

            iterations += 1;
            *global_iter += 1;
            trace.events.push(TraceEvent {
                iteration: *global_iter,
                seed: seed_idx,
                fg: eval.fg(),
                is_seed_start: false,
            });
            // Hard stop even if still descending: the budget is the budget.
            if iterations >= self.params.max_iterations + self.params.tenure * 4 {
                let fg = eval.fg();
                if fg < seed_best.0 {
                    seed_best = (fg, eval.partition().clone());
                }
                break;
            }
        }
        // Account for the final state.
        let fg = eval.fg();
        if fg < seed_best.0 {
            seed_best = (fg, eval.into_partition());
        }
        (seed_best, evaluations)
    }
}

#[cfg(debug_assertions)]
mod reference;
#[cfg(debug_assertions)]
use reference::reference_scan;

impl Mapper for TabuSearch {
    fn name(&self) -> &'static str {
        "tabu"
    }

    fn search(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> SearchResult {
        self.search_traced(table, sizes, rng).0
    }
}

/// Convenience: run the paper-configured tabu search with a fixed seed.
pub fn tabu_map(table: &DistanceTable, sizes: &[usize], seed: u64) -> SearchResult {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TabuSearch::default().search(table, sizes, &mut rng)
}

#[cfg(test)]
mod tests;
