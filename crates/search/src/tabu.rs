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
//! [`SwapEvaluator::best_swaps_between`]); an iteration's bests are the
//! lowest `(delta, a, b)` over the pairs — the swap a scan in `(a, b)` order
//! with a strict `<` would keep — and a pair is rescanned only after it was
//! dropped, by one of two rules: (i) the last swap touched one of its
//! clusters (2M − 3 of the M(M − 1)/2 pairs), or (ii) a tabu entry whose
//! switches sit in it expired this iteration. The tabu list is its live
//! entries, at most `tenure + 1`. A rescanned pair scores only the rows
//! whose lower bound lets them hold a best, and `evaluations` counts the
//! candidates scored. Debug builds recompute the full scan every
//! iteration and assert the same bests (`reference_scan`).
//!
//! The per-iteration `F(P_i)` trace is recorded so the harness can
//! regenerate Figure 1.

use crate::{check_sizes, Mapper, SearchResult};
use commsched_core::{BlockBest, Partition, SwapEvaluator};
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
    /// Optional previous mapping used as the first restart instead of a
    /// random start (warm-started remapping after a topology change).
    pub warm_start: Option<Partition>,
}

impl Default for TabuParams {
    fn default() -> Self {
        Self {
            seeds: 10,
            max_iterations: 20,
            local_min_repeats: 3,
            tenure: 4,
            threads: 0,
            warm_start: None,
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

    /// Seed the first restart from a previous mapping instead of a random
    /// start. The warm start consumes no randomness, so the remaining
    /// `seeds - 1` restarts draw exactly the partitions a cold run's first
    /// `seeds - 1` seeds would draw.
    #[must_use]
    pub fn warm_start(mut self, prev: Partition) -> Self {
        self.warm_start = Some(prev);
        self
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
    /// # Panics
    /// Panics if `sizes` is not a valid cluster-size vector for the table.
    pub fn search_traced(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        rng: &mut dyn RngCore,
    ) -> (SearchResult, TabuTrace) {
        self.search_weighted(table, sizes, &vec![1.0; sizes.len()], rng)
    }

    /// Run the search against the weighted similarity function (per-
    /// application traffic weights — the paper's future-work setting;
    /// unit weights are the paper's `F_G`).
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
    /// Panics on invalid sizes, a weight-count mismatch, non-positive
    /// weights, or `params.seeds == 0` with no warm start (nothing to run).
    pub fn search_weighted(
        &self,
        table: &DistanceTable,
        sizes: &[usize],
        weights: &[f64],
        rng: &mut dyn RngCore,
    ) -> (SearchResult, TabuTrace) {
        let n = table.n();
        assert!(
            check_sizes(n, sizes),
            "invalid cluster sizes {sizes:?} for {n} switches"
        );
        assert!(
            self.params.seeds > 0 || self.params.warm_start.is_some(),
            "TabuParams::seeds is 0 and there is no warm start: no restart to run"
        );
        let _span = telemetry::Span::enter("tabu.search");
        // The seed runs themselves consume no randomness, so drawing every
        // start here preserves the exact RNG stream of a serial loop. A warm
        // start replaces the first restart and draws nothing from `rng`.
        let mut starts: Vec<Partition> = Vec::with_capacity(self.params.seeds.max(1));
        if let Some(warm) = &self.params.warm_start {
            assert_eq!(
                warm.num_switches(),
                n,
                "warm-start partition has the wrong switch count"
            );
            assert_eq!(
                warm.sizes(),
                sizes,
                "warm-start partition has the wrong cluster sizes"
            );
            starts.push(warm.clone());
        }
        while starts.len() < self.params.seeds {
            starts.push(
                Partition::random(n, sizes, rng)
                    .expect("validated sizes always produce a partition"),
            );
        }

        type SeedOutcome = ((f64, Partition), u64, TabuTrace, usize);
        let per_seed: Vec<SeedOutcome> =
            crate::pool::run_indexed(starts.len(), self.params.threads, |seed_idx| {
                let mut trace = TabuTrace::default();
                let mut local_iter = 0usize;
                let (seed_best, seed_evals) = self.run_seed(
                    SwapEvaluator::with_weights(starts[seed_idx].clone(), table, weights.to_vec()),
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
    /// and the evaluation count.
    fn run_seed(
        &self,
        mut eval: SwapEvaluator<'_>,
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
        // {r, s}, `None` once dropped (a diagonal cell is never read).
        let slot = |r: usize, s: usize| r.min(s) * m + r.max(s);
        let mut memo: Vec<Option<BlockBest>> = vec![None; m * m];
        loop {
            #[cfg(test)]
            let (scored_before, live_before) = (evaluations, tabu.len());
            // CORRECTNESS (rule ii): an entry that expires now makes its
            // swap allowed again, and the pair its switches sit in may have
            // chosen its cached `allowed` around it: drop that pair.
            tabu.retain(|&(a, b, until)| {
                if iterations >= until {
                    let clusters = eval.partition();
                    memo[slot(clusters.cluster_of(a), clusters.cluster_of(b))] = None;
                }
                iterations < until
            });
            let mut best: Option<BlockBest> = None;
            for r in 0..m {
                for s in (r + 1)..m {
                    let found = *memo[slot(r, s)].get_or_insert_with(|| {
                        #[cfg(test)]
                        tests::note_block(eval.partition(), r, s);
                        let is_tabu = |a, b| tabu.iter().any(|&(ta, tb, _)| (ta, tb) == (a, b));
                        let (found, scored) = eval.best_swaps_between(r, s, is_tabu);
                        evaluations += scored as u64;
                        found
                    });
                    best = Some(best.map_or(found, |b| b.merged(found)));
                }
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

/// The scan `run_seed` replaced — every cross-cluster pair through
/// `delta_fg`, in `(a, b)` order, strict `<`, against every tabu entry ever
/// made — kept as the definition its memo is checked against in debug
/// builds, every iteration.
#[cfg(debug_assertions)]
fn reference_scan(
    eval: &SwapEvaluator<'_>,
    ever_tabu: &[TabuEntry],
    iterations: usize,
) -> Option<BlockBest> {
    let clusters = eval.partition();
    let (mut any, mut allowed) = (None::<(f64, SwitchId, SwitchId)>, None);
    for a in 0..clusters.num_switches() {
        for b in (a + 1)..clusters.num_switches() {
            if clusters.cluster_of(a) == clusters.cluster_of(b) {
                continue;
            }
            let delta = eval.delta_fg(a, b);
            if any.is_none_or(|(d, _, _)| delta < d) {
                any = Some((delta, a, b));
            }
            let is_tabu = |&(ta, tb, until)| (ta, tb) == (a, b) && iterations < until;
            if !ever_tabu.iter().any(is_tabu) && allowed.is_none_or(|(d, _, _)| delta < d) {
                allowed = Some((delta, a, b));
            }
        }
    }
    any.map(|any| BlockBest { any, allowed })
}

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
mod tests {
    use super::*;
    use crate::testutil::{dumbbell_table, dumbbell_truth, random_table, rings_table};
    use commsched_core::similarity_fg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::{Cell, RefCell};

    /// What one scan of `run_seed` did.
    #[derive(Debug, Clone, Copy)]
    struct Scan {
        /// Iteration of its seed.
        iteration: usize,
        /// Candidates scored.
        scored: u64,
        /// Candidates in the cluster pairs it rescanned: what a scan that
        /// scores every candidate of a rescanned pair would score.
        blocks: u64,
        /// Tabu entries live before it.
        live_tabu: usize,
    }

    thread_local! {
        /// Every scan this thread ran (`threads: 1` runs the restarts
        /// inline, on the test's thread).
        static SCANS: RefCell<Vec<Scan>> = const { RefCell::new(Vec::new()) };
        /// Candidates in the pairs the running scan has rescanned so far.
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn note_block(clusters: &Partition, r: usize, s: usize) {
        let sizes = clusters.sizes();
        BLOCKS.with(|b| b.set(b.get() + (sizes[r] * sizes[s]) as u64));
    }

    pub(super) fn note_scan(iteration: usize, scored: u64, live_tabu: usize) {
        let scan = Scan {
            iteration,
            scored,
            blocks: BLOCKS.with(|b| b.replace(0)),
            live_tabu,
        };
        SCANS.with(|s| s.borrow_mut().push(scan));
    }

    /// Run `params` (on this thread) and return what its scans logged.
    fn logged_search(
        table: &DistanceTable,
        sizes: &[usize],
        params: TabuParams,
        rng_seed: u64,
    ) -> (SearchResult, TabuTrace, Vec<Scan>) {
        assert_eq!(params.threads, 1, "the scan log is per thread");
        SCANS.with(|s| s.borrow_mut().clear());
        BLOCKS.with(|b| b.set(0));
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let (res, trace) = TabuSearch::new(params).search_traced(table, sizes, &mut rng);
        (res, trace, SCANS.with(|s| s.borrow().clone()))
    }

    #[test]
    fn a_scan_rescores_only_the_cluster_pairs_the_last_swap_touched() {
        // The benchmark's `large_warm` shape: N = 96, eight clusters of 12.
        let (n, m, s) = (96u64, 8u64, 12u64);
        let params = TabuParams {
            threads: 1,
            ..TabuParams::scaled(96)
        };
        let restarts = params.seeds as u64;
        let (res, trace, scans) = logged_search(&random_table(96), &[12; 8], params, 96);
        let all_pairs = (n * n - n * s) / 2;
        assert_eq!(all_pairs, 4032);
        let iterations = trace.events.iter().filter(|e| !e.is_seed_start).count() as u64;
        assert_eq!(scans.iter().map(|x| x.scored).sum::<u64>(), res.evaluations);
        // The full scan of every iteration (and a last one per restart)
        // would score `(iterations + restarts) × 4032`.
        assert!(
            res.evaluations * 100 <= 55 * (iterations + restarts) * all_pairs,
            "{} candidates scored in {iterations} iterations of {restarts} restarts",
            res.evaluations
        );
        for scan in &scans {
            let Scan {
                iteration,
                scored,
                blocks,
                live_tabu,
            } = *scan;
            assert!(scored <= blocks, "{scan:?}");
            if iteration == 0 {
                assert_eq!(
                    blocks, all_pairs,
                    "a restart's first scan rescans every pair"
                );
            } else {
                // Rule (i) drops the 2M − 3 pairs of the two touched
                // clusters, rule (ii) one per entry that expires.
                assert!(
                    blocks <= (2 * m - 3 + live_tabu as u64) * s * s,
                    "iteration {iteration}: {blocks} in rescanned pairs with {live_tabu} tabu entries live"
                );
            }
        }
        assert!(
            scans.iter().any(|x| x.live_tabu > 0),
            "no escape: rule (ii) idle"
        );
    }

    #[test]
    fn two_clusters_have_nothing_to_memo_and_lose_nothing() {
        // One cluster pair, dropped by every swap: every scan rescans the
        // whole block, as before the memo, and scores at most all of it.
        let params = TabuParams {
            threads: 1,
            ..TabuParams::scaled(32)
        };
        let (res, _, scans) = logged_search(&random_table(32), &[16, 16], params, 32);
        assert!(scans
            .iter()
            .all(|x| x.blocks == 16 * 16 && x.scored <= 16 * 16));
        assert_eq!(res.evaluations, scans.iter().map(|x| x.scored).sum::<u64>());
    }

    /// Candidates scored over a whole search, and those in the pairs it
    /// rescanned.
    fn scored_of_blocks(table: &DistanceTable, sizes: &[usize], rng_seed: u64) -> (u64, u64) {
        let params = TabuParams {
            threads: 1,
            ..TabuParams::scaled(table.n())
        };
        let (res, _, scans) = logged_search(table, sizes, params, rng_seed);
        let blocks = scans.iter().map(|x| x.blocks).sum::<u64>();
        (res.evaluations, blocks)
    }

    #[test]
    fn a_block_scan_scores_a_fraction_of_its_rows() {
        // The coarse level of a `large_cold` job: 160 nodes, 8 clusters
        // of 20, the budget `multilevel_map` gives it.
        let fine = random_table(320);
        let hierarchy = crate::coarsen::build_hierarchy(&fine, &[40; 8], 256);
        let (coarse, sizes) = hierarchy.coarsest().expect("320 nodes coarsen once");
        assert_eq!((coarse.n(), sizes), (160, &[20; 8][..]));
        let (scored, blocks) = scored_of_blocks(coarse, sizes, 320);
        assert!(
            scored * 100 <= 25 * blocks,
            "coarse 160 x 8: {scored} of {blocks} scored"
        );
        // The `large_warm` shape.
        let (scored, blocks) = scored_of_blocks(&random_table(96), &[12; 8], 96);
        assert!(
            scored * 100 <= 35 * blocks,
            "flat 96 x 8: {scored} of {blocks} scored"
        );
    }

    #[test]
    fn the_tabu_list_holds_its_live_entries_only() {
        // The `uphill_moves_are_tabu_guarded` set-up: escapes happen again
        // and again over 40 iterations.
        let params = TabuParams {
            seeds: 2,
            max_iterations: 40,
            local_min_repeats: 3,
            tenure: 4,
            threads: 1,
            warm_start: None,
        };
        let (_, trace, scans) = logged_search(&rings_table(), &[6, 6, 6, 6], params, 13);
        let most = scans.iter().map(|x| x.live_tabu).max().unwrap();
        assert!((1..=4 + 1).contains(&most), "{most} tabu entries at once");
        let uphill = trace
            .events
            .windows(2)
            .filter(|w| !w[1].is_seed_start && w[1].fg > w[0].fg);
        assert!(
            uphill.count() > most,
            "too few escapes for any entry to have expired"
        );
    }

    #[test]
    #[should_panic(expected = "TabuParams::seeds is 0")]
    fn zero_seeds_without_a_warm_start_panics_up_front() {
        let params = TabuParams {
            seeds: 0,
            ..TabuParams::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let _ = TabuSearch::new(params).search(&dumbbell_table(), &[4, 4], &mut rng);
    }

    #[test]
    fn finds_dumbbell_clusters() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(1);
        let res = TabuSearch::default().search(&table, &[4, 4], &mut rng);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
    }

    #[test]
    fn finds_the_four_rings() {
        // The Figure-4 experiment: tabu identifies the designed topology.
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(2);
        let res = TabuSearch::new(TabuParams::scaled(24)).search(&table, &[6, 6, 6, 6], &mut rng);
        let truth = commsched_core::Partition::from_clusters(
            &commsched_topology::designed::ring_of_rings_clusters(4, 6),
        )
        .unwrap();
        assert!(
            res.partition.same_grouping(&truth),
            "got {} (fg {}), want {} (fg {})",
            res.partition,
            res.fg,
            truth,
            similarity_fg(&truth, &table)
        );
    }

    #[test]
    fn result_fg_is_consistent() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(3);
        let res = TabuSearch::default().search(&table, &[4, 4], &mut rng);
        let direct = similarity_fg(&res.partition, &table);
        assert!((res.fg - direct).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let table = rings_table();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            TabuSearch::default().search(&table, &[6, 6, 6, 6], &mut rng)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn trace_has_one_start_per_seed() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(5);
        let params = TabuParams {
            seeds: 4,
            ..TabuParams::default()
        };
        let (res, trace) = TabuSearch::new(params).search_traced(&table, &[4, 4], &mut rng);
        assert_eq!(trace.seed_starts().count(), 4);
        // The reported minimum equals the trace minimum.
        assert!((trace.min_fg().unwrap() - res.fg).abs() < 1e-9);
        // Iterations increase monotonically.
        for w in trace.events.windows(2) {
            assert!(w[1].iteration >= w[0].iteration);
        }
    }

    #[test]
    fn trace_descends_quickly_after_start() {
        // Figure 1's qualitative shape: F decreases in the first few
        // iterations after each starting point.
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(11);
        let (_, trace) = TabuSearch::default().search_traced(&table, &[6, 6, 6, 6], &mut rng);
        for (i, e) in trace.events.iter().enumerate() {
            if e.is_seed_start {
                if let Some(next) = trace.events.get(i + 1) {
                    if !next.is_seed_start {
                        assert!(next.fg <= e.fg + 1e-12, "first move must not be uphill");
                    }
                }
            }
        }
    }

    #[test]
    fn single_cluster_degenerate() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(1);
        let res = TabuSearch::default().search(&table, &[8], &mut rng);
        // Only one possible partition; F_G = 1 by Eq. 2.
        assert!((res.fg - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid cluster sizes")]
    fn invalid_sizes_panic() {
        let table = dumbbell_table();
        let mut rng = StdRng::seed_from_u64(1);
        let _ = TabuSearch::default().search(&table, &[3, 3], &mut rng);
    }

    #[test]
    fn uphill_moves_are_tabu_guarded() {
        // Run long enough that escapes happen; the search must terminate
        // (no infinite 2-cycle thanks to the tabu list).
        let table = rings_table();
        let params = TabuParams {
            seeds: 2,
            max_iterations: 40,
            local_min_repeats: 3,
            tenure: 4,
            threads: 2,
            warm_start: None,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let (res, trace) = TabuSearch::new(params).search_traced(&table, &[6, 6, 6, 6], &mut rng);
        assert!(res.fg.is_finite());
        assert!(!trace.events.is_empty());
    }

    #[test]
    fn parallel_restarts_match_serial_exactly() {
        // Result, evaluation count AND trace must be invariant under the
        // restart thread count.
        let table = rings_table();
        let run = |threads| {
            let mut rng = StdRng::seed_from_u64(17);
            let params = TabuParams {
                threads,
                ..TabuParams::default()
            };
            TabuSearch::new(params).search_traced(&table, &[6, 6, 6, 6], &mut rng)
        };
        let (r1, t1) = run(1);
        for threads in [2, 7, 64] {
            let (r, t) = run(threads);
            assert_eq!(r1.partition, r.partition, "threads = {threads}");
            assert_eq!(r1.evaluations, r.evaluations, "threads = {threads}");
            assert!((r1.fg - r.fg).abs() == 0.0, "threads = {threads}");
            assert_eq!(t1.events, t.events, "threads = {threads}");
        }
    }

    #[test]
    fn weighted_search_places_heavy_app_tightest() {
        use commsched_core::{cluster_similarity, weighted_similarity_fg};
        let table = rings_table();
        // Application 0 has 20x the traffic of the others.
        let weights = [20.0, 1.0, 1.0, 1.0];
        let params = TabuParams::scaled(24);
        let mut rng = StdRng::seed_from_u64(3);
        let (res, _) =
            TabuSearch::new(params).search_weighted(&table, &[6, 6, 6, 6], &weights, &mut rng);
        // Consistency with the direct weighted formula.
        let direct = weighted_similarity_fg(&res.partition, &table, &weights);
        assert!((res.fg - direct).abs() < 1e-9);
        // The heavy application's cluster must be the tightest one (or tied).
        let clusters = res.partition.clusters();
        let cost0 = cluster_similarity(&clusters[0], &table);
        for members in &clusters[1..] {
            assert!(cost0 <= cluster_similarity(members, &table) + 1e-9);
        }
    }

    #[test]
    fn weighted_search_with_uniform_weights_matches_unweighted() {
        let table = dumbbell_table();
        let params = TabuParams::default();
        let mut rng = StdRng::seed_from_u64(9);
        let (w, _) =
            TabuSearch::new(params.clone()).search_weighted(&table, &[4, 4], &[2.0, 2.0], &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let u = TabuSearch::new(params).search(&table, &[4, 4], &mut rng);
        assert_eq!(w.partition, u.partition);
        assert!((w.fg - u.fg).abs() < 1e-9);
    }

    #[test]
    fn warm_start_replaces_first_restart_only() {
        let table = rings_table();
        let sizes = [6usize, 6, 6, 6];
        let truth = commsched_core::Partition::from_clusters(
            &commsched_topology::designed::ring_of_rings_clusters(4, 6),
        )
        .unwrap();
        let cold_params = TabuParams {
            seeds: 4,
            ..TabuParams::default()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let (_, cold_trace) =
            TabuSearch::new(cold_params.clone()).search_traced(&table, &sizes, &mut rng);
        let warm_params = cold_params.warm_start(truth.clone());
        let mut rng = StdRng::seed_from_u64(23);
        let (warm_res, warm_trace) =
            TabuSearch::new(warm_params).search_traced(&table, &sizes, &mut rng);
        let warm_starts: Vec<f64> = warm_trace.seed_starts().map(|e| e.fg).collect();
        let cold_starts: Vec<f64> = cold_trace.seed_starts().map(|e| e.fg).collect();
        assert_eq!(warm_starts.len(), 4);
        // Restart 0 begins at the warm mapping's F_G ...
        let warm_fg = similarity_fg(&truth, &table);
        assert!((warm_starts[0] - warm_fg).abs() < 1e-12);
        // ... and the remaining restarts consume the same RNG stream a
        // cold run's first three seeds would (bitwise).
        assert_eq!(&warm_starts[1..], &cold_starts[..3]);
        // Seeding from the optimum can never end worse than it.
        assert!(warm_res.fg <= warm_fg + 1e-12);
    }

    #[test]
    fn warm_start_alone_needs_no_rng_draws() {
        let table = dumbbell_table();
        let params = TabuParams {
            seeds: 1,
            ..TabuParams::default()
        }
        .warm_start(dumbbell_truth());
        let mut rng = StdRng::seed_from_u64(0);
        let before = rng.next_u64();
        let mut rng = StdRng::seed_from_u64(0);
        let res = TabuSearch::new(params).search(&table, &[4, 4], &mut rng);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
        // The stream was untouched: the next draw is the first draw.
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    #[should_panic(expected = "warm-start partition has the wrong cluster sizes")]
    fn warm_start_size_mismatch_panics() {
        let table = dumbbell_table();
        let params = TabuParams::default().warm_start(dumbbell_truth());
        let mut rng = StdRng::seed_from_u64(1);
        // The warm partition is (4, 4); asking for (2, 6) must panic.
        let _ = TabuSearch::new(params).search_traced(&table, &[2, 6], &mut rng);
    }

    #[test]
    fn tabu_map_convenience() {
        let table = dumbbell_table();
        let res = tabu_map(&table, &[4, 4], 42);
        assert!(res.partition.same_grouping(&dumbbell_truth()));
        assert!(res.evaluations > 0);
    }
}
