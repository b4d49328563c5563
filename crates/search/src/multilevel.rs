//! Multilevel mapping: coarsen → map → refine (tentpole of the scale
//! work).
//!
//! The paper's tabu search evaluates `O(N²)` swaps per iteration with a
//! budget of `3N` iterations per seed — prohibitive beyond a few hundred
//! switches. The multilevel pipeline makes `N = 4096+` tractable:
//!
//! 1. **Coarsen** ([`crate::coarsen`]): contract distance-similar switch
//!    pairs level by level until the graph fits the flat solver
//!    (`max_coarse_n`). The coarse table is exact for coarse-respecting
//!    partitions, so no modeling error enters here.
//! 2. **Map**: run the existing deterministic parallel tabu search on the
//!    coarsest graph (the only stage that consumes randomness).
//! 3. **Uncoarsen + refine**: project the mapping down one level at a
//!    time and run a bounded-neighborhood swap search at each level —
//!    each vertex only considers its `refine_candidates` nearest
//!    neighbors, so a refinement round costs `O(N·K)` deltas instead of
//!    the flat search's `O(N²)`.
//!
//! # Determinism
//!
//! The coarse tabu already returns bit-identical results for every thread
//! count (index-ordered merge of independent seeds). Refinement keeps the
//! property with a *frozen-scan / serial-apply* discipline: each round
//! first scans all active vertices in parallel against an **immutable**
//! evaluator snapshot (pure reads, results merged in vertex order by
//! [`crate::pool::run_indexed`]), then applies the proposed swaps
//! serially in ascending vertex order, re-checking each delta against the
//! now-mutating state. No stage's output depends on thread scheduling.

use crate::coarsen::{build_hierarchy, Hierarchy};
use crate::tabu::{TabuParams, TabuSearch};
use crate::{check_sizes, Mapper, SearchResult};
use commsched_core::{Partition, SwapEvaluator};
use commsched_distance::DistanceTable;
use commsched_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Which mapping pipeline a caller wants: the paper's flat search or the
/// multilevel pipeline. Parsed from job specs and CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapStrategy {
    /// Flat multi-seed tabu search on the full table (the paper's method).
    #[default]
    Flat,
    /// Coarsen → map → refine (this module).
    Multilevel,
}

impl std::fmt::Display for MapStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MapStrategy::Flat => "flat",
            MapStrategy::Multilevel => "multilevel",
        })
    }
}

impl std::str::FromStr for MapStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flat" => Ok(MapStrategy::Flat),
            "multilevel" => Ok(MapStrategy::Multilevel),
            other => Err(format!("unknown strategy '{other}' (flat|multilevel)")),
        }
    }
}

/// Telemetry handles for the multilevel driver, resolved once per process.
struct MlMetrics {
    runs: telemetry::Counter,
    levels: telemetry::Counter,
    refine_moves: telemetry::Counter,
}

fn ml_metrics() -> &'static MlMetrics {
    static METRICS: OnceLock<MlMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = telemetry::global();
        MlMetrics {
            runs: r.counter("ml_runs_total", "Multilevel mapping pipelines run"),
            levels: r.counter(
                "ml_levels_total",
                "Coarsening levels built across all multilevel runs",
            ),
            refine_moves: r.counter(
                "ml_refine_moves_total",
                "Improving swaps applied during uncoarsening refinement",
            ),
        }
    })
}

/// Tuning parameters of the multilevel pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultilevelParams {
    /// Stop coarsening once the graph has at most this many nodes; the
    /// flat tabu search solves the coarsest level.
    pub max_coarse_n: usize,
    /// Parameters for the coarse tabu search. `max_iterations` is
    /// re-scaled to the coarsest node count at run time; `threads` is
    /// overridden by [`MultilevelParams::threads`].
    pub tabu: TabuParams,
    /// Refinement rounds per level during uncoarsening.
    pub refine_rounds: usize,
    /// Nearest-neighbor candidates each vertex considers per round.
    pub refine_candidates: usize,
    /// Worker threads for the coarse search and the refinement scans
    /// (0 = one per available CPU). Results are identical for every
    /// thread count.
    pub threads: usize,
}

impl Default for MultilevelParams {
    fn default() -> Self {
        Self {
            max_coarse_n: 256,
            tabu: TabuParams::default(),
            refine_rounds: 8,
            refine_candidates: 32,
            threads: 0,
        }
    }
}

/// Observability of one multilevel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MultilevelStats {
    /// Coarsening levels built (0 = the flat solver ran directly).
    pub levels: usize,
    /// Node count of the coarsest graph handed to the tabu search.
    pub coarse_n: usize,
    /// Improving swaps applied during refinement.
    pub refine_moves: u64,
}

const EPS: f64 = 1e-12;

/// One improving-swap proposal from the frozen scan: `(delta_fg, v, u)`.
type Proposal = (f64, usize, usize);

/// Run the full coarsen → map → refine pipeline.
///
/// Deterministic: the only randomness is the coarse tabu's restarts,
/// seeded from `seed`, and every parallel stage merges in index order —
/// the result is bit-identical for any `params.threads`.
///
/// # Panics
/// Panics if `sizes` is not a valid cluster-size vector for `table.n()`.
pub fn multilevel_map(
    table: &DistanceTable,
    sizes: &[usize],
    seed: u64,
    params: &MultilevelParams,
) -> (SearchResult, MultilevelStats) {
    assert!(check_sizes(table.n(), sizes), "invalid cluster sizes");
    let metrics = ml_metrics();
    metrics.runs.inc();

    let hierarchy = build_hierarchy(table, sizes, params.max_coarse_n.max(2));
    let (coarse_table, coarse_sizes) = hierarchy.coarsest().unwrap_or((table, sizes));
    metrics.levels.add(hierarchy.levels.len() as u64);

    let tabu = TabuSearch::new(TabuParams {
        max_iterations: (3 * coarse_table.n()).max(20),
        threads: params.threads,
        ..params.tabu.clone()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let coarse = tabu.search(coarse_table, coarse_sizes, &mut rng);

    let mut stats = MultilevelStats {
        levels: hierarchy.levels.len(),
        coarse_n: coarse_table.n(),
        refine_moves: 0,
    };
    let mut evaluations = coarse.evaluations;

    if hierarchy.levels.is_empty() {
        return (coarse, stats);
    }

    let (partition, fg) = uncoarsen(
        table,
        &hierarchy,
        coarse.partition,
        params,
        &mut stats,
        &mut evaluations,
    );
    metrics.refine_moves.add(stats.refine_moves);
    (
        SearchResult {
            partition,
            fg,
            evaluations,
        },
        stats,
    )
}

/// Project the coarsest mapping back to the finest level, refining at
/// each step.
fn uncoarsen(
    finest: &DistanceTable,
    hierarchy: &Hierarchy,
    coarsest: Partition,
    params: &MultilevelParams,
    stats: &mut MultilevelStats,
    evaluations: &mut u64,
) -> (Partition, f64) {
    let mut current = coarsest;
    let mut fg = 0.0;
    for k in (0..hierarchy.levels.len()).rev() {
        let level = &hierarchy.levels[k];
        let fine_table = if k == 0 {
            finest
        } else {
            &hierarchy.levels[k - 1].table
        };
        let assign: Vec<usize> = level.map.iter().map(|&c| current.cluster_of(c)).collect();
        let projected =
            Partition::new(assign, current.num_clusters()).expect("projection preserves validity");
        let refined = refine_level(fine_table, projected, params, stats, evaluations);
        current = refined.0;
        fg = refined.1;
    }
    (current, fg)
}

/// Bounded-neighborhood refinement at one level: repeated frozen-scan /
/// serial-apply rounds over each vertex's nearest-neighbor candidates.
fn refine_level(
    table: &DistanceTable,
    partition: Partition,
    params: &MultilevelParams,
    stats: &mut MultilevelStats,
    evaluations: &mut u64,
) -> (Partition, f64) {
    let n = table.n();
    let k = params.refine_candidates.min(n.saturating_sub(1));
    let candidates = nearest_candidates(table, k, params.threads);
    let mut eval = SwapEvaluator::new(partition, table);
    let mut active = vec![true; n];
    for _ in 0..params.refine_rounds {
        let verts: Vec<usize> = (0..n).filter(|&v| active[v]).collect();
        if verts.is_empty() {
            break;
        }
        // Frozen scan: pure reads of the shared evaluator; run_indexed
        // merges the per-vertex results in index order, so the proposal
        // list is independent of the thread count.
        let proposals: Vec<(u64, Option<Proposal>)> = {
            let eval_ref = &eval;
            let cand_ref = &candidates;
            let verts_ref = &verts;
            crate::pool::run_indexed(verts.len(), params.threads, move |idx| {
                let v = verts_ref[idx];
                let mut scanned = 0u64;
                let mut best: Option<Proposal> = None;
                for &u in &cand_ref[v] {
                    if eval_ref.partition().cluster_of(v) == eval_ref.partition().cluster_of(u) {
                        continue;
                    }
                    let d = eval_ref.delta_fg(v, u);
                    scanned += 1;
                    if d < -EPS && best.is_none_or(|(bd, _, _)| d < bd) {
                        best = Some((d, v, u));
                    }
                }
                (scanned, best)
            })
        };
        // Serial apply in ascending vertex order, re-checking each delta
        // against the state the earlier applies produced.
        let mut moved = vec![false; n];
        let mut applied = 0u64;
        for (scanned, proposal) in proposals {
            *evaluations += scanned;
            let Some((_, v, u)) = proposal else { continue };
            if eval.partition().cluster_of(v) == eval.partition().cluster_of(u) {
                continue;
            }
            let d = eval.delta_fg(v, u);
            *evaluations += 1;
            if d < -EPS {
                eval.apply_swap(v, u);
                moved[v] = true;
                moved[u] = true;
                applied += 1;
            }
        }
        stats.refine_moves += applied;
        if applied == 0 {
            break;
        }
        // Next round only revisits vertices whose neighborhood changed.
        for v in 0..n {
            active[v] = moved[v] || candidates[v].iter().any(|&u| moved[u]);
        }
    }
    let fg = eval.fg();
    (eval.into_partition(), fg)
}

/// For each vertex, its `k` nearest other vertices by table distance
/// (ties toward the lower index). Computed in parallel; deterministic.
fn nearest_candidates(table: &DistanceTable, k: usize, threads: usize) -> Vec<Vec<usize>> {
    let n = table.n();
    crate::pool::run_indexed(n, threads, move |v| {
        let row = table.row(v);
        let mut order: Vec<usize> = (0..n).filter(|&u| u != v).collect();
        if k < order.len() {
            order.select_nth_unstable_by(k, |&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
            order.truncate(k);
        }
        order.sort_unstable_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
        order
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dumbbell_table, dumbbell_truth, rings_table};

    fn small_params(max_coarse_n: usize, threads: usize) -> MultilevelParams {
        MultilevelParams {
            max_coarse_n,
            threads,
            ..MultilevelParams::default()
        }
    }

    #[test]
    fn recovers_dumbbell_optimum_through_the_hierarchy() {
        let table = dumbbell_table();
        // max_coarse_n = 2 forces two contraction levels on 8 nodes.
        let (result, stats) = multilevel_map(&table, &[4, 4], 42, &small_params(2, 1));
        assert_eq!(stats.levels, 2);
        assert_eq!(stats.coarse_n, 2);
        assert!(
            result.partition.same_grouping(&dumbbell_truth()),
            "got {} (fg {})",
            result.partition,
            result.fg
        );
    }

    #[test]
    fn matches_flat_tabu_on_paper_topology() {
        let table = rings_table();
        let sizes = [6, 6, 6, 6];
        let flat = TabuSearch::new(TabuParams::scaled(24)).search(
            &table,
            &sizes,
            &mut StdRng::seed_from_u64(42),
        );
        // max_coarse_n = 12 forces one contraction (sizes go odd after).
        let (ml, stats) = multilevel_map(&table, &sizes, 42, &small_params(12, 0));
        assert_eq!(stats.levels, 1);
        assert!(
            ml.fg <= flat.fg * 1.05 + EPS,
            "multilevel {} vs flat {}",
            ml.fg,
            flat.fg
        );
    }

    #[test]
    fn falls_back_to_flat_search_when_nothing_to_coarsen() {
        let table = rings_table();
        let sizes = [6, 6, 6, 6];
        let (ml, stats) = multilevel_map(&table, &sizes, 42, &small_params(256, 1));
        assert_eq!(stats.levels, 0);
        assert_eq!(stats.coarse_n, 24);
        assert_eq!(stats.refine_moves, 0);
        let flat = TabuSearch::new(TabuParams {
            max_iterations: 72,
            ..TabuParams::default()
        })
        .search(&table, &sizes, &mut StdRng::seed_from_u64(42));
        assert_eq!(ml.partition, flat.partition);
        assert_eq!(ml.fg, flat.fg);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let table = dumbbell_table();
        let baseline = multilevel_map(&table, &[4, 4], 7, &small_params(4, 1));
        for threads in [2, 3, 7] {
            let run = multilevel_map(&table, &[4, 4], 7, &small_params(4, threads));
            assert_eq!(run.0.partition, baseline.0.partition, "threads={threads}");
            assert_eq!(run.0.fg.to_bits(), baseline.0.fg.to_bits());
            assert_eq!(run.1, baseline.1);
        }
    }

    #[test]
    fn strategy_parses_and_displays() {
        assert_eq!("flat".parse::<MapStrategy>().unwrap(), MapStrategy::Flat);
        assert_eq!(
            "multilevel".parse::<MapStrategy>().unwrap(),
            MapStrategy::Multilevel
        );
        assert!("greedy".parse::<MapStrategy>().is_err());
        assert_eq!(MapStrategy::Flat.to_string(), "flat");
        assert_eq!(MapStrategy::Multilevel.to_string(), "multilevel");
        assert_eq!(MapStrategy::default(), MapStrategy::Flat);
    }

    #[test]
    fn candidate_lists_are_nearest_neighbors() {
        let table = dumbbell_table();
        let cands = nearest_candidates(&table, 3, 1);
        assert_eq!(cands.len(), 8);
        for (v, list) in cands.iter().enumerate() {
            assert_eq!(list.len(), 3);
            assert!(!list.contains(&v));
            // Within the same square: its 3 square-mates are nearer than
            // anything across the bridge (except node 3/4 adjacency, so
            // just check sortedness by distance).
            for w in list.windows(2) {
                assert!(table.get(v, w[0]) <= table.get(v, w[1]) + EPS);
            }
        }
    }
}
