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
    /// Candidates in the cluster pairs it took a bound pass of.
    bounded: u64,
    /// Tabu entries live before it.
    live_tabu: usize,
}

thread_local! {
    /// Every scan this thread ran (`threads: 1` runs the restarts
    /// inline, on the test's thread).
    static SCANS: RefCell<Vec<Scan>> = const { RefCell::new(Vec::new()) };
    /// Candidates in the pairs the running scan has rescanned so far.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Candidates in the pairs the running scan has bounded so far.
    static BOUNDED: Cell<u64> = const { Cell::new(0) };
}

pub(super) fn note_bounds(clusters: &Partition, r: usize, s: usize) {
    let sizes = clusters.sizes();
    BOUNDED.with(|b| b.set(b.get() + (sizes[r] * sizes[s]) as u64));
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
        bounded: BOUNDED.with(|b| b.replace(0)),
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
    BOUNDED.with(|b| b.set(0));
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
            bounded,
            live_tabu,
        } = *scan;
        assert!(scored <= blocks, "{scan:?}");
        if iteration == 0 {
            assert_eq!(
                bounded, all_pairs,
                "a restart's first scan bounds every pair"
            );
            assert!(blocks <= bounded, "{scan:?}");
        } else {
            // Rule (i) drops the 2M − 3 pairs of the two touched
            // clusters, rule (ii) one per entry that expires; only the
            // first kind needs a new bound pass.
            assert!(
                bounded <= (2 * m - 3 + live_tabu as u64) * s * s,
                "iteration {iteration}: {bounded} in bounded pairs with {live_tabu} tabu entries live"
            );
            assert_eq!(bounded, (2 * m - 3) * s * s, "{scan:?}");
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
    // The limits are the counts this scan reads (11.6 % and 25.7 %) with
    // about a third more for slack. A pair is scanned only when its floor
    // can beat the allowed best already known, so the rows of a scanned
    // pair are likely to hold candidates near it.
    //
    // The coarse level of a `large_cold` job: 160 nodes, 8 clusters
    // of 20, the budget `multilevel_map` gives it.
    let fine = random_table(320);
    let hierarchy = crate::coarsen::build_hierarchy(&fine, &[40; 8], 256);
    let (coarse, sizes) = hierarchy.coarsest().expect("320 nodes coarsen once");
    assert_eq!((coarse.n(), sizes), (160, &[20; 8][..]));
    let (scored, blocks) = scored_of_blocks(coarse, sizes, 320);
    assert!(
        scored * 100 <= 15 * blocks,
        "coarse 160 x 8: {scored} of {blocks} scored"
    );
    // The `large_warm` shape.
    let (scored, blocks) = scored_of_blocks(&random_table(96), &[12; 8], 96);
    assert!(
        scored * 100 <= 33 * blocks,
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
fn zero_seeds_panics_up_front() {
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
fn tabu_map_convenience() {
    let table = dumbbell_table();
    let res = tabu_map(&table, &[4, 4], 42);
    assert!(res.partition.same_grouping(&dumbbell_truth()));
    assert!(res.evaluations > 0);
}
