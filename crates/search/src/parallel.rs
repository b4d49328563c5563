//! Deterministic parallel multi-seed driver.
//!
//! The tabu search's restarts are independent, so they parallelize
//! trivially. `parallel_multi_seed` runs a mapper once per seed across a
//! thread pool and returns the best result, with a *deterministic* winner:
//! ties in `F_G` break toward the lowest seed index, so the outcome is
//! independent of thread scheduling.

use crate::{pool, Mapper, SearchResult};
use commsched_distance::DistanceTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run `mapper` once per seed `base_seed..base_seed + seeds` across
/// `threads` worker threads (the crate's work-stealing pool,
/// [`pool::run_indexed`]); return the best result and its seed.
///
/// Deterministic: the same inputs always return the same `(seed, result)`.
/// One pool level: with `threads > 1` the mapper must not start a pool of
/// its own wider than one (a [`crate::TabuSearch`] at `threads: 1`);
/// debug builds assert it. [`crate::map_partition`] runs the seeds at
/// width 1 and gives its budget to each seed's restarts instead.
///
/// # Panics
/// Panics if `seeds == 0` or a worker panics.
pub fn parallel_multi_seed<M: Mapper>(
    mapper: &M,
    table: &DistanceTable,
    sizes: &[usize],
    base_seed: u64,
    seeds: usize,
    threads: usize,
) -> (u64, SearchResult) {
    assert!(seeds > 0, "need at least one seed");
    let _span = commsched_telemetry::Span::enter("search.multi_seed");
    let all = pool::run_indexed(seeds, threads.max(1), |idx| {
        let seed = base_seed + idx as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        (seed, mapper.search(table, sizes, &mut rng))
    });
    // Deterministic winner: best F_G; run_indexed returns in seed order,
    // so strict `<` breaks ties toward the lowest seed.
    all.into_iter()
        .reduce(|best, cand| if cand.1.fg < best.1.fg { cand } else { best })
        .expect("at least one seed ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tabu::{TabuParams, TabuSearch};
    use crate::testutil::{dumbbell_table, dumbbell_truth};

    /// A mapper that starts no pool of its own.
    fn serial_tabu() -> TabuSearch {
        TabuSearch::new(TabuParams {
            threads: 1,
            ..TabuParams::default()
        })
    }

    #[test]
    fn parallel_matches_quality_of_serial() {
        let table = dumbbell_table();
        let mapper = serial_tabu();
        let (_, par) = parallel_multi_seed(&mapper, &table, &[4, 4], 100, 8, 4);
        assert!(par.partition.same_grouping(&dumbbell_truth()));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let table = dumbbell_table();
        let mapper = serial_tabu();
        let (s1, r1) = parallel_multi_seed(&mapper, &table, &[4, 4], 7, 6, 1);
        let (s2, r2) = parallel_multi_seed(&mapper, &table, &[4, 4], 7, 6, 4);
        let (s3, r3) = parallel_multi_seed(&mapper, &table, &[4, 4], 7, 6, 16);
        assert_eq!(s1, s2);
        assert_eq!(s2, s3);
        assert_eq!(r1.partition, r2.partition);
        assert_eq!(r2.partition, r3.partition);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_panics() {
        let table = dumbbell_table();
        let _ = parallel_multi_seed(&TabuSearch::default(), &table, &[4, 4], 0, 0, 2);
    }
}
