//! §4.2 optimality check: "for small size networks (up to 16 switches) the
//! minimum obtained by this method was the same value F(P0) that the one
//! obtained with an exhaustive search."
//!
//! Runs tabu and exhaustive search on random 3-regular networks of 8, 12
//! and 16 switches (4 balanced clusters) and compares the minima.
//!
//! Usage: `verify_optimality [max_switches]` (default 16; the 16-switch
//! case enumerates 2 627 625 groupings — run in release).

use commsched_bench::{AStarSearch, SEARCH_SEED};
use commsched_distance::{equivalent_distance_table_with, TableOptions};
use commsched_routing::UpDownRouting;
use commsched_search::{ExhaustiveSearch, Mapper, TabuParams, TabuSearch};
use commsched_topology::{random_regular, RandomTopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);

    println!("# Tabu vs exhaustive optimum (4 balanced clusters, up*/down* routing)");
    println!("# switches  tabu_F_G     exact_F_G    astar_F_G    match  tabu_evals  astar_evals  exact_evals");
    for n in [8usize, 12, 16] {
        if n > max {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(1000 + n as u64);
        let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng)
            .expect("random testbed network");
        let routing = UpDownRouting::new(&topo, 0).expect("connected");
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        let options = TableOptions {
            threads,
            ..Default::default()
        };
        let table = equivalent_distance_table_with(&topo, &routing, options).expect("routable");
        let sizes = vec![n / 4; 4];

        let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
        let tabu = TabuSearch::new(TabuParams::scaled(n)).search(&table, &sizes, &mut rng);
        let astar = AStarSearch::default().search(&table, &sizes, &mut rng);
        let exact = ExhaustiveSearch.search(&table, &sizes, &mut rng);

        let matches = (tabu.fg - exact.fg).abs() < 1e-9 && (astar.fg - exact.fg).abs() < 1e-9;
        println!(
            "  {n:<9} {:<12.6} {:<12.6} {:<12.6} {}   {:<11} {:<12} {}",
            tabu.fg,
            exact.fg,
            astar.fg,
            if matches { "YES " } else { "NO  " },
            tabu.evaluations,
            astar.evaluations,
            exact.evaluations
        );
        assert!(
            (astar.fg - exact.fg).abs() < 1e-9,
            "A* with admissible bound must be exact"
        );
        assert!(
            tabu.fg <= exact.fg + 1e-9,
            "tabu must never beat the exact optimum"
        );
    }
}
