//! Integration gates for the multilevel pipeline at paper-plus scale:
//! quality within 5% of the flat tabu search on instances the flat
//! search can still handle, bit-identical results across thread counts,
//! and genuine coarsening on every tested size.

use commsched_core::quality;
use commsched_distance::{equivalent_distance_table_with, DistanceTable, TableOptions};
use commsched_routing::UpDownRouting;
use commsched_search::{multilevel_map, Mapper, MultilevelParams, TabuParams, TabuSearch};
use commsched_topology::{random_regular, RandomTopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn table_for(seed: u64, n: usize) -> DistanceTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    let options = TableOptions {
        threads: 0,
        ..TableOptions::default()
    };
    equivalent_distance_table_with(&topo, &routing, options).unwrap()
}

fn balanced_sizes(n: usize, clusters: usize) -> Vec<usize> {
    vec![n / clusters; clusters]
}

#[test]
fn multilevel_within_5_percent_of_flat_tabu() {
    for (n, topo_seed) in [(64usize, 9_064u64), (128, 9_128)] {
        let table = table_for(topo_seed, n);
        let sizes = balanced_sizes(n, 4);

        let mut rng = StdRng::seed_from_u64(42);
        let flat = TabuSearch::new(TabuParams::scaled(n)).search(&table, &sizes, &mut rng);

        let params = MultilevelParams {
            max_coarse_n: 32,
            ..MultilevelParams::default()
        };
        let (ml, stats) = multilevel_map(&table, &sizes, 42, &params);
        assert!(stats.levels >= 1, "N={n}: no coarsening happened");
        let ml_fg = quality(&ml.partition, &table).fg;
        eprintln!(
            "N={n}: flat {:.6} multilevel {:.6} ratio {:.4} ({} levels, {} moves)",
            flat.fg,
            ml_fg,
            ml_fg / flat.fg,
            stats.levels,
            stats.refine_moves
        );
        assert!(
            ml_fg <= flat.fg * 1.05 + 1e-12,
            "N={n}: multilevel F_G {ml_fg:.6} more than 5% above flat {:.6}",
            flat.fg
        );
    }
}

#[test]
fn multilevel_bit_identical_across_threads() {
    let n = 128;
    let table = table_for(9_128, n);
    let sizes = balanced_sizes(n, 4);
    let base = MultilevelParams {
        max_coarse_n: 32,
        threads: 1,
        ..MultilevelParams::default()
    };
    let (one, stats_one) = multilevel_map(&table, &sizes, 7, &base);
    for threads in [2usize, 7] {
        let params = MultilevelParams {
            threads,
            ..base.clone()
        };
        let (t, stats_t) = multilevel_map(&table, &sizes, 7, &params);
        assert_eq!(one.partition, t.partition, "threads={threads}");
        assert_eq!(one.fg.to_bits(), t.fg.to_bits(), "threads={threads}");
        assert_eq!(stats_one, stats_t, "threads={threads}");
    }
}
