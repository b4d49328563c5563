//! Scaling study: how the pipeline behaves beyond the paper's sizes.
//!
//! The paper evaluates 16–24 switches. This binary measures, for growing
//! random 3-regular networks (4 clusters):
//!
//! * the wall-clock cost of building the distance table and running the
//!   flat tabu search,
//! * the quality gap between the tabu mapping and random mappings (`Cc`
//!   ratio).
//!
//! Usage: `scaling [max_switches]` (default 64). Sizes are 16, 24, 32,
//! 48, 64 and then double (128, 256, 512, 1024, …) up to `max_switches`;
//! `scaling 1024` is the ad-hoc large-N timing recipe (flat search is
//! O(N²) per iteration: tens of seconds at N = 1024).
//!
//! The table columns time both solver variants (dense Gaussian oracle vs
//! the sparse path: row scans, degree-≤ 2 elimination and an LDLᵀ on any
//! irreducible core) and both tabu modes (serial
//! restarts vs the pooled restarts), so the speedups of the fast pipeline
//! stay visible as N grows. The dense oracle is cubic per pair and is
//! skipped (`-`) above [`DENSE_MAX_SWITCHES`]. The pooled run re-asserts
//! that the thread count does not change the result.

use commsched_bench::{Testbed, SEARCH_SEED};
use commsched_core::quality;
use commsched_distance::{equivalent_distance_table_with, SolverKind, TableOptions};
use commsched_search::{Mapper, TabuParams, TabuSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Largest network the dense-oracle column is still timed on.
const DENSE_MAX_SWITCHES: usize = 128;

fn main() {
    let max: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);

    println!("# Scaling of the scheduling pipeline (random 3-regular, 4 clusters)");
    println!(
        "# switches  dense_ms  sparse_ms  tbl_gain  tabu1_ms  tabuN_ms  evals     Cc(OP)   Cc(random)  gain"
    );
    let sizes = [16usize, 24, 32, 48]
        .into_iter()
        .chain(std::iter::successors(Some(64), |n| Some(n * 2)))
        .take_while(|&n| n <= max);
    for n in sizes {
        let testbed = Testbed::extra_random(n, 9_000 + n as u64);
        let time_table = |solver: SolverKind| {
            let options = TableOptions {
                solver,
                ..Default::default()
            };
            let t0 = Instant::now();
            equivalent_distance_table_with(&testbed.topology, &testbed.routing, options)
                .expect("table build");
            t0.elapsed().as_secs_f64() * 1e3
        };
        let dense_ms = (n <= DENSE_MAX_SWITCHES).then(|| time_table(SolverKind::DenseGaussian));
        let sparse_ms = time_table(SolverKind::default());
        let or_dash = |v: Option<f64>, digits: usize| {
            v.map_or_else(|| "-".to_string(), |x| format!("{x:.digits$}"))
        };

        let time_tabu = |threads: usize| {
            let params = TabuParams {
                threads,
                ..TabuParams::scaled(n)
            };
            let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
            let t0 = Instant::now();
            let res = TabuSearch::new(params).search(&testbed.table, &testbed.sizes(), &mut rng);
            (t0.elapsed().as_secs_f64() * 1e3, res)
        };
        let (tabu1_ms, res) = time_tabu(1);
        let (tabun_ms, res_n) = time_tabu(0);
        assert_eq!(
            res.partition, res_n.partition,
            "thread count changed result"
        );

        let q_op = quality(&res.partition, &testbed.table);
        // Mean random Cc over 5 draws.
        let mut acc = 0.0;
        for i in 0..5 {
            acc += testbed.random_mapping(i).1.cc;
        }
        let q_rand = acc / 5.0;
        println!(
            "  {n:<9} {:<9} {sparse_ms:<10.1} {:<9} {tabu1_ms:<9.1} {tabun_ms:<9.1} {:<9} {:<8.3} {q_rand:<11.3} {:.2}x",
            or_dash(dense_ms, 1),
            or_dash(dense_ms.map(|d| d / sparse_ms.max(1e-9)), 2),
            res.evaluations,
            q_op.cc,
            q_op.cc / q_rand
        );
    }
}
