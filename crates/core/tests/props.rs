//! Property tests for the merged swap evaluator: the oracles of the
//! "one evaluator" change.

use commsched_core::{intra_square_sum, Partition, SwapEvaluator};
use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_routing::UpDownRouting;
use commsched_topology::designed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Table of the paper's designed 24-switch network.
fn rings_table() -> DistanceTable {
    let topo = designed::paper_24_switch();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    equivalent_distance_table(&topo, &routing).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over random partitions and swap sequences the evaluator is
    /// bit-identical to the pre-merge formulas (kept inline below).
    #[test]
    fn bit_exact_against_the_inline_formulas(
        seed in any::<u64>(),
        swaps in proptest::collection::vec((0usize..24, 0usize..24), 0..40),
    ) {
        let table = rings_table();
        let mut rng = StdRng::seed_from_u64(seed);
        let sizes: &[usize] = if seed & 1 == 0 { &[6, 6, 6, 6] } else { &[11, 7, 5, 1] };
        let m = sizes.len();
        let p = Partition::random(24, sizes, &mut rng).unwrap();
        let mut sums = vec![0.0; 24 * m];
        for v in 0..24 {
            for u in (0..24).filter(|&u| u != v) {
                sums[v * m + p.cluster_of(u)] += table.get_sq(v, u);
            }
        }
        let mut intra = intra_square_sum(&p, &table);
        let norm = p.intra_pairs() as f64 * table.mean_square();
        let mut unit = SwapEvaluator::new(p, &table);
        prop_assert_eq!(unit.fg().to_bits(), (intra / norm).to_bits());
        for (a, b) in swaps {
            let (ca, cb) = (unit.partition().cluster_of(a), unit.partition().cluster_of(b));
            if ca == cb {
                continue;
            }
            let s = |v: usize, c: usize| sums[v * m + c];
            let delta = s(a, cb) + s(b, ca) - s(a, ca) - s(b, cb) - 2.0 * table.get_sq(a, b);
            prop_assert_eq!(unit.delta_fg(a, b).to_bits(), (delta / norm).to_bits());
            intra += delta;
            for v in 0..24 {
                let (ta, tb) = (table.get_sq(v, a), table.get_sq(v, b));
                sums[v * m + ca] += tb - ta;
                sums[v * m + cb] += ta - tb;
            }
            unit.apply_swap(a, b);
            prop_assert_eq!(unit.fg().to_bits(), (intra / norm).to_bits());
        }
    }
}
