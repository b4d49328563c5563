//! Quick probe of the A* search cost on both testbeds (not a paper figure;
//! kept as a diagnostic for the heuristic-comparison ablation).
fn main() {
    use commsched_bench::{AStarSearch, Testbed};
    use commsched_search::Mapper;
    use rand::SeedableRng;
    for t in [Testbed::paper_16(), Testbed::paper_24()] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let start = std::time::Instant::now();
        let r = AStarSearch::default().search(&t.table, &t.sizes(), &mut rng);
        println!(
            "{}: F_G = {:.6}, evaluations = {}, time = {:?}",
            t.name,
            r.fg,
            r.evaluations,
            start.elapsed()
        );
    }
}
