//! Ablation studies for the design choices the paper leaves open
//! (DESIGN.md §7).
//!
//! * `tenure`  — tabu tenure `h` sweep (the paper never reports `h`);
//! * `seeds`   — number of random restarts vs. solution quality;
//! * `metric`  — equivalent-resistance table vs. plain hop-distance table;
//! * `heuristics` — tabu vs. steepest descent, simulated annealing, GA,
//!   GSA and random sampling: solution quality and evaluation counts
//!   (reproducing the §4.2 claim that tabu matched or beat costlier
//!   methods).
//!
//! Usage: `ablations [tenure|routing|simparams|seeds|metric|heuristics|all]` (default all).

use commsched_bench::{
    AStarSearch, AgglomerativeClustering, GeneticSearch, GeneticSimulatedAnnealing, KernighanLin,
    RandomSampling, SimulatedAnnealing, SteepestDescent, Testbed, SEARCH_SEED,
};
use commsched_core::{quality, Partition};
use commsched_distance::hop_distance_table;
use commsched_search::{resolve_threads, Mapper, TabuParams, TabuSearch};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ablate_tenure(testbed: &Testbed) {
    println!("# ablation: tabu tenure h (16-switch, mean F_G over 5 search seeds)");
    println!("# h    mean_F_G     best_F_G");
    for h in [0usize, 1, 2, 4, 8, 16] {
        let params = TabuParams {
            tenure: h,
            ..TabuParams::scaled(testbed.topology.num_switches())
        };
        let mut values = Vec::new();
        for s in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(SEARCH_SEED + s);
            let r =
                TabuSearch::new(params.clone()).search(&testbed.table, &testbed.sizes(), &mut rng);
            values.push(r.fg);
        }
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let best = values.iter().copied().fold(f64::INFINITY, f64::min);
        println!("  {h:<4} {mean:<12.6} {best:<12.6}");
    }
    println!();
}

fn ablate_seeds(testbed: &Testbed) {
    println!("# ablation: restart count (16-switch)");
    println!("# seeds  F_G");
    for seeds in [1usize, 2, 5, 10, 20] {
        let params = TabuParams {
            seeds,
            ..TabuParams::scaled(testbed.topology.num_switches())
        };
        let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
        let r = TabuSearch::new(params).search(&testbed.table, &testbed.sizes(), &mut rng);
        println!("  {seeds:<6} {:.6}", r.fg);
    }
    println!();
}

fn ablate_metric(testbed: &Testbed) {
    println!("# ablation: equivalent-resistance table vs plain hop table (24-switch)");
    let truth =
        Partition::from_clusters(&commsched_topology::designed::ring_of_rings_clusters(4, 6))
            .expect("valid ground truth");
    for (label, table) in [
        ("resistance", testbed.table.clone()),
        ("hops", hop_distance_table(&testbed.routing)),
    ] {
        let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
        let params = TabuParams::scaled(testbed.topology.num_switches());
        let r = TabuSearch::new(params).search(&table, &testbed.sizes(), &mut rng);
        let found_truth = r.partition.same_grouping(&truth);
        // Evaluate both results under the *resistance* table for a common
        // yardstick.
        let q = quality(&r.partition, &testbed.table);
        println!(
            "  table = {label:<11} F_G(res) = {:.6}  Cc(res) = {:.3}  rings found = {}",
            q.fg,
            q.cc,
            if found_truth { "YES" } else { "NO" }
        );
    }
    println!();
}

fn ablate_heuristics(testbed: &Testbed) {
    println!("# ablation: search heuristics (16-switch, same seed)");
    println!("# method                        F_G          Cc       evaluations");
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(TabuSearch::new(TabuParams::scaled(16))),
        Box::new(SteepestDescent::default()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(GeneticSearch::default()),
        Box::new(GeneticSimulatedAnnealing::default()),
        Box::new(RandomSampling::default()),
        Box::new(AStarSearch::default()),
        Box::new(AgglomerativeClustering),
        Box::new(KernighanLin::default()),
    ];
    for m in &mappers {
        let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
        let r = m.search(&testbed.table, &testbed.sizes(), &mut rng);
        let q = quality(&r.partition, &testbed.table);
        println!(
            "  {:<28} {:<12.6} {:<8.3} {}",
            m.name(),
            r.fg,
            q.cc,
            r.evaluations
        );
    }
    println!();
}

fn ablate_routing(testbed: &Testbed) {
    use commsched_netsim::{simulate, SimConfig};
    println!("# ablation: routing protocol (24-switch; does the scheduling gain");
    println!("# survive better routing?)  throughput in flits/switch/cycle at 0.5 f/host/cy");
    let (op, _, _) = testbed.tabu_mapping();
    let (rnd, _) = testbed.random_mapping(1);
    let rate = 0.5;
    println!("# routing                 OP        random    OP/random");
    for (label, vcs, adaptive) in [
        ("up*/down*, 1 VC", 1usize, false),
        ("up*/down*, 3 VC", 3, false),
        ("adaptive + escape, 3 VC", 3, true),
    ] {
        let cfg = SimConfig {
            injection_rate: rate,
            virtual_channels: vcs,
            fully_adaptive: adaptive,
            ..testbed.sim_config()
        };
        let run = |p| {
            simulate(
                &testbed.topology,
                &testbed.routing,
                &testbed.host_clusters(p),
                cfg,
            )
            .expect("sim")
            .accepted_flits_per_switch_cycle
        };
        let a = run(&op);
        let b = run(&rnd);
        println!("  {label:<24} {a:<9.4} {b:<9.4} {:.2}x", a / b);
    }
    println!();
}

fn ablate_sim_params(testbed: &Testbed) {
    use commsched_netsim::{simulate, SimConfig};
    println!("# ablation: simulator parameters (24-switch OP mapping, 0.5 f/host/cy)");
    let (op, _, _) = testbed.tabu_mapping();
    let clusters = testbed.host_clusters(&op);
    println!("# msg_len  buffer  accepted(f/sw/cy)  latency(cy)");
    for msg_len in [8usize, 16, 32] {
        for buffer in [2usize, 4, 8] {
            let cfg = SimConfig {
                injection_rate: 0.5,
                msg_len,
                buffer_flits: buffer,
                ..testbed.sim_config()
            };
            let s = simulate(&testbed.topology, &testbed.routing, &clusters, cfg).expect("sim");
            println!(
                "  {msg_len:<8} {buffer:<7} {:<18.4} {}",
                s.accepted_flits_per_switch_cycle,
                s.network_latency()
                    .map_or_else(|| "-".to_string(), |l| format!("{l:.1}"))
            );
        }
    }
    println!();
}

fn ablate_root(testbed: &Testbed) {
    use commsched_distance::{equivalent_distance_table_with, TableOptions};
    use commsched_netsim::simulate;
    use commsched_routing::UpDownRouting;
    println!("# ablation: up*/down* root choice (16-switch random network)");
    println!("# the root skews both the distance table and the traffic concentration");
    println!("# root  degree  OP_F_G      accepted(f/sw/cy at 0.5 f/host/cy)");
    let options = TableOptions {
        threads: resolve_threads(0),
        ..Default::default()
    };
    for root in [0usize, 5, 10, 15] {
        let routing = UpDownRouting::new(&testbed.topology, root).expect("connected testbed");
        let table =
            equivalent_distance_table_with(&testbed.topology, &routing, options).expect("routable");
        let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
        let res =
            TabuSearch::new(TabuParams::scaled(16)).search(&table, &testbed.sizes(), &mut rng);
        // Simulate the mapping under ITS routing.
        let clusters = testbed.host_clusters(&res.partition);
        let cfg = commsched_netsim::SimConfig {
            injection_rate: 0.5,
            ..testbed.sim_config()
        };
        let stats = simulate(&testbed.topology, &routing, &clusters, cfg).expect("sim");
        println!(
            "  {root:<5} {:<7} {:<11.6} {:.4}",
            testbed.topology.degree(root),
            res.fg,
            stats.accepted_flits_per_switch_cycle
        );
    }
    println!();
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let t16 = Testbed::paper_16();
    let t24 = Testbed::paper_24();
    if which == "tenure" || which == "all" {
        ablate_tenure(&t16);
    }
    if which == "seeds" || which == "all" {
        ablate_seeds(&t16);
    }
    if which == "metric" || which == "all" {
        ablate_metric(&t24);
    }
    if which == "heuristics" || which == "all" {
        ablate_heuristics(&t16);
    }
    if which == "routing" || which == "all" {
        ablate_routing(&t24);
    }
    if which == "simparams" || which == "all" {
        ablate_sim_params(&t24);
    }
    if which == "root" || which == "all" {
        ablate_root(&t16);
    }
}
