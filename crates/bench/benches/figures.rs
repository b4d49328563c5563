//! One criterion benchmark per paper figure: each measures the end-to-end
//! regeneration of that figure's data at a reduced simulation budget (the
//! `fig*` binaries produce the full-budget numbers; these benches track the
//! cost of each experiment and guard against performance regressions in the
//! pipeline).

use commsched_bench::stats::pearson;
use commsched_bench::Testbed;
use commsched_core::Partition;
use commsched_netsim::{sweep, SimConfig};
use commsched_search::{TabuParams, TabuSearch};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn quick_sim(testbed: &Testbed) -> SimConfig {
    SimConfig {
        warmup_cycles: 500,
        measure_cycles: 1_500,
        ..testbed.sim_config()
    }
}

fn reduced_rates() -> Vec<f64> {
    vec![0.05, 0.15, 0.3]
}

fn fig1_tabu_trace(c: &mut Criterion) {
    let t = Testbed::paper_16();
    c.bench_function("fig1_tabu_trace_16sw", |b| {
        let params = TabuParams::scaled(16);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(42);
            TabuSearch::new(params.clone()).search_traced(&t.table, &t.sizes(), &mut rng)
        })
    });
}

fn fig2_partition_16(c: &mut Criterion) {
    let t = Testbed::paper_16();
    c.bench_function("fig2_partition_16sw", |b| {
        b.iter(|| black_box(t.tabu_mapping()))
    });
}

fn fig3_sweep_16(c: &mut Criterion) {
    let t = Testbed::paper_16();
    let (op, _, _) = t.tabu_mapping();
    let clusters = t.host_clusters(&op);
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("sweep_16sw_reduced", |b| {
        b.iter(|| {
            sweep(
                &t.topology,
                &t.routing,
                &clusters,
                quick_sim(&t),
                &reduced_rates(),
                1,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn fig4_partition_24(c: &mut Criterion) {
    let t = Testbed::paper_24();
    c.bench_function("fig4_partition_24sw", |b| {
        b.iter(|| black_box(t.tabu_mapping()))
    });
}

fn fig5_sweep_24(c: &mut Criterion) {
    let t = Testbed::paper_24();
    let (op, _, _) = t.tabu_mapping();
    let clusters = t.host_clusters(&op);
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("sweep_24sw_reduced", |b| {
        b.iter(|| {
            sweep(
                &t.topology,
                &t.routing,
                &clusters,
                quick_sim(&t),
                &reduced_rates(),
                1,
            )
            .unwrap()
        })
    });
    g.finish();
}

fn fig6_correlation(c: &mut Criterion) {
    let t = Testbed::paper_16();
    let (op, q_op, _) = t.tabu_mapping();
    // Precompute three mappings' sweeps once; benchmark the correlation
    // post-processing plus one fresh sweep (the marginal cost per mapping).
    let mut partitions: Vec<(Partition, f64)> = vec![(op, q_op.cc)];
    for i in 1..=2 {
        let (p, q) = t.random_mapping(i);
        partitions.push((p, q.cc));
    }
    let rates = reduced_rates();
    let sweeps: Vec<_> = partitions
        .iter()
        .map(|(p, _)| {
            sweep(
                &t.topology,
                &t.routing,
                &t.host_clusters(p),
                quick_sim(&t),
                &rates,
                1,
            )
            .unwrap()
        })
        .collect();
    let ccs: Vec<f64> = partitions.iter().map(|&(_, cc)| cc).collect();
    c.bench_function("fig6_correlation_postprocess", |b| {
        b.iter(|| {
            let mut rs = Vec::new();
            for k in 0..rates.len() {
                let perf: Vec<f64> = sweeps
                    .iter()
                    .map(|s| s.points[k].stats.accepted_flits_per_switch_cycle)
                    .collect();
                rs.push(pearson(black_box(&ccs), &perf));
            }
            rs
        })
    });
}

criterion_group!(
    figures,
    fig1_tabu_trace,
    fig2_partition_16,
    fig3_sweep_16,
    fig4_partition_24,
    fig5_sweep_24,
    fig6_correlation
);
criterion_main!(figures);
