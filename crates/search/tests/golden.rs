//! Golden trajectories of fixed-seed searches: the refactoring oracle for
//! the tabu scan. Every case hashes (FNV-1a 64) a text holding every
//! [`TraceEvent`] of the run (`iteration`, `seed`, `fg.to_bits()`,
//! `is_seed_start`), the final assignment and the final `fg.to_bits()` —
//! so one swap chosen differently at any iteration of any restart, or one
//! bit of one `F_G`, shows up as a mismatch. A trajectory does *not*
//! hash `evaluations`: it counts the candidates a scan scores, which a
//! faster scan changes by design.
//!
//! The table was recorded on the brute-force double loop of PR 19's
//! `run_seed` (EXPERIMENTS.md "PR 20" has the parent commit), before the
//! block scan, the cluster-pair memo and the live-entry tabu list
//! replaced it; the next four lines were recorded on that memoised block
//! scan, before it could skip a row. `random40-unequal` and
//! `random96-unequal` were recorded on the pair-skipping scan, while the
//! search still took per-cluster traffic weights, to keep the unequal
//! shapes the weighted lines had covered. The last three run
//! [`map_partition`] as the daemon does, under one and two threads; the
//! flat ones also hash the winning seed. They were recorded while a flat
//! plan still nested its restarts' pools inside its seeds' pool, the two
//! flat ones again without `evaluations` on the row-skipping scan (where
//! `flat96_candidates_scored` pins what that scan scored). Regenerate a
//! line only when the search is *meant* to take a different trajectory.
//! In a debug build every iteration of every case also runs the lockstep
//! reference inside `run_seed`; `ci.sh` runs this file in release too,
//! where the digests are the only check.

use commsched_distance::{equivalent_distance_table, DistanceTable};
use commsched_routing::{ShortestPathRouting, UpDownRouting};
use commsched_search::{
    map_partition, MapPlan, MapStrategy, MultilevelParams, SearchResult, TabuParams, TabuSearch,
    TabuTrace,
};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, TopologyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// `(case, fnv1a-64 of its trajectory text)`.
const GOLDEN: [(&str, &str); 26] = [
    ("paper24-paper", "1ccc333e94e377e8"),
    ("paper24-scaled", "359f2c4109220574"),
    ("dumbbell-2x4", "1d0060a958b85a14"),
    ("random16x4", "2ec222bce394689d"),
    ("random40x5", "71789010d072cc66"),
    ("random64x16", "e9f2b1a6b8b307cc"),
    ("random96x8", "22f253a376fd2c28"),
    // M = 2: the memo has one slot and every swap drops it.
    ("random32x2", "12183b190273a923"),
    ("paper24-unequal-4-8-12", "0d7c7088efd1f527"),
    ("random40-unequal", "867e1fb8afe33a63"),
    ("single-cluster", "480da95e6e34fbe7"),
    // Escapes that go on long after the first: tabu entries expire in
    // cluster pairs the last swap did not touch.
    ("random40x5-tenure0", "57b737bffd1d2758"),
    ("random40x5-tenure4", "eaa2ccee0ede4f5d"),
    ("random40x5-tenure12", "a582253903595a63"),
    ("random64x16-tenure4", "0b13ff8db9cd393e"),
    ("random64x16-tenure12", "8fde5392ffce65a8"),
    // Equal by construction: the restarts merge in seed order.
    ("random40x5-threads1", "0d2ca78683b0edc8"),
    ("random40x5-threads2", "0d2ca78683b0edc8"),
    ("multilevel-128-coarse32", "7ced083c342e6208"),
    // The shapes where most rows of a block scan cannot hold its best:
    // a `large_cold` job, its coarse level, the `scaling` binary's four
    // clusters, and large unequal clusters.
    ("multilevel-320x8", "22f37bffa6ac0051"),
    ("random160x8", "240a72822ebe3f69"),
    ("random128x4", "28947bfd35546c9b"),
    ("random96-unequal", "46cc8ec4a7eb54df"),
    // Equal by construction: a plan's thread budget decides how wide its
    // pools are, never what they compute.
    ("multilevel-320x8-threads2", "22f37bffa6ac0051"),
    ("flat96x8-seeds4-threads1", "ad80e28ffbbf832e"),
    ("flat96x8-seeds4-threads2", "ad80e28ffbbf832e"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare each `(case, text)` with its table line; report every
/// mismatch of the batch at once (that is also how the table is
/// recorded).
fn check_all(runs: &[(&str, String)]) {
    let mut moved = String::new();
    for (case, text) in runs {
        let want = GOLDEN
            .iter()
            .find(|(name, _)| name == case)
            .unwrap_or_else(|| panic!("{case} has no line in GOLDEN"))
            .1;
        let got = format!("{:016x}", fnv1a(text.as_bytes()));
        if got != want {
            let lines = text.lines().count();
            let tail = text.lines().last().unwrap_or_default();
            writeln!(
                moved,
                "(\"{case}\", \"{got}\"), // recorded {want}; {lines} lines, ends: {tail}"
            )
            .unwrap();
        }
    }
    assert!(moved.is_empty(), "trajectories moved:\n{moved}");
}

/// The text a tabu run is hashed as.
fn trajectory(res: &SearchResult, trace: &TabuTrace) -> String {
    let mut text = String::new();
    for e in &trace.events {
        writeln!(
            text,
            "{} {} {:016x} {}",
            e.iteration,
            e.seed,
            e.fg.to_bits(),
            e.is_seed_start
        )
        .unwrap();
    }
    writeln!(
        text,
        "{:?} {:016x}",
        res.partition.assignment(),
        res.fg.to_bits()
    )
    .unwrap();
    text
}

fn run(table: &DistanceTable, sizes: &[usize], params: TabuParams, rng_seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let (res, trace) = TabuSearch::new(params).search_traced(table, sizes, &mut rng);
    trajectory(&res, &trace)
}

/// One worker thread unless a case says otherwise.
fn serial(params: TabuParams) -> TabuParams {
    TabuParams {
        threads: 1,
        ..params
    }
}

fn paper24() -> DistanceTable {
    let topo = designed::paper_24_switch();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    equivalent_distance_table(&topo, &routing).unwrap()
}

/// Two 4-cycles joined by one link.
fn dumbbell() -> DistanceTable {
    let topo = TopologyBuilder::new(8, 1)
        .links([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (3, 4),
        ])
        .build()
        .unwrap();
    let routing = ShortestPathRouting::new(&topo).unwrap();
    equivalent_distance_table(&topo, &routing).unwrap()
}

/// The §5.1 class: `n` switches of degree three under up*/down* routing.
fn random_table(n: usize) -> DistanceTable {
    let mut rng = StdRng::seed_from_u64(9_000 + n as u64);
    let topo = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
    let routing = UpDownRouting::new(&topo, 0).unwrap();
    equivalent_distance_table(&topo, &routing).unwrap()
}

#[test]
fn designed_networks() {
    let rings = paper24();
    let sizes = [6, 6, 6, 6];
    check_all(&[
        (
            "paper24-paper",
            run(&rings, &sizes, serial(TabuParams::paper()), 2),
        ),
        (
            "paper24-scaled",
            run(&rings, &sizes, serial(TabuParams::scaled(24)), 42),
        ),
        (
            "dumbbell-2x4",
            run(&dumbbell(), &[4, 4], serial(TabuParams::paper()), 1),
        ),
        (
            "single-cluster",
            run(&dumbbell(), &[8], serial(TabuParams::paper()), 1),
        ),
    ]);
}

#[test]
fn random_networks_balanced() {
    let runs: Vec<(&str, String)> = [
        ("random16x4", 16usize, 4usize),
        ("random40x5", 40, 5),
        ("random64x16", 64, 16),
        ("random96x8", 96, 8),
        ("random32x2", 32, 2),
    ]
    .into_iter()
    .map(|(case, n, m)| {
        let text = run(
            &random_table(n),
            &vec![n / m; m],
            serial(TabuParams::scaled(n)),
            n as u64,
        );
        (case, text)
    })
    .collect();
    check_all(&runs);
}

#[test]
fn unequal_sizes() {
    let rings = paper24();
    check_all(&[
        (
            "paper24-unequal-4-8-12",
            run(&rings, &[4, 8, 12], serial(TabuParams::scaled(24)), 5),
        ),
        (
            "random40-unequal",
            run(
                &random_table(40),
                &[4, 6, 8, 10, 12],
                serial(TabuParams::scaled(40)),
                11,
            ),
        ),
    ]);
}

/// A seed that never stops on a repeated minimum: it escapes, descends
/// and escapes again until the budget ends, so the tabu list fills to
/// its tenure and entries expire iterations after their swap.
fn long_escapes(tenure: usize) -> TabuParams {
    TabuParams {
        seeds: 3,
        max_iterations: 80,
        local_min_repeats: usize::MAX,
        tenure,
        threads: 1,
    }
}

#[test]
fn tenures_with_entries_expiring_late() {
    let t40 = random_table(40);
    let t64 = random_table(64);
    let s40 = [8; 5];
    let s64 = [4; 16];
    check_all(&[
        ("random40x5-tenure0", run(&t40, &s40, long_escapes(0), 40)),
        ("random40x5-tenure4", run(&t40, &s40, long_escapes(4), 40)),
        ("random40x5-tenure12", run(&t40, &s40, long_escapes(12), 40)),
        ("random64x16-tenure4", run(&t64, &s64, long_escapes(4), 64)),
        (
            "random64x16-tenure12",
            run(&t64, &s64, long_escapes(12), 64),
        ),
    ]);
}

#[test]
fn thread_counts() {
    let table = random_table(40);
    let with_threads = |threads| {
        let params = TabuParams {
            threads,
            ..TabuParams::paper()
        };
        run(&table, &[8; 5], params, 17)
    };
    check_all(&[
        ("random40x5-threads1", with_threads(1)),
        ("random40x5-threads2", with_threads(2)),
    ]);
}

/// The plan a daemon job of `strategy` runs under `threads`; a flat
/// plan runs `seeds` independent tabu searches.
fn plan(strategy: MapStrategy, n: usize, seeds: usize, threads: usize) -> MapPlan {
    MapPlan {
        strategy,
        tabu: TabuParams::scaled(n),
        seeds,
        threads,
        max_coarse_n: MultilevelParams::default().max_coarse_n,
    }
}

/// The text a multilevel run is hashed as.
fn multilevel(
    table: &DistanceTable,
    sizes: &[usize],
    seed: u64,
    max_coarse_n: usize,
    threads: usize,
) -> String {
    let plan = MapPlan {
        max_coarse_n,
        ..plan(MapStrategy::Multilevel, table.n(), 1, threads)
    };
    let (_, res, stats) = map_partition(table, sizes, seed, &plan);
    format!(
        "{:?}\n{:?} {:016x}\n",
        stats.expect("a multilevel plan reports its statistics"),
        res.partition.assignment(),
        res.fg.to_bits()
    )
}

/// The text a flat multi-seed run is hashed as: the winning seed, the
/// partition and its `F_G` bits.
fn flat(table: &DistanceTable, sizes: &[usize], seed: u64, plan: &MapPlan) -> String {
    let (winner, res, _) = map_partition(table, sizes, seed, plan);
    format!(
        "{winner}\n{:?} {:016x}\n",
        res.partition.assignment(),
        res.fg.to_bits()
    )
}

/// Candidates the winning seed of the flat 96 × 8 plan scored on the
/// scan that skips rows but rescans every dropped cluster pair.
const FLAT96_ROW_SKIP_EVALUATIONS: u64 = 280_296;

#[test]
fn flat96_candidates_scored() {
    let t96 = random_table(96);
    let (winner, res, _) = map_partition(&t96, &[12; 8], 96, &plan(MapStrategy::Flat, 96, 4, 1));
    assert_eq!((winner, res.fg.to_bits()), (99, 0x3fcc_9c5f_3524_851e));
    // A dropped pair whose floor cannot beat the allowed best already
    // known is not scanned at all: 104 424 candidates when this was written.
    assert!(
        res.evaluations * 100 <= 45 * FLAT96_ROW_SKIP_EVALUATIONS,
        "{} candidates scored, {FLAT96_ROW_SKIP_EVALUATIONS} on the row-skipping scan",
        res.evaluations
    );
}

#[test]
fn multilevel_pipeline() {
    check_all(&[(
        "multilevel-128-coarse32",
        multilevel(&random_table(128), &[32; 4], 42, 32, 1),
    )]);
}

#[test]
fn thread_budgets() {
    let t96 = random_table(96);
    let flat96 = |threads| flat(&t96, &[12; 8], 96, &plan(MapStrategy::Flat, 96, 4, threads));
    check_all(&[
        ("flat96x8-seeds4-threads1", flat96(1)),
        ("flat96x8-seeds4-threads2", flat96(2)),
        (
            "multilevel-320x8-threads2",
            multilevel(
                &random_table(320),
                &[40; 8],
                320,
                MultilevelParams::default().max_coarse_n,
                2,
            ),
        ),
    ]);
}

#[test]
fn large_blocks() {
    let default_coarse_n = MultilevelParams::default().max_coarse_n;
    check_all(&[
        // A `large_cold` job: its coarse level is 160 nodes in 8 clusters.
        (
            "multilevel-320x8",
            multilevel(&random_table(320), &[40; 8], 320, default_coarse_n, 1),
        ),
        (
            "random160x8",
            run(
                &random_table(160),
                &[20; 8],
                serial(TabuParams::scaled(160)),
                160,
            ),
        ),
        (
            "random128x4",
            run(
                &random_table(128),
                &[32; 4],
                serial(TabuParams::scaled(128)),
                128,
            ),
        ),
        (
            "random96-unequal",
            run(
                &random_table(96),
                &[8, 24, 40, 24],
                serial(TabuParams::scaled(96)),
                97,
            ),
        ),
    ]);
}
