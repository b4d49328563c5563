//! Golden bits of the table of equivalent distances: the refactoring
//! oracle for the builder and the repair path. Every `F_G` is a sum over
//! this table, so one moved bit of `T` can move a mapping; `sparse ==
//! dense` is only a 1e-9 proptest and nothing else pins the bits.
//!
//! A *build* case hashes (FNV-1a 64) `n` and `to_bits()` of the upper
//! triangle, plus the `ApproxReport` (`eps`, `err_max` bits and both
//! counts) for the approximate solver. A *repair* case removes the first
//! link whose removal keeps the net connected, repairs the pairs whose
//! route wires changed, and hashes the repaired table's bits,
//! `pairs_recomputed`, `max_delta.to_bits()` and the single-thread
//! `RepairMemo::{hits, misses, len}` after a cold and a warm round, with
//! memoization on and off. Each case is computed for `threads ∈ {1, 2, 7}`
//! × `memoize ∈ {on, off}` and every cell must agree before the digest is
//! compared. (With several workers the *split* of a cold round into memo
//! hits and misses depends on which worker meets a wire set first; their
//! sum and the number of retained circuits do not, and are asserted.)
//!
//! The table was recorded on the untouched `table.rs` / `repair.rs` of
//! the parent commit (EXPERIMENTS.md "PR 21" names it), before the two
//! per-pair loops became one. Regenerate a line only when a table bit is
//! *meant* to move. `ci.sh` runs this file in release too: `PairSink`'s
//! unsynchronised stores and the monomorphised solver are what the
//! daemon's build runs.

use commsched_distance::{
    equivalent_distance_table_with_report, repair_distance_table, ApproxReport, DistanceTable,
    RepairMemo, SolverKind, TableOptions,
};
use commsched_routing::Routing;
use commsched_topology::{designed, SwitchId, Topology};
use std::fmt::Write;

mod nets;
use nets::{
    changed_pairs, first_survivable_fault, random_net, routed, slowdown_net,
    DENSE_AND_REPAIR_MAX_N, SOLVERS,
};

/// `(case, fnv1a-64 of its bits)`.
const GOLDEN: [(&str, &str); 76] = [
    ("paper24/updown/sparse", "1b218a6e605ff47d"),
    ("paper24/updown/sparse/repair", "33a0c68f7fad6c39"),
    ("paper24/updown/dense", "8cbd21e1dd242676"),
    ("paper24/updown/dense/repair", "6c2f6033dcd70b8d"),
    ("paper24/updown/approx", "ba012b1c173ebb00"),
    ("paper24/updown/approx/repair", "33a0c68f7fad6c39"),
    ("paper24/shortest/sparse", "aeee85002588484c"),
    ("paper24/shortest/sparse/repair", "4ffdd42a6820b331"),
    ("paper24/shortest/dense", "ec97048324d7c197"),
    ("paper24/shortest/dense/repair", "93b0c3add5e3f42e"),
    ("paper24/shortest/approx", "d011a8121bcf25a9"),
    ("paper24/shortest/approx/repair", "4ffdd42a6820b331"),
    ("ring8/updown/sparse", "4b1df2ebe659b185"),
    ("ring8/updown/sparse/repair", "4e29c71be32d74f5"),
    ("ring8/updown/dense", "e2cfaf28d31629e5"),
    ("ring8/updown/dense/repair", "32d1865d48ecb4b0"),
    ("ring8/updown/approx", "51e9542bfa01cbd5"),
    ("ring8/updown/approx/repair", "4e29c71be32d74f5"),
    ("ring8/shortest/sparse", "85b6ba469bb63f7d"),
    ("ring8/shortest/sparse/repair", "02e8840f8b889242"),
    ("ring8/shortest/dense", "a9aedfad5f895c91"),
    ("ring8/shortest/dense/repair", "efc3eeea9f609f67"),
    ("ring8/shortest/approx", "176115177199e788"),
    ("ring8/shortest/approx/repair", "02e8840f8b889242"),
    ("slowdowns12/updown/sparse", "b98dca8878212430"),
    ("slowdowns12/updown/sparse/repair", "019ccd845785820a"),
    ("slowdowns12/updown/dense", "2468111f8bfecea9"),
    ("slowdowns12/updown/dense/repair", "e47d6d2e6cbbb493"),
    ("slowdowns12/updown/approx", "59c3e764d4d82882"),
    ("slowdowns12/updown/approx/repair", "c981947607f775e2"),
    ("slowdowns12/shortest/sparse", "26f7018284bdf562"),
    ("slowdowns12/shortest/sparse/repair", "59c893b9ad06bd1e"),
    ("slowdowns12/shortest/dense", "4916165eb9d88293"),
    ("slowdowns12/shortest/dense/repair", "f3e43cc7a9893483"),
    ("slowdowns12/shortest/approx", "2fad236516d0e992"),
    ("slowdowns12/shortest/approx/repair", "f4cd20084ac6ff59"),
    ("random16/updown/sparse", "42ce9d113336a6d6"),
    ("random16/updown/sparse/repair", "a546d9c8e31097e1"),
    ("random16/updown/dense", "cd76abb7efea52d4"),
    ("random16/updown/dense/repair", "3f1b8980bf284a50"),
    ("random16/updown/approx", "b499399fa9968f45"),
    ("random16/updown/approx/repair", "a546d9c8e31097e1"),
    ("random16/shortest/sparse", "893eb06d13864d6d"),
    ("random16/shortest/sparse/repair", "9be9e7f6e017565b"),
    ("random16/shortest/dense", "6353a9aee249341d"),
    ("random16/shortest/dense/repair", "02f2bbe028abac88"),
    ("random16/shortest/approx", "25f18c44a3e6947b"),
    ("random16/shortest/approx/repair", "a5a03bede209afea"),
    ("random64/updown/sparse", "1c437bfe6be46068"),
    ("random64/updown/sparse/repair", "14c68c2649d40da3"),
    ("random64/updown/dense", "9e35e07b14c9fb22"),
    ("random64/updown/dense/repair", "2213824acb272796"),
    ("random64/updown/approx", "639881a6cbde76b6"),
    ("random64/updown/approx/repair", "d3456ac953ed2c51"),
    ("random64/shortest/sparse", "2831b59f4d4eb87a"),
    ("random64/shortest/sparse/repair", "04faf31d491db14a"),
    ("random64/shortest/dense", "79aa08436de7dc2f"),
    ("random64/shortest/dense/repair", "43195a617b816808"),
    ("random64/shortest/approx", "a719312c3bf6828e"),
    ("random64/shortest/approx/repair", "91436fa97dcf6a60"),
    ("random96/updown/sparse", "cb11a08186608019"),
    ("random96/updown/sparse/repair", "89c018cfcaa1b0df"),
    ("random96/updown/dense", "63221a256af1c72b"),
    ("random96/updown/dense/repair", "e082fc4672d931eb"),
    ("random96/updown/approx", "970b3fdae6934296"),
    ("random96/updown/approx/repair", "806d106057a14292"),
    ("random96/shortest/sparse", "6b953509d366625f"),
    ("random96/shortest/sparse/repair", "6f57c070f6f05d79"),
    ("random96/shortest/dense", "a944ba99d6958421"),
    ("random96/shortest/dense/repair", "ff5410165f78387d"),
    ("random96/shortest/approx", "358c750603714278"),
    ("random96/shortest/approx/repair", "6bcc1fe484129142"),
    ("random320/updown/sparse", "cfe8057f5e03d9b1"),
    ("random320/updown/approx", "8ad28383955d0de7"),
    ("random320/shortest/sparse", "699d92c4d247ed09"),
    ("random320/shortest/approx", "b255767764590d0b"),
];

const THREADS: [usize; 3] = [1, 2, 7];

/// FNV-1a 64 over the little-endian bytes of every word fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn table(&mut self, t: &DistanceTable) {
        self.word(t.n() as u64);
        for i in 0..t.n() {
            for &d in &t.row(i)[i + 1..] {
                self.word(d.to_bits());
            }
        }
    }

    fn report(&mut self, r: Option<ApproxReport>) {
        if let Some(r) = r {
            self.word(r.eps.to_bits());
            self.word(r.err_max.to_bits());
            self.word(r.pairs_approximated);
            self.word(r.pairs_escalated);
        }
    }
}

/// One computed case: its name, its digest and a line for a human to
/// read when the digest moved.
struct Case {
    name: String,
    digest: u64,
    summary: String,
}

/// Compare each case with its table line; report every mismatch of the
/// batch at once (that is also how the table is recorded).
fn check_all(cases: &[Case]) {
    let mut moved = String::new();
    for case in cases {
        let got = format!("{:016x}", case.digest);
        let want = GOLDEN
            .iter()
            .find(|(name, _)| *name == case.name)
            .map_or("<no line in GOLDEN>", |line| line.1);
        if got != want {
            writeln!(
                moved,
                "(\"{}\", \"{got}\"), // recorded {want}; {}",
                case.name, case.summary
            )
            .unwrap();
        }
    }
    assert!(moved.is_empty(), "table bits moved:\n{moved}");
}

fn options(solver: SolverKind, threads: usize, memoize: bool) -> TableOptions {
    TableOptions {
        solver,
        threads,
        memoize,
        ..TableOptions::approximate(0.05)
    }
}

/// Build under every thread count and memo setting; all six cells must
/// be the same table and the same report.
fn build_case(name: String, topo: &Topology, routing: &dyn Routing, solver: SolverKind) -> Case {
    let build = |threads, memoize| {
        equivalent_distance_table_with_report(topo, routing, options(solver, threads, memoize))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let (table, report) = build(1, true);
    for threads in THREADS {
        for memoize in [true, false] {
            let (t, r) = build(threads, memoize);
            assert!(
                t == table && r == report,
                "{name}: threads {threads} memoize {memoize} disagrees with the serial build"
            );
        }
    }
    let mut h = Fnv::new();
    h.table(&table);
    h.report(report);
    Case {
        digest: h.0,
        summary: format!(
            "n {} total_square {:?} max {:?} report {report:?}",
            table.n(),
            table.total_square(),
            table.max_distance()
        ),
        name,
    }
}

/// What a cold and a warm repair round left behind, on one memo.
struct RepairRounds {
    table: DistanceTable,
    pairs_recomputed: usize,
    max_delta: f64,
    /// `(hits, misses, len)` after the cold round and after the warm one.
    memo: [(u64, u64, usize); 2],
}

/// Repair `prev` (the table of the net before the fault) into the table
/// of `topo` / `routing`, under every thread count and memo setting.
fn repair_case(
    name: String,
    prev: &DistanceTable,
    topo: &Topology,
    routing: &dyn Routing,
    affected: &[(SwitchId, SwitchId)],
    solver: SolverKind,
) -> Case {
    let rounds = |threads, memoize| {
        let mut memo = RepairMemo::new();
        let mut round = || {
            let out = repair_distance_table(
                prev,
                topo,
                routing,
                affected,
                options(solver, threads, memoize),
                &mut memo,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            (out, (memo.hits(), memo.misses(), memo.len()))
        };
        let (cold, after_cold) = round();
        let (warm, after_warm) = round();
        assert!(
            warm == cold,
            "{name}: threads {threads} memoize {memoize}: the warm round disagrees with the cold one"
        );
        RepairRounds {
            table: cold.table,
            pairs_recomputed: cold.pairs_recomputed,
            max_delta: cold.max_delta,
            memo: [after_cold, after_warm],
        }
    };
    let serial = [rounds(1, true), rounds(1, false)];
    for threads in THREADS {
        for (memoize, serial) in [true, false].into_iter().zip(&serial) {
            let r = rounds(threads, memoize);
            let cell = format!("{name}: threads {threads} memoize {memoize}");
            assert!(r.table == serial.table, "{cell}: table bits");
            assert_eq!(r.pairs_recomputed, serial.pairs_recomputed, "{cell}");
            assert_eq!(r.max_delta.to_bits(), serial.max_delta.to_bits(), "{cell}");
            for (round, (got, want)) in r.memo.iter().zip(&serial.memo).enumerate() {
                assert_eq!(
                    got.0 + got.1,
                    want.0 + want.1,
                    "{cell}: round {round} lookups"
                );
                assert_eq!(got.2, want.2, "{cell}: round {round} retained circuits");
            }
            // Once the memo is warm every lookup of a retaining memo hits,
            // whichever worker makes it.
            if memoize {
                assert_eq!(r.memo[1].1, r.memo[0].1, "{cell}: a warm round missed");
            }
        }
    }
    assert!(
        serial[0].table == serial[1].table,
        "{name}: memoize changes the repaired table"
    );
    let mut h = Fnv::new();
    h.table(&serial[0].table);
    h.word(serial[0].pairs_recomputed as u64);
    h.word(serial[0].max_delta.to_bits());
    for rounds in &serial {
        for &(hits, misses, len) in &rounds.memo {
            h.word(hits);
            h.word(misses);
            h.word(len as u64);
        }
    }
    Case {
        digest: h.0,
        summary: format!(
            "recomputed {} max_delta {:?} memo on {:?} off {:?}",
            serial[0].pairs_recomputed, serial[0].max_delta, serial[0].memo, serial[1].memo
        ),
        name,
    }
}

/// Every case of one network: both routings × the three solvers, build
/// and (up to `DENSE_AND_REPAIR_MAX_N`) repair.
fn check_net(net: &str, topo: &Topology) {
    let n = topo.num_switches();
    let faulted = first_survivable_fault(topo);
    let mut cases = Vec::new();
    for ((routing_name, routing), (_, faulted_routing)) in
        routed(topo).into_iter().zip(routed(&faulted))
    {
        let affected = changed_pairs(topo, &*routing, &faulted, &*faulted_routing);
        for (solver_name, solver) in SOLVERS {
            if solver == SolverKind::DenseGaussian && n > DENSE_AND_REPAIR_MAX_N {
                continue;
            }
            let name = format!("{net}/{routing_name}/{solver_name}");
            cases.push(build_case(name.clone(), topo, &*routing, solver));
            if n <= DENSE_AND_REPAIR_MAX_N {
                let (prev, _) = equivalent_distance_table_with_report(
                    topo,
                    &*routing,
                    options(solver, 1, true),
                )
                .unwrap();
                cases.push(repair_case(
                    format!("{name}/repair"),
                    &prev,
                    &faulted,
                    &*faulted_routing,
                    &affected,
                    solver,
                ));
            }
        }
    }
    check_all(&cases);
}

#[test]
fn paper24() {
    check_net("paper24", &designed::paper_24_switch());
}

#[test]
fn ring8() {
    check_net("ring8", &designed::ring(8, 1));
}

#[test]
fn slowdowns12() {
    check_net("slowdowns12", &slowdown_net());
}

#[test]
fn random16() {
    check_net("random16", &random_net(16));
}

#[test]
fn random64() {
    check_net("random64", &random_net(64));
}

/// The `large_warm` shape.
#[test]
fn random96() {
    check_net("random96", &random_net(96));
}

/// The `large_cold` shape: builds only.
#[test]
fn random320() {
    check_net("random320", &random_net(320));
}
