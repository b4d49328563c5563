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
//! `pairs_recomputed` and `max_delta.to_bits()`. Each case is computed
//! for `threads ∈ {1, 2, 7}` and every cell must agree before the digest
//! is compared; an exact repair must also equal a build of the faulted
//! net bit for bit, and an approximate one must on every re-solved pair.
//!
//! The build lines were recorded on the untouched `table.rs` /
//! `repair.rs` of the commit before the build's and the repair's
//! per-pair loops became one; the repair lines were re-recorded over
//! these three fields alone on the commit before the circuit memos were
//! deleted (EXPERIMENTS.md names both). Regenerate a line only when a
//! table bit is *meant* to move.
//! `ci.sh` runs this file in release too: `PairSink`'s unsynchronised
//! stores are what the daemon's build runs.

use commsched_distance::{
    equivalent_distance_table_with_report, repair_distance_table, ApproxReport, DistanceTable,
    SolverKind, TableOptions,
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
    ("paper24/updown/sparse/repair", "2d5270766301216f"),
    ("paper24/updown/dense", "8cbd21e1dd242676"),
    ("paper24/updown/dense/repair", "4fbb43c46fb5780d"),
    ("paper24/updown/approx", "ba012b1c173ebb00"),
    ("paper24/updown/approx/repair", "2d5270766301216f"),
    ("paper24/shortest/sparse", "aeee85002588484c"),
    ("paper24/shortest/sparse/repair", "fcd1ad6dc38bada1"),
    ("paper24/shortest/dense", "ec97048324d7c197"),
    ("paper24/shortest/dense/repair", "a9ba14a119fc2f2e"),
    ("paper24/shortest/approx", "d011a8121bcf25a9"),
    ("paper24/shortest/approx/repair", "fcd1ad6dc38bada1"),
    ("ring8/updown/sparse", "4b1df2ebe659b185"),
    ("ring8/updown/sparse/repair", "01edfd0fefabc575"),
    ("ring8/updown/dense", "e2cfaf28d31629e5"),
    ("ring8/updown/dense/repair", "56a221db5601acb0"),
    ("ring8/updown/approx", "51e9542bfa01cbd5"),
    ("ring8/updown/approx/repair", "01edfd0fefabc575"),
    ("ring8/shortest/sparse", "85b6ba469bb63f7d"),
    ("ring8/shortest/sparse/repair", "152a1bb7b69aaf42"),
    ("ring8/shortest/dense", "a9aedfad5f895c91"),
    ("ring8/shortest/dense/repair", "bf519f57bad0c4e7"),
    ("ring8/shortest/approx", "176115177199e788"),
    ("ring8/shortest/approx/repair", "152a1bb7b69aaf42"),
    ("slowdowns12/updown/sparse", "b98dca8878212430"),
    ("slowdowns12/updown/sparse/repair", "5d4af8e7de75f30a"),
    ("slowdowns12/updown/dense", "2468111f8bfecea9"),
    ("slowdowns12/updown/dense/repair", "dad33cc979951813"),
    ("slowdowns12/updown/approx", "59c3e764d4d82882"),
    ("slowdowns12/updown/approx/repair", "ac7d5d5e2c2c22e2"),
    ("slowdowns12/shortest/sparse", "26f7018284bdf562"),
    ("slowdowns12/shortest/sparse/repair", "2ca01569ea6a8a10"),
    ("slowdowns12/shortest/dense", "4916165eb9d88293"),
    ("slowdowns12/shortest/dense/repair", "cd0f5571ec36b003"),
    ("slowdowns12/shortest/approx", "2fad236516d0e992"),
    ("slowdowns12/shortest/approx/repair", "af86da532edc53d7"),
    ("random16/updown/sparse", "42ce9d113336a6d6"),
    ("random16/updown/sparse/repair", "4741a912b185ec77"),
    ("random16/updown/dense", "cd76abb7efea52d4"),
    ("random16/updown/dense/repair", "3b145b70f3d4d250"),
    ("random16/updown/approx", "b499399fa9968f45"),
    ("random16/updown/approx/repair", "4741a912b185ec77"),
    ("random16/shortest/sparse", "893eb06d13864d6d"),
    ("random16/shortest/sparse/repair", "dc67f1332dc6e5d3"),
    ("random16/shortest/dense", "6353a9aee249341d"),
    ("random16/shortest/dense/repair", "fed695091a7ee088"),
    ("random16/shortest/approx", "25f18c44a3e6947b"),
    ("random16/shortest/approx/repair", "0006048ccee028e2"),
    ("random64/updown/sparse", "1c437bfe6be46068"),
    ("random64/updown/sparse/repair", "7b163fe0ebe0283f"),
    ("random64/updown/dense", "9e35e07b14c9fb22"),
    ("random64/updown/dense/repair", "7a2c078ce9304696"),
    ("random64/updown/approx", "639881a6cbde76b6"),
    ("random64/updown/approx/repair", "1b9f2dc0977d4211"),
    ("random64/shortest/sparse", "2831b59f4d4eb87a"),
    ("random64/shortest/sparse/repair", "6a73fb82644440ce"),
    ("random64/shortest/dense", "79aa08436de7dc2f"),
    ("random64/shortest/dense/repair", "25331b17d25b5c08"),
    ("random64/shortest/approx", "a719312c3bf6828e"),
    ("random64/shortest/approx/repair", "a32b51e988e29464"),
    ("random96/updown/sparse", "cb11a08186608019"),
    ("random96/updown/sparse/repair", "55925ebbce59c5b9"),
    ("random96/updown/dense", "63221a256af1c72b"),
    ("random96/updown/dense/repair", "13d4956b3fc8916b"),
    ("random96/updown/approx", "970b3fdae6934296"),
    ("random96/updown/approx/repair", "1bf064088df227f4"),
    ("random96/shortest/sparse", "6b953509d366625f"),
    ("random96/shortest/sparse/repair", "4349f8d753fcaa9e"),
    ("random96/shortest/dense", "a944ba99d6958421"),
    ("random96/shortest/dense/repair", "7d0a0c94b2673cfd"),
    ("random96/shortest/approx", "358c750603714278"),
    ("random96/shortest/approx/repair", "50f274c7d9e0bb1d"),
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

fn options(solver: SolverKind, threads: usize) -> TableOptions {
    TableOptions {
        solver,
        threads,
        ..TableOptions::approximate(0.05)
    }
}

/// Build under every thread count; all three cells must be the same
/// table and the same report.
fn build_case(name: String, topo: &Topology, routing: &dyn Routing, solver: SolverKind) -> Case {
    let build = |threads| {
        equivalent_distance_table_with_report(topo, routing, options(solver, threads))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let (table, report) = build(1);
    for threads in THREADS {
        let (t, r) = build(threads);
        assert!(
            t == table && r == report,
            "{name}: threads {threads} disagrees with the serial build"
        );
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

/// Repair `prev` (the table of the net before the fault) into the table
/// of `topo` / `routing`, under every thread count, and hold the repair
/// to an exact build of `topo`: an exact repair must be that build bit
/// for bit; an approximate one (whose copied pairs may be approximate)
/// must match it on every re-solved pair, since a repair solves exactly.
fn repair_case(
    name: String,
    prev: &DistanceTable,
    topo: &Topology,
    routing: &dyn Routing,
    affected: &[(SwitchId, SwitchId)],
    solver: SolverKind,
) -> Case {
    let repair = |threads| {
        repair_distance_table(prev, topo, routing, affected, options(solver, threads))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let serial = repair(1);
    for threads in THREADS {
        assert!(
            repair(threads) == serial,
            "{name}: threads {threads} disagrees with the serial repair"
        );
    }
    let exact = match solver {
        SolverKind::Approximate => SolverKind::SparseCholesky,
        exact => exact,
    };
    let (rebuilt, _) =
        equivalent_distance_table_with_report(topo, routing, options(exact, 1)).unwrap();
    if solver == exact {
        assert!(
            serial.table == rebuilt,
            "{name}: the repair is not a rebuild"
        );
    }
    for &(i, j) in affected {
        assert_eq!(
            serial.table.get(i, j).to_bits(),
            rebuilt.get(i, j).to_bits(),
            "{name}: re-solved pair ({i}, {j})"
        );
    }
    let mut h = Fnv::new();
    h.table(&serial.table);
    h.word(serial.pairs_recomputed as u64);
    h.word(serial.max_delta.to_bits());
    Case {
        digest: h.0,
        summary: format!(
            "recomputed {} max_delta {:?}",
            serial.pairs_recomputed, serial.max_delta
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
                let (prev, _) =
                    equivalent_distance_table_with_report(topo, &*routing, options(solver, 1))
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
