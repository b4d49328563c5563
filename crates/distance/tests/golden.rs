//! Golden bits of the table of equivalent distances: the refactoring
//! oracle for the builder and the repair path. Every `F_G` is a sum over
//! this table, so one moved bit of `T` can move a mapping; `sparse ==
//! dense` is only a 1e-9 proptest and nothing else pins the bits.
//!
//! A *build* case hashes (FNV-1a 64) `n` and `to_bits()` of the upper
//! triangle. A *repair* case removes the first
//! link whose removal keeps the net connected, repairs the pairs whose
//! route wires changed, and hashes the repaired table's bits,
//! `pairs_recomputed` and `max_delta.to_bits()`. Each case is computed
//! for `threads ∈ {1, 2, 7}` and every cell must agree before the digest
//! is compared; a repair must also equal a build of the faulted net bit
//! for bit.
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
    equivalent_distance_table_with, repair_distance_table, DistanceTable, SolverKind, TableOptions,
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
const GOLDEN: [(&str, &str); 50] = [
    ("paper24/updown/sparse", "1b218a6e605ff47d"),
    ("paper24/updown/sparse/repair", "2d5270766301216f"),
    ("paper24/updown/dense", "8cbd21e1dd242676"),
    ("paper24/updown/dense/repair", "4fbb43c46fb5780d"),
    ("paper24/shortest/sparse", "aeee85002588484c"),
    ("paper24/shortest/sparse/repair", "fcd1ad6dc38bada1"),
    ("paper24/shortest/dense", "ec97048324d7c197"),
    ("paper24/shortest/dense/repair", "a9ba14a119fc2f2e"),
    ("ring8/updown/sparse", "4b1df2ebe659b185"),
    ("ring8/updown/sparse/repair", "01edfd0fefabc575"),
    ("ring8/updown/dense", "e2cfaf28d31629e5"),
    ("ring8/updown/dense/repair", "56a221db5601acb0"),
    ("ring8/shortest/sparse", "85b6ba469bb63f7d"),
    ("ring8/shortest/sparse/repair", "152a1bb7b69aaf42"),
    ("ring8/shortest/dense", "a9aedfad5f895c91"),
    ("ring8/shortest/dense/repair", "bf519f57bad0c4e7"),
    ("slowdowns12/updown/sparse", "b98dca8878212430"),
    ("slowdowns12/updown/sparse/repair", "5d4af8e7de75f30a"),
    ("slowdowns12/updown/dense", "2468111f8bfecea9"),
    ("slowdowns12/updown/dense/repair", "dad33cc979951813"),
    ("slowdowns12/shortest/sparse", "26f7018284bdf562"),
    ("slowdowns12/shortest/sparse/repair", "2ca01569ea6a8a10"),
    ("slowdowns12/shortest/dense", "4916165eb9d88293"),
    ("slowdowns12/shortest/dense/repair", "cd0f5571ec36b003"),
    ("random16/updown/sparse", "42ce9d113336a6d6"),
    ("random16/updown/sparse/repair", "4741a912b185ec77"),
    ("random16/updown/dense", "cd76abb7efea52d4"),
    ("random16/updown/dense/repair", "3b145b70f3d4d250"),
    ("random16/shortest/sparse", "893eb06d13864d6d"),
    ("random16/shortest/sparse/repair", "dc67f1332dc6e5d3"),
    ("random16/shortest/dense", "6353a9aee249341d"),
    ("random16/shortest/dense/repair", "fed695091a7ee088"),
    ("random64/updown/sparse", "1c437bfe6be46068"),
    ("random64/updown/sparse/repair", "7b163fe0ebe0283f"),
    ("random64/updown/dense", "9e35e07b14c9fb22"),
    ("random64/updown/dense/repair", "7a2c078ce9304696"),
    ("random64/shortest/sparse", "2831b59f4d4eb87a"),
    ("random64/shortest/sparse/repair", "6a73fb82644440ce"),
    ("random64/shortest/dense", "79aa08436de7dc2f"),
    ("random64/shortest/dense/repair", "25331b17d25b5c08"),
    ("random96/updown/sparse", "cb11a08186608019"),
    ("random96/updown/sparse/repair", "55925ebbce59c5b9"),
    ("random96/updown/dense", "63221a256af1c72b"),
    ("random96/updown/dense/repair", "13d4956b3fc8916b"),
    ("random96/shortest/sparse", "6b953509d366625f"),
    ("random96/shortest/sparse/repair", "4349f8d753fcaa9e"),
    ("random96/shortest/dense", "a944ba99d6958421"),
    ("random96/shortest/dense/repair", "7d0a0c94b2673cfd"),
    ("random320/updown/sparse", "cfe8057f5e03d9b1"),
    ("random320/shortest/sparse", "699d92c4d247ed09"),
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
    TableOptions { solver, threads }
}

/// Build under every thread count; all three cells must be the same
/// table.
fn build_case(name: String, topo: &Topology, routing: &dyn Routing, solver: SolverKind) -> Case {
    let build = |threads| {
        equivalent_distance_table_with(topo, routing, options(solver, threads))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let table = build(1);
    for threads in THREADS {
        assert!(
            build(threads) == table,
            "{name}: threads {threads} disagrees with the serial build"
        );
    }
    let mut h = Fnv::new();
    h.table(&table);
    Case {
        digest: h.0,
        summary: format!(
            "n {} total_square {:?} max {:?}",
            table.n(),
            table.total_square(),
            table.max_distance()
        ),
        name,
    }
}

/// Repair `prev` (the table of the net before the fault) into the table
/// of `topo` / `routing`, under every thread count, and hold the repair
/// to a build of `topo` with the same solver, bit for bit.
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
    let rebuilt = equivalent_distance_table_with(topo, routing, options(solver, 1)).unwrap();
    assert!(
        serial.table == rebuilt,
        "{name}: the repair is not a rebuild"
    );
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

/// Every case of one network: both routings × the two solvers, build
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
                let prev =
                    equivalent_distance_table_with(topo, &*routing, options(solver, 1)).unwrap();
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
