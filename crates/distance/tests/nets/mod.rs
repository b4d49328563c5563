//! The seven networks of the golden files and the fault their repair
//! cases apply, shared by `golden.rs` (the table's bits) and `tallies.rs`
//! (which path answered each pair).

#![allow(dead_code)] // each of the two uses its part

use commsched_distance::SolverKind;
use commsched_routing::{Routing, ShortestPathRouting, UpDownRouting};
use commsched_topology::{
    designed, random_regular, LinkId, RandomTopologyConfig, SwitchId, Topology, TopologyBuilder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const SOLVERS: [(&str, SolverKind); 2] = [
    ("sparse", SolverKind::SparseCholesky),
    ("dense", SolverKind::DenseGaussian),
];
/// The dense oracle is cubic per pair; above this only the sparse solver
/// is recorded, and no repair.
pub const DENSE_AND_REPAIR_MAX_N: usize = 96;

/// Both routers of every case over `topo`, by the name its cases carry.
pub fn routed(topo: &Topology) -> [(&'static str, Box<dyn Routing>); 2] {
    [
        ("updown", Box::new(UpDownRouting::new(topo, 0).unwrap())),
        (
            "shortest",
            Box::new(ShortestPathRouting::new(topo).unwrap()),
        ),
    ]
}

/// The §5.1 class: `n` switches of degree three.
pub fn random_net(n: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(21_000 + n as u64);
    random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap()
}

/// A 4 × 3 mesh with two chords, its links listed in descending wire
/// order (so link-id order is the reverse of the canonical wire order)
/// and slowdowns from {1, 2, 3, 5, 10}.
pub fn slowdown_net() -> Topology {
    let (w, h) = (4usize, 3usize);
    let mut wires = vec![(0, 5), (6, 11)];
    for y in 0..h {
        for x in 0..w {
            let s = y * w + x;
            if x + 1 < w {
                wires.push((s, s + 1));
            }
            if y + 1 < h {
                wires.push((s, s + w));
            }
        }
    }
    wires.sort_unstable();
    wires.reverse();
    let mut builder = TopologyBuilder::new(w * h, 1);
    for (a, b) in wires {
        let slowdown = [1, 2, 3, 5, 10][(a * 7 + b * 3) % 5];
        builder = builder.link_with_slowdown(a, b, slowdown);
    }
    builder.build().unwrap()
}

/// Every golden network by the name its cases carry. `random96` is the
/// `large_warm` shape, `random320` the `large_cold` one.
pub fn all() -> Vec<(&'static str, Topology)> {
    vec![
        ("paper24", designed::paper_24_switch()),
        ("ring8", designed::ring(8, 1)),
        ("slowdowns12", slowdown_net()),
        ("random16", random_net(16)),
        ("random64", random_net(64)),
        ("random96", random_net(96)),
        ("random320", random_net(320)),
    ]
}

/// The net without the first link whose removal keeps it connected.
pub fn first_survivable_fault(topo: &Topology) -> Topology {
    (0..topo.num_links())
        .find_map(|l| topo.without_link(l).ok())
        .expect("some link is not a bridge")
}

/// A route link set as sorted `(a, b, slowdown)` wires: equal across
/// epochs exactly when the same physical wires are used, however the
/// link ids were renumbered in between.
fn route_key(topo: &Topology, links: &[LinkId]) -> Vec<(SwitchId, SwitchId, u32)> {
    let mut key: Vec<_> = links
        .iter()
        .map(|&l| {
            let link = topo.link(l);
            (link.a, link.b, topo.link_slowdown(l))
        })
        .collect();
    key.sort_unstable();
    key
}

/// Pairs whose minimal-route link sets differ, as physical wires,
/// between two epochs.
pub fn changed_pairs(
    old_topo: &Topology,
    old_r: &dyn Routing,
    new_topo: &Topology,
    new_r: &dyn Routing,
) -> Vec<(SwitchId, SwitchId)> {
    let n = old_topo.num_switches();
    let (mut old_row, mut new_row) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    for i in 0..n {
        old_r.minimal_route_links_row(i, &mut old_row);
        new_r.minimal_route_links_row(i, &mut new_row);
        for j in (i + 1)..n {
            if route_key(old_topo, &old_row[j]) != route_key(new_topo, &new_row[j]) {
                out.push((i, j));
            }
        }
    }
    out
}
