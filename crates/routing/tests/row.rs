//! The two row steps against route enumeration: for both routers and
//! every ordered pair, [`RouteRow::unique_route_cost`] is `Some` exactly
//! when one minimal route exists, and is then the slowdown sum along it;
//! [`Routing::row_links`] is [`Routing::minimal_route_links`], a strictly
//! ascending list of link ids.
//!
//! One `RouteRow` serves the interleaved rows of routers over nets of
//! different sizes, as a worker's scratch serves build after build: a
//! stamp, a count or a cost left by another row must never be read.

use commsched_routing::{
    enumerate_minimal_routes, RouteRow, Routing, ShortestPathRouting, UpDownRouting,
};
use commsched_topology::{
    designed, random_regular, RandomTopologyConfig, SwitchId, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Routed<'a> = (&'a Topology, Box<dyn Routing>);

fn routed(topo: &Topology, root: SwitchId) -> [Routed<'_>; 2] {
    [
        (topo, Box::new(UpDownRouting::new(topo, root).unwrap())),
        (topo, Box::new(ShortestPathRouting::new(topo).unwrap())),
    ]
}

/// Row `src` of every router that has one, turn about, through `row`.
fn check_rows(nets: &[Routed<'_>], row: &mut RouteRow) {
    let largest = nets.iter().map(|(t, _)| t.num_switches()).max().unwrap();
    let mut links = Vec::new();
    for src in 0..largest {
        for (topo, routing) in nets.iter().filter(|(t, _)| src < t.num_switches()) {
            routing.scan_row(src, row);
            for dst in (0..topo.num_switches()).filter(|&dst| dst != src) {
                let pair = format!("{} {src}->{dst}", routing.name());
                let routes = enumerate_minimal_routes(&**routing, src, dst, 2);
                let only = routes.as_deref().and_then(|r| match r {
                    [only] => Some(only),
                    _ => None,
                });
                let cost = only.map(|route| {
                    route
                        .windows(2)
                        .map(|w| topo.link_between(w[0], w[1]).unwrap())
                        .map(|l| u64::from(topo.link_slowdown(l)))
                        .sum::<u64>()
                });
                assert_eq!(row.unique_route_cost(dst), cost, "{pair}");
                routing.row_links(dst, row, &mut links);
                assert!(links.windows(2).all(|w| w[0] < w[1]), "{pair}: {links:?}");
                assert_eq!(links, routing.minimal_route_links(src, dst), "{pair}");
                // The walk left the scan as it was.
                assert_eq!(row.unique_route_cost(dst), cost, "{pair} after its walk");
            }
        }
    }
}

/// `topo` with a slowdown from 1..=4 drawn for every link.
fn with_random_slowdowns(topo: &Topology, rng: &mut StdRng) -> Topology {
    let mut builder = TopologyBuilder::new(topo.num_switches(), topo.hosts_per_switch());
    for link in topo.links() {
        builder = builder.link_with_slowdown(link.a, link.b, rng.gen_range(1..=4));
    }
    builder.build().unwrap()
}

#[test]
fn designed_nets_share_one_row() {
    let nets = [
        designed::ring(6, 4),
        designed::ring(9, 1),
        designed::mesh(3, 3, 1),
        designed::hypercube(4, 1),
        designed::paper_24_switch(),
    ];
    let routed: Vec<Routed<'_>> = nets.iter().flat_map(|t| routed(t, 0)).collect();
    check_rows(&routed, &mut RouteRow::new());
}

/// Nets of more than 64 and more than 128 links, so that a walk's link
/// bits span several words, sharing one row with a net of fewer.
#[test]
fn nets_over_several_link_words_share_one_row() {
    let mut rng = StdRng::seed_from_u64(2764);
    let nets: Vec<Topology> = [48, 96]
        .into_iter()
        .map(|n| {
            let plain = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
            with_random_slowdowns(&plain, &mut rng)
        })
        .chain([designed::ring(9, 1)])
        .collect();
    assert_eq!(
        nets.iter().map(Topology::num_links).collect::<Vec<_>>(),
        [72, 144, 9]
    );
    let routed: Vec<Routed<'_>> = nets.iter().flat_map(|t| routed(t, 3)).collect();
    check_rows(&routed, &mut RouteRow::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random degree-3 nets with random slowdowns and a random root, each
    /// sharing its row with a designed net of another size.
    #[test]
    fn random_regular_nets_share_one_row(
        seed in any::<u64>(),
        half_n in 2usize..=12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 2 * half_n;
        let plain = random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap();
        let random = with_random_slowdowns(&plain, &mut rng);
        let designed = match seed % 3 {
            0 => designed::ring(7, 1),
            1 => designed::mesh(3, 4, 1),
            _ => designed::hypercube(3, 1),
        };
        let mut nets = Vec::from(routed(&random, rng.gen_range(0..n)));
        nets.extend(routed(&designed, rng.gen_range(0..designed.num_switches())));
        check_rows(&nets, &mut RouteRow::new());
    }
}
