#![warn(missing_docs)]

//! Routing algorithms for switch-based networks.
//!
//! The paper's communication-cost model (§3) is defined relative to the
//! routing algorithm: only the links that lie on *shortest paths supplied by
//! the routing algorithm* enter the equivalent-distance computation. The
//! evaluation networks use the up*/down* routing scheme of Autonet
//! ([`UpDownRouting`]); an unconstrained shortest-path router
//! ([`ShortestPathRouting`]) is provided as a baseline and for regular
//! topologies.
//!
//! All routers expose the same object-safe [`Routing`] trait:
//!
//! * [`Routing::route_distance`] — length of the shortest *legal* route,
//! * [`Routing::minimal_route_links`] — the union of links over all minimal
//!   legal routes (the resistor network of the distance model),
//! * [`Routing::scan_row`] / [`Routing::row_links`] — the same per source
//!   row over one [`RouteRow`]: one search answers the cost of every
//!   destination with a single minimal route, and only the others have
//!   their link set extracted,
//! * [`Routing::next_hops`] — per-hop minimal-route choices for the
//!   flit-level simulator (which tracks the up*/down* phase in
//!   [`RouteState::descended`]).
//!
//! # Example
//!
//! ```
//! use commsched_topology::designed;
//! use commsched_routing::{Routing, UpDownRouting};
//!
//! let topo = designed::ring(6, 4);
//! let routing = UpDownRouting::new(&topo, 0).unwrap();
//! // In a 6-ring rooted at 0, the hop distance between neighbours is 1.
//! assert_eq!(routing.route_distance(1, 2), 1);
//! ```

pub mod paths;
mod row;
pub mod shortest;
pub mod updown;

pub use paths::enumerate_minimal_routes;
pub use row::RouteRow;
pub use shortest::ShortestPathRouting;
pub use updown::UpDownRouting;

use commsched_topology::{LinkId, SwitchId, Topology};

/// Per-message routing state carried by the simulator.
///
/// For up*/down* routing, `descended` records whether the message has
/// already taken a "down" link; once set, "up" links are illegal. Routers
/// that do not distinguish phases ignore the flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteState {
    /// Switch the message head currently occupies.
    pub node: SwitchId,
    /// Whether the message has started descending (up*/down* phase bit).
    pub descended: bool,
}

impl RouteState {
    /// Initial state for a message injected at `src`.
    pub fn start(src: SwitchId) -> Self {
        Self {
            node: src,
            descended: false,
        }
    }
}

/// Errors raised while constructing a router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingError {
    /// The topology is disconnected; some pairs would be unroutable.
    Disconnected,
    /// The requested root switch does not exist.
    RootOutOfRange {
        /// Requested root.
        root: SwitchId,
        /// Number of switches.
        num_switches: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::Disconnected => write!(f, "topology is disconnected"),
            RoutingError::RootOutOfRange { root, num_switches } => {
                write!(f, "root {root} out of range (n = {num_switches})")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Which routing algorithm to model: the value form of a router —
/// hashable, so it can key a table cache, and spelled
/// `updown:<root>` / `shortest` wherever it is written down (wire
/// protocol, WAL, spill-file names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingSpec {
    /// Autonet-style up*/down* routing rooted at `root` (the paper's
    /// setting).
    UpDown {
        /// Root of the spanning tree.
        root: SwitchId,
    },
    /// Unconstrained shortest-path routing.
    ShortestPath,
}

impl Default for RoutingSpec {
    fn default() -> Self {
        RoutingSpec::UpDown { root: 0 }
    }
}

impl RoutingSpec {
    /// Build the router this spec names over `topology`.
    ///
    /// # Errors
    /// See [`RoutingError`].
    pub fn build(self, topology: &Topology) -> Result<Box<dyn Routing>, RoutingError> {
        Ok(match self {
            RoutingSpec::UpDown { root } => Box::new(UpDownRouting::new(topology, root)?),
            RoutingSpec::ShortestPath => Box::new(ShortestPathRouting::new(topology)?),
        })
    }
}

impl std::fmt::Display for RoutingSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingSpec::UpDown { root } => write!(f, "updown:{root}"),
            RoutingSpec::ShortestPath => write!(f, "shortest"),
        }
    }
}

impl std::str::FromStr for RoutingSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "shortest" {
            return Ok(RoutingSpec::ShortestPath);
        }
        if let Some(root) = s.strip_prefix("updown:") {
            return root
                .parse()
                .map(|root| RoutingSpec::UpDown { root })
                .map_err(|_| format!("bad routing root in '{s}'"));
        }
        Err(format!("unknown routing '{s}'"))
    }
}

/// Object-safe interface shared by all routing algorithms.
pub trait Routing: Send + Sync {
    /// Number of switches in the routed topology.
    fn num_switches(&self) -> usize;

    /// Length (hops) of the shortest route the algorithm supplies from
    /// `src` to `dst`. Zero when `src == dst`.
    fn route_distance(&self, src: SwitchId, dst: SwitchId) -> u32;

    /// Ids of the links lying on at least one minimal route from `src` to
    /// `dst`, deduplicated and sorted. Empty when `src == dst`.
    fn minimal_route_links(&self, src: SwitchId, dst: SwitchId) -> Vec<LinkId>;

    /// First step of a source row: the one forward search from `src` that
    /// serves every destination, left in `row`. Afterwards
    /// [`RouteRow::unique_route_cost`] answers the destinations with one
    /// minimal route (in the link slowdowns of the topology the router
    /// was built for), and [`Routing::row_links`] extracts the link set
    /// of any other.
    fn scan_row(&self, src: SwitchId, row: &mut RouteRow);

    /// Second step, one destination of the row `row` was scanned for by
    /// this router: `minimal_route_links(src, dst)` into `out` (cleared
    /// first, its allocation reused).
    fn row_links(&self, dst: SwitchId, row: &mut RouteRow, out: &mut Vec<LinkId>);

    /// Every link set of a row: fill `out[dst]` with
    /// `minimal_route_links(src, dst)` for every `dst > src` — the
    /// unordered pairs of a (symmetric) table. Entries at `dst <= src`
    /// are cleared but not computed. `out` is resized to
    /// `num_switches()` and its inner vectors are reused.
    fn minimal_route_links_row(&self, src: SwitchId, out: &mut Vec<Vec<LinkId>>) {
        out.resize_with(self.num_switches(), Vec::new);
        let mut row = RouteRow::new();
        self.scan_row(src, &mut row);
        for (dst, links) in out.iter_mut().enumerate() {
            links.clear();
            if dst > src {
                self.row_links(dst, &mut row, links);
            }
        }
    }

    /// Legal next states from `state` that remain on a minimal route to
    /// `dst`. Empty iff `state.node == dst`.
    fn next_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState>;

    /// Legal *non-minimal* next states from `state` that can still reach
    /// `dst` — the candidate set for adaptive misrouting. Every returned
    /// state must be reachable by a transition the algorithm's legality
    /// predicate permits (so a router whose legal channel ordering is
    /// acyclic, like up*/down*, stays deadlock-free under misrouting),
    /// and must not already appear in [`Routing::next_hops`]. The default
    /// offers no detours, which disables misrouting for routers that do
    /// not opt in.
    fn misroute_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState> {
        let _ = (state, dst);
        Vec::new()
    }

    /// Downcast hook for incremental fault analysis
    /// ([`UpDownRouting::changed_route_pairs`]); `None` for routers
    /// without that structure.
    fn as_updown(&self) -> Option<&UpDownRouting> {
        None
    }

    /// Human-readable algorithm name (for reports).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_topology::designed;

    #[test]
    fn routing_spec_round_trips_and_builds() {
        for spec in [RoutingSpec::UpDown { root: 9 }, RoutingSpec::ShortestPath] {
            assert_eq!(spec.to_string().parse(), Ok(spec));
        }
        assert!("left".parse::<RoutingSpec>().is_err());
        assert!("updown:x".parse::<RoutingSpec>().is_err());
        let ring = designed::ring(6, 1);
        let built = RoutingSpec::default().build(&ring).unwrap();
        assert_eq!(built.name(), "up*/down*");
        assert!(RoutingSpec::UpDown { root: 6 }.build(&ring).is_err());
    }
}
