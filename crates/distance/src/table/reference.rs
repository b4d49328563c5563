//! The lockstep reference of the row scan, compiled into debug builds
//! only: the series-path test over a pair's extracted link list, which
//! is how a pair with one minimal route was recognised before the scan
//! counted routes. Every pair a debug build resolves is walked and
//! scanned here too, and must agree with the scan in both directions.

use commsched_routing::{RouteRow, Routing};
use commsched_topology::{LinkId, SwitchId, Topology};

/// Per-switch stamps for the single-scan series-path test.
#[derive(Default)]
struct PathScan {
    stamp: Vec<u32>,
    deg: Vec<u32>,
    mark: u32,
}

/// One scan over `links`: if the route sub-network is a simple path with
/// the terminals at its ends, its resistance is just the series sum of
/// the link resistances. Returns `None` for any other shape (including
/// empty link sets).
///
/// The tree test `nodes == links + 1` is sound because a minimal-route
/// union is always connected (every link lies on some `a`→`b` route, so
/// every link reaches `a`); a connected graph with that edge count and
/// maximum degree 2 is exactly a simple path.
fn try_series_path(
    topo: &Topology,
    scan: &mut PathScan,
    links: &[LinkId],
    a: SwitchId,
    b: SwitchId,
) -> Option<f64> {
    if links.is_empty() {
        return None;
    }
    let n = topo.num_switches();
    if scan.stamp.len() < n {
        scan.stamp.resize(n, 0);
        scan.deg.resize(n, 0);
    }
    if scan.mark == u32::MAX {
        scan.stamp[..n].fill(0);
        scan.mark = 0;
    }
    scan.mark += 1;
    let mark = scan.mark;
    let mut nodes = 0usize;
    let mut sum_r = 0.0f64;
    let mut path_like = true;
    for &l in links {
        let link = topo.link(l);
        // Heterogeneous link speeds: a slower link resists more.
        sum_r += f64::from(topo.link_slowdown(l));
        for end in [link.a, link.b] {
            if scan.stamp[end] != mark {
                scan.stamp[end] = mark;
                scan.deg[end] = 0;
                nodes += 1;
            }
            scan.deg[end] += 1;
            if scan.deg[end] > 2 {
                path_like = false;
            }
        }
    }
    let terminals_are_endpoints =
        scan.stamp[a] == mark && scan.stamp[b] == mark && scan.deg[a] == 1 && scan.deg[b] == 1;
    if path_like && nodes == links.len() + 1 && terminals_are_endpoints {
        Some(sum_r)
    } else {
        None
    }
}

/// The reference's own scratch, so that checking a pair never disturbs
/// what the solver goes on to use (or to count).
#[derive(Default)]
pub(super) struct SeriesPathReference {
    scan: PathScan,
    links: Vec<LinkId>,
}

impl SeriesPathReference {
    /// Assert that `unique`, the scan's answer for `(i, j)` of the row in
    /// `row`, is what the series-path test over the extracted list says:
    /// `Some` exactly when that says path, and then the same bits.
    pub(super) fn check(
        &mut self,
        topo: &Topology,
        routing: &dyn Routing,
        row: &mut RouteRow,
        (i, j): (SwitchId, SwitchId),
        unique: Option<u64>,
    ) {
        routing.row_links(j, row, &mut self.links);
        let path = try_series_path(topo, &mut self.scan, &self.links, i, j);
        assert_eq!(
            unique.map(|cost| (cost as f64).to_bits()),
            path.map(f64::to_bits),
            "pair ({i}, {j}): the row scan and the series-path test disagree over {:?}",
            self.links
        );
    }
}
