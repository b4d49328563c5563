//! The scan `run_seed` is checked against in debug builds.

use commsched_core::{BlockBest, SwapEvaluator};
use commsched_topology::SwitchId;

use super::TabuEntry;

/// The scan `run_seed` replaced — every cross-cluster pair through
/// `delta_fg`, in `(a, b)` order, strict `<`, against every tabu entry ever
/// made — kept as the definition its memo is checked against in debug
/// builds, every iteration.
pub(super) fn reference_scan(
    eval: &SwapEvaluator<'_>,
    ever_tabu: &[TabuEntry],
    iterations: usize,
) -> Option<BlockBest> {
    let clusters = eval.partition();
    let (mut any, mut allowed) = (None::<(f64, SwitchId, SwitchId)>, None);
    for a in 0..clusters.num_switches() {
        for b in (a + 1)..clusters.num_switches() {
            if clusters.cluster_of(a) == clusters.cluster_of(b) {
                continue;
            }
            let delta = eval.delta_fg(a, b);
            if any.is_none_or(|(d, _, _)| delta < d) {
                any = Some((delta, a, b));
            }
            let is_tabu = |&(ta, tb, until)| (ta, tb) == (a, b) && iterations < until;
            if !ever_tabu.iter().any(is_tabu) && allowed.is_none_or(|(d, _, _)| delta < d) {
                allowed = Some((delta, a, b));
            }
        }
    }
    any.map(|any| BlockBest { any, allowed })
}
