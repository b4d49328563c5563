//! Warm-started remapping: recover mapping quality after a fault by
//! seeding the tabu search from the pre-fault assignment.

use crate::{TabuParams, TabuSearch};
use commsched_core::{quality, Partition};
use commsched_distance::DistanceTable;
use commsched_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Quality before/after a warm-started remap on the post-fault table.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapReport {
    /// The remapped partition.
    pub partition: Partition,
    /// `F_G` of the *old* partition under the *new* table — how much the
    /// fault degraded the running assignment.
    pub fg_before: f64,
    /// `Cc` of the old partition under the new table.
    pub cc_before: f64,
    /// `F_G` after the warm remap.
    pub fg_after: f64,
    /// `Cc` after the warm remap.
    pub cc_after: f64,
    /// Total tabu iterations spent (all seeds).
    pub iterations: usize,
    /// Objective/delta evaluations spent.
    pub evaluations: u64,
}

impl RemapReport {
    /// `F_G` recovered by the remap (positive when it helped).
    pub fn fg_gain(&self) -> f64 {
        self.fg_before - self.fg_after
    }
}

/// Re-run the tabu search on the post-fault `table`, seeded from the
/// pre-fault `prev` mapping.
///
/// The warm start replaces the first restart (consuming no randomness),
/// so `params.seeds` bounds the total restarts as usual; a handful of
/// seeds typically suffices because the old assignment is already near
/// the new optimum unless the fault tore a cluster apart. The result can
/// never be worse than `prev` on the new table — the warm seed itself is
/// a candidate.
///
/// # Panics
/// Panics if `prev` does not match `table.n()`/`sizes` (epochs preserve
/// the switch count, so a mismatch is caller error).
pub fn warm_remap(
    table: &DistanceTable,
    sizes: &[usize],
    prev: &Partition,
    params: TabuParams,
    seed: u64,
) -> RemapReport {
    let before = quality(prev, table);
    let mut rng = StdRng::seed_from_u64(seed);
    let search = TabuSearch::new(params.warm_start(prev.clone()));
    let (result, trace) = search.search_traced(table, sizes, &mut rng);
    let after = quality(&result.partition, table);
    let iterations = trace.events.iter().map(|e| e.iteration).max().unwrap_or(0);
    if before.fg > 0.0 {
        let gain_bp = ((before.fg - after.fg) / before.fg * 1e4).max(0.0);
        telemetry::global()
            .histogram(
                "dynamics_remap_gain_bp",
                "F_G recovered by warm remapping, basis points of the pre-remap value",
            )
            .record(gain_bp as u64);
    }
    RemapReport {
        partition: result.partition,
        fg_before: before.fg,
        cc_before: before.cc,
        fg_after: after.fg,
        cc_after: after.cc,
        iterations,
        evaluations: result.evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapper;
    use commsched_distance::{equivalent_distance_table, repair_table, TableOptions};
    use commsched_routing::UpDownRouting;
    use commsched_topology::{designed, FaultEvent, TopologyEpoch};
    use std::sync::Arc;

    #[test]
    fn warm_remap_never_loses_to_the_stale_mapping() {
        let epoch0 = TopologyEpoch::initial(Arc::new(designed::paper_24_switch()));
        let r0 = UpDownRouting::new(&epoch0.topology, 0).unwrap();
        let table0 = equivalent_distance_table(&epoch0.topology, &r0).unwrap();
        let sizes = vec![6, 6, 6, 6];
        // Pre-fault optimum (the four physical rings).
        let mut rng = StdRng::seed_from_u64(42);
        let pre = TabuSearch::new(TabuParams::scaled(24)).search(&table0, &sizes, &mut rng);
        // Kill an intra-ring link and repair the table.
        let epoch1 = epoch0.apply(&FaultEvent::LinkDown { a: 0, b: 1 }).unwrap();
        let r1 = UpDownRouting::new(&epoch1.topology, 0).unwrap();
        let table1 = repair_table(
            &table0,
            &epoch0.topology,
            &r0,
            &epoch1.topology,
            &r1,
            TableOptions::default(),
        )
        .unwrap()
        .table;
        let params = TabuParams {
            seeds: 3,
            ..TabuParams::scaled(24)
        };
        let report = warm_remap(&table1, &sizes, &pre.partition, params, 7);
        assert!(report.fg_after <= report.fg_before + 1e-12);
        assert!(report.iterations > 0);
        assert!(report.evaluations > 0);
        assert!(report.cc_after >= report.cc_before - 1e-12);
    }
}
