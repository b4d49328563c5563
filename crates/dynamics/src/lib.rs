#![warn(missing_docs)]

//! Dynamic reconfiguration for the communication-aware scheduler: fault
//! injection, incremental distance-table repair, and warm-started
//! remapping.
//!
//! The paper's pipeline (topology → up*/down* routing → table of
//! equivalent distances → tabu mapping) is presented as a one-shot
//! computation, but the NOWs it targets lose and regain links at run
//! time. This crate models that: a [`FaultSchedule`] is a deterministic,
//! seed-driven sequence of timed [`FaultEvent`]s; applying one to a
//! [`TopologyEpoch`] yields the next epoch (new topology, new
//! fingerprint, connectivity *reported*, never asserted). After a fault,
//! [`repair_table`] recomputes only the pairs whose minimal routes
//! touched the changed links (or rebuilds, when the up*/down* transition
//! diff cannot name them) — through the full build's own per-pair
//! solver, so the repaired table is the one a rebuild would produce, bit
//! for bit — and [`warm_remap`]
//! re-runs the tabu search seeded from the pre-fault mapping so the
//! scheduler recovers quality in a fraction of a cold search's budget.

pub mod fault;
pub mod remap;
pub mod repair;

pub use fault::{FaultError, FaultEvent, FaultSchedule, TimedFault, TopologyEpoch};
pub use remap::{warm_remap, RemapReport};
pub use repair::{repair_table, RepairReport};

use commsched_telemetry as telemetry;
use std::sync::OnceLock;

/// Telemetry handles for the dynamics subsystem, resolved once per
/// process.
pub(crate) struct DynMetrics {
    pub(crate) faults: telemetry::Counter,
    pub(crate) pairs_recomputed: telemetry::Counter,
    pub(crate) repair_ms: telemetry::Histo,
    pub(crate) remap_gain_bp: telemetry::Histo,
}

pub(crate) fn metrics() -> &'static DynMetrics {
    static METRICS: OnceLock<DynMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = telemetry::global();
        DynMetrics {
            faults: r.counter(
                "dynamics_faults_injected_total",
                "Fault events applied to a topology epoch",
            ),
            pairs_recomputed: r.counter(
                "dynamics_pairs_recomputed_total",
                "Switch pairs re-solved by incremental table repair",
            ),
            repair_ms: r.histogram(
                "dynamics_repair_ms",
                "Wall time of one incremental table repair, milliseconds",
            ),
            remap_gain_bp: r.histogram(
                "dynamics_remap_gain_bp",
                "F_G recovered by warm remapping, basis points of the pre-remap value",
            ),
        }
    })
}
