//! Measurement results of one simulation run.

/// Measured quantities of one run's measurement window (§5: "the most
/// important performance measures are latency and throughput").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Measured cycles.
    pub cycles: u64,
    /// Configured offered load (flits per workstation per cycle).
    pub offered_flits_per_host_cycle: f64,
    /// Messages generated during the window.
    pub generated_messages: u64,
    /// Messages whose tail was delivered during the window.
    pub delivered_messages: u64,
    /// Flits delivered during the window.
    pub delivered_flits: u64,
    /// Mean latency from network injection to tail delivery, in cycles
    /// (the paper's latency: "since the message is injected in the network
    /// until the last flit is received"). `NaN` when nothing was delivered.
    pub avg_network_latency: f64,
    /// Mean latency from generation (includes source queueing).
    pub avg_total_latency: f64,
    /// Accepted traffic in the paper's unit: flits per switch per cycle.
    pub accepted_flits_per_switch_cycle: f64,
    /// Accepted traffic normalized per workstation.
    pub accepted_flits_per_host_cycle: f64,
    /// Largest source-queue length observed (diverges past saturation).
    pub max_source_queue: usize,
    /// Whether the run stalled in a true routing deadlock (a cycle of
    /// flits each waiting on the next). Stalls caused by killed links or
    /// flow-control pause are *not* deadlocks: they are reported through
    /// the `stall_*` fields instead, with this flag false.
    pub deadlocked: bool,
    /// Messages first marked ECN during the window (ECN modes).
    pub ecn_marks: u64,
    /// XOFF assertions during the window (PFC mode).
    pub pfc_pauses: u64,
    /// Sum over input VCs of cycles spent paused during the window.
    pub pfc_pause_cycles: u64,
    /// Non-minimal hops granted during the window (adaptive misrouting).
    pub misroutes: u64,
    /// Flits sitting in network buffers when the progress watchdog fired
    /// (0 if it never fired).
    pub stalled_flits: u64,
    /// Of the stalled flits, those blocked (transitively) on a killed
    /// link.
    pub stall_dead_link_flits: u64,
    /// Of the stalled flits, those blocked (transitively) on a
    /// flow-control pause.
    pub stall_paused_flits: u64,
}

impl SimStats {
    /// Mean network latency, or `None` when the window delivered nothing
    /// (where `avg_network_latency` is `NaN`). Consumers that serialize
    /// or compare latencies must go through this accessor so NaN never
    /// reaches a JSON document or silently passes an assert.
    pub fn network_latency(&self) -> Option<f64> {
        self.avg_network_latency
            .is_finite()
            .then_some(self.avg_network_latency)
    }

    /// Mean generation-to-delivery latency, or `None` when the window
    /// delivered nothing.
    pub fn total_latency(&self) -> Option<f64> {
        self.avg_total_latency
            .is_finite()
            .then_some(self.avg_total_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(offered: f64, accepted: f64) -> SimStats {
        SimStats {
            cycles: 1000,
            offered_flits_per_host_cycle: offered,
            generated_messages: 10,
            delivered_messages: 10,
            delivered_flits: 160,
            avg_network_latency: 20.0,
            avg_total_latency: 22.0,
            accepted_flits_per_switch_cycle: accepted * 4.0,
            accepted_flits_per_host_cycle: accepted,
            max_source_queue: 1,
            deadlocked: false,
            ecn_marks: 0,
            pfc_pauses: 0,
            pfc_pause_cycles: 0,
            misroutes: 0,
            stalled_flits: 0,
            stall_dead_link_flits: 0,
            stall_paused_flits: 0,
        }
    }

    #[test]
    fn latency_accessors_hide_nan() {
        let ok = stats(0.1, 0.1);
        assert_eq!(ok.network_latency(), Some(20.0));
        assert_eq!(ok.total_latency(), Some(22.0));
        // A zero-delivery window carries NaN latencies; the accessors
        // must surface that as None, never as NaN.
        let empty = SimStats {
            delivered_messages: 0,
            delivered_flits: 0,
            avg_network_latency: f64::NAN,
            avg_total_latency: f64::NAN,
            ..stats(0.1, 0.0)
        };
        assert_eq!(empty.network_latency(), None);
        assert_eq!(empty.total_latency(), None);
    }
}
