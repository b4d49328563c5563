//! Windows: what a warm-up or measurement window is, what it reports,
//! and what it flushes to telemetry.

use super::{Simulator, StallReport};
use crate::stats::SimStats;
use commsched_telemetry as telemetry;
use std::sync::OnceLock;
use std::time::Instant;

/// Telemetry handles for the simulator, resolved once per process. A
/// finished window flushes its deltas in one shot; the per-cycle loops
/// are untouched.
struct SimMetrics {
    runs: telemetry::Counter,
    sweep_probes: telemetry::Counter,
    sweep_probes_spent: telemetry::Counter,
    warmup_cycles: telemetry::Counter,
    measure_cycles: telemetry::Counter,
    generated: telemetry::Counter,
    delivered_msgs: telemetry::Counter,
    delivered_flits: telemetry::Counter,
    ecn_marks: telemetry::Counter,
    pfc_pauses: telemetry::Counter,
    misroutes: telemetry::Counter,
    cycles_per_sec: telemetry::Gauge,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = telemetry::global();
        SimMetrics {
            runs: r.counter(
                "netsim_runs_total",
                "Simulator runs (counted when their warm-up window closes)",
            ),
            sweep_probes: r.counter(
                "netsim_sweep_probes_total",
                "Runs of saturation searches, speculative ones included",
            ),
            sweep_probes_spent: r.counter(
                "netsim_sweep_probes_spent_total",
                "Speculative saturation probes whose outcome no search step used",
            ),
            warmup_cycles: r.counter(
                "netsim_warmup_cycles_total",
                "Cycles simulated in warm-up windows",
            ),
            measure_cycles: r.counter(
                "netsim_measure_cycles_total",
                "Cycles simulated in measurement windows",
            ),
            generated: r.counter(
                "netsim_generated_messages_total",
                "Messages generated by workstations (all windows)",
            ),
            delivered_msgs: r.counter(
                "netsim_delivered_messages_total",
                "Messages fully delivered (all windows)",
            ),
            delivered_flits: r.counter(
                "netsim_delivered_flits_total",
                "Flits consumed at delivery channels (all windows)",
            ),
            ecn_marks: r.counter(
                "netsim_ecn_marks_total",
                "Messages ECN-marked at congested switch buffers (all windows)",
            ),
            pfc_pauses: r.counter(
                "netsim_pfc_pauses_total",
                "XOFF assertions by switch input buffers (all windows)",
            ),
            misroutes: r.counter(
                "netsim_misroutes_total",
                "Non-minimal hops granted to blocked headers (all windows)",
            ),
            cycles_per_sec: r.gauge(
                "netsim_cycles_per_sec",
                "Simulated cycles per wall-clock second of the last window",
            ),
        }
    })
}

/// Count a finished saturation search's probes, and those of them whose
/// outcome it never used.
pub(crate) fn count_sweep_probes(probes: usize, spent: usize) {
    let m = sim_metrics();
    m.sweep_probes.add(probes as u64);
    m.sweep_probes_spent.add(spent as u64);
}

/// The cumulative counters windows are measured by: a window's report is
/// the difference of the copies taken at its two ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub generated: u64,
    pub delivered_msgs: u64,
    pub delivered_flits: u64,
    /// Sum of injection-to-delivery latencies of delivered messages.
    pub sum_net_latency: f64,
    /// Sum of generation-to-delivery latencies of delivered messages.
    pub sum_total_latency: f64,
    pub ecn_marks: u64,
    pub pfc_pauses: u64,
    pub pfc_pause_cycles: u64,
    pub misroutes: u64,
}

impl std::ops::Sub for Counters {
    type Output = Counters;

    fn sub(self, earlier: Counters) -> Counters {
        Counters {
            generated: self.generated - earlier.generated,
            delivered_msgs: self.delivered_msgs - earlier.delivered_msgs,
            delivered_flits: self.delivered_flits - earlier.delivered_flits,
            sum_net_latency: self.sum_net_latency - earlier.sum_net_latency,
            sum_total_latency: self.sum_total_latency - earlier.sum_total_latency,
            ecn_marks: self.ecn_marks - earlier.ecn_marks,
            pfc_pauses: self.pfc_pauses - earlier.pfc_pauses,
            pfc_pause_cycles: self.pfc_pause_cycles - earlier.pfc_pause_cycles,
            misroutes: self.misroutes - earlier.misroutes,
        }
    }
}

/// What a window's cycles count as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Excluded from measurement. Every run opens with its warm-up
    /// window (of zero cycles if need be), so this is also where
    /// `netsim_runs_total` counts the run.
    Warmup,
    /// Measured.
    Measure,
}

impl Simulator<'_> {
    /// Run `step` — which advances the simulator and reports whether the
    /// watchdog fired — as one window of `phase`. Returns what the
    /// cumulative counters gained and `step`'s verdict; the window runs
    /// inside a `netsim.warmup` / `netsim.measure` span and its cycles
    /// and counts are flushed to telemetry, so every simulated cycle is
    /// visible there whoever asked for it.
    pub(crate) fn window(
        &mut self,
        phase: Phase,
        step: impl FnOnce(&mut Self) -> bool,
    ) -> (Counters, bool) {
        let _span = telemetry::Span::enter(match phase {
            Phase::Warmup => "netsim.warmup",
            Phase::Measure => "netsim.measure",
        });
        let t0 = Instant::now();
        let (first_cycle, before) = (self.cycle, self.totals);
        let watchdog_fired = step(self);
        let cycles = self.cycle - first_cycle;
        let gained = self.totals - before;

        let m = sim_metrics();
        match phase {
            Phase::Warmup => {
                m.runs.inc();
                m.warmup_cycles.add(cycles);
            }
            Phase::Measure => m.measure_cycles.add(cycles),
        }
        m.generated.add(gained.generated);
        m.delivered_msgs.add(gained.delivered_msgs);
        m.delivered_flits.add(gained.delivered_flits);
        m.ecn_marks.add(gained.ecn_marks);
        m.pfc_pauses.add(gained.pfc_pauses);
        m.misroutes.add(gained.misroutes);
        let secs = t0.elapsed().as_secs_f64();
        if cycles > 0 && secs > 0.0 {
            m.cycles_per_sec.set((cycles as f64 / secs) as i64);
        }
        (gained, watchdog_fired)
    }

    /// Run warm-up plus measurement and report the measured window.
    pub fn run(&mut self) -> SimStats {
        let _span = telemetry::Span::enter("netsim.run");
        let (warmup, cycles) = (self.cfg.warmup_cycles, self.cfg.measure_cycles);
        self.window(Phase::Warmup, |sim| sim.advance(warmup));
        self.max_queue = self.longest_queue();
        let (w, watchdog_fired) = self.window(Phase::Measure, |sim| sim.advance(cycles));
        // A watchdog fire is a deadlock only if the stall chains resolve
        // to a routing cycle (not a pause).
        let stall = if watchdog_fired {
            self.stall_report()
        } else {
            StallReport::default()
        };

        let per_message = |sum: f64| {
            if w.delivered_msgs == 0 {
                f64::NAN
            } else {
                sum / w.delivered_msgs as f64
            }
        };
        let dflits = w.delivered_flits as f64;
        let switches = self.topo.num_switches() as f64;
        let hosts = self.topo.num_hosts() as f64;
        SimStats {
            cycles,
            offered_flits_per_host_cycle: self.cfg.injection_rate,
            generated_messages: w.generated,
            delivered_messages: w.delivered_msgs,
            delivered_flits: w.delivered_flits,
            avg_network_latency: per_message(w.sum_net_latency),
            avg_total_latency: per_message(w.sum_total_latency),
            accepted_flits_per_switch_cycle: dflits / (cycles as f64 * switches),
            accepted_flits_per_host_cycle: dflits / (cycles as f64 * hosts),
            max_source_queue: self.max_queue,
            deadlocked: stall.routing_deadlock,
            ecn_marks: w.ecn_marks,
            pfc_pauses: w.pfc_pauses,
            pfc_pause_cycles: w.pfc_pause_cycles,
            misroutes: w.misroutes,
            stalled_flits: stall.stalled_flits,
            stall_dead_link_flits: 0,
            stall_paused_flits: stall.paused_flits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::simulate;
    use super::super::testutil::{tiny, updown};
    use crate::config::SimConfig;

    #[test]
    fn zero_delivery_window_yields_no_latency() {
        let topo = tiny();
        let routing = updown(&topo);
        let cfg = SimConfig {
            injection_rate: 0.0,
            warmup_cycles: 10,
            measure_cycles: 100,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &[0, 0], cfg).unwrap();
        assert_eq!(stats.delivered_messages, 0);
        assert!(stats.avg_network_latency.is_nan());
        assert_eq!(stats.network_latency(), None, "NaN must not leak");
        assert_eq!(stats.total_latency(), None);
    }
}
