//! Transfer: which flits move this cycle — credit-style flow control,
//! one flit per physical link, PFC pause and ECN marking on enqueue.

use super::{Buf, ChannelKind, Simulator, VcId};

impl Simulator<'_> {
    /// Whether VC `id` has a flit available to send this cycle.
    fn has_source(&self, id: VcId) -> bool {
        let phys = id / self.vcs_per_phys;
        match self.phys[phys].kind {
            ChannelKind::Inject { host } => {
                self.inject_vc[host] == Some(id)
                    && self.vcs[id].owner == self.queues[host].front().copied()
                    && self.vcs[id].owner.is_some()
            }
            _ => self.vcs[id]
                .feeder
                .is_some_and(|ic| self.vcs[ic].buf.is_some()),
        }
    }

    /// Phase 3: move flits. Returns whether any flit moved.
    pub(super) fn transfer(&mut self) -> bool {
        // Monotone increasing fixed point on `will_send`, ignoring
        // physical-link exclusivity.
        for w in &mut self.will_send {
            *w = false;
        }
        let cap = self.cfg.buffer_flits as u32;
        let total_vcs = self.vcs.len();
        loop {
            let mut changed = false;
            for id in 0..total_vcs {
                if self.will_send[id] || !self.has_source(id) {
                    continue;
                }
                let phys = id / self.vcs_per_phys;
                // A slowed-down link only transfers on its duty cycles; a
                // dead link never does (its flits stall where they are).
                if self.phys[phys].dead || !self.cycle.is_multiple_of(self.phys[phys].period) {
                    continue;
                }
                let has_space = match self.phys[phys].kind {
                    ChannelKind::Deliver { .. } => true,
                    // A paused (XOFF) buffer accepts nothing, even if it
                    // would drain this cycle — pause wins until XON.
                    _ => {
                        (!self.pfc || !self.vcs[id].paused)
                            && (self.vcs[id].occupancy() < cap
                                || self.vcs[id].fwd.is_some_and(|f| self.will_send[f]))
                    }
                };
                if has_space {
                    self.will_send[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Physical exclusivity: keep at most one winning VC per physical
        // channel (round-robin preference), then re-check space conditions
        // that relied on revoked drains; iterate to a (shrinking) fixpoint.
        if self.vcs_per_phys > 1 {
            // Initial arbitration.
            for (p, ch) in self.phys.iter_mut().enumerate() {
                let base = p * self.vcs_per_phys;
                let winners: Vec<usize> = (0..self.vcs_per_phys)
                    .filter(|&v| self.will_send[base + v])
                    .collect();
                if winners.len() <= 1 {
                    continue;
                }
                // Pick the first winner at or after the rr pointer.
                let keep = *winners.iter().find(|&&v| v >= ch.rr).unwrap_or(&winners[0]);
                for &v in &winners {
                    if v != keep {
                        self.will_send[base + v] = false;
                    }
                }
                ch.rr = (keep + 1) % self.vcs_per_phys;
            }
            // Cascade: revoke sends whose full buffers no longer drain.
            loop {
                let mut changed = false;
                for id in 0..total_vcs {
                    if !self.will_send[id] {
                        continue;
                    }
                    let phys = id / self.vcs_per_phys;
                    if matches!(self.phys[phys].kind, ChannelKind::Deliver { .. }) {
                        continue;
                    }
                    let ok = self.vcs[id].occupancy() < cap
                        || self.vcs[id].fwd.is_some_and(|f| self.will_send[f]);
                    if !ok {
                        self.will_send[id] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Apply the moves.
        let len = self.cfg.msg_len as u32;
        let mut moved = false;
        for id in 0..total_vcs {
            if !self.will_send[id] {
                continue;
            }
            moved = true;
            let phys = id / self.vcs_per_phys;
            self.channel_flits[phys] += 1;
            // Pop the flit from the VC's source.
            let (msg, idx) = match self.phys[phys].kind {
                ChannelKind::Inject { host } => {
                    let msg = self.vcs[id].owner.expect("inject source checked");
                    let idx = self.next_flit[host];
                    self.next_flit[host] += 1;
                    if idx == 0 {
                        self.messages[msg as usize].inject_cycle = self.cycle;
                    }
                    if idx + 1 == len {
                        self.queues[host].pop_front();
                        self.next_flit[host] = 0;
                        self.inject_vc[host] = None;
                    }
                    (msg, idx)
                }
                _ => {
                    let ic = self.vcs[id].feeder.expect("feeder checked");
                    let buf = self.vcs[ic].buf.as_mut().expect("source checked");
                    let msg = buf.msg;
                    let idx = buf.lo;
                    buf.lo += 1;
                    if buf.lo == buf.hi {
                        self.vcs[ic].buf = None;
                    }
                    if idx + 1 == len {
                        // Tail left the feeder: release it.
                        self.vcs[ic].owner = None;
                        self.vcs[ic].fwd = None;
                        self.vcs[id].feeder = None;
                    }
                    // XON: the drain may release the feeder's pause.
                    if self.pfc
                        && self.vcs[ic].paused
                        && self.vcs[ic].occupancy() <= self.cfg.pfc_xon as u32
                    {
                        self.vcs[ic].paused = false;
                        self.paused_now -= 1;
                    }
                    (msg, idx)
                }
            };
            // Push it into the VC's downstream buffer / sink.
            match self.phys[phys].kind {
                ChannelKind::Deliver { .. } => {
                    self.totals.delivered_flits += 1;
                    if idx + 1 == len {
                        self.vcs[id].owner = None;
                        let m = self.messages[msg as usize];
                        self.totals.delivered_msgs += 1;
                        let now = self.cycle + 1; // tail consumed at cycle end
                        self.totals.sum_net_latency += (now - m.inject_cycle) as f64;
                        self.totals.sum_total_latency += (now - m.gen_cycle) as f64;
                        // Instant ack: delivery echoes the ECN bit to the
                        // source and frees one window slot.
                        if self.windowed {
                            self.in_flight_msgs[m.src_host] -= 1;
                            self.controllers[m.src_host].on_ack(m.marked);
                        }
                    }
                }
                _ => {
                    match self.vcs[id].buf.as_mut() {
                        Some(buf) => {
                            debug_assert_eq!(buf.msg, msg, "buffer holds one message");
                            debug_assert_eq!(buf.hi, idx, "flits arrive in order");
                            buf.hi += 1;
                        }
                        None => {
                            self.vcs[id].buf = Some(Buf {
                                msg,
                                lo: idx,
                                hi: idx + 1,
                            });
                        }
                    }
                    if self.pfc || self.ecn {
                        let occ = self.vcs[id].occupancy();
                        // XOFF: the buffer filled to the pause threshold.
                        if self.pfc && !self.vcs[id].paused && occ >= self.cfg.pfc_xoff as u32 {
                            self.vcs[id].paused = true;
                            self.totals.pfc_pauses += 1;
                            self.paused_now += 1;
                        }
                        // ECN: the flit met a congested queue; mark its
                        // message once (the CE bit is idempotent).
                        if self.ecn
                            && occ >= self.cfg.ecn_threshold as u32
                            && !self.messages[msg as usize].marked
                        {
                            self.messages[msg as usize].marked = true;
                            self.totals.ecn_marks += 1;
                        }
                    }
                }
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::super::simulate;
    use super::super::testutil::{tiny, updown};
    use crate::config::SimConfig;
    use crate::congestion::CongestionMode;
    use commsched_topology::designed;

    #[test]
    fn low_load_delivers_everything() {
        let topo = tiny();
        let routing = updown(&topo);
        let cfg = SimConfig {
            injection_rate: 0.05,
            warmup_cycles: 500,
            measure_cycles: 5_000,
            seed: 1,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &[0, 0], cfg).unwrap();
        assert!(stats.generated_messages > 0);
        let offered = 0.05;
        assert!(
            (stats.accepted_flits_per_host_cycle - offered).abs() < 0.02,
            "accepted {} vs offered {offered}",
            stats.accepted_flits_per_host_cycle
        );
        assert!(!stats.deadlocked);
        assert!(stats.max_source_queue <= 2);
    }

    #[test]
    fn zero_load_latency_close_to_pipeline_bound() {
        // One hop: channels crossed = inject + link + deliver = 3;
        // tail delivered after ~ 3 + (L - 1) cycles from injection.
        let topo = tiny();
        let routing = updown(&topo);
        let cfg = SimConfig {
            msg_len: 16,
            injection_rate: 0.01,
            warmup_cycles: 200,
            measure_cycles: 20_000,
            seed: 2,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &[0, 0], cfg).unwrap();
        let bound = 3.0 + 15.0;
        assert!(
            stats.avg_network_latency >= bound - 1e-9,
            "latency {} below pipeline bound {bound}",
            stats.avg_network_latency
        );
        assert!(
            stats.avg_network_latency < bound + 8.0,
            "latency {} too far above bound {bound} at near-zero load",
            stats.avg_network_latency
        );
    }

    #[test]
    fn saturation_caps_accepted_traffic() {
        let topo = tiny();
        let routing = updown(&topo);
        let cfg = SimConfig {
            injection_rate: 2.0, // far beyond the 1 flit/cycle link
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
            seed: 3,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &[0, 0], cfg).unwrap();
        assert!(stats.accepted_flits_per_host_cycle < 1.01);
        assert!(stats.accepted_flits_per_host_cycle > 0.3);
        assert!(stats.max_source_queue > 10);
        assert!(!stats.deadlocked);
    }

    #[test]
    fn same_switch_traffic_bypasses_links() {
        let topo = designed::ring(3, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 1, 1, 2, 2];
        let cfg = SimConfig {
            injection_rate: 0.5,
            warmup_cycles: 500,
            measure_cycles: 4_000,
            seed: 4,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &clusters, cfg).unwrap();
        assert!(stats.delivered_messages > 0);
        assert!(!stats.deadlocked);
    }

    #[test]
    fn pfc_pauses_and_pause_cycles_under_overload() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let stats = simulate(
            &topo,
            &routing,
            &clusters,
            SimConfig {
                injection_rate: 1.5,
                warmup_cycles: 500,
                measure_cycles: 4_000,
                congestion: CongestionMode::Pfc,
                seed: 65,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(stats.pfc_pauses > 0, "overload must assert XOFF");
        assert!(
            stats.pfc_pause_cycles >= stats.pfc_pauses,
            "every pause lasts at least one cycle"
        );
        assert_eq!(stats.ecn_marks, 0, "ECN is off in PFC mode");
        assert!(!stats.deadlocked);
        assert!(stats.delivered_messages > 0);
    }

    #[test]
    fn congestion_off_ignores_thresholds_and_reports_zero() {
        // With the regime off, the PFC/ECN knobs are inert: stats are
        // bit-identical whatever their values, and the congestion
        // counters stay zero — the open-loop engine is unchanged.
        let topo = designed::ring(6, 2);
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..12).map(|h| h / 6).collect();
        let base = SimConfig {
            injection_rate: 0.4,
            warmup_cycles: 300,
            measure_cycles: 2_000,
            seed: 67,
            ..Default::default()
        };
        let a = simulate(&topo, &routing, &clusters, base).unwrap();
        let b = simulate(
            &topo,
            &routing,
            &clusters,
            SimConfig {
                pfc_xoff: 2,
                pfc_xon: 0,
                ecn_threshold: 1,
                max_misroutes: 9,
                ..base
            },
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.ecn_marks, 0);
        assert_eq!(a.pfc_pauses, 0);
        assert_eq!(a.pfc_pause_cycles, 0);
        assert_eq!(a.misroutes, 0);
        assert_eq!(a.stalled_flits, 0);
    }
}
