//! Transfer: which flits move this cycle — credit-style flow control,
//! one flit per physical link, PFC pause and ECN marking on enqueue.

use super::{Buf, ChannelKind, Simulator, VcId};
use crate::config::{ECN_THRESHOLD, PFC_XOFF, PFC_XON};

/// The verdict of a VC that moves a flit into its buffer this cycle
/// (`Some(false)`: it does not; `None`: not examined — every VC between
/// cycles).
pub(super) const SENDS: Option<bool> = Some(true);

impl Simulator<'_> {
    /// Whether VC `id` has a flit available to send this cycle.
    pub(super) fn has_source(&self, id: VcId) -> bool {
        let vc = &self.vcs[id];
        match self.phys[vc.phys as usize].kind {
            // CORRECTNESS: set with the head message's claim, cleared when
            // its tail leaves: a VC the queue head owns (lockstep scan).
            ChannelKind::Inject { host, .. } => self.inject_vc[host] == Some(id),
            _ => vc.feeder.is_some_and(|ic| self.vcs[ic].buf.is_some()),
        }
    }

    /// Whether VC `id` moves a flit this cycle, physical-link exclusivity
    /// aside — or `Err(onward)` for a full buffer that passes every other
    /// test: credit-style, it accepts a flit iff its head departs in the
    /// same cycle, so its answer is its onward VC's.
    fn sends_or_defers(&self, id: VcId) -> Result<bool, VcId> {
        let ch = &self.phys[self.phys_of(id)];
        // A slowed-down link only transfers on its duty cycles.
        let duty = ch.period == 1 || self.cycle.is_multiple_of(ch.period);
        if !self.has_source(id) || !duty {
            return Ok(false);
        }
        if matches!(ch.kind, ChannelKind::Deliver { .. }) {
            return Ok(true);
        }
        let vc = &self.vcs[id];
        // A paused (XOFF) buffer accepts nothing, even if it would drain
        // this cycle — pause wins until XON.
        if self.pfc && vc.paused {
            return Ok(false);
        }
        if vc.occupancy() < self.cfg.buffer_flits as u32 {
            return Ok(true);
        }
        vc.fwd.map_or(Ok(false), Err)
    }

    /// Give `id`, and every undecided VC its answer hangs on, a verdict.
    fn decide(&mut self, id: VcId) {
        // CORRECTNESS: an onward chain is one worm. Every VC reached over
        // `fwd` is owned by the message buffered here and was free when
        // granted, so the chain ends without closing on itself, and the
        // end's answer is every deferring VC's: the least fixed point the
        // engine used to sweep to.
        let (mut end, mut hops) = (id, 0);
        let sends = loop {
            if let Some(decided) = self.verdict[end] {
                break decided;
            }
            #[cfg(test)]
            {
                self.work.vcs_examined += 1;
                self.examined[end] += 1;
            }
            match self.sends_or_defers(end) {
                Ok(sends) => break sends,
                Err(onward) => end = onward,
            }
            hops += 1;
            debug_assert!(hops < self.vcs.len(), "a worm's chain closed on itself");
        };
        let mut at = id;
        while at != end {
            self.verdict[at] = Some(sends);
            at = self.vcs[at].fwd.expect("deferred to its onward VC");
        }
        self.verdict[end] = Some(sends);
    }

    /// Physical exclusivity: keep at most one sending VC per physical
    /// channel (round-robin preference), then revoke the sends that
    /// relied on a revoked drain.
    fn arbitrate(&mut self, scan: &[VcId]) {
        let (v, vcs) = (self.vcs_per_phys, &self.vcs);
        for contenders in scan.chunk_by(|&a, &b| vcs[a].phys == vcs[b].phys) {
            let p = vcs[contenders[0]].phys as usize;
            let (ch, verdict) = (&mut self.phys[p], &mut self.verdict);
            // Index of a VC within its channel.
            let index = |id: VcId| id - p * v;
            let ready = || {
                contenders
                    .iter()
                    .copied()
                    .filter(|&id| verdict[id] == SENDS)
            };
            if ready().nth(1).is_none() {
                continue;
            }
            // The first ready VC at or after the rr pointer, else the first.
            let keep = ready()
                .find(|&id| index(id) >= ch.rr)
                .or_else(|| ready().next());
            let keep = keep.expect("two are ready");
            let next = index(keep) + 1;
            ch.rr = if next == v { 0 } else { next };
            for &id in contenders {
                if id != keep && verdict[id] == SENDS {
                    verdict[id] = Some(false);
                }
            }
        }
        // Cascade: a full buffer's send leaned on its onward VC's alone,
        // so each revocation travels up its own worm, feeder by feeder.
        let cap = self.cfg.buffer_flits as u32;
        for &id in scan {
            let mut at = id;
            while self.verdict[at] != SENDS {
                match self.vcs[at].feeder {
                    Some(up) if self.verdict[up] == SENDS && self.vcs[up].occupancy() >= cap => {
                        self.verdict[up] = Some(false);
                        at = up;
                    }
                    _ => break,
                }
            }
        }
    }

    /// Phase 3: move flits. Returns whether any flit moved.
    pub(super) fn transfer(&mut self) -> bool {
        // CORRECTNESS: has a source ⇒ owned (`has_source` needs
        // `inject_vc` or `feeder`, each set with `owner` and cleared
        // before it), and a parked VC is full with no onward VC or a
        // parked one, so it never sends, wins an arbitration or starts a
        // revocation: owned ∖ parked are the VCs that can move a flit.
        let mut scan = std::mem::take(&mut self.scan);
        scan.clear();
        let visits = &self.visits;
        scan.extend(visits.owned.difference(&visits.parked));
        #[cfg(test)]
        {
            let ids = 0..self.vcs.len();
            self.work.owned_vc_cycles +=
                self.vcs.iter().filter(|c| c.owner.is_some()).count() as u64;
            self.work.parked_vc_cycles +=
                ids.filter(|&id| self.parked_by_definition(id)).count() as u64;
        }
        for &id in &scan {
            if self.verdict[id].is_none() {
                self.decide(id);
            }
        }
        #[cfg(debug_assertions)]
        let rr_before = self.phys.iter().map(|ch| ch.rr).collect();
        if self.vcs_per_phys > 1 {
            self.arbitrate(&scan);
        }
        #[cfg(debug_assertions)]
        self.assert_moves_match_full_sweep(rr_before);

        // Apply the moves, in ascending VC id: the order is observable.
        // The occupancy PFC and ECN see at an enqueue depends on whether
        // the onward VC's pop came before it, and the latency sums are
        // floating-point sums in delivery order.
        let mut moved = false;
        for &id in &scan {
            if self.verdict[id].take() == SENDS {
                self.move_flit(id);
                moved = true;
            }
        }
        self.scan = scan;
        moved
    }

    /// Move one flit into VC `id`: pop it from the VC's source, push it
    /// into the VC's downstream buffer or sink.
    fn move_flit(&mut self, id: VcId) {
        let len = self.cfg.msg_len as u32;
        let phys = self.phys_of(id);
        self.channel_flits[phys] += 1;
        let (msg, idx) = match self.phys[phys].kind {
            ChannelKind::Inject { host, .. } => {
                let msg = self.vcs[id].owner.expect("inject source checked");
                let idx = self.next_flit[host];
                self.next_flit[host] += 1;
                if idx == 0 {
                    self.messages[msg as usize].inject_cycle = self.cycle;
                }
                if idx + 1 == len {
                    self.queues[host].pop_front();
                    self.visits.queued -= 1;
                    self.next_flit[host] = 0;
                    self.inject_vc[host] = None;
                    if !self.queues[host].is_empty() {
                        self.visits.awaiting_vc.push(host);
                    }
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
                    self.release(ic);
                    self.vcs[ic].fwd = None;
                    self.vcs[id].feeder = None;
                }
                // XON: the drain may release the feeder's pause.
                if self.pfc && self.vcs[ic].paused && self.vcs[ic].occupancy() <= PFC_XON as u32 {
                    self.vcs[ic].paused = false;
                    self.paused_now -= 1;
                }
                (msg, idx)
            }
        };
        if let ChannelKind::Deliver { .. } = self.phys[phys].kind {
            self.totals.delivered_flits += 1;
            if idx + 1 == len {
                self.release(id);
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
            return;
        }
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
        if idx == 0 {
            let s = self.phys[phys].kind.input_of();
            self.header_arrived(s.expect("a delivered flit returned above"), id);
        }
        if self.vcs[id].occupancy() >= self.cfg.buffer_flits as u32 {
            self.filled(id);
        }
        if self.pfc || self.ecn {
            let occ = self.vcs[id].occupancy();
            // XOFF: the buffer filled to the pause threshold.
            if self.pfc && !self.vcs[id].paused && occ >= PFC_XOFF as u32 {
                self.vcs[id].paused = true;
                self.totals.pfc_pauses += 1;
                self.paused_now += 1;
            }
            // ECN: the flit met a congested queue; mark its
            // message once (the CE bit is idempotent).
            if self.ecn && occ >= ECN_THRESHOLD as u32 && !self.messages[msg as usize].marked {
                self.messages[msg as usize].marked = true;
                self.totals.ecn_marks += 1;
            }
        }
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
        // With the regime off, the congestion knobs are inert: stats are
        // bit-identical whatever the misroute budget, and the congestion
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
