//! What a cycle visits: the worklists that let every per-cycle loop run
//! over what can change this cycle instead of over the network, the one
//! place each is written, and — in debug builds — the full scans they
//! must equal after every cycle. docs/SIMULATOR.md § "What a cycle
//! visits" names the five invariants the loops rest on; each is repeated
//! as a `CORRECTNESS:` comment at the line that relies on it.

use super::{ChannelKind, MsgId, Simulator, VcId};
use commsched_topology::SwitchId;

/// A set of VC ids: O(1) insert and remove, iterated in ascending id at
/// one word test per 64 ids plus one step per member.
#[derive(Debug, Clone, Default)]
pub(super) struct VcSet {
    words: Vec<u64>,
    len: usize,
}

impl VcSet {
    pub fn new(universe: usize) -> Self {
        let words = vec![0; universe.div_ceil(64)];
        Self { words, len: 0 }
    }

    fn insert(&mut self, id: VcId) {
        self.words[id / 64] |= 1 << (id % 64);
        self.len += 1;
    }

    fn remove(&mut self, id: VcId) {
        self.words[id / 64] &= !(1 << (id % 64));
        self.len -= 1;
    }

    pub fn contains(&self, id: VcId) -> bool {
        self.words[id / 64] & 1 << (id % 64) != 0
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Members in ascending id.
    #[cfg(any(test, debug_assertions))]
    pub fn iter(&self) -> impl Iterator<Item = VcId> + '_ {
        ids(self.words.iter().copied())
    }

    /// Members not in `other`, in ascending id.
    pub fn difference<'a>(&'a self, other: &'a VcSet) -> impl Iterator<Item = VcId> + 'a {
        ids(self.words.iter().zip(&other.words).map(|(a, b)| a & !b))
    }
}

/// The ids of the set bits of `words`, in ascending id.
fn ids(words: impl Iterator<Item = u64>) -> impl Iterator<Item = VcId> {
    words.enumerate().flat_map(|(w, word)| {
        let rest = |bits: &u64| Some(bits & (bits - 1)).filter(|&b| b != 0);
        std::iter::successors(Some(word).filter(|&b| b != 0), rest)
            .map(move |bits| w * 64 + bits.trailing_zeros() as usize)
    })
}

/// The worklists of one simulator.
#[derive(Debug, Clone, Default)]
pub(super) struct Visits {
    /// VCs with an owner; written by [`Simulator::claim`] and
    /// [`Simulator::release`] only.
    pub owned: VcSet,
    /// Owned VCs whose buffer is full and whose `fwd` is `None` or
    /// parked: nothing can enter them until their worm's header is
    /// granted. Entered by [`Simulator::filled`], left by
    /// [`Simulator::granted`] only.
    pub parked: VcSet,
    /// Per switch, in ascending id: the input VCs whose buffered header
    /// awaits an output VC (entered when flit 0 is enqueued, left when
    /// allocation grants).
    pub waiting: Vec<Vec<VcId>>,
    /// Per switch: something a waiting header could claim has changed
    /// since its headers were last tried.
    pub woken: Vec<bool>,
    /// Hosts with a head message and no injection VC.
    pub awaiting_vc: Vec<usize>,
    /// Messages sitting in source queues.
    pub queued: usize,
    /// Hosts whose queue was pushed since `max_queue` last sampled it.
    pub grown: Vec<usize>,
}

impl Simulator<'_> {
    /// The one place a VC gains its owner.
    pub(super) fn claim(&mut self, vc: VcId, msg: MsgId) {
        debug_assert_eq!(self.vcs[vc].owner, None, "VC {vc} claimed twice");
        self.vcs[vc].owner = Some(msg);
        self.visits.owned.insert(vc);
    }

    /// The one place a VC loses its owner. A freed output is an event at
    /// the switch it leaves: only headers waiting there can claim it.
    /// (A freed injection VC concerns its host, which asks every cycle.)
    pub(super) fn release(&mut self, vc: VcId) {
        debug_assert!(self.vcs[vc].owner.is_some(), "VC {vc} was free");
        self.vcs[vc].owner = None;
        self.visits.owned.remove(vc);
        let s = match self.phys[self.phys_of(vc)].kind {
            ChannelKind::Switch { from, .. } => from,
            ChannelKind::Deliver { host } => self.switch_of_host(host),
            ChannelKind::Inject { .. } => return,
        };
        self.visits.woken[s] = true;
    }

    /// Flit 0 of a message was enqueued into input VC `vc` of switch `s`.
    pub(super) fn header_arrived(&mut self, s: SwitchId, vc: VcId) {
        let list = &mut self.visits.waiting[s];
        let at = list.binary_search(&vc).expect_err("one header per buffer");
        list.insert(at, vc);
        self.visits.woken[s] = true;
        let msg = self.vcs[vc].buf.expect("flit 0 was enqueued").msg;
        let m = self.messages[msg as usize];
        self.entry_at[vc] = self.candidate_entry(s, &m);
    }

    /// An enqueue filled `vc`'s buffer. If nothing ahead of it can drain
    /// (no onward VC yet, or a parked one), it parks, and so does every
    /// full feeder behind it. A feeder this reaches has made its own move
    /// of the cycle: the walk starts at a VC that just popped it.
    pub(super) fn filled(&mut self, mut vc: VcId) {
        let parked = &mut self.visits.parked;
        if self.vcs[vc].fwd.is_some_and(|f| !parked.contains(f)) {
            return;
        }
        let cap = self.cfg.buffer_flits as u32;
        loop {
            debug_assert!(!parked.contains(vc), "VC {vc} parked twice");
            parked.insert(vc);
            match self.vcs[vc].feeder {
                Some(up) if self.vcs[up].occupancy() >= cap => vc = up,
                _ => return,
            }
        }
    }

    /// The header buffered at `ic` was granted an onward VC: its worm can
    /// drain, so `ic` and the parked feeders behind it unpark.
    pub(super) fn granted(&mut self, ic: VcId) {
        let mut at = Some(ic);
        while let Some(vc) = at.filter(|&vc| self.visits.parked.contains(vc)) {
            self.visits.parked.remove(vc);
            at = self.vcs[vc].feeder;
        }
    }
}

#[cfg(any(test, debug_assertions))]
impl Simulator<'_> {
    /// Invariant 5 from its definition: owned, buffer full, and `fwd`
    /// `None` or parked.
    pub(super) fn parked_by_definition(&self, id: VcId) -> bool {
        let vc = &self.vcs[id];
        vc.owner.is_some()
            && vc.occupancy() >= self.cfg.buffer_flits as u32
            && vc.fwd.is_none_or(|f| self.parked_by_definition(f))
    }
}

/// Lockstep references: what the worklists replace, recomputed by full
/// scan. Every debug-build cycle of every test runs them, so a missed
/// insert or release fails at the cycle it happens.
#[cfg(debug_assertions)]
impl Simulator<'_> {
    /// After a cycle: every worklist equals the scan it stands for.
    pub(super) fn assert_visits_match_full_scans(&self) {
        let v = &self.visits;
        let owned = (0..self.vcs.len()).filter(|&id| self.vcs[id].owner.is_some());
        assert!(v.owned.iter().eq(owned.clone()), "owned set drifted");
        assert_eq!(v.owned.len, owned.count(), "owned count drifted");
        let parked = (0..self.vcs.len()).filter(|&id| self.parked_by_definition(id));
        assert!(v.parked.iter().eq(parked.clone()), "parked set drifted");
        assert_eq!(v.parked.len, parked.count(), "parked count drifted");

        let mut waiting = vec![Vec::new(); v.waiting.len()];
        for (id, vc) in self.vcs.iter().enumerate() {
            let at = self.phys[id / self.vcs_per_phys].kind.input_of();
            if let (Some(s), Some(buf), None) = (at, vc.buf, vc.fwd) {
                if buf.lo == 0 {
                    waiting[s].push(id);
                }
            }
        }
        assert_eq!(v.waiting, waiting, "waiting headers drifted");
        for (s, headers) in waiting.iter().enumerate() {
            for &ic in headers.iter().filter(|_| !v.woken[s]) {
                let grant = self.grantable(s, ic);
                assert_eq!(grant, None, "switch {s} sleeps on a grantable header");
            }
        }
        // `has_source` trusts `inject_vc` alone for an injection VC.
        for (host, &vc) in self.inject_vc.iter().enumerate() {
            if let Some(vc) = vc {
                let head = self.queues[host].front().copied();
                let owner = self.vcs[vc].owner;
                assert!(
                    owner.is_some() && owner == head,
                    "host {host}'s VC is not its head's"
                );
            }
        }

        let mut awaiting = v.awaiting_vc.clone();
        awaiting.sort_unstable();
        let no_vc = |&h: &usize| !self.queues[h].is_empty() && self.inject_vc[h].is_none();
        let want: Vec<usize> = (0..self.queues.len()).filter(no_vc).collect();
        assert_eq!(awaiting, want, "hosts awaiting an injection VC drifted");
        let queued: usize = self.queues.iter().map(|q| q.len()).sum();
        assert_eq!(v.queued, queued, "queued-message count drifted");
        assert!(
            self.max_queue >= self.longest_queue(),
            "max_queue fell behind"
        );
    }

    /// A table entry read for message `m` at switch `s` equals what the
    /// routers answer now, mapped by `link_channel`.
    pub(super) fn assert_entry_matches_routers(
        &self,
        s: SwitchId,
        m: &super::Message,
        entry: super::route::Entry,
    ) {
        #[cfg(test)]
        self.reference_reads.set(self.reference_reads.get() + 1);
        let fresh = self.ask_routers(s, m);
        assert_eq!(
            self.routes.classes(entry),
            fresh.each_ref().map(Vec::as_slice),
            "cycle {}: the candidate table disagrees with the routers at switch {s}",
            self.cycle
        );
    }

    /// Before the apply pass: the verdicts equal the moves computed the
    /// way the engine did before it kept an owned set — sweep every VC to
    /// the least fixed point, arbitrate every channel from the pointers
    /// `rr` it had when this cycle began, sweep the revocations to their
    /// fixed point.
    pub(super) fn assert_moves_match_full_sweep(&self, mut rr: Vec<usize>) {
        let (v, cap) = (self.vcs_per_phys, self.cfg.buffer_flits as u32);
        let mut send = vec![false; self.vcs.len()];
        let drains = |send: &[bool], id: VcId| {
            self.vcs[id].occupancy() < cap || self.vcs[id].fwd.is_some_and(|f| send[f])
        };
        let deliver = |id: VcId| matches!(self.phys[id / v].kind, ChannelKind::Deliver { .. });
        let mut changed = true;
        while std::mem::take(&mut changed) {
            for id in 0..send.len() {
                let ch = &self.phys[id / v];
                let open = !ch.dead && self.cycle.is_multiple_of(ch.period);
                let space =
                    deliver(id) || (!(self.pfc && self.vcs[id].paused) && drains(&send, id));
                if !send[id] && self.has_source(id) && open && space {
                    send[id] = true;
                    changed = true;
                }
            }
        }
        for (p, rr) in rr.iter_mut().enumerate().filter(|_| v > 1) {
            let ready: Vec<usize> = (0..v).filter(|&i| send[p * v + i]).collect();
            if ready.len() > 1 {
                let keep = *ready.iter().find(|&&i| i >= *rr).unwrap_or(&ready[0]);
                ready.iter().for_each(|&i| send[p * v + i] = i == keep);
                *rr = (keep + 1) % v;
            }
        }
        changed = v > 1;
        while std::mem::take(&mut changed) {
            for id in 0..send.len() {
                if send[id] && !deliver(id) && !drains(&send, id) {
                    send[id] = false;
                    changed = true;
                }
            }
        }
        let got: Vec<bool> = self
            .verdict
            .iter()
            .map(|&v| v == super::transfer::SENDS)
            .collect();
        assert_eq!(
            got, send,
            "cycle {}: moves differ from the sweep",
            self.cycle
        );
        assert!(
            self.phys.iter().map(|ch| ch.rr).eq(rr),
            "arbitration pointers"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{assert_drains_conserved, updown};
    use super::super::{ChannelKind, Simulator};
    use crate::config::SimConfig;
    use crate::congestion::CongestionMode;
    use crate::traffic::TrafficPattern;
    use commsched_topology::{designed, Topology, TopologyBuilder};

    /// A ring of eight with two chords, two workstations per switch, one
    /// link at a third and one at half speed.
    fn chorded_ring() -> Topology {
        TopologyBuilder::new(8, 2)
            .links([(0, 1), (2, 3), (3, 4), (4, 5), (6, 7), (7, 0)])
            .links([(0, 4), (2, 6)])
            .link_with_slowdown(1, 2, 3)
            .link_with_slowdown(5, 6, 2)
            .build()
            .unwrap()
    }

    /// The goldens sample the configuration space; this walks it, so the
    /// lockstep references (which run inside every `advance` of a debug
    /// build) see every class of state: each congestion mode × 1–3 VCs
    /// with and without the Duato protocol × misrouting where it is legal,
    /// on a network with slowed links, through a link killed and restored
    /// mid-run, below, at and far past saturation, and through a drain.
    #[test]
    fn lockstep_references_hold_across_the_configuration_matrix() {
        let topo = chorded_ring();
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..16).map(|h| h / 8).collect();
        let (mut pauses, mut marks, mut misroutes) = (0, 0, 0);
        for mode in CongestionMode::ALL {
            for (vcs, duato) in [(1, false), (2, false), (3, false), (2, true), (3, true)] {
                // Misrouting applies to the base router only.
                for misroute in [false, true].into_iter().filter(|&m| !(m && duato)) {
                    // ≈ 0.1 ×, 1 × and 3 × this network's saturation rate.
                    for rate in [0.03, 0.3, 0.9] {
                        let cfg = SimConfig {
                            msg_len: 8,
                            injection_rate: rate,
                            seed: 0xA11,
                            congestion: mode,
                            virtual_channels: vcs,
                            fully_adaptive: duato,
                            adaptive_misroute: misroute,
                            ..Default::default()
                        };
                        let what = format!(
                            "{mode} vcs={vcs} duato={duato} misroute={misroute} rate={rate}"
                        );
                        let pattern = TrafficPattern::new(clusters.clone());
                        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
                        assert!(!sim.advance(200), "{what}: healthy");
                        sim.kill_link(0, 4).unwrap();
                        assert!(!sim.advance(120), "{what}: link down");
                        sim.restore_link(0, 4).unwrap();
                        assert!(!sim.advance(120), "{what}: link back");
                        assert_drains_conserved(&mut sim, 50_000, &what);
                        pauses += sim.totals.pfc_pauses;
                        marks += sim.totals.ecn_marks;
                        misroutes += sim.totals.misroutes;
                    }
                }
            }
        }
        assert!(
            pauses > 0 && marks > 0 && misroutes > 0,
            "a regime never engaged"
        );
    }

    #[test]
    fn an_empty_network_costs_no_vc_and_no_header() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let pattern = TrafficPattern::new(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let cfg = SimConfig {
            injection_rate: 0.3,
            seed: 7,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        sim.advance(2_000);
        assert_drains_conserved(&mut sim, 5_000, "ring");
        let drained = sim.work;
        assert!(drained.vcs_examined > 0 && drained.headers_tried > 0);
        // `drain` left the offered load at zero.
        sim.advance(1_000);
        assert_eq!(
            sim.work, drained,
            "idle cycles examined a VC or tried a header"
        );
    }

    #[test]
    fn a_frozen_network_tries_no_header_until_its_link_is_restored() {
        // The `kill_stall_restore` network of tests/golden.rs: two
        // triangles joined by the bridge 2-3, one application everywhere.
        // The watchdog is set out of reach so the frozen network can
        // still be stepped.
        let topo = TopologyBuilder::new(6, 2)
            .links([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
            .build()
            .unwrap();
        let routing = updown(&topo);
        let cfg = SimConfig {
            injection_rate: 0.5,
            deadlock_threshold: u64::MAX,
            seed: 0xFA17,
            ..Default::default()
        };
        let mut sim =
            Simulator::new(&topo, &routing, TrafficPattern::new(vec![0; 12]), cfg).unwrap();
        sim.advance(1_000);
        sim.kill_link(2, 3).unwrap();
        while sim.cycle - sim.last_progress < 300 {
            sim.advance(100);
            assert!(sim.cycle < 20_000, "the cut network never froze");
        }
        let (frozen, last_move) = (sim.work, sim.last_progress);
        sim.advance(1_000);
        assert_eq!(sim.last_progress, last_move, "a flit moved");
        assert_eq!(sim.work.headers_tried, frozen.headers_tried);
        assert_eq!(sim.work.switch_visits, frozen.switch_visits);
        // Restoring the link wakes its two ends, and nobody else.
        let at_the_ends = sim.visits.waiting[2].len() + sim.visits.waiting[3].len();
        let elsewhere: usize = [0, 1, 4, 5]
            .iter()
            .map(|&s| sim.visits.waiting[s].len())
            .sum();
        assert!(
            at_the_ends > 0 && elsewhere > 0,
            "{at_the_ends} / {elsewhere}"
        );
        sim.restore_link(2, 3).unwrap();
        sim.advance(1);
        assert_eq!(
            sim.work.headers_tried - frozen.headers_tried,
            at_the_ends as u64
        );
        assert!(sim.last_progress > last_move, "traffic resumed");
    }

    #[test]
    fn at_low_load_the_work_is_the_traffic_not_the_network() {
        let topo = designed::paper_24_switch();
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..96).map(|h| (h / 4) / 6).collect();
        let cfg = SimConfig {
            injection_rate: 0.02, // ≈ 0.1 × saturation
            seed: 5,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, TrafficPattern::new(clusters), cfg).unwrap();
        sim.advance(5_000);
        assert_drains_conserved(&mut sim, 5_000, "paper24");
        let work = sim.work;
        assert_eq!(
            work.vcs_examined + work.parked_vc_cycles,
            work.owned_vc_cycles
        );
        let sweeping = sim.vcs.len() as u64 * sim.cycle;
        assert!(work.vcs_examined * 20 < sweeping, "{work:?} of {sweeping}");
        // A visit needs an event since the last one (it may try several
        // headers). With no link event, the events of a drained run are
        // counted by its channels: a message's header arrived once per
        // injection and switch channel it crossed, and it released one
        // output VC per switch and delivery channel.
        let flits = |want: fn(ChannelKind) -> bool| -> u64 {
            let crossed = sim.phys.iter().zip(&sim.channel_flits);
            crossed
                .filter(|(ch, _)| want(ch.kind))
                .map(|(_, &n)| n)
                .sum()
        };
        let inject = flits(|k| matches!(k, ChannelKind::Inject { .. }));
        let switch = flits(|k| matches!(k, ChannelKind::Switch { .. }));
        let deliver = flits(|k| matches!(k, ChannelKind::Deliver { .. }));
        let events = (inject + 2 * switch + deliver) / cfg.msg_len as u64;
        assert!(
            work.switch_visits > 0 && work.switch_visits <= events,
            "{work:?} vs {events}"
        );
        assert!(work.headers_tried >= work.switch_visits);
    }

    #[test]
    fn past_saturation_a_parked_worm_is_not_examined_until_its_grant() {
        let topo = designed::paper_24_switch();
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..96).map(|h| (h / 4) / 6).collect();
        let cfg = SimConfig {
            injection_rate: 0.6, // ≈ 3 × saturation
            seed: 5,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, TrafficPattern::new(clusters), cfg).unwrap();
        sim.advance(3_000);
        let work = sim.work;
        assert_eq!(
            work.vcs_examined + work.parked_vc_cycles,
            work.owned_vc_cycles
        );
        // Most of a saturated network is worms waiting for a grant
        // behind full buffers (0.68 of the owned VC-cycles here).
        assert!(work.parked_vc_cycles * 2 > work.owned_vc_cycles, "{work:?}");

        // A parked chain: a header awaiting its grant in a full buffer,
        // and the full buffers of its worm behind it.
        let parked = |sim: &Simulator<'_>, id: usize| sim.visits.parked.contains(id);
        let behind =
            |sim: &Simulator<'_>, id: usize| sim.vcs[id].feeder.filter(|&up| parked(sim, up));
        let head = sim
            .visits
            .parked
            .iter()
            .find(|&id| sim.vcs[id].fwd.is_none() && behind(&sim, id).is_some());
        let head = head.expect("a parked worm two buffers long");
        let chain: Vec<usize> = std::iter::successors(Some(head), |&id| behind(&sim, id)).collect();
        let mut cycles = 0;
        loop {
            let before: Vec<u64> = chain.iter().map(|&id| sim.examined[id]).collect();
            sim.advance(1);
            cycles += 1;
            let after: Vec<u64> = chain.iter().map(|&id| sim.examined[id]).collect();
            if sim.vcs[head].fwd.is_none() {
                assert_eq!(
                    after, before,
                    "cycle {}: a parked VC was examined",
                    sim.cycle
                );
                assert!(chain.iter().all(|&id| parked(&sim, id)));
                assert!(cycles < 20_000, "the header was never granted");
                continue;
            }
            // Granted in this cycle's allocation: the worm unparked and
            // its transfer examined every VC of it once.
            assert!(after.iter().zip(&before).all(|(a, b)| a == &(b + 1)));
            assert!(!chain.iter().any(|&id| parked(&sim, id)));
            break;
        }
    }
}
