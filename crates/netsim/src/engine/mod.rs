//! The cycle-driven flit-level wormhole simulator.
//!
//! Modelled after the evaluation methodology of Duato (§5): the network is
//! simulated at the flit level; switching is wormhole, links carry one flit
//! per cycle per direction, and each virtual channel has a small input
//! buffer at its downstream end. A message's header claims (virtual)
//! channels hop by hop along minimal routes supplied by the routing
//! algorithm; body flits follow in pipeline; the tail releases each channel
//! as it passes.
//!
//! ## Channel model
//!
//! Three *physical* channel kinds, all with identical flow control:
//!
//! * **switch→switch** — two per topology link (one per direction);
//! * **injection** (host→switch) — the host's source queue streams each
//!   message's flits into a switch input buffer;
//! * **delivery** (switch→host) — the sink; flits are consumed on arrival.
//!
//! Every physical channel is split into `virtual_channels` virtual
//! channels (VCs), each with its own `buffer_flits`-deep buffer; the
//! physical link transmits at most one flit per cycle, arbitrated
//! round-robin among VCs with a ready flit.
//!
//! ## Routing modes
//!
//! * `virtual_channels = 1` (default, the paper's setting): all traffic
//!   follows minimal routes of the supplied router — up*/down* in the
//!   paper's experiments, which is deadlock-free without VCs.
//! * `fully_adaptive = true` with `virtual_channels ≥ 2`: Duato's
//!   methodology — VCs 1.. are *adaptive* and may follow any topological
//!   minimal path; VC 0 is the *escape* channel restricted to the supplied
//!   (deadlock-free) router. A header blocked on every adaptive candidate
//!   falls back to the escape channel and stays on the escape network for
//!   the rest of its route ("sticky escape"), which keeps the escape
//!   channel-dependency graph acyclic and the whole scheme deadlock-free.
//!
//! ## Cycle structure
//!
//! 1. *Generation*: every workstation flips a Bernoulli coin (rate
//!    `injection_rate / msg_len`).
//! 2. *Allocation*: source queues claim an injection VC; headers at the
//!    front of a VC buffer request an output VC, and free VCs are granted
//!    in rotating-priority order across inputs.
//! 3. *Transfer*: over the owned, unparked VCs, the optimistic set of moves
//!    (a full buffer may still accept a flit if it drains in the same
//!    cycle: its answer is its onward VC's, so each worm's chain is
//!    followed to its end once), then physical-link exclusivity
//!    (round-robin winner per physical channel, revocations cascading up
//!    the chains that relied on them), then the moves are applied in
//!    ascending VC id.
//!
//! A watchdog aborts and flags the run if no flit moves for a configurable
//! number of cycles while messages are in flight.
//!
//! No phase loops over the network: each runs over a worklist kept where
//! the state it stands for is written (`visit.rs`; docs/SIMULATOR.md
//! § "What a cycle visits" names the invariants).
//!
//! ## Module map
//!
//! Each file of this module owns one decision — its header says which,
//! and docs/SIMULATOR.md has the map.

mod alloc;
mod inject;
mod route;
mod stall;
mod transfer;
mod visit;
mod window;

pub use stall::StallReport;
use window::Counters;
pub(crate) use window::{count_sweep_probes, Phase};

use crate::config::SimConfig;
use crate::congestion::CongestionControl;
use crate::stats::SimStats;
use crate::traffic::TrafficPattern;
use commsched_routing::{Routing, ShortestPathRouting};
use commsched_topology::{SwitchId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

type MsgId = u32;
/// Index of a physical channel.
type PhysId = usize;
/// Global index of a virtual channel (`phys * V + vc`).
type VcId = usize;

/// Errors raised when constructing a simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Invalid configuration field.
    Config(&'static str),
    /// The traffic pattern's host count does not match the topology.
    HostCountMismatch {
        /// Hosts in the traffic pattern.
        pattern: usize,
        /// Workstations in the topology.
        topology: usize,
    },
    /// Topology and routing disagree on the switch count.
    RoutingMismatch {
        /// Switches in the topology.
        topology: usize,
        /// Switches in the router.
        routing: usize,
    },
    /// A link-kill/restore named a pair of switches with no link.
    NoSuchLink {
        /// One endpoint.
        a: SwitchId,
        /// The other endpoint.
        b: SwitchId,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid config: {msg}"),
            SimError::HostCountMismatch { pattern, topology } => {
                write!(f, "pattern has {pattern} hosts, topology {topology}")
            }
            SimError::RoutingMismatch { topology, routing } => {
                write!(f, "topology has {topology} switches, routing {routing}")
            }
            SimError::NoSuchLink { a, b } => {
                write!(f, "no link between switches {a} and {b}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Metadata of one in-flight or delivered message.
#[derive(Debug, Clone, Copy)]
struct Message {
    dst_host: usize,
    /// Generating workstation (the ECN echo's return address).
    src_host: usize,
    gen_cycle: u64,
    /// Cycle the header entered the network; `u64::MAX` until then.
    inject_cycle: u64,
    /// Whether the message has committed to the escape network.
    escape: bool,
    /// Escape-phase bit (meaningful while `escape`, or always in
    /// single-VC mode where every hop follows the supplied router).
    descended: bool,
    /// ECN congestion-experienced bit: set when any flit is enqueued
    /// into a buffer at or past the marking threshold, echoed to the
    /// source controller when the tail is delivered.
    marked: bool,
    /// Non-minimal hops this message has taken (≤ `max_misroutes`).
    misroutes: u32,
}

impl Message {
    /// A message generated at `src_host` in cycle `now`, not yet injected.
    fn new(src_host: usize, dst_host: usize, now: u64) -> Self {
        Self {
            dst_host,
            src_host,
            gen_cycle: now,
            inject_cycle: u64::MAX,
            escape: false,
            descended: false,
            marked: false,
            misroutes: 0,
        }
    }
}

/// Contiguous run of one message's flits inside a VC buffer: flit indices
/// `lo..hi` (header is flit 0, tail is `msg_len - 1`).
#[derive(Debug, Clone, Copy)]
struct Buf {
    msg: MsgId,
    lo: u32,
    hi: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChannelKind {
    /// Switch-to-switch, downstream buffers at `to`.
    Switch { from: SwitchId, to: SwitchId },
    /// Host source into the input buffers of its switch `to`.
    Inject { host: usize, to: SwitchId },
    /// Switch to host sink.
    Deliver { host: usize },
}

impl ChannelKind {
    /// The switch whose input buffers this channel fills; `None` for a
    /// delivery channel, whose far end is a host.
    fn input_of(self) -> Option<SwitchId> {
        match self {
            ChannelKind::Switch { to, .. } | ChannelKind::Inject { to, .. } => Some(to),
            ChannelKind::Deliver { .. } => None,
        }
    }
}

/// One virtual channel's state.
#[derive(Debug, Clone, Default)]
struct VirtualChannel {
    /// Flits currently in the downstream buffer (all of one message).
    buf: Option<Buf>,
    /// Message that has claimed this VC (allocation → tail departure);
    /// written by `Simulator::claim` / `release` only.
    owner: Option<MsgId>,
    /// For VCs ending at a switch: the onward VC allocated to the
    /// buffered message.
    fwd: Option<VcId>,
    /// For VCs starting at a switch: the input VC feeding them.
    feeder: Option<VcId>,
    /// PFC pause state: while asserted, no flit may be transferred into
    /// this VC's buffer (upstream stalls in place).
    paused: bool,
    /// The physical channel (`id / V`, read instead of divided).
    phys: u32,
}

impl VirtualChannel {
    fn occupancy(&self) -> u32 {
        self.buf.map_or(0, |b| b.hi - b.lo)
    }
}

/// One physical channel: its kind, the round-robin arbitration pointer
/// over its VCs, its slowdown period (a flit may cross only on cycles
/// divisible by `period`; 1 = full speed), and whether a mid-run fault
/// has killed it (a dead channel transmits nothing and is never granted
/// to a new header — flits are stalled, never dropped).
#[derive(Debug, Clone)]
struct PhysChannel {
    kind: ChannelKind,
    rr: usize,
    period: u64,
    dead: bool,
}

impl PhysChannel {
    fn new(kind: ChannelKind, period: u64) -> Self {
        Self {
            kind,
            rr: 0,
            period,
            dead: false,
        }
    }
}

/// The flit-level network simulator for one (topology, routing, mapping)
/// triple.
pub struct Simulator<'a> {
    topo: &'a Topology,
    routing: &'a dyn Routing,
    /// Minimal router for the adaptive VCs (built when `fully_adaptive`).
    adaptive: Option<ShortestPathRouting>,
    pattern: TrafficPattern,
    cfg: SimConfig,
    vcs_per_phys: usize,
    rng: StdRng,
    phys: Vec<PhysChannel>,
    vcs: Vec<VirtualChannel>,
    /// Input physical channels of each switch, in ascending id.
    inputs: Vec<Vec<PhysId>>,
    inject_base: PhysId,
    deliver_base: PhysId,
    messages: Vec<Message>,
    /// Hosts that draw in `generate`, in host order.
    sources: Vec<usize>,
    /// Each source's per-cycle probability of generating a message at
    /// the current `cfg.injection_rate`.
    draw_p: f64,
    /// Pending messages per host (head is streaming).
    queues: Vec<VecDeque<MsgId>>,
    /// Next flit index of the streaming (head) message per host.
    next_flit: Vec<u32>,
    /// Injection VC the head message streams on, once claimed.
    inject_vc: Vec<Option<VcId>>,
    cycle: u64,
    last_progress: u64,
    /// Cumulative counters; a window reports the difference of two copies.
    totals: Counters,
    max_queue: usize,
    /// Flits forwarded per physical channel (cumulative; diagnostics).
    channel_flits: Vec<u64>,
    /// What the per-cycle loops run over instead of the network.
    visits: visit::Visits,
    /// Each header's candidate outputs, asked of the router once.
    routes: route::Table,
    /// The table entry of the header buffered at each input VC, set when
    /// it arrives, so an ask makes no lookup.
    entry_at: Vec<route::Entry>,
    // Scratch for transfer: this cycle's verdict per VC (undecided
    // between cycles) and the owned VCs it examines.
    verdict: Vec<Option<bool>>,
    scan: Vec<VcId>,
    // Congestion layer. The three flags cache `cfg.congestion`'s feature
    // set; with all of them false the per-cycle loops take no new
    // branches with side effects, keeping `Off` runs bit-identical to
    // the pre-congestion engine.
    pfc: bool,
    ecn: bool,
    windowed: bool,
    /// Per-source window controllers (`windowed` modes only).
    controllers: Vec<Box<dyn CongestionControl>>,
    /// Messages per source with a claimed injection VC whose tail has
    /// not been delivered (the quantity the window bounds).
    in_flight_msgs: Vec<u32>,
    /// Currently paused VCs (PFC bookkeeping for pause-cycle totals).
    paused_now: u32,
    #[cfg(test)]
    work: testutil::Work,
    /// Times `transfer` examined each VC.
    #[cfg(test)]
    examined: Vec<u64>,
    /// Candidate-table reads the debug reference checked against a fresh
    /// router answer (each asks the supplied router's `next_hops` once).
    #[cfg(test)]
    reference_reads: std::cell::Cell<u64>,
}

impl<'a> Simulator<'a> {
    /// Build a simulator.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn new(
        topo: &'a Topology,
        routing: &'a dyn Routing,
        pattern: TrafficPattern,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Config)?;
        if pattern.num_hosts() != topo.num_hosts() {
            return Err(SimError::HostCountMismatch {
                pattern: pattern.num_hosts(),
                topology: topo.num_hosts(),
            });
        }
        if routing.num_switches() != topo.num_switches() {
            return Err(SimError::RoutingMismatch {
                topology: topo.num_switches(),
                routing: routing.num_switches(),
            });
        }
        let adaptive = if cfg.fully_adaptive && cfg.virtual_channels >= 2 {
            Some(ShortestPathRouting::new(topo).map_err(|_| {
                SimError::Config("fully adaptive routing needs a connected topology")
            })?)
        } else {
            None
        };

        let num_hosts = topo.num_hosts();
        let mut phys = Vec::with_capacity(2 * topo.num_links() + 2 * num_hosts);
        for (id, link) in topo.links().iter().enumerate() {
            let period = u64::from(topo.link_slowdown(id));
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                phys.push(PhysChannel::new(ChannelKind::Switch { from, to }, period));
            }
        }
        let inject_base = phys.len();
        let hps = topo.hosts_per_switch();
        for host in 0..num_hosts {
            let to = host / hps;
            phys.push(PhysChannel::new(ChannelKind::Inject { host, to }, 1));
        }
        let deliver_base = phys.len();
        phys.extend((0..num_hosts).map(|host| PhysChannel::new(ChannelKind::Deliver { host }, 1)));

        let mut inputs = vec![Vec::new(); topo.num_switches()];
        for (c, ch) in phys.iter().enumerate() {
            if let Some(s) = ch.kind.input_of() {
                inputs[s].push(c);
            }
        }

        // CORRECTNESS: allocation serves a switch's waiting headers by VC
        // id, rotated — that is input order only while `inputs` ascends.
        debug_assert!(inputs.iter().all(|list| list.is_sorted()));

        let v = cfg.virtual_channels;
        let num_vcs = phys.len() * v;
        let rng = StdRng::seed_from_u64(cfg.seed);
        let controllers: Vec<_> = (0..num_hosts)
            .filter_map(|_| cfg.congestion.controller())
            .collect();
        let mut sim = Self {
            pfc: cfg.congestion.uses_pfc(),
            ecn: cfg.congestion.uses_ecn(),
            windowed: cfg.congestion.uses_window(),
            controllers,
            in_flight_msgs: vec![0; num_hosts],
            paused_now: 0,
            topo,
            routing,
            adaptive,
            pattern,
            cfg,
            vcs_per_phys: v,
            rng,
            visits: visit::Visits {
                owned: visit::VcSet::new(num_vcs),
                parked: visit::VcSet::new(num_vcs),
                waiting: vec![Vec::new(); topo.num_switches()],
                woken: vec![false; topo.num_switches()],
                ..Default::default()
            },
            routes: route::Table::default(),
            entry_at: vec![Default::default(); num_vcs],
            verdict: vec![None; num_vcs],
            scan: Vec::new(),
            vcs: (0..num_vcs)
                .map(|id| VirtualChannel {
                    phys: (id / v) as u32,
                    ..Default::default()
                })
                .collect(),
            channel_flits: vec![0; phys.len()],
            phys,
            inputs,
            inject_base,
            deliver_base,
            messages: Vec::new(),
            sources: Vec::new(),
            draw_p: 0.0,
            queues: vec![VecDeque::new(); num_hosts],
            next_flit: vec![0; num_hosts],
            inject_vc: vec![None; num_hosts],
            cycle: 0,
            last_progress: 0,
            totals: Counters::default(),
            max_queue: 0,
            #[cfg(test)]
            work: testutil::Work::default(),
            #[cfg(test)]
            examined: vec![0; num_vcs],
            #[cfg(test)]
            reference_reads: Default::default(),
        };
        sim.set_injection_rate(cfg.injection_rate);
        Ok(sim)
    }

    fn switch_of_host(&self, host: usize) -> SwitchId {
        let inject = self.phys[self.inject_base + host].kind;
        inject
            .input_of()
            .expect("an injection channel ends at a switch")
    }

    /// The physical channel of VC `id`.
    fn phys_of(&self, id: VcId) -> PhysId {
        self.vcs[id].phys as PhysId
    }

    /// Physical channel from switch `s` toward neighbour `v`.
    fn link_channel(&self, s: SwitchId, v: SwitchId) -> PhysId {
        let link = self
            .topo
            .link_between(s, v)
            .expect("routing only proposes neighbours");
        if self.topo.link(link).a == s {
            2 * link
        } else {
            2 * link + 1
        }
    }

    #[inline]
    fn vc_id(&self, phys: PhysId, vc: usize) -> VcId {
        phys * self.vcs_per_phys + vc
    }

    /// Cumulative flits forwarded over each topology link (both
    /// directions summed), indexed by `LinkId`. Diagnostics: with
    /// up*/down* routing the links near the spanning-tree root carry a
    /// disproportionate share (the §2 motivation for the distance model).
    pub fn link_flit_counts(&self) -> Vec<u64> {
        let mut per_link = vec![0u64; self.topo.num_links()];
        for (c, &count) in self.channel_flits.iter().enumerate() {
            if let ChannelKind::Switch { .. } = self.phys[c].kind {
                per_link[c / 2] += count;
            }
        }
        per_link
    }

    /// Cumulative flits injected by each workstation.
    pub fn host_injected_flits(&self) -> Vec<u64> {
        (0..self.topo.num_hosts())
            .map(|h| self.channel_flits[self.inject_base + h])
            .collect()
    }

    /// Flits injected and not yet delivered: what the network's buffers
    /// hold right now.
    pub(crate) fn flits_in_network(&self) -> u64 {
        let injected: u64 = self.channel_flits[self.inject_base..self.deliver_base]
            .iter()
            .sum();
        injected - self.totals.delivered_flits
    }

    /// Flits forwarded so far over the busiest directed switch-to-switch
    /// channel (0 on a network without links).
    pub(crate) fn busiest_link_flits(&self) -> u64 {
        let links = &self.channel_flits[..self.inject_base];
        links.iter().copied().max().unwrap_or(0)
    }

    /// Kill the link between switches `a` and `b` mid-run: both of its
    /// directed channels stop transmitting and are never granted to new
    /// headers. Flits already buffered past the wire continue; flits that
    /// would cross it stall in place (the wormhole chain behind them
    /// stalls too, so delivered traffic degrades — no flit is dropped,
    /// and [`Simulator::restore_link`] lets the stalled traffic resume).
    ///
    /// Idempotent per link. The routing is *not* recomputed: headers
    /// keep proposing the dead hop and skip it, which models the window
    /// between a hardware fault and the reconfiguration that installs
    /// new routing tables.
    ///
    /// # Errors
    /// [`SimError::NoSuchLink`] when no link joins `a` and `b`.
    pub fn kill_link(&mut self, a: SwitchId, b: SwitchId) -> Result<(), SimError> {
        self.set_link_dead(a, b, true)
    }

    /// Bring a killed link back; stalled wormholes resume where they
    /// stopped.
    ///
    /// # Errors
    /// [`SimError::NoSuchLink`] when no link joins `a` and `b`.
    pub fn restore_link(&mut self, a: SwitchId, b: SwitchId) -> Result<(), SimError> {
        self.set_link_dead(a, b, false)
    }

    fn set_link_dead(&mut self, a: SwitchId, b: SwitchId, dead: bool) -> Result<(), SimError> {
        let link = self
            .topo
            .link_between(a.min(b), a.max(b))
            .ok_or(SimError::NoSuchLink { a, b })?;
        self.phys[2 * link].dead = dead;
        self.phys[2 * link + 1].dead = dead;
        // A link event changes what the headers at its two ends may claim.
        self.visits.woken[a] = true;
        self.visits.woken[b] = true;
        Ok(())
    }

    /// The current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Messages generated so far (all windows).
    pub fn generated_messages(&self) -> u64 {
        self.totals.generated
    }

    /// Messages fully delivered so far (all windows).
    pub fn delivered_messages(&self) -> u64 {
        self.totals.delivered_msgs
    }

    /// Flits consumed at delivery channels so far (all windows).
    pub fn delivered_flits(&self) -> u64 {
        self.totals.delivered_flits
    }

    /// Advance `cycles` cycles; returns `true` if the deadlock watchdog
    /// fired. Public so callers can step the simulator manually around
    /// mid-run events ([`Simulator::kill_link`]) instead of using the
    /// one-shot [`Simulator::run`] windows.
    pub fn advance(&mut self, cycles: u64) -> bool {
        let end = self.cycle + cycles;
        while self.cycle < end {
            self.generate();
            self.allocate();
            let moved = self.transfer();
            if moved {
                self.last_progress = self.cycle;
            } else if self.in_flight() {
                if self.cycle - self.last_progress >= self.cfg.deadlock_threshold {
                    return true;
                }
            } else {
                self.last_progress = self.cycle;
            }
            // CORRECTNESS: an unpushed queue cannot set a new maximum — it
            // is no longer than when `max_queue` last sampled it. Read at
            // cycle end, so a push and a pop in one cycle net out.
            for host in self.visits.grown.drain(..) {
                self.max_queue = self.max_queue.max(self.queues[host].len());
            }
            if self.pfc {
                self.totals.pfc_pause_cycles += u64::from(self.paused_now);
            }
            #[cfg(debug_assertions)]
            self.assert_visits_match_full_scans();
            self.cycle += 1;
        }
        false
    }

    /// Length of the longest source queue right now (a full scan: once
    /// per `run`, never per cycle).
    fn longest_queue(&self) -> usize {
        self.queues.iter().map(VecDeque::len).max().unwrap_or(0)
    }

    /// Whether any message is queued or occupying network resources.
    pub fn in_flight(&self) -> bool {
        self.visits.queued > 0 || !self.visits.owned.is_empty()
    }

    /// Stop generating new traffic and advance until the network is
    /// empty (every queued and in-flight message delivered) or
    /// `max_cycles` elapse, whichever comes first. Returns `true` if
    /// the deadlock watchdog fired.
    ///
    /// Used to separate "flits the network could not accept" from
    /// "flits that simply had not landed yet when the window closed":
    /// an unsaturated network empties in roughly one message latency,
    /// while a saturated one still holds a backlog when a (small) cap
    /// runs out.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.set_injection_rate(0.0);
        let mut left = max_cycles;
        while left > 0 && self.in_flight() {
            let step = left.min(64);
            if self.advance(step) {
                return true;
            }
            left -= step;
        }
        false
    }
}

/// Convenience: build and run one simulation.
///
/// `host_clusters[h]` is the logical cluster of workstation `h` (as
/// produced by `ProcessMapping::host_clusters`).
///
/// # Errors
/// See [`SimError`].
pub fn simulate(
    topo: &Topology,
    routing: &dyn Routing,
    host_clusters: &[usize],
    cfg: SimConfig,
) -> Result<SimStats, SimError> {
    let pattern = TrafficPattern::new(host_clusters.to_vec());
    Simulator::new(topo, routing, pattern, cfg).map(|mut sim| sim.run())
}

#[cfg(test)]
mod testutil {
    use super::Simulator;
    use commsched_routing::UpDownRouting;
    use commsched_topology::{designed, Topology};

    /// Counted work of the per-cycle loops, for the tests that pin each
    /// loop to what can change rather than to the size of the network.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Work {
        /// VCs `transfer` examined.
        pub vcs_examined: u64,
        /// VCs that had an owner when `transfer` began, by full scan,
        /// summed over cycles.
        pub owned_vc_cycles: u64,
        /// Of those, VCs parked by the definition, by full scan.
        pub parked_vc_cycles: u64,
        /// Headers `allocate` asked the router about.
        pub headers_tried: u64,
        /// Switches `allocate` visited that had a header waiting.
        pub switch_visits: u64,
    }

    pub fn updown(topo: &Topology) -> UpDownRouting {
        UpDownRouting::new(topo, 0).unwrap()
    }

    /// Two switches, one host each, both hosts in one cluster.
    pub fn tiny() -> Topology {
        designed::line(2, 1)
    }

    /// Stop injecting, let the network empty within `cap` cycles, and
    /// require that every generated message and flit was delivered.
    pub fn assert_drains_conserved(sim: &mut Simulator<'_>, cap: u64, what: &str) {
        assert!(!sim.drain(cap), "{what}: drain hit the watchdog");
        assert!(!sim.in_flight(), "{what}: network drained");
        assert_eq!(
            sim.delivered_flits(),
            sim.generated_messages() * sim.cfg.msg_len as u64,
            "{what}: every generated flit delivered"
        );
        assert_eq!(sim.delivered_messages(), sim.generated_messages(), "{what}");
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{assert_drains_conserved, tiny, updown};
    use super::*;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;

    #[test]
    fn different_seeds_differ() {
        let topo = designed::ring(6, 2);
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..12).map(|h| h / 6).collect();
        let cfg = SimConfig {
            injection_rate: 0.2,
            warmup_cycles: 300,
            measure_cycles: 2_000,
            ..Default::default()
        };
        let a = simulate(&topo, &routing, &clusters, SimConfig { seed: 1, ..cfg }).unwrap();
        let b = simulate(&topo, &routing, &clusters, SimConfig { seed: 2, ..cfg }).unwrap();
        assert_ne!(a.delivered_flits, b.delivered_flits);
    }

    #[test]
    fn paper_network_runs_clean() {
        let topo = designed::paper_24_switch();
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..96).map(|h| (h / 4) / 6).collect();
        let cfg = SimConfig {
            injection_rate: 0.1,
            warmup_cycles: 500,
            measure_cycles: 2_000,
            seed: 5,
            ..Default::default()
        };
        let stats = simulate(&topo, &routing, &clusters, cfg).unwrap();
        assert!(stats.delivered_messages > 100);
        assert!(!stats.deadlocked);
        assert!(stats.avg_network_latency.is_finite());
    }

    #[test]
    fn updown_overloads_links_near_root() {
        // §2: "the routing algorithm tends to overload links located near
        // the root switch."
        let topo = designed::mesh(3, 3, 2);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let clusters = vec![0; 18];
        let pattern = TrafficPattern::new(clusters);
        let cfg = SimConfig {
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 6_000,
            seed: 21,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        let _ = sim.run();
        let per_link = sim.link_flit_counts();
        let total: u64 = per_link.iter().sum();
        let avg = total as f64 / per_link.len() as f64;
        let root_load: u64 = topo.neighbors(0).iter().map(|&(_, l)| per_link[l]).sum();
        let root_avg = root_load as f64 / topo.degree(0) as f64;
        assert!(
            root_avg > avg,
            "root links {root_avg:.0} should exceed average {avg:.0}"
        );
        let injected = sim.host_injected_flits();
        assert!(injected.iter().all(|&f| f > 0));
    }

    #[test]
    fn mid_run_link_kill_degrades_delivered_traffic() {
        // Ring of 6, two clusters of three switches: intracluster traffic
        // crosses the intra-cluster ring links. Killing one mid-run stalls
        // the wormholes that need it and lowers the delivered rate.
        let topo = designed::ring(6, 2);
        let routing = updown(&topo);
        let clusters: Vec<usize> = (0..12).map(|h| h / 6).collect();
        let pattern = TrafficPattern::new(clusters);
        let cfg = SimConfig {
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 1_000,
            seed: 40,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        sim.advance(4_000);
        let healthy = sim.delivered_flits();
        assert!(healthy > 0);
        sim.kill_link(1, 2).unwrap();
        sim.advance(4_000);
        let degraded = sim.delivered_flits() - healthy;
        assert!(
            (degraded as f64) < 0.9 * healthy as f64,
            "delivered {degraded} flits after the kill vs {healthy} before"
        );
        // Stalled messages hold resources but nothing was dropped.
        assert!(sim.in_flight());
        assert_eq!(sim.cycle(), 8_000);
    }

    #[test]
    fn killing_a_missing_link_is_a_typed_error() {
        let topo = designed::ring(5, 1);
        let routing = updown(&topo);
        let pattern = TrafficPattern::new(vec![0; 5]);
        let mut sim = Simulator::new(&topo, &routing, pattern, SimConfig::default()).unwrap();
        assert_eq!(
            sim.kill_link(0, 2).unwrap_err(),
            SimError::NoSuchLink { a: 0, b: 2 }
        );
        assert_eq!(
            sim.restore_link(4, 1).unwrap_err(),
            SimError::NoSuchLink { a: 4, b: 1 }
        );
    }

    #[test]
    fn kill_then_restore_conserves_every_flit() {
        let topo = designed::ring(4, 2);
        let routing = updown(&topo);
        let clusters = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let pattern = TrafficPattern::new(clusters);
        let cfg = SimConfig {
            injection_rate: 0.3,
            warmup_cycles: 0,
            measure_cycles: 1_000,
            seed: 41,
            ..Default::default()
        };
        let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
        sim.advance(1_000);
        sim.kill_link(0, 1).unwrap();
        sim.advance(1_000);
        sim.restore_link(0, 1).unwrap();
        // A dead window stalls flits, it never loses them, so
        // conservation must close exactly.
        assert_drains_conserved(&mut sim, 8_000, "after restore");
    }

    #[test]
    fn host_count_mismatch_rejected() {
        let topo = tiny();
        let routing = updown(&topo);
        let err = simulate(&topo, &routing, &[0, 0, 0], SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::HostCountMismatch {
                pattern: 3,
                topology: 2
            }
        );
    }

    #[test]
    fn routing_mismatch_rejected() {
        let topo = tiny();
        let other = designed::ring(4, 1);
        let routing = updown(&other);
        let err = simulate(&topo, &routing, &[0, 0], SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::RoutingMismatch { .. }));
    }

    #[test]
    fn config_error_propagates() {
        let topo = tiny();
        let routing = updown(&topo);
        let cfg = SimConfig {
            msg_len: 1,
            ..Default::default()
        };
        assert!(matches!(
            simulate(&topo, &routing, &[0, 0], cfg),
            Err(SimError::Config(_))
        ));
    }
}
