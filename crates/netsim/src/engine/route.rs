//! The candidate set: which output VCs a header may claim, in which
//! preference class.
//!
//! This is the only place that asks a router for hops, once per (switch,
//! phase bit, destination switch): the answers are kept in a [`Table`]
//! filled as headers arrive. Allocation ([`super::alloc`]) takes the
//! first class holding a free live VC; the stall classifier
//! ([`super::stall`]) joins the blockers of *every* class — both walk the
//! one enumeration below, so they cannot disagree about where a header
//! could have gone.

use super::{Message, PhysId, Simulator};
use commsched_routing::{RouteState, Routing};
use commsched_topology::SwitchId;
use std::collections::HashMap;
use std::ops::Range;

/// Preference class of a header's output candidates, in the order a
/// header tries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Class {
    /// The header has reached its destination switch: the host's
    /// delivery channel.
    Deliver,
    /// Duato's adaptive VCs (`1..V`) over any topological minimal hop;
    /// offered only until the message commits to the escape network.
    Adaptive,
    /// Minimal hops of the supplied router: the escape VC `0` under the
    /// Duato protocol (granting it commits the message to the escape
    /// network), every VC otherwise.
    Minimal,
    /// Legal non-minimal hops of the supplied router, while the
    /// message's misroute budget lasts. Base router only: under Duato
    /// the adaptive VCs already provide path diversity and the escape
    /// network must stay on the supplied minimal routes.
    Misroute,
}

/// One output a header may claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Candidate {
    /// Output physical channel.
    pub phys: PhysId,
    /// VC indices of `phys` open to this class.
    pub vcs: Range<usize>,
    /// Routing phase bit the message carries once it takes this output.
    pub descended: bool,
}

/// Where the adaptive, minimal and misroute candidates of one (switch,
/// phase, destination) lie in the table's candidate list: each between two
/// consecutive bounds. The default is empty, for a header at its
/// destination switch.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Entry([u32; 4]);

/// The routers' answers, each asked once and kept in hop order. Filled
/// pair by pair as headers need them, never for all N² pairs up front.
#[derive(Debug, Clone, Default)]
pub(super) struct Table {
    index: HashMap<(SwitchId, bool, SwitchId), Entry>,
    candidates: Vec<Candidate>,
}

impl Table {
    /// The adaptive, minimal and misroute candidates of `entry`.
    pub fn classes(&self, Entry(at): Entry) -> [&[Candidate]; 3] {
        [0, 1, 2].map(|i| &self.candidates[at[i] as usize..at[i + 1] as usize])
    }
}

impl Simulator<'_> {
    /// Every class's candidates for message `m` at switch `s`, fresh
    /// from the routers: what a table entry records, and what the debug
    /// reference checks a read against.
    pub(super) fn ask_routers(&self, s: SwitchId, m: &Message) -> [Vec<Candidate>; 3] {
        let (all, dst) = (0..self.vcs_per_phys, self.switch_of_host(m.dst_host));
        // `phase`: the bit the class fixes, or `None` for the router's own.
        let over = |hops: Vec<RouteState>, vcs: Range<usize>, phase: Option<bool>| {
            let hop = |hop: RouteState| Candidate {
                phys: self.link_channel(s, hop.node),
                vcs: vcs.clone(),
                descended: phase.unwrap_or(hop.descended),
            };
            hops.into_iter().map(hop).collect()
        };
        let duato = self.adaptive.as_ref();
        let adaptive = duato.map_or_else(Vec::new, |router| {
            let hops = router.next_hops(RouteState::start(s), dst);
            over(hops, 1..all.end, Some(m.descended))
        });
        let descended = if duato.is_some() && !m.escape {
            false // entering the escape network fresh
        } else {
            m.descended
        };
        let state = RouteState { node: s, descended };
        let vcs = if duato.is_some() { 0..1 } else { all.clone() };
        let minimal = over(self.routing.next_hops(state, dst), vcs, None);
        let misroute = if self.cfg.adaptive_misroute && duato.is_none() {
            over(self.routing.misroute_hops(state, dst), all, None)
        } else {
            Vec::new()
        };
        [adaptive, minimal, misroute]
    }

    /// The table entry of message `m` at switch `s`, asking the routers
    /// only if no header needed this (switch, phase, destination) before.
    pub(super) fn candidate_entry(&mut self, s: SwitchId, m: &Message) -> Entry {
        let dst = self.switch_of_host(m.dst_host);
        if s == dst {
            return Entry::default();
        }
        // CORRECTNESS: the answers depend on the pair and the message's
        // phase bit alone. The adaptive router's depend on the pair; the
        // supplied router's on the pair and the phase it is asked with,
        // which is `m.descended` or, under Duato before the escape
        // network, `false` — and there `m.descended` is still `false`
        // (only an escape grant sets it).
        let key = (s, m.descended, dst);
        if let Some(&entry) = self.routes.index.get(&key) {
            return entry;
        }
        let classes = self.ask_routers(s, m);
        let table = &mut self.routes.candidates;
        let mut at = [table.len() as u32; 4];
        for (i, class) in classes.into_iter().enumerate() {
            table.extend(class);
            at[i + 1] = table.len() as u32;
        }
        self.routes.index.insert(key, Entry(at));
        Entry(at)
    }

    /// Walk the candidate classes of message `m`, whose header sits at
    /// switch `s` with table entry `entry`, in preference order, handing
    /// each class's candidates (in the router's hop order) to `visit`
    /// until it returns `Some`.
    ///
    /// Lazy on purpose: a later class is enumerated only after `visit`
    /// declined every earlier class. An ask reads the table: no
    /// allocation, no router call, no search.
    pub(super) fn candidate_classes<T>(
        &self,
        s: SwitchId,
        m: &Message,
        entry: Entry,
        mut visit: impl FnMut(Class, &mut dyn Iterator<Item = Candidate>) -> Option<T>,
    ) -> Option<T> {
        if s == self.switch_of_host(m.dst_host) {
            let deliver = Candidate {
                phys: self.deliver_base + m.dst_host,
                vcs: 0..self.vcs_per_phys,
                descended: m.descended,
            };
            return visit(Class::Deliver, &mut std::iter::once(deliver));
        }
        #[cfg(debug_assertions)]
        self.assert_entry_matches_routers(s, m, entry);
        let [adaptive, minimal, misroute] = self.routes.classes(entry);
        if self.adaptive.is_some() && !m.escape {
            let found = visit(Class::Adaptive, &mut adaptive.iter().cloned());
            if found.is_some() {
                return found;
            }
        }
        let found = visit(Class::Minimal, &mut minimal.iter().cloned());
        if found.is_some() {
            return found;
        }
        // Empty unless `adaptive_misroute` is on for the base router.
        if m.misroutes < self.cfg.max_misroutes {
            return visit(Class::Misroute, &mut misroute.iter().cloned());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::updown;
    use super::*;
    use crate::config::SimConfig;
    use crate::traffic::TrafficPattern;
    use commsched_routing::RouteRow;
    use commsched_topology::{designed, LinkId};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use Class::{Adaptive, Deliver, Minimal, Misroute};

    /// `(class, channel, VC range)` of every candidate of a fresh message
    /// to `dst_host` — altered by `tweak` — whose header sits at `s`.
    fn listing(
        sim: &mut Simulator<'_>,
        s: SwitchId,
        dst_host: usize,
        tweak: impl FnOnce(&mut Message),
    ) -> Vec<(Class, PhysId, Range<usize>)> {
        let mut m = Message::new(0, dst_host, 0);
        tweak(&mut m);
        let entry = sim.candidate_entry(s, &m);
        let mut seen = Vec::new();
        sim.candidate_classes::<()>(s, &m, entry, |class, candidates| {
            seen.extend(candidates.map(|c| (class, c.phys, c.vcs)));
            None
        });
        seen
    }

    /// The exact enumeration on a ring of four (one host per switch;
    /// up*/down* rooted at switch 0, so switch 2 is the far corner):
    /// eight link channels, four injection channels, and delivery to
    /// host `h` on channel `12 + h`.
    #[test]
    fn candidate_sequences() {
        let topo = designed::ring(4, 1);
        let routing = updown(&topo);
        let sim = |vcs: usize, duato: bool, misroute: bool| {
            let cfg = SimConfig {
                virtual_channels: vcs,
                fully_adaptive: duato,
                adaptive_misroute: misroute,
                max_misroutes: 2,
                ..SimConfig::default()
            };
            Simulator::new(&topo, &routing, TrafficPattern::new(vec![0; 4]), cfg).unwrap()
        };
        let ch = |from: SwitchId, to: SwitchId| {
            let link = topo.link_between(from, to).unwrap();
            2 * link + usize::from(topo.link(link).a != from)
        };

        // Single-VC base router, switch 1 → host 3: the only minimal
        // up*/down* route climbs to the root (1 → 2 → 3 would go up
        // after down). With three VCs and no Duato protocol, all are open.
        let mut base = sim(1, false, false);
        let up = vec![(Minimal, ch(1, 0), 0..1)];
        assert_eq!(listing(&mut base, 1, 3, |_| {}), up);
        assert_eq!(
            listing(&mut sim(3, false, false), 1, 3, |_| {}),
            vec![(Minimal, ch(1, 0), 0..3)]
        );
        // At the destination switch: the delivery channel, nothing else.
        assert_eq!(listing(&mut base, 3, 3, |_| {}), vec![(Deliver, 15, 0..1)]);
        // A dead output channel is still enumerated — liveness is the
        // consumers' test (allocation skips it, the stall classifier
        // roots a wait chain in it).
        base.kill_link(0, 1).unwrap();
        assert_eq!(listing(&mut base, 1, 3, |_| {}), up);

        // Duato before escape commitment: both topological minimal hops
        // on the adaptive VCs, then the escape VC of the up*/down* hop.
        // After commitment: the escape VC only — and never a misroute,
        // whatever the option says.
        for mut duato in [sim(3, true, false), sim(3, true, true)] {
            assert_eq!(
                listing(&mut duato, 1, 3, |_| {}),
                vec![
                    (Adaptive, ch(1, 0), 1..3),
                    (Adaptive, ch(1, 2), 1..3),
                    (Minimal, ch(1, 0), 0..1),
                ]
            );
            assert_eq!(
                listing(&mut duato, 1, 3, |m| m.escape = true),
                vec![(Minimal, ch(1, 0), 0..1)]
            );
        }

        // Misroute budget available: switch 2 → host 1 has the minimal
        // hop 2 → 1 (up) and the legal detour 2 → 3 → 0 → 1 (up, up,
        // down). Budget exhausted: the minimal class only.
        let mut misroute = sim(1, false, true);
        assert_eq!(
            listing(&mut misroute, 2, 1, |_| {}),
            vec![(Minimal, ch(2, 1), 0..1), (Misroute, ch(2, 3), 0..1)]
        );
        assert_eq!(
            listing(&mut misroute, 2, 1, |m| m.misroutes = 2),
            vec![(Minimal, ch(2, 1), 0..1)]
        );

        // Lazy: once a class is taken, no later class is visited. And
        // each candidate carries its class's phase bit — kept on the
        // adaptive VCs, the router's on its own hops (out of the root
        // every hop goes down).
        let mut duato = sim(2, true, false);
        let m = Message::new(0, 2, 0);
        let entry = duato.candidate_entry(0, &m);
        let mut visited = Vec::new();
        let first = duato.candidate_classes(0, &m, entry, |class, candidates| {
            visited.push(class);
            candidates.next()
        });
        assert_eq!(visited, vec![Adaptive]);
        assert!(!first.unwrap().descended);
        let escape = duato.candidate_classes(0, &m, entry, |class, candidates| {
            candidates.next().filter(|_| class == Minimal)
        });
        assert!(escape.unwrap().descended);
    }

    /// The supplied router, counting its asks and the distinct (switch,
    /// phase, destination) keys they name.
    struct Counting<'r> {
        inner: &'r dyn Routing,
        next_hops: AtomicU64,
        misroute_hops: AtomicU64,
        keys: Mutex<HashSet<(SwitchId, bool, SwitchId)>>,
    }

    impl Counting<'_> {
        fn count(&self, asks: &AtomicU64, state: RouteState, dst: SwitchId) {
            asks.fetch_add(1, Ordering::Relaxed);
            let key = (state.node, state.descended, dst);
            self.keys.lock().unwrap().insert(key);
        }
    }

    impl Routing for Counting<'_> {
        fn num_switches(&self) -> usize {
            self.inner.num_switches()
        }

        fn route_distance(&self, src: SwitchId, dst: SwitchId) -> u32 {
            self.inner.route_distance(src, dst)
        }

        fn minimal_route_links(&self, src: SwitchId, dst: SwitchId) -> Vec<LinkId> {
            self.inner.minimal_route_links(src, dst)
        }

        fn scan_row(&self, src: SwitchId, row: &mut RouteRow) {
            self.inner.scan_row(src, row);
        }

        fn row_links(&self, dst: SwitchId, row: &mut RouteRow, out: &mut Vec<LinkId>) {
            self.inner.row_links(dst, row, out);
        }

        fn next_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState> {
            self.count(&self.next_hops, state, dst);
            self.inner.next_hops(state, dst)
        }

        fn misroute_hops(&self, state: RouteState, dst: SwitchId) -> Vec<RouteState> {
            self.count(&self.misroute_hops, state, dst);
            self.inner.misroute_hops(state, dst)
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn a_run_asks_the_router_once_per_switch_phase_and_destination() {
        let topo = designed::paper_24_switch();
        let updown = updown(&topo);
        let clusters: Vec<usize> = (0..96).map(|h| (h / 4) / 6).collect();
        for misroute in [false, true] {
            let routing = Counting {
                inner: &updown,
                next_hops: AtomicU64::new(0),
                misroute_hops: AtomicU64::new(0),
                keys: Mutex::default(),
            };
            let cfg = SimConfig {
                injection_rate: 0.3,
                adaptive_misroute: misroute,
                seed: 9,
                ..Default::default()
            };
            let pattern = TrafficPattern::new(clusters.clone());
            let mut sim = Simulator::new(&topo, &routing, pattern, cfg).unwrap();
            assert_eq!(
                routing.next_hops.load(Ordering::Relaxed),
                0,
                "asked in `new`"
            );
            let _ = sim.run();
            // Debug builds check every table read against a fresh ask.
            let checks = sim.reference_reads.get();
            let keys = routing.keys.lock().unwrap().len() as u64;
            assert!(keys > 24, "{keys} keys");
            let asks = routing.next_hops.load(Ordering::Relaxed);
            assert_eq!(asks - checks, keys, "misroute={misroute}");
            let detours = routing.misroute_hops.load(Ordering::Relaxed);
            assert_eq!(detours, if misroute { keys + checks } else { 0 });
        }
    }
}
