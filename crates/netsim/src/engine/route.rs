//! The candidate set: which output VCs a header may claim, in which
//! preference class.
//!
//! This is the only place that asks a router for hops. Allocation
//! ([`super::alloc`]) takes the first class holding a free live VC; the
//! stall classifier ([`super::stall`]) joins the blockers of *every*
//! class — both walk the one enumeration below, so they cannot disagree
//! about where a header could have gone.

use super::{Message, PhysId, Simulator};
use commsched_routing::{RouteState, Routing};
use commsched_topology::SwitchId;
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

impl Simulator<'_> {
    /// Walk the candidate classes of message `m`, whose header sits at
    /// switch `s`, in preference order, handing each class's candidates
    /// (in the router's hop order) to `visit` until it returns `Some`.
    ///
    /// Lazy on purpose: a later class's hops are asked of the router
    /// only after `visit` declined every earlier class, and the
    /// candidates are mapped straight off the router's hop list, so a
    /// header costs no allocation beyond what `next_hops` itself does.
    pub(super) fn candidate_classes<T>(
        &self,
        s: SwitchId,
        m: &Message,
        mut visit: impl FnMut(Class, &mut dyn Iterator<Item = Candidate>) -> Option<T>,
    ) -> Option<T> {
        let all = 0..self.vcs_per_phys;
        let dst = self.switch_of_host(m.dst_host);
        if s == dst {
            let deliver = Candidate {
                phys: self.deliver_base + m.dst_host,
                vcs: all,
                descended: m.descended,
            };
            return visit(Class::Deliver, &mut std::iter::once(deliver));
        }
        // `phase`: the bit the class fixes, or `None` for the router's own.
        let over = |hops: Vec<RouteState>, vcs: Range<usize>, phase: Option<bool>| {
            hops.into_iter().map(move |hop| Candidate {
                phys: self.link_channel(s, hop.node),
                vcs: vcs.clone(),
                descended: phase.unwrap_or(hop.descended),
            })
        };

        let duato = self.adaptive.as_ref();
        if let Some(adaptive) = duato.filter(|_| !m.escape) {
            let hops = adaptive.next_hops(RouteState::start(s), dst);
            let found = visit(
                Class::Adaptive,
                &mut over(hops, 1..all.end, Some(m.descended)),
            );
            if found.is_some() {
                return found;
            }
        }
        let descended = if duato.is_some() && !m.escape {
            false // entering the escape network fresh
        } else {
            m.descended
        };
        let state = RouteState { node: s, descended };
        let vcs = if duato.is_some() { 0..1 } else { all.clone() };
        let hops = self.routing.next_hops(state, dst);
        let found = visit(Class::Minimal, &mut over(hops, vcs, None));
        if found.is_some() {
            return found;
        }
        if self.cfg.adaptive_misroute && duato.is_none() && m.misroutes < self.cfg.max_misroutes {
            let hops = self.routing.misroute_hops(state, dst);
            return visit(Class::Misroute, &mut over(hops, all, None));
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
    use commsched_topology::designed;
    use Class::{Adaptive, Deliver, Minimal, Misroute};

    /// `(class, channel, VC range)` of every candidate of a fresh message
    /// to `dst_host` — altered by `tweak` — whose header sits at `s`.
    fn listing(
        sim: &Simulator<'_>,
        s: SwitchId,
        dst_host: usize,
        tweak: impl FnOnce(&mut Message),
    ) -> Vec<(Class, PhysId, Range<usize>)> {
        let mut m = Message::new(0, dst_host, 0);
        tweak(&mut m);
        let mut seen = Vec::new();
        sim.candidate_classes::<()>(s, &m, |class, candidates| {
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
        assert_eq!(listing(&base, 1, 3, |_| {}), up);
        assert_eq!(
            listing(&sim(3, false, false), 1, 3, |_| {}),
            vec![(Minimal, ch(1, 0), 0..3)]
        );
        // At the destination switch: the delivery channel, nothing else.
        assert_eq!(listing(&base, 3, 3, |_| {}), vec![(Deliver, 15, 0..1)]);
        // A dead output channel is still enumerated — liveness is the
        // consumers' test (allocation skips it, the stall classifier
        // roots a wait chain in it).
        base.kill_link(0, 1).unwrap();
        assert_eq!(listing(&base, 1, 3, |_| {}), up);

        // Duato before escape commitment: both topological minimal hops
        // on the adaptive VCs, then the escape VC of the up*/down* hop.
        // After commitment: the escape VC only — and never a misroute,
        // whatever the option says.
        for duato in [sim(3, true, false), sim(3, true, true)] {
            assert_eq!(
                listing(&duato, 1, 3, |_| {}),
                vec![
                    (Adaptive, ch(1, 0), 1..3),
                    (Adaptive, ch(1, 2), 1..3),
                    (Minimal, ch(1, 0), 0..1),
                ]
            );
            assert_eq!(
                listing(&duato, 1, 3, |m| m.escape = true),
                vec![(Minimal, ch(1, 0), 0..1)]
            );
        }

        // Misroute budget available: switch 2 → host 1 has the minimal
        // hop 2 → 1 (up) and the legal detour 2 → 3 → 0 → 1 (up, up,
        // down). Budget exhausted: the minimal class only.
        let misroute = sim(1, false, true);
        assert_eq!(
            listing(&misroute, 2, 1, |_| {}),
            vec![(Minimal, ch(2, 1), 0..1), (Misroute, ch(2, 3), 0..1)]
        );
        assert_eq!(
            listing(&misroute, 2, 1, |m| m.misroutes = 2),
            vec![(Minimal, ch(2, 1), 0..1)]
        );

        // Lazy: once a class is taken, no later class is visited. And
        // each candidate carries its class's phase bit — kept on the
        // adaptive VCs, the router's on its own hops (out of the root
        // every hop goes down).
        let duato = sim(2, true, false);
        let m = Message::new(0, 2, 0);
        let mut visited = Vec::new();
        let first = duato.candidate_classes(0, &m, |class, candidates| {
            visited.push(class);
            candidates.next()
        });
        assert_eq!(visited, vec![Adaptive]);
        assert!(!first.unwrap().descended);
        let escape = duato.candidate_classes(0, &m, |class, candidates| {
            candidates.next().filter(|_| class == Minimal)
        });
        assert!(escape.unwrap().descended);
    }
}
